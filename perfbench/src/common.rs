//! Pieces every workload shares: the run context, what a run returns, the
//! counter deltas around the timed phase, the standalone snapshot probes
//! and the helpers that turn samples into metrics.

use std::path::PathBuf;
use std::time::Instant;

use hdp_osr::core::{ModelRegistry, SnapshotStore};
use hdp_osr::stats::counters;
use hdp_osr::stats::metrics::{global, MetricsSnapshot};

use crate::report::{self, Metric};
use crate::scene::Scene;
use crate::trace::{TraceId, Tracer};

/// Serving workers: the machine this benchmark targets has two CPUs.
pub const WORKERS: usize = 2;
/// Standalone saves, resolves and loads timed after the timed phase.
pub const PROBES: usize = 24;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory of this run (snapshot files), removed at the end.
    pub work_dir: PathBuf,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any makes the run incorrect.
    pub violations: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl RunOutput {
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sorted milliseconds from nanoseconds.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    report::sorted(ns.iter().map(|&n| ns_to_ms(n)).collect())
}

/// p50 of a nanosecond sample, scaled by `per_ns` (units per nanosecond).
pub fn p50_scaled(ns: &[u64], per_ns: f64) -> f64 {
    report::median(&report::sorted(
        ns.iter().map(|&n| n as f64 * per_ns).collect(),
    ))
}

/// The highest supported percentile at or below `p` (the tail rule), for
/// per-layer samples that may be too small for `p` itself.
pub fn tail_or_supported(sorted: &[f64], p: f64) -> f64 {
    report::checked_tail(sorted, p)
        .ok()
        .or_else(|| report::supported_tail(sorted))
        .map_or(0.0, |q| q.value)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of this process so far in nanoseconds: every thread, exited
/// ones included (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Time the hypervisor has taken from this machine's CPUs so far, in
/// clock ticks summed over every CPU (the `steal` column of `/proc/stat`);
/// 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The program's counters and histograms read as a delta around a phase.
pub struct Delta(pub MetricsSnapshot);

impl Delta {
    pub fn since(before: &MetricsSnapshot) -> Self {
        Self(global().snapshot().delta_since(before))
    }

    pub fn count(&self, name: &str) -> u64 {
        self.0.counter(name)
    }

    /// Report the work counts of the sampler and the bank kernels per
    /// `points` answered and `batches` served.
    pub fn report_work(&self, out: &mut RunOutput, points: u64, batches: u64) {
        let per_point = |n: u64| report::ratio(n, points);
        out.layer(
            "hdp.sweeps_per_batch",
            "count",
            report::ratio(self.count(hdp_osr::hdp::SWEEPS_METRIC), batches),
        );
        out.layer(
            "hdp.seat_moves_per_point",
            "count",
            per_point(self.count(hdp_osr::hdp::SEAT_MOVES_METRIC)),
        );
        let sweep_ns = self.0.histogram(hdp_osr::hdp::SWEEP_TIME_METRIC);
        out.layer(
            "hdp.sweep_time_us.p50",
            "us",
            sweep_ns.quantile(0.5) as f64 / 1e3,
        );
        out.layer(
            "stats.predictive_calls_per_point",
            "count",
            per_point(self.count(counters::PREDICTIVE_LOGPDF_CALLS)),
        );
        out.layer(
            "stats.one_vs_all_per_point",
            "count",
            per_point(self.count(counters::PREDICTIVE_ONE_VS_ALL)),
        );
        out.layer(
            "stats.batch_vs_one_per_point",
            "count",
            per_point(self.count(counters::PREDICTIVE_BATCH_VS_ONE)),
        );
        let kernel_ns = self.0.histogram(counters::PREDICTIVE_NS);
        out.layer(
            "stats.predictive_ns.p50",
            "ns",
            kernel_ns.quantile(0.5) as f64,
        );
        out.layer(
            "serving.retries",
            "count",
            self.count(counters::SERVE_RETRIES) as f64,
        );
        out.layer(
            "serving.degraded_batches",
            "count",
            self.count(counters::DEGRADED_BATCHES) as f64,
        );
        out.layer(
            "snapshot.loads",
            "count",
            self.count(counters::SNAPSHOT_LOADS) as f64,
        );
        out.layer(
            "snapshot.load_failures",
            "count",
            self.count(counters::SNAPSHOT_LOAD_FAILURES) as f64,
        );
    }
}

/// Time standalone snapshot saves (a tenant's model rewritten to its own
/// file, as a publish does), cold resolves (a fresh one-slot registry per
/// probe, so every resolve misses) and snapshot loads on the workload's own
/// files.
pub fn snapshot_probes(ctx: &mut Ctx, scene: &Scene, out: &mut RunOutput) {
    let mut save_ns = Vec::with_capacity(PROBES);
    let mut resolve_ns = Vec::with_capacity(PROBES);
    let mut load_ns = Vec::with_capacity(PROBES);
    for k in 0..PROBES {
        let t = k % scene.tenants.len();
        let span = ctx
            .tracer
            .open("snapshot.save", None, TraceId::Probe(k as u64));
        let started = Instant::now();
        let saved = SnapshotStore::new(scene.snapshot_path(t)).save(&scene.models[t]);
        save_ns.push(started.elapsed().as_nanos() as u64);
        ctx.tracer.close(span);
        out.check(saved.is_ok(), || {
            format!("snapshot save of {} failed", scene.tenants[t])
        });

        let registry = ModelRegistry::new(1).with_snapshot_dir(&scene.snapshot_dir);
        let span = ctx
            .tracer
            .open("registry.resolve_cold", None, TraceId::Probe(k as u64));
        let started = Instant::now();
        let resolved = registry.resolve(&scene.tenants[t]);
        resolve_ns.push(started.elapsed().as_nanos() as u64);
        ctx.tracer.close(span);
        out.check(resolved.is_ok(), || {
            format!("cold resolve of {} failed", scene.tenants[t])
        });

        let span = ctx
            .tracer
            .open("snapshot.load", None, TraceId::Probe(k as u64));
        let started = Instant::now();
        let loaded = SnapshotStore::new(scene.snapshot_path(t)).load();
        load_ns.push(started.elapsed().as_nanos() as u64);
        ctx.tracer.close(span);
        out.check(loaded.is_ok(), || {
            format!("snapshot load of {} failed", scene.tenants[t])
        });
    }
    out.layer("snapshot.save_ms.p50", "ms", p50_scaled(&save_ns, 1e-6));
    out.layer(
        "registry.cold_resolve_ms.p50",
        "ms",
        p50_scaled(&resolve_ns, 1e-6),
    );
    out.layer("snapshot.load_ms.p50", "ms", p50_scaled(&load_ns, 1e-6));
    out.layer("snapshot.bytes", "bytes", scene.snapshot_bytes as f64);
}

/// Report set-up and model-fit metrics shared by every workload.
///
/// `setup_s` is the 10th percentile of the repeats, not their median. On a
/// shared host one thread's speed flips between two levels over seconds
/// (repeats of one run read 0.06 s and 0.10 s on a 2-vCPU VM), so the
/// median follows whichever level held more of the run and jumps by 1.6x
/// between runs. The faster level is reached in most runs; work
/// moved into set-up adds to every repeat and shows in the 10th percentile
/// as well.
pub fn report_setup(out: &mut RunOutput, scene: &Scene, setup_s: &[f64]) {
    out.e2e(
        "setup_s",
        "s",
        report::percentile(&report::sorted(setup_s.to_vec()), 10.0).map_or(0.0, |q| q.value),
    );
    out.layer(
        "model.fit_s.p50",
        "s",
        report::median(&report::sorted(scene.fit_s.clone())),
    );
    out.layer("setup.snapshot_write_s", "s", scene.snapshot_write_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }
}
