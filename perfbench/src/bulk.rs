//! The paper's protocol as a closed loop: one client calls
//! `BatchServer::with_workers(model, 2).classify_batches` on two batches of
//! 400 test points, waits for the answer, and calls again. No front-end
//! and no registry: nearly all the time is Gibbs sweeps.
//!
//! A call is measured by the CPU time the process spends on it (both
//! workers), not by its wall time: `p50_ms`, `p99_ms` and `slo_met_frac`
//! read CPU milliseconds per call, `throughput_pps` points per CPU second.
//! On a shared, paravirtualised host the hypervisor can take a vCPU away
//! for long spells ("steal"); a call then waits for its slower worker, and
//! its wall time doubles between runs of the same code. A kernel with
//! paravirtual time accounting leaves stolen time out of a task's CPU
//! time. The wall-time median is printed on standard error.

use std::sync::Arc;
use std::time::Instant;

use hdp_osr::core::{derive_batch_seed, BatchServer, Prediction};
use hdp_osr::eval::metrics::OpenSetConfusion;
use hdp_osr::stats::metrics::{global, Counter};
use hdp_osr::stats::{counters, sampling};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, Ctx, Delta, RunOutput, WORKERS};
use crate::layers::{self, LayerTimes};
use crate::report;
use crate::scene;
use crate::trace::TraceId;

const BATCHES_PER_CALL: usize = 2;
const BATCH_POINTS: usize = 400;
/// Distinct call inputs; call `i` serves input `i % INPUTS` under its own
/// seed.
const INPUTS: usize = 32;
/// Latency limit of one call (CPU time).
const LIMIT_NS: u64 = 50_000_000;
/// p50 and throughput are medians over windows of `WINDOW_CALLS` calls;
/// p99 is read over the whole run, which makes at least `MIN_CALLS` calls
/// (ten beyond the p99).
const WINDOW_CALLS: usize = 100;
const MIN_CALLS: usize = 1_000;
/// Every this many calls, one is checked against a sequential replay.
const VERIFY_EVERY: usize = 64;
const VERIFY_MAX: usize = 16;

/// The program's deterministic work counters, read per call.
struct Work {
    handles: [Counter; 5],
}

impl Work {
    fn new() -> Self {
        let reg = global();
        Self {
            handles: [
                reg.counter(counters::PREDICTIVE_LOGPDF_CALLS),
                reg.counter(counters::PREDICTIVE_ONE_VS_ALL),
                reg.counter(counters::PREDICTIVE_BATCH_VS_ONE),
                reg.counter(hdp_osr::hdp::SWEEPS_METRIC),
                reg.counter(hdp_osr::hdp::SEAT_MOVES_METRIC),
            ],
        }
    }

    fn read(&self) -> [u64; 5] {
        std::array::from_fn(|i| self.handles[i].get())
    }

    fn since(&self, before: [u64; 5]) -> [u64; 5] {
        let now = self.read();
        std::array::from_fn(|i| now[i] - before[i])
    }
}

struct Call {
    input: usize,
    seed: u64,
    /// CPU time and wall time of the call.
    cpu_ns: u64,
    wall_ns: u64,
    answered: u64,
    work: [u64; 5],
    predictions: Option<Vec<Vec<Prediction>>>,
}

pub fn run(ctx: &mut Ctx) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let (scene, setup_s) = scene::build_repeated(1, &ctx.work_dir)?;
    common::report_setup(&mut out, &scene, &setup_s);
    let model = Arc::clone(&scene.models[0]);
    let split = &scene.splits[0];

    // Inputs: each batch is 400 distinct test points in a seeded order.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xb01c);
    let inputs: Vec<Vec<Vec<usize>>> = (0..INPUTS)
        .map(|_| {
            (0..BATCHES_PER_CALL)
                .map(|_| {
                    let mut idx: Vec<usize> = (0..split.points.len()).collect();
                    sampling::shuffle(&mut rng, &mut idx);
                    idx.truncate(BATCH_POINTS);
                    idx
                })
                .collect()
        })
        .collect();
    let materialized: Vec<Vec<Vec<Vec<f64>>>> = inputs
        .iter()
        .map(|input| {
            input
                .iter()
                .map(|b| b.iter().map(|&i| split.points[i].clone()).collect())
                .collect()
        })
        .collect();
    let server = BatchServer::with_workers(model.as_ref(), WORKERS);
    let work = Work::new();

    // Warm-up: thread start-up and page faults before timing.
    for input in &materialized[..2] {
        for r in server.classify_batches(input, ctx.seed ^ 0xface) {
            r.map_err(|e| format!("warm-up call failed: {e}"))?;
        }
    }

    let mut calls: Vec<Call> = Vec::new();
    let mut confusion = OpenSetConfusion::default();
    let (mut answered, mut failed) = (0u64, 0u64);
    let before = global().snapshot();
    let start = Instant::now();
    let budget_ns = (ctx.seconds * 1e9) as u128;
    while start.elapsed().as_nanos() < budget_ns || calls.len() < MIN_CALLS {
        let i = calls.len();
        let input = i % INPUTS;
        let seed = derive_batch_seed(ctx.seed, i);
        let span = ctx
            .tracer
            .open("bulk.classify_batches", None, TraceId::Call(i as u64));
        let counts = work.read();
        let cpu_started = common::process_cpu_ns();
        let started = Instant::now();
        let results = server.classify_batches(&materialized[input], seed);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let cpu_ns = common::process_cpu_ns() - cpu_started;
        let work_done = work.since(counts);
        ctx.tracer.close(span);
        let mut kept = Vec::new();
        let mut call_answered = 0u64;
        for (b, result) in results.into_iter().enumerate() {
            match result {
                Ok(outcome) => {
                    call_answered += outcome.predictions.len() as u64;
                    for (&p, &point) in outcome.predictions.iter().zip(&inputs[input][b]) {
                        confusion.record(p, split.truth[point]);
                    }
                    kept.push(outcome.predictions);
                }
                Err(_) => failed += BATCH_POINTS as u64,
            }
        }
        let verify = i.is_multiple_of(VERIFY_EVERY) && kept.len() == BATCHES_PER_CALL;
        answered += call_answered;
        calls.push(Call {
            input,
            seed,
            cpu_ns,
            wall_ns,
            answered: call_answered,
            work: work_done,
            predictions: verify.then_some(kept),
        });
    }
    let delta = Delta::since(&before);

    let sent = (calls.len() * BATCHES_PER_CALL * BATCH_POINTS) as u64;
    out.attempted = sent;
    out.failed = failed;
    out.check(answered + failed == sent, || {
        format!("sent {sent} points != answered {answered} + failed {failed}")
    });
    let cpu_ns_per_call: Vec<u64> = calls.iter().map(|c| c.cpu_ns).collect();
    let wall_ns: Vec<u64> = calls.iter().map(|c| c.wall_ns).collect();
    eprintln!(
        "bulk: p50 per call {:.3} ms on CPU, {:.3} ms wall",
        report::median(&common::sorted_ms(&cpu_ns_per_call)),
        report::median(&common::sorted_ms(&wall_ns))
    );
    out.e2e(
        "p50_ms",
        "ms",
        report::windowed(&cpu_ns_per_call, WINDOW_CALLS, |w| {
            Ok(report::median(&common::sorted_ms(w)))
        })?,
    );
    let p99 = report::checked_tail(&common::sorted_ms(&cpu_ns_per_call), 99.0)?;
    eprintln!("latency: {} calls, {} beyond the p99", p99.n, p99.beyond);
    out.e2e("p99_ms", "ms", p99.value);
    out.e2e(
        "slo_met_frac",
        "ratio",
        report::slo_met_frac(&cpu_ns_per_call, calls.len() as u64, LIMIT_NS),
    );
    out.e2e(
        "throughput_pps",
        "points/s",
        report::windowed(&calls, WINDOW_CALLS, |w| {
            let busy_s = w.iter().map(|c| c.cpu_ns).sum::<u64>() as f64 / 1e9;
            Ok(w.iter().map(|c| c.answered).sum::<u64>() as f64 / busy_s)
        })?,
    );
    out.e2e("f_measure", "ratio", confusion.f_measure());
    out.e2e("accuracy", "ratio", confusion.accuracy());

    // No front-end and no registry on this path: their layers read zero.
    for name in [
        "frontend.enqueue_us.p50",
        "frontend.dispatch_ms.p50",
        "frontend.dispatch_ms.p99",
        "frontend.queue_wait_ms.p50",
        "frontend.queue_wait_ms.p99",
    ] {
        out.layer(name, if name.contains("_us") { "us" } else { "ms" }, 0.0);
    }
    for name in [
        "frontend.rounds",
        "frontend.batches_per_round.mean",
        "frontend.batch_fill.mean",
        "frontend.flushes_size",
        "frontend.flushes_deadline",
        "frontend.shed",
        "registry.resolves",
        "registry.cold_loads",
        "registry.evictions",
    ] {
        out.layer(name, "count", 0.0);
    }
    out.layer("registry.hit_ratio", "ratio", 0.0);
    delta.report_work(&mut out, answered, (calls.len() * BATCHES_PER_CALL) as u64);
    out.layer("bench.generator_lag_ms.p99", "ms", 0.0);
    out.layer("bench.generator_lag_ms.max", "ms", 0.0);

    let times = verify(ctx, model.as_ref(), &materialized, &calls, &work, &mut out);
    let serve_ms: Vec<f64> = wall_ns.iter().map(|&ns| common::ns_to_ms(ns)).collect();

    common::snapshot_probes(ctx, &scene, &mut out);
    out.e2e("peak_rss_mb", "MB", common::peak_rss_mb());
    layers::report(&times, &serve_ms, &mut out);

    if ctx.tracer.is_on() {
        let path = ctx.work_dir.with_extension("trace.jsonl");
        ctx.tracer
            .write_jsonl(&path, |_| None)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Check sampled calls against repeats outside the server: each batch
/// through a sequential `HdpOsr::classify` under the seed the server
/// derived for it (same predictions, same work counts), through
/// `serve_seeded`, and layer by layer.
fn verify(
    ctx: &mut Ctx,
    model: &hdp_osr::core::HdpOsr,
    inputs: &[Vec<Vec<Vec<f64>>>],
    calls: &[Call],
    work: &Work,
    out: &mut RunOutput,
) -> LayerTimes {
    let mut times = LayerTimes::default();
    let (mut checked, mut differ, mut counts_differ) = (0usize, 0usize, 0usize);
    for (i, call) in calls
        .iter()
        .enumerate()
        .filter(|(_, c)| c.predictions.is_some())
        .take(VERIFY_MAX)
    {
        let Some(served) = &call.predictions else {
            continue;
        };
        let mut repeat_work = [0u64; 5];
        for (b, batch) in inputs[call.input].iter().enumerate() {
            let seed = derive_batch_seed(call.seed, b);
            let counts = work.read();
            let sequential = model.classify(batch, &mut StdRng::seed_from_u64(seed)).ok();
            for (sum, n) in repeat_work.iter_mut().zip(work.since(counts)) {
                *sum += n;
            }
            let trace = TraceId::Call(i as u64);
            let span = ctx.tracer.open("serving.serve_seeded", None, trace);
            let (result, _) = BatchServer::with_workers(model, 1).serve_seeded(batch, seed);
            times.serve_ns.push(ctx.tracer.close(span));
            let by_layers = layers::replay(&mut ctx.tracer, &mut times, model, batch, seed, trace);
            let expected = Some(&served[b]);
            if sequential.as_ref() != expected
                || result.ok().map(|o| o.predictions).as_ref() != expected
                || by_layers.as_ref() != expected
            {
                differ += 1;
            }
        }
        if repeat_work != call.work {
            counts_differ += 1;
            eprintln!(
                "bulk call {i}: work counts {:?} served, {:?} repeated",
                call.work, repeat_work
            );
        }
        checked += 1;
    }
    out.check(checked > 0, || "no bulk call was verified".to_string());
    out.check(differ == 0, || {
        format!("{differ} verified bulk batches differ from their repeats")
    });
    out.check(counts_differ == 0, || {
        format!("{counts_differ} verified bulk calls did different work on repeat")
    });
    times
}
