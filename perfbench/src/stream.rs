//! Open-loop singleton traffic through `Frontend` → `ModelRegistry` →
//! `BatchServer`: the `stream` workload.
//!
//! The whole arrival script (due time, tenant, test point) is computed from
//! the seed before timing starts; the program sees only the points. One
//! thread generates the load and drives the front-end, as a single-process
//! server would: it enqueues every request that is due, polls the deadline
//! clock, and dispatches each ready round onto `WORKERS` serving threads.
//! Latency runs from a request's due time to the end of the dispatch round
//! that answered it, so a stalled generator charges its delay to the
//! requests it held up.
//!
//! Latency is read over the half of the cycles in which the hypervisor
//! stole the least CPU time from the machine. On a shared host steal comes
//! in spells; a stolen vCPU stalls a dispatch round and every request
//! queued behind it: on a 2-vCPU VM, runs with a few percent of steal
//! read p99 at up to 18 ms instead of 11 ms. Cycles are chosen by the
//! host's steal counter, never by their latency.
//!
//! The run is a sequence of cycles. Each opens with Poisson arrivals at a
//! fixed rate (latency, SLO), then sends a few bursts back to back, each of
//! requests all due at one instant (throughput while the server is
//! saturated, in points per CPU second), and idles until the next cycle.
//! The machine's speed drifts over seconds, so both kinds of traffic are
//! spread over the whole run rather than each given one part of it.

use std::sync::Arc;
use std::time::Instant;

use hdp_osr::core::{
    BatchServer, CollectiveModel, Frontend, FrontendConfig, ModelRegistry, OsrError, ServePolicy,
};
use hdp_osr::dataset::protocol::{GroundTruth, Prediction};
use hdp_osr::eval::metrics::OpenSetConfusion;
use hdp_osr::stats::counters;
use hdp_osr::stats::metrics::global;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, Ctx, Delta, RunOutput, WORKERS};
use crate::layers::{self, LayerTimes};
use crate::report;
use crate::scene::{self, Scene};
use crate::trace::TraceId;

/// Four resident tenants, one split each; batch 16 makes the per-batch cost
/// of the front-end, the serve ladder and session opening a large share.
const TENANTS: usize = 4;
/// Poisson arrival rate, requests per second: low enough that a slow spell
/// of the machine does not tip the single dispatcher into a backlog.
const RATE_RPS: f64 = 8_000.0;
const MAX_BATCH: usize = 16;
const MAX_DELAY_NS: u64 = 10_000_000;
/// Latency limit the SLO is judged on.
const LIMIT_NS: u64 = 25_000_000;
/// One cycle, and the Poisson arrivals that open it.
const CYCLE_NS: u64 = 2_000_000_000;
const POISSON_NS: u64 = 1_200_000_000;
/// Requests in each burst: 125 full micro-batches per tenant, so no burst
/// waits on a deadline flush.
const BURST: usize = 8_000;
/// Bursts per cycle. At the saturated rate on two CPUs (60-90k points/s,
/// down to 28k in the machine's slow spells) they end well within the rest
/// of the cycle, so they never hold up the next cycle's Poisson requests.
const BURSTS_PER_CYCLE: usize = 2;
/// Micro-batches replayed for the correctness check (and, traced, for the
/// serving and session timings, which need enough samples for a p99).
const REPLAY_SAMPLE: usize = 200;
const REPLAY_SAMPLE_TRACED: usize = 1_200;

#[derive(Clone, Copy)]
struct Arrival {
    due_ns: u64,
    tenant: u16,
    point: u32,
    /// 0 for a Poisson request, else the 1-based burst number. A burst is
    /// due when it is sent: at `due_ns` or later, once everything before it
    /// has been answered.
    phase: u16,
}

fn arrival_script(scene: &Scene, seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let tenants = scene.tenants.len();
    let mut script = Vec::new();
    for c in 0..cycles(seconds) {
        let cycle_ns = c as u64 * CYCLE_NS;
        let mut due_ns = cycle_ns;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            due_ns += (-u.ln() / RATE_RPS * 1e9) as u64;
            if due_ns >= cycle_ns + POISSON_NS {
                break;
            }
            let tenant = rng.gen_range(0..tenants);
            script.push(arrival(scene, &mut rng, tenant, due_ns, 0));
        }
        for b in 0..BURSTS_PER_CYCLE {
            let phase = (c * BURSTS_PER_CYCLE + b + 1) as u16;
            for i in 0..BURST {
                let tenant = i % tenants;
                script.push(arrival(
                    scene,
                    &mut rng,
                    tenant,
                    cycle_ns + POISSON_NS,
                    phase,
                ));
            }
        }
    }
    script
}

fn cycles(seconds: f64) -> usize {
    (((seconds * 1e9) as u64 / CYCLE_NS) as usize).max(1)
}

/// A request for a random test point of `tenant`'s split.
fn arrival(scene: &Scene, rng: &mut StdRng, tenant: usize, due_ns: u64, phase: u16) -> Arrival {
    let n_points = scene.splits[tenant].points.len();
    Arrival {
        due_ns,
        tenant: tenant as u16,
        point: rng.gen_range(0..n_points) as u32,
        phase,
    }
}

/// One dispatched micro-batch as the benchmark saw it.
struct Served {
    flush_seq: u64,
    tenant: usize,
    seed: u64,
    trace_id: String,
    /// Script indices of the batch's requests, in batch order.
    arrivals: Vec<usize>,
    /// Predictions of a batch answered on its first, undegraded attempt.
    first_attempt: Option<Vec<Prediction>>,
}

/// Per-request bookkeeping, indexed by front-end request id.
struct Request {
    arrival: usize,
    answers: u32,
    latency_ns: u64,
    prediction: Option<Prediction>,
}

fn point<'a>(scene: &'a Scene, a: &Arrival) -> &'a Vec<f64> {
    &scene.splits[a.tenant as usize].points[a.point as usize]
}

fn truth(scene: &Scene, a: &Arrival) -> GroundTruth {
    scene.splits[a.tenant as usize].truth[a.point as usize]
}

fn frontend(scene: &Scene, base_seed: u64) -> Result<Frontend, String> {
    Frontend::new(FrontendConfig {
        dim: scene.models[0].dim(),
        max_batch: MAX_BATCH,
        max_delay_ns: MAX_DELAY_NS,
        // Deep enough that the burst is queued, never shed.
        max_queue_depth: BURST + 4_096,
        base_seed,
    })
    .map_err(|e| e.to_string())
}

/// Serve one burst, spread over the tenants, so thread start-up, page
/// faults, the heap a burst needs and the registry's resident set settle
/// before timing starts.
fn warm_up(scene: &Scene, registry: &ModelRegistry, policy: &ServePolicy) -> Result<(), String> {
    let mut fe = frontend(scene, !0)?;
    let tenants = scene.tenants.len();
    for k in 0..BURST {
        let t = k % tenants;
        let points = &scene.splits[t].points;
        fe.enqueue(
            &scene.tenants[t],
            points[(k / tenants) % points.len()].clone(),
            0,
        )
        .map_err(|e| e.to_string())?;
    }
    fe.flush_all(0);
    while fe.ready_batches() > 0 {
        for flush in fe.dispatch(registry, WORKERS, policy, None) {
            flush
                .outcome
                .map_err(|e| format!("warm-up batch failed: {e}"))?;
        }
    }
    Ok(())
}

pub fn run(ctx: &mut Ctx) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let (scene, setup_s) = scene::build_repeated(TENANTS, &ctx.work_dir)?;
    common::report_setup(&mut out, &scene, &setup_s);

    let registry = ModelRegistry::new(scene.tenants.len()).with_snapshot_dir(&scene.snapshot_dir);
    for t in 0..scene.tenants.len() {
        let model: Arc<dyn CollectiveModel> = scene.models[t].clone();
        registry.insert(&scene.tenants[t], model);
    }
    let policy = ServePolicy::default();
    let script = arrival_script(&scene, ctx.seed, ctx.seconds);
    warm_up(&scene, &registry, &policy)?;

    let mut fe = frontend(&scene, ctx.seed)?;
    let mut requests: Vec<Request> = Vec::with_capacity(script.len());
    let mut served: Vec<Served> = Vec::new();
    // Front-end waits and dispatch rounds of Poisson requests (a burst
    // round is as long as the burst).
    let mut queue_wait_ns: Vec<u64> = Vec::new();
    let mut dispatch_ns: Vec<u64> = Vec::new();
    // How late the generator enqueued each Poisson request (a burst's
    // requests queue behind each other by construction).
    let mut lag_ns: Vec<u64> = Vec::with_capacity(script.len());
    let (mut shed, mut errored, mut rounds) = (0u64, 0u64, 0u64);
    let n_cycles = cycles(ctx.seconds);
    let n_bursts = n_cycles * BURSTS_PER_CYCLE;
    // The host's steal counter at the start of each cycle, and at the end.
    let mut steal_at: Vec<u64> = Vec::with_capacity(n_cycles + 1);
    // Process CPU time when each burst was sent and when its last answer
    // came back.
    let (mut burst_sent_cpu_ns, mut burst_done_cpu_ns) =
        (vec![0u64; n_bursts + 1], vec![0u64; n_bursts + 1]);
    // Script requests before `released` may be sent; a burst is released
    // whole.
    let (mut next, mut released) = (0usize, 0usize);

    let before = global().snapshot();
    let start = Instant::now();
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if steal_at.len() < n_cycles && now >= steal_at.len() as u64 * CYCLE_NS {
            steal_at.push(common::steal_ticks());
        }
        if let Some(a) = script.get(next) {
            if a.phase > 0 && next >= released && a.due_ns <= now && fe.queue_depth() == 0 {
                burst_sent_cpu_ns[usize::from(a.phase)] = common::process_cpu_ns();
                released = next + BURST;
            }
        }
        while next < script.len()
            && script[next].due_ns <= now
            && (script[next].phase == 0 || next < released)
        {
            let a = &script[next];
            // Enqueues are traced for Poisson requests only: a burst's cost
            // as much each and would make the trace several times larger.
            let span = (a.phase == 0).then(|| {
                ctx.tracer
                    .open("frontend.enqueue", None, TraceId::Request(next as u64))
            });
            let enqueued_at = start.elapsed().as_nanos() as u64;
            let result = fe.enqueue(
                &scene.tenants[a.tenant as usize],
                point(&scene, a).clone(),
                enqueued_at,
            );
            if let Some(span) = span {
                ctx.tracer.close(span);
                lag_ns.push(enqueued_at.saturating_sub(a.due_ns));
            }
            match result {
                Ok(id) => {
                    if id != requests.len() as u64 {
                        return Err(format!(
                            "front-end assigned request id {id}, expected {}",
                            requests.len()
                        ));
                    }
                    requests.push(Request {
                        arrival: next,
                        answers: 0,
                        latency_ns: 0,
                        prediction: None,
                    });
                }
                Err(OsrError::Overloaded { .. }) => shed += 1,
                Err(_) => errored += 1,
            }
            next += 1;
        }
        let drained = next == script.len();
        let now = start.elapsed().as_nanos() as u64;
        if drained {
            fe.flush_all(now);
        } else {
            fe.poll(now);
        }
        if fe.ready_batches() > 0 {
            let span = ctx
                .tracer
                .open("frontend.dispatch", None, TraceId::Round(rounds));
            let outcomes = fe.dispatch(&registry, WORKERS, &policy, None);
            let took = ctx.tracer.close(span);
            let done = start.elapsed().as_nanos() as u64;
            let done_cpu = common::process_cpu_ns();
            rounds += 1;
            let mut burst_round = false;
            for flush in outcomes {
                let tenant = scene
                    .tenants
                    .iter()
                    .position(|t| *t == flush.tenant)
                    .ok_or_else(|| format!("unknown tenant {} in a flush", flush.tenant))?;
                let first_attempt = match &flush.outcome {
                    Ok(o) if o.attempts == 1 && !o.served_via.is_degraded() => {
                        Some(o.predictions.clone())
                    }
                    _ => None,
                };
                let mut arrivals = Vec::with_capacity(flush.responses.len());
                for response in flush.responses {
                    let r = requests
                        .get_mut(response.request_id as usize)
                        .ok_or_else(|| {
                            format!("response for unknown request {}", response.request_id)
                        })?;
                    r.answers += 1;
                    r.latency_ns = done.saturating_sub(script[r.arrival].due_ns);
                    if script[r.arrival].phase == 0 {
                        queue_wait_ns.push(response.queue_wait_ns);
                    }
                    match response.result {
                        Ok(p) => r.prediction = Some(p),
                        Err(_) => errored += 1,
                    }
                    let phase = usize::from(script[r.arrival].phase);
                    burst_done_cpu_ns[phase] = burst_done_cpu_ns[phase].max(done_cpu);
                    burst_round |= phase > 0;
                    arrivals.push(r.arrival);
                }
                served.push(Served {
                    flush_seq: flush.flush_seq,
                    tenant,
                    seed: flush.seed,
                    trace_id: flush.trace_id,
                    arrivals,
                    first_attempt,
                });
            }
            if !burst_round {
                dispatch_ns.push(took);
            }
        }
        if drained && fe.queue_depth() == 0 {
            break;
        }
        // Spin, not sleep: with the generator sleeping between arrivals,
        // Linux was seen to start both serving threads of a round on one CPU
        // and leave them there, for seconds at a time, halving throughput.
        std::hint::spin_loop();
    }
    let delta = Delta::since(&before);
    while steal_at.len() <= n_cycles {
        steal_at.push(common::steal_ticks());
    }
    let cycle_steal: Vec<u64> = steal_at.windows(2).map(|w| w[1] - w[0]).collect();
    let kept = report::least_stolen(&cycle_steal);
    let kept_poisson = |a: &Arrival| a.phase == 0 && kept[(a.due_ns / CYCLE_NS) as usize];
    eprintln!(
        "latency over {} of {n_cycles} cycles; steal ticks per cycle: {cycle_steal:?}",
        kept.iter().filter(|&&k| k).count()
    );

    // Every request sent is answered once, shed, or failed typed.
    let sent = script.len() as u64;
    let answered = requests.iter().filter(|r| r.prediction.is_some()).count() as u64;
    out.attempted = sent;
    out.failed = shed + errored;
    out.check(requests.iter().all(|r| r.answers == 1), || {
        let bad = requests.iter().filter(|r| r.answers != 1).count();
        format!("{bad} requests were not answered exactly once")
    });
    out.check(sent == answered + shed + errored, || {
        format!("sent {sent} != answered {answered} + shed {shed} + errored {errored}")
    });

    // Latency of the Poisson requests of the kept cycles, over all those
    // answered.
    let poisson_lat: Vec<u64> = requests
        .iter()
        .filter(|r| r.prediction.is_some() && kept_poisson(&script[r.arrival]))
        .map(|r| r.latency_ns)
        .collect();
    let sorted_lat = common::sorted_ms(&poisson_lat);
    let p99 = report::checked_tail(&sorted_lat, 99.0)?;
    eprintln!(
        "latency: {} Poisson requests, {} beyond the p99",
        p99.n, p99.beyond
    );
    out.e2e("p50_ms", "ms", report::median(&sorted_lat));
    out.e2e("p99_ms", "ms", p99.value);
    let poisson_sent = script.iter().filter(|a| kept_poisson(a)).count() as u64;
    out.e2e(
        "slo_met_frac",
        "ratio",
        report::slo_met_frac(&poisson_lat, poisson_sent, LIMIT_NS),
    );
    // Throughput of each burst: its answered points over the CPU time the
    // process spent from its sending to its last answer. CPU time, not
    // wall time, for the reason given in `bulk`: time the hypervisor
    // steals from a vCPU is left out.
    let mut burst_answered = vec![0u64; n_bursts + 1];
    for r in requests.iter().filter(|r| r.prediction.is_some()) {
        burst_answered[usize::from(script[r.arrival].phase)] += 1;
    }
    let burst_pps: Vec<f64> = (1..=n_bursts)
        .map(|k| {
            let took_ns = burst_done_cpu_ns[k]
                .saturating_sub(burst_sent_cpu_ns[k])
                .max(1);
            burst_answered[k] as f64 / (took_ns as f64 / 1e9)
        })
        .collect();
    eprintln!("burst throughput: {burst_pps:.0?} points per CPU second");
    out.e2e(
        "throughput_pps",
        "points/s",
        report::median(&report::sorted(burst_pps)),
    );
    let mut confusion = OpenSetConfusion::default();
    for r in &requests {
        if let Some(p) = r.prediction {
            confusion.record(p, truth(&scene, &script[r.arrival]));
        }
    }
    out.e2e("f_measure", "ratio", confusion.f_measure());
    out.e2e("accuracy", "ratio", confusion.accuracy());

    // Front-end and registry layers, from the timed phase.
    let flushes = served.len() as u64;
    out.layer(
        "frontend.enqueue_us.p50",
        "us",
        common::p50_scaled(&ctx.tracer.durations_ns("frontend.enqueue"), 1e-3),
    );
    let dispatch = common::sorted_ms(&dispatch_ns);
    out.layer("frontend.dispatch_ms.p50", "ms", report::median(&dispatch));
    out.layer(
        "frontend.dispatch_ms.p99",
        "ms",
        common::tail_or_supported(&dispatch, 99.0),
    );
    out.layer("frontend.rounds", "count", rounds as f64);
    out.layer(
        "frontend.batches_per_round.mean",
        "count",
        report::ratio(flushes, rounds),
    );
    out.layer(
        "frontend.batch_fill.mean",
        "count",
        report::ratio(requests.len() as u64, flushes),
    );
    let waits = common::sorted_ms(&queue_wait_ns);
    out.layer("frontend.queue_wait_ms.p50", "ms", report::median(&waits));
    out.layer(
        "frontend.queue_wait_ms.p99",
        "ms",
        common::tail_or_supported(&waits, 99.0),
    );
    out.layer(
        "frontend.flushes_size",
        "count",
        delta.count(counters::FRONTEND_FLUSHES_SIZE) as f64,
    );
    out.layer(
        "frontend.flushes_deadline",
        "count",
        delta.count(counters::FRONTEND_FLUSHES_DEADLINE) as f64,
    );
    out.layer(
        "frontend.shed",
        "count",
        delta.count(counters::FRONTEND_SHED) as f64,
    );
    let cold_loads = delta.count(counters::FRONTEND_COLD_LOADS);
    out.layer("registry.resolves", "count", flushes as f64);
    out.layer("registry.cold_loads", "count", cold_loads as f64);
    out.layer(
        "registry.evictions",
        "count",
        delta.count(counters::FRONTEND_EVICTIONS) as f64,
    );
    out.layer(
        "registry.hit_ratio",
        "ratio",
        report::hit_ratio(flushes, cold_loads),
    );
    delta.report_work(&mut out, answered, flushes);
    let lag = common::sorted_ms(&lag_ns);
    out.layer(
        "bench.generator_lag_ms.p99",
        "ms",
        common::tail_or_supported(&lag, 99.0),
    );
    out.layer(
        "bench.generator_lag_ms.max",
        "ms",
        lag.last().copied().unwrap_or(0.0),
    );

    replay(ctx, &scene, &script, &served, &policy, &mut out);

    common::snapshot_probes(ctx, &scene, &mut out);
    out.e2e("peak_rss_mb", "MB", common::peak_rss_mb());

    if ctx.tracer.is_on() {
        let ids: std::collections::HashMap<u64, &str> = served
            .iter()
            .map(|s| (s.flush_seq, s.trace_id.as_str()))
            .collect();
        let path = ctx.work_dir.with_extension("trace.jsonl");
        ctx.tracer
            .write_jsonl(&path, |seq| ids.get(&seq).map(|s| s.to_string()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Replay a sample of the answered micro-batches under their flush seeds,
/// twice: through `BatchServer::serve_seeded`, and layer by layer
/// (`warm_session`, each `sweep`, `finish`). Both must reproduce the served
/// predictions bit for bit; the spans give the serving and session times.
fn replay(
    ctx: &mut Ctx,
    scene: &Scene,
    script: &[Arrival],
    served: &[Served],
    policy: &ServePolicy,
    out: &mut RunOutput,
) {
    let eligible: Vec<&Served> = served
        .iter()
        .filter(|s| s.first_attempt.is_some())
        .collect();
    let want = if ctx.tracer.is_on() {
        REPLAY_SAMPLE_TRACED
    } else {
        REPLAY_SAMPLE
    };
    let step = (eligible.len() / want).max(1);
    let mut times = LayerTimes::default();
    let (mut mismatches, mut replayed) = (0usize, 0usize);
    for s in eligible.iter().step_by(step).take(want) {
        let Some(expected) = &s.first_attempt else {
            continue;
        };
        let points: Vec<Vec<f64>> = s
            .arrivals
            .iter()
            .map(|&a| point(scene, &script[a]).clone())
            .collect();
        let model = scene.models[s.tenant].as_ref();
        let trace = TraceId::Flush(s.flush_seq);

        let span = ctx.tracer.open("serving.serve_seeded", None, trace);
        let (result, _) = BatchServer::with_workers(model, 1)
            .with_policy(*policy)
            .serve_seeded(&points, s.seed);
        times.serve_ns.push(ctx.tracer.close(span));
        let by_server = result.map(|o| o.predictions).ok();
        let by_layers = layers::replay(&mut ctx.tracer, &mut times, model, &points, s.seed, trace);
        if by_server.as_ref() != Some(expected) || by_layers.as_ref() != Some(expected) {
            mismatches += 1;
        }
        replayed += 1;
    }
    out.check(mismatches == 0, || {
        format!(
            "{mismatches} of {replayed} replayed micro-batches differ from the served predictions"
        )
    });
    out.check(replayed > 0, || {
        "no micro-batch was answered on its first attempt".to_string()
    });
    let serve_ms: Vec<f64> = times
        .serve_ns
        .iter()
        .map(|&ns| common::ns_to_ms(ns))
        .collect();
    layers::report(&times, &serve_ms, out);
}
