//! Streaming test batches — the paper's §5 future-work direction, runnable.
//!
//! HDP-OSR is transductive: the sampler co-clusters training data with the
//! test batch, so "other new testing sets … lead to repeated training". This
//! example shows the two amortized alternatives the workspace ships, from
//! most to least faithful to the paper's collective decision:
//!
//! 1. **Warm-start serving** (the default `ServingMode::WarmStart`): `fit`
//!    runs the training burn-in once and checkpoints the converged
//!    posterior; every batch is answered from a private clone in
//!    `decision_sweeps` short sweeps that reseat *only* the batch. Each
//!    batch still takes the full collective decision — its points can join
//!    training subclasses or nucleate brand-new dishes — and `BatchServer`
//!    fans independent batches out over worker threads deterministically.
//! 2. **Frozen inference**: a `BatchServer` with a zero sweep budget
//!    degrades every batch to MAP dish assignment against the fit-time
//!    checkpoint, one point at a time in O(K·d²) — fastest, but gives up
//!    the batch-level collective effect entirely.
//!
//! A cold run of chunk 1 is timed alongside for contrast.
//!
//! ```text
//! cargo run --release --example streaming_batches
//! ```

use hdp_osr::core::{
    BatchServer, HdpOsr, HdpOsrConfig, JsonlSink, ServePolicy, ServingMode, SnapshotStore,
    TraceRecord, TraceSink,
};
use hdp_osr::dataset::protocol::{GroundTruth, OpenSetSplit, SplitConfig, TestSet};
use hdp_osr::dataset::synthetic::pendigits_config;
use hdp_osr::eval::metrics::OpenSetConfusion;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let data = pendigits_config().scaled(0.3).generate(&mut rng);

    // One open-set problem; its test stream arrives in four chunks with the
    // same known/unknown class structure (interleaved round-robin so every
    // chunk sees every population).
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(5, 3), &mut rng)
        .expect("dataset supports a 5+3 split");
    let n_chunks = 4;
    let mut chunks: Vec<TestSet> =
        (0..n_chunks).map(|_| TestSet { points: Vec::new(), truth: Vec::new() }).collect();
    for (i, (p, t)) in split.test.points.iter().zip(&split.test.truth).enumerate() {
        chunks[i % n_chunks].points.push(p.clone());
        chunks[i % n_chunks].truth.push(*t);
    }

    // The cold baseline: the paper's schedule, full burn-in per batch.
    let cold_config =
        HdpOsrConfig { iterations: 20, serving: ServingMode::ColdStart, ..Default::default() };
    let cold_model = HdpOsr::fit(&cold_config, &split.train).expect("cold fit");
    let t0 = Instant::now();
    let cold = cold_model.classify_detailed(&chunks[0].points, &mut rng).expect("cold pass");
    let cold_time = t0.elapsed();
    let c = OpenSetConfusion::from_slices(&cold.predictions, &chunks[0].truth);
    println!(
        "chunk 1 (cold, per-batch burn-in): {:4} points in {:>9.2?}  F = {:.4}",
        chunks[0].points.len(),
        cold_time,
        c.f_measure()
    );

    // Warm-start: pay the burn-in once at fit time… A few extra decision
    // sweeps let each batch's seating mix before the majority vote; they
    // cost O(N_batch) each, not O(N_train + N_batch).
    let warm_config =
        HdpOsrConfig { iterations: 20, decision_sweeps: 5, ..Default::default() };
    let t0 = Instant::now();
    let model = HdpOsr::fit(&warm_config, &split.train).expect("warm fit");
    println!("warm fit (burn-in + checkpoint):   once, {:>9.2?}", t0.elapsed());

    // The fit kept its burn-in trace; the diagnostics say whether 20 sweeps
    // were enough (R̂ near 1, healthy ESS) and where the chain settled.
    let report = model.fit_report().expect("warm fits keep their report");
    println!(
        "fit diagnostics: split-R\u{302} = {:.3}, ESS = {:.1}/{}, suggested burn-in = {}",
        report.diagnostics.rhat,
        report.diagnostics.ess,
        report.diagnostics.n,
        report.diagnostics.burn_in
    );

    // …then serve every chunk concurrently from the checkpoint. Results are
    // a pure function of (model, batches, seed) — worker count irrelevant,
    // and so is the JSONL trace stream the attached sink writes.
    let metrics_before = hdp_osr::stats::metrics::global().snapshot();
    let _ = std::fs::create_dir_all("results");
    let sink: Arc<JsonlSink> = Arc::new(
        JsonlSink::create("results/trace_streaming.jsonl").expect("results/ is writable"),
    );
    sink.record(&TraceRecord::Fit(report.clone()));
    let server = BatchServer::new(&model).with_trace_sink(sink);
    let batches: Vec<Vec<Vec<f64>>> = chunks.iter().map(|c| c.points.clone()).collect();
    let t0 = Instant::now();
    let outcomes = server.classify_batches(&batches, 11);
    let warm_time = t0.elapsed();
    let per_batch = warm_time / n_chunks as u32;
    for (no, (chunk, outcome)) in chunks.iter().zip(&outcomes).enumerate() {
        let outcome = outcome.as_ref().expect("non-empty chunk");
        let c = OpenSetConfusion::from_slices(&outcome.predictions, &chunk.truth);
        let unknowns = chunk.truth.iter().filter(|t| **t == GroundTruth::Unknown).count();
        println!(
            "chunk {} (warm, collective):        {:4} points in {:>9.2?}  F = {:.4}  \
             ({} unknowns, {} new subclasses)",
            no + 1,
            chunk.points.len(),
            per_batch,
            c.f_measure(),
            unknowns,
            outcome.report.n_new_subclasses()
        );
    }
    println!(
        "warm serving: {n_chunks} chunks in {:>9.2?} on {} workers \
         ({:.1} batches/sec)",
        warm_time,
        server.workers(),
        n_chunks as f64 / warm_time.as_secs_f64().max(1e-9)
    );

    // What the metrics registry saw during the warm region: total sampler
    // work plus the fault-tolerance counters (all zero on a healthy run).
    let delta = hdp_osr::stats::metrics::global().snapshot().delta_since(&metrics_before);
    let sweep_times = delta.histogram(hdp_osr::hdp::SWEEP_TIME_METRIC);
    println!(
        "metrics: {} sweeps, {} seat-moves, {} predictive-logpdf calls, \
         {} retries, {} degraded; sweep time p50≈{:.0} µs p99≈{:.0} µs",
        delta.counter(hdp_osr::hdp::SWEEPS_METRIC),
        delta.counter(hdp_osr::hdp::SEAT_MOVES_METRIC),
        delta.counter(hdp_osr::stats::counters::PREDICTIVE_LOGPDF_CALLS),
        delta.counter(hdp_osr::stats::counters::SERVE_RETRIES),
        delta.counter(hdp_osr::stats::counters::DEGRADED_BATCHES),
        sweep_times.quantile(0.5) as f64 / 1e3,
        sweep_times.quantile(0.99) as f64 / 1e3,
    );
    println!("trace stream: results/trace_streaming.jsonl (1 Fit + {n_chunks} Batch records)");

    // Durability: checkpoint the warm posterior to disk, "crash" (drop every
    // in-memory artifact of the fit), reload from the snapshot file alone,
    // and serve the same stream again. The recovered process never re-runs
    // the burn-in — and its trace stream is byte-identical to the pre-crash
    // one, which is the whole point of the canonical snapshot encoding.
    let store = SnapshotStore::new("results/streaming_snapshot.bin");
    let info = store.save(&model).expect("results/ is writable");
    println!(
        "snapshot: results/streaming_snapshot.bin ({} bytes, {} sections, format v{})",
        info.bytes, info.n_sections, info.format_version
    );
    let recovered_outcomes = {
        // Simulated crash: only `store`'s path survives into this scope.
        let t0 = Instant::now();
        let recovered = store.load().expect("snapshot loads after the crash");
        let reload_time = t0.elapsed();
        let sink: Arc<JsonlSink> = Arc::new(
            JsonlSink::create("results/trace_recovered.jsonl").expect("results/ is writable"),
        );
        let outcomes =
            BatchServer::new(&recovered).with_trace_sink(sink).classify_batches(&batches, 11);
        println!(
            "recovery: reload in {:>9.2?} (no burn-in), {n_chunks} chunks re-served warm",
            reload_time
        );
        outcomes
    };
    for (orig, rec) in outcomes.iter().zip(&recovered_outcomes) {
        let (orig, rec) = (orig.as_ref().expect("pre-crash"), rec.as_ref().expect("recovered"));
        assert_eq!(orig.predictions, rec.predictions, "recovered predictions drifted");
        assert_eq!(
            orig.log_likelihood.to_bits(),
            rec.log_likelihood.to_bits(),
            "recovered log-likelihood drifted"
        );
    }
    let pre_crash = std::fs::read_to_string("results/trace_streaming.jsonl").expect("pre-crash");
    let recovered = std::fs::read_to_string("results/trace_recovered.jsonl").expect("recovered");
    // The recovered stream has no Fit record (the sweep trace is
    // observability, not serving state, so it is deliberately not persisted)
    // — every Batch line must match byte for byte.
    let batch_lines: Vec<&str> =
        pre_crash.lines().filter(|l| l.starts_with("{\"Batch\"")).collect();
    assert_eq!(
        batch_lines,
        recovered.lines().collect::<Vec<_>>(),
        "recovered trace stream is not byte-identical to the pre-crash stream"
    );
    println!("recovered trace byte-matches the pre-crash stream (results/trace_recovered.jsonl)");

    // Fastest tier: answer later chunks without any sampling at all. A zero
    // sweep budget degrades every batch to frozen MAP inference against the
    // fit-time checkpoint. No trace sink is attached, so the streams written
    // above are untouched.
    let frozen = BatchServer::new(&model)
        .with_policy(ServePolicy { sweep_budget: Some(0), ..Default::default() });
    for (no, chunk) in chunks.iter().enumerate().skip(1) {
        let t0 = Instant::now();
        let (outcome, _) = frozen.serve_seeded(&chunk.points, 11);
        let frozen_time = t0.elapsed();
        let outcome = outcome.expect("frozen pass");
        let c = OpenSetConfusion::from_slices(&outcome.predictions, &chunk.truth);
        println!(
            "chunk {} (frozen, degraded):        {:4} points in {:>9.2?}  F = {:.4}",
            no + 1,
            chunk.points.len(),
            frozen_time,
            c.f_measure()
        );
    }

    println!();
    println!("Warm serving keeps the collective decision — each batch can still nucleate");
    println!("new subclasses against the checkpointed posterior — while paying the");
    println!("training burn-in exactly once. The frozen pass is faster still but misses");
    println!("unknown categories that are only identifiable *as a batch*, which is why");
    println!("the paper calls overcoming transduction 'a promising research direction'.");
}
