//! Layer-by-layer replay of one served batch: the benchmark itself opens
//! the warm session, runs each planned sweep and finishes, under the RNG a
//! first serve attempt uses, with a span around each call.

use hdp_osr::core::{CollectiveModel, Prediction};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, RunOutput};
use crate::report;
use crate::trace::{TraceId, Tracer};

/// Timings of the layer replays of one run (filled only when traced).
#[derive(Default)]
pub struct LayerTimes {
    /// Per batch: `serve_seeded` and the layer replay of the same batch.
    pub serve_ns: Vec<u64>,
    pub layers_ns: Vec<u64>,
    pub open_ns: Vec<u64>,
    pub sweep_ns_per_point: Vec<f64>,
    pub finish_ns: Vec<u64>,
}

/// Replay `batch` as a first serve attempt under `seed` does it
/// (`BatchServer` seeds attempt 0 of a batch with exactly its seed).
/// Returns the predictions, or `None` if any layer failed.
pub fn replay(
    tracer: &mut Tracer,
    times: &mut LayerTimes,
    model: &dyn CollectiveModel,
    batch: &[Vec<f64>],
    seed: u64,
    trace: TraceId,
) -> Option<Vec<Prediction>> {
    let root = tracer.open("replay.layers", None, trace);
    let mut rng = StdRng::seed_from_u64(seed);
    let span = tracer.open("session.open", Some(root), trace);
    let session = model.warm_session(batch);
    times.open_ns.push(tracer.close(span));
    let mut session = session.ok()?;
    for _ in 0..session.sweeps_planned() {
        let span = tracer.open("session.sweep", Some(root), trace);
        let swept = session.sweep(&mut rng);
        times
            .sweep_ns_per_point
            .push(tracer.close(span) as f64 / batch.len() as f64);
        swept.ok()?;
    }
    let span = tracer.open("session.finish", Some(root), trace);
    let finished = session.finish();
    times.finish_ns.push(tracer.close(span));
    times.layers_ns.push(tracer.close(root));
    finished.ok().map(|o| o.predictions)
}

/// Serving and session metrics from the replays. `serve_ms` is the sample
/// `serving.serve_ms` is read from (per micro-batch or per bulk call).
pub fn report(times: &LayerTimes, serve_ms: &[f64], out: &mut RunOutput) {
    let serve_ms = report::sorted(serve_ms.to_vec());
    out.layer("serving.serve_ms.p50", "ms", report::median(&serve_ms));
    out.layer(
        "serving.serve_ms.p99",
        "ms",
        common::tail_or_supported(&serve_ms, 99.0),
    );
    // Self time: what serving adds around the session it drives.
    let self_us: Vec<f64> = times
        .serve_ns
        .iter()
        .zip(&times.layers_ns)
        .map(|(&serve, &layers)| (serve as f64 - layers as f64) / 1e3)
        .collect();
    out.layer(
        "serving.self_us.p50",
        "us",
        report::median(&report::sorted(self_us)),
    );
    let share: Vec<f64> = times
        .serve_ns
        .iter()
        .zip(&times.layers_ns)
        .map(|(&serve, &layers)| report::ratio(layers, serve))
        .collect();
    out.layer(
        "serving.layer_share.p50",
        "ratio",
        report::median(&report::sorted(share)),
    );
    out.layer(
        "session.open_us.p50",
        "us",
        common::p50_scaled(&times.open_ns, 1e-3),
    );
    out.layer(
        "session.sweep_us_per_point.p50",
        "us",
        report::median(&report::sorted(
            times.sweep_ns_per_point.iter().map(|ns| ns / 1e3).collect(),
        )),
    );
    out.layer(
        "session.finish_us.p50",
        "us",
        common::p50_scaled(&times.finish_ns, 1e-3),
    );
}
