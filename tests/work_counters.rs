//! Exact work counters of one warm micro-batch on the LETTER replica.
//!
//! The deterministic counters of the global metrics registry measure the
//! sampler's work in machine-independent units: predictive evaluations,
//! kernel invocations and seating moves. For a fixed model, batch and seed
//! they are pure functions of the code, so this suite pins them exactly: a
//! change that alters how much work a batch costs shows up as a diff here
//! and must be acknowledged by re-pinning the numbers below.
//!
//! The registry is process-global, so this file holds a single test: it is
//! its own test binary and process, and nothing else moves the counters
//! while the batch is served.

use hdp_osr::core::{BatchServer, HdpOsr, HdpOsrConfig};
use hdp_osr::dataset::protocol::{OpenSetSplit, SplitConfig};
use hdp_osr::dataset::synthetic::letter_config;
use hdp_osr::hdp::SEAT_MOVES_METRIC;
use hdp_osr::stats::counters::{
    PREDICTIVE_BATCH_VS_ONE, PREDICTIVE_LOGPDF_CALLS, PREDICTIVE_ONE_VS_ALL,
};
use hdp_osr::stats::metrics::global;
use hdp_osr::stats::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The serving benchmark's scene: LETTER at a tenth of its size, split into
/// 10 known and 5 unknown classes, seed 2026.
const SCENE_SEED: u64 = 2026;
/// One production micro-batch.
const BATCH: usize = 16;
const SERVE_SEED: u64 = 7;

#[test]
fn one_warm_letter_batch_costs_exactly_the_pinned_work() {
    let mut rng = StdRng::seed_from_u64(SCENE_SEED);
    let data = letter_config().scaled(0.1).generate(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(10, 5), &mut rng).expect("split");
    let model = HdpOsr::fit(&HdpOsrConfig::default(), &split.train).expect("fit");
    // Test points come grouped by class; a shuffled draw mixes known and
    // unknown points as live traffic does, so the batch opens tables of one
    // member and of several.
    let mut order: Vec<usize> = (0..split.test.points.len()).collect();
    sampling::shuffle(&mut rng, &mut order);
    let batch: Vec<Vec<f64>> =
        order[..BATCH].iter().map(|&i| split.test.points[i].clone()).collect();
    let server = BatchServer::new(&model);

    let before = global().snapshot();
    let (outcome, _) = server.serve_seeded(&batch, SERVE_SEED);
    let delta = global().snapshot().delta_since(&before);
    outcome.expect("the warm batch is answered");

    let got = [
        PREDICTIVE_ONE_VS_ALL,
        PREDICTIVE_BATCH_VS_ONE,
        PREDICTIVE_LOGPDF_CALLS,
        SEAT_MOVES_METRIC,
    ]
    .map(|name| (name, delta.counter(name)));
    // 40 moves: 16 items seated by the initial pass and 16 reseated by the
    // one decision sweep (Eq. 7), then 8 batch tables (Eq. 8). One-vs-all
    // passes: 16 prior scores at session open, one per Eq. 7 move, and one
    // per one-member table (6 of them). The 2 larger tables score K + 1 = 16
    // block candidates each.
    let want = [
        (PREDICTIVE_ONE_VS_ALL, 54),
        (PREDICTIVE_BATCH_VS_ONE, 32),
        (PREDICTIVE_LOGPDF_CALLS, 776),
        (SEAT_MOVES_METRIC, 40),
    ];
    assert_eq!(got, want, "work counters of one warm LETTER batch");
}
