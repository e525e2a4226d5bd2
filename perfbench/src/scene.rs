//! Set-up: the LETTER replica, its open-set splits, one fitted model per
//! split, and one snapshot file per tenant.
//!
//! The scene is the same for every `--seed`, as a deployed model is: the
//! seed drives the traffic (which points are sent when, batch contents and
//! serve seeds). A different split per seed would add the spread between
//! problems to every figure and hide the spread a change causes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hdp_osr::core::{HdpOsr, HdpOsrConfig, SnapshotStore};
use hdp_osr::dataset::protocol::{GroundTruth, OpenSetSplit, SplitConfig};
use hdp_osr::dataset::synthetic::letter_config;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Share of the full LETTER replica generated (2 000 of 20 000 points).
const LETTER_SCALE: f64 = 0.1;
const KNOWN_CLASSES: usize = 10;
const UNKNOWN_CLASSES: usize = 5;
/// Seed of the replica and its splits.
const SCENE_SEED: u64 = 2026;

pub struct Split {
    pub points: Vec<Vec<f64>>,
    pub truth: Vec<GroundTruth>,
}

/// One tenant per split: tenant `t` serves split `t` with model `t`.
pub struct Scene {
    pub splits: Vec<Split>,
    pub models: Vec<Arc<HdpOsr>>,
    pub tenants: Vec<String>,
    pub snapshot_dir: PathBuf,
    pub snapshot_bytes: usize,
    pub fit_s: Vec<f64>,
    pub snapshot_write_s: f64,
}

impl Scene {
    pub fn snapshot_path(&self, tenant: usize) -> PathBuf {
        self.snapshot_dir
            .join(format!("{}.snapshot", self.tenants[tenant]))
    }
}

pub fn tenant_name(t: usize) -> String {
    format!("t{t:02}")
}

/// Generate the data, fit one model per tenant's split and write the
/// snapshot files into `dir` (created fresh).
pub fn build(tenants: usize, dir: &Path) -> Result<Scene, String> {
    let mut rng = StdRng::seed_from_u64(SCENE_SEED);
    let data = letter_config().scaled(LETTER_SCALE).generate(&mut rng);
    let split_config = SplitConfig::new(KNOWN_CLASSES, UNKNOWN_CLASSES);
    let mut splits = Vec::with_capacity(tenants);
    let mut models = Vec::with_capacity(tenants);
    let mut fit_s = Vec::with_capacity(tenants);
    for _ in 0..tenants {
        let split =
            OpenSetSplit::sample(&data, &split_config, &mut rng).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let model =
            HdpOsr::fit(&HdpOsrConfig::default(), &split.train).map_err(|e| e.to_string())?;
        fit_s.push(started.elapsed().as_secs_f64());
        models.push(Arc::new(model));
        splits.push(Split {
            points: split.test.points,
            truth: split.test.truth,
        });
    }

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut scene = Scene {
        splits,
        models,
        tenants: (0..tenants).map(tenant_name).collect(),
        snapshot_dir: dir.to_path_buf(),
        snapshot_bytes: 0,
        fit_s,
        snapshot_write_s: 0.0,
    };
    let started = Instant::now();
    for t in 0..tenants {
        let model = &scene.models[t];
        let info = SnapshotStore::new(scene.snapshot_path(t))
            .save(model)
            .map_err(|e| e.to_string())?;
        scene.snapshot_bytes = info.bytes;
    }
    scene.snapshot_write_s = started.elapsed().as_secs_f64();
    Ok(scene)
}

/// Set-up runs at least this many times, and more while the repeats have
/// taken less than `SETUP_BUDGET_S` in all, up to `SETUP_MAX_REPEATS`.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 64;
const SETUP_BUDGET_S: f64 = 5.0;

/// Build the scene several times from scratch, each into its own directory
/// under `root`, and keep the last. Returns it with the set-up time of
/// every repeat. Fails if two repeats wrote different snapshot bytes:
/// set-up must be deterministic.
pub fn build_repeated(tenants: usize, root: &Path) -> Result<(Scene, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut first: Option<Vec<Vec<u8>>> = None;
    let mut kept: Option<Scene> = None;
    for r in 0..SETUP_MAX_REPEATS {
        if r >= SETUP_MIN_REPEATS && times.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
        // One scene in memory at a time, so repeats do not raise the peak.
        if let Some(old) = kept.take() {
            let _ = std::fs::remove_dir_all(&old.snapshot_dir);
        }
        let dir = root.join(format!("setup-{r}"));
        let started = Instant::now();
        let scene = build(tenants, &dir)?;
        times.push(started.elapsed().as_secs_f64());
        let bytes: Vec<Vec<u8>> = (0..tenants)
            .map(|t| std::fs::read(scene.snapshot_path(t)).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        match &first {
            None => first = Some(bytes),
            Some(first) if *first != bytes => {
                return Err(format!("set-up repeat {r} wrote different snapshot bytes"));
            }
            Some(_) => {}
        }
        kept = Some(scene);
    }
    eprintln!("set-up repeats: {times:.3?} s");
    kept.map(|scene| (scene, times))
        .ok_or_else(|| "no set-up repeats".to_string())
}
