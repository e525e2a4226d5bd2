//! Serving benchmark of the hdp-osr workspace on the LETTER replica.
//!
//! ```text
//! perfbench --workload <stream|bulk> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! Runs one workload in this process: set-up (timed, repeated), warm-up,
//! the timed phase, then correctness checks and standalone probes. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and every metric, end-to-end and per-layer, with its unit; the
//! same line is written to `<dir>/<workload>-seed<n>-trace<t>.json`. With
//! `--trace 1` spans are recorded around the benchmark's calls into each
//! layer and written to `<dir>/<workload>-seed<n>-trace1.trace.jsonl`. The
//! exit code is 1 when a correctness check failed and 2 on a usage error or
//! a failed run.

mod bulk;
mod common;
mod layers;
mod report;
mod scene;
mod stream;
mod trace;

use std::path::PathBuf;

use common::{Ctx, RunOutput};
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("expected seconds in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn run(args: &Args, tag: &str) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work_dir: args.out.join(tag),
    };
    let result = match args.workload.as_str() {
        "stream" => stream::run(&mut ctx),
        "bulk" => bulk::run(&mut ctx),
        other => Err(format!("unknown workload `{other}` (stream, bulk)")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if ctx.tracer.is_on() {
        eprintln!("trace: {} spans", ctx.tracer.len());
    }
    result
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stream|bulk> --seed <n> --seconds <s> \
                 --trace <0|1> --out <dir>"
            );
            std::process::exit(2);
        }
    };
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let out = match run(&args, &tag) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };
    let metrics: Vec<report::Metric> = out
        .end_to_end
        .iter()
        .chain(&out.per_layer)
        .cloned()
        .collect();
    if let Err(e) = report::validate(&metrics) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "sent {}, failed {} (fail_frac {:.6})",
        out.attempted,
        out.failed,
        report::ratio(out.failed, out.attempted)
    );
    for v in &out.violations {
        eprintln!("perfbench: correctness violation: {v}");
    }
    let correct = out.violations.is_empty();
    let line = report::result_json(correct, out.attempted, out.failed, &metrics);
    let path = args.out.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(&path, format!("{line}\n")) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
