//! End-to-end and per-layer benchmark of the iis solve service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-hot|cold-sweep|batch-mixed|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Builds the `iis-cli` release binary from
//! the checkout, starts two `iis serve` shards on fresh stores and one
//! `iis gateway` as child processes, drives the workload, checks every
//! answer against an in-process oracle, and prints a summary on stderr
//! and one JSON object as the last line of stdout. Exits non-zero when an
//! answer is wrong, a counter check fails, or the run cannot be set up.
//! See `perfbench/README.md`.

mod client;
mod cluster;
mod drive;
mod layers;
mod oracle;
mod stats;
mod trace;
mod workload;

use drive::{Ctx, Metric, Run};
use iis_obs::{Json, ToJson as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["warm-hot", "cold-sweep", "batch-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").unwrap_or("all").to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("18")
        .parse()
        .map_err(|_| "bad --seconds")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("need 1 ≤ --seconds ≤ 60".to_string());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds `iis-cli` from the checkout at `root` into `target`.
fn build_cli(root: &Path, target: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err(format!("{} is not the repository root", root.display()));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "iis-cli",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building iis-cli failed".to_string());
    }
    Ok(target.join("release").join("iis-cli"))
}

/// nproc, `rustc -V` and the source revision, for the run header.
fn fingerprint(root: &Path) -> String {
    let output = |cmd: &str, args: &[&str]| -> Option<String> {
        let out = Command::new(cmd)
            .args(args)
            .current_dir(root)
            .stderr(Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = output("rustc", &["-V"]).unwrap_or_else(|| "rustc unknown".to_string());
    let commit = output("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| format!("source-fnv {:016x}", source_hash(&root.join("crates"))));
    format!("nproc={nproc} {rustc} commit={commit}")
}

/// FNV-1a over every file under `dir`, in path order — identifies the
/// source when the checkout is not a git repository.
fn source_hash(dir: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.filter_map(Result::ok) {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else {
                    files.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    iis_core::cache::fnv1a64(&bytes)
}

fn run_one(name: &str, ctx: &Ctx) -> Result<Run, String> {
    match name {
        "warm-hot" => drive::warm_hot(ctx),
        "cold-sweep" => drive::cold_sweep(ctx),
        _ => drive::batch_mixed(ctx),
    }
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", value.to_json()),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the selected workloads and prints the result. `Ok(false)` when an
/// answer or a counter check was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the build directory")?
        .to_path_buf();
    let bin = build_cli(&root, &target)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("perfbench: {}", fingerprint(&root));
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut printed: Vec<(String, f64, &'static str)> = Vec::new();
    for name in &names {
        let dir = target.join("perfbench-runs").join(format!(
            "{name}-{}-{}",
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let ctx = Ctx {
            bin: bin.clone(),
            dir: dir.clone(),
            seed: args.seed,
            seconds: args.seconds,
            threads,
            tracer: trace::Tracer::new(args.trace),
        };
        let started = Instant::now();
        let result = run_one(name, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
        let run = result?;
        if args.trace {
            let traces = target.join("perfbench-traces");
            let path = traces.join(format!("{name}-{}.jsonl", args.seed));
            let written =
                std::fs::create_dir_all(&traces).and_then(|_| ctx.tracer.write_jsonl(&path));
            match written {
                Ok(()) => eprintln!("spans: {}", path.display()),
                Err(e) => eprintln!("spans not written: {e}"),
            }
        }
        let t = &run.tally;
        eprintln!(
            "\n== {name} (seed {}, {:.1} s wall) attempted {} failed {} wrong {} fail_ratio {:.4}",
            args.seed,
            started.elapsed().as_secs_f64(),
            t.attempted,
            t.failed,
            t.wrong,
            (t.failed + t.wrong) as f64 / t.attempted.max(1) as f64
        );
        let shown: &[Metric] = if args.trace { &run.layers } else { &run.e2e };
        for (m, v, u) in shown {
            eprintln!("  {m:<34} {v:>14.4} {u}");
        }
        for e in &t.errors {
            eprintln!("  ERROR {e}");
        }
        attempted += t.attempted;
        failed += t.failed + t.wrong;
        correct &= t.errors.is_empty() && t.failed + t.wrong == 0 && t.attempted > 0;
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        printed.extend(
            shown
                .iter()
                .map(|(m, v, u)| (format!("{prefix}{m}"), *v, *u)),
        );
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("metrics", metrics_json(&printed)),
    ]);
    println!("{line}");
    Ok(correct)
}
