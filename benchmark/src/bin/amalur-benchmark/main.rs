//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! amalur-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! amalur-benchmark all --runs <n> --out <file> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! amalur-benchmark compare <set-a> <set-b>
//! amalur-benchmark quick
//! amalur-benchmark list
//! ```

mod compare;
mod harness;
mod inputs;
mod report;
mod rng;
mod schedule;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{RunConfig, Scale};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Kernel threads the workload's own thread may use (the serve layer's
/// workers cap themselves). On the 2-vCPU reference box a pass of the
/// training suite swung between 1.5 and 2.8 s with two kernel threads and
/// between 1.75 and 2.2 s with one: the second vCPU is not reliably there.
const KERNEL_THREADS: usize = 1;

/// `<target dir>/benchmark`: beside the build, inside the checkout.
fn output_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(|profile| profile.parent())
        .map(|target| target.join("benchmark"))
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

#[derive(Debug, Clone)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            runs: compare::MIN_RUNS,
            out: None,
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(flags.seconds > 0.0 && flags.seconds <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--runs" => flags.runs = value.parse().map_err(|e| bad(&e))?,
            "--out" => flags.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

/// Runs one workload in this process and prints its report; the scratch
/// directory is removed whatever happens. Returns whether the outputs
/// were correct.
fn run_one(workload: &str, flags: &Flags, scale: Scale) -> Result<bool, String> {
    if !spec::workload_names().contains(&workload) {
        return Err(format!(
            "--workload must be one of {}",
            spec::workload_names().join(", ")
        ));
    }
    let out_dir = output_dir()?;
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir {}: {e}", scratch.display()))?;
    let cfg = RunConfig {
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        scale,
        scratch: scratch.clone(),
    };
    amalur_matrix::set_thread_budget(KERNEL_THREADS);
    let result = workloads::run(workload, &cfg);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = result?;
    if cfg.trace {
        out.metrics
            .insert("obs.peak_rss_mb", harness::peak_rss_mb()?);
    }
    if cfg.trace && scale == Scale::Full {
        let path = out_dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, trace::to_json(&out.spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let rows = report::collect(&out, cfg.trace)?;
    report::print_table(workload, &cfg, &out, &rows);
    println!(
        "{}{}",
        report::ENVELOPE_PREFIX,
        report::envelope(workload, &cfg, &out, &rows)
    );
    println!("{}", report::result_line(&out, &rows));
    Ok(report::is_correct(&out))
}

/// `all`: every workload `--runs` times, each run in a process of its
/// own with a seed of its own, envelopes appended to `--out`.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let out_path = flags.out.as_ref().ok_or("all needs --out <file>")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut file = std::fs::File::create(out_path)
        .map_err(|e| format!("create {}: {e}", out_path.display()))?;
    let mut all_correct = true;
    for run in 0..flags.runs {
        for w in spec::WORKLOADS {
            let seed = flags.seed + run as u64;
            let started = Instant::now();
            let child = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .args(["--trace", if flags.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let envelope = stdout
                .lines()
                .find_map(|l| l.strip_prefix(report::ENVELOPE_PREFIX))
                .ok_or_else(|| {
                    format!(
                        "{} seed {seed}: no envelope; stderr: {}",
                        w.name,
                        String::from_utf8_lossy(&child.stderr).trim()
                    )
                })?;
            writeln!(file, "{envelope}")
                .map_err(|e| format!("write {}: {e}", out_path.display()))?;
            all_correct &= child.status.success();
            eprintln!(
                "run {}/{} {:<20} seed {seed} {:>5.1} s {}",
                run + 1,
                flags.runs,
                w.name,
                started.elapsed().as_secs_f64(),
                if child.status.success() {
                    "ok"
                } else {
                    "INCORRECT"
                }
            );
        }
    }
    file.flush()
        .map_err(|e| format!("flush {}: {e}", out_path.display()))?;
    Ok(all_correct)
}

/// `quick`: all six at a tenth of the size for a second each, for the
/// correctness gates only.
fn run_quick() -> Result<bool, String> {
    let flags = Flags {
        seconds: 1.0,
        ..Flags::default()
    };
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        all_correct &= run_one(w.name, &flags, Scale::Quick)?;
    }
    Ok(all_correct)
}

fn read_set(path: &str) -> Result<compare::ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    compare::parse_set(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome: Result<u8, String> = match args.first().map(String::as_str) {
        Some("all") => parse_flags(&args[1..])
            .and_then(|f| run_all(&f))
            .map(|ok| u8::from(!ok)),
        Some("quick") if args.len() == 1 => run_quick().map(|ok| u8::from(!ok)),
        Some("list") if args.len() == 1 => {
            // `list | head` closes the pipe early; that is not an error.
            let _ = std::io::stdout().write_all(spec::glossary().as_bytes());
            Ok(0)
        }
        Some("compare") if args.len() == 3 => read_set(&args[1])
            .and_then(|a| Ok((a, read_set(&args[2])?)))
            .and_then(|(a, b)| compare::compare(&a, &b))
            .map(|(worse, unresolved)| match (worse, unresolved) {
                (0, 0) => 0,
                (0, _) => 3,
                _ => 1,
            }),
        Some("compare" | "quick" | "list") => {
            Err("usage: compare <set-a> <set-b> | quick | list".to_owned())
        }
        _ => parse_flags(&args).and_then(|f| {
            let workload = f.workload.clone().ok_or("--workload <name> is required")?;
            run_one(&workload, &f, Scale::Full).map(|ok| u8::from(!ok))
        }),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("amalur-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
