//! `e2e` — the MAGIC end-to-end benchmark.
//!
//! One run measures one workload in its own process:
//!
//! ```text
//! e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! It prints every metric as `name value unit`, then as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and
//! writes both as a JSON record under `target/e2e/`. An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics and writes its spans to
//! `target/e2e/<workload>.trace.jsonl`. The exit code is 0 only when
//! every correctness check passed.
//!
//! The benchmark drives the program only through its public entry
//! points; `benchmark/README.md` lists them, with the workloads, the
//! metrics and how to read a traced run.
//!
//! `e2e summarize <set>` and `e2e compare <set-a> <set-b>` read result
//! sets written by `benchmark/run.sh`.

mod classify;
mod common;
mod metrics;
mod probe;
mod serve;
mod stats;
mod summary;
mod trace;
mod train;

use common::Ctx;
use magic_json::{Map, Value};
use metrics::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every workload, in the order `benchmark/run.sh` runs them.
pub const WORKLOADS: [&str; 4] = [
    "serve-asm",
    "classify-asm",
    "train-ref",
    "train-coarsen-stream",
];

/// Measurement budget when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "serve-asm" => serve::run(ctx),
        "classify-asm" => classify::run(ctx),
        "train-ref" => train::run(ctx, train::Kind::Ref),
        "train-coarsen-stream" => train::run(ctx, train::Kind::CoarsenStream),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace` alone, or `--trace 0|1`.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        tiny: false,
        out_dir: PathBuf::from("target/e2e"),
    };
    Ok(Args { workload, ctx })
}

/// `nproc` and CPU model, recorded with every result.
fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                Some(
                    l.strip_prefix("model name")?
                        .split_once(':')?
                        .1
                        .trim()
                        .to_string(),
                )
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc {nproc}, cpu {cpu}")
}

/// Prints the run's output and writes its record; returns the exit code.
fn finish(workload: &str, ctx: &Ctx, report: &Report) -> ExitCode {
    let header = format!(
        "e2e {workload} seed {} seconds {} trace {} ({})",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        machine()
    );
    let mut out = vec![header];
    out.extend(report.lines.iter().cloned());
    for (name, unit, value) in report.selected(ctx.trace) {
        out.push(format!("{name} {} {unit}", metrics::json_number(value)));
    }
    let checks = &report.checks;
    out.push(format!(
        "fail_ratio {} ({} of {} checked operations failed)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    ));
    out.extend(checks.failures.iter().map(|f| format!("check failed: {f}")));
    let result = report.json_line(ctx.trace);
    for line in &out {
        println!("{line}");
    }
    println!("{result}");

    let name = format!(
        "{workload}-seed{}{}.json",
        ctx.seed,
        if ctx.trace { "-trace" } else { "" }
    );
    let path = ctx.out_dir.join(name);
    if let Err(e) = std::fs::write(&path, record(workload, ctx, &out, &result)) {
        eprintln!("could not write {}: {e}", path.display());
    }
    if checks.failed == 0 && checks.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run as one JSON document: settings, machine, every printed line
/// and the result object.
fn record(workload: &str, ctx: &Ctx, lines: &[String], result: &str) -> String {
    let mut doc = Map::new();
    doc.insert("workload", Value::String(workload.to_string()));
    doc.insert("seed", Value::Number(ctx.seed as f64));
    doc.insert("seconds", Value::Number(ctx.seconds));
    doc.insert("trace", Value::Bool(ctx.trace));
    doc.insert("machine", Value::String(machine()));
    doc.insert(
        "lines",
        Value::Array(lines.iter().map(|l| Value::String(l.clone())).collect()),
    );
    doc.insert(
        "result",
        magic_json::from_str(result).expect("the result line is JSON"),
    );
    magic_json::to_string_pretty(&Value::Object(doc))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Path::new("BENCHMARK.json");
    let outcome = match args.first().map(String::as_str) {
        Some("summarize") if args.len() == 2 => summary::summarize(spec, Path::new(&args[1])),
        Some("compare") if args.len() == 3 => {
            summary::compare(spec, Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("summarize" | "compare") => {
            Err("usage: e2e summarize <set> | e2e compare <set-a> <set-b>".into())
        }
        _ => {
            let parsed = match parse_args(&args) {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("e2e: {e}");
                    return ExitCode::from(2);
                }
            };
            if let Err(e) = std::fs::create_dir_all(&parsed.ctx.out_dir) {
                eprintln!("e2e: cannot create {}: {e}", parsed.ctx.out_dir.display());
                return ExitCode::from(2);
            }
            let report = run_workload(&parsed.workload, &parsed.ctx);
            return finish(&parsed.workload, &parsed.ctx, &report);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tiny(trace: bool) -> Ctx {
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/e2e-smoke");
        std::fs::create_dir_all(&out_dir).unwrap();
        Ctx {
            seed: 3,
            seconds: 0.05,
            trace,
            tiny: true,
            out_dir,
        }
    }

    /// Every workload at the generator's smallest corpus, untraced and
    /// traced, with all of its correctness checks; together the runs set
    /// every declared metric.
    #[test]
    fn smoke_run_of_every_workload() {
        let mut per_layer_set = BTreeSet::new();
        for workload in WORKLOADS {
            let report = run_workload(workload, &tiny(false));
            assert!(report.checks.attempted > 0, "{workload} checked nothing");
            assert_eq!(
                report.checks.failed, 0,
                "{workload}: {:?}",
                report.checks.failures
            );
            for (name, _) in metrics::END_TO_END {
                let value = report.metrics.get(name).copied();
                assert!(
                    value.is_some_and(|v| v > 0.0),
                    "{workload} did not measure {name}: {value:?}"
                );
            }
            let traced = run_workload(workload, &tiny(true));
            assert_eq!(
                traced.checks.failed, 0,
                "{workload} traced: {:?}",
                traced.checks.failures
            );
            assert!(traced
                .metrics
                .get("trace.overhead_ratio")
                .is_some_and(|r| *r > 0.0));
            per_layer_set.extend(traced.metrics.keys().copied());
        }
        let declared: BTreeSet<&str> = metrics::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            per_layer_set, declared,
            "traced runs set every per-layer metric"
        );
    }

    #[test]
    fn arguments_follow_the_benchmark_command_line() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let parsed = parse_args(&args(
            "--workload train-ref --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (
                parsed.workload.as_str(),
                parsed.ctx.seed,
                parsed.ctx.seconds
            ),
            ("train-ref", 9, 10.0)
        );
        assert!(parsed.ctx.trace);
        assert!(
            !parse_args(&args("--workload serve-asm --trace 0"))
                .unwrap()
                .ctx
                .trace
        );
        assert!(
            parse_args(&args("--workload serve-asm --trace"))
                .unwrap()
                .ctx
                .trace
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload serve-asm --seconds 0")).is_err());
    }
}
