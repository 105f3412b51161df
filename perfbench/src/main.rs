//! Command line of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload jl_estimate --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a readable summary on stderr, a `{"context": …}` line and, as the
//! last line of stdout, `{"correct", "attempted", "failed", "metrics"}`.
//! The full result (context, metrics, span self times) and, for a traced
//! run, every span go to `perfbench/out/`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use deepdb_perfbench::{run, Config, Report, Workload, END_TO_END, PER_LAYER};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: deepdb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("flags take one value each");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };

    let config = Config::new(workload, seed, seconds, trace);
    let report = run(&config);
    let expected: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let complete = names.len() == expected.len() && expected.iter().all(|n| names.contains(n));
    if !complete {
        eprintln!("metric set {names:?} differs from the declared {expected:?}");
    }
    let correct = complete && report.correct();

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let context = context_json(&report);
    summarize(&report);
    if let Err(e) = write_outputs(&out_dir, &report, &context) {
        eprintln!("could not write results to {}: {e}", out_dir.display());
    }
    println!("{{\"context\": {context}}}");
    println!("{}", result_json(&report, correct));
    ExitCode::SUCCESS
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result object printed as the last line of stdout.
fn result_json(report: &Report, correct: bool) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    )
}

/// What a result depends on besides the code: host, revision, sizes.
fn context_json(report: &Report) -> String {
    let c = &report.config;
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let counters: Vec<String> = report
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"scale\": {}, \
         \"setups\": {}, \"clients\": {}, \"host_parallelism\": {parallelism}, \
         \"git_revision\": \"{}\", \"samples\": {}, \"counters\": {{{}}}}}",
        c.workload.name(),
        c.trace,
        c.seed,
        c.seconds,
        c.scale,
        c.setups,
        c.workload.clients(),
        git_revision(),
        report.samples,
        counters.join(", ")
    )
}

/// The checkout's commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn summarize(report: &Report) {
    let c = &report.config;
    eprintln!(
        "{} seed {} ({}): {} operations checked, {} failed, {} timed samples",
        c.workload.name(),
        c.seed,
        if c.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed,
        report.samples
    );
    for m in &report.metrics {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if !report.self_times.is_empty() {
        eprintln!("  span self time (calls, total ms, self ms, self µs/call):");
        for (name, t) in &report.self_times {
            eprintln!(
                "    {:<40} {:>8} {:>10.2} {:>10.2} {:>10.2}",
                name,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e3 / t.calls.max(1) as f64
            );
        }
    }
}

/// `<workload>-trace<0|1>.json` (context, metrics, self times) and, for a
/// traced run, `<workload>.spans.csv`. Each run overwrites its workload's
/// files.
fn write_outputs(dir: &Path, report: &Report, context: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let c = &report.config;
    let self_times: Vec<String> = report
        .self_times
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.calls, t.total_ns, t.self_ns
            )
        })
        .collect();
    let body = format!(
        "{{\"context\": {context}, \"result\": {}, \"self_times\": {{{}}}}}\n",
        result_json(report, report.correct()),
        self_times.join(", ")
    );
    let name = format!("{}-trace{}.json", c.workload.name(), u8::from(c.trace));
    std::fs::write(dir.join(name), body)?;
    if c.trace {
        let path = dir.join(format!("{}.spans.csv", c.workload.name()));
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        report.tracer.write_csv(&mut w)?;
        w.flush()?;
    }
    Ok(())
}
