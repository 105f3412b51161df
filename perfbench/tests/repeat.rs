//! Two runs at one seed agree exactly on accuracy, failures and
//! single-client counters, every run reports its declared metric set, and
//! the declared sets match `BENCHMARK.json`.
//!
//! The runs here are small (scale 0.25, one set-up) so that they finish
//! quickly; whether every answer is right is checked by the benchmark's own
//! runs at scale 1, which report `failed`.

use deepdb_perfbench::{run, Config, Report, Workload, END_TO_END, PER_LAYER};

fn small(workload: Workload, trace: bool) -> Config {
    Config {
        scale: 0.25,
        setups: 1,
        ledger_reps: 2,
        ..Config::new(workload, 7, 0.3, trace)
    }
}

fn names(report: &Report) -> Vec<&'static str> {
    let mut n: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
    n.sort_unstable();
    n
}

fn sorted(list: &[&'static str]) -> Vec<&'static str> {
    let mut v = list.to_vec();
    v.sort_unstable();
    v
}

#[test]
fn same_seed_repeats_accuracy_and_counters() {
    for workload in Workload::ALL {
        let a = run(&small(workload, false));
        let b = run(&small(workload, false));
        for r in [&a, &b] {
            assert_eq!(names(r), sorted(&END_TO_END), "{}", workload.name());
        }
        assert_eq!(a.failed, b.failed, "{}", workload.name());
        for m in ["qerror_p50", "qerror_p95", "rel_error_pct"] {
            assert_eq!(
                a.metric(m).map(f64::to_bits),
                b.metric(m).map(f64::to_bits),
                "{} {m}",
                workload.name()
            );
        }
        assert!(a.counters.contains_key("model_nodes"));
        assert_eq!(a.counters, b.counters, "{}", workload.name());
    }
}

#[test]
fn traced_runs_report_every_layer_metric() {
    for workload in Workload::ALL {
        let r = run(&small(workload, true));
        assert!(r.attempted > 0, "{}", workload.name());
        assert_eq!(names(&r), sorted(&PER_LAYER), "{}", workload.name());
        assert!(!r.tracer.spans().is_empty());
        assert!(r.self_times.contains_key("EnsembleBuilder::build"));
    }
}

/// Metric names listed under `key` in BENCHMARK.json.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let end = section.find(']').expect("list closes");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut e2e = declared(&json, "end_to_end");
    let mut layers = declared(&json, "per_layer");
    e2e.sort_unstable();
    layers.sort_unstable();
    assert_eq!(e2e, sorted(&END_TO_END));
    assert_eq!(layers, sorted(&PER_LAYER));
    let workloads = declared(&json, "workloads");
    let all: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, all);
}
