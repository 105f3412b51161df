//! End-to-end benchmark of the paper workloads through the public `deepdb`
//! API, with a per-layer trace.
//!
//! Three workloads (see [`Workload`]) each build their database and ensemble
//! from the seed, check every answer against a reference, and report the
//! end-to-end metrics of an untraced run or the per-layer metrics of a
//! traced run. `src/main.rs` is the command-line front end.

pub mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::{SelfTime, Tracer};

/// Threads the serving workload drives concurrently.
pub const SERVE_CLIENTS: usize = 2;

/// Metrics of an untraced run, reported by every workload.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "latency_p50_us",
    "latency_p99_us",
    "throughput_ops_s",
    "qerror_p50",
    "qerror_p95",
    "rel_error_pct",
    "peak_rss_mb",
];

/// Metrics of a traced run, reported by every workload.
pub const PER_LAYER: [&str; 20] = [
    "data.generate_s",
    "ensemble.build_s",
    "ensemble.model_nodes",
    "ensemble.insert_us_per_row",
    "cache.hit_ratio",
    "cache.evictions",
    "cache.prepare_us",
    "compile.cold_us",
    "compile.miss_us",
    "compile.hit_us",
    "plan.prepared_exec_us",
    "spn.sweeps_per_op",
    "serve.overhead_us",
    "serve.batch_fill",
    "serve.solo_fastpath",
    "serve.rejected",
    "serve.stale_retries",
    "aqp.us_per_group",
    "aqp.groups_per_query",
    "trace.overhead_pct",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, one-shot `estimate_cardinality` over JOB-light plus
    /// `job_multi` from two fixed seeds (176 shapes, all plan-cache hits in
    /// steady state), in an order the workload seed shuffles.
    JlEstimate,
    /// [`SERVE_CLIENTS`] clients through `ServeFront::serve` over a
    /// JOB-light stream of 20 seeds (1,400 shapes, overflows the plan cache).
    JlServe,
    /// One client: insert batches of held-out IMDb rows, each followed by
    /// JOB-light and `job_multi` reads that plan cold after the epoch bump.
    JlUpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::JlEstimate,
        Workload::JlServe,
        Workload::JlUpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JlEstimate => "jl_estimate",
            Workload::JlServe => "jl_serve",
            Workload::JlUpdateMix => "jl_update_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads issuing operations.
    pub fn clients(self) -> usize {
        match self {
            Workload::JlServe => SERVE_CLIENTS,
            _ => 1,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase. A traced run splits it into an untraced
    /// and a traced half.
    pub seconds: f64,
    pub trace: bool,
    /// Multiplier on the generators' default row counts.
    pub scale: f64,
    /// Times data generation and ensemble learning are repeated; the
    /// set-up metrics are medians over these.
    pub setups: usize,
    /// Repetitions of each query in the per-layer ledger (traced runs).
    pub ledger_reps: usize,
}

impl Config {
    /// The settings the benchmark command uses.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            scale: 1.0,
            setups: 3,
            ledger_reps: 15,
        }
    }
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Result of one run.
pub struct Report {
    pub config: Config,
    /// Checked operations (timed ones and the untimed reference passes).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// End-to-end metrics for an untraced run, per-layer ones for a traced
    /// run.
    pub metrics: Vec<Metric>,
    /// Counters that repeat exactly at one seed with one client.
    pub counters: BTreeMap<&'static str, u64>,
    /// Timed operations behind the latency percentiles.
    pub samples: usize,
    /// Per-span-name self time of the traced run.
    pub self_times: BTreeMap<&'static str, SelfTime>,
    pub tracer: Tracer,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// All operations succeeded and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Run one workload.
pub fn run(config: &Config) -> Report {
    let mut ctx = Ctx {
        cfg: config.clone(),
        tracer: Tracer::new(Instant::now(), config.trace),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        counters: BTreeMap::new(),
        samples: 0,
    };
    match config.workload {
        Workload::JlEstimate => workloads::jl_estimate(&mut ctx),
        Workload::JlServe => workloads::jl_serve(&mut ctx),
        Workload::JlUpdateMix => workloads::jl_update_mix(&mut ctx),
    }
    if !config.trace {
        ctx.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let self_times = trace::self_times(ctx.tracer.spans());
    Report {
        config: config.clone(),
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics: ctx.metrics,
        counters: ctx.counters,
        samples: ctx.samples,
        self_times,
        tracer: ctx.tracer,
    }
}

/// Mutable state of a run, shared by the workload functions.
pub(crate) struct Ctx {
    pub cfg: Config,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub counters: BTreeMap<&'static str, u64>,
    pub samples: usize,
}

impl Ctx {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// `q`-quantile of an ascending slice (nearest rank); `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Sort ascending and take the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MB; `NaN` if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
