//! `plan_cache`: the cross-query plan cache and the `PreparedQuery` API vs.
//! cold planning, at 1 / 8 / 64 distinct query shapes.
//!
//! Three lanes over the same shape pool of two-table Case-3 COUNT queries
//! (single-table RSPNs, so every query combines two members):
//!
//! * **planned-cold** — plan cache capacity 0 (full bypass): every call pays
//!   planning + translation, one build from the real literals, exactly
//!   the pre-cache behavior.
//! * **planned-cached** — default cache, warmed: every call is a shape hit
//!   that only rebinds literal slots into a shared artifact.
//! * **prepared** — `Ensemble::prepare` once per shape outside the timer;
//!   the loop only rebinds literals and executes (zero planning work, zero
//!   steady-state allocation).
//!
//! All three lanes are asserted **bitwise identical** per shape before any
//! timing. Writes `BENCH_plan_cache.json` with ns/query per lane and the
//! `cold_over_prepared` ratio (the acceptance gate is ≥ 1.5×).
//! `DEEPDB_FAST=1` shrinks the fixture and rep counts for the CI smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use deepdb_core::{
    compile, query_literals, Ensemble, EnsembleBuilder, EnsembleParams, EnsembleStrategy,
    PreparedQuery,
};
use deepdb_storage::fixtures::correlated_customer_order;
use deepdb_storage::{CmpOp, Database, PredOp, Query, Value};

fn fast() -> bool {
    std::env::var("DEEPDB_FAST").is_ok_and(|v| v == "1")
}

fn fixture() -> (Database, Ensemble) {
    let n = if fast() { 600 } else { 4_000 };
    let db = correlated_customer_order(n, 41);
    let params = EnsembleParams {
        strategy: EnsembleStrategy::SingleTables, // two-table COUNTs are Case 3
        sample_size: if fast() { 4_000 } else { 16_000 },
        correlation_sample: 500,
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db)
        .params(params)
        .build()
        .expect("ensemble");
    (db, ens)
}

/// Shape `i` mixes operators over four columns by mixed-radix decomposition
/// (4 age ops × 3 region ops × 2 channel ops × 3 amount ops = 72 distinct
/// shapes), so any prefix of the pool has pairwise-distinct cache keys.
/// Literal *values* also vary with `i`, but those never enter the key.
fn shape_query(i: usize) -> Query {
    let (cu, o) = (0usize, 1usize);
    let mut q = Query::count(vec![cu, o]);
    let age_lit = 22 + (i as i64 % 17);
    q = match i % 4 {
        0 => q.filter(cu, 1, PredOp::Cmp(CmpOp::Eq, Value::Int(age_lit))),
        1 => q.filter(cu, 1, PredOp::Cmp(CmpOp::Le, Value::Int(age_lit + 20))),
        2 => q.filter(cu, 1, PredOp::Cmp(CmpOp::Ge, Value::Int(age_lit))),
        _ => q.filter(
            cu,
            1,
            PredOp::Between(Value::Int(age_lit), Value::Int(age_lit + 15)),
        ),
    };
    q = match (i / 4) % 3 {
        0 => q,
        1 => q.filter(cu, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(i as i64 % 3))),
        _ => q.filter(
            cu,
            2,
            PredOp::In(vec![
                Value::Int(i as i64 % 3),
                Value::Int((i as i64 + 1) % 3),
            ]),
        ),
    };
    if (i / 12) % 2 == 1 {
        q = q.filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(i as i64 % 2)));
    }
    match (i / 24) % 3 {
        0 => q,
        1 => q.filter(o, 3, PredOp::Cmp(CmpOp::Le, Value::Float(120.0 + i as f64))),
        _ => q.filter(o, 3, PredOp::Cmp(CmpOp::Ge, Value::Float(40.0 + i as f64))),
    }
}

/// Median ns over `reps` runs of `f`.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench_plan_cache(c: &mut Criterion) {
    let reps = if fast() { 7 } else { 21 };
    let (db, ens) = fixture();
    let pool: Vec<Query> = (0..64).map(shape_query).collect();
    let prepare_all = |queries: &[Query]| -> Vec<(PreparedQuery, Vec<f64>)> {
        queries
            .iter()
            .map(|q| (ens.prepare(&db, q).expect("prepare"), query_literals(q)))
            .collect()
    };

    // Acceptance first: cold ≡ cached ≡ prepared, bitwise, on every shape.
    ens.set_plan_cache_capacity(0);
    let cold_all: Vec<_> = pool
        .iter()
        .map(|q| compile::estimate_count(&ens, &db, q).expect("cold"))
        .collect();
    ens.set_plan_cache_capacity(256);
    for q in &pool {
        compile::estimate_count(&ens, &db, q).expect("warm"); // populate
    }
    let mut prepared_all = prepare_all(&pool);
    for (i, (q, cold)) in pool.iter().zip(&cold_all).enumerate() {
        let cached = compile::estimate_count(&ens, &db, q).expect("cached");
        assert_eq!(
            cold.value.to_bits(),
            cached.value.to_bits(),
            "shape {i}: cold {} vs cached {}",
            cold.value,
            cached.value
        );
        assert_eq!(cold.variance.to_bits(), cached.variance.to_bits());
        let (prep, lits) = &mut prepared_all[i];
        let pe = prep.execute(&ens, &db, lits).expect("prepared");
        assert_eq!(
            cold.value.to_bits(),
            pe.value.to_bits(),
            "shape {i}: cold {} vs prepared {}",
            cold.value,
            pe.value
        );
        assert_eq!(cold.variance.to_bits(), pe.variance.to_bits());
    }
    let stats = ens.plan_cache_stats();
    assert!(
        stats.hits >= 64,
        "warm pool must hit on every shape (stats: {stats:?})"
    );

    let mut rows = Vec::new();
    for shapes in [1usize, 8, 64] {
        let queries = &pool[..shapes];

        ens.set_plan_cache_capacity(0);
        c.bench_function(&format!("plan_cache/{shapes}/planned_cold"), |b| {
            b.iter(|| {
                for q in queries {
                    compile::estimate_count(&ens, &db, q).expect("cold");
                }
            })
        });
        let cold_ns = median_ns(reps, || {
            for q in queries {
                compile::estimate_count(&ens, &db, q).expect("cold");
            }
        }) / shapes as f64;

        ens.set_plan_cache_capacity(256);
        for q in queries {
            compile::estimate_count(&ens, &db, q).expect("warm");
        }
        c.bench_function(&format!("plan_cache/{shapes}/planned_cached"), |b| {
            b.iter(|| {
                for q in queries {
                    compile::estimate_count(&ens, &db, q).expect("cached");
                }
            })
        });
        let cached_ns = median_ns(reps, || {
            for q in queries {
                compile::estimate_count(&ens, &db, q).expect("cached");
            }
        }) / shapes as f64;

        let mut prepared = prepare_all(queries);
        c.bench_function(&format!("plan_cache/{shapes}/prepared"), |b| {
            b.iter(|| {
                for (prep, lits) in prepared.iter_mut() {
                    prep.execute(&ens, &db, lits).expect("prepared");
                }
            })
        });
        let prepared_ns = median_ns(reps, || {
            for (prep, lits) in prepared.iter_mut() {
                prep.execute(&ens, &db, lits).expect("prepared");
            }
        }) / shapes as f64;

        rows.push((shapes, cold_ns, cached_ns, prepared_ns));
    }

    // The acceptance gate: prepared execution must beat cold planning by
    // ≥ 1.5× ns/query on repeated shapes (it is typically far above that).
    for &(shapes, cold_ns, _, prepared_ns) in &rows {
        assert!(
            cold_ns >= 1.5 * prepared_ns,
            "{shapes} shapes: prepared ({prepared_ns:.0} ns) must be ≥1.5x \
             faster than planned-cold ({cold_ns:.0} ns)"
        );
    }

    let host = std::thread::available_parallelism().map_or(1, |x| x.get());
    let mut json = String::from("{\n  \"bench\": \"plan_cache\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"ensemble_members\": {},\n", ens.rspns().len()));
    json.push_str("  \"results\": [\n");
    for (i, (shapes, cold_ns, cached_ns, prepared_ns)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shapes\": {shapes}, \"planned_cold_ns_per_query\": {cold_ns:.0}, \
             \"planned_cached_ns_per_query\": {cached_ns:.0}, \
             \"prepared_ns_per_query\": {prepared_ns:.0}, \
             \"cold_over_cached\": {:.2}, \"cold_over_prepared\": {:.2}}}{}\n",
            cold_ns / cached_ns.max(1.0),
            cold_ns / prepared_ns.max(1.0),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan_cache.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }
    println!("{json}");
}

criterion_group! {
    name = benches;
    config = {
        let (samples, secs) = if fast() { (5, 1) } else { (15, 3) };
        Criterion::default()
            .sample_size(samples)
            .measurement_time(std::time::Duration::from_secs(secs))
            .warm_up_time(std::time::Duration::from_millis(if fast() { 100 } else { 500 }))
    };
    targets = bench_plan_cache
}
criterion_main!(benches);
