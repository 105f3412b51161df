//! Differential property suite for the deferred probe-plan layer: a plan's
//! fused, (optionally) multi-threaded execution must agree **bitwise** with
//! the eager per-call path — a query's value never depends on tile-mates,
//! member grouping, or worker scheduling. Covers NULL predicates, every
//! moment slot, GROUP BY plans with NULL groups, and the acceptance
//! invariant that `execute_aqp` GROUP BY sweeps each touched RSPN member
//! exactly once.

use std::sync::OnceLock;

use deepdb_core::{
    execute_aqp, Ensemble, EnsembleBuilder, EnsembleParams, EnsembleStrategy, ProbePlan,
    ProbeResults,
};
use deepdb_spn::{LeafFunc, LeafPred, SpnQuery};
use deepdb_storage::fixtures::correlated_customer_order;
use deepdb_storage::{
    execute, Aggregate, CmpOp, ColumnRef, Database, Domain, PredOp, Query, TableSchema, Value,
};
use proptest::prelude::*;

/// Run `plan` with an explicit sweep-thread cap.
fn execute_with_threads(plan: &ProbePlan, ens: &Ensemble, threads: usize) -> ProbeResults {
    let mut results = plan.blank_results();
    plan.execute_into(ens, threads, None, None, &mut results);
    results
}

/// Shared two-member (single-table strategy) ensemble so the plan executor
/// fans probes across more than one RSPN.
fn two_member_ensemble() -> &'static (Database, Ensemble) {
    static CELL: OnceLock<(Database, Ensemble)> = OnceLock::new();
    CELL.get_or_init(|| {
        let db = correlated_customer_order(1200, 77);
        let params = EnsembleParams {
            strategy: EnsembleStrategy::SingleTables,
            sample_size: 10_000,
            correlation_sample: 1_000,
            ..EnsembleParams::default()
        };
        let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        (db, ens)
    })
}

/// Shared joint-RSPN ensemble for the AQP-level tests.
fn joint_ensemble() -> &'static (Database, Ensemble) {
    static CELL: OnceLock<(Database, Ensemble)> = OnceLock::new();
    CELL.get_or_init(|| {
        let db = correlated_customer_order(2000, 21);
        let params = EnsembleParams {
            sample_size: 20_000,
            correlation_sample: 1_500,
            rdc_threshold: 0.0,
            ..EnsembleParams::default()
        };
        let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        (db, ens)
    })
}

const FUNCS: [LeafFunc; 5] = [
    LeafFunc::One,
    LeafFunc::X,
    LeafFunc::X2,
    LeafFunc::InvClamp1,
    LeafFunc::InvSqClamp1,
];

/// Build one probe against member `member` of `ens` from slot specs
/// `(col_sel, pred_kind, v, func_kind)`.
fn build_probe(ens: &Ensemble, member: usize, specs: &[(u8, u8, i64, u8)]) -> SpnQuery {
    let rspn = &ens.rspns()[member];
    let n_cols = rspn.columns().len();
    let mut q = rspn.new_query();
    for &(col_sel, pred_kind, v, func_kind) in specs {
        let col = col_sel as usize % n_cols;
        let v = v as f64;
        match pred_kind % 7 {
            0 => {}
            1 => q.add_pred(col, LeafPred::eq(v)),
            2 => q.add_pred(col, LeafPred::le(v)),
            3 => q.add_pred(col, LeafPred::ge(v)),
            4 => q.add_pred(col, LeafPred::IsNull),
            5 => q.add_pred(col, LeafPred::IsNotNull),
            _ => q.add_pred(
                col,
                LeafPred::Range {
                    lo: v,
                    hi: v + 25.0,
                    lo_incl: true,
                    hi_incl: v as i64 % 2 == 0,
                },
            ),
        }
        if func_kind % 6 != 0 {
            q.set_func(col, FUNCS[func_kind as usize % FUNCS.len()]);
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plan-executed probe values ≡ the eager per-call path (`Rspn::expect`),
    /// bitwise, for 1 and 4 worker threads — including NULL predicates and
    /// every moment slot, across multiple members, straddling the sweep
    /// tile width (32).
    #[test]
    fn plan_matches_eager_path_bitwise(
        probes in prop::collection::vec(
            (0u8..2, prop::collection::vec((0u8..8, 0u8..7, -10i64..160, 0u8..6), 0..4)),
            1..90,
        ),
    ) {
        let (_, ens) = two_member_ensemble();
        let mut plan = ProbePlan::new();
        let mut eager = Vec::with_capacity(probes.len());
        let mut handles = Vec::with_capacity(probes.len());
        for (member_sel, specs) in &probes {
            let member = *member_sel as usize % ens.rspns().len();
            let q = build_probe(ens, member, specs);
            eager.push(ens.rspns()[member].expect(&q));
            handles.push(plan.register(member, q));
        }
        for threads in [1usize, 4] {
            let results = execute_with_threads(&plan, ens, threads);
            for (i, &h) in handles.iter().enumerate() {
                prop_assert_eq!(
                    results[h].to_bits(),
                    eager[i].to_bits(),
                    "probe {} with {} threads: plan {} vs eager {}",
                    i, threads, results[h], eager[i]
                );
            }
        }
    }
}

/// 1-thread and N-thread execution of the same plan agree exactly, probe by
/// probe, on a batch spanning many tiles and both members.
#[test]
fn thread_count_determinism_is_exact() {
    let (_, ens) = two_member_ensemble();
    let mut plan = ProbePlan::new();
    let mut handles = Vec::new();
    for i in 0..300i64 {
        let member = (i % 2) as usize;
        let specs = [
            (i as u8, (i % 7) as u8, i % 90, (i % 6) as u8),
            (
                (i / 3) as u8,
                ((i + 3) % 7) as u8,
                5 + i % 40,
                ((i + 2) % 6) as u8,
            ),
        ];
        let q = build_probe(ens, member, &specs);
        handles.push(plan.register(member, q));
    }
    let baseline = execute_with_threads(&plan, ens, 1);
    for threads in [2usize, 3, 4, 8] {
        let got = execute_with_threads(&plan, ens, threads);
        for &h in &handles {
            assert_eq!(
                got[h].to_bits(),
                baseline[h].to_bits(),
                "{threads}-thread execution diverged from 1-thread"
            );
        }
    }
}

/// The fused GROUP BY plan returns exactly the same estimates as issuing
/// each group's scalar query on its own (both paths share probe arithmetic,
/// so equality is exact, not approximate) — for AVG and SUM aggregates,
/// which carry count, numerator, denominator, and moment probes.
#[test]
fn grouped_plan_matches_per_group_scalar_queries() {
    let (db, ens) = joint_ensemble();
    let c = db.table_id("customer").unwrap();
    let o = db.table_id("orders").unwrap();
    for aggregate in [
        Aggregate::CountStar,
        Aggregate::Avg(ColumnRef {
            table: o,
            column: 3,
        }),
        Aggregate::Sum(ColumnRef {
            table: o,
            column: 3,
        }),
    ] {
        let grouped = Query::count(vec![c, o]).aggregate(aggregate).group(c, 2);
        let ens_a = clone_for_test(ens);
        let out = execute_aqp(&ens_a, db, &grouped).unwrap();
        let groups = out.groups();
        assert!(!groups.is_empty(), "grouped result should not be empty");
        for (key, got) in groups {
            let scalar = Query::count(vec![c, o]).aggregate(aggregate).filter(
                c,
                2,
                PredOp::Cmp(CmpOp::Eq, key[0]),
            );
            let ens_b = clone_for_test(ens);
            let want = execute_aqp(&ens_b, db, &scalar).unwrap();
            let want = want.scalar().unwrap();
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "group {key:?}");
            assert_eq!(got.ci_low.to_bits(), want.ci_low.to_bits());
            assert_eq!(got.ci_high.to_bits(), want.ci_high.to_bits());
            assert_eq!(got.count_estimate.to_bits(), want.count_estimate.to_bits());
        }
    }
}

/// GROUP BY over a nullable column enumerates the NULL group and matches
/// the ground-truth executor (SQL groups NULLs together).
#[test]
fn grouped_plan_covers_null_groups() {
    let mut db = Database::new("nullable_groups");
    db.create_table(
        TableSchema::new("t")
            .pk("id")
            .nullable_col("cat", Domain::categorical(["A", "B"]))
            .col("x", Domain::Discrete),
    )
    .unwrap();
    // Deterministic mix: every 4th row has a NULL category.
    for i in 0..400i64 {
        let cat = if i % 4 == 0 {
            Value::Null
        } else {
            Value::Int(i % 2)
        };
        db.insert("t", &[Value::Int(i), cat, Value::Int(10 + (i * 7) % 50)])
            .unwrap();
    }
    let t = db.table_id("t").unwrap();
    let ens = EnsembleBuilder::new(&db)
        .params(EnsembleParams {
            sample_size: 12_000,
            correlation_sample: 500,
            ..EnsembleParams::default()
        })
        .build()
        .unwrap();

    let q = Query::count(vec![t]).group(t, 1);
    let truth = execute(&db, &q).unwrap();
    let out = execute_aqp(&ens, &db, &q).unwrap();
    let groups = out.groups();
    assert_eq!(
        groups.len(),
        truth.groups().len(),
        "group count incl. NULL group; got {groups:?}"
    );
    for (key, res) in groups {
        let want = truth
            .groups()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, a)| a.count as f64)
            .unwrap_or_else(|| panic!("estimated group {key:?} missing from truth"));
        let rel = (res.value - want).abs() / want.max(1.0);
        assert!(rel < 0.25, "group {key:?}: {} vs {want}", res.value);
    }
    assert!(
        groups.iter().any(|(k, _)| k[0] == Value::Null),
        "NULL group must be enumerated"
    );
}

/// Acceptance invariant: a GROUP BY query issues exactly one fused arena
/// sweep per touched RSPN member, no matter how many groups it enumerates.
#[test]
fn groupby_costs_one_sweep_per_touched_member() {
    let (db, ens) = joint_ensemble();
    let c = db.table_id("customer").unwrap();
    let o = db.table_id("orders").unwrap();
    let ens = clone_for_test(ens);
    let q = Query::count(vec![c, o])
        .aggregate(Aggregate::Avg(ColumnRef {
            table: o,
            column: 3,
        }))
        .group(c, 2);

    let before: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();
    let out = execute_aqp(&ens, db, &q).unwrap();
    assert!(
        out.groups().len() >= 2,
        "needs multiple groups to be meaningful"
    );
    let after: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();

    let deltas: Vec<u64> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
    assert!(
        deltas.iter().all(|&d| d <= 1),
        "a member was swept more than once: {deltas:?}"
    );
    assert!(
        deltas.iter().sum::<u64>() >= 1,
        "at least one member must have been swept"
    );
}

/// The ML regression path costs exactly one sweep, including its no-support
/// fallback probes (they ride in the same fused plan) — on `&Ensemble`.
#[test]
fn regression_costs_one_sweep_even_without_support() {
    let (db, ens) = joint_ensemble();
    let c = db.table_id("customer").unwrap();
    let ens = clone_for_test(ens);

    for features in [
        vec![(2usize, Value::Int(0))],
        // Impossible evidence: region 77 was never observed → fallback path.
        vec![(2usize, Value::Int(77))],
    ] {
        let before: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();
        deepdb_core::ml::predict_regression(&ens, db, c, 1, &features).unwrap();
        let after: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();
        let total: u64 = before.iter().zip(&after).map(|(b, a)| a - b).sum();
        assert_eq!(total, 1, "regression with features {features:?}");
    }
}

/// Ensembles are cheap to clone for isolated sweep-count bookkeeping; going
/// through a snapshot round-trip also exercises load-path plan execution.
fn clone_for_test(ens: &Ensemble) -> Ensemble {
    let mut buf = Vec::new();
    ens.save(&mut buf).unwrap();
    Ensemble::load(&mut buf.as_slice()).unwrap()
}
