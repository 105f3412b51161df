//! Cross-query plan caching and prepared queries.
//!
//! PR 5 established that **planning is value-independent**: member selection
//! (`best_covering_rspn` / `best_rspn_with` / the Case-3 combine planner)
//! and predicate translation structure depend only on schema, ensemble
//! coverage, and the *columns* predicates touch — never on the literal
//! values. Production traffic repeats query **shapes** with different
//! literals, so the FK-graph walks, RDC scoring, and `SpnQuery` translation
//! can be done once per shape and reused.
//!
//! Three cache tiers live behind one LRU map ([`PlanCache`], owned
//! runtime-only by [`Ensemble`]):
//!
//! * **Full plan artifacts** (`COUNT`/`AVG`/`SUM`/disjunction/AQP-scalar
//!   entry points): the fully-registered [`ProbePlan`] plus its deferred
//!   resolver, with **literal binds** mapping flat probe-literal positions
//!   back to query-literal indices. A hit clones the plan, rewrites just the
//!   bound `f64` slots, executes, and resolves — zero planning work.
//! * **Grouped templates** ([`ScalarTemplate`] for GROUP BY / batched
//!   count-values): keyed on shape **plus literal bits** (templates bake
//!   translated shared-predicate literals into their base queries, so only
//!   exact literal matches may share one).
//! * **Selection preludes**: the covering-member choice of the
//!   count-values fast path and the ML entry points' (member, target
//!   column, normalization factors) prelude — pure member selection, safely
//!   shared across literals.
//! * **Pruning active sets** ([`active_set_for`]): per `(member,
//!   constrained-column union)` shape, the compacted sub-DAG a sweep may
//!   restrict itself to ([`deepdb_spn::ActiveSet`]). **Bitwise contract**:
//!   a pruned sweep is bitwise identical to the full sweep — pruned-away
//!   nodes are seeded from the arena's cached neutral (empty-query) values,
//!   which are exactly the values the full sweep computes for nodes none of
//!   the batch's probes constrain. Column unions are literal-independent,
//!   so one set serves every rebind of a shape; [`PreparedQuery`] pins its
//!   members' sets at prepare time and prunes with zero per-execute
//!   discovery.
//!
//! # Literal binds via placeholder builds
//!
//! A bindable shape is planned **once**, from the query with literal *i*
//! replaced by placeholder *i* ([`placeholder`], huge finite doubles that no
//! translation produces as a plan constant). Translation copies a literal's
//! `f64` into its probe slot without reading it, so every flat literal slot
//! of the built plan that holds placeholder *i* becomes a bind `(flat
//! position, literal index)`; every other slot is a plan constant (±∞ range
//! endpoints, join-indicator values). Every execution — the miss that built
//! the artifact included — runs a clone rebound with the real literals, so
//! real literals never enter a cached build.
//!
//! The one translation that reads a literal's value is the
//! functional-dependency dictionary rewrite (a predicate on an FD-dependent
//! column becomes an `IN` list over determinant values). Bindability is
//! therefore decided from the shape before building ([`bindable`]): a shape
//! with a predicate on a column some member answers through an FD
//! dictionary plans from its real literals and is never cached.
//!
//! # Prepared queries
//!
//! [`Ensemble::prepare`] turns a scalar aggregate query into a
//! [`PreparedQuery`]: planning, translation, and bind reading happen once;
//! [`PreparedQuery::execute`] only rewrites the bound literal slots in a
//! pre-sized plan and runs one inline fused sweep per member
//! ([`ProbePlan::execute_into`] with `threads = 1`, on the calling thread's
//! grow-only sweep scratch) into pre-sized results — **zero allocations**
//! in steady state. Non-bindable shapes still prepare, but plan cold per
//! execution (see [`PreparedQuery::is_bound`]).
//!
//! # Invalidation
//!
//! Every cache key embeds the ensemble's **plan epoch**
//! ([`Ensemble::plan_epoch`]), bumped by every coverage-/count-changing
//! maintenance operation (inserts, deletes, join count refreshes). Stale
//! entries can never hit again and die lazily through LRU eviction; a
//! [`PreparedQuery`] from an old epoch fails its next `execute` with
//! [`DeepDbError::StalePlan`].

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use deepdb_spn::ActiveSet;
use deepdb_storage::{
    Aggregate, CmpOp, ColId, ColumnRef, Database, PredOp, Predicate, Query, TableId, Value,
};

use crate::compile::{
    best_covering_rspn, register_avg, register_count, register_scalar, resolve_scalar, DeferredAvg,
    DeferredCountExpr, DeferredScalar, ScalarTemplate,
};
use crate::ensemble::Ensemble;
use crate::estimate::Estimate;
use crate::plan::{ProbePlan, ProbeResults};
use crate::DeepDbError;

/// Default [`PlanCache`] capacity (entries across all tiers). `0` disables
/// caching entirely — lookups, placeholder builds, and inserts are all
/// skipped, so a capacity-0 ensemble measures the true planned-cold path.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

// ---------------------------------------------------------------------------
// Placeholders
// ---------------------------------------------------------------------------

/// Base bit pattern of the placeholder range: huge finite doubles (~9e307)
/// that never occur as translated plan constants.
const PLACEHOLDER_BASE: u64 = 0x7FE0_0000_0000_0000;

/// Stand-in for literal `i` in the build of a bindable shape.
fn placeholder(i: u32) -> f64 {
    f64::from_bits(PLACEHOLDER_BASE + u64::from(i))
}

// ---------------------------------------------------------------------------
// Query shapes (cache keys)
// ---------------------------------------------------------------------------

/// Structural fingerprint of one predicate: which column it touches and the
/// operator *shape* (literal nullness included — NULL comparisons translate
/// to different probe structures), but never the literal values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PredShape {
    table: TableId,
    column: ColId,
    op: OpShape,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OpShape {
    /// Comparison operator code + whether the literal is NULL.
    Cmp(u8, bool),
    /// Per-element nullness of the IN list (length implied).
    In(Vec<bool>),
    /// Nullness of the lower/upper bound.
    Between(bool, bool),
    IsNull,
    IsNotNull,
}

fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn pred_shape(p: &Predicate) -> PredShape {
    let op = match &p.op {
        PredOp::Cmp(op, v) => OpShape::Cmp(cmp_code(*op), matches!(v, Value::Null)),
        PredOp::In(vs) => OpShape::In(vs.iter().map(|v| matches!(v, Value::Null)).collect()),
        PredOp::Between(lo, hi) => {
            OpShape::Between(matches!(lo, Value::Null), matches!(hi, Value::Null))
        }
        PredOp::IsNull => OpShape::IsNull,
        PredOp::IsNotNull => OpShape::IsNotNull,
    };
    PredShape {
        table: p.table,
        column: p.column,
        op,
    }
}

fn pred_shapes(preds: &[Predicate]) -> Vec<PredShape> {
    preds.iter().map(pred_shape).collect()
}

/// Canonical cache key: everything that determines plan structure, nothing
/// that a literal rebind can change. `literal_bits` stays empty for the
/// rebindable artifact tier and carries the exact literal bits for the
/// template tier (templates bake literals into their base queries).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct QueryShape {
    tag: u8,
    epoch: u64,
    tables: Vec<TableId>,
    agg: (u8, TableId, ColId),
    group_cols: Vec<(TableId, ColId)>,
    preds: Vec<PredShape>,
    disjuncts: Vec<Vec<PredShape>>,
    literal_bits: Vec<u64>,
}

/// Which entry point an artifact serves (and therefore how it resolves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArtifactKind {
    /// `estimate_count` — plain COUNT resolution.
    Count,
    /// `estimate_avg` on the given target column.
    Avg(ColumnRef),
    /// `estimate_sum`: non-NULL COUNT × AVG on the given target column.
    Sum(ColumnRef),
    /// `execute_aqp`'s scalar path: a `(aggregate, count)` pair via
    /// [`register_scalar`] (aggregate kind read from the query).
    AqpScalar,
}

impl ArtifactKind {
    /// The kind serving a scalar aggregate query's own estimate entry point.
    pub(crate) fn of(aggregate: Aggregate) -> Self {
        match aggregate {
            Aggregate::CountStar => ArtifactKind::Count,
            Aggregate::Avg(t) => ArtifactKind::Avg(t),
            Aggregate::Sum(t) => ArtifactKind::Sum(t),
        }
    }
}

fn agg_code(kind: ArtifactKind, query: &Query) -> (u8, TableId, ColId) {
    match kind {
        ArtifactKind::Count => (0, 0, 0),
        ArtifactKind::Avg(t) => (1, t.table, t.column),
        ArtifactKind::Sum(t) => (2, t.table, t.column),
        ArtifactKind::AqpScalar => match query.aggregate {
            Aggregate::CountStar => (3, 0, 0),
            Aggregate::Avg(t) => (4, t.table, t.column),
            Aggregate::Sum(t) => (5, t.table, t.column),
        },
    }
}

fn artifact_shape(
    epoch: u64,
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
) -> QueryShape {
    let tag = match (kind, disjuncts.is_empty()) {
        (ArtifactKind::Count, true) => 0,
        (ArtifactKind::Count, false) => 1,
        (ArtifactKind::Avg(_), _) => 2,
        (ArtifactKind::Sum(_), _) => 3,
        (ArtifactKind::AqpScalar, _) => 4,
    };
    QueryShape {
        tag,
        epoch,
        tables: query.tables.clone(),
        agg: agg_code(kind, query),
        group_cols: Vec::new(),
        preds: pred_shapes(&query.predicates),
        disjuncts: disjuncts.iter().map(|d| pred_shapes(d)).collect(),
        literal_bits: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Literal extraction / substitution
// ---------------------------------------------------------------------------

/// Walk the literal slots of a predicate list in canonical order — predicate
/// order, within `Cmp` the value, within `Between` lo then hi, within `In`
/// the elements in order, non-NULL slots only — calling `f` on each.
fn walk_pred_literals(preds: &mut [Predicate], mut f: impl FnMut(&mut Value)) {
    for p in preds {
        match &mut p.op {
            PredOp::Cmp(_, v) => {
                if !matches!(v, Value::Null) {
                    f(v);
                }
            }
            PredOp::Between(lo, hi) => {
                for v in [lo, hi] {
                    if !matches!(v, Value::Null) {
                        f(v);
                    }
                }
            }
            PredOp::In(vs) => {
                for v in vs.iter_mut() {
                    if !matches!(v, Value::Null) {
                        f(v);
                    }
                }
            }
            PredOp::IsNull | PredOp::IsNotNull => {}
        }
    }
}

/// Read-only twin of [`walk_pred_literals`] (same order), passing each
/// literal to `f` as `f64`.
pub(crate) fn for_each_pred_literal<'a>(
    preds: impl IntoIterator<Item = &'a Predicate>,
    mut f: impl FnMut(f64),
) {
    for p in preds {
        match &p.op {
            PredOp::Cmp(_, v) => v.as_f64().into_iter().for_each(&mut f),
            PredOp::Between(lo, hi) => lo.as_f64().into_iter().chain(hi.as_f64()).for_each(&mut f),
            PredOp::In(vs) => vs.iter().filter_map(Value::as_f64).for_each(&mut f),
            PredOp::IsNull | PredOp::IsNotNull => {}
        }
    }
}

/// Every non-NULL literal of the query (and disjuncts, in order) as `f64` —
/// the **bind vector** of the query's shape. This is the order
/// [`PreparedQuery::execute`] expects its `literals` argument in; the
/// convenience extractor [`query_literals`] exposes it publicly.
fn collect_all_literals(query: &Query, disjuncts: &[Vec<Predicate>]) -> Vec<f64> {
    let mut out = Vec::new();
    for_each_pred_literal(
        query.predicates.iter().chain(disjuncts.iter().flatten()),
        |v| out.push(v),
    );
    out
}

/// The literal vector of a query in the canonical bind order (predicate
/// order; within a predicate: `Cmp` value, `Between` lo then hi, `In`
/// elements in order; NULL literals are structural, not bindable). Pass a
/// same-shaped vector to [`PreparedQuery::execute`] to rebind.
pub fn query_literals(query: &Query) -> Vec<f64> {
    collect_all_literals(query, &[])
}

/// Clone of the query (and disjuncts) with literal *i* replaced by
/// placeholder *i*, plus the literal count.
fn placeholder_variant(
    query: &Query,
    disjuncts: &[Vec<Predicate>],
) -> (Query, Vec<Vec<Predicate>>, u32) {
    let mut q = query.clone();
    let mut ds = disjuncts.to_vec();
    let mut i = 0u32;
    for preds in std::iter::once(&mut q.predicates).chain(ds.iter_mut()) {
        walk_pred_literals(preds, |v| {
            *v = Value::Float(placeholder(i));
            i += 1;
        });
    }
    (q, ds, i)
}

/// Overwrite the query's literal slots with `literals` (f64-space; every
/// translation layer compares through [`Value::as_f64`], so `Float`
/// replacements behave identically to the original `Int` literals).
fn rebind_query_literals(query: &mut Query, literals: &[f64]) {
    let mut i = 0usize;
    walk_pred_literals(&mut query.predicates, |v| {
        *v = Value::Float(literals[i]);
        i += 1;
    });
    debug_assert_eq!(i, literals.len(), "literal arity mismatch");
}

// ---------------------------------------------------------------------------
// Artifact building
// ---------------------------------------------------------------------------

/// How a cached plan's results resolve to estimates — one variant per entry
/// point, reproducing its exact arithmetic.
pub(crate) enum Resolver {
    Count(DeferredCountExpr),
    Avg(DeferredAvg),
    Sum {
        count_nn: DeferredCountExpr,
        avg: DeferredAvg,
    },
    /// Inclusion–exclusion terms: `(sign, deferred count)` per mask.
    Disjunction(Vec<(f64, DeferredCountExpr)>),
    /// AQP scalar `(aggregate, count)` pair.
    Scalar(DeferredScalar),
}

impl Resolver {
    pub(crate) fn resolve_single(&self, r: &ProbeResults) -> Result<Estimate, DeepDbError> {
        match self {
            Resolver::Count(d) => d.resolve(r),
            Resolver::Avg(d) => Ok(d.resolve(r)),
            Resolver::Sum { count_nn, avg } => Ok(count_nn.resolve(r)?.product(avg.resolve(r))),
            Resolver::Disjunction(terms) => {
                let mut total = Estimate::exact(0.0);
                for (sign, d) in terms {
                    total = total.add(d.resolve(r)?.scale(*sign));
                }
                total.value = total.value.max(0.0);
                Ok(total)
            }
            Resolver::Scalar(_) => unreachable!("AQP scalar artifacts resolve to a pair"),
        }
    }

    fn resolve_pair(&self, r: &ProbeResults) -> Result<(Estimate, Estimate), DeepDbError> {
        match self {
            Resolver::Scalar(d) => resolve_scalar(d, r),
            _ => unreachable!("single-estimate artifacts resolve via resolve_single"),
        }
    }
}

/// Build the fully-registered plan + resolver for one entry point — exactly
/// the probe registrations the cold path performs, factored out so cold
/// plans and placeholder builds share one recipe. The caller has validated
/// the query, disjunct predicates included.
fn build_artifact(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
) -> Result<(ProbePlan, Resolver), DeepDbError> {
    let qtables: BTreeSet<TableId> = query.tables.iter().copied().collect();
    let mut plan = ProbePlan::new();
    let resolver = if !disjuncts.is_empty() {
        let k = disjuncts.len();
        let mut terms = Vec::with_capacity((1usize << k) - 1);
        for mask in 1u32..(1 << k) {
            let mut sub = query.clone();
            for (i, d) in disjuncts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sub.predicates.extend(d.iter().cloned());
                }
            }
            let sign = if mask.count_ones() % 2 == 1 {
                1.0
            } else {
                -1.0
            };
            let deferred = register_count(&mut plan, ens, db, &qtables, &sub.predicates)?;
            terms.push((sign, deferred));
        }
        Resolver::Disjunction(terms)
    } else {
        match kind {
            ArtifactKind::Count => Resolver::Count(register_count(
                &mut plan,
                ens,
                db,
                &qtables,
                &query.predicates,
            )?),
            ArtifactKind::Avg(target) => Resolver::Avg(register_avg(
                &mut plan,
                ens,
                &query.tables,
                &query.predicates,
                target,
            )?),
            ArtifactKind::Sum(target) => {
                let mut count_preds = query.predicates.clone();
                count_preds.push(Predicate::new(
                    target.table,
                    target.column,
                    PredOp::IsNotNull,
                ));
                let count_nn = register_count(&mut plan, ens, db, &qtables, &count_preds)?;
                let avg = register_avg(&mut plan, ens, &query.tables, &query.predicates, target)?;
                Resolver::Sum { count_nn, avg }
            }
            ArtifactKind::AqpScalar => {
                Resolver::Scalar(register_scalar(&mut plan, ens, db, query)?)
            }
        }
    };
    Ok((plan, resolver))
}

/// A rebindable plan: the probe plan registered over placeholder literals,
/// its resolver, and the literal binds read off it. Shared via `Arc` —
/// executions clone only the [`ProbePlan`] (the derived clone preserves the
/// plan id, so the stored resolver's handles resolve against the clone's
/// results).
pub(crate) struct PlanArtifact {
    plan: ProbePlan,
    resolver: Resolver,
    /// `(flat literal position, query literal index)`, sorted by position.
    binds: Vec<(u32, u32)>,
}

/// Whether the shape's translation is value-independent: no predicate (or
/// disjunct) targets a column some member answers through an FD dictionary.
fn bindable(ens: &Ensemble, query: &Query, disjuncts: &[Vec<Predicate>]) -> bool {
    !query
        .predicates
        .iter()
        .chain(disjuncts.iter().flatten())
        .any(|p| {
            ens.rspns()
                .iter()
                .any(|r| r.fd_dictionary(p.table, p.column).is_some())
        })
}

/// The artifact of a bindable shape: a cache hit, or one build over
/// placeholder literals (inserted when the cache is enabled) whose flat
/// literal slots holding placeholder *i* become binds `(position, i)`.
/// `None` when the shape is not bindable.
fn artifact(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
) -> Result<Option<Arc<PlanArtifact>>, DeepDbError> {
    let cache = ens.plan_cache();
    let shape = cache
        .enabled()
        .then(|| artifact_shape(ens.plan_epoch(), query, kind, disjuncts));
    if let Some(CachedValue::Plan(art)) = shape.as_ref().and_then(|s| cache.lookup(s)) {
        return Ok(Some(art));
    }
    if !bindable(ens, query, disjuncts) {
        return Ok(None);
    }
    let (pq, pd, n) = placeholder_variant(query, disjuncts);
    let (plan, resolver) = build_artifact(ens, db, &pq, kind, &pd)?;
    let mut flat = Vec::new();
    plan.flat_literals(&mut flat);
    let binds = flat
        .iter()
        .enumerate()
        .filter_map(|(pos, v)| {
            let i = v.to_bits().wrapping_sub(PLACEHOLDER_BASE);
            (i < u64::from(n)).then_some((pos as u32, i as u32))
        })
        .collect();
    let art = Arc::new(PlanArtifact {
        plan,
        resolver,
        binds,
    });
    if let Some(shape) = shape {
        cache.insert(shape, CachedValue::Plan(Arc::clone(&art)));
    }
    Ok(Some(art))
}

// ---------------------------------------------------------------------------
// The LRU cache
// ---------------------------------------------------------------------------

/// Cache observability counters ([`Ensemble::plan_cache_stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached artifact.
    pub hits: u64,
    /// Lookups that found nothing (cold plans).
    pub misses: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
    /// Live entries across all tiers.
    pub entries: usize,
    /// Live pruning active sets (side table, current epoch only; see
    /// [`active_set_for`]). Not counted in `entries`/`hits`/`misses` — an
    /// active-set rebuild is one arena walk, not a cold plan.
    pub active_sets: usize,
    /// Cardinality estimates issued by the join-order enumerator
    /// (`crate::joinorder::JoinOrderer`) through prepared-query rebinding.
    /// A separate counter from `hits`/`misses`: enumerator traffic hammers
    /// a handful of shapes thousands of times, and folding it into plan
    /// hit/miss stats would drown interactive-query observability.
    pub optimizer_estimates: u64,
}

#[derive(Clone)]
pub(crate) enum CachedValue {
    Plan(Arc<PlanArtifact>),
    Template(Arc<ScalarTemplate>),
    Member(usize),
    Ml(Arc<MlPrelude>),
}

struct CacheEntry {
    value: CachedValue,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<QueryShape, CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    capacity: usize,
    /// Pruning active sets, keyed on `(member, constrained-column union)`
    /// and stamped with the plan epoch they were built under. A dedicated
    /// side table rather than `map` entries: an active set costs one
    /// O(nodes) arena walk to rebuild, so it must never evict a plan
    /// artifact (a full planning pass) under LRU pressure, and its lookups
    /// are bookkeeping, not plan hits/misses.
    /// Epoch invalidation is eager — the first access at a new epoch clears
    /// the whole table, so stale sets never survive a maintenance op.
    actives: HashMap<(usize, Vec<usize>), Arc<ActiveSet>>,
    actives_epoch: u64,
    optimizer_estimates: u64,
}

/// LRU plan cache keyed on [`QueryShape`]. Counter-based recency (a lookup
/// or insert advances a logical tick); capacity 0 disables the cache —
/// callers skip lookup, placeholder build, and insert entirely, so the cold
/// path is measured honestly.
pub(crate) struct PlanCache {
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                capacity,
                actives: HashMap::new(),
                actives_epoch: 0,
                optimizer_estimates: 0,
            }),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.inner.lock().expect("plan cache poisoned").capacity > 0
    }

    fn lookup(&self, shape: &QueryShape) -> Option<CachedValue> {
        let mut g = self.inner.lock().expect("plan cache poisoned");
        g.tick += 1;
        let tick = g.tick;
        match g.map.get_mut(shape) {
            Some(e) => {
                e.last_used = tick;
                let v = e.value.clone();
                g.hits += 1;
                Some(v)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    fn insert(&self, shape: QueryShape, value: CachedValue) {
        let mut g = self.inner.lock().expect("plan cache poisoned");
        if g.capacity == 0 {
            return;
        }
        g.tick += 1;
        let tick = g.tick;
        if g.map.len() >= g.capacity && !g.map.contains_key(&shape) {
            if let Some(victim) = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                g.map.remove(&victim);
                g.evictions += 1;
            }
        }
        g.map.insert(
            shape,
            CacheEntry {
                value,
                last_used: tick,
            },
        );
    }

    /// Cached pruning set for `(member, columns)` at `epoch`. The first
    /// access at a new epoch clears the table — every maintenance op bumps
    /// the epoch, so a changed arena can never be swept with a stale set.
    fn active_lookup(
        &self,
        epoch: u64,
        member: usize,
        columns: &[usize],
    ) -> Option<Arc<ActiveSet>> {
        let mut g = self.inner.lock().expect("plan cache poisoned");
        if g.actives_epoch != epoch {
            g.actives.clear();
            g.actives_epoch = epoch;
            return None;
        }
        g.actives.get(&(member, columns.to_vec())).cloned()
    }

    fn active_insert(&self, epoch: u64, member: usize, columns: Vec<usize>, a: Arc<ActiveSet>) {
        let mut g = self.inner.lock().expect("plan cache poisoned");
        if g.capacity == 0 {
            return;
        }
        if g.actives_epoch != epoch {
            g.actives.clear();
            g.actives_epoch = epoch;
        }
        // Bounded by the artifact capacity; past it, callers just rebuild
        // (one arena walk) instead of caching — never evict.
        if g.actives.len() < g.capacity {
            g.actives.insert((member, columns), a);
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let g = self.inner.lock().expect("plan cache poisoned");
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.map.len(),
            active_sets: g.actives.len(),
            optimizer_estimates: g.optimizer_estimates,
        }
    }

    /// Record `n` enumerator-issued cardinality estimates (see
    /// [`CacheStats::optimizer_estimates`]).
    pub(crate) fn note_optimizer_estimates(&self, n: u64) {
        let mut g = self.inner.lock().expect("plan cache poisoned");
        g.optimizer_estimates += n;
    }

    /// Resize (0 disables). Clears all entries and counters so bench lanes
    /// and tests start from a known-cold state.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut g = self.inner.lock().expect("plan cache poisoned");
        g.map.clear();
        g.tick = 0;
        g.hits = 0;
        g.misses = 0;
        g.evictions = 0;
        g.capacity = capacity;
        g.actives.clear();
        g.actives_epoch = 0;
        g.optimizer_estimates = 0;
    }
}

// ---------------------------------------------------------------------------
// Cached entry-point routing
// ---------------------------------------------------------------------------

pub(crate) enum Obtained {
    Owned(Box<Resolver>),
    Shared(Arc<PlanArtifact>),
}

impl Obtained {
    pub(crate) fn resolver(&self) -> &Resolver {
        match self {
            Obtained::Owned(r) => r,
            Obtained::Shared(a) => &a.resolver,
        }
    }
}

/// Get an executable plan for `(query, kind, disjuncts)`: a clone of the
/// shape's artifact rebound with the query's literals, hit or miss. With the
/// cache disabled — or for a non-bindable shape — the plan is built straight
/// from the real literals: the cold path. Also the per-request
/// planning step of the serving front-end ([`crate::serve`]), whose batches
/// absorb the returned plan and resolve through the returned [`Obtained`].
pub(crate) fn obtain(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
) -> Result<(ProbePlan, Obtained), DeepDbError> {
    if ens.plan_cache().enabled() {
        if let Some(art) = artifact(ens, db, query, kind, disjuncts)? {
            let mut plan = art.plan.clone();
            plan.rebind_literals(&art.binds, &collect_all_literals(query, disjuncts));
            return Ok((plan, Obtained::Shared(art)));
        }
    }
    let (plan, resolver) = build_artifact(ens, db, query, kind, disjuncts)?;
    Ok((plan, Obtained::Owned(Box::new(resolver))))
}

/// Cache-routed single-estimate entry point (`COUNT`/`AVG`/`SUM`/
/// disjunction). The caller has validated the query.
pub(crate) fn scalar_estimate(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
) -> Result<Estimate, DeepDbError> {
    let (plan, obtained) = obtain(ens, db, query, kind, disjuncts)?;
    let results = plan.execute(ens);
    obtained.resolver().resolve_single(&results)
}

/// Cache-routed `(aggregate, count)` pair for `execute_aqp`'s scalar path.
pub(crate) fn aqp_scalar(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
) -> Result<(Estimate, Estimate), DeepDbError> {
    let (plan, obtained) = obtain(ens, db, query, ArtifactKind::AqpScalar, &[])?;
    let results = plan.execute(ens);
    obtained.resolver().resolve_pair(&results)
}

/// Cache-routed [`ScalarTemplate`] for GROUP BY enumeration and the
/// count-values fallback. Keyed on shape **plus exact literal bits**:
/// templates bake translated shared-predicate literals into their base
/// queries, so only bit-identical literals may share one.
pub(crate) fn grouped_template(
    ens: &Ensemble,
    db: &Database,
    shared_q: &Query,
    group_cols: &[ColumnRef],
) -> Result<Arc<ScalarTemplate>, DeepDbError> {
    let cache = ens.plan_cache();
    if !cache.enabled() {
        return Ok(Arc::new(ScalarTemplate::prepare(
            ens, db, shared_q, group_cols,
        )?));
    }
    let shape = QueryShape {
        tag: 5,
        epoch: ens.plan_epoch(),
        tables: shared_q.tables.clone(),
        agg: agg_code(ArtifactKind::AqpScalar, shared_q),
        group_cols: group_cols.iter().map(|c| (c.table, c.column)).collect(),
        preds: pred_shapes(&shared_q.predicates),
        disjuncts: Vec::new(),
        literal_bits: collect_all_literals(shared_q, &[])
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    };
    if let Some(CachedValue::Template(t)) = cache.lookup(&shape) {
        return Ok(t);
    }
    let t = Arc::new(ScalarTemplate::prepare(ens, db, shared_q, group_cols)?);
    cache.insert(shape, CachedValue::Template(Arc::clone(&t)));
    Ok(t)
}

/// Cache-routed covering-member selection for the count-values fast path.
/// Selection depends only on coverage and predicate columns, so the key
/// carries no literals. An uncoverable shape is not cached (it re-checks and
/// falls through to the combined path each time).
pub(crate) fn covering_member(
    ens: &Ensemble,
    qtables: &BTreeSet<TableId>,
    selector_preds: &[Predicate],
) -> Option<usize> {
    let cache = ens.plan_cache();
    if !cache.enabled() {
        return best_covering_rspn(ens, qtables, selector_preds);
    }
    let shape = QueryShape {
        tag: 6,
        epoch: ens.plan_epoch(),
        tables: qtables.iter().copied().collect(),
        agg: (0, 0, 0),
        group_cols: Vec::new(),
        preds: pred_shapes(selector_preds),
        disjuncts: Vec::new(),
        literal_bits: Vec::new(),
    };
    if let Some(CachedValue::Member(i)) = cache.lookup(&shape) {
        return Some(i);
    }
    let idx = best_covering_rspn(ens, qtables, selector_preds)?;
    cache.insert(shape, CachedValue::Member(idx));
    Some(idx)
}

/// Cache-routed pruning [`ActiveSet`] for one ensemble member and one
/// constrained-column union. Building an active set is one O(nodes) arena
/// walk; production traffic repeats column *shapes*, so the walk is done
/// once per `(member, columns)` shape per plan epoch and shared via `Arc`.
/// Sets live in an epoch-stamped side table of the [`PlanCache`] (so they
/// never evict plan artifacts and their lookups don't skew plan hit/miss
/// stats): any maintenance operation (insert, delete, join-count refresh)
/// bumps the epoch, and the first access at a new epoch drops every cached
/// set, so a set is never reused for an arena it was not built from.
///
/// **Bitwise contract**: a sweep pruned by the returned set is bitwise
/// identical to the full sweep for every probe whose constrained and target
/// columns are a subset of `columns` — pruned-away nodes contribute their
/// query-independent neutral values, which are exactly what the full sweep
/// computes for them (see `deepdb_spn::ActiveSet`).
pub(crate) fn active_set_for(ens: &Ensemble, member: usize, columns: &[usize]) -> Arc<ActiveSet> {
    let cache = ens.plan_cache();
    if !cache.enabled() {
        return Arc::new(ens.rspns()[member].engine().active_set(columns));
    }
    let epoch = ens.plan_epoch();
    if let Some(a) = cache.active_lookup(epoch, member, columns) {
        return a;
    }
    let a = Arc::new(ens.rspns()[member].engine().active_set(columns));
    cache.active_insert(epoch, member, columns.to_vec(), Arc::clone(&a));
    a
}

/// Member selection + target/normalization prelude of the ML entry points.
pub(crate) struct MlPrelude {
    pub(crate) idx: usize,
    pub(crate) target_col: usize,
    /// Tuple-factor normalization columns (regression only; empty for
    /// classification).
    pub(crate) factors: Vec<usize>,
}

/// Cache-routed ML prelude: skips the member scan, target-column lookup,
/// and (for regression) the normalization-factor BFS on repeated
/// `(table, target)` prediction shapes.
pub(crate) fn ml_prelude(
    ens: &Ensemble,
    table: TableId,
    target: ColId,
    regression: bool,
) -> Result<Arc<MlPrelude>, DeepDbError> {
    let cache = ens.plan_cache();
    let shape = QueryShape {
        tag: if regression { 7 } else { 8 },
        epoch: ens.plan_epoch(),
        tables: vec![table],
        agg: (0, 0, 0),
        group_cols: vec![(table, target)],
        preds: Vec::new(),
        disjuncts: Vec::new(),
        literal_bits: Vec::new(),
    };
    if cache.enabled() {
        if let Some(CachedValue::Ml(p)) = cache.lookup(&shape) {
            return Ok(p);
        }
    }
    let idx = crate::ml::rspn_for(ens, table, target)?;
    let rspn = &ens.rspns()[idx];
    let target_col = rspn
        .data_column(table, target)
        .expect("selected to contain target");
    let factors = if regression {
        rspn.normalization_factor_cols(&BTreeSet::from([table]))
    } else {
        Vec::new()
    };
    let prelude = Arc::new(MlPrelude {
        idx,
        target_col,
        factors,
    });
    if cache.enabled() {
        cache.insert(shape, CachedValue::Ml(Arc::clone(&prelude)));
    }
    Ok(prelude)
}

// ---------------------------------------------------------------------------
// Prepared queries
// ---------------------------------------------------------------------------

/// A query prepared once, executable many times with different literals.
///
/// Created by [`Ensemble::prepare`]. The bound form holds a working
/// [`ProbePlan`] clone (with its pruning sets pinned) and pre-sized results:
/// [`PreparedQuery::execute`] rewrites the bound literal slots in place,
/// runs one fused inline sweep per touched member, and resolves — **zero
/// planning work and zero allocations** in steady state. Non-bindable
/// shapes (predicates on functional-dependency dependent columns, whose
/// translation reads the literal) fall back to cold planning per execution.
pub struct PreparedQuery {
    epoch: u64,
    n_literals: usize,
    /// The original query, kept pristine so the serving layer can
    /// re-prepare after a [`DeepDbError::StalePlan`].
    source: Query,
    inner: PreparedInner,
}

enum PreparedInner {
    Bound {
        artifact: Arc<PlanArtifact>,
        /// Pruning sets pinned at prepare time (column shapes never change
        /// across rebinds), so steady-state executions prune with zero
        /// discovery work.
        plan: ProbePlan,
        results: ProbeResults,
    },
    Fallback {
        query: Query,
        kind: ArtifactKind,
    },
}

/// Prepare `query` against the ensemble: plan, translate, and read literal
/// binds once ([`Ensemble::prepare`] delegates here).
pub(crate) fn prepare(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
) -> Result<PreparedQuery, DeepDbError> {
    query.validate(db)?;
    if !query.group_by.is_empty() {
        return Err(DeepDbError::Unsupported(
            "prepare supports scalar aggregates; GROUP BY queries go through execute_aqp".into(),
        ));
    }
    let kind = ArtifactKind::of(query.aggregate);
    let epoch = ens.plan_epoch();
    let literals = query_literals(query);
    // With the cache disabled the prepared query owns a private artifact.
    let inner = match artifact(ens, db, query, kind, &[])? {
        Some(artifact) => {
            let mut plan = artifact.plan.clone();
            plan.rebind_literals(&artifact.binds, &literals);
            plan.pin_active_sets(ens);
            let results = plan.blank_results();
            PreparedInner::Bound {
                artifact,
                plan,
                results,
            }
        }
        None => {
            // Surface planning errors now, as for a bindable shape.
            build_artifact(ens, db, query, kind, &[])?;
            PreparedInner::Fallback {
                query: query.clone(),
                kind,
            }
        }
    };
    Ok(PreparedQuery {
        epoch,
        n_literals: literals.len(),
        source: query.clone(),
        inner,
    })
}

impl PreparedQuery {
    /// Execute with fresh literals (in [`query_literals`] order; same arity
    /// as the prepared query's). Returns [`DeepDbError::StalePlan`] once the
    /// ensemble's plan epoch has advanced past the prepared one.
    pub fn execute(
        &mut self,
        ens: &Ensemble,
        db: &Database,
        literals: &[f64],
    ) -> Result<Estimate, DeepDbError> {
        if ens.plan_epoch() != self.epoch {
            return Err(DeepDbError::StalePlan);
        }
        if literals.len() != self.n_literals {
            return Err(DeepDbError::Unsupported(format!(
                "prepared query binds {} literals, got {}",
                self.n_literals,
                literals.len()
            )));
        }
        match &mut self.inner {
            PreparedInner::Bound {
                artifact,
                plan,
                results,
            } => {
                plan.rebind_literals(&artifact.binds, literals);
                plan.execute_into(ens, 1, None, None, results);
                artifact.resolver.resolve_single(results)
            }
            PreparedInner::Fallback { query, kind } => {
                rebind_query_literals(query, literals);
                let (plan, resolver) = build_artifact(ens, db, query, *kind, &[])?;
                let results = plan.execute(ens);
                resolver.resolve_single(&results)
            }
        }
    }

    /// Number of literal slots [`PreparedQuery::execute`] expects.
    pub fn n_literals(&self) -> usize {
        self.n_literals
    }

    /// Whether the shape is bindable: `true` means executions rebind a
    /// frozen artifact (zero planning work); `false` means a predicate hits
    /// an FD-dependent column and each execution plans cold.
    pub fn is_bound(&self) -> bool {
        matches!(self.inner, PreparedInner::Bound { .. })
    }

    /// Plan epoch this query was prepared under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The source query this was prepared from (literals as of prepare
    /// time) — what [`crate::serve::ServeFront::serve_prepared`] re-prepares
    /// after a [`DeepDbError::StalePlan`].
    pub fn source(&self) -> &Query {
        &self.source
    }
}
