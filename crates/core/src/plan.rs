//! Deferred probe plans: collect every SPN probe of a SQL query first, then
//! sweep each touched RSPN member exactly once.
//!
//! Probabilistic query compilation (paper §4) answers one SQL query with
//! many independent expectation probes — count fractions, probability
//! factors, squared moments, one numerator/denominator pair per AVG, and one
//! probe bundle per GROUP BY group. Classification (paper §4.3) adds a
//! second probe kind: **max-product MPE probes**, answered by the same arena
//! in the (max, ×) semiring. Issuing probes eagerly costs one arena pass per
//! call site; a [`ProbePlan`] inverts control instead:
//!
//! 1. **register** — call sites enqueue [`SpnQuery`] expectation probes
//!    ([`ProbePlan::register`]) and MPE probes ([`ProbePlan::register_mpe`])
//!    against an ensemble member index and hold on to the returned typed
//!    handles (plain indices; no borrow of the ensemble is kept);
//! 2. **fuse** — the plan groups probes by member, preserving registration
//!    order within each member and probe kind;
//! 3. **sweep** — [`ProbePlan::execute_into`] (and its allocating wrapper
//!    [`ProbePlan::execute`]) runs **one fused sweep per touched member**
//!    covering both probe kinds, as one [`SweepJob`] per member handed to
//!    the ensemble's [`deepdb_spn::WorkerPool::sweep`]. Small plans and
//!    prepared queries sweep inline on the calling thread; larger plans
//!    load-balance the tiles of all members across the pool's persistent
//!    workers, which keep pinned scratch, claim tiles off an atomic cursor,
//!    and park between plans. Results are bitwise identical for any thread
//!    count;
//! 4. **resolve** — handles index into the returned [`ProbeResults`]
//!    ([`ProbeResults::value`] for expectations, [`ProbeResults::mpe_value`]
//!    / [`ProbeResults::mpe_outcome`] for MPE probes).
//!
//! The per-query probe *count* is unchanged by planning; what drops is the
//! number of arena passes (one per touched member) and the wall-clock on
//! multi-member / multi-group / batched-prediction workloads, which now
//! scale across cores.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepdb_spn::{
    ActiveSet, CancelFlag, MpeOutcome, MpeProbe, SpnQuery, SweepJob, TileFaultFn, SWEEP_TILE,
};

use crate::ensemble::Ensemble;

/// Process-unique plan ids so a handle can never silently read another
/// plan's results.
static PLAN_IDS: AtomicU64 = AtomicU64::new(0);

/// Ticket for one registered expectation probe; redeem against the
/// [`ProbeResults`] of the plan that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHandle {
    /// Plan that issued the handle (cross-plan lookups panic).
    plan: u64,
    /// Ensemble member (RSPN index) the probe runs against.
    member: usize,
    /// Position within that member's expectation-probe batch.
    slot: usize,
}

impl ProbeHandle {
    /// Ensemble member this probe targets.
    pub fn member(&self) -> usize {
        self.member
    }
}

/// Ticket for one registered max-product (MPE) probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpeHandle {
    plan: u64,
    member: usize,
    /// Position within that member's MPE-probe batch.
    slot: usize,
}

impl MpeHandle {
    /// Ensemble member this probe targets.
    pub fn member(&self) -> usize {
        self.member
    }
}

/// One member's deferred probes, both kinds, in registration order.
#[derive(Debug, Clone)]
struct MemberProbes {
    member: usize,
    expect: Vec<SpnQuery>,
    mpe: Vec<MpeProbe>,
}

impl MemberProbes {
    /// Union of the SPN columns any probe in this batch constrains or
    /// targets, sorted ascending — the column set a pruned sweep of this
    /// member must keep active. Literal-independent: rebinding a plan's
    /// literals never changes which columns carry slots, so the set (and any
    /// [`ActiveSet`] derived from it) is valid across rebinds of the same
    /// shape.
    fn constrained_columns(&self) -> Vec<usize> {
        let mut cols = std::collections::BTreeSet::new();
        for q in &self.expect {
            cols.extend(q.active_columns());
        }
        for p in &self.mpe {
            cols.extend(p.query.active_columns());
            // The target leaf must stay active so the max-product aux
            // tracking sees it; pruned subtrees then never hold the target.
            cols.insert(p.target);
        }
        cols.into_iter().collect()
    }
}

/// A batch of deferred probes, grouped by RSPN member.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    id: u64,
    /// Per-member batches in first-registration order of the member.
    members: Vec<MemberProbes>,
    /// One pruning set per member, in member order, pinned by
    /// [`ProbePlan::pin_active_sets`]; empty = look them up per execution.
    actives: Vec<Arc<ActiveSet>>,
}

impl Default for ProbePlan {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbePlan {
    pub fn new() -> Self {
        Self {
            id: PLAN_IDS.fetch_add(1, Ordering::Relaxed),
            members: Vec::new(),
            actives: Vec::new(),
        }
    }

    /// The probe batch of `member`, created on first use. New probes may
    /// widen a member's column union, so any pinned pruning sets go.
    fn member_entry(&mut self, member: usize) -> &mut MemberProbes {
        self.actives.clear();
        match self.members.iter().position(|m| m.member == member) {
            Some(i) => &mut self.members[i],
            None => {
                self.members.push(MemberProbes {
                    member,
                    expect: Vec::new(),
                    mpe: Vec::new(),
                });
                self.members.last_mut().expect("just pushed")
            }
        }
    }

    /// Enqueue one expectation probe against ensemble member `member`; the
    /// handle resolves to its value after [`ProbePlan::execute`].
    pub fn register(&mut self, member: usize, probe: SpnQuery) -> ProbeHandle {
        let plan = self.id;
        let entry = self.member_entry(member);
        entry.expect.push(probe);
        ProbeHandle {
            plan,
            member,
            slot: entry.expect.len() - 1,
        }
    }

    /// Enqueue one max-product probe (most probable value of SPN column
    /// `target` given the evidence in `probe`) against member `member`. The
    /// probe rides the **same fused sweep** as the member's expectation
    /// probes — a classification batch costs no extra arena passes.
    pub fn register_mpe(&mut self, member: usize, target: usize, probe: SpnQuery) -> MpeHandle {
        let plan = self.id;
        let entry = self.member_entry(member);
        entry.mpe.push(MpeProbe::new(target, probe));
        MpeHandle {
            plan,
            member,
            slot: entry.mpe.len() - 1,
        }
    }

    /// Total probes registered so far (both kinds).
    pub fn n_probes(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.expect.len() + m.mpe.len())
            .sum()
    }

    /// Distinct ensemble members the plan touches.
    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// Member indices the plan touches, in first-registration order —
    /// accounting for tests/benches that assert how a query's probes (e.g.
    /// all steps of a Case-3 combine plan) fan out across the ensemble.
    pub fn members(&self) -> Vec<usize> {
        self.members.iter().map(|m| m.member).collect()
    }

    /// Probes registered against one member (both kinds) — 0 if the plan
    /// does not touch it.
    pub fn probes_for_member(&self, member: usize) -> usize {
        self.members
            .iter()
            .find(|m| m.member == member)
            .map_or(0, |m| m.expect.len() + m.mpe.len())
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Execute the plan into fresh results: [`ProbePlan::execute_into`]
    /// over the ensemble's probe-thread budget, without hooks.
    pub fn execute(&self, ens: &Ensemble) -> ProbeResults {
        let mut results = self.blank_results();
        self.execute_into(ens, 0, None, None, &mut results);
        results
    }

    /// The plan runner: one fused arena sweep per touched member, written
    /// into `results` (from [`ProbePlan::blank_results`]; reusable across
    /// executions of the same plan, which then allocate nothing).
    ///
    /// `threads` caps the sweep threads (`0` = the ensemble's budget);
    /// `threads <= 1`, and any plan of at most one tile's worth of probes,
    /// sweeps inline on the calling thread. Results are identical either
    /// way. `cancel` is checked at every tile claim (deadline enforcement —
    /// a cancelled execution's outputs are garbage, so the caller must
    /// check the flag before trusting them) and `fault` fires at every tile
    /// start (chaos testing).
    ///
    /// Query-scoped pruning: each member sweeps only the sub-DAG whose scope
    /// intersects its batch's constrained/target columns, seeding the
    /// boundary from the arena's neutral tables (bitwise identical to the
    /// full sweep). The sets are the ones a prepared query pinned on the
    /// plan, else come from the plan cache's shape-keyed side table; with
    /// the cache disabled the cold path stays honest and sweeps in full.
    pub fn execute_into(
        &self,
        ens: &Ensemble,
        threads: usize,
        cancel: Option<&CancelFlag>,
        fault: Option<&TileFaultFn<'_>>,
        results: &mut ProbeResults,
    ) {
        assert_eq!(results.plan, self.id, "results belong to a different plan");
        // Waking workers is only worth it once there is more than one
        // tile's worth of work — tiny plans (scalar COUNT/AVG/SUM bundles,
        // single predictions, even across several members) run inline.
        let threads = match threads {
            _ if self.n_probes() <= SWEEP_TILE => 1,
            0 => ens.probe_thread_budget(),
            t => t,
        };
        let looked_up: Vec<Arc<ActiveSet>>;
        let actives: &[Arc<ActiveSet>] = if !self.actives.is_empty() {
            &self.actives
        } else if ens.plan_cache().enabled() {
            looked_up = self.looked_up_active_sets(ens);
            &looked_up
        } else {
            &[]
        };
        let jobs = self.members.iter().zip(&mut results.members).enumerate();
        let jobs = jobs.map(|(i, (m, r))| SweepJob {
            spn: ens.rspns()[m.member].engine(),
            queries: &m.expect,
            out: &mut r.values,
            mpe: &m.mpe,
            mpe_out: &mut r.mpe,
            cancel,
            fault,
            active: actives.get(i).map(|a| &**a),
            scalar: false,
        });
        ens.worker_pool().sweep(jobs, threads);
    }

    /// One cache-routed pruning set per member, in member order.
    fn looked_up_active_sets(&self, ens: &Ensemble) -> Vec<Arc<ActiveSet>> {
        self.members
            .iter()
            .map(|m| crate::cache::active_set_for(ens, m.member, &m.constrained_columns()))
            .collect()
    }

    /// Pin one pruning set per member for every later execution — done once
    /// at prepare time, since rebinding literals never changes which columns
    /// a plan constrains. Registering further probes unpins.
    pub(crate) fn pin_active_sets(&mut self, ens: &Ensemble) {
        self.actives = self.looked_up_active_sets(ens);
    }

    /// Cross-query fusion: append every probe of `other` into this plan's
    /// per-member batches, returning a [`PlanStitch`] that records where
    /// each of `other`'s per-member slices landed. After executing `self`
    /// once (one fused sweep per touched member covering *all* absorbed
    /// clients), [`ProbeResults::extract`] demuxes a per-client
    /// `ProbeResults` whose plan id is `other.id` — so handles and
    /// resolvers issued against `other` resolve against it unchanged.
    ///
    /// Registration order within each member is preserved per client, and
    /// a probe's value depends only on its own `SpnQuery` and the semiring
    /// sweep (never on batch-mates), so the fused values are bitwise
    /// identical to executing `other` alone.
    pub(crate) fn absorb(&mut self, other: &ProbePlan) -> PlanStitch {
        let mut parts = Vec::with_capacity(other.members.len());
        for m in &other.members {
            let entry = self.member_entry(m.member);
            parts.push(StitchPart {
                member: m.member,
                expect_off: entry.expect.len(),
                expect_len: m.expect.len(),
                mpe_off: entry.mpe.len(),
                mpe_len: m.mpe.len(),
            });
            entry.expect.extend(m.expect.iter().cloned());
            entry.mpe.extend(m.mpe.iter().cloned());
        }
        PlanStitch {
            plan: other.id,
            parts,
        }
    }

    /// Append every literal of every expectation probe to `out`, in the
    /// canonical flat order: members in first-registration order, probes in
    /// registration order, literals in [`SpnQuery::for_each_literal`] order.
    pub(crate) fn flat_literals(&self, out: &mut Vec<f64>) {
        for m in &self.members {
            for q in &m.expect {
                q.for_each_literal(|v| out.push(v));
            }
        }
    }

    /// Overwrite bound literal slots in place: `binds` maps flat literal
    /// positions (the [`ProbePlan::flat_literals`] order) to indices into
    /// `literals`, sorted ascending by position. Unbound positions (plan
    /// constants: ±∞ range endpoints, join-indicator values, translated
    /// representatives) are left untouched. Allocation-free.
    pub(crate) fn rebind_literals(&mut self, binds: &[(u32, u32)], literals: &[f64]) {
        let mut next = 0usize;
        let mut pos = 0u32;
        for m in &mut self.members {
            for q in &mut m.expect {
                q.for_each_literal_mut(|slot| {
                    if next < binds.len() && binds[next].0 == pos {
                        *slot = literals[binds[next].1 as usize];
                        next += 1;
                    }
                    pos += 1;
                });
            }
        }
        debug_assert_eq!(next, binds.len(), "bind positions out of range");
    }

    /// A pre-sized result holder for [`ProbePlan::execute_into`] — allocate
    /// once, reuse for every execution of this plan.
    pub fn blank_results(&self) -> ProbeResults {
        ProbeResults {
            plan: self.id,
            members: self
                .members
                .iter()
                .map(|m| MemberResults {
                    member: m.member,
                    values: vec![0.0; m.expect.len()],
                    mpe: vec![MpeOutcome::default(); m.mpe.len()],
                })
                .collect(),
        }
    }
}

/// One absorbed client's footprint inside one member batch of a fused
/// serving plan.
#[derive(Debug, Clone)]
struct StitchPart {
    member: usize,
    expect_off: usize,
    expect_len: usize,
    mpe_off: usize,
    mpe_len: usize,
}

/// Where one absorbed client plan's probes landed inside a fused serving
/// plan — the demux map consumed by [`ProbeResults::extract`].
#[derive(Debug, Clone)]
pub(crate) struct PlanStitch {
    /// Id of the absorbed (client) plan; extracted results carry it.
    plan: u64,
    parts: Vec<StitchPart>,
}

#[derive(Debug, Clone)]
struct MemberResults {
    member: usize,
    values: Vec<f64>,
    mpe: Vec<MpeOutcome>,
}

/// Resolved probe values, indexed by [`ProbeHandle`] / [`MpeHandle`].
#[derive(Debug, Clone)]
pub struct ProbeResults {
    plan: u64,
    members: Vec<MemberResults>,
}

impl ProbeResults {
    /// Value of a registered expectation probe. Panics if the handle was
    /// issued by a different plan.
    pub fn value(&self, h: ProbeHandle) -> f64 {
        *self.lookup(h)
    }

    /// Most probable value resolved by a registered MPE probe (`None` when
    /// the model holds no leaf for the target, or that leaf is empty).
    pub fn mpe_value(&self, h: MpeHandle) -> Option<f64> {
        self.mpe_outcome(h).value
    }

    /// Full outcome (max-product evidence score + value) of an MPE probe.
    pub fn mpe_outcome(&self, h: MpeHandle) -> MpeOutcome {
        assert_eq!(
            h.plan, self.plan,
            "MPE handle {h:?} was issued by a different plan"
        );
        self.members
            .iter()
            .find(|m| m.member == h.member)
            .and_then(|m| m.mpe.get(h.slot))
            .copied()
            .unwrap_or_else(|| panic!("MPE handle {h:?} does not belong to these results"))
    }

    /// Demux one absorbed client's slice of a fused serving sweep back into
    /// a standalone `ProbeResults` carrying the client plan's id — the
    /// client's own handles and resolvers index it directly.
    pub(crate) fn extract(&self, stitch: &PlanStitch) -> ProbeResults {
        let members = stitch
            .parts
            .iter()
            .map(|p| {
                let m = self
                    .members
                    .iter()
                    .find(|m| m.member == p.member)
                    .expect("stitch member missing from fused results");
                MemberResults {
                    member: p.member,
                    values: m.values[p.expect_off..p.expect_off + p.expect_len].to_vec(),
                    mpe: m.mpe[p.mpe_off..p.mpe_off + p.mpe_len].to_vec(),
                }
            })
            .collect();
        ProbeResults {
            plan: stitch.plan,
            members,
        }
    }

    fn lookup(&self, h: ProbeHandle) -> &f64 {
        assert_eq!(
            h.plan, self.plan,
            "probe handle {h:?} was issued by a different plan"
        );
        self.members
            .iter()
            .find(|m| m.member == h.member)
            .and_then(|m| m.values.get(h.slot))
            .unwrap_or_else(|| panic!("probe handle {h:?} does not belong to these results"))
    }
}

impl std::ops::Index<ProbeHandle> for ProbeResults {
    type Output = f64;

    fn index(&self, h: ProbeHandle) -> &f64 {
        self.lookup(h)
    }
}
