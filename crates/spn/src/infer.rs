//! Inference: bottom-up evaluation of expectation queries and max-product
//! MPE (paper §3.1, §3.2 "Extended Inference Algorithms").
//!
//! The recursive walks here are the **reference oracle** the differential
//! tests compare against; production inference sweeps the compiled arena
//! through [`crate::WorkerPool::sweep`].

use crate::node::{Node, Spn};

/// Per-attribute moment function `g` applied inside an expectation.
///
/// `E[∏_c g_c(X_c) · 1_C]` factorizes over an SPN because every leaf holds a
/// single attribute: products multiply child expectations, sums average
/// them. The clamped inverses implement the paper's `1/F'` tuple-factor
/// normalization (Theorem 1) directly at the leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafFunc {
    /// g(x) = 1 (probability queries).
    One,
    /// g(x) = x.
    X,
    /// g(x) = x² (Koenig–Huygens variance terms).
    X2,
    /// g(x) = 1/max(x,1) (normalization by tuple factors `F'`).
    InvClamp1,
    /// g(x) = 1/max(x,1)² (variance of normalized expectations).
    InvSqClamp1,
}

/// A predicate evaluated at a leaf, in `f64` space (NaN is never matched
/// except by `IsNull`).
#[derive(Debug, Clone, PartialEq)]
pub enum LeafPred {
    /// Interval with per-side inclusivity; use ±∞ for one-sided ranges.
    Range {
        lo: f64,
        hi: f64,
        lo_incl: bool,
        hi_incl: bool,
    },
    /// Value must be one of the set.
    In(Vec<f64>),
    /// Value must be none of the set (NULL still fails — SQL `!=`).
    NotIn(Vec<f64>),
    IsNull,
    IsNotNull,
}

impl LeafPred {
    /// `x = v`.
    pub fn eq(v: f64) -> Self {
        LeafPred::In(vec![v])
    }

    /// `x ≤ v` / `x < v`.
    pub fn le(v: f64) -> Self {
        LeafPred::Range {
            lo: f64::NEG_INFINITY,
            hi: v,
            lo_incl: true,
            hi_incl: true,
        }
    }
    pub fn lt(v: f64) -> Self {
        LeafPred::Range {
            lo: f64::NEG_INFINITY,
            hi: v,
            lo_incl: true,
            hi_incl: false,
        }
    }

    /// `x ≥ v` / `x > v`.
    pub fn ge(v: f64) -> Self {
        LeafPred::Range {
            lo: v,
            hi: f64::INFINITY,
            lo_incl: true,
            hi_incl: true,
        }
    }
    pub fn gt(v: f64) -> Self {
        LeafPred::Range {
            lo: v,
            hi: f64::INFINITY,
            lo_incl: false,
            hi_incl: true,
        }
    }
}

/// Query slot for one column: an optional moment function plus a conjunction
/// of predicates.
#[derive(Debug, Clone, Default)]
pub struct Slot {
    pub func: Option<LeafFunc>,
    pub preds: Vec<LeafPred>,
}

/// An expectation query against an [`Spn`]: per-column slots. Columns
/// without slots are marginalized out.
#[derive(Debug, Clone)]
pub struct SpnQuery {
    slots: Vec<Option<Slot>>,
}

impl SpnQuery {
    pub fn new(n_cols: usize) -> Self {
        Self {
            slots: vec![None; n_cols],
        }
    }

    /// Attach a predicate to a column (conjunctive).
    pub fn with_pred(mut self, col: usize, pred: LeafPred) -> Self {
        self.add_pred(col, pred);
        self
    }

    pub fn add_pred(&mut self, col: usize, pred: LeafPred) {
        self.slots[col]
            .get_or_insert_with(Slot::default)
            .preds
            .push(pred);
    }

    /// Set the moment function of a column.
    pub fn with_func(mut self, col: usize, func: LeafFunc) -> Self {
        self.set_func(col, func);
        self
    }

    pub fn set_func(&mut self, col: usize, func: LeafFunc) {
        self.slots[col].get_or_insert_with(Slot::default).func = Some(func);
    }

    pub fn slot(&self, col: usize) -> Option<&Slot> {
        self.slots.get(col).and_then(Option::as_ref)
    }

    pub fn n_cols(&self) -> usize {
        self.slots.len()
    }

    /// Columns that carry a slot.
    pub fn active_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
    }

    /// Visit every literal `f64` of the query in a deterministic flat order:
    /// columns in index order, predicates in registration order, and within
    /// a predicate `Range` lo then hi, then `In`/`NotIn` elements in order.
    /// [`SpnQuery::for_each_literal_mut`] walks the identical sequence, so a
    /// flat index recorded by one walk addresses the same literal in the
    /// other — on the query itself or on any clone of it.
    pub fn for_each_literal(&self, mut f: impl FnMut(f64)) {
        for slot in self.slots.iter().flatten() {
            for p in &slot.preds {
                match p {
                    LeafPred::Range { lo, hi, .. } => {
                        f(*lo);
                        f(*hi);
                    }
                    LeafPred::In(vs) | LeafPred::NotIn(vs) => vs.iter().for_each(|v| f(*v)),
                    LeafPred::IsNull | LeafPred::IsNotNull => {}
                }
            }
        }
    }

    /// Mutable twin of [`SpnQuery::for_each_literal`] (same order).
    pub fn for_each_literal_mut(&mut self, mut f: impl FnMut(&mut f64)) {
        for slot in self.slots.iter_mut().flatten() {
            for p in &mut slot.preds {
                match p {
                    LeafPred::Range { lo, hi, .. } => {
                        f(lo);
                        f(hi);
                    }
                    LeafPred::In(vs) | LeafPred::NotIn(vs) => {
                        for v in vs.iter_mut() {
                            f(v);
                        }
                    }
                    LeafPred::IsNull | LeafPred::IsNotNull => {}
                }
            }
        }
    }
}

/// Bottom-up expectation evaluation.
pub(crate) fn evaluate(node: &mut Node, query: &SpnQuery) -> f64 {
    match node {
        Node::Leaf(leaf) => match query.slot(leaf.col) {
            None => 1.0,
            Some(slot) => leaf.expect(slot.func.unwrap_or(LeafFunc::One), &slot.preds),
        },
        Node::Product(p) => {
            let mut acc = 1.0;
            for child in &mut p.children {
                acc *= evaluate(child, query);
                if acc == 0.0 {
                    return 0.0;
                }
            }
            acc
        }
        Node::Sum(s) => {
            let total: u64 = s.counts.iter().sum();
            if total == 0 {
                return 0.0;
            }
            let mut acc = 0.0;
            for (child, &c) in s.children.iter_mut().zip(&s.counts) {
                if c == 0 {
                    continue;
                }
                acc += (c as f64 / total as f64) * evaluate(child, query);
            }
            acc
        }
    }
}

/// Max-product traversal: likelihood of the evidence on the most probable
/// branch, together with the mode of `target` on that branch.
///
/// This is the **reference oracle** for the compiled max-product pass
/// ([`crate::SweepJob::mpe`]); production MPE runs on the arena. The two
/// share one tie-break rule — at a sum node the **lowest-index child wins**
/// among equally scored branches (a later child must be *strictly* better to
/// replace the incumbent) — and one arithmetic order (the mixture weight
/// `c/total` is formed first, then multiplied into the child score, exactly
/// as the arena stores frozen weights), so the differential tests in
/// `tests/prop_mpe.rs` can assert bitwise equality, not approximation.
pub(crate) fn mpe(node: &mut Node, query: &SpnQuery, target: usize) -> (f64, Option<f64>) {
    match node {
        Node::Leaf(leaf) => {
            if leaf.col == target {
                (1.0, leaf.mode())
            } else {
                match query.slot(leaf.col) {
                    None => (1.0, None),
                    Some(slot) => (
                        leaf.expect(slot.func.unwrap_or(LeafFunc::One), &slot.preds),
                        None,
                    ),
                }
            }
        }
        Node::Product(p) => {
            let mut score = 1.0;
            let mut value = None;
            for child in &mut p.children {
                let (s, v) = mpe(child, query, target);
                score *= s;
                value = value.or(v);
            }
            (score, value)
        }
        Node::Sum(s) => {
            let total: u64 = s.counts.iter().sum();
            if total == 0 {
                return (0.0, None);
            }
            let mut best: Option<(f64, Option<f64>)> = None;
            for (child, &c) in s.children.iter_mut().zip(&s.counts) {
                if c == 0 {
                    continue;
                }
                let w = c as f64 / total as f64;
                let (score, v) = mpe(child, query, target);
                let weighted = w * score;
                match best {
                    Some((incumbent, _)) if weighted <= incumbent => {}
                    _ => best = Some((weighted, v)),
                }
            }
            best.unwrap_or((0.0, None))
        }
    }
}

impl Spn {
    /// Evaluate `E[∏ g_c(X_c) · 1_C]` (per-row expectation over the training
    /// distribution). Multiply by the modeled relation's row count to get
    /// totals.
    pub fn evaluate(&mut self, query: &SpnQuery) -> f64 {
        assert_eq!(query.n_cols(), self.n_columns(), "query arity mismatch");
        evaluate(&mut self.root, query)
    }

    /// Probability shorthand: evaluate with no moment functions.
    pub fn probability(&mut self, query: &SpnQuery) -> f64 {
        self.evaluate(query)
    }

    /// Most probable value of `target` given the evidence in `query`
    /// (approximate MPE via max-product), on the **recursive oracle path**.
    ///
    /// This exists for differential tests only; production classification
    /// sweeps the compiled arena ([`crate::SweepJob::mpe`]), which is
    /// `&self`, batched, and recursion-free while returning identical
    /// results.
    pub fn most_probable_value(&mut self, target: usize, query: &SpnQuery) -> Option<f64> {
        mpe(&mut self.root, query, target).1
    }

    /// Oracle twin of the compiled sweep's per-probe [`crate::MpeOutcome`]:
    /// the max-product evidence score together with the target's mode on the
    /// best branch. Differential-test use only.
    pub fn mpe_outcome(&mut self, target: usize, query: &SpnQuery) -> (f64, Option<f64>) {
        mpe(&mut self.root, query, target)
    }
}
