//! Direct RSPN updates — paper Algorithm 1 (§5.2).
//!
//! Inserted (deleted) tuples traverse the tree: sum nodes route to the
//! nearest stored cluster centroid and adjust their weight counts, product
//! nodes fan the tuple out to every child (scope projection is implicit —
//! leaves read only their own column), and leaves adjust their value
//! histograms. The structure never changes; only weights and leaf
//! distributions do — which is exactly why a [`crate::CompiledSpn`] arena
//! can be **patched in place** instead of rebuilt:
//!
//! * the patched entry points ([`Spn::insert_patch`], [`Spn::delete_patch`],
//!   [`Spn::insert_batch`], [`Spn::delete_batch`]) walk the tree and the
//!   arena in lockstep (the arena's child order mirrors the tree's), apply
//!   identical count/histogram edits to both, and defer weight
//!   renormalization and leaf prefix rebuilds into an
//!   [`crate::arena::ArenaPatch`] committed once per call — O(depth +
//!   touched bins) per tuple, independent of model size;
//! * [`Spn::insert_batch`] routes the whole batch in **one traversal**,
//!   partitioning tuples at each sum node, so every touched sum is
//!   renormalized once per batch rather than once per tuple;
//! * deletes are **check-then-apply**: a read-only routing pass first
//!   verifies every routed sum count and leaf mass can absorb the decrement,
//!   and the delete becomes a consistent no-op along the whole path
//!   otherwise (an empty-cluster delete used to decrement the routed leaf
//!   while the sum count saturated at zero, desynchronizing the two).
//!
//! Batched and one-by-one application produce bitwise-identical models: the
//! exact integer count edits commute, leaf histogram edits land in the same
//! per-leaf order, and the deferred renormalization is a pure function of
//! the final counts.

use crate::arena::ArenaPatch;
use crate::node::{Node, Spn, SumNode};
use crate::CompiledSpn;

/// Distance of a full tuple to a sum-node centroid in that node's z-space.
fn centroid_distance(sum: &SumNode, centroid: &[f64], tuple: &[f64]) -> f64 {
    let mut d = 0.0;
    for (j, &col) in sum.scope.iter().enumerate() {
        let v = tuple[col];
        let (mean, std) = sum.norm[j];
        let z = if v.is_finite() { (v - mean) / std } else { 0.0 };
        let diff = z - centroid[j];
        d += diff * diff;
    }
    d
}

fn nearest_child(sum: &SumNode, tuple: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in sum.centroids.iter().enumerate() {
        let d = centroid_distance(sum, c, tuple);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Arena access for the lockstep walks: `None` for tree-only updates,
/// `Some` to patch a compiled arena in place alongside the tree.
type ArenaView<'a> = Option<(&'a mut CompiledSpn, &'a mut ArenaPatch)>;

/// Insert a batch of tuples below `node` in one traversal: partition at sum
/// nodes, fan out at products, apply every value at the leaves. `arena_id`
/// is `node`'s arena id when patching (child `k` of the tree node is child
/// `k` of the arena node, by construction of the flattening).
fn insert_rec(node: &mut Node, arena: &mut ArenaView<'_>, arena_id: u32, tuples: &[&[f64]]) {
    match node {
        Node::Leaf(leaf) => {
            if let Some((compiled, patch)) = arena {
                let payload = compiled.leaf_payload(arena_id);
                let arena_leaf = compiled.leaf_mut(payload);
                for t in tuples {
                    leaf.insert(t[leaf.col]);
                    arena_leaf.insert(t[leaf.col]);
                }
                patch.touch_leaf(payload);
            } else {
                for t in tuples {
                    leaf.insert(t[leaf.col]);
                }
            }
        }
        Node::Product(prod) => {
            for (k, child) in prod.children.iter_mut().enumerate() {
                let child_id = arena
                    .as_ref()
                    .map_or(0, |(compiled, _)| compiled.child_id(arena_id, k));
                insert_rec(child, arena, child_id, tuples);
            }
        }
        Node::Sum(sum) => {
            let mut groups: Vec<Vec<&[f64]>> = vec![Vec::new(); sum.children.len()];
            for t in tuples {
                groups[nearest_child(sum, t)].push(t);
            }
            if let Some((_, patch)) = arena {
                patch.touch_sum(arena_id);
            }
            for (k, group) in groups.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                sum.counts[k] += group.len() as u64;
                let child_id = if let Some((compiled, _)) = arena {
                    compiled.sum_count_delta(arena_id, k, group.len() as i64);
                    compiled.child_id(arena_id, k)
                } else {
                    0
                };
                insert_rec(&mut sum.children[k], arena, child_id, group);
            }
        }
    }
}

/// Allocation-free single-tuple insert (the per-row hot path of
/// `Ensemble::apply_insert`): identical routing and edits to a one-element
/// [`insert_rec`], minus the per-sum partition buffers.
fn insert_one_rec(node: &mut Node, arena: &mut ArenaView<'_>, arena_id: u32, tuple: &[f64]) {
    match node {
        Node::Leaf(leaf) => {
            leaf.insert(tuple[leaf.col]);
            if let Some((compiled, patch)) = arena {
                let payload = compiled.leaf_payload(arena_id);
                compiled.leaf_mut(payload).insert(tuple[leaf.col]);
                patch.touch_leaf(payload);
            }
        }
        Node::Product(prod) => {
            for (k, child) in prod.children.iter_mut().enumerate() {
                let child_id = arena
                    .as_ref()
                    .map_or(0, |(compiled, _)| compiled.child_id(arena_id, k));
                insert_one_rec(child, arena, child_id, tuple);
            }
        }
        Node::Sum(sum) => {
            let k = nearest_child(sum, tuple);
            sum.counts[k] += 1;
            let child_id = if let Some((compiled, patch)) = arena {
                compiled.sum_count_delta(arena_id, k, 1);
                patch.touch_sum(arena_id);
                compiled.child_id(arena_id, k)
            } else {
                0
            };
            insert_one_rec(&mut sum.children[k], arena, child_id, tuple);
        }
    }
}

/// Read-only routing pass of the check-then-apply delete protocol: `true`
/// iff removing `tuple` succeeds at every routed sum edge and leaf. Routing
/// depends only on the (immutable) centroids, so the subsequent apply pass
/// takes exactly the same path.
fn can_delete(node: &Node, tuple: &[f64]) -> bool {
    match node {
        Node::Leaf(leaf) => leaf.can_remove(tuple[leaf.col]),
        Node::Sum(sum) => {
            let child = nearest_child(sum, tuple);
            sum.counts[child] > 0 && can_delete(&sum.children[child], tuple)
        }
        Node::Product(prod) => prod.children.iter().all(|c| can_delete(c, tuple)),
    }
}

/// Apply one validated delete along the routed path (tree + optional arena).
fn delete_rec(node: &mut Node, arena: &mut ArenaView<'_>, arena_id: u32, tuple: &[f64]) {
    match node {
        Node::Leaf(leaf) => {
            let removed = leaf.remove(tuple[leaf.col]);
            debug_assert!(removed, "delete validated by can_delete");
            if let Some((compiled, patch)) = arena {
                let payload = compiled.leaf_payload(arena_id);
                compiled.leaf_mut(payload).remove(tuple[leaf.col]);
                patch.touch_leaf(payload);
            }
        }
        Node::Sum(sum) => {
            let k = nearest_child(sum, tuple);
            sum.counts[k] -= 1;
            let child_id = if let Some((compiled, patch)) = arena {
                compiled.sum_count_delta(arena_id, k, -1);
                patch.touch_sum(arena_id);
                compiled.child_id(arena_id, k)
            } else {
                0
            };
            delete_rec(&mut sum.children[k], arena, child_id, tuple);
        }
        Node::Product(prod) => {
            for (k, child) in prod.children.iter_mut().enumerate() {
                let child_id = arena
                    .as_ref()
                    .map_or(0, |(compiled, _)| compiled.child_id(arena_id, k));
                delete_rec(child, arena, child_id, tuple);
            }
        }
    }
}

impl Spn {
    fn check_tuple(&self, tuple: &[f64]) {
        assert_eq!(tuple.len(), self.n_columns(), "tuple arity mismatch");
    }

    fn check_arena(&self, arena: &CompiledSpn) {
        assert_eq!(
            arena.n_columns(),
            self.n_columns(),
            "arena does not belong to this SPN"
        );
        assert_eq!(
            arena.n_rows(),
            self.n_rows(),
            "arena out of sync with the tree; recompile before patching"
        );
    }

    fn root_id(arena: &CompiledSpn) -> u32 {
        arena.n_nodes() as u32 - 1
    }

    /// Insert one tuple (full row over all columns, NaN = NULL) into the
    /// tree only. Any previously compiled arena goes stale — prefer
    /// [`Spn::insert_patch`] when one is live.
    pub fn insert(&mut self, tuple: &[f64]) {
        self.check_tuple(tuple);
        insert_one_rec(&mut self.root, &mut None, 0, tuple);
        self.n_rows += 1;
    }

    /// Delete one tuple from the tree only (routed like an insert; weights
    /// decrease). Returns `false` — leaving the model untouched — if the
    /// routed path cannot absorb the delete (empty cluster or absent value).
    pub fn delete(&mut self, tuple: &[f64]) -> bool {
        self.check_tuple(tuple);
        if !can_delete(&self.root, tuple) {
            return false;
        }
        delete_rec(&mut self.root, &mut None, 0, tuple);
        self.n_rows -= 1;
        true
    }

    /// Update = delete the old tuple, insert the new one. The insert is
    /// skipped (and `false` returned) when the old tuple is not present.
    pub fn update(&mut self, old: &[f64], new: &[f64]) -> bool {
        if !self.delete(old) {
            return false;
        }
        self.insert(new);
        true
    }

    /// Insert one tuple into the tree **and** patch `arena` in place:
    /// O(depth + touched bins), no recompilation, no allocation on the
    /// routed walk, bitwise identical to a full recompile of the updated
    /// tree.
    pub fn insert_patch(&mut self, arena: &mut CompiledSpn, tuple: &[f64]) {
        self.check_tuple(tuple);
        self.check_arena(arena);
        let root_id = Self::root_id(arena);
        let mut patch = ArenaPatch::default();
        let mut view = Some((&mut *arena, &mut patch));
        insert_one_rec(&mut self.root, &mut view, root_id, tuple);
        self.n_rows += 1;
        arena.commit_patch(patch, self.n_rows);
    }

    /// Batched in-place insert: routes all `tuples` in one traversal
    /// (partitioning them at each sum node) and folds the arena deltas per
    /// node — one weight renormalization per touched sum and one prefix
    /// rebuild per touched leaf for the whole batch.
    pub fn insert_batch<R: AsRef<[f64]>>(&mut self, arena: &mut CompiledSpn, tuples: &[R]) {
        if let [tuple] = tuples {
            // Partition buffers are pure overhead for a batch of one.
            return self.insert_patch(arena, tuple.as_ref());
        }
        let tuples: Vec<&[f64]> = tuples.iter().map(AsRef::as_ref).collect();
        for t in &tuples {
            self.check_tuple(t);
        }
        self.check_arena(arena);
        if tuples.is_empty() {
            return;
        }
        let root_id = Self::root_id(arena);
        let mut patch = ArenaPatch::default();
        let mut view = Some((&mut *arena, &mut patch));
        insert_rec(&mut self.root, &mut view, root_id, &tuples);
        self.n_rows += tuples.len() as u64;
        arena.commit_patch(patch, self.n_rows);
    }

    /// Delete one tuple from the tree **and** patch `arena` in place.
    /// Returns `false` (a consistent no-op on both representations) if the
    /// routed path cannot absorb the delete.
    pub fn delete_patch(&mut self, arena: &mut CompiledSpn, tuple: &[f64]) -> bool {
        self.delete_batch(arena, &[tuple]) == 1
    }

    /// Batched in-place delete; returns how many tuples were actually
    /// removed. Deletes are validated (and applied) tuple by tuple so the
    /// all-or-nothing path consistency holds even when tuples within the
    /// batch compete for the same leaf mass, but the arena finalization
    /// (renormalization, prefix rebuilds) is still folded to once per
    /// touched node per batch.
    pub fn delete_batch<R: AsRef<[f64]>>(
        &mut self,
        arena: &mut CompiledSpn,
        tuples: &[R],
    ) -> usize {
        let tuples: Vec<&[f64]> = tuples.iter().map(AsRef::as_ref).collect();
        for t in &tuples {
            self.check_tuple(t);
        }
        self.check_arena(arena);
        let root_id = Self::root_id(arena);
        let mut patch = ArenaPatch::default();
        let mut applied = 0usize;
        for t in &tuples {
            if !can_delete(&self.root, t) {
                continue;
            }
            let mut view = Some((&mut *arena, &mut patch));
            delete_rec(&mut self.root, &mut view, root_id, t);
            applied += 1;
        }
        self.n_rows -= applied as u64;
        arena.commit_patch(patch, self.n_rows);
        applied
    }
}

#[cfg(test)]
mod tests {
    use crate::pool::tests::expect_one;
    use crate::{ColumnMeta, DataView, LeafPred, Spn, SpnParams, SpnQuery};

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    fn clustered_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<ColumnMeta>) {
        let mut rng = lcg(seed);
        let mut region = Vec::new();
        let mut age = Vec::new();
        for _ in 0..n {
            if rng() < 0.3 {
                region.push(0.0);
                age.push(60.0 + (rng() * 40.0).floor());
            } else {
                region.push(1.0);
                age.push(20.0 + (rng() * 30.0).floor());
            }
        }
        (
            vec![region, age],
            vec![ColumnMeta::discrete("region"), ColumnMeta::discrete("age")],
        )
    }

    #[test]
    fn inserts_shift_probabilities_toward_new_distribution() {
        let (cols, meta) = clustered_data(4000, 1);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let q = SpnQuery::new(2)
            .with_pred(0, LeafPred::eq(0.0))
            .with_pred(1, LeafPred::lt(30.0));
        let before = spn.probability(&q);
        assert!(before < 0.02);
        // Insert 2000 young Europeans — the paper's motivating update case.
        for i in 0..2000 {
            spn.insert(&[0.0, 20.0 + (i % 10) as f64]);
        }
        let after = spn.probability(&q);
        // True share is 2000/6000 ≈ 0.33.
        assert!(after > 0.2, "P(EU ∧ young) after inserts = {after}");
        assert_eq!(spn.n_rows(), 6000);
    }

    #[test]
    fn insert_then_delete_restores_probabilities() {
        let (cols, meta) = clustered_data(3000, 5);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let q = SpnQuery::new(2).with_pred(1, LeafPred::ge(60.0));
        let before = spn.probability(&q);
        let tuples: Vec<[f64; 2]> = (0..500).map(|i| [1.0, 90.0 + (i % 5) as f64]).collect();
        for t in &tuples {
            spn.insert(t);
        }
        assert!(spn.probability(&q) > before);
        for t in &tuples {
            spn.delete(t);
        }
        let after = spn.probability(&q);
        assert!((before - after).abs() < 1e-9, "{before} vs {after}");
        assert_eq!(spn.n_rows(), 3000);
    }

    #[test]
    fn update_moves_mass_between_values() {
        let (cols, meta) = clustered_data(2000, 9);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let p_eu_before = spn.probability(&SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0)));
        spn.update(&[0.0, 70.0], &[1.0, 25.0]);
        let p_eu_after = spn.probability(&SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0)));
        assert!(p_eu_after < p_eu_before);
        assert_eq!(spn.n_rows(), 2000);
    }

    #[test]
    fn null_tuples_update_null_mass() {
        let cols = vec![vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 1.0, 2.0, f64::NAN]];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        let mut spn = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        let q = SpnQuery::new(2).with_pred(1, LeafPred::IsNull);
        let before = spn.probability(&q);
        spn.insert(&[5.0, f64::NAN]);
        let after = spn.probability(&q);
        assert!(after > before, "{after} <= {before}");
    }

    /// Regression: deleting a tuple the model does not hold used to
    /// `saturating_sub` the routed sum count (stuck at zero) while still
    /// draining the routed leaf's histogram — leaving sum counts and leaf
    /// totals inconsistent. Deletes are now all-or-nothing along the path.
    #[test]
    fn absent_tuple_delete_is_a_consistent_noop() {
        let (cols, meta) = clustered_data(1500, 3);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        assert_eq!(spn.consistency_error(), None, "clean after learning");
        let q = SpnQuery::new(2).with_pred(1, LeafPred::ge(60.0));
        let before = spn.probability(&q);

        // Age 250 exists in no cluster: the delete must refuse entirely.
        assert!(!spn.delete(&[0.0, 250.0]));
        assert_eq!(spn.n_rows(), 1500);
        assert_eq!(spn.consistency_error(), None);
        assert_eq!(spn.probability(&q).to_bits(), before.to_bits());

        // An update whose old tuple is absent refuses too (no blind insert).
        assert!(!spn.update(&[1.0, 250.0], &[1.0, 25.0]));
        assert_eq!(spn.n_rows(), 1500);
        assert_eq!(spn.consistency_error(), None);
    }

    #[test]
    fn patched_arena_tracks_insert_and_delete() {
        let (cols, meta) = clustered_data(2500, 7);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let mut arena = spn.compile();
        let q = SpnQuery::new(2)
            .with_pred(0, LeafPred::eq(0.0))
            .with_pred(1, LeafPred::lt(30.0));

        for i in 0..800 {
            spn.insert_patch(&mut arena, &[0.0, 20.0 + (i % 10) as f64]);
        }
        // The arena answered without any recompilation…
        assert!(expect_one(&arena, &q) > 0.1);
        // …and matches a from-scratch compile bit for bit.
        assert!(arena.bitwise_eq(&spn.compile()));

        let removed = spn.delete_batch(
            &mut arena,
            &(0..800)
                .map(|i| [0.0, 20.0 + (i % 10) as f64])
                .collect::<Vec<_>>(),
        );
        assert_eq!(removed, 800);
        assert_eq!(arena.n_rows(), 2500);
        assert!(arena.bitwise_eq(&spn.compile()));
        assert_eq!(spn.consistency_error(), None);
    }

    /// The arena's neutral (empty-query) tables must track in-place
    /// patches: a weight-moving patch triggers a rebuild, so a pruned
    /// sweep's seeded boundary can never read pre-update values. Poisoning
    /// the cached root entries first makes the refresh observable even when
    /// the genuine neutral values happen not to move bitwise.
    #[test]
    fn neutral_tables_refresh_after_in_place_patches() {
        let (cols, meta) = clustered_data(2000, 11);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let mut arena = spn.compile();

        let root = arena.neutral_expect.len() - 1;
        arena.neutral_expect[root] = -123.0;
        arena.neutral_mpe[root] = -123.0;

        for i in 0..200 {
            spn.insert_patch(&mut arena, &[0.0, 20.0 + (i % 10) as f64]);
        }
        let empty = SpnQuery::new(2);
        assert_eq!(
            arena.neutral_expect[root].to_bits(),
            expect_one(&arena, &empty).to_bits(),
            "neutral root must be rebuilt to the empty-query sweep value"
        );
        assert!(
            arena.bitwise_eq(&spn.compile()),
            "patched arena (neutral tables included) must match a recompile"
        );
    }
}
