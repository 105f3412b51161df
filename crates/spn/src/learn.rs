//! MSPN-style structure learning (paper §3.1; Molina et al., AAAI 2018).
//!
//! Recursive scheme: single-column slices become leaves; slices smaller than
//! the minimum instance slice are naively factorized; otherwise we try a
//! column split (connected components of the pairwise-RDC graph at the given
//! threshold) and fall back to a k-means row split. Sum nodes keep their
//! cluster centroids so tuples can be routed during updates.

use crate::kmeans::kmeans_two;
use crate::leaf::Leaf;
use crate::node::{Node, ProductNode, Spn, SumNode};
use crate::rdc::{pairwise_rdc, RdcParams};
use crate::DataView;

/// Hyper-parameters of SPN learning. Defaults mirror the paper's grid-search
/// winners: RDC threshold 0.3, minimum instance slice 1 % of the input.
#[derive(Debug, Clone)]
pub struct SpnParams {
    /// Independence threshold on pairwise RDC for column splits.
    pub rdc_threshold: f64,
    /// Minimum slice as a fraction of the training rows.
    pub min_instance_ratio: f64,
    /// Rows used per pairwise RDC estimate (stride-sampled).
    pub rdc_sample_rows: usize,
    /// RDC feature map size / regularization.
    pub rdc: RdcParams,
    /// Maximum distinct values before a continuous leaf switches to bins.
    pub max_distinct_exact: usize,
    /// Bin count of binned leaves.
    pub n_bins: usize,
    /// Lloyd iterations for k-means row splits.
    pub kmeans_iters: usize,
    /// Hard recursion depth cap (safety net).
    pub max_depth: usize,
    /// Seed controlling all randomized steps (learning is deterministic).
    pub seed: u64,
}

impl Default for SpnParams {
    fn default() -> Self {
        Self {
            rdc_threshold: 0.3,
            min_instance_ratio: 0.01,
            rdc_sample_rows: 5_000,
            rdc: RdcParams::default(),
            max_distinct_exact: 700,
            n_bins: 64,
            kmeans_iters: 25,
            max_depth: 64,
            seed: 0x00DE_E9DB,
        }
    }
}

struct Ctx<'a> {
    data: DataView<'a>,
    params: &'a SpnParams,
    min_rows: usize,
}

impl Spn {
    /// Learn an SPN from column-major data (NaN = NULL).
    pub fn learn(data: DataView<'_>, params: &SpnParams) -> Spn {
        let n = data.n_rows();
        let rows: Vec<u32> = (0..n as u32).collect();
        let scope: Vec<usize> = (0..data.n_cols()).collect();
        let min_rows = ((params.min_instance_ratio * n as f64).ceil() as usize).max(2);
        let ctx = Ctx {
            data,
            params,
            min_rows,
        };
        let root = build(&ctx, &rows, &scope, params.seed, 0);
        Spn::new(root, data.meta.to_vec(), n as u64)
    }
}

fn leaf(ctx: &Ctx<'_>, rows: &[u32], col: usize) -> Node {
    Node::Leaf(Leaf::build(
        &ctx.data,
        rows,
        col,
        ctx.params.max_distinct_exact,
        ctx.params.n_bins,
    ))
}

/// Product of independent leaves — the terminal factorization.
fn naive_factorization(ctx: &Ctx<'_>, rows: &[u32], scope: &[usize]) -> Node {
    if scope.len() == 1 {
        return leaf(ctx, rows, scope[0]);
    }
    Node::Product(ProductNode {
        scope: scope.to_vec(),
        children: scope.iter().map(|&c| leaf(ctx, rows, c)).collect(),
    })
}

fn build(ctx: &Ctx<'_>, rows: &[u32], scope: &[usize], seed: u64, depth: usize) -> Node {
    if scope.len() == 1 {
        return leaf(ctx, rows, scope[0]);
    }
    if rows.len() < ctx.min_rows || depth >= ctx.params.max_depth {
        return naive_factorization(ctx, rows, scope);
    }

    // Column split: connected components of the RDC graph.
    if let Some(components) = independent_components(ctx, rows, scope) {
        let children: Vec<Node> = components
            .iter()
            .enumerate()
            .map(|(i, comp)| {
                build(
                    ctx,
                    rows,
                    comp,
                    seed.wrapping_add(0x9e37 + i as u64),
                    depth + 1,
                )
            })
            .collect();
        return Node::Product(ProductNode {
            scope: scope.to_vec(),
            children,
        });
    }

    // Row split via k-means.
    match kmeans_two(
        &ctx.data,
        rows,
        scope,
        seed ^ 0xC1C1,
        ctx.params.kmeans_iters,
    ) {
        Some(km) => {
            let counts = vec![km.clusters[0].len() as u64, km.clusters[1].len() as u64];
            let children = vec![
                build(
                    ctx,
                    &km.clusters[0],
                    scope,
                    seed.wrapping_mul(31).wrapping_add(1),
                    depth + 1,
                ),
                build(
                    ctx,
                    &km.clusters[1],
                    scope,
                    seed.wrapping_mul(31).wrapping_add(2),
                    depth + 1,
                ),
            ];
            Node::Sum(SumNode {
                scope: scope.to_vec(),
                children,
                counts,
                centroids: km.centroids.to_vec(),
                norm: km.norm,
            })
        }
        // Cannot split rows (identical points): independence is as good as it
        // gets — factorize.
        None => naive_factorization(ctx, rows, scope),
    }
}

/// Split `scope` into groups that are pairwise-independent at the RDC
/// threshold. `None` if everything is connected (no split possible).
#[allow(clippy::ptr_arg, clippy::needless_range_loop)]
fn independent_components(ctx: &Ctx<'_>, rows: &[u32], scope: &[usize]) -> Option<Vec<Vec<usize>>> {
    let cols: Vec<&[f64]> = scope.iter().map(|&c| ctx.data.cols[c].as_slice()).collect();
    let m = pairwise_rdc(&cols, rows, ctx.params.rdc_sample_rows, &ctx.params.rdc);
    let d = scope.len();

    // Union-find over scope positions.
    let mut parent: Vec<usize> = (0..d).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for i in 0..d {
        for j in (i + 1)..d {
            if m[i][j] >= ctx.params.rdc_threshold {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }

    let mut groups: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for i in 0..d {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(scope[i]);
    }
    if groups.len() <= 1 {
        return None;
    }
    let mut comps: Vec<Vec<usize>> = groups.into_values().collect();
    comps.sort_by_key(|c| c[0]); // deterministic order
    Some(comps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::mpe_one;
    use crate::{ColumnMeta, LeafFunc, LeafPred, SpnQuery};

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    /// Paper Figure 3: region/age with two clusters — old Europeans and young
    /// Asians.
    fn figure3_data(n: usize) -> (Vec<Vec<f64>>, Vec<ColumnMeta>) {
        let mut rng = lcg(42);
        let mut region = Vec::with_capacity(n);
        let mut age = Vec::with_capacity(n);
        for _ in 0..n {
            if rng() < 0.3 {
                region.push(0.0); // EUROPE
                age.push(60.0 + (rng() * 40.0).floor());
            } else {
                region.push(1.0); // ASIA
                age.push(20.0 + (rng() * 30.0).floor());
            }
        }
        (
            vec![region, age],
            vec![ColumnMeta::discrete("region"), ColumnMeta::discrete("age")],
        )
    }

    #[test]
    fn learned_spn_recovers_joint_probabilities() {
        let (cols, meta) = figure3_data(8000);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        // P(region = EUROPE) ≈ 0.3.
        let q = SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0));
        let p = spn.probability(&q);
        assert!((p - 0.3).abs() < 0.03, "P(EU) = {p}");
        // P(EU ∧ age < 30) is near zero (Europeans are 60+).
        let q = SpnQuery::new(2)
            .with_pred(0, LeafPred::eq(0.0))
            .with_pred(1, LeafPred::lt(30.0));
        let p = spn.probability(&q);
        assert!(p < 0.02, "P(EU ∧ young) = {p}");
        // P(ASIA ∧ age < 30) ≈ 0.7 · (1/3).
        let q = SpnQuery::new(2)
            .with_pred(0, LeafPred::eq(1.0))
            .with_pred(1, LeafPred::lt(30.0));
        let p = spn.probability(&q);
        assert!((p - 0.7 / 3.0).abs() < 0.05, "P(ASIA ∧ young) = {p}");
    }

    #[test]
    fn conditional_expectation_matches_ground_truth() {
        let (cols, meta) = figure3_data(8000);
        // Ground truth E[age | EU].
        let (mut s, mut k) = (0.0, 0u64);
        #[allow(clippy::needless_range_loop)]
        for i in 0..cols[0].len() {
            if cols[0][i] == 0.0 {
                s += cols[1][i];
                k += 1;
            }
        }
        let truth = s / k as f64;
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let num = spn.evaluate(
            &SpnQuery::new(2)
                .with_func(1, LeafFunc::X)
                .with_pred(0, LeafPred::eq(0.0)),
        );
        let den = spn.probability(&SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0)));
        let cond = num / den;
        assert!((cond - truth).abs() < 2.0, "E[age|EU] = {cond} vs {truth}");
    }

    #[test]
    fn independent_columns_become_product() {
        let mut rng = lcg(7);
        let n = 4000;
        let a: Vec<f64> = (0..n).map(|_| (rng() * 5.0).floor()).collect();
        let b: Vec<f64> = (0..n).map(|_| (rng() * 5.0).floor()).collect();
        let cols = vec![a, b];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        let spn = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        assert!(
            matches!(spn.root, Node::Product(_)),
            "independent columns should split at the root"
        );
    }

    #[test]
    fn marginalization_is_consistent() {
        // P(A=a) computed directly vs Σ_b P(A=a, B=b).
        let (cols, meta) = figure3_data(5000);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let direct = spn.probability(&SpnQuery::new(2).with_pred(0, LeafPred::eq(1.0)));
        let mut summed = 0.0;
        for age in 0..=110 {
            summed += spn.probability(
                &SpnQuery::new(2)
                    .with_pred(0, LeafPred::eq(1.0))
                    .with_pred(1, LeafPred::eq(age as f64)),
            );
        }
        assert!((direct - summed).abs() < 1e-9, "{direct} vs {summed}");
    }

    #[test]
    fn total_probability_is_one() {
        let (cols, meta) = figure3_data(3000);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let p = spn.probability(&SpnQuery::new(2));
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn learning_is_deterministic() {
        let (cols, meta) = figure3_data(2000);
        let data = DataView::new(&cols, &meta);
        let params = SpnParams::default();
        let mut a = Spn::learn(data, &params);
        let mut b = Spn::learn(data, &params);
        assert_eq!(a.size(), b.size());
        let q = SpnQuery::new(2).with_pred(1, LeafPred::ge(50.0));
        assert_eq!(a.probability(&q), b.probability(&q));
    }

    #[test]
    fn tiny_input_learns_without_panicking() {
        let cols = vec![vec![1.0], vec![2.0]];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        let mut spn = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        assert_eq!(spn.n_rows(), 1);
        let p = spn.probability(&SpnQuery::new(2).with_pred(0, LeafPred::eq(1.0)));
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mpe_recovers_cluster_structure() {
        let (cols, meta) = figure3_data(5000);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        // Production MPE runs on the compiled max-product path; the
        // recursive walk is kept as the oracle and must agree.
        let compiled = spn.compile();
        // Given an old customer, the most probable region is EUROPE (0).
        let q = SpnQuery::new(2).with_pred(1, LeafPred::ge(70.0));
        assert_eq!(mpe_one(&compiled, 0, &q), Some(0.0));
        assert_eq!(spn.most_probable_value(0, &q), Some(0.0));
        // Given a young customer, ASIA (1).
        let q = SpnQuery::new(2).with_pred(1, LeafPred::le(25.0));
        assert_eq!(mpe_one(&compiled, 0, &q), Some(1.0));
        assert_eq!(spn.most_probable_value(0, &q), Some(1.0));
    }
}
