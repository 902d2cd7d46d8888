//! HDBSCAN — the paper-pipeline clusterer, implemented from the original
//! algorithm (Campello, Moulavi & Sander), not a heuristic approximation:
//!
//! 1. **core distances** — distance to the `min_pts`-th nearest neighbor,
//!    from one exact pass over all point pairs (O(n²), like step 3);
//! 2. **mutual reachability** — `max(core(a), core(b), d(a, b))`;
//! 3. **minimum spanning tree** over the mutual-reachability graph
//!    (Prim's algorithm, O(n²) — the pipeline deduplicates posts first, so
//!    n is the number of *distinct* documents);
//! 4. **single-linkage dendrogram** from the sorted MST edges;
//! 5. **condensed tree** — splits that shed fewer than `min_cluster_size`
//!    points are "fall-outs", not new clusters;
//! 6. **excess-of-mass selection** — keep the set of condensed clusters
//!    maximizing total stability `Σ (λ_exit − λ_birth)`.
//!
//! This multi-scale extraction is what lets the scam-post pipeline find 80+
//! topic families of wildly different sizes and densities without a global
//! radius parameter — exactly why the paper used HDBSCAN over DBSCAN (see
//! the ablation bench).

use super::kdtree::dist;
use super::ClusterLabel;

/// Run HDBSCAN with `min_pts` as both the density parameter (core
/// distances) and the minimum cluster size.
///
/// The density parameter is clamped to at least 1 (a core distance is the
/// distance to the nearest *other* point or further) and the minimum
/// cluster size to at least 2, so `min_pts` 0 behaves as 1.
pub fn hdbscan(points: &[Vec<f32>], min_pts: usize) -> Vec<ClusterLabel> {
    let n = points.len();
    let min_size = min_pts.max(2);
    if n == 0 {
        return Vec::new();
    }
    if n <= min_size {
        return vec![ClusterLabel::Noise; n];
    }
    let core = core_distances(points, min_pts.max(1));
    let edges = mst_edges(points, &core);
    extract(&edges, n, min_size)
}

/// Each point's distance to its `k`-th nearest other point (`k >= 1`), or
/// `f64::INFINITY` when fewer than `k` other points exist.
///
/// One pass over the point pairs keeps each point's `k` smallest distances,
/// ascending. [`dist`] is symmetric bit for bit, so each pair is measured
/// once for both of its points. A kd-tree would not help: at the
/// pipeline's 48 reduced dimensions it prunes next to nothing.
fn core_distances(points: &[Vec<f32>], k: usize) -> Vec<f64> {
    let n = points.len();
    let mut nearest = vec![f64::INFINITY; n * k];
    for i in 0..n {
        for j in i + 1..n {
            let d = dist(&points[i], &points[j]);
            keep_smallest(&mut nearest[i * k..(i + 1) * k], d);
            keep_smallest(&mut nearest[j * k..(j + 1) * k], d);
        }
    }
    nearest.chunks_exact(k).map(|ks| ks[k - 1]).collect()
}

/// Insert `d` into the ascending `ks` if it is below the largest entry,
/// dropping that entry.
fn keep_smallest(ks: &mut [f64], d: f64) {
    let mut at = ks.len() - 1;
    if d < ks[at] {
        while at > 0 && ks[at - 1] > d {
            ks[at] = ks[at - 1];
            at -= 1;
        }
        ks[at] = d;
    }
}

/// Prim's MST over the implicit complete mutual-reachability graph.
fn mst_edges(points: &[Vec<f32>], core: &[f64]) -> Vec<(f64, usize, usize)> {
    let n = points.len();
    let mreach = |a: usize, b: usize| dist(&points[a], &points[b]).max(core[a]).max(core[b]);
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut edges = Vec::with_capacity(n - 1);
    in_tree[0] = true;
    for (j, slot) in best.iter_mut().enumerate().skip(1) {
        *slot = mreach(0, j);
    }
    for _ in 1..n {
        let mut u = usize::MAX;
        let mut ud = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best[j] < ud {
                ud = best[j];
                u = j;
            }
        }
        debug_assert!(u != usize::MAX, "graph is complete");
        in_tree[u] = true;
        edges.push((ud, best_from[u], u));
        for j in 0..n {
            if !in_tree[j] {
                let d = mreach(u, j);
                if d < best[j] {
                    best[j] = d;
                    best_from[j] = u;
                }
            }
        }
    }
    edges
}

/// A node of the single-linkage dendrogram.
#[derive(Debug, Clone, Copy)]
struct DendroNode {
    /// Children (leaf ids are `< n`, internal ids `>= n`).
    left: usize,
    right: usize,
    /// Merge distance.
    weight: f64,
    /// Leaves under this node.
    size: usize,
}

/// A condensed-tree cluster.
#[derive(Debug, Clone)]
struct CondCluster {
    parent: Option<usize>,
    birth_lambda: f64,
    children: Vec<usize>,
    /// `(point, λ_exit)` events for points that left this cluster.
    exits: Vec<(usize, f64)>,
}

/// λ = 1/d, saturating on zero distances (duplicate points).
fn lambda_of(weight: f64) -> f64 {
    if weight <= 1e-12 {
        1e12
    } else {
        1.0 / weight
    }
}

fn extract(edges: &[(f64, usize, usize)], n: usize, min_size: usize) -> Vec<ClusterLabel> {
    // ---- single-linkage dendrogram ---------------------------------------
    let mut sorted: Vec<(f64, usize, usize)> = edges.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Union-find mapping points to their current dendrogram node.
    let mut uf_parent: Vec<usize> = (0..n).collect();
    let mut node_of_root: Vec<usize> = (0..n).collect();
    let mut nodes: Vec<DendroNode> = Vec::with_capacity(n - 1);
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    let leaf_size = |id: usize, nodes: &Vec<DendroNode>| -> usize {
        if id < n {
            1
        } else {
            nodes[id - n].size
        }
    };
    for &(w, a, b) in &sorted {
        let (ra, rb) = (find(&mut uf_parent, a), find(&mut uf_parent, b));
        debug_assert_ne!(ra, rb, "MST edges never form cycles");
        let (na, nb) = (node_of_root[ra], node_of_root[rb]);
        let size = leaf_size(na, &nodes) + leaf_size(nb, &nodes);
        nodes.push(DendroNode { left: na, right: nb, weight: w, size });
        let new_node = n + nodes.len() - 1;
        uf_parent[ra] = rb;
        let r = find(&mut uf_parent, rb);
        node_of_root[r] = new_node;
    }
    let root = n + nodes.len() - 1;

    // ---- condensed tree ----------------------------------------------------
    // Iterative descent: (dendrogram node, condensed cluster it belongs to).
    let mut cond: Vec<CondCluster> = vec![CondCluster {
        parent: None,
        birth_lambda: 0.0,
        children: Vec::new(),
        exits: Vec::new(),
    }];
    // Collect all leaves under a dendrogram node.
    let collect_leaves = |start: usize, nodes: &Vec<DendroNode>| -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            if id < n {
                out.push(id);
            } else {
                let d = nodes[id - n];
                stack.push(d.left);
                stack.push(d.right);
            }
        }
        out
    };

    let mut death_lambda: Vec<f64> = vec![f64::INFINITY];
    let mut work: Vec<(usize, usize)> = vec![(root, 0)];
    while let Some((mut cur, cid)) = work.pop() {
        loop {
            if cur < n {
                // Single point left inside the cluster: it exits when the
                // cluster dissolves; approximate with its parent's λ scale.
                let lam = cond[cid].birth_lambda.max(1e-12);
                cond[cid].exits.push((cur, lam));
                death_lambda[cid] = lam;
                break;
            }
            let d = nodes[cur - n];
            let lam = lambda_of(d.weight);
            let (sl, sr) = (leaf_size(d.left, &nodes), leaf_size(d.right, &nodes));
            if sl >= min_size && sr >= min_size {
                // True split: two new condensed clusters are born; every
                // current member exits `cid` at λ.
                for p in collect_leaves(cur, &nodes) {
                    cond[cid].exits.push((p, lam));
                }
                death_lambda[cid] = lam;
                let cl = cond.len();
                cond.push(CondCluster {
                    parent: Some(cid),
                    birth_lambda: lam,
                    children: Vec::new(),
                    exits: Vec::new(),
                });
                death_lambda.push(f64::INFINITY);
                let cr = cond.len();
                cond.push(CondCluster {
                    parent: Some(cid),
                    birth_lambda: lam,
                    children: Vec::new(),
                    exits: Vec::new(),
                });
                death_lambda.push(f64::INFINITY);
                cond[cid].children.push(cl);
                cond[cid].children.push(cr);
                work.push((d.left, cl));
                work.push((d.right, cr));
                break;
            }
            if sl < min_size && sr < min_size {
                // Cluster dissolves: everything exits at λ.
                for p in collect_leaves(cur, &nodes) {
                    cond[cid].exits.push((p, lam));
                }
                death_lambda[cid] = lam;
                break;
            }
            // One small side falls out; keep descending the big side.
            let (small, big) = if sl < min_size { (d.left, d.right) } else { (d.right, d.left) };
            for p in collect_leaves(small, &nodes) {
                cond[cid].exits.push((p, lam));
            }
            cur = big;
        }
    }

    // ---- stability + excess-of-mass selection -----------------------------
    let stability: Vec<f64> = cond
        .iter()
        .map(|c| {
            c.exits
                .iter()
                .map(|&(_, lam)| (lam - c.birth_lambda).max(0.0))
                .sum()
        })
        .collect();
    // Children always have larger indices; process bottom-up.
    let mut selected = vec![false; cond.len()];
    let mut subtree_stability = stability.clone();
    for i in (0..cond.len()).rev() {
        if cond[i].children.is_empty() {
            selected[i] = true;
            continue;
        }
        let child_sum: f64 = cond[i].children.iter().map(|&c| subtree_stability[c]).sum();
        let is_root = cond[i].parent.is_none();
        if !is_root && stability[i] > child_sum {
            selected[i] = true;
            // Deselect the whole subtree below.
            let mut stack: Vec<usize> = cond[i].children.clone();
            while let Some(c) = stack.pop() {
                selected[c] = false;
                stack.extend(cond[c].children.iter().copied());
            }
        } else {
            subtree_stability[i] = child_sum.max(stability[i]);
        }
    }
    // The root is never a cluster unless it has no children at all
    // (a dataset with no internal structure is one cluster).
    selected[0] = cond.len() == 1;

    // ---- assignment --------------------------------------------------------
    // A point belongs to the deepest *selected* cluster on its membership
    // chain (the cluster it exited, then its ancestors). Low-density
    // fall-outs are noise: a point that left the selected cluster itself
    // long before the cluster died (λ_exit ≪ λ_death) was never really
    // part of its dense core — this is the membership-probability cut of
    // standard HDBSCAN implementations.
    const MEMBERSHIP_CUT: f64 = 0.1;
    let mut labels = vec![ClusterLabel::Noise; n];
    let mut cluster_id_of: Vec<Option<usize>> = vec![None; cond.len()];
    let mut next_id = 0usize;
    for (ci, c) in cond.iter().enumerate() {
        for &(p, lam) in &c.exits {
            let mut cur = Some(ci);
            while let Some(x) = cur {
                if selected[x] {
                    let direct_exit = x == ci;
                    let weak = direct_exit
                        && death_lambda[x].is_finite()
                        && lam < MEMBERSHIP_CUT * death_lambda[x];
                    if !weak {
                        let id = *cluster_id_of[x].get_or_insert_with(|| {
                            let id = next_id;
                            next_id += 1;
                            id
                        });
                        labels[p] = ClusterLabel::Cluster(id);
                    }
                    break;
                }
                cur = cond[x].parent;
            }
        }
    }
    // Renumber deterministically by first member.
    let mut remap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut next = 0usize;
    for label in labels.iter_mut() {
        if let ClusterLabel::Cluster(c) = *label {
            let id = *remap.entry(c).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            *label = ClusterLabel::Cluster(id);
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::super::{members_by_cluster, n_clusters};
    use super::*;
    use foundation::rng::{RngExt, SeedableRng};
    use foundation::rng::ChaCha8Rng;

    fn blobs(seed: u64, centers: &[(f32, f32)], per: usize, spread: f32) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pts = Vec::new();
        let mut truth = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..per {
                pts.push(vec![
                    cx + rng.random_range(-spread..spread),
                    cy + rng.random_range(-spread..spread),
                ]);
                truth.push(ci);
            }
        }
        (pts, truth)
    }

    /// The `k`-th smallest distance from `i` to the other points, by
    /// sorting them all.
    fn brute_core(points: &[Vec<f32>], i: usize, k: usize) -> f64 {
        let mut ds: Vec<f64> = (0..points.len())
            .filter(|&j| j != i)
            .map(|j| dist(&points[i], &points[j]))
            .collect();
        ds.sort_by(f64::total_cmp);
        ds.get(k - 1).copied().unwrap_or(f64::INFINITY)
    }

    #[test]
    fn core_distances_match_brute_force() {
        // Small integer coordinates give many tied distances; the last ten
        // points repeat earlier ones exactly.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut pts: Vec<Vec<f32>> = (0..110)
            .map(|_| (0..3).map(|_| rng.random_range(0..4) as f32).collect())
            .collect();
        pts.extend(pts[..10].to_vec());
        let n = pts.len();
        for k in [1, 3, n - 1] {
            let got = core_distances(&pts, k);
            for (i, &d) in got.iter().enumerate() {
                assert_eq!(d, brute_core(&pts, i, k), "i={i} k={k}");
            }
        }
        // A point repeated k or more times has core distance zero.
        assert_eq!(core_distances(&vec![vec![1.0f32, 1.0]; 10], 3), vec![0.0; 10]);
    }

    #[test]
    fn core_distances_with_too_few_points() {
        let pts = vec![vec![0.0f32, 0.0], vec![1.0, 0.0], vec![0.0, 2.0]];
        assert_eq!(core_distances(&pts, 3), vec![f64::INFINITY; 3]);
        assert_eq!(core_distances(&pts, 5), vec![f64::INFINITY; 3]);
        assert_eq!(core_distances(&pts, 2), vec![2.0, 5.0f64.sqrt(), 5.0f64.sqrt()]);
    }

    #[test]
    fn separates_well_spaced_blobs_without_eps() {
        let (pts, truth) = blobs(1, &[(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)], 25, 0.6);
        let labels = hdbscan(&pts, 5);
        assert_eq!(n_clusters(&labels), 4);
        for group in members_by_cluster(&labels) {
            let t0 = truth[group[0]];
            assert!(group.iter().all(|&i| truth[i] == t0), "impure cluster");
        }
    }

    #[test]
    fn varying_density_blobs() {
        // One tight and one loose blob — the case fixed-eps DBSCAN handles
        // badly but mutual reachability handles well.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut pts: Vec<Vec<f32>> = Vec::new();
        for _ in 0..30 {
            pts.push(vec![rng.random_range(-0.1f32..0.1), rng.random_range(-0.1f32..0.1)]);
        }
        for _ in 0..30 {
            pts.push(vec![
                30.0 + rng.random_range(-3.0f32..3.0),
                rng.random_range(-3.0f32..3.0),
            ]);
        }
        let labels = hdbscan(&pts, 5);
        assert_eq!(n_clusters(&labels), 2);
    }

    #[test]
    fn single_blob_stays_mostly_clustered() {
        // Standard HDBSCAN (allow_single_cluster = false) may split a
        // unimodal blob into a couple of clusters; the invariant that
        // matters is that nearly everything is clustered, not scattered
        // to noise.
        let (pts, _) = blobs(3, &[(0.0, 0.0)], 40, 0.5);
        let labels = hdbscan(&pts, 5);
        let k = n_clusters(&labels);
        assert!((1..=3).contains(&k), "unexpected cluster count {k}");
        let noise = labels.iter().filter(|l| l.is_noise()).count();
        assert!(noise <= 12, "too much noise: {noise}");
    }

    #[test]
    fn tiny_inputs_are_noise() {
        let pts = vec![vec![0.0f32, 0.0], vec![1.0, 1.0]];
        let labels = hdbscan(&pts, 5);
        assert!(labels.iter().all(|l| l.is_noise()));
        assert!(hdbscan(&[], 5).is_empty());
    }

    #[test]
    fn stragglers_become_noise() {
        let (mut pts, _) = blobs(4, &[(0.0, 0.0), (25.0, 25.0)], 25, 0.5);
        pts.push(vec![12.0, 12.0]); // lone point between blobs
        let labels = hdbscan(&pts, 5);
        assert_eq!(n_clusters(&labels), 2);
        assert!(labels.last().unwrap().is_noise());
    }

    #[test]
    fn deterministic() {
        let (pts, _) = blobs(5, &[(0.0, 0.0), (15.0, 15.0)], 20, 0.5);
        assert_eq!(hdbscan(&pts, 5), hdbscan(&pts, 5));
    }

    #[test]
    fn many_small_clusters_multi_scale() {
        // 12 tight blobs at different pairwise distances — the condensed
        // tree must find all of them without a global radius.
        let mut centers = Vec::new();
        for i in 0..4 {
            for j in 0..3 {
                centers.push((i as f32 * 8.0, j as f32 * 13.0));
            }
        }
        let (pts, truth) = blobs(6, &centers, 12, 0.3);
        let labels = hdbscan(&pts, 4);
        assert_eq!(n_clusters(&labels), 12, "expected all 12 blobs");
        for group in members_by_cluster(&labels) {
            let t0 = truth[group[0]];
            assert!(group.iter().all(|&i| truth[i] == t0));
        }
    }

    #[test]
    fn duplicate_points_cluster() {
        let mut pts = vec![vec![0.0f32, 0.0]; 10];
        pts.extend(vec![vec![5.0f32, 5.0]; 10]);
        let labels = hdbscan(&pts, 3);
        assert_eq!(n_clusters(&labels), 2);
        assert!(labels.iter().all(|l| !l.is_noise()));
    }
}
