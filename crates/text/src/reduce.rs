//! Dimensionality reduction — the UMAP stand-in.
//!
//! Before density clustering, the paper's pipeline reduces embeddings with
//! UMAP. We use PCA computed by power iteration with deflation: for this
//! corpus (lexically separated template families) a linear projection
//! preserves the cluster structure the density clusterer needs, and PCA is
//! deterministic and dependency-free.
//!
//! The power iteration runs on the d×d scatter matrix S = CᵀC of the
//! centred data C (n rows), built once. Streaming the n rows through every
//! iteration instead costs iters·2·n·d multiply-adds; building S and
//! iterating on it costs n·d²/2 + iters·d². In the pipeline (d = 192
//! reduced to 48 components, about 2,800 iterations since most components
//! hit the 60-iteration cap, n ≈ 800 distinct documents) that is about 7×
//! fewer multiply-adds, and the iteration's inner loop vectorises.

use foundation::rng::{Rng, RngExt, SeedableRng};
use foundation::rng::ChaCha8Rng;

/// Reduce `data` (rows = points) to `k` principal components.
///
/// Returns the projected points (rows of length `k`). `seed` initializes
/// the power iteration start vectors. Input rows must share one length.
///
/// # Panics
/// Panics if `data` is empty, rows are ragged, or `k` is zero.
pub fn pca_reduce(data: &[Vec<f32>], k: usize, seed: u64) -> Vec<Vec<f32>> {
    let (centered, k) = center(data, k);
    let dim = centered[0].len();

    // The scatter matrix S = CᵀC, upper triangle accumulated row by row
    // (n·d²/2 multiply-adds), then mirrored.
    let mut scatter = vec![0.0f64; dim * dim];
    for row in &centered {
        for (a, &ra) in row.iter().enumerate() {
            for (s, &rb) in scatter[a * dim + a..(a + 1) * dim].iter_mut().zip(&row[a..]) {
                *s += ra * rb;
            }
        }
    }
    for a in 0..dim {
        for b in 0..a {
            scatter[a * dim + b] = scatter[b * dim + a];
        }
    }

    let components = principal_axes(dim, k, seed, |v| {
        // S·v as the sum of S's rows weighted by v (S is symmetric), so the
        // inner loop is a vectorisable axpy.
        let mut w = vec![0.0f64; dim];
        for (s_row, &va) in scatter.chunks_exact(dim).zip(v) {
            for (wi, &s) in w.iter_mut().zip(s_row) {
                *wi += va * s;
            }
        }
        w
    });
    project(&centered, &components)
}

/// Centre `data` on its column means (in f64) and clamp `k` to the
/// dimension.
fn center(data: &[Vec<f32>], k: usize) -> (Vec<Vec<f64>>, usize) {
    assert!(!data.is_empty(), "no data");
    assert!(k > 0, "k must be positive");
    let dim = data[0].len();
    assert!(data.iter().all(|r| r.len() == dim), "ragged rows");
    let n = data.len();
    let mut mean = vec![0.0f64; dim];
    for row in data {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += f64::from(x);
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let centered = data
        .iter()
        .map(|row| row.iter().zip(&mean).map(|(&x, m)| f64::from(x) - m).collect())
        .collect();
    (centered, k.min(dim))
}

/// The top `k` eigenvectors of the symmetric `dim`×`dim` operator `mul`
/// (which returns `CᵀC·v`), by power iteration with deflation: seeded
/// start vectors, at most 60 iterations, stop when no coordinate moves
/// by `1e-9`.
fn principal_axes(
    dim: usize,
    k: usize,
    seed: u64,
    mul: impl Fn(&[f64]) -> Vec<f64>,
) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9CA0_0000_0000_000A);
    let mut components: Vec<Vec<f64>> = Vec::with_capacity(k);

    for _ in 0..k {
        let mut v = random_unit(&mut rng, dim);
        for _iter in 0..60 {
            let mut w = mul(&v);
            // Deflate previously found components.
            for c in &components {
                let d: f64 = w.iter().zip(c).map(|(a, b)| a * b).sum();
                for (wi, &ci) in w.iter_mut().zip(c) {
                    *wi -= d * ci;
                }
            }
            let norm: f64 = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                // Degenerate direction (rank exhausted); keep previous v.
                break;
            }
            let mut next: Vec<f64> = w.into_iter().map(|x| x / norm).collect();
            // Convergence check.
            let delta: f64 = next
                .iter()
                .zip(&v)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            std::mem::swap(&mut v, &mut next);
            if delta < 1e-9 {
                break;
            }
        }
        components.push(v);
    }
    components
}

/// Project the centred rows onto `components`.
fn project(centered: &[Vec<f64>], components: &[Vec<f64>]) -> Vec<Vec<f32>> {
    centered
        .iter()
        .map(|row| {
            components
                .iter()
                .map(|c| row.iter().zip(c).map(|(a, b)| a * b).sum::<f64>() as f32)
                .collect()
        })
        .collect()
}

fn random_unit(rng: &mut impl Rng, dim: usize) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        let n: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > 1e-9 {
            return v.into_iter().map(|x| x / n).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::hdbscan;

    /// The row-streaming product: `CᵀC·v` as `Σ (row·v)·row`, two passes
    /// over the centred rows per iteration, never forming CᵀC.
    fn reference_pca(data: &[Vec<f32>], k: usize, seed: u64) -> Vec<Vec<f32>> {
        let (centered, k) = center(data, k);
        let components = principal_axes(centered[0].len(), k, seed, |v| {
            let mut w = vec![0.0f64; v.len()];
            for row in &centered {
                let proj: f64 = row.iter().zip(v).map(|(a, b)| a * b).sum();
                for (wi, &ri) in w.iter_mut().zip(row) {
                    *wi += proj * ri;
                }
            }
            w
        });
        project(&centered, &components)
    }

    #[test]
    fn scatter_matrix_matches_row_streaming_reference() {
        // 300 points around 12 centres in 192-D, reduced to 48 as the
        // scam-post pipeline does.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let centres: Vec<Vec<f32>> = (0..12)
            .map(|_| (0..192).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect();
        let data: Vec<Vec<f32>> = (0..300)
            .map(|i| centres[i % 12].iter().map(|&c| c + rng.random_range(-0.2f32..0.2)).collect())
            .collect();
        let got = pca_reduce(&data, 48, 7);
        let want = reference_pca(&data, 48, 7);
        let scale = want.iter().flatten().fold(0.0f32, |m, x| m.max(x.abs()));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            for (j, (a, b)) in g.iter().zip(w).enumerate() {
                assert!((a - b).abs() <= 1e-5 * scale, "point {i} coord {j}: {a} vs {b}");
            }
        }
        assert_eq!(hdbscan(&got, 3), hdbscan(&want, 3));
    }

    /// Two tight blobs along the x-axis in 5-D.
    fn blobs() -> Vec<Vec<f32>> {
        let mut data = Vec::new();
        for i in 0..20 {
            let jitter = (i % 5) as f32 * 0.01;
            let mut a = vec![0.0f32; 5];
            a[0] = 10.0 + jitter;
            a[1] = jitter;
            data.push(a);
            let mut b = vec![0.0f32; 5];
            b[0] = -10.0 - jitter;
            b[1] = -jitter;
            data.push(b);
        }
        data
    }

    #[test]
    fn first_component_separates_blobs() {
        let data = blobs();
        let reduced = pca_reduce(&data, 1, 3);
        // Points from blob A (even indices) all on one side, blob B other side.
        let a_side = reduced[0][0].signum();
        for (i, r) in reduced.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(r[0].signum(), a_side, "point {i}");
            } else {
                assert_eq!(r[0].signum(), -a_side, "point {i}");
            }
            assert!(r[0].abs() > 5.0);
        }
    }

    #[test]
    fn output_shape() {
        let data = blobs();
        let reduced = pca_reduce(&data, 3, 1);
        assert_eq!(reduced.len(), data.len());
        assert!(reduced.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn k_clamped_to_dim() {
        let data = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        let reduced = pca_reduce(&data, 10, 1);
        assert_eq!(reduced[0].len(), 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = blobs();
        assert_eq!(pca_reduce(&data, 2, 9), pca_reduce(&data, 2, 9));
    }

    #[test]
    fn variance_ordering_of_components() {
        // Column 0 has much higher variance than column 1.
        let data = blobs();
        let reduced = pca_reduce(&data, 2, 4);
        let var = |idx: usize| {
            let mean: f32 = reduced.iter().map(|r| r[idx]).sum::<f32>() / reduced.len() as f32;
            reduced.iter().map(|r| (r[idx] - mean).powi(2)).sum::<f32>() / reduced.len() as f32
        };
        assert!(var(0) > var(1) * 10.0, "v0={} v1={}", var(0), var(1));
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_input_panics() {
        let _ = pca_reduce(&[], 2, 1);
    }
}
