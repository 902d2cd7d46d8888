//! Property tests on the NLP substrate's invariants.

use acctrade_text::cluster::{dbscan, hdbscan, n_clusters, ClusterLabel, ClusterParams};
use acctrade_text::embed::Embedder;
use acctrade_text::langdetect::detect_language;
use acctrade_text::reduce::pca_reduce;
use acctrade_text::tokenize::{tokenize, tokenize_content};
use foundation::check::{self, pattern, VecStrategy};
use foundation::prop_check;
use std::ops::Range;

/// 3-d points, 1–59 of them.
fn points_strategy() -> VecStrategy<VecStrategy<Range<f32>>> {
    check::vec(check::vec(-100.0f32..100.0, 3..4), 1..60)
}

prop_check! {
    /// Cluster labels are dense: ids form `0..k` with no gaps, and every
    /// non-noise label is in range.
    fn cluster_labels_are_dense(points in points_strategy(), min_pts in 0usize..6) {
        for labels in [hdbscan(&points, min_pts), dbscan(&points, ClusterParams { eps: 5.0, min_pts })] {
            assert_eq!(labels.len(), points.len());
            let k = n_clusters(&labels);
            let mut seen = vec![false; k];
            for l in &labels {
                if let ClusterLabel::Cluster(c) = l {
                    assert!(*c < k);
                    seen[*c] = true;
                }
            }
            assert!(seen.into_iter().all(|s| s), "gapped cluster ids");
        }
    }

    /// Clustering is deterministic.
    fn clustering_deterministic(points in points_strategy()) {
        assert_eq!(hdbscan(&points, 3), hdbscan(&points, 3));
        let p = ClusterParams { eps: 2.0, min_pts: 3 };
        assert_eq!(dbscan(&points, p), dbscan(&points, p));
    }

    /// Embeddings are unit-norm or exactly zero.
    fn embeddings_unit_or_zero(text in pattern("\\PC{0,120}"), dim in 8usize..128) {
        let e = Embedder::new(dim, 7);
        let v = e.embed(&text);
        assert_eq!(v.len(), dim);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-4, "norm {norm}");
    }

    /// PCA output preserves point count and requested dimensionality.
    fn pca_shape(points in points_strategy(), k in 1usize..4) {
        let reduced = pca_reduce(&points, k, 3);
        assert_eq!(reduced.len(), points.len());
        let expect = k.min(points[0].len());
        assert!(reduced.iter().all(|r| r.len() == expect));
    }

    /// Content tokens are a subset of raw tokens (stop-word removal only
    /// ever removes).
    fn content_tokens_subset(text in pattern("\\PC{0,200}")) {
        let all = tokenize(&text);
        let content = tokenize_content(&text);
        assert!(content.len() <= all.len());
        for t in &content {
            assert!(all.contains(t));
        }
    }

    /// Language detection is total and deterministic.
    fn langdetect_total(text in pattern("\\PC{0,200}")) {
        assert_eq!(detect_language(&text), detect_language(&text));
    }
}
