//! Dense sentence embeddings via feature hashing + seeded random projection
//! — the all-mpnet-base-v2 stand-in.
//!
//! A document's content tokens (unigrams and bigrams) are hashed into a
//! large sparse space, then projected to `dim` dense dimensions with a
//! seeded sign-random projection. By the Johnson–Lindenstrauss lemma the
//! projection approximately preserves cosine geometry, which is the only
//! property the downstream clusterer depends on. On the template-generated
//! corpus, documents from the same scam family share most of their n-grams
//! and land close together — the same qualitative behaviour the neural
//! embedder exhibits on the real corpus.

use crate::ngram::word_ngrams;
use crate::tokenize::tokenize_content;

/// A dense embedding vector.
pub type Embedding = Vec<f32>;

/// A deterministic document embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    dim: usize,
    seed: u64,
}

impl Embedder {
    /// Create an embedder with output dimensionality `dim`.
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn new(dim: usize, seed: u64) -> Embedder {
        assert!(dim > 0, "embedding dimension must be positive");
        Embedder { dim, seed }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed one document into an L2-normalized dense vector. Documents
    /// with no content tokens embed to the zero vector.
    pub fn embed(&self, text: &str) -> Embedding {
        let tokens = tokenize_content(text);
        let mut features: Vec<String> = tokens.clone();
        features.extend(word_ngrams(&tokens, 2));
        let mut v = vec![0.0f32; self.dim];
        for feat in &features {
            let h = fnv1a(feat.as_bytes()) ^ self.seed;
            // Two independent sub-hashes: one picks the dimension, one the
            // sign. This is the standard signed feature-hashing trick.
            let d = (h % self.dim as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[d] += sign;
        }
        l2_normalize(&mut v);
        v
    }

    /// Embed a corpus.
    pub fn embed_all(&self, corpus: &[String]) -> Vec<Embedding> {
        corpus.iter().map(|d| self.embed(d)).collect()
    }
}

/// Cosine similarity between dense vectors (0 for zero vectors).
// conformance: allow(pub-hygiene) — tested metric surface kept as public API
pub fn dense_cosine(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| f64::from(*x) * f64::from(*y)).sum();
    let na: f64 = a.iter().map(|x| f64::from(*x) * f64::from(*x)).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| f64::from(*x) * f64::from(*x)).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Euclidean distance between dense vectors.
// conformance: allow(pub-hygiene) — tested metric surface kept as public API
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = f64::from(*x) - f64::from(*y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

fn l2_normalize(v: &mut [f32]) {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_deterministic() {
        let e = Embedder::new(64, 42);
        assert_eq!(e.embed("free crypto now"), e.embed("free crypto now"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Embedder::new(64, 1).embed("free crypto now");
        let b = Embedder::new(64, 2).embed("free crypto now");
        assert_ne!(a, b);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = Embedder::new(128, 7);
        let v = e.embed("selling instagram account with followers");
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_doc_embeds_to_zero() {
        let e = Embedder::new(32, 7);
        let v = e.embed("the of and");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn same_family_closer_than_cross_family() {
        let e = Embedder::new(256, 99);
        let a = e.embed("huge crypto giveaway send bitcoin to this wallet win double back");
        let b = e.embed("crypto giveaway today send bitcoin wallet and win double rewards");
        let c = e.embed("cute puppy photos every single morning follow for dogs");
        assert!(dense_cosine(&a, &b) > dense_cosine(&a, &c) + 0.1);
    }

    #[test]
    fn euclidean_and_cosine_consistent_on_unit_vectors() {
        let e = Embedder::new(256, 5);
        let a = e.embed("fake travel deal cheap flights limited offer book now");
        let b = e.embed("cheap flights travel deal limited time book today");
        // For unit vectors d^2 = 2 - 2cos.
        let d = euclidean(&a, &b);
        let cos = dense_cosine(&a, &b);
        assert!((d * d - (2.0 - 2.0 * cos)).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = Embedder::new(0, 1);
    }
}
