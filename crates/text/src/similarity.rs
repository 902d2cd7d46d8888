//! Listing-text similarity — the paper's underground reuse analysis (§4.2).
//!
//! The paper reports "word similarity ranging from 88% to 100%" across
//! underground listings, computed case-insensitively after removing numbers
//! and punctuation. We implement that measure exactly: normalized word-level
//! overlap via a token-sequence LCS ratio.

use crate::tokenize::tokenize_alpha;

/// Word-level similarity in `[0, 1]`: LCS length over max sequence length,
/// computed case-insensitively on alphabetic tokens (numbers and
/// punctuation removed, matching the paper's preprocessing).
///
/// Returns 1.0 for two empty texts (identical by convention).
pub fn word_similarity(a: &str, b: &str) -> f64 {
    let ta = tokenize_alpha(a);
    let tb = tokenize_alpha(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let lcs = lcs_len(&ta, &tb);
    lcs as f64 / ta.len().max(tb.len()) as f64
}

/// Longest common subsequence length between token sequences.
/// O(|a|·|b|) with a rolling row — listing posts are 14–123 words.
fn lcs_len(a: &[String], b: &[String]) -> usize {
    let mut prev = vec![0usize; b.len() + 1];
    let mut curr = vec![0usize; b.len() + 1];
    for ai in a {
        for (j, bj) in b.iter().enumerate() {
            curr[j + 1] = if ai == bj {
                prev[j] + 1
            } else {
                prev[j + 1].max(curr[j])
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Pairwise similarity matrix (upper triangle, `(i, j, sim)` with `i < j`)
/// over a set of posts, reporting only pairs at or above `threshold`.
pub fn similar_pairs(posts: &[String], threshold: f64) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for i in 0..posts.len() {
        for j in (i + 1)..posts.len() {
            let s = word_similarity(&posts[i], &posts[j]);
            if s >= threshold {
                out.push((i, j, s));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_are_1() {
        let t = "Selling aged TikTok account, organic followers, full access";
        assert!((word_similarity(t, t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn case_numbers_punctuation_ignored() {
        // The paper's preprocessing: case-insensitive, numbers and
        // punctuation removed.
        let a = "Selling TikTok account with 50000 followers!!!";
        let b = "selling tiktok account with 99999 followers";
        assert!((word_similarity(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_edits_keep_high_similarity() {
        let a = "selling aged tiktok account organic followers full email access guaranteed delivery fast";
        let b = "selling aged tiktok account real followers full email access guaranteed delivery fast";
        let s = word_similarity(a, b);
        assert!((0.88..1.0).contains(&s), "s={s}");
    }

    #[test]
    fn unrelated_texts_are_low() {
        let a = "selling tiktok account organic followers";
        let b = "weather forecast rain tomorrow cold wind";
        assert!(word_similarity(a, b) < 0.2);
    }

    #[test]
    fn symmetry() {
        let a = "one two three four five";
        let b = "one two four five six seven";
        assert!((word_similarity(a, b) - word_similarity(b, a)).abs() < 1e-12);
    }

    #[test]
    fn bounds() {
        let pairs = [
            ("a b c", "a b c"),
            ("a b c", "d e f"),
            ("", ""),
            ("a", ""),
            ("x y z w", "x z"),
        ];
        for (a, b) in pairs {
            let s = word_similarity(a, b);
            assert!((0.0..=1.0).contains(&s), "{a:?} vs {b:?} -> {s}");
        }
    }

    #[test]
    fn word_order_matters_for_lcs_not_jaccard() {
        let a = "buy this account now cheap";
        let b = "cheap now account this buy";
        let bag = |t: &str| {
            let mut words = tokenize_alpha(t);
            words.sort();
            words
        };
        assert_eq!(bag(a), bag(b), "same bag of words");
        assert!(word_similarity(a, b) < 0.5);
    }

    #[test]
    fn similar_pairs_thresholding() {
        let posts = vec![
            "selling tiktok account aged organic followers".to_string(),
            "selling tiktok account aged organic followers".to_string(),
            "fresh instagram page fashion niche for sale".to_string(),
        ];
        let pairs = similar_pairs(&posts, 0.88);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (0, 1));
        assert!((pairs[0].2 - 1.0).abs() < 1e-12);
    }
}
