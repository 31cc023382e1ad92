//! Text featurization.
//!
//! The paper's pipeline uses a `SentenceBertTransformer`. A 100M-parameter
//! transformer is out of scope for a self-contained substrate, so this
//! module provides two deterministic substitutes that exercise the same
//! downstream code paths (dense, fixed-width, semantically clustered
//! vectors):
//!
//! - [`HashingVectorizer`] — classic feature hashing of token counts,
//! - [`SentenceEmbedder`] — every token is mapped to a pseudo-random unit
//!   vector derived from its hash; a sentence embeds as the L2-normalized
//!   sum. Sentences sharing words land close in cosine space, which is the
//!   property the tutorial's sentiment task relies on.
//!
//! Both read a text as its tokens — maximal runs of alphanumeric
//! characters, lowercased — and use a token only through the FNV-1a hash
//! of its lowercased form. `for_each_token_hash` produces those hashes
//! without allocating per token: ASCII tokens are lowercased byte by byte
//! while hashing, and only non-ASCII tokens go through `str::to_lowercase`
//! (which handles final sigma and multi-character lowercasings such as
//! `İ`).
//!
//! A token's embedding vector is a pure function of that hash, so the
//! table encoder keeps one memo from hash to vector per text column and
//! call (`SentenceEmbedder::embed_into`). Keying the memo by the hash is
//! exact by construction: two tokens with colliding hashes already receive
//! the same vector without the memo, so a collision cannot change a
//! result. Vectors are still added in token order, which keeps every sum —
//! and so every embedding — bit-identical to the unmemoized computation.

use std::collections::HashMap;

/// FNV-1a hash of a token's bytes (stable across runs and platforms).
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Calls `f` with the FNV-1a hash of every lowercased token of `text`, in
/// order. Tokens split on non-alphanumeric characters; empty tokens are
/// skipped.
fn for_each_token_hash(text: &str, mut f: impl FnMut(u64)) {
    for token in text.split(|c: char| !c.is_alphanumeric()) {
        if token.is_empty() {
            continue;
        }
        f(if token.is_ascii() {
            fnv1a(token.bytes().map(|b| b.to_ascii_lowercase()))
        } else {
            fnv1a(token.to_lowercase().bytes())
        });
    }
}

/// Feature-hashing bag-of-words vectorizer.
#[derive(Debug, Clone)]
pub struct HashingVectorizer {
    /// Output dimensionality.
    pub dims: usize,
}

impl HashingVectorizer {
    /// Creates a vectorizer with `dims` output buckets.
    pub fn new(dims: usize) -> Self {
        HashingVectorizer { dims: dims.max(1) }
    }

    /// Encodes text as L2-normalized hashed token counts (signed hashing to
    /// reduce collision bias).
    pub fn embed(&self, text: &str) -> Vec<f64> {
        let mut v = vec![0.0f64; self.dims];
        for_each_token_hash(text, |h| {
            let bucket = (h % self.dims as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[bucket] += sign;
        });
        l2_normalize(&mut v);
        v
    }
}

/// Deterministic pseudo-sentence-embedding (SentenceBERT substitute).
#[derive(Debug, Clone)]
pub struct SentenceEmbedder {
    /// Output dimensionality.
    pub dims: usize,
}

impl SentenceEmbedder {
    /// Creates an embedder with `dims` dimensions.
    pub fn new(dims: usize) -> Self {
        SentenceEmbedder { dims: dims.max(1) }
    }

    /// Pseudo-random unit vector for the token with hash `hash`, via
    /// SplitMix64 expansion and an approximate inverse-normal transform.
    fn token_vector(&self, hash: u64) -> Vec<f64> {
        let mut state = hash;
        let mut v = Vec::with_capacity(self.dims);
        for _ in 0..self.dims {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // Map to roughly standard normal via a sum of uniforms.
            let u1 = (z & 0xFFFF_FFFF) as f64 / 4294967296.0;
            let u2 = (z >> 32) as f64 / 4294967296.0;
            v.push(u1 + u2 - 1.0);
        }
        l2_normalize(&mut v);
        v
    }

    /// Embeds a sentence: normalized sum of token vectors. Empty text maps
    /// to the zero vector.
    pub fn embed(&self, text: &str) -> Vec<f64> {
        let mut out = vec![0.0f64; self.dims];
        self.embed_into(text, &mut out, &mut HashMap::new());
        out
    }

    /// [`embed`](Self::embed) written into `out` (which must hold `dims`
    /// zeros), reading and filling `memo`, a map from token hash to token
    /// vector. Reuse one memo across the texts of a batch so each distinct
    /// token's vector is generated once; the memo must only ever be used
    /// with embedders of the same `dims`.
    pub(crate) fn embed_into(
        &self,
        text: &str,
        out: &mut [f64],
        memo: &mut HashMap<u64, Vec<f64>>,
    ) {
        for_each_token_hash(text, |h| {
            let token = memo.entry(h).or_insert_with(|| self.token_vector(h));
            for (a, t) in out.iter_mut().zip(token.iter()) {
                *a += t;
            }
        });
        // A text without tokens stays all zeros, which normalization leaves
        // unchanged.
        l2_normalize(out);
    }
}

fn l2_normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

/// Cosine similarity of two equal-length vectors (0 for zero vectors).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token_hashes(text: &str) -> Vec<u64> {
        let mut hashes = Vec::new();
        for_each_token_hash(text, |h| hashes.push(h));
        hashes
    }

    #[test]
    fn tokenizer_lowercases_and_splits() {
        let expect = |tokens: &[&str]| tokens.iter().map(|t| fnv1a(t.bytes())).collect::<Vec<_>>();
        assert_eq!(
            token_hashes("Hello, World! 42"),
            expect(&["hello", "world", "42"])
        );
        assert!(token_hashes("...").is_empty());
        assert!(token_hashes("").is_empty());
        // Non-ASCII tokens lowercase like `str::to_lowercase`: word-final
        // sigma, the two-char lowercase of `İ`, and `ß` kept as is.
        assert_eq!(token_hashes("ΟΔΟΣ"), expect(&["οδος"]));
        assert_eq!(token_hashes("İstanbul"), expect(&["i\u{307}stanbul"]));
        assert_eq!(
            token_hashes("STRASSE straße-x_y"),
            expect(&["strasse", "straße", "x", "y"])
        );
    }

    #[test]
    fn embeddings_are_deterministic() {
        let e = SentenceEmbedder::new(32);
        assert_eq!(
            e.embed("the quick brown fox"),
            e.embed("the quick brown fox")
        );
    }

    #[test]
    fn shared_words_increase_similarity() {
        let e = SentenceEmbedder::new(64);
        let a = e.embed("excellent outstanding brilliant work");
        let b = e.embed("excellent outstanding brilliant effort");
        let c = e.embed("terrible awful poor performance");
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = SentenceEmbedder::new(16);
        let v = e.embed("some words here");
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = SentenceEmbedder::new(8);
        assert_eq!(e.embed(""), vec![0.0; 8]);
        let h = HashingVectorizer::new(8);
        assert_eq!(h.embed("!!!"), vec![0.0; 8]);
    }

    #[test]
    fn hashing_vectorizer_counts_tokens() {
        let h = HashingVectorizer::new(128);
        let v1 = h.embed("apple apple banana");
        let v2 = h.embed("apple banana");
        // Same support, different weights.
        assert!(cosine(&v1, &v2) > 0.8);
        assert!(cosine(&v1, &v2) < 1.0 - 1e-9);
    }

    #[test]
    fn word_order_is_ignored() {
        let e = SentenceEmbedder::new(32);
        assert_eq!(e.embed("alpha beta"), e.embed("beta alpha"));
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0], &[1.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
    }
}
