//! The §3.4 iterator abstraction: block patterns enumerate exactly the tiles to
//! compute, replacing per-iteration branching by offset arithmetic.
//!
//! A [`BlockPattern`] answers, for query tile `qt` and KV block `kb`, whether the
//! `TQ × TK` tile is skipped, fully computed, or is the causal diagonal tile (the
//! only tile that applies a per-element mask — "aside from the most recent KV block,
//! each block is either fully computed or entirely skipped", §2.2).

/// What the kernel does with one `TQ × TK` tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDecision {
    /// Tile contributes nothing; the iterator never yields it.
    Skip,
    /// Every (query, key) pair in the tile is valid; computed without masking.
    Full,
    /// Tile straddles the causal diagonal; computed with the elementwise causal test.
    Causal,
}

/// A structured sparsity pattern over `TQ × TK` tiles.
///
/// Implementations must be *causally sound*: they may only return [`BlockDecision::Full`]
/// for tiles whose keys all precede all queries of the tile, and must return
/// [`BlockDecision::Skip`] for tiles entirely in the future.
pub trait BlockPattern {
    /// Decision for query tile `qt` (tokens `[qt*tq, (qt+1)*tq)`) and KV block `kb`
    /// (tokens `[kb*tk, (kb+1)*tk)`), given tile sizes and total sequence length.
    fn decide(&self, qt: usize, kb: usize, tq: usize, tk: usize, seq_len: usize) -> BlockDecision;

    /// Iterator over the visited (non-skipped) KV blocks of query tile `qt`.
    ///
    /// This is the "iterator-based abstraction" of §3.4: kernels loop only over the
    /// blocks this yields.
    fn blocks_for_tile(
        &self,
        qt: usize,
        tq: usize,
        tk: usize,
        seq_len: usize,
    ) -> Vec<(usize, BlockDecision)> {
        let num_kb = seq_len.div_ceil(tk);
        (0..num_kb)
            .filter_map(|kb| match self.decide(qt, kb, tq, tk, seq_len) {
                BlockDecision::Skip => None,
                d => Some((kb, d)),
            })
            .collect()
    }

    /// Counts `(visited, total_causal)` tiles over a whole prefill of `seq_len`
    /// tokens; `total_causal` is the dense-causal tile count, the denominator of the
    /// block sparsity ratio `r` (§3.1).
    fn tile_counts(&self, tq: usize, tk: usize, seq_len: usize) -> (u64, u64) {
        let num_qt = seq_len.div_ceil(tq);
        let dense = DensePattern;
        let mut visited = 0u64;
        let mut total = 0u64;
        for qt in 0..num_qt {
            for kb in 0..seq_len.div_ceil(tk) {
                if dense.decide(qt, kb, tq, tk, seq_len) != BlockDecision::Skip {
                    total += 1;
                }
                if self.decide(qt, kb, tq, tk, seq_len) != BlockDecision::Skip {
                    visited += 1;
                }
            }
        }
        (visited, total)
    }
}

/// Causal decision ignoring any sparsity: the base geometry every pattern composes
/// with.
fn causal_decide(qt: usize, kb: usize, tq: usize, tk: usize, seq_len: usize) -> BlockDecision {
    let q_start = qt * tq;
    let q_end = ((qt + 1) * tq).min(seq_len); // exclusive
    let k_start = kb * tk;
    let k_end = ((kb + 1) * tk).min(seq_len); // exclusive
    if k_start >= q_end {
        // Every key is strictly in the future of every query.
        BlockDecision::Skip
    } else if k_end <= q_start + 1 {
        // Every key index <= every query index (k_end-1 <= q_start).
        BlockDecision::Full
    } else {
        BlockDecision::Causal
    }
}

/// Standard dense causal attention (Figure 4(a)): every past tile visited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensePattern;

impl BlockPattern for DensePattern {
    fn decide(&self, qt: usize, kb: usize, tq: usize, tk: usize, seq_len: usize) -> BlockDecision {
        causal_decide(qt, kb, tq, tk, seq_len)
    }
}

/// Streaming (Λ-shaped) attention at block granularity (Figure 4(c)): each query tile
/// attends the first `sink` KV blocks and the `local` most recent blocks up to the
/// diagonal.
///
/// # Example
///
/// ```
/// use lserve_attention::{BlockDecision, BlockPattern, StreamingPattern};
///
/// let p = StreamingPattern::new(1, 2);
/// // Query tile 5 with unit tiles: sink block 0, locals 4 and 5; 1..=3 skipped.
/// assert_eq!(p.decide(5, 0, 16, 16, 1024), BlockDecision::Full);
/// assert_eq!(p.decide(5, 2, 16, 16, 1024), BlockDecision::Skip);
/// assert_eq!(p.decide(5, 4, 16, 16, 1024), BlockDecision::Full);
/// assert_eq!(p.decide(5, 5, 16, 16, 1024), BlockDecision::Causal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingPattern {
    sink: usize,
    local: usize,
}

impl StreamingPattern {
    /// Creates the pattern of `sink` sink blocks and `local` local blocks
    /// (the diagonal one included).
    ///
    /// # Panics
    ///
    /// Panics if `local == 0` (the diagonal block must always be attended).
    pub fn new(sink: usize, local: usize) -> Self {
        assert!(local > 0, "streaming pattern needs >= 1 local block");
        Self { sink, local }
    }
}

impl BlockPattern for StreamingPattern {
    fn decide(&self, qt: usize, kb: usize, tq: usize, tk: usize, seq_len: usize) -> BlockDecision {
        assert_eq!(tq, tk, "StreamingPattern requires square tiles (TQ == TK)");
        let causal = causal_decide(qt, kb, tq, tk, seq_len);
        if causal == BlockDecision::Skip {
            return BlockDecision::Skip;
        }
        let is_sink = kb < self.sink;
        // With square tiles the diagonal block of tile qt is kb == qt; local window
        // covers (qt - local, qt].
        let is_local = kb + self.local > qt && kb <= qt;
        if is_sink || is_local {
            causal
        } else {
            BlockDecision::Skip
        }
    }
}

/// Arbitrary per-tile mask (MInference-style dynamic prefill sparsity): tile
/// `(qt, kb)` is visited iff `mask[qt][kb]` — always intersected with causality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskPattern {
    num_q_tiles: usize,
    num_k_blocks: usize,
    mask: Vec<bool>,
}

impl MaskPattern {
    /// Creates a mask of `num_q_tiles x num_k_blocks`, initially all-skipped.
    pub fn new(num_q_tiles: usize, num_k_blocks: usize) -> Self {
        Self {
            num_q_tiles,
            num_k_blocks,
            mask: vec![false; num_q_tiles * num_k_blocks],
        }
    }

    /// Marks tile `(qt, kb)` visited.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, qt: usize, kb: usize) {
        assert!(
            qt < self.num_q_tiles && kb < self.num_k_blocks,
            "mask index out of bounds"
        );
        self.mask[qt * self.num_k_blocks + kb] = true;
    }

    /// Whether tile `(qt, kb)` is marked (out-of-range queries treated as unmarked).
    pub fn get(&self, qt: usize, kb: usize) -> bool {
        if qt >= self.num_q_tiles || kb >= self.num_k_blocks {
            return false;
        }
        self.mask[qt * self.num_k_blocks + kb]
    }

    /// Builds the mask that keeps the diagonal plus `keep_per_row` random causally
    /// valid blocks per query tile — a stand-in for MInference's offline pattern
    /// search, used by the kernel and mask tests.
    pub fn random_causal(
        num_q_tiles: usize,
        num_k_blocks: usize,
        keep_per_row: usize,
        seed: u64,
    ) -> Self {
        // Simple deterministic LCG so this crate needs no rand dependency.
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound.max(1)
        };
        let mut m = Self::new(num_q_tiles, num_k_blocks);
        for qt in 0..num_q_tiles {
            m.set(qt, qt.min(num_k_blocks - 1)); // diagonal always kept
            for _ in 0..keep_per_row {
                let kb = next(qt + 1).min(num_k_blocks - 1);
                m.set(qt, kb);
            }
        }
        m
    }
}

impl BlockPattern for MaskPattern {
    fn decide(&self, qt: usize, kb: usize, tq: usize, tk: usize, seq_len: usize) -> BlockDecision {
        let causal = causal_decide(qt, kb, tq, tk, seq_len);
        if causal == BlockDecision::Skip || !self.get(qt, kb) {
            BlockDecision::Skip
        } else {
            causal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_counts_are_triangular() {
        // 4 tiles of 16 over 64 tokens: visited = 4+3+2+1 = 10 (Figure 4(a) analogue).
        let (v, t) = DensePattern.tile_counts(16, 16, 64);
        assert_eq!(v, 10);
        assert_eq!(t, 10);
    }

    #[test]
    fn dense_diagonal_is_causal_past_is_full() {
        assert_eq!(DensePattern.decide(2, 2, 16, 16, 64), BlockDecision::Causal);
        assert_eq!(DensePattern.decide(2, 1, 16, 16, 64), BlockDecision::Full);
        assert_eq!(DensePattern.decide(2, 3, 16, 16, 64), BlockDecision::Skip);
    }

    #[test]
    fn figure4b_sparsity_ratio() {
        // Figure 4(b): 10 of 21 blocks non-empty → speedup 21/10 = 2.1x. Build that
        // exact situation: 6 tiles, keep 10 via a mask, verify the ratio helper.
        let seq = 6 * 8;
        let mut m = MaskPattern::new(6, 6);
        // Keep diagonal (6) plus 4 extra past blocks = 10 visited.
        for qt in 0..6 {
            m.set(qt, qt);
        }
        m.set(3, 0);
        m.set(4, 1);
        m.set(5, 0);
        m.set(5, 2);
        let (v, t) = m.tile_counts(8, 8, seq);
        assert_eq!(t, 21);
        assert_eq!(v, 10);
        let speedup = t as f64 / v as f64;
        assert!((speedup - 2.1).abs() < 1e-9);
    }

    #[test]
    fn streaming_keeps_constant_blocks_per_tile() {
        let p = StreamingPattern::new(1, 2);
        for qt in 3..10 {
            let blocks = p.blocks_for_tile(qt, 16, 16, 16 * 32);
            // one sink + two local
            assert_eq!(blocks.len(), 3, "tile {qt}");
        }
    }

    #[test]
    fn streaming_early_tiles_degenerate_to_dense() {
        let p = StreamingPattern::new(1, 2);
        let d = DensePattern;
        for qt in 0..2 {
            for kb in 0..4 {
                assert_eq!(
                    p.decide(qt, kb, 16, 16, 512),
                    d.decide(qt, kb, 16, 16, 512),
                    "qt={qt} kb={kb}"
                );
            }
        }
    }

    #[test]
    fn streaming_linear_vs_dense_quadratic() {
        let p = StreamingPattern::new(1, 2);
        let (v, t) = p.tile_counts(16, 16, 16 * 100);
        assert!(v <= 3 * 100);
        assert_eq!(t, (100 * 101 / 2) as u64);
    }

    #[test]
    fn streaming_never_visits_future() {
        let p = StreamingPattern::new(2, 3);
        for qt in 0..20 {
            for (kb, _) in p.blocks_for_tile(qt, 8, 8, 8 * 20) {
                assert!(kb <= qt);
            }
        }
    }

    #[test]
    fn mask_intersects_causality() {
        let mut m = MaskPattern::new(4, 4);
        m.set(1, 3); // future of tile 1 → must stay skipped
        assert_eq!(m.decide(1, 3, 16, 16, 64), BlockDecision::Skip);
        m.set(3, 3);
        assert_eq!(m.decide(3, 3, 16, 16, 64), BlockDecision::Causal);
    }

    #[test]
    fn unset_mask_visits_nothing() {
        let m = MaskPattern::new(4, 4);
        let (v, _) = m.tile_counts(16, 16, 64);
        assert_eq!(v, 0);
    }

    #[test]
    fn random_causal_mask_keeps_diagonal() {
        let m = MaskPattern::random_causal(8, 8, 2, 42);
        for qt in 0..8 {
            assert_eq!(m.decide(qt, qt, 4, 4, 32), BlockDecision::Causal);
        }
    }

    #[test]
    fn ragged_tail_tile_decisions() {
        // 40 tokens with 16-token tiles: last tile covers 32..40.
        assert_eq!(DensePattern.decide(2, 2, 16, 16, 40), BlockDecision::Causal);
        assert_eq!(DensePattern.decide(2, 1, 16, 16, 40), BlockDecision::Full);
        // Query tile 1 (16..32) vs kv block 2 (32..40): future → skip.
        assert_eq!(DensePattern.decide(1, 2, 16, 16, 40), BlockDecision::Skip);
    }

    #[test]
    #[should_panic(expected = "square tiles")]
    fn streaming_requires_square_tiles() {
        let _ = StreamingPattern::new(1, 1).decide(0, 0, 8, 16, 64);
    }
}
