//! Per-layer two-way composition: dense heads and streaming heads side by side.

use crate::{DenseHeadCache, PageId, PagePool, StreamingHeadCache, StreamingWindow};

/// The KV cache of one head: either a dense (retrieval) head keeping full history or
/// a streaming head keeping only sink + local pages.
///
/// This is the "two-way paged KV cache" of Figure 5 at the granularity the kernels
/// consume it.
#[derive(Debug, Clone)]
pub enum HeadCache {
    /// Full-history head with key statistics for page selection.
    Dense(DenseHeadCache),
    /// Λ-masked head retaining only sink and local pages.
    Streaming(StreamingHeadCache),
}

impl HeadCache {
    /// True for the streaming variant.
    pub fn is_streaming(&self) -> bool {
        matches!(self, HeadCache::Streaming(_))
    }

    /// Total tokens ever appended to this head.
    pub fn tokens(&self) -> usize {
        match self {
            HeadCache::Dense(c) => c.tokens(),
            HeadCache::Streaming(c) => c.tokens(),
        }
    }

    /// Appends one `(key, value)` row. Returns `false` if the pool is exhausted.
    pub fn append(&mut self, pool: &mut PagePool, key: &[f32], value: &[f32]) -> bool {
        match self {
            HeadCache::Dense(c) => c.append(pool, key, value),
            HeadCache::Streaming(c) => c.append(pool, key, value),
        }
    }

    /// True when appending the next token must allocate a fresh pool page
    /// (transiently, for streaming heads that evict after allocating).
    pub fn needs_page_for_next_append(&self, pool: &PagePool) -> bool {
        match self {
            HeadCache::Dense(c) => c.needs_page_for_next_append(pool),
            HeadCache::Streaming(c) => c.needs_page_for_next_append(pool),
        }
    }

    /// Frees all pages.
    pub fn release(&mut self, pool: &mut PagePool) {
        match self {
            HeadCache::Dense(c) => c.release(pool),
            HeadCache::Streaming(c) => c.release(pool),
        }
    }

    /// Every page this head references: the set the pool's whole-set
    /// operations ([`PagePool::demote_all`] and friends) take.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        let (dense, streaming) = match self {
            HeadCache::Dense(c) => (Some(c.page_ids()), None),
            HeadCache::Streaming(c) => (None, Some(c.page_ids())),
        };
        dense
            .into_iter()
            .flatten()
            .chain(streaming.into_iter().flatten())
    }

    /// Borrow the dense cache.
    ///
    /// # Panics
    ///
    /// Panics if this is a streaming head.
    pub fn as_dense(&self) -> &DenseHeadCache {
        match self {
            HeadCache::Dense(c) => c,
            HeadCache::Streaming(_) => panic!("expected dense head"),
        }
    }

    /// Borrow the streaming cache.
    ///
    /// # Panics
    ///
    /// Panics if this is a dense head.
    pub fn as_streaming(&self) -> &StreamingHeadCache {
        match self {
            HeadCache::Streaming(c) => c,
            HeadCache::Dense(_) => panic!("expected streaming head"),
        }
    }
}

/// One transformer layer's KV cache: one [`HeadCache`] per KV head, partitioned into
/// dense and streaming heads by the static (offline) classification of §3.3.
///
/// # Example
///
/// ```
/// use lserve_kvcache::{LayerKvCache, PagePool, PagingConfig, StreamingWindow};
/// use lserve_quant::KvPrecision;
///
/// let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
/// let mut pool = PagePool::new(cfg, 64, 8);
/// // Head 0 dense, head 1 streaming.
/// let cache = LayerKvCache::new(&[false, true], StreamingWindow::paper_default());
/// assert!(!cache.head(0).is_streaming());
/// assert!(cache.head(1).is_streaming());
/// # let _ = pool;
/// ```
#[derive(Debug, Clone)]
pub struct LayerKvCache {
    heads: Vec<HeadCache>,
}

impl LayerKvCache {
    /// Creates the layer cache from a per-KV-head streaming mask (`true` = streaming
    /// head) and the streaming window geometry.
    pub fn new(streaming_mask: &[bool], window: StreamingWindow) -> Self {
        let heads = streaming_mask
            .iter()
            .map(|&s| {
                if s {
                    HeadCache::Streaming(StreamingHeadCache::new(window))
                } else {
                    HeadCache::Dense(DenseHeadCache::new())
                }
            })
            .collect();
        Self { heads }
    }

    /// Number of KV heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Access one head's cache.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of bounds.
    pub fn head(&self, h: usize) -> &HeadCache {
        &self.heads[h]
    }

    /// Appends one token's `(key, value)` rows for all heads at once.
    ///
    /// `keys`/`values` are row-major `(num_heads x head_dim)`. Returns `false` if any
    /// head ran out of pool space (heads appended before the failure keep their row;
    /// callers treat this as a fatal out-of-memory for the sequence).
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes do not match `num_heads * head_dim`.
    pub fn append_token(
        &mut self,
        pool: &mut PagePool,
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    ) -> bool {
        assert_eq!(
            keys.len(),
            self.heads.len() * head_dim,
            "keys size mismatch"
        );
        assert_eq!(
            values.len(),
            self.heads.len() * head_dim,
            "values size mismatch"
        );
        for (h, cache) in self.heads.iter_mut().enumerate() {
            let k = &keys[h * head_dim..(h + 1) * head_dim];
            let v = &values[h * head_dim..(h + 1) * head_dim];
            if !cache.append(pool, k, v) {
                return false;
            }
        }
        true
    }

    /// Exact number of fresh pool pages appending one token to every head will
    /// allocate (counting streaming heads' transient evict-after-alloc demand).
    ///
    /// A scheduler that reserves this many free pages before a decode step is
    /// guaranteed the step cannot fail mid-layer with an out-of-pages error.
    pub fn pages_needed_for_next_token(&self, pool: &PagePool) -> usize {
        self.heads
            .iter()
            .filter(|h| h.needs_page_for_next_append(pool))
            .count()
    }

    /// Frees all pages of all heads.
    pub fn release(&mut self, pool: &mut PagePool) {
        for h in &mut self.heads {
            h.release(pool);
        }
    }

    /// Every page of every head: the set the pool's whole-set operations
    /// ([`PagePool::demote_all`] and friends) take.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.heads.iter().flat_map(HeadCache::page_ids)
    }

    /// Tokens stored (identical across heads by construction; reported from head 0).
    pub fn tokens(&self) -> usize {
        self.heads.first().map(HeadCache::tokens).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagingConfig;
    use lserve_quant::KvPrecision;

    fn setup() -> (PagePool, LayerKvCache) {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let pool = PagePool::new(cfg, 256, 2);
        let cache = LayerKvCache::new(&[false, true, false, true], StreamingWindow::new(1, 2));
        (pool, cache)
    }

    #[test]
    fn append_token_feeds_every_head() {
        let (mut pool, mut c) = setup();
        let keys = vec![1.0f32; 8];
        let values = vec![2.0f32; 8];
        assert!(c.append_token(&mut pool, &keys, &values, 2));
        assert_eq!(c.tokens(), 1);
        for h in 0..4 {
            assert_eq!(c.head(h).tokens(), 1);
        }
    }

    #[test]
    fn memory_asymmetry_between_head_kinds() {
        let (mut pool, mut c) = setup();
        let keys = vec![0.5f32; 8];
        let values = vec![0.5f32; 8];
        for _ in 0..200 {
            assert!(c.append_token(&mut pool, &keys, &values, 2));
        }
        // Dense heads: ceil(200/4)=50 pages each. Streaming: <= 3 pages each.
        let dense_pages = c.head(0).as_dense().num_pages();
        let stream_pages = c.head(1).as_streaming().resident_pages();
        assert_eq!(dense_pages, 50);
        assert!(stream_pages <= 3);
        assert!(pool.in_use() <= 2 * 50 + 2 * 3);
    }

    #[test]
    fn release_empties_pool() {
        let (mut pool, mut c) = setup();
        let keys = vec![0.0f32; 8];
        let values = vec![0.0f32; 8];
        for _ in 0..30 {
            c.append_token(&mut pool, &keys, &values, 2);
        }
        c.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "expected dense head")]
    fn wrong_kind_access_panics() {
        let (_, c) = setup();
        let _ = c.head(1).as_dense();
    }
}
