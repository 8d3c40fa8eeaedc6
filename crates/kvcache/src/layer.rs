//! Per-layer two-way composition: dense heads and streaming heads side by side.

use crate::{DenseHeadCache, PageId, PagePool, StreamingHeadCache, StreamingWindow};

/// The KV cache of one head: either a dense (retrieval) head keeping full history or
/// a streaming head keeping only sink + local pages. A layer's cache is one
/// per KV head, split by the static (offline) classification of §3.3.
///
/// This is the "two-way paged KV cache" of Figure 5 at the granularity the kernels
/// consume it. Both kinds are a [`DenseHeadCache`] page table underneath
/// ([`HeadCache::table`]); a streaming head also frees its middle.
///
/// # Example
///
/// ```
/// use lserve_kvcache::{append_token, HeadCache, PagePool, PagingConfig, StreamingWindow};
/// use lserve_quant::KvPrecision;
///
/// let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
/// let mut pool = PagePool::new(cfg, 64, 2);
/// // Head 0 dense, head 1 streaming.
/// let window = StreamingWindow::paper_default();
/// let mut layer: Vec<HeadCache> = [false, true]
///     .iter()
///     .map(|&streaming| HeadCache::new(streaming, window))
///     .collect();
/// assert!(append_token(&mut layer, &mut pool, &[1.0; 4], &[2.0; 4]));
/// assert!(layer.iter().all(|h| h.tokens() == 1));
/// assert!(layer[1].is_streaming());
/// ```
#[derive(Debug, Clone)]
pub enum HeadCache {
    /// Full-history head with key statistics for page selection.
    Dense(DenseHeadCache),
    /// Λ-masked head retaining only sink and local pages.
    Streaming(StreamingHeadCache),
}

impl HeadCache {
    /// An empty head: a streaming one with `window` if `streaming`, else a
    /// dense one.
    pub fn new(streaming: bool, window: StreamingWindow) -> Self {
        if streaming {
            HeadCache::Streaming(StreamingHeadCache::new(window))
        } else {
            HeadCache::Dense(DenseHeadCache::new())
        }
    }

    /// True for the streaming variant.
    pub fn is_streaming(&self) -> bool {
        matches!(self, HeadCache::Streaming(_))
    }

    /// The head's page table (a streaming head's holds its sink and local
    /// pages only).
    pub fn table(&self) -> &DenseHeadCache {
        match self {
            HeadCache::Dense(c) => c,
            HeadCache::Streaming(c) => c.table(),
        }
    }

    /// Total tokens ever appended to this head.
    pub fn tokens(&self) -> usize {
        self.table().tokens()
    }

    /// True when appending the next token must allocate a fresh pool page
    /// (transiently, for streaming heads that evict after allocating).
    pub fn needs_page_for_next_append(&self, pool: &PagePool) -> bool {
        self.table().needs_page_for_next_append(pool)
    }

    /// Every page this head references: the set the pool's whole-set
    /// operations ([`PagePool::demote_all`] and friends) take.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.table().page_ids()
    }

    /// Appends one `(key, value)` row. Returns `false` if the pool is exhausted.
    pub fn append(&mut self, pool: &mut PagePool, key: &[f32], value: &[f32]) -> bool {
        match self {
            HeadCache::Dense(c) => c.append(pool, key, value),
            HeadCache::Streaming(c) => c.append(pool, key, value),
        }
    }

    /// Frees all pages.
    pub fn release(&mut self, pool: &mut PagePool) {
        match self {
            HeadCache::Dense(c) => c.release(pool),
            HeadCache::Streaming(c) => c.release(pool),
        }
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
}

/// Appends one token's `(key, value)` rows to a layer's heads, in head order.
///
/// `keys`/`values` are row-major `(heads.len() x head_dim)`. Returns `false`
/// at the first head the pool cannot take a row for (heads before it keep
/// their row; callers treat this as a fatal out-of-memory for the sequence).
///
/// # Panics
///
/// Panics if `keys` and `values` are not both `heads.len()` rows of one width.
pub fn append_token(
    heads: &mut [HeadCache],
    pool: &mut PagePool,
    keys: &[f32],
    values: &[f32],
) -> bool {
    let d = keys.len() / heads.len().max(1);
    assert!(
        d > 0 && keys.len() == heads.len() * d && values.len() == keys.len(),
        "rows of {} keys and {} values for {} heads",
        keys.len(),
        values.len(),
        heads.len()
    );
    let rows = keys.chunks_exact(d).zip(values.chunks_exact(d));
    heads
        .iter_mut()
        .zip(rows)
        .all(|(head, (k, v))| head.append(pool, k, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagingConfig;
    use lserve_quant::KvPrecision;

    fn setup() -> (PagePool, Vec<HeadCache>) {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let pool = PagePool::new(cfg, 256, 2);
        let window = StreamingWindow::new(1, 2);
        let heads = [false, true, false, true].map(|s| HeadCache::new(s, window));
        (pool, heads.into())
    }

    #[test]
    fn append_token_feeds_every_head() {
        let (mut pool, mut c) = setup();
        let keys = vec![1.0f32; 8];
        let values = vec![2.0f32; 8];
        assert!(append_token(&mut c, &mut pool, &keys, &values));
        assert_eq!(c.len(), 4);
        for head in &c {
            assert_eq!(head.tokens(), 1);
        }
    }

    #[test]
    fn memory_asymmetry_between_head_kinds() {
        let (mut pool, mut c) = setup();
        let keys = vec![0.5f32; 8];
        let values = vec![0.5f32; 8];
        for _ in 0..200 {
            assert!(append_token(&mut c, &mut pool, &keys, &values));
        }
        // Dense heads: ceil(200/4)=50 pages each. Streaming: <= 3 pages each.
        let dense_pages = c[0].as_dense().num_pages();
        let stream_pages = c[1].table().num_pages();
        assert_eq!(dense_pages, 50);
        assert!(stream_pages <= 3);
        assert_eq!(c[1].tokens(), 200, "evicted tokens stay counted");
        assert!(pool.in_use() <= 2 * 50 + 2 * 3);
    }

    #[test]
    fn release_empties_pool() {
        let (mut pool, mut c) = setup();
        let keys = vec![0.0f32; 8];
        let values = vec![0.0f32; 8];
        for _ in 0..30 {
            append_token(&mut c, &mut pool, &keys, &values);
        }
        for head in &mut c {
            head.release(&mut pool);
        }
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "expected dense head")]
    fn wrong_kind_access_panics() {
        let (_, c) = setup();
        let _ = c[1].as_dense();
    }
}
