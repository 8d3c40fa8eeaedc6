//! One layer's KV cache: a head table per KV head, fed a token at a time.

use crate::{DenseHeadCache, PagePool};

/// Appends one token's `(key, value)` rows to a layer's heads, in head order.
///
/// A layer's cache is one [`DenseHeadCache`] per KV head, split by the static
/// (offline) classification of §3.3: a streaming head's table has a window.
/// This is the "two-way paged KV cache" of Figure 5 at the granularity the
/// kernels consume it.
///
/// `keys`/`values` are row-major `(heads.len() x head_dim)`. Returns `false`
/// at the first head the pool cannot take a row for (heads before it keep
/// their row; callers treat this as a fatal out-of-memory for the sequence).
///
/// # Panics
///
/// Panics if `keys` and `values` are not both `heads.len()` rows of one width.
///
/// # Example
///
/// ```
/// use lserve_kvcache::{append_token, DenseHeadCache, PagePool, PagingConfig, StreamingWindow};
/// use lserve_quant::KvPrecision;
///
/// let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
/// let mut pool = PagePool::new(cfg, 64, 2);
/// // Head 0 dense, head 1 streaming.
/// let window = StreamingWindow::paper_default();
/// let mut layer: Vec<DenseHeadCache> = [false, true]
///     .iter()
///     .map(|&streaming| DenseHeadCache::with_window(streaming.then_some(window)))
///     .collect();
/// assert!(append_token(&mut layer, &mut pool, &[1.0; 4], &[2.0; 4]));
/// assert!(layer.iter().all(|h| h.tokens() == 1));
/// assert_eq!(layer[1].window(), Some(window));
/// ```
pub fn append_token(
    heads: &mut [DenseHeadCache],
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
    use crate::{PagingConfig, StreamingWindow};
    use lserve_quant::KvPrecision;

    fn setup() -> (PagePool, Vec<DenseHeadCache>) {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let pool = PagePool::new(cfg, 256, 2);
        let window = StreamingWindow::new(1, 2);
        let heads =
            [false, true, false, true].map(|s| DenseHeadCache::with_window(s.then_some(window)));
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
        assert_eq!(c[0].num_pages(), 50);
        assert!(c[1].num_pages() <= 3);
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
}
