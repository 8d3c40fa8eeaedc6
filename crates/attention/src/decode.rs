//! Paged decode attention kernel (`TQ = 1`, §3.1 and §3.6).
//!
//! The query rows of one GQA group attend a page table through the [`PagePool`],
//! page by page through the shared block routine. Dense heads may be
//! restricted to a selected subset of physical pages (the dynamic sparsity of
//! Figure 4(d): "a dense attention kernel with shorter page tables", §3.2);
//! streaming heads iterate their resident sink+local pages, which *is* their whole
//! page table ("streaming heads are treated as dynamic sparse heads with index table
//! only containing the sink and local pages", §3.6).
//!
//! Pages are folded in the order given and that order is part of the result:
//! the same pages in another order agree to rounding, not to the bit (see
//! `block.rs`).

use lserve_kvcache::{DenseHeadCache, PageId, PagePool, StreamingHeadCache};

use crate::block::{finish_rows, fold_block, KvBlock, RowState};

/// Work counters for one decode-attention call (one head, one step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Physical pages the kernel iterated over.
    pub pages_visited: u64,
    /// Token rows folded into the softmax.
    pub tokens_visited: u64,
    /// Pages a dense kernel over the full history would have iterated.
    pub pages_total: u64,
}

/// Query rows of one GQA group whose softmax states [`attend_pages`] keeps on
/// the stack.
const INLINE_GROUP: usize = 8;

/// Attends the `d`-long rows of `queries` (one GQA group: they share the KV
/// head) to `pages` in order, writing one output row each into `out`. Counters
/// are per query head, so a page visited for the group counts once per row, as
/// do the `table_pages` a dense kernel over the full history would visit.
///
/// # Panics
///
/// Panics if `queries`/`out` are not the same whole number of `d`-long rows, if
/// `d` is not the pages' head dimension, or if a page is not hot.
fn attend_pages(
    pool: &PagePool,
    pages: impl Iterator<Item = PageId>,
    table_pages: usize,
    d: usize,
    queries: &[f32],
    scale: f32,
    out: &mut [f32],
) -> DecodeStats {
    assert_eq!(out.len(), queries.len(), "group output mismatch");
    assert_eq!(queries.len() % d, 0, "ragged query group");
    // A GQA group's softmax states live on the stack; only a group wider
    // than any model here runs takes a heap buffer.
    let mut inline = [RowState::EMPTY; INLINE_GROUP];
    let mut spilled = Vec::new();
    let rows: &mut [RowState] = match inline.get_mut(..queries.len() / d) {
        Some(rows) => rows,
        None => {
            spilled.resize(queries.len() / d, RowState::EMPTY);
            &mut spilled
        }
    };
    let group = rows.len() as u64;
    out.fill(0.0);
    let mut stats = DecodeStats {
        pages_total: group * table_pages as u64,
        ..DecodeStats::default()
    };
    for id in pages {
        // Residency precondition of the tiered KV memory: only hot
        // (device-resident) pages may feed the kernel — a cold page must be
        // promoted by the executor's residency pass before decode runs
        // (streaming windows are never demoted while the sequence runs, but a
        // swapped-in sequence must have been fully promoted too).
        assert!(
            pool.is_hot(id),
            "decode kernel read of cold page {id:?}: promote before attending"
        );
        let page = pool.page(id);
        assert_eq!(page.head_dim(), d, "query dimension mismatch");
        let block = KvBlock {
            keys: page.key_lanes(),
            values: page.value_rows(),
        };
        fold_block(d, queries, scale, block, None, rows, out);
        stats.pages_visited += group;
        stats.tokens_visited += group * page.len() as u64;
    }
    finish_rows(d, rows, out);
    stats
}

/// Decode attention of one GQA group against a dense head: see
/// [`decode_dense_head`], which is the group of one.
pub(crate) fn decode_dense_group(
    pool: &PagePool,
    cache: &DenseHeadCache,
    d: usize,
    queries: &[f32],
    scale: f32,
    selected_pages: Option<&[usize]>,
    out: &mut [f32],
) -> DecodeStats {
    let table = cache.page_table();
    match selected_pages {
        Some(sel) => {
            let pages = sel.iter().map(|&p| {
                assert!(
                    p < table.len(),
                    "selected page {p} out of range ({})",
                    table.len()
                );
                table[p]
            });
            attend_pages(pool, pages, table.len(), d, queries, scale, out)
        }
        None => {
            let pages = table.iter().copied();
            attend_pages(pool, pages, table.len(), d, queries, scale, out)
        }
    }
}

/// Decode attention of one GQA group against a streaming head: see
/// [`decode_streaming_head`], which is the group of one.
pub(crate) fn decode_streaming_group(
    pool: &PagePool,
    cache: &StreamingHeadCache,
    d: usize,
    queries: &[f32],
    scale: f32,
    out: &mut [f32],
) -> DecodeStats {
    let pages = cache.page_ids();
    let full_pages = pool.config().pages_for(cache.tokens());
    attend_pages(pool, pages, full_pages, d, queries, scale, out)
}

/// Decode attention for a dense head.
///
/// `selected_pages`, when given, lists indices into `cache.page_table()` to visit
/// (the shorter page table produced by the page selector), in visiting order;
/// `None` means dense attention over the full history.
///
/// # Panics
///
/// Panics if `q.len()` differs from the cache's head dimension, or a selected page
/// index is out of range.
pub fn decode_dense_head(
    pool: &PagePool,
    cache: &DenseHeadCache,
    q: &[f32],
    scale: f32,
    selected_pages: Option<&[usize]>,
) -> (Vec<f32>, DecodeStats) {
    let mut out = vec![0.0; q.len()];
    let stats = decode_dense_group(pool, cache, q.len(), q, scale, selected_pages, &mut out);
    (out, stats)
}

/// Decode attention for a streaming head: visits exactly the resident sink and local
/// pages.
///
/// # Panics
///
/// Panics if `q.len()` differs from the cache's head dimension.
pub fn decode_streaming_head(
    pool: &PagePool,
    cache: &StreamingHeadCache,
    q: &[f32],
    scale: f32,
) -> (Vec<f32>, DecodeStats) {
    let mut out = vec![0.0; q.len()];
    let stats = decode_streaming_group(pool, cache, q.len(), q, scale, &mut out);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::masked_attention_reference;
    use lserve_kvcache::{PagingConfig, StreamingWindow};
    use lserve_quant::KvPrecision;
    use lserve_tensor::{Matrix, SeededGaussian};

    fn fill_dense(pool: &mut PagePool, cache: &mut DenseHeadCache, k: &Matrix, v: &Matrix) {
        for t in 0..k.rows() {
            assert!(cache.append(pool, k.row(t), v.row(t)));
        }
    }

    #[test]
    fn full_history_decode_matches_reference() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 64, 8);
        let mut cache = DenseHeadCache::new();
        let mut g = SeededGaussian::new(21);
        let k = g.matrix(19, 8, 1.0);
        let v = g.matrix(19, 8, 1.0);
        fill_dense(&mut pool, &mut cache, &k, &v);
        let q = g.matrix(1, 8, 1.0);
        let scale = 1.0 / (8f32).sqrt();
        let (got, stats) = decode_dense_head(&pool, &cache, q.row(0), scale, None);
        let want = masked_attention_reference(&q, &k, &v, scale, |_, _| true);
        for (a, b) in got.iter().zip(want.row(0)) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(stats.pages_visited, 5);
        assert_eq!(stats.tokens_visited, 19);
    }

    #[test]
    fn selected_pages_restrict_attention() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 64, 4);
        let mut cache = DenseHeadCache::new();
        let mut g = SeededGaussian::new(8);
        let k = g.matrix(16, 4, 1.0);
        let v = g.matrix(16, 4, 1.0);
        fill_dense(&mut pool, &mut cache, &k, &v);
        let q = g.matrix(1, 4, 1.0);
        let sel = [0usize, 3];
        let (got, stats) = decode_dense_head(&pool, &cache, q.row(0), 0.5, Some(&sel));
        let want = masked_attention_reference(&q, &k, &v, 0.5, |_, j| j / 4 == 0 || j / 4 == 3);
        for (a, b) in got.iter().zip(want.row(0)) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(stats.pages_visited, 2);
        assert_eq!(stats.pages_total, 4);
    }

    #[test]
    fn selection_order_matters_only_to_rounding() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 64, 4);
        let mut cache = DenseHeadCache::new();
        let mut g = SeededGaussian::new(13);
        let k = g.matrix(20, 4, 1.0);
        let v = g.matrix(20, 4, 1.0);
        fill_dense(&mut pool, &mut cache, &k, &v);
        let q: Vec<f32> = g.matrix(1, 4, 1.0).as_slice().to_vec();
        let (a, _) = decode_dense_head(&pool, &cache, &q, 0.5, Some(&[0, 2, 4]));
        let (b, _) = decode_dense_head(&pool, &cache, &q, 0.5, Some(&[4, 0, 2]));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
        // The same order again is the same bits.
        let (c, _) = decode_dense_head(&pool, &cache, &q, 0.5, Some(&[0, 2, 4]));
        assert_eq!(a, c);
    }

    #[test]
    fn streaming_decode_matches_lambda_mask() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 64, 4);
        let mut cache = StreamingHeadCache::new(StreamingWindow::new(1, 2));
        let mut g = SeededGaussian::new(31);
        let n = 30;
        let k = g.matrix(n, 4, 1.0);
        let v = g.matrix(n, 4, 1.0);
        for t in 0..n {
            assert!(cache.append(&mut pool, k.row(t), v.row(t)));
        }
        let q = g.matrix(1, 4, 1.0);
        let (got, stats) = decode_streaming_head(&pool, &cache, q.row(0), 0.5);
        // Resident tokens: sink page [0,4) + the local pages the cache retained.
        let resident: Vec<usize> = cache
            .page_table(&pool)
            .iter()
            .flat_map(|&(start, id)| (start..start + pool.page(id).len()).collect::<Vec<_>>())
            .collect();
        let want = masked_attention_reference(&q, &k, &v, 0.5, |_, j| resident.contains(&j));
        for (a, b) in got.iter().zip(want.row(0)) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(stats.pages_visited <= 3);
        assert_eq!(stats.pages_total, pool.config().pages_for(n) as u64);
    }

    #[test]
    fn quantized_pages_close_to_fp_reference() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Int8);
        let mut pool = PagePool::new(cfg, 64, 8);
        let mut cache = DenseHeadCache::new();
        let mut g = SeededGaussian::new(77);
        let k = g.matrix(24, 8, 1.0);
        let v = g.matrix(24, 8, 1.0);
        fill_dense(&mut pool, &mut cache, &k, &v);
        let q = g.matrix(1, 8, 1.0);
        let scale = 1.0 / (8f32).sqrt();
        let (got, _) = decode_dense_head(&pool, &cache, q.row(0), scale, None);
        let want = masked_attention_reference(&q, &k, &v, scale, |_, _| true);
        for (a, b) in got.iter().zip(want.row(0)) {
            assert!((a - b).abs() < 0.05, "int8 decode drifted: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "cold page")]
    fn decode_refuses_cold_pages() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 8, 4);
        let mut cache = DenseHeadCache::new();
        for i in 0..6 {
            cache.append(&mut pool, &[i as f32; 4], &[0.0; 4]);
        }
        // Page 0 moves to the cold tier; attending it must trip the residency
        // precondition rather than silently reading host memory.
        pool.demote(cache.page_table()[0]).unwrap();
        let _ = decode_dense_head(&pool, &cache, &[1.0; 4], 0.5, Some(&[0]));
    }

    #[test]
    fn decode_skips_cold_pages_outside_selection() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 8, 4);
        let mut cache = DenseHeadCache::new();
        let mut g = SeededGaussian::new(3);
        let k = g.matrix(10, 4, 1.0);
        let v = g.matrix(10, 4, 1.0);
        fill_dense(&mut pool, &mut cache, &k, &v);
        let q = g.matrix(1, 4, 1.0);
        let (want, _) = decode_dense_head(&pool, &cache, q.row(0), 0.5, Some(&[1, 2]));
        // A cold page that the selection does not visit is harmless.
        pool.demote(cache.page_table()[0]).unwrap();
        let (got, _) = decode_dense_head(&pool, &cache, q.row(0), 0.5, Some(&[1, 2]));
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_selection_panics() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 8, 4);
        let mut cache = DenseHeadCache::new();
        cache.append(&mut pool, &[0.0; 4], &[0.0; 4]);
        let _ = decode_dense_head(&pool, &cache, &[0.0; 4], 1.0, Some(&[5]));
    }
}
