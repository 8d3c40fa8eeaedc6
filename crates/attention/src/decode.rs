//! Paged decode attention kernel (`TQ = 1`, §3.1 and §3.6).
//!
//! The query rows of one GQA group attend a head's page table through the
//! [`PagePool`], page by page through the shared block routine, either whole
//! or restricted to a selected subset of its physical pages (the dynamic
//! sparsity of Figure 4(d): "a dense attention kernel with shorter page
//! tables", §3.2). A streaming head's table holds only its sink and local
//! pages, so reading it whole is reading its window ("streaming heads are
//! treated as dynamic sparse heads with index table only containing the sink
//! and local pages", §3.6).
//!
//! Pages are folded in the order given and that order is part of the result:
//! the same pages in another order agree to rounding, not to the bit (see
//! `block.rs`).

use lserve_kvcache::{DenseHeadCache, PageId, PagePool};

use crate::block::{finish_rows, fold_block, Causal, RowState};

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

/// Query rows whose softmax states [`fold_pages`] keeps on the stack.
const INLINE_ROWS: usize = 8;

/// Attends the `d`-long rows of `queries` to `pages` in order, writing one
/// output row each into `out`. The rows are `group` query heads (one GQA
/// group: they share the KV head) for each of the head's last
/// `queries.len() / (group * d)` positions, position-major. Several positions
/// are the rows of a run whose attention was deferred until they all read the
/// same pages: each page is folded once for all of them, and the tail page —
/// `tail`, holding every one of their keys — under a causal mask, so each row
/// sees the keys it saw when it was appended. No rows at all is a row whose
/// attention a later call does: only its work is counted.
///
/// Counters are for the head's last position and per query head, so a page
/// visited for the group counts once per head, as do the `history_pages` a
/// dense kernel over the full history would visit.
///
/// # Panics
///
/// Panics if `queries`/`out` are not the same whole number of `group × d`
/// rows, if `d` is not the pages' head dimension, or if a page is not hot.
#[allow(clippy::too_many_arguments)]
fn fold_pages(
    pool: &PagePool,
    pages: impl Iterator<Item = PageId>,
    (history_pages, tokens, tail): (usize, usize, Option<PageId>),
    d: usize,
    group: usize,
    queries: &[f32],
    scale: f32,
    out: &mut [f32],
) -> DecodeStats {
    assert_eq!(out.len(), queries.len(), "group output mismatch");
    assert_eq!(queries.len() % (group * d), 0, "ragged query group");
    let positions = queries.len() / (group * d);
    // The softmax states live on the stack; only a run of rows takes a heap
    // buffer.
    let mut inline = [RowState::EMPTY; INLINE_ROWS];
    let mut spilled = Vec::new();
    let rows: &mut [RowState] = match inline.get_mut(..queries.len() / d) {
        Some(rows) => rows,
        None => {
            spilled.resize(queries.len() / d, RowState::EMPTY);
            &mut spilled
        }
    };
    let group = group as u64;
    out.fill(0.0);
    let mut stats = DecodeStats {
        pages_total: group * history_pages as u64,
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
        stats.pages_visited += group;
        stats.tokens_visited += group * page.len() as u64;
        if positions == 0 {
            continue;
        }
        let causal = (positions > 1 && Some(id) == tail).then(|| Causal {
            q0: tokens - positions,
            k0: tokens - page.len(),
            rows_per_position: group as usize,
        });
        fold_block(d, queries, scale, page.data(), causal, rows, out);
    }
    finish_rows(d, rows, out);
    stats
}

/// Decode attention of `group` query heads against a head's table, whole or
/// its `selected_pages`, for its last `queries.len() / (group * d)`
/// positions (see [`fold_pages`]); [`attend_pages`] is one head at one
/// position. A table holds `ceil(tokens / N_P)` pages of history, whether or
/// not its window freed some.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_group(
    pool: &PagePool,
    cache: &DenseHeadCache,
    d: usize,
    group: usize,
    queries: &[f32],
    scale: f32,
    selected_pages: Option<&[usize]>,
    out: &mut [f32],
) -> DecodeStats {
    let table = cache.page_table();
    let history = pool.config().pages_for(cache.tokens());
    let head = (history, cache.tokens(), table.last().copied());
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
            fold_pages(pool, pages, head, d, group, queries, scale, out)
        }
        None => {
            let pages = table.iter().copied();
            fold_pages(pool, pages, head, d, group, queries, scale, out)
        }
    }
}

/// Decode attention of one query row against a head's page table.
///
/// `selected_pages`, when given, lists indices into `cache.page_table()` to visit
/// (the shorter page table produced by the page selector), in visiting order;
/// `None` reads the whole table: a dense head's full history, a streaming
/// head's sink and local pages.
///
/// # Panics
///
/// Panics if `q.len()` differs from the cache's head dimension, or a selected page
/// index is out of range.
pub fn attend_pages(
    pool: &PagePool,
    cache: &DenseHeadCache,
    q: &[f32],
    scale: f32,
    selected_pages: Option<&[usize]>,
) -> (Vec<f32>, DecodeStats) {
    let mut out = vec![0.0; q.len()];
    let stats = decode_group(pool, cache, q.len(), 1, q, scale, selected_pages, &mut out);
    (out, stats)
}

/// [`attend_pages`] under its old name, kept for the benchmark's pinned
/// surface. ROADMAP 1(f) deletes it.
pub fn decode_dense_head(
    pool: &PagePool,
    cache: &DenseHeadCache,
    q: &[f32],
    scale: f32,
    selected_pages: Option<&[usize]>,
) -> (Vec<f32>, DecodeStats) {
    attend_pages(pool, cache, q, scale, selected_pages)
}

/// [`attend_pages`] over the whole table, under its old name, kept for the
/// benchmark's pinned surface. ROADMAP 1(f) deletes it.
pub fn decode_streaming_head(
    pool: &PagePool,
    cache: &DenseHeadCache,
    q: &[f32],
    scale: f32,
) -> (Vec<f32>, DecodeStats) {
    attend_pages(pool, cache, q, scale, None)
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
        let (got, stats) = attend_pages(&pool, &cache, q.row(0), scale, None);
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
        let (got, stats) = attend_pages(&pool, &cache, q.row(0), 0.5, Some(&sel));
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
        let (a, _) = attend_pages(&pool, &cache, &q, 0.5, Some(&[0, 2, 4]));
        let (b, _) = attend_pages(&pool, &cache, &q, 0.5, Some(&[4, 0, 2]));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
        // The same order again is the same bits.
        let (c, _) = attend_pages(&pool, &cache, &q, 0.5, Some(&[0, 2, 4]));
        assert_eq!(a, c);
    }

    #[test]
    fn streaming_decode_matches_lambda_mask() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 64, 4);
        let mut cache = DenseHeadCache::with_window(Some(StreamingWindow::new(1, 2)));
        let mut g = SeededGaussian::new(31);
        let n = 30;
        let k = g.matrix(n, 4, 1.0);
        let v = g.matrix(n, 4, 1.0);
        for t in 0..n {
            assert!(cache.append(&mut pool, k.row(t), v.row(t)));
        }
        let q = g.matrix(1, 4, 1.0);
        let (got, stats) = attend_pages(&pool, &cache, q.row(0), 0.5, None);
        // Resident tokens: sink page [0,4) + the local pages the cache retained.
        let resident: Vec<usize> = cache
            .page_starts(&pool)
            .flat_map(|(start, id)| start..start + pool.page(id).len())
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
        let (got, _) = attend_pages(&pool, &cache, q.row(0), scale, None);
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
        let _ = attend_pages(&pool, &cache, &[1.0; 4], 0.5, Some(&[0]));
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
        let (want, _) = attend_pages(&pool, &cache, q.row(0), 0.5, Some(&[1, 2]));
        // A cold page that the selection does not visit is harmless.
        pool.demote(cache.page_table()[0]).unwrap();
        let (got, _) = attend_pages(&pool, &cache, q.row(0), 0.5, Some(&[1, 2]));
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_selection_panics() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 8, 4);
        let mut cache = DenseHeadCache::new();
        cache.append(&mut pool, &[0.0; 4], &[0.0; 4]);
        let _ = attend_pages(&pool, &cache, &[0.0; 4], 1.0, Some(&[5]));
    }
}
