//! Importance scoring of logical and physical pages (Eq. 2 and Figure 7).

use lserve_kvcache::{DenseHeadCache, PagePool};

/// Eq. 2 importance of every *logical* page of a dense head, flattened in page order
/// (physical page 0's logical pages first). The score of a logical page is the max
/// over the query group of `Σ_i max(q[i]·kmax[i], q[i]·kmin[i])`.
///
/// Empty logical pages (in the trailing, partially filled physical page) score
/// `-inf`.
///
/// # Panics
///
/// Panics if `queries` is empty or any query has the wrong dimension.
pub fn logical_scores(pool: &PagePool, cache: &DenseHeadCache, queries: &[&[f32]]) -> Vec<f32> {
    assert!(!queries.is_empty(), "need at least one query row");
    let g = pool.config().logical_per_physical();
    let mut out = vec![f32::NEG_INFINITY; cache.num_pages() * g];
    let mut scores = vec![0.0f32; g];
    for (&id, best) in cache.page_table().iter().zip(out.chunks_mut(g)) {
        let page = pool.page(id);
        for q in queries {
            page.logical_importance(q, &mut scores);
            for (b, &s) in best.iter_mut().zip(&scores) {
                if s > *b {
                    *b = s;
                }
            }
        }
    }
    out
}

/// Physical page scores under LServe's **hierarchical** policy: the max over each
/// physical page's logical scores ("the importance of each physical page is
/// determined by the max-reduction over the importance scores of its corresponding
/// logical pages", §3.5.2).
pub fn physical_scores_hierarchical(
    pool: &PagePool,
    cache: &DenseHeadCache,
    queries: &[&[f32]],
) -> Vec<f32> {
    let g = pool.config().logical_per_physical();
    let logical = logical_scores(pool, cache, queries);
    logical
        .chunks(g)
        .map(|chunk| chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max))
        .collect()
}

/// Physical page scores under the **flat** (Quest) policy: one min/max representative
/// for the whole physical page, i.e. the logical statistics merged before scoring.
///
/// When `N_P > N_L` this is *not* the same as the hierarchical score: merging first
/// loosens the bound, which is exactly the homogenization failure of Figure 6.
pub fn physical_scores_flat(
    pool: &PagePool,
    cache: &DenseHeadCache,
    queries: &[&[f32]],
) -> Vec<f32> {
    assert!(!queries.is_empty(), "need at least one query row");
    cache
        .page_table()
        .iter()
        .map(|&id| {
            let page = pool.page(id);
            queries.iter().fold(f32::NEG_INFINITY, |best, q| {
                best.max(page.merged_importance(q))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_kvcache::PagingConfig;
    use lserve_quant::KvPrecision;

    fn build_cache(keys: &[[f32; 2]], np: usize, nl: usize) -> (PagePool, DenseHeadCache) {
        let cfg = PagingConfig::new(np, nl, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 64, 2);
        let mut cache = DenseHeadCache::new();
        for k in keys {
            assert!(cache.append(&mut pool, k, &[0.0, 0.0]));
        }
        (pool, cache)
    }

    #[test]
    fn logical_scores_flattened_in_order() {
        let keys = [[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [0.0, 4.0], [5.0, 0.0]];
        let (pool, cache) = build_cache(&keys, 4, 2);
        let q = [1.0f32, 0.0];
        let s = logical_scores(&pool, &cache, &[&q]);
        // 2 physical pages x 2 logical each = 4 logical pages.
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], 2.0); // tokens 0-1, max q.k = 2
        assert_eq!(s[1], 0.0); // tokens 2-3, q.k = 0
        assert_eq!(s[2], 5.0); // token 4
        assert_eq!(s[3], f32::NEG_INFINITY); // empty logical page
    }

    #[test]
    fn hierarchical_is_max_reduction() {
        let keys = [[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [0.0, 4.0]];
        let (pool, cache) = build_cache(&keys, 4, 2);
        let q = [0.0f32, 1.0];
        let phys = physical_scores_hierarchical(&pool, &cache, &[&q]);
        assert_eq!(phys, vec![4.0]); // max(0, 4)
    }

    #[test]
    fn flat_loosens_bound_vs_hierarchical() {
        // Keys engineered so merging min/max across the physical page creates a
        // phantom high score: channel 0 high in first half, channel 1 high in second.
        let keys = [[9.0, -9.0], [9.0, -9.0], [-9.0, 9.0], [-9.0, 9.0]];
        let (pool, cache) = build_cache(&keys, 4, 2);
        let q = [1.0f32, 1.0];
        let flat = physical_scores_flat(&pool, &cache, &[&q])[0];
        let hier = physical_scores_hierarchical(&pool, &cache, &[&q])[0];
        // Hierarchical: each logical page scores 9 + (-9)·... max(q·kmax,q·kmin):
        // page a: ch0 in {9}, ch1 in {-9} → 9 - 9 = 0. Same for page b → 0.
        // Flat merged: ch0 max 9, ch1 max 9 → 18.
        assert_eq!(hier, 0.0);
        assert_eq!(flat, 18.0);
        assert!(flat > hier, "flat must be the looser bound");
    }

    #[test]
    fn flat_equals_hierarchical_when_np_equals_nl() {
        let keys = [[1.0, 2.0], [3.0, -1.0], [0.5, 0.5], [-2.0, 1.0]];
        let (pool, cache) = build_cache(&keys, 2, 2);
        let q = [0.3f32, -0.7];
        let flat = physical_scores_flat(&pool, &cache, &[&q]);
        let hier = physical_scores_hierarchical(&pool, &cache, &[&q]);
        assert_eq!(flat, hier);
    }

    #[test]
    fn group_queries_take_max() {
        let keys = [[1.0, 0.0], [0.0, 1.0]];
        let (pool, cache) = build_cache(&keys, 2, 2);
        let q1 = [1.0f32, 0.0];
        let q2 = [0.0f32, 1.0];
        let solo1 = physical_scores_flat(&pool, &cache, &[&q1])[0];
        let both = physical_scores_flat(&pool, &cache, &[&q1, &q2])[0];
        assert!(both >= solo1);
    }
}
