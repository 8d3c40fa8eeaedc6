//! Needle-in-a-Haystack at the KV-cache level.

use lserve_kvcache::{DenseHeadCache, PagePool, PagingConfig};
use lserve_tensor::SeededGaussian;

/// Geometry and signal parameters of a NIAH case.
///
/// The haystack is `seq_len` Gaussian keys; the needle is `needle_tokens` consecutive
/// keys whose value spikes on `sparse_channels` randomly chosen channels, and the
/// query spikes on the same channels (plus noise). The spike/noise levels are chosen
/// so that fine-grained (16-token) page statistics rank the needle page safely inside
/// a 4096-token budget while coarse 64-token *flat* statistics — whose per-channel
/// maxima inflate with page size — push it out, reproducing the Figure 6 failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NiahConfig {
    /// Haystack length in tokens.
    pub seq_len: usize,
    /// Key/query dimension.
    pub head_dim: usize,
    /// Needle length in tokens.
    pub needle_tokens: usize,
    /// Channels carrying the needle signal.
    pub sparse_channels: usize,
    /// Signal magnitude on the active channels.
    pub spike: f32,
    /// Std of the noise added to the query.
    pub query_noise: f32,
}

impl NiahConfig {
    /// The default pressure-test geometry of Figures 6, 9 and 13.
    ///
    /// The spike is deliberately moderate (2.3): strong enough that 16-token page
    /// statistics rank the needle page reliably, weak enough that the channelwise
    /// maxima of 64-token *flat* pages (which grow like `sqrt(2 ln N_P)` over
    /// Gaussian background) genuinely compete with it — the regime where Figure 6's
    /// page-size dilemma appears.
    pub fn standard(seq_len: usize) -> Self {
        Self {
            seq_len,
            head_dim: 128,
            needle_tokens: 8,
            sparse_channels: 8,
            spike: 2.3,
            query_noise: 0.3,
        }
    }
}

/// One generated haystack + needle + probe query.
#[derive(Debug, Clone)]
pub struct NiahCase {
    config: NiahConfig,
    /// Row-major `(seq_len x head_dim)` keys.
    keys: Vec<f32>,
    /// The probe query (aligned with the needle signal).
    query: Vec<f32>,
    /// First token of the needle.
    needle_start: usize,
}

impl NiahCase {
    /// Generates a case with the needle at `depth` (0.0 = beginning, 1.0 = end of the
    /// haystack), deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `[0, 1]`, or the needle does not fit.
    pub fn generate(config: NiahConfig, depth: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&depth), "depth must be in [0,1]");
        assert!(config.needle_tokens < config.seq_len, "needle must fit");
        let mut g = SeededGaussian::new(seed);
        let d = config.head_dim;
        let mut keys = vec![0.0f32; config.seq_len * d];
        g.fill(&mut keys, 1.0);

        // Random sparse signal channels with random signs.
        let mut channels = Vec::with_capacity(config.sparse_channels);
        while channels.len() < config.sparse_channels {
            let c = g.index(d);
            if !channels.iter().any(|&(ch, _)| ch == c) {
                let sign = if g.uniform() < 0.5 { -1.0f32 } else { 1.0 };
                channels.push((c, sign));
            }
        }

        let max_start = config.seq_len - config.needle_tokens;
        let needle_start = ((depth * max_start as f64).round() as usize).min(max_start);
        for t in needle_start..needle_start + config.needle_tokens {
            for &(c, sign) in &channels {
                keys[t * d + c] = sign * config.spike + 0.1 * g.sample();
            }
        }

        let mut query = vec![0.0f32; d];
        g.fill(&mut query, config.query_noise);
        for &(c, sign) in &channels {
            query[c] += sign * config.spike;
        }

        Self {
            config,
            keys,
            query,
            needle_start,
        }
    }

    /// The generation parameters.
    pub fn config(&self) -> NiahConfig {
        self.config
    }

    /// The probe query row.
    pub fn query(&self) -> &[f32] {
        &self.query
    }

    /// Token range `[start, end)` of the needle.
    pub fn needle_range(&self) -> (usize, usize) {
        (
            self.needle_start,
            self.needle_start + self.config.needle_tokens,
        )
    }

    /// Key row of token `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= seq_len`.
    pub fn key(&self, t: usize) -> &[f32] {
        let d = self.config.head_dim;
        &self.keys[t * d..(t + 1) * d]
    }

    /// Loads the haystack into a fresh pool + dense head cache under the given page
    /// geometry (values = keys, which is all recall metrics need).
    ///
    /// # Panics
    ///
    /// Panics if the pool capacity computed from the config would overflow; the pool
    /// is sized to fit the whole haystack.
    pub fn build_cache(&self, paging: PagingConfig) -> (PagePool, DenseHeadCache) {
        let pages = paging.pages_for(self.config.seq_len) + 1;
        let mut pool = PagePool::new(paging, pages, self.config.head_dim);
        let mut cache = DenseHeadCache::new();
        for t in 0..self.config.seq_len {
            let k = self.key(t);
            assert!(cache.append(&mut pool, k, k), "pool sized to fit");
        }
        (pool, cache)
    }

    /// Physical pages (at page size `np`) overlapping the needle.
    pub fn needle_pages(&self, np: usize) -> Vec<usize> {
        let (s, e) = self.needle_range();
        (s / np..=(e - 1) / np).collect()
    }

    /// Needle recall of a page selection: fraction of needle tokens covered by the
    /// selected physical pages (page size `np`).
    pub fn recall(&self, selected_pages: &[usize], np: usize) -> f64 {
        let (s, e) = self.needle_range();
        let covered = (s..e)
            .filter(|t| selected_pages.contains(&(t / np)))
            .count();
        covered as f64 / (e - s) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_quant::KvPrecision;
    use lserve_selector::{FlatSelector, HierarchicalSelector, PageSelector};

    #[test]
    fn needle_depth_placement() {
        let cfg = NiahConfig::standard(4096);
        let shallow = NiahCase::generate(cfg, 0.0, 1);
        let deep = NiahCase::generate(cfg, 1.0, 1);
        assert_eq!(shallow.needle_range().0, 0);
        assert_eq!(deep.needle_range().1, 4096);
    }

    #[test]
    fn determinism() {
        let cfg = NiahConfig::standard(1024);
        let a = NiahCase::generate(cfg, 0.5, 9);
        let b = NiahCase::generate(cfg, 0.5, 9);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.query, b.query);
    }

    #[test]
    fn query_aligns_with_needle() {
        let cfg = NiahConfig::standard(2048);
        let case = NiahCase::generate(cfg, 0.37, 3);
        let (s, _) = case.needle_range();
        let needle_dot: f32 = case.query.iter().zip(case.key(s)).map(|(a, b)| a * b).sum();
        // Average dot against background keys.
        let bg_dot: f32 = case.query.iter().zip(case.key(0)).map(|(a, b)| a * b).sum();
        assert!(
            needle_dot > bg_dot + 20.0,
            "needle {needle_dot} vs bg {bg_dot}"
        );
    }

    #[test]
    fn needle_pages_cover_range() {
        let cfg = NiahConfig::standard(1024);
        let case = NiahCase::generate(cfg, 0.5, 4);
        let pages = case.needle_pages(16);
        let (s, e) = case.needle_range();
        assert!(pages.contains(&(s / 16)));
        assert!(pages.contains(&((e - 1) / 16)));
    }

    #[test]
    fn recall_metric_bounds() {
        let cfg = NiahConfig::standard(512);
        let case = NiahCase::generate(cfg, 0.5, 5);
        let all: Vec<usize> = (0..512 / 16).collect();
        assert_eq!(case.recall(&all, 16), 1.0);
        assert_eq!(case.recall(&[], 16), 0.0);
    }

    #[test]
    fn flat_small_pages_find_the_needle() {
        // Figure 6(a/b) regime: page 16, budget 4096 over a 16K haystack.
        let cfg = NiahConfig::standard(16_384);
        let mut hits = 0;
        for seed in 0..5 {
            let case = NiahCase::generate(cfg, 0.6, 100 + seed);
            let (pool, cache) = case.build_cache(PagingConfig::flat(16, KvPrecision::Fp16));
            let mut sel = FlatSelector::new(true);
            let s = sel.select(&pool, &cache, &[case.query()], 4096, 0);
            if case.recall(&s.pages, 16) >= 1.0 {
                hits += 1;
            }
        }
        assert!(hits >= 4, "flat@16 should almost always recall: {hits}/5");
    }

    #[test]
    fn hierarchical_matches_flat16_on_large_pages() {
        // Figure 13 regime: NP=64, NL=16, budget 3072.
        let cfg = NiahConfig::standard(16_384);
        let mut hier_hits = 0;
        for seed in 0..5 {
            let case = NiahCase::generate(cfg, 0.4, 200 + seed);
            let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Fp16));
            let mut sel = HierarchicalSelector::new(true);
            let s = sel.select(&pool, &cache, &[case.query()], 3072, 0);
            if case.recall(&s.pages, 64) >= 1.0 {
                hier_hits += 1;
            }
        }
        assert!(hier_hits >= 4, "hierarchical@64/16: {hier_hits}/5");
    }
}
