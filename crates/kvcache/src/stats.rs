//! Per-logical-page key statistics (`K_stats` in Figure 5) and the tier
//! migration accounting of the hierarchical (hot device / bounded host /
//! modeled NVMe) pool.

/// Modeled host-link speed, relative to recompute: transferring one token's
/// KV page slot across the host link costs `1 / HOST_TRANSFER_SPEEDUP` of the
/// forward-pass work of recomputing that token.
///
/// This single deterministic constant is what makes swap-based
/// preemption/resume pay off in the cost model: re-prefilling an `S`-token
/// victim costs `S` work tokens, while promoting its offloaded page set costs
/// `pages · N_P / HOST_TRANSFER_SPEEDUP` — linear in the same context length
/// but divided by the link speedup. (Physically: a PCIe copy of a KV page is
/// far cheaper than re-running attention + FFN over the token span it holds.)
pub const HOST_TRANSFER_SPEEDUP: u64 = 64;

/// Modeled NVMe-link speed, relative to recompute — an order of magnitude
/// below [`HOST_TRANSFER_SPEEDUP`], so a host↔nvme hop for one page costs
/// `HOST_TRANSFER_SPEEDUP / NVME_TRANSFER_SPEEDUP` (= 8) times the host↔device
/// hop of the same page.
///
/// The pool prices NVMe hops by issuing them in *host-equivalent ledger
/// units* (`raw_units · HOST_TRANSFER_SPEEDUP / NVME_TRANSFER_SPEEDUP`, see
/// [`nvme_ledger_units`]), so every queue of the copy engine drains at one
/// common ledger rate and [`transfer_cost_tokens`] prices both hops without a
/// per-hop rate in the engine. Spilling to NVMe is still far cheaper than
/// recompute (`8 / 64` of a forward pass per token slot) — drop-and-replay
/// remains the fallback of last resort, not the preferred degradation.
pub const NVME_TRANSFER_SPEEDUP: u64 = 8;

/// Converts raw token-units of an NVMe hop into host-equivalent ledger units,
/// the currency of every copy-engine queue and migration counter.
pub fn nvme_ledger_units(raw_units: u64) -> u64 {
    raw_units * (HOST_TRANSFER_SPEEDUP / NVME_TRANSFER_SPEEDUP)
}

/// Converts accumulated migration ledger units (one unit per token slot of
/// every host-hop page, [`nvme_ledger_units`]-scaled for NVMe hops, as
/// returned by `PagePool::demote`/`promote`) into forward-pass
/// token-equivalents under [`HOST_TRANSFER_SPEEDUP`]. Rounds up so any
/// nonzero transfer carries nonzero modeled cost.
pub fn transfer_cost_tokens(token_units: u64) -> u64 {
    token_units.div_ceil(HOST_TRANSFER_SPEEDUP)
}

/// Lifetime tier-migration counters of the hierarchical page pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Pages moved hot → host.
    pub pages_demoted: u64,
    /// Pages moved host → hot.
    pub pages_promoted: u64,
    /// Pages spilled host → nvme.
    pub pages_spilled: u64,
    /// Pages recalled nvme → host.
    pub pages_recalled: u64,
    /// Ledger units carried hot → host (`pages_demoted · N_P`).
    pub demoted_token_units: u64,
    /// Ledger units carried host → hot (`pages_promoted · N_P`).
    pub promoted_token_units: u64,
    /// Ledger units carried host → nvme
    /// (`pages_spilled · nvme_ledger_units(N_P)`).
    pub spilled_token_units: u64,
    /// Ledger units carried nvme → host
    /// (`pages_recalled · nvme_ledger_units(N_P)`).
    pub recalled_token_units: u64,
}

impl TierStats {
    /// Ledger units moved across either link in either direction.
    pub fn migrated_token_units(&self) -> u64 {
        self.demoted_token_units
            + self.promoted_token_units
            + self.spilled_token_units
            + self.recalled_token_units
    }
}

/// Channelwise minimum and maximum of the keys in one logical page.
///
/// These are the representative vectors of §3.5.2: the selector scores a logical page
/// against a query `q` as `Σ_i max(q[i]·kmax[i], q[i]·kmin[i])` (Eq. 2), an upper bound
/// on the best attainable dot product with any key in the page. They are computed
/// incrementally as tokens are appended ("pre-computed during the context stage and
/// previous decoding steps", Figure 7 caption).
///
/// # Example
///
/// ```
/// use lserve_kvcache::LogicalPageStats;
///
/// let mut s = LogicalPageStats::new(2);
/// s.update(&[1.0, -2.0]);
/// s.update(&[-1.0, 3.0]);
/// assert_eq!(s.kmin(), &[-1.0, -2.0]);
/// assert_eq!(s.kmax(), &[1.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPageStats {
    kmin: Vec<f32>,
    kmax: Vec<f32>,
    tokens: usize,
}

impl LogicalPageStats {
    /// Creates empty statistics for keys of dimension `head_dim`.
    pub fn new(head_dim: usize) -> Self {
        Self {
            kmin: vec![f32::INFINITY; head_dim],
            kmax: vec![f32::NEG_INFINITY; head_dim],
            tokens: 0,
        }
    }

    /// Statistics with the given bounds over `tokens` keys (a page gathering
    /// one logical sub-page out of its side-by-side store).
    pub(crate) fn from_bounds(kmin: Vec<f32>, kmax: Vec<f32>, tokens: usize) -> Self {
        Self { kmin, kmax, tokens }
    }

    /// Folds one key row into the min/max bounds.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the configured head dimension.
    pub fn update(&mut self, key: &[f32]) {
        assert_eq!(key.len(), self.kmin.len(), "key dimension mismatch");
        for (i, &k) in key.iter().enumerate() {
            if k < self.kmin[i] {
                self.kmin[i] = k;
            }
            if k > self.kmax[i] {
                self.kmax[i] = k;
            }
        }
        self.tokens += 1;
    }

    /// Channelwise minima. All `+inf` while empty.
    pub fn kmin(&self) -> &[f32] {
        &self.kmin
    }

    /// Channelwise maxima. All `-inf` while empty.
    pub fn kmax(&self) -> &[f32] {
        &self.kmax
    }

    /// Number of keys folded in so far.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// True if no key has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }

    /// Eq. 2 importance score of this logical page for query `q`:
    /// `Σ_i max(q[i]·kmax[i], q[i]·kmin[i])`.
    ///
    /// Returns `f32::NEG_INFINITY` for an empty page so empty pages never win
    /// selection.
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` differs from the head dimension.
    pub fn importance(&self, q: &[f32]) -> f32 {
        assert_eq!(q.len(), self.kmin.len(), "query dimension mismatch");
        if self.is_empty() {
            return f32::NEG_INFINITY;
        }
        let mut s = 0.0f32;
        for (i, &qi) in q.iter().enumerate() {
            s += (qi * self.kmax[i]).max(qi * self.kmin[i]);
        }
        s
    }

    /// Merges another page's bounds into this one (used by max-pooled physical
    /// summaries).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn merge(&mut self, other: &LogicalPageStats) {
        assert_eq!(self.kmin.len(), other.kmin.len(), "dimension mismatch");
        for i in 0..self.kmin.len() {
            self.kmin[i] = self.kmin[i].min(other.kmin[i]);
            self.kmax[i] = self.kmax[i].max(other.kmax[i]);
        }
        self.tokens += other.tokens;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_rounds_up_and_scales() {
        assert_eq!(transfer_cost_tokens(0), 0);
        assert_eq!(transfer_cost_tokens(1), 1, "nonzero transfer costs work");
        assert_eq!(transfer_cost_tokens(HOST_TRANSFER_SPEEDUP), 1);
        assert_eq!(transfer_cost_tokens(HOST_TRANSFER_SPEEDUP * 10), 10);
        let t = TierStats {
            pages_demoted: 2,
            demoted_token_units: 2 * 64,
            pages_promoted: 1,
            promoted_token_units: 64,
            ..Default::default()
        };
        assert_eq!(t.migrated_token_units(), 3 * 64);
        assert_eq!(transfer_cost_tokens(t.migrated_token_units()), 3);
    }

    #[test]
    fn nvme_hop_costs_eight_host_hops() {
        assert_eq!(HOST_TRANSFER_SPEEDUP % NVME_TRANSFER_SPEEDUP, 0);
        assert_eq!(nvme_ledger_units(64), 8 * 64);
        assert_eq!(
            transfer_cost_tokens(nvme_ledger_units(64)),
            8 * transfer_cost_tokens(64),
            "one nvme page hop prices like eight host hops of the same page"
        );
        let t = TierStats {
            pages_spilled: 1,
            spilled_token_units: nvme_ledger_units(64),
            pages_recalled: 1,
            recalled_token_units: nvme_ledger_units(64),
            ..Default::default()
        };
        assert_eq!(t.migrated_token_units(), 2 * 8 * 64);
        assert_eq!(transfer_cost_tokens(t.migrated_token_units()), 16);
    }

    #[test]
    fn update_tracks_min_max() {
        let mut s = LogicalPageStats::new(3);
        s.update(&[1.0, 0.0, -1.0]);
        s.update(&[0.5, 2.0, -3.0]);
        assert_eq!(s.kmin(), &[0.5, 0.0, -3.0]);
        assert_eq!(s.kmax(), &[1.0, 2.0, -1.0]);
        assert_eq!(s.tokens(), 2);
    }

    #[test]
    fn importance_is_upper_bound_on_member_dots() {
        let keys = [
            vec![0.3f32, -0.7, 1.2, 0.0],
            vec![-0.1, 0.9, 0.4, -2.0],
            vec![1.5, 0.2, -0.8, 0.6],
        ];
        let mut s = LogicalPageStats::new(4);
        for k in &keys {
            s.update(k);
        }
        let q = [0.7f32, -1.3, 0.2, 0.9];
        let bound = s.importance(&q);
        for k in &keys {
            let dot: f32 = q.iter().zip(k).map(|(a, b)| a * b).sum();
            assert!(dot <= bound + 1e-6, "dot {dot} exceeds bound {bound}");
        }
    }

    #[test]
    fn empty_page_scores_neg_infinity() {
        let s = LogicalPageStats::new(2);
        assert_eq!(s.importance(&[1.0, 1.0]), f32::NEG_INFINITY);
    }

    #[test]
    fn merge_equals_joint_update() {
        let mut a = LogicalPageStats::new(2);
        a.update(&[1.0, -1.0]);
        let mut b = LogicalPageStats::new(2);
        b.update(&[-2.0, 3.0]);
        let mut joint = LogicalPageStats::new(2);
        joint.update(&[1.0, -1.0]);
        joint.update(&[-2.0, 3.0]);
        a.merge(&b);
        assert_eq!(a, joint);
    }

    #[test]
    fn figure7_structure() {
        // Figure 7 structure: the query attends to the kmin/kmax representative
        // vectors of each logical page; score must equal the explicit
        // Σ_i max(q[i]·kmax[i], q[i]·kmin[i]) computed by hand.
        let q = [1.0f32, -2.0, 2.0, -2.0, 1.0, 1.0, 1.0, -3.0];
        let keys = [
            [6.0f32, 6.0, 8.0, 7.0, 8.0, 8.0, 7.0, -1.0],
            [-7.0, -4.0, -7.0, -5.0, -5.0, -5.0, -8.0, -5.0],
        ];
        let mut s = LogicalPageStats::new(8);
        for k in &keys {
            s.update(k);
        }
        let mut want = 0.0f32;
        for i in 0..8 {
            let kmax = keys[0][i].max(keys[1][i]);
            let kmin = keys[0][i].min(keys[1][i]);
            want += (q[i] * kmax).max(q[i] * kmin);
        }
        assert_eq!(s.importance(&q), want);
    }
}
