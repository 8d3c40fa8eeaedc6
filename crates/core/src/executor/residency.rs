//! What a row does between its KV append and its attention: dynamic page
//! selection (§3.5), the tiered-memory residency pass — selection-driven
//! demotion, promotion, promotion by exchange — and selector-driven prefetch;
//! plus [`ModelExecutor::step_page_demand`], the reservation that makes the
//! pass unable to fail.

use lserve_kvcache::{Moved, PageId, PagePool};
use lserve_selector::PageSelector;
use lserve_trace::lane;

use super::{ModelExecutor, SequenceState};

/// Fresh selection chunks a page of a selecting dense head may go unpicked
/// before the residency pass demotes it. Two is the least that lets a page
/// the top-k dropped at one rescore come back at the next without a
/// transfer. Four halved the churn on `perf`'s `long_decode` (22 343 against
/// 47 007 demotions a pass, 2-core AVX2 VM) but held `peak_rss_mb` at
/// 21.6 MB instead of 19.1, and bought no measurable time.
pub(crate) const DEMOTE_AFTER_CHUNKS: usize = 2;

impl ModelExecutor {
    /// Free hot pages one more token of `state` can claim: the pages its
    /// append allocates plus the promotions its residency pass cannot pay for
    /// by exchange. A head read whole (streaming window, or dense history
    /// within the budget) needs a slot for each page that holds none; a
    /// selecting head promotes at most a budget of pages and can exchange one
    /// of its own sole-owned slot-holding pages for each, so it needs slots
    /// only while it holds fewer of those than a budget. Reserve this much
    /// and the step cannot fail: an exchange is one pool step that no full
    /// bounded host refuses ([`PagePool::exchange`]).
    pub fn step_page_demand(&self, state: &SequenceState, pool: &PagePool) -> usize {
        let mut need = state.pages_needed_for_next_token(pool);
        if pool.total_in_use() == pool.in_use() && pool.in_flight_transfers() == 0 {
            return need; // nothing below the hot tier or on its way there
        }
        let np = pool.config().physical_page_size();
        let pos = state.tokens_processed;
        let heads = state.layers.iter().flatten();
        for (c, policy) in heads.zip(state.policies.iter().flatten()) {
            need += match policy.budget_at(&state.sparsity, pos, c.tokens() + 1) {
                Some(b) => {
                    // The most pages one selection reads, so the most it
                    // promotes; each exchangeable page pays for one.
                    let mut unpaid = (b / np).max(lserve_selector::MAX_FORCED_PAGES);
                    let mut slotless = 0;
                    for &id in c.page_table() {
                        if !pool.holds_slot(id) {
                            slotless += 1;
                        } else if pool.refcount(id) == 1 {
                            unpaid -= 1;
                            if unpaid == 0 {
                                break;
                            }
                        }
                    }
                    slotless.min(unpaid)
                }
                None => pool.swap_in_demand(c.page_ids()),
            };
        }
        need
    }

    /// Runs dynamic page selection for every dense head of layer `l` (§3.5)
    /// for the row at absolute position `pos` and decode step `step`, whose
    /// post-RoPE queries are `q_row`: fills `plan` with the per-KV-head
    /// selections, which also cost each head's decode shard.
    pub(super) fn select_pages(
        &self,
        state: &mut SequenceState,
        pool: &PagePool,
        l: usize,
        q_row: &[f32],
        (pos, step): (usize, usize),
        plan: &mut RowPlan,
    ) {
        let model = &self.weights.config;
        let d = model.head_dim;
        let group = model.gqa_group_size();
        plan.reset(model.num_kv_heads);
        let mut queries: Vec<&[f32]> = Vec::with_capacity(group);
        for kv in 0..model.num_kv_heads {
            let cache = &state.layers[l][kv];
            let policy = &mut state.policies[l][kv];
            let budget = policy.budget_at(&state.sparsity, pos, cache.tokens());
            let (Some(budget), Some(selector)) = (budget, policy.selector.as_mut()) else {
                continue;
            };
            queries.clear();
            queries.extend(q_row[kv * group * d..(kv + 1) * group * d].chunks_exact(d));
            let sel = selector.select(pool, cache, &queries, budget, step);
            state.stats.selector_logical_scored += sel.logical_pages_scored;
            if sel.reused {
                state.stats.selector_reuses += 1;
            } else {
                state.stats.selector_invocations += 1;
                plan.fresh[kv] = true;
            }
            plan.selections[kv] = Some(sel.pages);
        }
    }

    /// True when the next row of a run through layer `l` — the row after the
    /// one at `(pos, step)`, which `plan` was made for — will read the pages
    /// this row reads, so this row's attention can wait and fold them once
    /// with it: the next append takes no page (an allocation can grow a
    /// table, evict a streaming head's middle page or fork a shared tail),
    /// and every selecting head keeps what it reads, staying under the
    /// budget or inside one reuse chunk (a rescore demotes the pages it
    /// stops picking). Both rules are asked where they live,
    /// [`HeadPolicy::budget_at`] and `ReusableSelector::reuses_at`, so this
    /// cannot drift from them.
    pub(super) fn next_row_reads_the_same_pages(
        &self,
        state: &SequenceState,
        pool: &PagePool,
        l: usize,
        plan: &RowPlan,
        (pos, step): (usize, usize),
    ) -> bool {
        let heads = &state.layers[l];
        if heads.iter().any(|h| h.needs_page_for_next_append(pool)) {
            return false;
        }
        let policies = state.policies[l].iter();
        heads
            .iter()
            .zip(policies)
            .enumerate()
            .all(|(kv, (cache, policy))| {
                // What `select_pages` and the selector will decide for the next row.
                let budget = policy.budget_at(&state.sparsity, pos + 1, cache.tokens() + 1);
                match (budget, &policy.selector) {
                    (Some(_), Some(s)) => plan.selections[kv].is_some() && s.reuses_at(step + 1),
                    _ => plan.selections[kv].is_none(),
                }
            })
    }

    /// The residency pass of the tiered KV memory, run per layer between page
    /// selection and the attention kernels:
    ///
    /// 1. **Selection-driven demotion**: dense-head pages the head's reusable
    ///    selector has skipped for [`DEMOTE_AFTER_CHUNKS`] consecutive fresh
    ///    selection chunks are demoted to the cold tier, so a selecting
    ///    head's hot pages are what its selections read — except pages
    ///    in the current selection, the table's final page (append target),
    ///    and pages co-owned with the prefix cache or another sequence (the
    ///    pool refuses those). The sweep runs only on steps whose selection
    ///    was freshly scored (`fresh[kv]`): the stale set is a pure function
    ///    of the chunk clock, so reuse steps cannot change it.
    /// 2. **Promotion**: every cold page the current selection picks is
    ///    promoted back before the kernel runs, satisfying the kernels'
    ///    hot-residency precondition. The accounted fetch units land in
    ///    `plan.fetch_units` per KV head so the LPT shard costing can charge
    ///    the fetch to the shard that caused it. A promotion takes a free hot slot only while
    ///    more are free than `reserved` — the slots this batch's appends and
    ///    unexchangeable promotions still need (see
    ///    [`ModelExecutor::step_page_demand`]) — and otherwise pays for its
    ///    slot by **exchange** ([`ModelExecutor::exchange_candidate`],
    ///    [`PagePool::exchange`]): one modeled transfer each way, zero net
    ///    hot pages.
    ///
    /// Migrations move data, never mutate it, so outputs are bit-identical to
    /// a run whose pages all stay hot — and, because the async copy engine only
    /// changes *when* transfers are accounted (never what the kernels read),
    /// bit-identical across [`MigrationMode`]s too.
    ///
    /// Under [`MigrationMode::Async`] demotions are issued into the copy
    /// engine (the hot slot frees when the transfer lands, or earlier if an
    /// allocation forces it), promotions ride [`PagePool::ensure_hot`] so a
    /// page already in flight costs only its unhidden remainder, and the
    /// per-head fetch units carry **only the unhidden fraction** —
    /// transfer work the step genuinely stalls on. Under
    /// [`MigrationMode::Sync`] every moved unit is unhidden and the behavior
    /// is exactly the pre-engine baseline.
    ///
    /// All migration accounting funnels through one
    /// [`EngineStats::add_migration`] call per pass.
    ///
    /// `reserved` is drawn down by every free slot the pass takes that the
    /// reservation counted: a whole-read head's promotions, and a selected
    /// page with nothing to exchange for it. A debug build asserts that no
    /// draw exceeds what is left, so a short [`ModelExecutor::step_page_demand`]
    /// fails at the step that spent past it.
    ///
    /// # Panics
    ///
    /// Panics if a promotion finds no free slot and nothing to exchange: the
    /// caller reserved less than the step's demand.
    pub(super) fn apply_residency(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        l: usize,
        plan: &mut RowPlan,
        reserved: &mut usize,
    ) {
        let (mut demoted, mut promoted) = (Moved::default(), Moved::default());
        let RowPlan {
            selections,
            fresh,
            fetch_units,
            ..
        } = plan;
        for (kv, selection) in selections.iter().enumerate() {
            let Some(sel) = selection else {
                // No selection this step: the kernel reads this head's whole
                // page table (full-history dense attention, or a streaming
                // window), so every page must be readable first. Non-resident
                // pages appear here only on sequences seeded from a prefix
                // snapshot captured after demotion — the common case is a
                // no-op scan.
                let moved = pool.ensure_resident(state.layers[l][kv].page_ids());
                let moved = moved.expect("a whole-read head's promotions are reserved");
                debug_assert!(moved.pages as usize <= *reserved, "reservation overdrawn");
                *reserved = reserved.saturating_sub(moved.pages as usize);
                promoted += moved;
                fetch_units[kv] += moved.unhidden;
                continue;
            };
            let table = state.layers[l][kv].page_table();
            if let (true, Some(selector)) = (fresh[kv], &state.policies[l][kv].selector) {
                // Never demote the append target (the table's final
                // page) or anything the current selection reads.
                let stale = selector.stale_pages(DEMOTE_AFTER_CHUNKS).into_iter();
                let stale = stale.filter(|p| p + 1 < table.len() && !sel.contains(p));
                demoted += pool.demote_all(stale.map(|p| table[p]));
            }
            for &p in sel {
                let id = table[p];
                let moved = if pool.holds_slot(id) || pool.free_pages() > *reserved {
                    pool.ensure_resident([id])
                } else if let Some((head, out)) =
                    Self::exchange_candidate(state, pool, l, selections, kv)
                {
                    let (given_up, moved) = pool.exchange(out, id).expect("a demotable page");
                    demoted += given_up;
                    pool.tracer().instant(
                        "exchange",
                        "kvcache",
                        lane::COPY,
                        1,
                        &[
                            ("layer", l as u64),
                            ("head", head as u64),
                            ("page_out", out.index() as u64),
                            ("page_in", id.index() as u64),
                        ],
                    );
                    Some(moved)
                } else {
                    // Nothing to exchange: the slot is one this promotion
                    // reserved.
                    debug_assert!(*reserved > 0, "reservation overdrawn");
                    *reserved = reserved.saturating_sub(1);
                    pool.ensure_resident([id])
                };
                let moved = moved.expect("a free slot, an exchange or a reserved slot");
                promoted += moved;
                fetch_units[kv] += moved.unhidden;
            }
        }
        state.stats.add_migration(demoted, promoted);
    }

    /// The page an exchange gives up so that head `kv` of layer `l` can
    /// promote a page it selected: one of the same sequence's own pages that
    /// no kernel reads this step — `kv`'s own first, then the layer's other
    /// dense heads', each longest unselected first (the selector's last-use
    /// order; oldest page on ties, unranked pages last). Never a page in
    /// this step's selections, a table's final page (the append target), a
    /// head read whole, or a co-owned page ([`PagePool::exchange`] refuses
    /// those: a batch peer may be about to read it). Returns `(head, page)`,
    /// or `None` when nothing is exchangeable.
    pub(super) fn exchange_candidate(
        state: &SequenceState,
        pool: &PagePool,
        l: usize,
        selections: &[Option<Vec<usize>>],
        kv: usize,
    ) -> Option<(usize, PageId)> {
        let mut heads = std::iter::once(kv).chain((0..selections.len()).filter(|&h| h != kv));
        heads.find_map(|head| {
            let (Some(sel), Some(selector)) =
                (&selections[head], &state.policies[l][head].selector)
            else {
                return None;
            };
            let table = state.layers[l][head].page_table();
            (0..table.len().saturating_sub(1))
                .filter(|p| {
                    !sel.contains(p) && pool.holds_slot(table[*p]) && pool.refcount(table[*p]) == 1
                })
                // A page the selector has not ranked yet sorts last.
                .min_by_key(|&p| selector.last_selected_chunk(p).unwrap_or(u64::MAX))
                .map(|p| (head, table[p]))
        })
    }

    /// Transfers issued per head per step: only the single most recently
    /// displaced page — the one whose re-pick odds the selector's recency
    /// ranking rates highest — so every bad guess costs at most one transfer.
    const PREFETCH_PER_HEAD: usize = 1;

    /// Fresh rescores a page may have sat unselected and still qualify for
    /// prefetch. Beyond this the query has drifted: the page's re-pick odds
    /// no longer justify a speculative transfer, and issuing one is how the
    /// copy channel fills with `prefetch_wasted` traffic.
    const PREFETCH_RECENCY_WINDOW: u64 = 2;

    /// Cap on speculative transfers a single sequence may have issued per
    /// step across **all** layers and heads. The per-head cap alone lets a
    /// deep model multiply guesses by layers × heads; the per-sequence
    /// budget keeps one sequence's speculation from starving demand traffic.
    pub(super) const PREFETCH_PER_SEQ: usize = 4;

    /// Selector-driven prefetch (async mode only): for every dense head whose
    /// reusable selector will score afresh on the decode step after `step`, start
    /// host→device transfers for the pages that selection is most likely to
    /// re-pick — ranked by selection recency, dropped entirely once they fall
    /// outside [`Self::PREFETCH_RECENCY_WINDOW`] — so by the time the fresh
    /// selection demands them the copy has already ridden one step of
    /// overlapped bandwidth. Wrong guesses cost only spare link bandwidth and
    /// a genuinely free hot slot ([`PagePool::prefetch`] never evicts), and
    /// are tallied as `prefetch_wasted` in [`lserve_kvcache::MigrationStats`].
    /// `budget` is the sequence's remaining step-wide allowance
    /// ([`Self::PREFETCH_PER_SEQ`]), decremented across layers; `reserved`
    /// free slots are left for the batch's own appends and promotions.
    pub(super) fn issue_prefetches(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        l: usize,
        step: usize,
        budget: &mut usize,
        reserved: usize,
    ) {
        let next_step = step + 1;
        for (kv, policy) in state.policies[l].iter().enumerate() {
            if *budget == 0 {
                return;
            }
            let Some(selector) = &policy.selector else {
                continue;
            };
            if selector.next_fresh_step() != Some(next_step) {
                continue;
            }
            let table = state.layers[l][kv].page_table();
            let mut issued = 0;
            for p in selector.prefetch_candidates(Self::PREFETCH_RECENCY_WINDOW) {
                // Speculation never takes a slot the batch has reserved.
                if issued >= Self::PREFETCH_PER_HEAD
                    || *budget == 0
                    || pool.free_pages() <= reserved
                {
                    break;
                }
                // Never the append target (the table's final page).
                if p + 1 >= table.len() {
                    continue;
                }
                if pool.prefetch(table[p]) {
                    issued += 1;
                    *budget -= 1;
                }
            }
        }
    }
}

/// One batch entry's plan for the row it feeds through a layer, refilled row
/// after row: the stacked-matrix row (`None` when the entry has none this
/// round — its run is shorter, or it ran out of pages), and per KV head the
/// selected page set, whether the selection was freshly scored (the demotion
/// sweep runs only then), and the unhidden transfer units its promotions
/// stalled the shard for.
#[derive(Debug, Default)]
pub(super) struct RowPlan {
    pub(super) row: Option<usize>,
    pub(super) selections: Vec<Option<Vec<usize>>>,
    pub(super) fresh: Vec<bool>,
    pub(super) fetch_units: Vec<u64>,
}

impl RowPlan {
    /// Empties the plan for a row of `heads` KV heads, keeping the buffers.
    fn reset(&mut self, heads: usize) {
        self.selections.clear();
        self.selections.resize(heads, None);
        self.fresh.clear();
        self.fresh.resize(heads, false);
        self.fetch_units.clear();
        self.fetch_units.resize(heads, 0);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lserve_kvcache::{DenseHeadCache, MigrationMode, Residency, TierConfig};
    use lserve_model::{greedy_next_token, ModelConfig, ModelWeights};
    use lserve_quant::KvPrecision;
    use lserve_trace::Tracer;

    use super::*;
    use crate::EngineConfig;

    fn tiny_weights() -> Arc<ModelWeights> {
        Arc::new(ModelWeights::random(&ModelConfig::tiny(), 42))
    }

    /// Selection-driven demotion (tiered KV memory): selector-stale dense
    /// pages migrate to the cold tier and come back when a selection re-picks
    /// them, and the emitted logits are bit-identical
    /// at every step to a run whose pages all stay hot. That run is off by
    /// construction: before every step each of its pages gets a second
    /// owner, and the pool demotes no co-owned page.
    #[test]
    fn selection_driven_demotion_is_bit_identical_and_migrates() {
        let w = tiny_weights();
        for precision in [KvPrecision::Fp16, KvPrecision::Int4] {
            let cfg = EngineConfig {
                paging: lserve_kvcache::PagingConfig::new(8, 4, precision),
                dynamic_budget: Some(24),
                reuse_interval: 2,
                ..EngineConfig::lserve_fp16()
            };
            let run = |pinned: bool| -> (Vec<Vec<f32>>, u64, u64, usize) {
                let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
                let mut pool = PagePool::new(cfg.paging, 1024, w.config.head_dim);
                let mut s = exec.new_sequence();
                let prompt: Vec<u32> = (0..40).map(|i| (i % 90) as u32).collect();
                let first = exec.prefill(&mut s, &mut pool, &prompt).unwrap();
                let mut next = greedy_next_token(&first.logits);
                let (mut all, mut pins, mut peak_cold) = (Vec::new(), Vec::new(), 0);
                for _ in 0..40 {
                    if pinned {
                        pins.extend(s.page_ids());
                        pool.retain_all(s.page_ids());
                    }
                    let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
                    next = greedy_next_token(&out.logits);
                    peak_cold = peak_cold.max(pool.cold_in_use());
                    all.push(out.logits);
                }
                let stats = s.stats();
                s.release(&mut pool);
                for id in pins {
                    pool.free(id);
                }
                assert_eq!(pool.in_use(), 0);
                assert_eq!(pool.cold_in_use(), 0, "release must drain the cold tier");
                (all, stats.pages_demoted, stats.pages_promoted, peak_cold)
            };
            let (want, d0, p0, cold0) = run(true);
            assert_eq!(
                (d0, p0, cold0),
                (0, 0, 0),
                "{precision:?}: pinned pages stay hot"
            );
            let (got, demoted, promoted, peak_cold) = run(false);
            assert_eq!(got, want, "{precision:?}: demotion changed the logits");
            assert!(
                demoted > 0,
                "{precision:?}: stale pages must actually demote"
            );
            assert!(
                promoted > 0,
                "{precision:?}: re-picked pages must come back"
            );
            assert!(peak_cold > 0, "{precision:?}: the cold tier holds them");
        }
    }

    /// The exchange tests' engine: 8-token pages, a four-page selection
    /// budget, a fresh scoring every other step.
    fn exchange_cfg() -> EngineConfig {
        EngineConfig {
            paging: lserve_kvcache::PagingConfig::new(8, 4, KvPrecision::Fp16),
            dynamic_budget: Some(32),
            reuse_interval: 2,
            ..EngineConfig::lserve_fp16()
        }
    }

    /// The tiny model with four KV heads, so that a layer has dense peers.
    fn wide_weights() -> Arc<ModelWeights> {
        let model = ModelConfig {
            num_q_heads: 8,
            num_kv_heads: 4,
            ..ModelConfig::tiny()
        };
        Arc::new(ModelWeights::random(&model, 42))
    }

    /// A sequence 24 decode steps past a 40-token prompt: every dense head is
    /// past its budget and its selector has a last-use history.
    fn past_budget(exec: &ModelExecutor, pool: &mut PagePool) -> (SequenceState, u32) {
        let mut s = exec.new_sequence();
        let prompt: Vec<u32> = (0..40).map(|i| (i * 7 % 90) as u32).collect();
        let mut next = greedy_next_token(&exec.prefill(&mut s, pool, &prompt).unwrap().logits);
        for _ in 0..24 {
            next = greedy_next_token(&exec.decode_step(&mut s, pool, next).unwrap().logits);
        }
        (s, next)
    }

    /// A layer with two dense heads, as `(layer, head, peer)`.
    fn dense_pair(exec: &ModelExecutor) -> (usize, usize, usize) {
        exec.streaming_masks()
            .iter()
            .enumerate()
            .find_map(|(l, mask)| {
                let mut dense = (0..mask.len()).filter(|&h| !mask[h]);
                Some((l, dense.next()?, dense.next()?))
            })
            .expect("a layer with two dense heads")
    }

    /// Selections that read the first and the last page of every dense head
    /// of layer `l` (streaming heads are read whole).
    fn first_and_last(s: &SequenceState, l: usize) -> Vec<Option<Vec<usize>>> {
        let pick = |c: &DenseHeadCache| c.window().is_none().then(|| vec![0, c.num_pages() - 1]);
        s.layers[l].iter().map(pick).collect()
    }

    #[test]
    fn exchange_gives_up_the_stalest_page_no_kernel_reads() {
        let cfg = exchange_cfg();
        let w = wide_weights();
        let mut pool = PagePool::new(cfg.paging, 4096, w.config.head_dim);
        let exec = ModelExecutor::new(w, cfg);
        let (s, _) = past_budget(&exec, &mut pool);
        let (l, kv, peer) = dense_pair(&exec);
        let mut selections = first_and_last(&s, l);
        let table = s.layers[l][kv].page_table().to_vec();
        let selector = s.policies[l][kv].selector.as_ref().unwrap();
        // The sweep has already demoted the stalest pages of every head; what
        // the exchanges below may touch of other layers is nothing.
        let other_layers = |pool: &PagePool| -> Vec<Residency> {
            let heads = s.layers.iter().enumerate().filter(|&(o, _)| o != l);
            let pages =
                heads.flat_map(|(_, layer)| layer.iter().flat_map(DenseHeadCache::page_ids));
            pages.map(|id| pool.residency(id)).collect()
        };
        let untouched = other_layers(&pool);
        // The candidate, given up as an exchange gives it up.
        let exchange_out = |pool: &mut PagePool, selections: &[Option<Vec<usize>>]| {
            let (head, out) = ModelExecutor::exchange_candidate(&s, pool, l, selections, kv)?;
            Some((head, out, pool.demote_all([out])))
        };

        // Its own head first, and there, of the pages holding a slot, the one
        // unselected the longest.
        let stalest = (1..=24)
            .rev()
            .map(|k| selector.stale_pages(k))
            .find_map(|stale| {
                let eligible: Vec<PageId> = stale
                    .into_iter()
                    .filter(|&p| p != 0 && p + 1 < table.len() && pool.holds_slot(table[p]))
                    .map(|p| table[p])
                    .collect();
                (!eligible.is_empty()).then_some(eligible)
            })
            .expect("a head past its budget has unselected hot pages");
        let (head, out, moved) = exchange_out(&mut pool, &selections).unwrap();
        assert_eq!(head, kv);
        assert!(stalest.contains(&out), "{out:?} is not among {stalest:?}");
        assert_eq!(pool.residency(out), Residency::Cold);
        assert_eq!(moved.units, 8, "one page of token-units");

        // Never a co-owned page: with every candidate but one shared, that one.
        let candidates: Vec<PageId> = table[1..table.len() - 1]
            .iter()
            .copied()
            .filter(|&id| id != out && pool.holds_slot(id))
            .collect();
        for &id in &candidates[1..] {
            pool.retain(id);
        }
        let (head, sole, _) = exchange_out(&mut pool, &selections).unwrap();
        assert_eq!((head, sole), (kv, candidates[0]));
        for &id in &candidates[1..] {
            pool.free(id);
        }

        // Never a selected page, and another head's only when its own has
        // nothing left: with all of `kv` selected, the peer gives one up.
        selections[kv] = Some((0..table.len()).collect());
        let (head, lent, _) = exchange_out(&mut pool, &selections).unwrap();
        assert_eq!(head, peer);
        let peer_table = s.layers[l][peer].page_table();
        let lent_at = peer_table.iter().position(|&id| id == lent).unwrap();
        assert!(lent_at != 0 && lent_at + 1 < peer_table.len());

        // Exhaust the layer: no peer gave up a page a kernel reads or an
        // append writes, streaming heads and other layers were never touched.
        while exchange_out(&mut pool, &selections).is_some() {}
        for (h, selection) in selections.iter().enumerate().filter(|&(h, _)| h != kv) {
            match (&s.layers[l][h], selection) {
                (c, Some(sel)) => {
                    for (p, &id) in c.page_table().iter().enumerate() {
                        let read = sel.contains(&p) || p + 1 == c.num_pages();
                        assert!(pool.is_hot(id) || !read, "head {h} page {p}");
                    }
                }
                (head, _) => assert!(
                    head.page_ids().all(|id| pool.is_hot(id)),
                    "head {h} is read whole"
                ),
            }
        }
        assert!(
            other_layers(&pool) == untouched,
            "another layer's page moved"
        );
    }

    #[test]
    fn a_promotion_exchanges_or_takes_its_reserved_slot() {
        let cfg = exchange_cfg();
        let w = wide_weights();
        let mut pool = PagePool::new(cfg.paging, 4096, w.config.head_dim);
        let exec = ModelExecutor::new(w, cfg);
        let (mut s, _) = past_budget(&exec, &mut pool);
        let (l, kv, _) = dense_pair(&exec);
        let mut plan = RowPlan::default();
        plan.reset(s.layers[l].len());
        plan.selections = first_and_last(&s, l);

        // One cold page selected, and not one free hot slot.
        let table = s.layers[l][kv].page_table();
        let p = (1..table.len() - 1)
            .find(|&p| pool.holds_slot(table[p]))
            .expect("a hot page between the sink and the append target");
        let wanted = table[p];
        pool.demote(wanted).unwrap();
        plan.selections[kv].as_mut().unwrap().insert(1, p);
        while pool.allocate().is_some() {}
        let hot = pool.in_use();
        let mut before = s.stats();
        let mut moved = |s: &SequenceState| {
            let now = s.stats();
            let units = now.migrated_token_units - before.migrated_token_units;
            let pages = (
                now.pages_demoted - before.pages_demoted,
                now.pages_promoted - before.pages_promoted,
            );
            before = now;
            (pages, units)
        };

        // Nothing reserved: one transfer each way, zero net hot pages.
        exec.apply_residency(&mut s, &mut pool, l, &mut plan, &mut 0);
        assert!(pool.is_hot(wanted));
        assert_eq!(pool.in_use(), hot);
        assert_eq!(moved(&s), ((1, 1), 16));
        assert_eq!(
            plan.fetch_units[kv], 8,
            "the promotion stalls its own shard"
        );

        // Every page co-owned, so nothing to exchange: the promotion takes
        // the one free slot, which was reserved for it.
        pool.demote(wanted).unwrap();
        pool.retain_all(s.page_ids());
        let mut reserved = 1;
        exec.apply_residency(&mut s, &mut pool, l, &mut plan, &mut reserved);
        assert!(pool.is_hot(wanted));
        assert_eq!((pool.in_use(), reserved), (hot, 0));
        assert_eq!(moved(&s), ((0, 1), 8));
        s.clone().release(&mut pool);
    }

    /// A hot tier with exactly the reserved pages free before every step —
    /// each promotion has to exchange — emits the logits of a run in an
    /// ample hot tier, bit for bit, under either migration engine and with
    /// or without a bounded host over an nvme tier.
    #[test]
    fn exchange_is_bit_identical_to_the_ample_run() {
        let w = wide_weights();
        let run = |tight: Option<(MigrationMode, TierConfig)>| {
            let cfg = exchange_cfg();
            let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
            let (mode, tiers) = tight.unwrap_or_default();
            let mut pool =
                PagePool::new_with_tiers(cfg.paging, 4096, w.config.head_dim, mode, tiers);
            let tracer = Tracer::ring(1 << 16);
            pool.set_tracer(tracer.clone());
            let (mut s, mut next) = past_budget(&exec, &mut pool);
            let mut demoted = 0;
            if tight.is_some() {
                // Every other page starts cold, so selections keep finding some.
                let dense = s.layers.iter().flatten().filter(|c| c.window().is_none());
                for c in dense {
                    for &id in c.page_table().iter().skip(1).step_by(2) {
                        demoted += u64::from(pool.demote(id).is_some());
                    }
                }
            }
            let mut fillers = Vec::new();
            let mut bits: Vec<Vec<u32>> = Vec::new();
            for _ in 0..40 {
                // Allocating lands in-flight demotions, which moves the
                // demand: settle on the fixed point.
                loop {
                    let need = exec.step_page_demand(&s, &pool);
                    if tight.is_some() && pool.free_pages() > need {
                        fillers.push(pool.allocate().unwrap());
                    } else if pool.free_pages() < need {
                        pool.free(fillers.pop().unwrap());
                    } else {
                        break;
                    }
                }
                let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
                next = greedy_next_token(&out.logits);
                bits.push(out.logits.iter().map(|x| x.to_bits()).collect());
            }
            let (events, _) = tracer.drain();
            let exchanges = events.iter().filter(|e| e.name == "exchange").count();
            // Sweeps and exchanges alike went through `add_migration`.
            assert_eq!(
                s.stats().pages_demoted + demoted,
                pool.tier_stats().pages_demoted
            );
            (bits, exchanges)
        };
        let (want, none) = run(None);
        assert_eq!(none, 0, "an ample hot tier never exchanges");
        let bounded = TierConfig {
            host_pages: 6,
            nvme: true,
        };
        for mode in [MigrationMode::Sync, MigrationMode::Async] {
            for tiers in [TierConfig::default(), bounded] {
                let (got, exchanges) = run(Some((mode, tiers)));
                assert!(exchanges > 0, "{mode:?} {tiers:?}: nothing exchanged");
                assert_eq!(got, want, "{mode:?} {tiers:?}: logits diverged");
            }
        }
    }

    #[test]
    fn page_demand_reservation_is_exact() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, 512);
        let exec = ModelExecutor::new(w, cfg);
        let mut s = exec.new_sequence();
        exec.prefill(&mut s, &mut pool, &[1, 2, 3, 4, 5]).unwrap();
        let mut next = 7u32;
        for _ in 0..80 {
            let need = s.pages_needed_for_next_token(&pool);
            let before = pool.in_use();
            let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
            // Streaming heads may free a page after allocating, so actual growth is
            // at most the predicted transient demand.
            assert!(
                pool.in_use() <= before + need,
                "grew {} but predicted {}",
                pool.in_use() - before,
                need
            );
            next = greedy_next_token(&out.logits);
        }
    }

    /// The hot-page cap the policy of `s`'s dense heads charges one of them
    /// at `tokens` tokens, none fused.
    fn dense_cap(exec: &ModelExecutor, s: &SequenceState, tokens: usize) -> usize {
        let policy = s.policies.iter().flatten().find(|p| p.window().is_none());
        let paging = &exec.config().paging;
        policy.unwrap().hot_pages(paging, &s.sparsity, tokens, 0)
    }

    /// The memory bound (§3.5: a selecting head keeps a constant number of
    /// pages live whatever the context). A solo INT4 run at budget `B`
    /// decoded to past `4·B` tokens: after every step, no dense head holds
    /// more hot pages than the cap `sequence_pages_estimate` charges it,
    /// while its history grows past that cap. A count, so it holds on any box.
    #[test]
    fn a_selecting_heads_hot_pages_stay_under_the_estimate_cap() {
        const BUDGET: usize = 32;
        let cfg = EngineConfig {
            paging: lserve_kvcache::PagingConfig::new(8, 4, KvPrecision::Int4),
            prefill_tile: 8,
            dynamic_budget: Some(BUDGET),
            ..EngineConfig::lserve()
        };
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, 8 * BUDGET);
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        let mut s = exec.new_sequence();
        let prompt: Vec<u32> = (0..BUDGET / 2).map(|t| (t * 11 % 90) as u32).collect();
        let first = exec.prefill(&mut s, &mut pool, &prompt).unwrap();
        let mut next = greedy_next_token(&first.logits);
        let (mut peak, mut longest) = (0, 0);
        while s.context_len() <= 4 * BUDGET + 16 {
            next = greedy_next_token(&exec.decode_step(&mut s, &mut pool, next).unwrap().logits);
            let cap = dense_cap(&exec, &s, s.context_len());
            for c in s.layers.iter().flatten().filter(|c| c.window().is_none()) {
                let hot = c.page_table().iter().filter(|&&id| pool.is_hot(id));
                let hot = hot.count();
                assert!(
                    hot <= cap,
                    "{hot} hot pages over a cap of {cap} at {} tokens",
                    s.context_len()
                );
                peak = peak.max(hot);
                longest = longest.max(c.num_pages());
            }
        }
        let cap = dense_cap(&exec, &s, s.context_len());
        println!("hot pages: peak {peak} of a cap of {cap}; history {longest} pages");
        assert!(longest > cap, "the history must outgrow the cap");
        assert!(s.stats().pages_demoted > 0 && s.stats().pages_promoted > 0);
    }

    /// `make_pool_for` sizes a pool that `generate` never overflows, for a
    /// prompt longer than the churn cap: no residency pass runs inside the
    /// fused prefill tile, so the whole prompt is hot before the first sweep.
    #[test]
    fn make_pool_for_holds_a_prompt_longer_than_the_churn_cap() {
        let cfg = EngineConfig {
            paging: lserve_kvcache::PagingConfig::new(8, 4, KvPrecision::Int4),
            prefill_tile: 8,
            dynamic_budget: Some(16),
            reuse_interval: 2,
            ..EngineConfig::lserve()
        };
        let (prompt_len, new_tokens) = (200, 40);
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, prompt_len + new_tokens);
        let exec = ModelExecutor::new(w, cfg);
        let mut s = exec.new_sequence();
        let cap = dense_cap(&exec, &s, prompt_len);
        assert!(
            exec.config().paging.pages_for(prompt_len) > cap,
            "the prompt outgrows the cap"
        );
        let prompt: Vec<u32> = (0..prompt_len).map(|t| (t * 7 % 90) as u32).collect();
        let out = exec.generate(&mut s, &mut pool, &prompt, new_tokens);
        assert_eq!(out.map(|t| t.len()), Ok(new_tokens));
        assert!(s.stats().pages_demoted > 0, "the sweep ran after the tile");
    }
}
