//! What a row does between its KV append and its attention: dynamic page
//! selection (§3.5), the tiered-memory residency pass — selection-driven
//! demotion, promotion, promotion by exchange — and selector-driven prefetch;
//! plus [`ModelExecutor::step_page_demand`], the reservation that makes the
//! pass unable to fail short of a bounded host refusing a demotion.

use lserve_kvcache::{HeadCache, Moved, PageId, PagePool};
use lserve_selector::PageSelector;
use lserve_trace::lane;

use super::{ModelExecutor, OutOfPagesError, SequenceState};

impl ModelExecutor {
    /// Free hot pages one more token of `state` can claim: the pages its
    /// append allocates plus the promotions its residency pass cannot pay for
    /// by exchange. A head read whole (streaming window, or dense history
    /// within the budget) needs a slot for each page that holds none; a
    /// selecting head promotes at most a budget of pages and can exchange one
    /// of its own sole-owned slot-holding pages for each, so it needs slots
    /// only while it holds fewer of those than a budget. Reserve this much
    /// and the step cannot fail, short of a bounded host refusing a demotion.
    pub fn step_page_demand(&self, state: &SequenceState, pool: &PagePool) -> usize {
        let mut need = state.pages_needed_for_next_token(pool);
        if pool.total_in_use() == pool.in_use() && pool.in_flight_transfers() == 0 {
            return need; // nothing below the hot tier or on its way there
        }
        let np = pool.config().physical_page_size();
        let budget = state
            .sparsity
            .effective_budget(self.cfg.dynamic_budget, state.tokens_processed);
        for (layer, selectors) in state.layers.iter().zip(&state.selectors) {
            for (kv, selector) in selectors.iter().enumerate() {
                need += match (layer.head(kv), selector, budget) {
                    (HeadCache::Dense(c), Some(_), Some(b)) if c.tokens() + 1 > b => {
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
                    (head, ..) => pool.swap_in_demand(head.page_ids()),
                };
            }
        }
        need
    }

    /// Runs dynamic page selection for every dense head of layer `l` (§3.5)
    /// for the row at absolute position `pos` and decode step `step`, whose
    /// post-RoPE queries are `q_row`: fills `plan` with the per-KV-head
    /// selections plus the selector's sparsity-aware cost hints (estimated
    /// visited tokens per selected head) that feed the parallel shard balancer.
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
        // The per-sequence schedule may tighten (or replace) the engine-wide
        // budget from a given position onward — the per-branch sparsity dial.
        let Some(budget) = state
            .sparsity
            .effective_budget(self.cfg.dynamic_budget, pos)
        else {
            return;
        };
        let mut queries: Vec<&[f32]> = Vec::with_capacity(group);
        for kv in 0..model.num_kv_heads {
            let Some(selector) = state.selectors[l][kv].as_mut() else {
                continue;
            };
            let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                continue;
            };
            // Skip selection entirely while the history fits the budget —
            // the offline-profiled "no slowdown at short contexts" rule
            // (§5.5).
            if cache.tokens() <= budget {
                continue;
            }
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
            plan.hints[kv] = Some(sel.estimated_cost_tokens(pool, cache));
            plan.selections[kv] = Some(sel.pages);
        }
    }

    /// The residency pass of the tiered KV memory, run per layer between page
    /// selection and the attention kernels:
    ///
    /// 1. **Selection-driven demotion** (when
    ///    [`EngineConfig::demote_after_chunks`] is `Some(k)`): dense-head
    ///    pages the head's reusable selector has skipped for `k` consecutive
    ///    fresh selection chunks are demoted to the cold tier — except pages
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
    ///    slot by **exchange** ([`ModelExecutor::exchange_out`]): one modeled
    ///    transfer each way, zero net hot pages.
    ///
    /// Migrations move data, never mutate it, so outputs are bit-identical to
    /// the always-resident baseline — and, because the async copy engine only
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
    /// [`EngineStats::add_migration`] call per pass, on success and failure
    /// alike.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] when a required promotion finds neither a
    /// free hot slot nor a page of this sequence to exchange for one; the
    /// scheduler treats this like any other out-of-memory decode failure
    /// (release and replay).
    pub(super) fn apply_residency(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        l: usize,
        plan: &mut RowPlan,
        reserved: &mut usize,
    ) -> Result<(), OutOfPagesError> {
        let (mut demoted, mut promoted) = (Moved::default(), Moved::default());
        let RowPlan {
            selections,
            fresh,
            fetch_units,
            ..
        } = plan;
        let result = 'pass: {
            for (kv, selection) in selections.iter().enumerate() {
                let Some(sel) = selection else {
                    // No selection this step: the kernel reads this head's
                    // whole page table (full-history dense attention, or a
                    // streaming window), so every page must be readable
                    // first. Non-resident pages appear here only on sequences
                    // seeded from a prefix snapshot captured after demotion —
                    // the common case is a no-op scan.
                    let Some(moved) = pool.ensure_resident(state.layers[l].head(kv).page_ids())
                    else {
                        break 'pass Err(OutOfPagesError);
                    };
                    *reserved = reserved.saturating_sub(moved.pages as usize);
                    promoted += moved;
                    fetch_units[kv] += moved.unhidden;
                    continue;
                };
                let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                    continue;
                };
                let table = cache.page_table();
                if let (Some(k), true) = (self.cfg.demote_after_chunks, fresh[kv]) {
                    if let Some(selector) = state.selectors[l][kv].as_ref() {
                        // Never demote the append target (the table's
                        // final page) or anything the current selection
                        // reads.
                        let stale = selector.stale_pages(k).into_iter();
                        let stale = stale.filter(|p| p + 1 < table.len() && !sel.contains(p));
                        demoted += pool.demote_all(stale.map(|p| table[p]));
                    }
                }
                for &p in sel {
                    let id = table[p];
                    let mut moved = None;
                    if pool.holds_slot(id) || pool.free_pages() > *reserved {
                        moved = pool.ensure_resident([id]);
                    }
                    if moved.is_none() {
                        match Self::exchange_out(state, pool, l, selections, kv) {
                            Some((head, out, given_up)) => {
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
                            }
                            // Nothing to exchange: the slot, if one is free,
                            // is one this promotion had reserved.
                            None => *reserved = reserved.saturating_sub(1),
                        }
                        moved = pool.ensure_resident([id]);
                    }
                    let Some(moved) = moved else {
                        break 'pass Err(OutOfPagesError);
                    };
                    promoted += moved;
                    fetch_units[kv] += moved.unhidden;
                }
            }
            Ok(())
        };
        state.stats.add_migration(demoted, promoted);
        result
    }

    /// Promotion by exchange: frees one hot slot for a page that head `kv` of
    /// layer `l` selected, by demoting one of the same sequence's own pages
    /// that no kernel reads this step — `kv`'s own first, then the layer's
    /// other dense heads', each longest unselected first (the selector's
    /// last-use order; oldest page on ties, unranked pages last). Never a
    /// page in this step's selections, a table's final page (the append
    /// target), a head read whole, or a co-owned page ([`PagePool::demote`]
    /// refuses those: a batch peer may be about to read it). Returns `(head,
    /// page, what its demotion moved)` given up, or `None` when nothing is
    /// exchangeable.
    pub(super) fn exchange_out(
        state: &SequenceState,
        pool: &mut PagePool,
        l: usize,
        selections: &[Option<Vec<usize>>],
        kv: usize,
    ) -> Option<(usize, PageId, Moved)> {
        let heads = std::iter::once(kv).chain((0..selections.len()).filter(|&h| h != kv));
        for head in heads {
            let (Some(sel), HeadCache::Dense(cache), Some(selector)) = (
                selections[head].as_ref(),
                state.layers[l].head(head),
                state.selectors[l][head].as_ref(),
            ) else {
                continue;
            };
            let table = cache.page_table();
            let stalest = (0..table.len().saturating_sub(1))
                .filter(|p| {
                    !sel.contains(p) && pool.holds_slot(table[*p]) && pool.refcount(table[*p]) == 1
                })
                // A page the selector has not ranked yet sorts last.
                .min_by_key(|&p| selector.last_selected_chunk(p).unwrap_or(u64::MAX));
            if let Some(p) = stalest {
                // Sole-owned and holding a slot: only a full bounded host
                // with no nvme below it refuses, and it refuses every page.
                let moved = pool.demote_all([table[p]]);
                return (moved.pages > 0).then_some((head, table[p], moved));
            }
        }
        None
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
        for kv in 0..state.selectors[l].len() {
            if *budget == 0 {
                return;
            }
            let Some(selector) = state.selectors[l][kv].as_ref() else {
                continue;
            };
            if selector.next_fresh_step() != Some(next_step) {
                continue;
            }
            let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                continue;
            };
            let table = cache.page_table();
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
/// selected page set, the selector's cost hint for LPT balancing, whether the
/// selection was freshly scored (the demotion sweep runs only then), and the
/// unhidden transfer units its promotions stalled the shard for.
#[derive(Debug, Default)]
pub(super) struct RowPlan {
    pub(super) row: Option<usize>,
    pub(super) selections: Vec<Option<Vec<usize>>>,
    pub(super) hints: Vec<Option<u64>>,
    pub(super) fresh: Vec<bool>,
    pub(super) fetch_units: Vec<u64>,
}

impl RowPlan {
    /// Empties the plan for a row of `heads` KV heads, keeping the buffers.
    fn reset(&mut self, heads: usize) {
        self.selections.clear();
        self.selections.resize(heads, None);
        self.hints.clear();
        self.hints.resize(heads, None);
        self.fresh.clear();
        self.fresh.resize(heads, false);
        self.fetch_units.clear();
        self.fetch_units.resize(heads, 0);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lserve_attention::HeadKind;
    use lserve_kvcache::{MigrationMode, Residency, TierConfig};
    use lserve_model::{greedy_next_token, ModelConfig, ModelWeights};
    use lserve_trace::Tracer;

    use super::*;
    use crate::EngineConfig;

    fn tiny_weights() -> Arc<ModelWeights> {
        Arc::new(ModelWeights::random(&ModelConfig::tiny(), 42))
    }

    /// Selection-driven demotion (tiered KV memory): with `demote_after_chunks`
    /// on, selector-stale dense pages migrate to the cold tier and come back
    /// when a selection re-picks them — and the emitted logits are
    /// bit-identical to the always-resident baseline at every step.
    #[test]
    fn selection_driven_demotion_is_bit_identical_and_migrates() {
        let mut base = EngineConfig::lserve_fp16();
        base.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
        base.dynamic_budget = Some(16);
        base.reuse_interval = 2;
        let w = tiny_weights();

        let run = |demote: Option<usize>| -> (Vec<Vec<f32>>, u64, u64, usize) {
            let mut cfg = base.clone();
            cfg.demote_after_chunks = demote;
            let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
            let mut pool = cfg.make_pool_for(&w.config, 1024);
            let mut s = exec.new_sequence();
            let prompt: Vec<u32> = (0..40).map(|i| (i % 90) as u32).collect();
            let first = exec.prefill(&mut s, &mut pool, &prompt).unwrap();
            let mut next = greedy_next_token(&first.logits);
            let mut all = Vec::new();
            let mut peak_cold = 0;
            for _ in 0..40 {
                let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
                next = greedy_next_token(&out.logits);
                peak_cold = peak_cold.max(pool.cold_in_use());
                all.push(out.logits);
            }
            let stats = s.stats();
            s.release(&mut pool);
            assert_eq!(pool.in_use(), 0);
            assert_eq!(pool.cold_in_use(), 0, "release must drain the cold tier");
            (all, stats.pages_demoted, stats.pages_promoted, peak_cold)
        };

        let (want, d0, p0, cold0) = run(None);
        assert_eq!((d0, p0, cold0), (0, 0, 0), "baseline stays resident");
        let (got, demoted, _promoted, peak_cold) = run(Some(1));
        assert_eq!(got, want, "demotion changed the logits");
        assert!(demoted > 0, "stale pages must actually demote");
        assert!(peak_cold > 0, "cold tier must hold the demoted pages");
    }

    /// The exchange tests' engine: 8-token pages, a four-page selection
    /// budget, a fresh scoring every other step.
    fn exchange_cfg(demote_after_chunks: Option<usize>) -> EngineConfig {
        EngineConfig {
            paging: lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16),
            dynamic_budget: Some(32),
            reuse_interval: 2,
            demote_after_chunks,
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
        exec.head_kinds()
            .iter()
            .enumerate()
            .find_map(|(l, kinds)| {
                let mut dense = (0..kinds.len()).filter(|&h| kinds[h] == HeadKind::Dense);
                Some((l, dense.next()?, dense.next()?))
            })
            .expect("a layer with two dense heads")
    }

    /// Selections that read the first and the last page of every dense head
    /// of layer `l` (streaming heads are read whole).
    fn first_and_last(s: &SequenceState, l: usize) -> Vec<Option<Vec<usize>>> {
        (0..s.layers[l].num_heads())
            .map(|h| match s.layers[l].head(h) {
                HeadCache::Dense(c) => Some(vec![0, c.num_pages() - 1]),
                HeadCache::Streaming(_) => None,
            })
            .collect()
    }

    #[test]
    fn exchange_gives_up_the_stalest_page_no_kernel_reads() {
        let cfg = exchange_cfg(None);
        let w = wide_weights();
        let mut pool = PagePool::new(cfg.paging, 4096, w.config.head_dim);
        let exec = ModelExecutor::new(w, cfg);
        let (s, _) = past_budget(&exec, &mut pool);
        let (l, kv, peer) = dense_pair(&exec);
        let mut selections = first_and_last(&s, l);
        let table = s.layers[l].head(kv).as_dense().page_table().to_vec();
        let selector = s.selectors[l][kv].as_ref().unwrap();

        // Its own head first, and there the page unselected the longest.
        let stalest = (1..=24)
            .rev()
            .map(|k| selector.stale_pages(k))
            .find_map(|stale| {
                let eligible: Vec<PageId> = stale
                    .into_iter()
                    .filter(|&p| p != 0 && p + 1 < table.len())
                    .map(|p| table[p])
                    .collect();
                (!eligible.is_empty()).then_some(eligible)
            })
            .expect("a head past its budget has unselected pages");
        let (head, out, moved) =
            ModelExecutor::exchange_out(&s, &mut pool, l, &selections, kv).unwrap();
        assert_eq!(head, kv);
        assert!(stalest.contains(&out), "{out:?} is not among {stalest:?}");
        assert_eq!(pool.residency(out), Residency::Cold);
        assert_eq!(moved.units, 8, "one page of token-units");

        // Never a co-owned page: with every candidate but one shared, that one.
        let candidates: Vec<PageId> = table[1..table.len() - 1]
            .iter()
            .copied()
            .filter(|&id| id != out)
            .collect();
        for &id in &candidates[1..] {
            pool.retain(id);
        }
        let (head, sole, _) =
            ModelExecutor::exchange_out(&s, &mut pool, l, &selections, kv).unwrap();
        assert_eq!((head, sole), (kv, candidates[0]));
        for &id in &candidates[1..] {
            pool.free(id);
        }

        // Never a selected page, and another head's only when its own has
        // nothing left: with all of `kv` selected, the peer gives one up.
        selections[kv] = Some((0..table.len()).collect());
        let (head, lent, _) =
            ModelExecutor::exchange_out(&s, &mut pool, l, &selections, kv).unwrap();
        assert_eq!(head, peer);
        let peer_table = s.layers[l].head(peer).as_dense().page_table();
        let lent_at = peer_table.iter().position(|&id| id == lent).unwrap();
        assert!(lent_at != 0 && lent_at + 1 < peer_table.len());

        // Exhaust the layer: no peer gave up a page a kernel reads or an
        // append writes, streaming heads and other layers were never touched.
        while ModelExecutor::exchange_out(&s, &mut pool, l, &selections, kv).is_some() {}
        for (h, selection) in selections.iter().enumerate().filter(|&(h, _)| h != kv) {
            match (s.layers[l].head(h), selection) {
                (HeadCache::Dense(c), Some(sel)) => {
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
        for other in (0..s.layers.len()).filter(|&o| o != l) {
            assert!(s.layers[other].page_ids().all(|id| pool.is_hot(id)));
        }
    }

    #[test]
    fn residency_fails_only_when_nothing_is_exchangeable() {
        let cfg = exchange_cfg(None);
        let w = wide_weights();
        let mut pool = PagePool::new(cfg.paging, 4096, w.config.head_dim);
        let exec = ModelExecutor::new(w, cfg);
        let (mut s, _) = past_budget(&exec, &mut pool);
        let (l, kv, _) = dense_pair(&exec);
        let mut plan = RowPlan::default();
        plan.reset(s.layers[l].num_heads());
        plan.selections = first_and_last(&s, l);

        // One cold page selected, and not one free hot slot.
        let wanted = s.layers[l].head(kv).as_dense().page_table()[1];
        pool.demote(wanted).unwrap();
        plan.selections[kv].as_mut().unwrap().insert(1, 1);
        while pool.allocate().is_some() {}
        let hot = pool.in_use();

        // Every page co-owned: nothing to exchange, the pass fails clean.
        pool.retain_all(s.page_ids());
        let failed = exec.apply_residency(&mut s, &mut pool, l, &mut plan, &mut 0);
        assert_eq!(failed, Err(OutOfPagesError));
        assert_eq!(pool.residency(wanted), Residency::Cold);
        assert_eq!(s.stats().pages_demoted + s.stats().pages_promoted, 0);

        // Sole-owned again: one transfer each way, zero net hot pages.
        s.clone().release(&mut pool);
        exec.apply_residency(&mut s, &mut pool, l, &mut plan, &mut 0)
            .unwrap();
        assert!(pool.is_hot(wanted));
        assert_eq!(pool.in_use(), hot);
        assert_eq!((s.stats().pages_demoted, s.stats().pages_promoted), (1, 1));
        assert_eq!(s.stats().migrated_token_units, 16);
        assert_eq!(
            plan.fetch_units[kv], 8,
            "the promotion stalls its own shard"
        );
    }

    /// A hot tier with exactly the reserved pages free before every step —
    /// each promotion has to exchange — emits the logits of the
    /// always-resident run, bit for bit, under either migration engine and
    /// with or without a bounded host over an nvme tier.
    #[test]
    fn exchange_is_bit_identical_to_the_always_resident_run() {
        let w = wide_weights();
        let run = |tight: Option<(MigrationMode, TierConfig)>| {
            let cfg = exchange_cfg(tight.map(|_| 2));
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
                for layer in &s.layers {
                    for h in (0..layer.num_heads()).filter(|&h| !layer.head(h).is_streaming()) {
                        for &id in layer
                            .head(h)
                            .as_dense()
                            .page_table()
                            .iter()
                            .skip(1)
                            .step_by(2)
                        {
                            demoted += u64::from(pool.demote(id).is_some());
                        }
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
        assert_eq!(none, 0, "an always-resident run never exchanges");
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
}
