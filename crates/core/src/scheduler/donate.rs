//! The scheduler's side of the cross-request prefix cache: donation of
//! computed prefixes on tile-grid boundaries, completion and cancellation, and
//! the relief ladder's first rung (spill, else evict).

use lserve_trace::lane;

use super::{Scheduler, SeqCore};
use crate::executor::SequenceState;
use crate::prefix::CachedPrefix;

impl Scheduler {
    /// Donates the current prompt prefix of running sequence `i` into the cache
    /// when its feed position sits on a donation point: a tile-grid boundary
    /// inside the prompt, or the end of the prompt. Idempotent — a prefix that is
    /// already cached is refused by the tree (and LRU-touched).
    pub(super) fn maybe_donate(&mut self, i: usize) {
        let seq = &self.running[i];
        let (fed, plen, chunk) = (seq.feed.fed, seq.core.prompt.len(), self.scfg.chunk_tokens);
        // Budget-dependent selector history: overridden sequences never seed
        // the cache (see `admit`).
        if !self.scfg.prefix_cache
            || !seq.core.spec.sparsity.is_empty()
            || fed < chunk
            || fed > plen
            || !(fed.is_multiple_of(chunk) || fed == plen)
        {
            return;
        }
        debug_assert_eq!(
            seq.feed.state.context_len(),
            fed,
            "donation off a clean feed position"
        );
        // Skip the state capture entirely when the prefix is already cached (the
        // common case on warm traffic re-walking a donated prompt).
        if !self.prefix.is_cached(&seq.core.prompt[..fed]) {
            let value = CachedPrefix::capture(&seq.feed.state);
            self.prefix
                .insert(&mut self.pool, &seq.core.prompt[..fed], value);
        }
    }

    /// Donates the absorbed token stream of a clean state — `prompt ++
    /// generated`, truncated to `state.context_len()` — into the prefix
    /// cache. The generalization of completion donation that also serves
    /// cancellation and spills: whatever prefix the request got through is
    /// warm for the next request that walks it. Sub-grid prompts never donate
    /// (their tile covered `[0, prompt_len)`, so their KV is not what a longer
    /// prompt's cold run would compute), and neither do overridden sequences
    /// (their selector history is budget-dependent, see `admit`).
    pub(super) fn donate_tokens(
        &mut self,
        core: &SeqCore,
        generated: &[u32],
        state: &SequenceState,
    ) {
        let chunk = self.scfg.chunk_tokens;
        let absorbed = state.context_len();
        if !self.scfg.prefix_cache
            || !core.spec.sparsity.is_empty()
            || core.prompt.len() < chunk
            || absorbed < chunk
        {
            return;
        }
        let key = absorbed_stream(&core.prompt, generated, state);
        debug_assert_eq!(key.len(), absorbed);
        if !self.prefix.is_cached(&key) {
            let value = CachedPrefix::capture(state);
            self.prefix.insert(&mut self.pool, &key, value);
        }
    }

    /// One pressure-relief step against the prefix cache. With a memory
    /// hierarchy configured (bounded host and/or nvme), the cache first
    /// *spills*: the LRU entry's sole-owned hot pages demote into the cold
    /// tiers while the entry stays cached — long-tail prefixes keep their
    /// warm-capacity value, and a later hit pays an accounted promotion
    /// instead of a prefill recompute. Only when nothing can spill (all
    /// cold already, or the bounded tiers are full) does it fall back to
    /// real eviction: removing the LRU entry whose removal actually frees
    /// physical pages, skipping entries whose pages are all co-owned
    /// elsewhere. Returns `false` when neither lever can relieve the pool,
    /// and [`Scheduler::relieve`] goes on to its next rung.
    ///
    /// Under the default tier shape (unbounded host, no nvme) spilling is
    /// skipped entirely: an unbounded modeled host would be free fake
    /// capacity, and the historical evict-under-pressure behavior stands.
    pub(super) fn evict_prefix_one(&mut self) -> bool {
        let tiers = self.pool.tier_config();
        if (tiers.host_pages > 0 || tiers.nvme) && self.prefix.spill_lru(&mut self.pool).is_some() {
            self.report.prefix_spills += 1;
            self.trace_relief("prefix.spill");
            return true;
        }
        if self.prefix.evict_lru_freeing(&mut self.pool).is_none() {
            return false;
        }
        self.report.prefix_evictions += 1;
        self.trace_relief("prefix.evict");
        true
    }

    fn trace_relief(&self, name: &'static str) {
        let tid = lserve_trace::CONTROL_TID;
        self.scfg
            .tracer
            .instant(name, "prefix", lane::SCHEDULER, tid, &[]);
    }

    /// Drains the prefix cache entirely — the last resort before truncating a
    /// lone sequence that cannot grow, where reclaiming every tree-only page
    /// matters more than cache warmth. Returns `true` if any page was freed.
    pub(super) fn evict_prefix_all(&mut self) -> bool {
        let before = self.pool.free_pages();
        while self.prefix.evict_lru(&mut self.pool).is_some() {
            self.report.prefix_evictions += 1;
        }
        self.pool.free_pages() > before
    }
}

/// The token stream a clean state has absorbed: `prompt ++ generated`,
/// truncated to `state.context_len()` — the key its snapshot is cached under.
pub(super) fn absorbed_stream(
    prompt: &[u32],
    generated: &[u32],
    state: &SequenceState,
) -> Vec<u32> {
    let absorbed = state.context_len();
    prompt
        .iter()
        .chain(generated)
        .take(absorbed)
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    /// Builds a request whose prompt is `shared ++ suffix`.
    fn extend(shared: &[u32], suffix: &[u32], id: u64, gen: usize) -> RequestSpec {
        let mut prompt = shared.to_vec();
        prompt.extend_from_slice(suffix);
        RequestSpec::new(id, prompt).max_new_tokens(gen)
    }

    fn shared_tokens(len: usize) -> Vec<u32> {
        (0..len).map(|i| ((i * 5 + 3) % 90) as u32).collect()
    }

    #[test]
    fn prefix_hit_matches_cold_run_and_skips_prefill() {
        let cfg = EngineConfig::lserve_fp16();
        let shared = shared_tokens(40);
        let donor = extend(&shared, &[1, 2, 3, 4, 5, 6, 7, 8], 1, 6);
        let consumer = extend(&shared, &[70, 71, 72, 73, 74, 75, 76, 77], 2, 6);

        // Cold reference: same scheduler policy, prefix cache off.
        let mut cold_cfg = SchedulerConfig::new(4096);
        cold_cfg.chunk_tokens = 8;
        let mut cold = scheduler(cfg.clone(), cold_cfg);
        cold.submit(consumer.clone());
        let cold_report = cold.run_to_completion(10_000);
        let cold_tokens = cold_report.completed[0].1.clone();
        let cold_ttft = cold_report.request_metrics[0].ttft_work_tokens;

        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(cfg, scfg);
        sched.submit(donor);
        sched.run_to_completion(10_000);
        assert!(sched.prefix_cache_entries() > 0, "donor donated anchors");
        sched.submit(consumer);
        let report = sched.run_to_completion(10_000);
        let m2 = report
            .request_metrics
            .iter()
            .find(|m| m.id == 2)
            .expect("consumer completed");
        // The 40 shared tokens sit on tile-grid anchors (multiples of 8).
        assert_eq!(m2.cached_prompt_tokens, 40);
        assert_eq!(
            report.completed.iter().find(|(id, _)| *id == 2).unwrap().1,
            cold_tokens,
            "warm outputs must be bit-identical to cold"
        );
        // Acceptance: warm TTFT (work tokens) at least 3x better than cold.
        assert!(
            m2.ttft_work_tokens * 3 <= cold_ttft,
            "warm ttft {} vs cold {}",
            m2.ttft_work_tokens,
            cold_ttft
        );
        assert!(report.prefix_hit_tokens >= 40);
        assert!(report.prefix_hit_rate() > 0.0);
    }

    #[test]
    fn flush_prefix_cache_returns_all_pages() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 32, 4));
        sched.run_to_completion(10_000);
        assert!(sched.pool_in_use() > 0, "cache retains the donor's pages");
        assert!(sched.prefix_cache_entries() > 0);
        assert!(sched.prefix_cached_page_refs() >= sched.pool_in_use());
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0, "flush releases everything");
        assert_eq!(sched.prefix_cache_entries(), 0);
    }

    #[test]
    fn multi_turn_followup_hits_completed_conversation() {
        let cfg = EngineConfig::lserve_fp16();
        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(cfg, scfg);
        let turn1 = request(1, 32, 8);
        sched.submit(turn1.clone());
        let r1 = sched.run_to_completion(10_000);
        let generated = r1.completed[0].1.clone();
        assert_eq!(generated.len(), 8);
        // Turn 2: the whole first exchange plus a new query.
        let mut prompt2 = turn1.prompt.clone();
        prompt2.extend_from_slice(&generated);
        prompt2.extend_from_slice(&[33, 44, 55, 66]);
        sched.submit(RequestSpec::new(2, prompt2).max_new_tokens(4));
        let r2 = sched.run_to_completion(10_000);
        let m2 = r2.request_metrics.iter().find(|m| m.id == 2).unwrap();
        // The completed-conversation entry covers prompt + generated[..7]: the
        // deepest match beats every prompt-only anchor.
        assert_eq!(m2.cached_prompt_tokens, 32 + generated.len() - 1);
    }

    #[test]
    fn sub_grid_prompt_never_donates_even_after_long_generation() {
        // A prompt shorter than the tile grid cell tiles only [0, prompt_len)
        // and bases its decode-step indices there, so its KV is not what a cold
        // run of a longer prompt would compute. Even when generation pushes the
        // absorbed conversation past chunk_tokens, nothing may be donated.
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 16;
        scfg.prefix_cache = true;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 4, 40)); // absorbed conversation: 43 tokens
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed[0].1.len(), 40);
        assert_eq!(
            sched.prefix_cache_entries(),
            0,
            "sub-grid prompt must not donate its conversation"
        );
        assert_eq!(sched.pool_in_use(), 0);
    }

    #[test]
    fn prefix_cache_evicts_under_pressure_instead_of_blocking() {
        // Pool sized for roughly one sequence: distinct prompts fill the cache,
        // and later admissions must evict stale entries rather than wedge.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(48) + 1);
        let mut scfg = SchedulerConfig::new(one_seq_pages + 4);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg);
        for id in 0..4u64 {
            sched.submit(
                RequestSpec::new(
                    id,
                    (0..24)
                        .map(|t| ((t * 7 + id as usize * 13) % 90) as u32)
                        .collect(),
                )
                .max_new_tokens(6),
            );
        }
        let r = sched.run_to_completion(100_000);
        assert_eq!(r.completed.len(), 4, "rejected: {:?}", r.rejected);
        assert!(r.prefix_evictions > 0, "pressure must evict cache entries");
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0);
    }
}
