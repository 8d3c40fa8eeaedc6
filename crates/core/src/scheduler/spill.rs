//! The relief ladder every page shortfall climbs, and its swap rung: getting
//! a parked state out of the hot tier — its cached prefixes let go first,
//! then it degrades to a replay.

use std::collections::HashSet;

use lserve_kvcache::PageId;

use super::donate::absorbed_stream;
use super::{Scheduler, SloKey};

impl Scheduler {
    /// The relief ladder: one rung of relief for a caller `need` pages short,
    /// cheapest first, or `false` when no rung frees anything. (1) An idle
    /// cached prefix spills or goes; (2) a swap-parked state that holds hot
    /// pages spills — it may pin the very pages rung 1 could not free, and one
    /// victim's relief is finished before another is preempted; (3) a running
    /// sequence ranked below `than` is preempted (`None`, admission's ask,
    /// never preempts). Callers ask until their shortfall fits and keep only
    /// their own last resort (DESIGN.md "Relief ladder").
    pub(super) fn relieve(&mut self, need: usize, than: Option<SloKey>) -> bool {
        self.evict_prefix_one()
            || self.spill_swapped_queue(need)
            || than.is_some_and(|than| self.make_room_below(than))
    }

    /// Rung 2 of [`Scheduler::relieve`], for a caller short of `need` pages:
    /// spills the worst-ranked swap-parked state whose spill relieves that
    /// shortage — one that still holds hot pages (kept hot by a co-owner or a
    /// refused demotion), or any parked state when it is the bounded
    /// hierarchy's total that is short. A state parked entirely below the hot
    /// tier frees no hot slot and is left to resume by promotion. Returns
    /// `false` when `need` already fits or no such state is parked, so states
    /// go one at a time and only until the demand fits.
    pub(super) fn spill_swapped_queue(&mut self, need: usize) -> bool {
        if !self.admission_blocked(need) {
            return false;
        }
        let total_short = need > self.tier_free_total();
        let victim = self.queue.iter().rposition(|q| {
            q.swap.as_ref().is_some_and(|s| {
                total_short
                    || s.state.resident_pages() > self.pool.swap_in_demand(s.state.page_ids())
            })
        });
        let Some(qi) = victim else {
            return false;
        };
        self.spill_parked(qi);
        true
    }

    /// Gets the swap-parked queue entry `qi` out of the hot tier. What pins a
    /// parked state's pages hot is mostly the prefix cache — the prefixes this
    /// very sequence donated co-own them, and the pool demotes no co-owned
    /// page — so the cache lets go first: each cached prefix of the state's
    /// token stream that is the last other owner of one of its hot pages
    /// ([`CachedPrefix::pins`]) is evicted, deepest first, the pages demote,
    /// and the state stays parked intact (it donates again at its next
    /// donation point). A prefix someone else holds too — a shared system
    /// prompt a live request was seeded from — stays cached: evicting it
    /// would free nothing. Only a state still holding hot pages after that
    /// (shared with a live sequence, or a full bounded host refused) degrades
    /// to a replay: its completed prefix is donated, so only the suffix past
    /// its deepest cache hit is re-fed, then it is released — what Replay
    /// would have freed at preemption time.
    pub(super) fn spill_parked(&mut self, qi: usize) {
        // Out of the queue while the cache and the pool take `&mut self`.
        let mut q = self.queue.remove(qi).expect("a queued entry");
        let mut swap = q.swap.take().expect("a swap-parked entry");
        let absorbed = absorbed_stream(&q.core.prompt, &q.generated, &swap.state);
        let owned: HashSet<PageId> = swap.state.page_ids().collect();
        let evicted = self
            .prefix
            .evict_prefixes_of(&mut self.pool, &absorbed, |v, pool| v.pins(&owned, pool));
        self.report.prefix_evictions += evicted as u64;
        let parked = evicted > 0 && {
            self.pool.demote_all(swap.state.page_ids());
            swap.state.resident_pages() == self.pool.swap_in_demand(swap.state.page_ids())
        };
        if !parked {
            self.donate_tokens(&q.core, &q.generated, &swap.state);
            swap.state.release(&mut self.pool);
        }
        self.note(
            if parked { "swap.unpin" } else { "swap.spill" },
            q.core.spec.id,
            &[("evicted", evicted as u64)],
        );
        q.swap = parked.then_some(swap);
        self.queue.insert(qi, q);
    }
}

#[cfg(test)]
mod tests {
    use lserve_kvcache::MigrationMode;

    use super::super::test_support::*;

    /// The work-conserving invariant on a tiny copy of the benchmark's
    /// overcommitted scene — twelve unshared prompts into a pool of two
    /// sequences over a bounded host and nvme, selection-driven demotion on,
    /// preempting as the admitted batches grow through decode: nothing a
    /// parked victim computed is thrown away, and every output equals its
    /// solo run, cache off and on.
    #[test]
    fn overcommit_recomputes_nothing_and_never_replays_unclean() {
        let (cfg, specs, one) = overcommit_scene(96);
        let exec = Arc::new(ModelExecutor::new(weights(), cfg));
        let floor: usize = specs
            .iter()
            .map(|r| r.prompt.len() + r.max_new_tokens)
            .sum();

        let solo: Vec<Vec<u32>> = specs
            .iter()
            .map(|r| {
                let mut scfg = SchedulerConfig::new(4 * one);
                scfg.chunk_tokens = 16;
                let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
                sched.submit(r.clone());
                sched.run_to_completion(100_000).completed.remove(0).1
            })
            .collect();

        for prefix_cache in [false, true] {
            let scfg = overcommit_policy(one, prefix_cache);
            let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
            let handles: Vec<RequestHandle> =
                specs.iter().map(|r| sched.submit(r.clone())).collect();
            let r = sched.run_to_completion(100_000);
            let outputs: Vec<Vec<u32>> = r.completed.iter().map(|(_, t)| t.clone()).collect();
            assert_eq!(
                outputs, solo,
                "cache {prefix_cache}: outputs differ from solo runs"
            );
            for h in &handles {
                let terminal = h.drain_events().iter().filter(|e| e.is_terminal()).count();
                assert_eq!(terminal, 1, "cache {prefix_cache}: request {}", h.id());
            }
            assert!(r.preemptions > 0, "cache {prefix_cache}: no pressure");
            assert!(
                sched.work_tokens() as f64 <= 1.15 * floor as f64,
                "cache {prefix_cache}: {} work tokens for a floor of {floor}",
                sched.work_tokens()
            );
            sched.flush_prefix_cache();
            assert_eq!(sched.pool_in_use() + sched.pool_cold_in_use(), 0);
        }
    }

    #[test]
    fn bounded_host_with_nvme_spills_and_matches_unbounded_outputs() {
        // Same overcommitted swap workload under three tier shapes: the
        // historical unbounded host, and a host too small to absorb a full
        // victim backed by the modeled nvme tier. The bounded run must spill
        // host pages down, recall them on resume, and still produce
        // bit-identical outputs — tiers move modeled cost only.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);

        let run = |host_pages: usize, nvme: bool| {
            let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
            scfg.chunk_tokens = 16;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.preemption = PreemptionPolicy::Swap;
            // Sync keeps every swap-out demotion (and therefore the host
            // overflow this test is about) on the issuing step; async tier
            // traffic is covered by the `proptest_hierarchy` suite.
            scfg.migration = MigrationMode::Sync;
            scfg.host_pages = host_pages;
            scfg.nvme = nvme;
            let mut sched = scheduler(cfg.clone(), scfg);
            sched.submit(request(1, 60, 10));
            sched.submit(request(2, 60, 10));
            let r = sched.run_to_completion(100_000);
            assert_eq!(sched.pool_in_use(), 0, "hot pages leaked");
            assert_eq!(sched.pool_cold_in_use(), 0, "cold pages leaked");
            assert_eq!(sched.pool_nvme_in_use(), 0, "nvme pages leaked");
            r
        };
        let unbounded = run(0, false);
        assert!(unbounded.preemptions > 0, "workload must overcommit");
        // Host capacity well below one victim's page set forces spills.
        let tight = run((one_seq_pages / 4).max(1), true);
        assert_eq!(
            tight.completed, unbounded.completed,
            "tier shape changed outputs"
        );
        assert!(tight.pages_spilled > 0, "bounded host must spill to nvme");
        assert!(tight.pages_recalled > 0, "resume must recall from nvme");
        assert!(tight.peak_nvme_pages > 0);
        assert_eq!(unbounded.pages_spilled, 0);
        assert_eq!(unbounded.peak_nvme_pages, 0);
    }

    #[test]
    fn bounded_host_without_nvme_degrades_to_replay_and_matches_outputs() {
        // With a bounded host and no tier below it, a swap-out that finds the
        // host full is refused page by page; the scheduler's drop-and-replay
        // fallbacks keep the run progressing and the outputs bit-identical.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);

        let run = |host_pages: usize| {
            let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
            scfg.chunk_tokens = 16;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.preemption = PreemptionPolicy::Swap;
            scfg.migration = MigrationMode::Sync; // see the nvme test above
            scfg.host_pages = host_pages;
            scfg.nvme = false; // the point: no tier below the bounded host
            let mut sched = scheduler(cfg.clone(), scfg);
            sched.submit(request(1, 60, 10));
            sched.submit(request(2, 60, 10));
            let r = sched.run_to_completion(100_000);
            assert_eq!(sched.pool_in_use(), 0, "hot pages leaked");
            assert_eq!(sched.pool_cold_in_use(), 0, "cold pages leaked");
            r
        };
        let unbounded = run(0);
        let tight = run((one_seq_pages / 4).max(1));
        assert_eq!(
            tight.completed, unbounded.completed,
            "bounded host changed outputs"
        );
        assert_eq!(tight.pages_spilled, 0, "no nvme tier to spill into");
        assert!(
            tight.pages_demoted <= unbounded.pages_demoted,
            "refused demotions cannot exceed the unbounded baseline"
        );
    }

    #[test]
    fn spilling_a_parked_victim_keeps_the_prefix_a_live_request_shares() {
        // Two requests over one 32-token system prompt. Request 1 donates it
        // and keeps running; request 2 is seeded from it, donates two anchors
        // of its own, and is swapped out and spilled. The cache lets go of
        // what pins the victim's pages and nothing else: its private anchors
        // go, the shared entries — which request 1 is still reading, so that
        // evicting them would free no page — stay.
        let w = weights();
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
        cfg.prefill_tile = 8;
        let exec = Arc::new(ModelExecutor::new(Arc::clone(&w), cfg));
        let prompt = |tail: usize| -> Vec<u32> {
            let own = (0..32).map(|t| (40 + (t * 5 + tail) % 50) as u32);
            (0..32u32).chain(own).collect()
        };
        let specs = [
            RequestSpec::new(1, prompt(0)).max_new_tokens(40),
            RequestSpec::new(2, prompt(7)).max_new_tokens(8),
        ];
        let run = |prefix_cache: bool, drive: &dyn Fn(&mut Scheduler)| {
            let mut scfg = SchedulerConfig::new(4096);
            scfg.chunk_tokens = 16;
            scfg.prefix_cache = prefix_cache;
            scfg.preemption = PreemptionPolicy::Swap;
            let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
            drive(&mut sched);
            let r = sched.run_to_completion(10_000);
            sched.flush_prefix_cache();
            assert_eq!((sched.pool_in_use(), sched.pool_cold_in_use()), (0, 0));
            r.completed
        };
        let solo = run(false, &|sched| {
            for spec in &specs {
                sched.submit(spec.clone());
            }
        });
        let shared = run(true, &|sched| {
            sched.submit(specs[0].clone());
            while !sched.prefix.is_cached(&specs[0].prompt[..32]) {
                sched.step();
            }
            sched.submit(specs[1].clone());
            while !sched.prefix.is_cached(&specs[1].prompt) {
                sched.step();
            }
            assert!(sched.prefix.stats().hits > 0, "request 2 was seeded");
            let victim = sched.running.iter().position(|s| s.core.spec.id == 2);
            sched.preempt_index(victim.expect("request 2 is running"));
            assert_eq!(sched.running(), 1, "request 1 runs on");
            let parked = sched.queue.iter().position(|q| q.swap.is_some());
            sched.spill_parked(parked.expect("request 2 is parked"));
            for depth in [16, 32] {
                assert!(
                    sched.prefix.is_cached(&specs[0].prompt[..depth]),
                    "the shared {depth}-token prefix was evicted"
                );
            }
            assert!(!sched.prefix.is_cached(&specs[1].prompt[..48]));
        });
        assert_eq!(shared, solo);
    }
}
