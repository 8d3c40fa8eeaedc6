//! Migration-mode determinism: the asynchronous copy engine must be a pure
//! accounting change. For any workload, `MigrationMode::Async` runs emit
//! outputs bit-identical to `Sync` runs and to per-request solo runs —
//! across FP16/INT4 KV, replay/swap preemption, prefix caching on/off, and
//! with or without a selection budget (and so selection-driven demotion).
//! Only the modeled stall accounting (and
//! therefore the latency numbers) may differ.
//!
//! The in-flight page-state semantics behind this (demote-while-migrating,
//! CoW forks of migrating pages, demand forcing, the prefetch ledger) are
//! pinned by unit tests in `crates/kvcache/tests/async_migration.rs`.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, MigrationMode, ModelExecutor,
    PreemptionPolicy, RequestSpec, Scheduler, SchedulerConfig,
};
use lserve::kvcache::{PagePool, PagingConfig, TierConfig};
use lserve::model::{greedy_next_token, ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::trace::Tracer;
use lserve::workloads::{overcommit_workload, OvercommitConfig};
use proptest::prelude::*;

fn weights(seed: u64) -> Arc<ModelWeights> {
    Arc::new(ModelWeights::random(&ModelConfig::tiny(), seed))
}

/// Small-page FP16 LServe policy: page pressure shows up at toy context lengths.
fn small_page_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg
}

use sequence_pages_estimate as estimate;

fn run_solo(cfg: &EngineConfig, w: &Arc<ModelWeights>, chunk: usize, req: RequestSpec) -> Vec<u32> {
    let pool_pages = estimate(cfg, &w.config, req.prompt.len() + req.max_new_tokens) * 2 + 16;
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = chunk;
    scfg.migration = MigrationMode::Sync; // the pre-engine baseline
    let mut solo = Scheduler::new(
        Arc::new(ModelExecutor::new(Arc::clone(w), cfg.clone())),
        scfg,
    );
    let id = req.id;
    solo.submit(req);
    let report = solo.run_to_completion(100_000);
    assert_eq!(solo.pool_in_use(), 0);
    let (got_id, tokens) = report.completed.into_iter().next().expect("solo completes");
    assert_eq!(got_id, id);
    tokens
}

/// Deterministic anchor for the acceptance criterion: an oversubscribed scene
/// with swap preemption and selection-driven demotion, where the async engine
/// must (a) leave every output token untouched and (b) hide most of the
/// transfer work the sync baseline stalls on — including selector-driven
/// prefetches that actually hit.
#[test]
fn async_migration_hides_stalls_without_touching_outputs() {
    let w = weights(23);
    let mut cfg = small_page_cfg();
    // Three pages of selection budget: tight enough to demote, loose enough
    // that the top-k churns across rescores — churn is what prefetch predicts
    // (a 2-page budget on this model is perfectly stable and can never hit).
    cfg.dynamic_budget = Some(24);
    cfg.reuse_interval = 2;
    let requests: Vec<RequestSpec> = (0..3u64)
        .map(|i| {
            RequestSpec::new(
                i,
                (0..40 + 9 * i as usize)
                    .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                    .collect(),
            )
            .max_new_tokens(16)
        })
        .collect();
    let single_max = requests
        .iter()
        .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let run = |mode: MigrationMode| {
        let mut scfg = SchedulerConfig::new(single_max + single_max / 2);
        scfg.chunk_tokens = 8;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = PreemptionPolicy::Swap;
        scfg.migration = mode;
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        for r in &requests {
            sched.submit(r.clone());
        }
        let report = sched.run_to_completion(200_000);
        assert_eq!(sched.pool_in_use(), 0, "hot pages leaked under {mode:?}");
        assert_eq!(
            sched.pool_cold_in_use(),
            0,
            "cold pages leaked under {mode:?}"
        );
        report
    };
    let sync = run(MigrationMode::Sync);
    let async_ = run(MigrationMode::Async);
    assert_eq!(sync.completed.len(), 3, "rejected: {:?}", sync.rejected);
    assert_eq!(async_.completed, sync.completed, "mode changed outputs");
    assert!(
        sync.pages_demoted > 0,
        "scene must generate migration traffic"
    );
    assert!(
        sync.migration_stall_tokens > 0,
        "sync charges every transfer as stall"
    );
    assert_eq!(sync.hidden_transfer_tokens, 0);
    assert_eq!(sync.migration_overlap_ratio(), 0.0);
    assert!(
        async_.migration_stall_tokens < sync.migration_stall_tokens,
        "the copy engine must hide stall work (async {} vs sync {})",
        async_.migration_stall_tokens,
        sync.migration_stall_tokens
    );
    assert!(async_.hidden_transfer_tokens > 0);
    assert!(async_.migration_overlap_ratio() > 0.5);
    assert!(async_.prefetch_issued > 0, "selector prefetch must fire");
    assert!(
        async_.prefetch_hits > 0,
        "recency-ranked prefetches must land ({} issued, {} wasted)",
        async_.prefetch_issued,
        async_.prefetch_wasted
    );
    assert_eq!(sync.prefetch_issued, 0, "prefetch is an async-mode concept");
}

/// The stall claim at overcommit scale: `OvercommitConfig::migration_bench`
/// (two bursts of four 160–208-token prompts, 32 generated tokens each) on a
/// hot tier of a third of one burst, swap preemption and demotion after two
/// stale chunks. The async copy engine must cut the modeled migration stall
/// at least 2x and keep prefetch waste (`wasted / (wasted + hits)`) below
/// 0.80, with every output token unchanged. When this test was written:
/// stall 225 -> 100 (2.25x); 98 prefetches issued, 22 hit, 76 wasted (0.776).
#[test]
fn async_migration_halves_the_overcommit_stall_and_bounds_prefetch_waste() {
    let w = weights(7);
    let mut cfg = small_page_cfg();
    cfg.dynamic_budget = Some(32);
    let wl = OvercommitConfig::migration_bench();
    let per_seq = estimate(&cfg, &w.config, wl.max_prompt_len() + wl.max_new_tokens);
    let run = |mode: MigrationMode| {
        let mut scfg = SchedulerConfig::new(per_seq * wl.requests_per_burst / 3 + 16);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = PreemptionPolicy::Swap;
        scfg.migration = mode;
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        for (i, s) in overcommit_workload(&wl).into_iter().enumerate() {
            sched.submit(RequestSpec::new(i as u64, s.prompt).max_new_tokens(s.max_new_tokens));
        }
        let report = sched.run_to_completion(1_000_000);
        assert!(report.rejected.is_empty(), "{:?}", report.rejections);
        report
    };
    let sync = run(MigrationMode::Sync);
    let async_ = run(MigrationMode::Async);
    let waste = async_.prefetch_wasted as f64
        / (async_.prefetch_wasted + async_.prefetch_hits).max(1) as f64;
    println!(
        "stall {} -> {} tokens ({:.2}x); prefetch {} issued / {} hit / {} wasted ({waste:.3})",
        sync.migration_stall_tokens,
        async_.migration_stall_tokens,
        sync.migration_stall_tokens as f64 / async_.migration_stall_tokens.max(1) as f64,
        async_.prefetch_issued,
        async_.prefetch_hits,
        async_.prefetch_wasted,
    );
    assert_eq!(async_.completed, sync.completed, "mode changed outputs");
    assert!(sync.migration_stall_tokens > 0, "no stall to hide");
    assert!(
        async_.migration_stall_tokens * 2 <= sync.migration_stall_tokens,
        "async must cut the stall >= 2x (sync {} vs async {})",
        sync.migration_stall_tokens,
        async_.migration_stall_tokens
    );
    assert!(
        waste < 0.80,
        "prefetch waste {waste:.3} must stay below 0.80"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: async ≡ sync ≡ solo, token for token, across
    /// {FP16, INT4} × {replay, swap} × prefix cache on/off × selection budget
    /// (and so demotion) on/off,
    /// under enough pool pressure to exercise preemption and (when enabled)
    /// selection-driven demotion with prefetch.
    #[test]
    fn async_outputs_match_sync_and_solo_runs(
        wseed in 0u64..20,
        chunk in 3usize..16,
        slack in 0usize..50,
        quantized in proptest::bool::ANY,
        swap in proptest::bool::ANY,
        prefix_cache in proptest::bool::ANY,
        demote in proptest::bool::ANY,
        budget_pages in 2usize..4,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        if demote {
            // A selection budget demotes at toy lengths. A 3-page budget
            // churns its top-k across rescores (prefetch can hit); a 2-page
            // budget is stable (prefetch is pure waste). Both must stay
            // bit-identical. Demotion waits two stale chunks, which keeps
            // demotions in flight across swap park/resume, covering the
            // resume reservation.
            cfg.dynamic_budget = Some(8 * budget_pages);
        }
        let requests: Vec<RequestSpec> = (0..3u64)
            .map(|i| {
                RequestSpec::new(
                    i,
                    (0..26 + 9 * i as usize)
                        .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                        .collect(),
                )
                .max_new_tokens(8)
            })
            .collect();
        let single_max = requests
            .iter()
            .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
            .max()
            .unwrap();
        let run = |mode: MigrationMode| {
            let mut scfg = SchedulerConfig::new(single_max + slack);
            scfg.chunk_tokens = chunk;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.prefix_cache = prefix_cache;
            scfg.preemption = if swap {
                PreemptionPolicy::Swap
            } else {
                PreemptionPolicy::Replay
            };
            scfg.migration = mode;
            let mut sched = Scheduler::new(
                Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
                scfg,
            );
            for r in &requests {
                sched.submit(r.clone());
            }
            let report = sched.run_to_completion(200_000);
            sched.flush_prefix_cache();
            assert_eq!(
                sched.pool_in_use(),
                0,
                "hot pages leaked under {mode:?} (wseed {wseed} chunk {chunk} \
                 slack {slack} quantized {quantized} swap {swap} \
                 prefix {prefix_cache} demote {demote})"
            );
            assert_eq!(
                sched.pool_cold_in_use(),
                0,
                "cold pages leaked under {mode:?}"
            );
            report
        };
        let sync = run(MigrationMode::Sync);
        let async_ = run(MigrationMode::Async);
        prop_assert_eq!(sync.completed.len(), 3, "rejected: {:?}", sync.rejected);
        prop_assert_eq!(
            &async_.completed, &sync.completed,
            "async outputs diverged from sync (wseed {} chunk {} slack {} \
             quantized {} swap {} prefix {} demote {})",
            wseed, chunk, slack, quantized, swap, prefix_cache, demote
        );
        // Sync hides nothing; async never stalls on *more* transfer work than
        // sync moved in total.
        prop_assert_eq!(sync.hidden_transfer_tokens, 0);
        prop_assert!(
            async_.migration_stall_tokens <= sync.migration_stall_tokens,
            "async stalled on {} tokens but sync only moved {}",
            async_.migration_stall_tokens,
            sync.migration_stall_tokens
        );
        for req in &requests {
            let want = run_solo(&cfg, &w, chunk, req.clone());
            let got = &async_
                .completed
                .iter()
                .find(|(id, _)| *id == req.id)
                .unwrap()
                .1;
            prop_assert_eq!(got, &want, "request {} diverged under async", req.id);
        }
    }

    /// Promotion by exchange moves pages and nothing else. A sequence swapped
    /// out whole and then decoded in a hot tier that has, before every step,
    /// exactly the pages its reservation asks for free — so every selection
    /// that re-picks a cold page has to exchange for its slot, beside the
    /// demotion sweep — emits the logits of a run in an ample hot tier bit
    /// for bit, across FP16/INT4 KV, both migration engines, and an
    /// unbounded host or a bounded one over nvme. And the reservation is
    /// sound: no step fails.
    #[test]
    fn exchange_in_an_exactly_reserved_hot_tier_matches_the_resident_run(
        wseed in 0u64..20,
        prompt_len in 40usize..72,
        quantized in proptest::bool::ANY,
        async_mode in proptest::bool::ANY,
        bounded in proptest::bool::ANY,
        budget_pages in 3usize..5,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        cfg.dynamic_budget = Some(8 * budget_pages);
        cfg.reuse_interval = 2;
        let prompt: Vec<u32> = (0..prompt_len).map(|t| ((t * 5 + 3) % 90) as u32).collect();
        let run = |tight: bool| {
            let (mut mode, mut tiers) = (MigrationMode::Sync, TierConfig::default());
            if tight {
                if async_mode {
                    mode = MigrationMode::Async;
                }
                if bounded {
                    tiers = TierConfig { host_pages: 6, nvme: true };
                }
            }
            let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
            let mut pool = PagePool::new_with_tiers(cfg.paging, 1024, w.config.head_dim, mode, tiers);
            let tracer = Tracer::ring(1 << 16);
            pool.set_tracer(tracer.clone());
            let mut s = exec.new_sequence();
            let first = exec.prefill(&mut s, &mut pool, &prompt).expect("ample pool");
            let mut next = greedy_next_token(&first.logits);
            if tight {
                pool.demote_all(s.page_ids());
            }
            let mut fillers = Vec::new();
            let mut bits: Vec<Vec<u32>> = Vec::new();
            for _ in 0..32 {
                // Allocating lands in-flight demotions, which moves the
                // demand: settle on the fixed point.
                loop {
                    let need = exec.step_page_demand(&s, &pool);
                    if tight && pool.free_pages() > need {
                        fillers.push(pool.allocate().expect("a free page"));
                    } else if pool.free_pages() < need {
                        pool.free(fillers.pop().expect("a filler to give back"));
                    } else {
                        break;
                    }
                }
                let out = exec
                    .decode_step(&mut s, &mut pool, next)
                    .expect("a reserved step cannot fail");
                next = greedy_next_token(&out.logits);
                bits.push(out.logits.iter().map(|x| x.to_bits()).collect());
            }
            let (events, _) = tracer.drain();
            (bits, events.iter().filter(|e| e.name == "exchange").count())
        };
        let (want, none) = run(false);
        let (got, exchanges) = run(true);
        prop_assert_eq!(none, 0, "an ample hot tier never exchanges");
        prop_assert!(
            exchanges > 0,
            "nothing exchanged (wseed {} len {} quantized {} async {} bounded {} budget {})",
            wseed, prompt_len, quantized, async_mode, bounded, budget_pages
        );
        prop_assert_eq!(
            got, want,
            "logits diverged (wseed {} len {} quantized {} async {} bounded {} budget {})",
            wseed, prompt_len, quantized, async_mode, bounded, budget_pages
        );
    }
}
