//! Request-DAG properties: a branch forked off a live sequence is a *real*
//! request — whatever the fork point, join policy, per-branch sparsity
//! override, KV precision, preemption policy, or migration engine, every
//! surviving branch's output is bit-identical to a solo run that replays its
//! full token history (parent prompt + tokens generated before the fork +
//! branch suffix) under the same positional sparsity schedule. And forking
//! never copies a page: branches CoW-share the parent's pool pages, so page
//! conservation holds through fork/join/cancel cycles.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, BranchSpec, EngineConfig, JoinPolicy, MigrationMode,
    ModelExecutor, PreemptionPolicy, RequestHandle, RequestSpec, Scheduler, SchedulerConfig,
    ServingEvent, SparsityOverride,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::workloads::{best_of_n, tool_call_branches, AgentScene, AgenticConfig};
use proptest::prelude::*;

fn weights(seed: u64) -> Arc<ModelWeights> {
    Arc::new(ModelWeights::random(&ModelConfig::tiny(), seed))
}

/// Small-page LServe policy with a real dynamic selection budget, so
/// per-branch budget/retention overrides actually change the selector's
/// work.
fn dag_cfg(quantized: bool) -> EngineConfig {
    let mut cfg = EngineConfig::lserve_with_budget(16);
    cfg.paging = PagingConfig::new(
        8,
        4,
        if quantized {
            KvPrecision::Int4
        } else {
            KvPrecision::Fp16
        },
    );
    cfg.prefill_tile = 8;
    cfg
}

use sequence_pages_estimate as estimate;

/// Steps until request `h` has generated `want` tokens, returning them.
fn run_until_generated(sched: &mut Scheduler, h: &RequestHandle, want: usize) -> Vec<u32> {
    let mut got = Vec::new();
    for _ in 0..10_000 {
        if got.len() >= want {
            return got;
        }
        sched.step();
        for e in h.drain_events() {
            if let ServingEvent::FirstToken { token } | ServingEvent::Token { token } = e {
                got.push(token);
            }
        }
    }
    panic!("parent never generated {want} tokens");
}

/// The branch's solo reference: a fresh scheduler, a generous pool, the same
/// chunk size (so the tile grid is identical), and the branch's full token
/// history as the prompt with the same positional sparsity schedule.
fn run_solo(cfg: &EngineConfig, w: &Arc<ModelWeights>, chunk: usize, req: RequestSpec) -> Vec<u32> {
    let pool_pages = estimate(cfg, &w.config, req.prompt.len() + req.max_new_tokens) * 2 + 16;
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = chunk;
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

fn override_for(kind: usize) -> SparsityOverride {
    match kind {
        0 => SparsityOverride::none(),
        1 => SparsityOverride::none().with_budget(4),
        2 => SparsityOverride::none().with_retention_permille(500),
        _ => SparsityOverride::none()
            .with_budget(6)
            .with_retention_permille(700),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: across {FP16, INT4} x {replay, swap} x
    /// {sync, async} x prefix cache on/off x per-branch sparsity overrides
    /// x fork depth, every surviving branch of an `All` join is bit-identical
    /// to its solo replay, and every page returns to the pool.
    #[test]
    fn surviving_branches_match_solo_replays(
        wseed in 0u64..10,
        quantized in proptest::bool::ANY,
        swap in proptest::bool::ANY,
        async_migration in proptest::bool::ANY,
        prefix in proptest::bool::ANY,
        override_kind in 0usize..4,
        fork_after in 1usize..4,
        slack in 0usize..32,
    ) {
        let w = weights(wseed);
        let cfg = dag_cfg(quantized);
        let chunk = 8;
        let parent_prompt: Vec<u32> = (0..16).map(|t| ((t * 5 + 3) % 90) as u32).collect();
        let suffixes: [&[u32]; 2] = [&[60, 61, 62], &[70, 71]];
        let branch_gen = 6usize;

        // The pool comfortably fits any single full branch history (so
        // nothing is TooLarge even when a spilled branch replays from
        // scratch) but is tight enough under `slack` that parent + two
        // branches can contend.
        let full_max = estimate(
            &cfg,
            &w.config,
            parent_prompt.len() + fork_after + 3 + branch_gen,
        );
        let mut scfg = SchedulerConfig::new(full_max * 2 + slack);
        scfg.chunk_tokens = chunk;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.prefix_cache = prefix;
        scfg.preemption = if swap { PreemptionPolicy::Swap } else { PreemptionPolicy::Replay };
        scfg.migration = if async_migration { MigrationMode::Async } else { MigrationMode::Sync };
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        let hp = sched.submit(
            RequestSpec::new(1, parent_prompt.clone()).max_new_tokens(fork_after + 8),
        );
        let gen_at_fork = run_until_generated(&mut sched, &hp, fork_after);
        let boundary = parent_prompt.len() + gen_at_fork.len();
        let over = override_for(override_kind);
        let branches: Vec<BranchSpec> = suffixes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut b = BranchSpec::new(10 + i as u64, s.to_vec()).max_new_tokens(branch_gen);
                if i == 0 {
                    b = b.sparsity(over);
                }
                b
            })
            .collect();
        let pages_before = sched.pool_in_use();
        sched.fork(1, JoinPolicy::All, &branches).expect("fork");
        prop_assert_eq!(
            sched.pool_in_use(),
            pages_before,
            "fork must be zero-copy"
        );
        let report = sched.run_to_completion(200_000);
        prop_assert_eq!(report.completed.len(), 3, "rejected: {:?}", report.rejected);

        for (i, s) in suffixes.iter().enumerate() {
            let id = 10 + i as u64;
            let got = &report
                .completed
                .iter()
                .find(|(rid, _)| *rid == id)
                .expect("branch completed")
                .1;
            let mut history = parent_prompt.clone();
            history.extend_from_slice(&gen_at_fork);
            history.extend_from_slice(s);
            let mut spec = RequestSpec::new(id, history).max_new_tokens(branch_gen);
            if i == 0 {
                spec = spec.sparsity_from(boundary, over);
            }
            let want = run_solo(&cfg, &w, chunk, spec);
            prop_assert_eq!(got, &want, "branch {} diverged from its solo replay", id);
        }
        sched.flush_prefix_cache();
        prop_assert_eq!(sched.pool_in_use(), 0, "page conservation through fork/join");
    }

    /// Join/cancel conservation: under `FirstFinished`, the losers are
    /// cancelled mid-flight — across preemption policies, precisions, and
    /// overrides, the winner still matches its solo replay and every page
    /// (including the cancelled losers' CoW shares) returns to the pool.
    #[test]
    fn first_finished_winner_matches_solo_and_conserves_pages(
        wseed in 0u64..10,
        quantized in proptest::bool::ANY,
        swap in proptest::bool::ANY,
        prefix in proptest::bool::ANY,
        override_on_loser in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let cfg = dag_cfg(quantized);
        let chunk = 8;
        let parent_prompt: Vec<u32> = (0..16).map(|t| ((t * 7 + 1) % 90) as u32).collect();
        let full_max = estimate(&cfg, &w.config, parent_prompt.len() + 2 + 3 + 24);
        let mut scfg = SchedulerConfig::new(full_max * 2 + 8);
        scfg.chunk_tokens = chunk;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.prefix_cache = prefix;
        scfg.preemption = if swap { PreemptionPolicy::Swap } else { PreemptionPolicy::Replay };
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        let hp = sched.submit(RequestSpec::new(1, parent_prompt.clone()).max_new_tokens(10));
        let gen_at_fork = run_until_generated(&mut sched, &hp, 2);
        let mut loser = BranchSpec::new(11, vec![70, 71, 72]).max_new_tokens(24);
        if override_on_loser {
            loser = loser.sparsity(SparsityOverride::none().with_budget(4));
        }
        let out = sched
            .fork(
                1,
                JoinPolicy::FirstFinished,
                &[BranchSpec::new(10, vec![60, 61]).max_new_tokens(3), loser],
            )
            .expect("fork");
        let report = sched.run_to_completion(200_000);
        let js = sched.join_status(out.group).expect("known group");
        prop_assert!(js.resolved);
        prop_assert_eq!(js.winner, Some(10), "the short branch finishes first");
        prop_assert!(report.dag.branch_cancels >= 1, "the loser was cancelled");

        let mut history = parent_prompt.clone();
        history.extend_from_slice(&gen_at_fork);
        history.extend_from_slice(&[60, 61]);
        let want = run_solo(&cfg, &w, chunk, RequestSpec::new(10, history).max_new_tokens(3));
        let got = &report
            .completed
            .iter()
            .find(|(rid, _)| *rid == 10)
            .expect("winner completed")
            .1;
        prop_assert_eq!(got, &want, "winner diverged from its solo replay");
        sched.flush_prefix_cache();
        prop_assert_eq!(sched.pool_in_use(), 0, "cancelled losers leak no pages");
    }
}

/// A scheduler for the speculative scenes: ample pool, 8-token chunks, the
/// small-page FP16 LServe policy, and one device (a device mesh charges
/// interconnect into the work clock).
fn speculative_scheduler(w: &Arc<ModelWeights>) -> Scheduler {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    let mut scfg = SchedulerConfig::new(4096);
    scfg.chunk_tokens = 8;
    Scheduler::new(Arc::new(ModelExecutor::new(Arc::clone(w), cfg)), scfg)
}

/// Forks `scene`'s branches off its root after the root's first token under
/// `policy`, and returns the scheduler (still running), the join group and
/// the root tokens generated before the fork.
fn race(
    w: &Arc<ModelWeights>,
    scene: &AgentScene,
    policy: JoinPolicy,
) -> (Scheduler, u64, Vec<u32>) {
    let mut sched = speculative_scheduler(w);
    let root = sched.submit(RequestSpec::new(1, scene.root_prompt.clone()).max_new_tokens(4));
    let gen_at_fork = run_until_generated(&mut sched, &root, 1);
    let branches: Vec<BranchSpec> = scene
        .branches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let spec = BranchSpec::new(10 + i as u64, b.suffix.clone())
                .max_new_tokens(b.max_new_tokens)
                .score_bias(b.score_bias);
            b.stop_tokens.iter().fold(spec, |s, &t| s.stop_token(t))
        })
        .collect();
    let group = sched.fork(1, policy, &branches).expect("fork").group;
    (sched, group, gen_at_fork)
}

/// The branching claims on a 192-token conversation forking four 8-token
/// suffixes with 12-token generations. A CoW-shared best-of-4 panel must
/// cost less than 2x one solo run of the winner's full history, in work
/// tokens, and the winner must match that solo run token for token. A
/// first-finished race over speculated tool results must cancel at least one
/// loser and leak no pages. When this test was written: 275 vs 213 work
/// tokens (1.29x), winner 13; the tool race cancelled 3.
#[test]
fn best_of_4_costs_under_2x_one_solo_run_and_races_cancel_their_losers() {
    let w = weights(42);
    let cfg = AgenticConfig {
        root_tokens: 192,
        branches: 4,
        suffix_tokens: 8,
        branch_new_tokens: 12,
        vocab: 90,
        seed: 0xA9E7,
    };
    let scene = best_of_n(&cfg);
    let (mut sched, group, gen_at_fork) = race(&w, &scene, JoinPolicy::BestScore);
    let report = sched.run_to_completion(1_000_000);
    assert_eq!(
        report.completed.len(),
        1 + cfg.branches,
        "every candidate completes"
    );
    assert_eq!(sched.pool_in_use(), 0, "the panel leaks no pages");
    let winner = sched
        .join_status(group)
        .expect("known group")
        .winner
        .expect("a winner");
    let (_, winner_tokens) = report
        .completed
        .iter()
        .find(|(id, _)| *id == winner)
        .unwrap();
    let speculative = sched.work_tokens();

    let mut history = scene.root_prompt.clone();
    history.extend_from_slice(&gen_at_fork);
    history.extend_from_slice(&scene.branches[(winner - 10) as usize].suffix);
    let mut solo = speculative_scheduler(&w);
    solo.submit(RequestSpec::new(1, history).max_new_tokens(cfg.branch_new_tokens));
    let solo_report = solo.run_to_completion(1_000_000);
    let ratio = speculative as f64 / solo.work_tokens() as f64;
    println!(
        "best-of-{}: {speculative} vs solo {} work tokens ({ratio:.2}x), winner {winner}",
        cfg.branches,
        solo.work_tokens(),
    );
    assert_eq!(
        winner_tokens, &solo_report.completed[0].1,
        "winner diverged from solo"
    );
    assert!(
        ratio < 2.0,
        "a CoW-shared panel must cost < 2x one solo run"
    );

    let (mut sched, group, _) = race(&w, &tool_call_branches(&cfg), JoinPolicy::FirstFinished);
    let report = sched.run_to_completion(1_000_000);
    println!("tool race: {} losers cancelled", report.dag.branch_cancels);
    assert!(sched.join_status(group).expect("known group").resolved);
    assert!(report.dag.branch_cancels >= 1, "the race has losers");
    assert_eq!(sched.pool_in_use(), 0, "cancelled losers leak no pages");
}

/// Deterministic anchor: a pool sized for ~1.5 sequences forces
/// preemption/resume cycles while two branches race the parent, and every
/// surviving branch still replays bit-identically.
#[test]
fn branches_survive_forced_preemption_and_match_solo() {
    let w = weights(23);
    let cfg = dag_cfg(false);
    let chunk = 8;
    let parent_prompt: Vec<u32> = (0..24).map(|t| ((t * 5 + 3) % 90) as u32).collect();
    let branch_gen = 10usize;
    let full_max = estimate(&cfg, &w.config, parent_prompt.len() + 2 + 3 + branch_gen);
    let mut scfg = SchedulerConfig::new(full_max + full_max / 2);
    scfg.chunk_tokens = chunk;
    scfg.admission = AdmissionPolicy::FirstChunk;
    let mut sched = Scheduler::new(
        Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
        scfg,
    );
    let hp = sched.submit(RequestSpec::new(1, parent_prompt.clone()).max_new_tokens(12));
    let gen_at_fork = run_until_generated(&mut sched, &hp, 2);
    sched
        .fork(
            1,
            JoinPolicy::All,
            &[
                BranchSpec::new(10, vec![60, 61, 62]).max_new_tokens(branch_gen),
                BranchSpec::new(11, vec![70, 71]).max_new_tokens(branch_gen),
            ],
        )
        .expect("fork");
    let report = sched.run_to_completion(200_000);
    assert!(
        report.preemptions > 0,
        "a pool for ~1.5 sequences must force preemption among 3 racers"
    );
    assert_eq!(report.completed.len(), 3, "rejected: {:?}", report.rejected);
    for (id, suffix) in [(10u64, vec![60, 61, 62]), (11, vec![70, 71])] {
        let mut history = parent_prompt.clone();
        history.extend_from_slice(&gen_at_fork);
        history.extend_from_slice(&suffix);
        let want = run_solo(
            &cfg,
            &w,
            chunk,
            RequestSpec::new(id, history).max_new_tokens(branch_gen),
        );
        let got = &report
            .completed
            .iter()
            .find(|(rid, _)| *rid == id)
            .unwrap()
            .1;
        assert_eq!(got, &want, "branch {id} diverged under preemption");
    }
    assert_eq!(
        sched.pool_in_use(),
        0,
        "page conservation after preemptions"
    );
}
