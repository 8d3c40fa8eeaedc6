//! Retrieval-quality gates and the paper's accuracy figures: the NIAH/RULER
//! workload generators run through the real engine machinery — seeded
//! haystacks loaded through the paged KV cache, page selection through the
//! production selectors, and (for the attention gate) the actual paged decode
//! kernel.
//!
//! The gates run on every `cargo test`, on instances small enough for debug
//! builds, and assert accuracy against **fixed thresholds**: a selector or
//! cache regression that silently degrades retrieval fails CI instead of only
//! bending a benchmark curve.
//!
//! The `fig*` / `table*` / `ablation_*` rows are the paper's accuracy figures
//! on their own seeds and at the columns their sentences are about. A row
//! whose shape holds asserts it; a row that misses the paper asserts the
//! value it had when the gap was recorded in DESIGN.md "Paper figures". They
//! are `#[ignore]`d (each takes seconds even in release) and run in CI's
//! `once` job: `cargo test --release --test quality_gates -- --ignored`.

use std::sync::Arc;

use lserve::attention::attend_pages;
use lserve::core::{EngineConfig, ModelExecutor};
use lserve::costmodel::{bandwidth_efficiency, page_bytes, selector_time};
use lserve::kvcache::PagingConfig;
use lserve::model::{greedy_next_token, ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::selector::{FlatSelector, HierarchicalSelector, PageSelector, ReusableSelector};
use lserve::workloads::{
    longbench_tasks, DriftingQueries, LongBenchTask, MultiNeedleCase, NiahCase, NiahConfig,
};

const SEQ: usize = 16_384;
const BUDGET: usize = 4096;
const SEEDS: u64 = 5;

fn mean_recall<F: FnMut(u64) -> f64>(mut run: F) -> (f64, f64) {
    let mut total = 0.0;
    let mut min: f64 = 1.0;
    for seed in 0..SEEDS {
        let r = run(seed);
        total += r;
        min = min.min(r);
    }
    (total / SEEDS as f64, min)
}

/// Figure 6/9 regime: flat Quest-style statistics over fine (16-token) pages
/// must retrieve the needle essentially always.
#[test]
fn niah_flat_fine_pages_recall_gate() {
    let cfg = NiahConfig::standard(SEQ);
    let (mean, _) = mean_recall(|seed| {
        let case = NiahCase::generate(cfg, 0.6, 100 + seed);
        let (pool, cache) = case.build_cache(PagingConfig::flat(16, KvPrecision::Fp16));
        let mut sel = FlatSelector::new(true);
        let s = sel.select(&pool, &cache, &[case.query()], BUDGET, 0);
        case.recall(&s.pages, 16)
    });
    assert!(
        mean >= 0.9,
        "flat@16 mean recall {mean:.3} below the 0.9 gate"
    );
}

/// Figure 13 regime: hierarchical paging must keep recall high on coarse
/// (64-token) physical pages with 16-token logical statistics — the
/// page-size-dilemma fix this repo reproduces.
#[test]
fn niah_hierarchical_coarse_pages_recall_gate() {
    let cfg = NiahConfig::standard(SEQ);
    let (mean, _) = mean_recall(|seed| {
        let case = NiahCase::generate(cfg, 0.4, 200 + seed);
        let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Fp16));
        let mut sel = HierarchicalSelector::new(true);
        let s = sel.select(&pool, &cache, &[case.query()], BUDGET, 0);
        case.recall(&s.pages, 64)
    });
    assert!(
        mean >= 0.9,
        "hierarchical@64/16 mean recall {mean:.3} below the 0.9 gate"
    );
}

/// The selection must also survive quantization: INT4 pages store the key
/// statistics the selector reads, so rounding error must not lose the needle.
#[test]
fn niah_hierarchical_int4_recall_gate() {
    let cfg = NiahConfig::standard(SEQ);
    let (mean, _) = mean_recall(|seed| {
        let case = NiahCase::generate(cfg, 0.5, 300 + seed);
        let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Int4));
        let mut sel = HierarchicalSelector::new(true);
        let s = sel.select(&pool, &cache, &[case.query()], BUDGET, 0);
        case.recall(&s.pages, 64)
    });
    assert!(
        mean >= 0.9,
        "hierarchical@64/16 INT4 mean recall {mean:.3} below the 0.9 gate"
    );
}

/// End-to-end through the paged decode kernel: when the query locks onto the
/// needle hard enough that the softmax mass concentrates there (the sharpened
/// probe below), attention restricted to the *selected* pages must reproduce
/// full attention closely — i.e. the pages the selector dropped carried
/// negligible mass for this query.
#[test]
fn niah_selected_attention_matches_full_gate() {
    let cfg = NiahConfig::standard(8192);
    for seed in 0..3u64 {
        let case = NiahCase::generate(cfg, 0.5, 400 + seed);
        let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Fp16));
        let mut sel = HierarchicalSelector::new(true);
        let s = sel.select(&pool, &cache, &[case.query()], BUDGET, 0);
        assert!(
            case.recall(&s.pages, 64) >= 1.0,
            "seed {seed} lost the needle"
        );
        // Sharpen the probe: a 4x query concentrates the softmax on the
        // needle tokens, the regime where page selection must be lossless.
        let probe: Vec<f32> = case.query().iter().map(|x| 4.0 * x).collect();
        let scale = 1.0 / (cfg.head_dim as f32).sqrt();
        let (full, _) = attend_pages(&pool, &cache, &probe, scale, None);
        let (selected, _) = attend_pages(&pool, &cache, &probe, scale, Some(&s.pages));
        let err: f32 = full
            .iter()
            .zip(&selected)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        let norm: f32 = full.iter().map(|a| a * a).sum::<f32>().sqrt();
        assert!(
            err <= 0.1 * norm,
            "seed {seed}: selected attention drifted {err:.4} vs norm {norm:.4}"
        );
    }
}

/// RULER-style multi-needle aggregation: the hierarchical selector must keep
/// at least 3 of 4 needles under the same token budget (partial credit, like
/// RULER's multi-needle subtasks).
#[test]
fn ruler_multi_needle_accuracy_gate() {
    let cfg = NiahConfig {
        spike: 3.2,
        ..NiahConfig::standard(8192)
    };
    let mut total = 0.0;
    for seed in 0..3u64 {
        let case = MultiNeedleCase::generate(cfg, 4, 500 + seed);
        let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Fp16));
        let mut sel = HierarchicalSelector::new(true);
        let s = sel.select(&pool, &cache, &[case.query()], BUDGET, 0);
        let acc = case.accuracy(&s.pages, 64);
        assert!(
            acc >= 0.5,
            "seed {seed} accuracy {acc:.3} below the 0.5 floor"
        );
        total += acc;
    }
    let mean = total / 3.0;
    assert!(
        mean >= 0.75,
        "multi-needle mean accuracy {mean:.3} below 0.75"
    );
}

/// Table 6 regime at test scale: drifting decode queries under the paper's
/// default reuse interval (C=4) must stay close to select-every-step quality,
/// and far above the floor.
#[test]
fn ruler_drifting_reuse_interval_gate() {
    let cfg = NiahConfig {
        spike: 3.2,
        ..NiahConfig::standard(8192)
    };
    let steps = 48;
    let run = |interval: usize| -> f64 {
        let mut total = 0.0;
        for seed in 0..2u64 {
            let case = MultiNeedleCase::generate(cfg, 3, 600 + seed);
            let trace = DriftingQueries::generate(&case, steps, 12, 1.2, 0.2, 700 + seed);
            let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Fp16));
            let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), interval);
            for t in 0..steps {
                let s = sel.select(&pool, &cache, &[trace.query(t)], BUDGET, t);
                total += trace.weighted_recall(&case, t, &s.pages, 64);
            }
        }
        total / (2 * steps) as f64
    };
    let every_step = run(1);
    let reused = run(4);
    assert!(
        every_step >= 0.85,
        "C=1 weighted recall {every_step:.3} below the 0.85 gate"
    );
    assert!(
        reused >= 0.8,
        "C=4 weighted recall {reused:.3} below the 0.8 gate"
    );
    assert!(
        reused >= every_step - 0.1,
        "reuse interval 4 lost more than 0.1 recall ({reused:.3} vs {every_step:.3})"
    );
}

// The paper's accuracy figures. Each row uses its figure's seeds; a case
// that feeds several configurations is generated once (generation, not
// selection, is most of a row's time).

/// Needle recall of one fresh selection per budget over `case` loaded under
/// `paging`.
fn recalls<S: PageSelector>(
    case: &NiahCase,
    paging: PagingConfig,
    selector: impl Fn() -> S,
    budgets: &[usize],
) -> Vec<f64> {
    let (pool, cache) = case.build_cache(paging);
    budgets
        .iter()
        .map(|&budget| {
            let s = selector().select(&pool, &cache, &[case.query()], budget, 0);
            case.recall(&s.pages, paging.physical_page_size())
        })
        .collect()
}

/// Figures 6 and 13's grid at `seq` tokens: 8 needle depths x 2 seeds, case
/// seed `seed0 + seed * stride + depth index`. The mean of each recall `run`
/// returns per case.
fn depth_seed_grid(
    seq: usize,
    seed0: u64,
    stride: u64,
    run: impl Fn(&NiahCase) -> Vec<f64> + Sync,
) -> Vec<f64> {
    let cells: Vec<(u64, u64)> = (0..8).flat_map(|di| (0..2).map(move |s| (di, s))).collect();
    let per_case = on_two_threads(&cells, |&(di, seed)| {
        let depth = di as f64 / 7.0;
        run(&NiahCase::generate(
            NiahConfig::standard(seq),
            depth,
            seed0 + seed * stride + di,
        ))
    });
    let mut sums = vec![0.0; per_case[0].len()];
    for r in per_case {
        sums.iter_mut().zip(r).for_each(|(sum, r)| *sum += r);
    }
    sums.iter().map(|s| s / 16.0).collect()
}

/// `f` of every item in order, on two threads: each item of the grids here
/// generates its own haystack, most of a row's time.
fn on_two_threads<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (first, second) = items.split_at(items.len().div_ceil(2));
    std::thread::scope(|s| {
        let worker = s.spawn(|| first.iter().map(&f).collect::<Vec<_>>());
        let rest: Vec<R> = second.iter().map(&f).collect();
        let mut all = worker.join().expect("a grid worker panicked");
        all.extend(rest);
        all
    })
}

/// `v` as its figure printed it.
fn shown(v: &[f64], decimals: usize) -> Vec<String> {
    v.iter().map(|x| format!("{x:.decimals$}")).collect()
}

/// Figure 6 at 128K, the column its sentence is about: "page 16 retains
/// accuracy; pages 32/64 degrade sharply at long contexts even when the
/// budget is scaled up proportionally". Flat (Quest) selection over FP16
/// pages. When written: page 16 at budget 4096 1.00; page 32 0.75, and 0.81
/// at budget 8192; page 64 0.38, and 0.44 at budget 16384.
#[test]
#[ignore = "seconds in release: cargo test --release --test quality_gates -- --ignored"]
fn fig06_flat_pages_lose_the_needle_at_128k_even_with_scaled_budgets() {
    let flat = |case: &NiahCase, page: usize, budgets: &[usize]| {
        let paging = PagingConfig::flat(page, KvPrecision::Fp16);
        recalls(case, paging, || FlatSelector::new(true), budgets)
    };
    let r = depth_seed_grid(131_072, 0xF16_0600, 131, |case| {
        [
            flat(case, 16, &[4096]),
            flat(case, 32, &[4096, 8192]),
            flat(case, 64, &[4096, 16_384]),
        ]
        .concat()
    });
    println!("page 16 / 32 / 32@8192 / 64 / 64@16384: {:?}", shown(&r, 2));
    assert!(r[0] >= 0.95, "16-token pages lost the needle: {:.2}", r[0]);
    assert!(
        r[1..].iter().all(|&x| x <= 0.85),
        "32/64-token pages kept the needle: {:?}",
        shown(&r, 2)
    );
}

/// Figure 9(b): LServe's retrieval (INT4, 64/16 hierarchical pages, budget
/// 4096, reuse interval 4) over the figure's 10 depths x 5 lengths. The paper
/// matches dense attention in every cell; here 49 of 50. The needle at depth
/// 0.67 of the 64K haystack (seed `0xF19_0900 ^ 65536 ^ 67`) is lost. That
/// case at FP16 without the reuse wrapper loses it too (the wrapper's first
/// selection is a fresh one), and 16-token pages keep it: the hierarchical
/// score of 64-token pages, 64 of which fit the budget, ranks it out.
#[test]
#[ignore = "seconds in release: cargo test --release --test quality_gates -- --ignored"]
fn fig09_lserve_keeps_the_needle_in_49_of_50_cells() {
    let lserve = || ReusableSelector::new(HierarchicalSelector::new(true), 4);
    let cells: Vec<(usize, f64)> = [0.0, 0.11, 0.22, 0.33, 0.44, 0.56, 0.67, 0.78, 0.89, 1.0]
        .into_iter()
        .flat_map(|depth| [8_192, 16_384, 32_768, 65_536, 131_072].map(|seq| (seq, depth)))
        .collect();
    let recall = on_two_threads(&cells, |&(seq, depth)| {
        let seed = 0xF19_0900 ^ seq as u64 ^ (depth * 100.0) as u64;
        let case = NiahCase::generate(NiahConfig::standard(seq), depth, seed);
        let paging = PagingConfig::new(64, 16, KvPrecision::Int4);
        recalls(&case, paging, lserve, &[4096])[0]
    });
    let missed: Vec<(usize, f64, f64)> = cells
        .iter()
        .zip(recall)
        .filter(|&(_, r)| r < 1.0)
        .map(|(&(seq, depth), r)| (seq, depth, r))
        .collect();
    assert_eq!(missed, [(65_536, 0.67, 0.0)]);
    let case = NiahCase::generate(NiahConfig::standard(65_536), 0.67, 0xF19_0900 ^ 65_536 ^ 67);
    let hierarchical = |np: usize| {
        let paging = PagingConfig::new(np, 16, KvPrecision::Fp16);
        recalls(&case, paging, || HierarchicalSelector::new(true), &[4096])[0]
    };
    assert_eq!(hierarchical(64), 0.0, "FP16 without reuse keeps it");
    assert_eq!(hierarchical(16), 1.0, "16-token pages lose it");
}

/// Figure 13 at 128K, the column its sentence is about: "hierarchical
/// NP=32/64 with NL=16 matches NP=16 accuracy at the same budget, while flat
/// selection at NP=32/64 collapses". Budget 3072, FP16 pages. When written:
/// hierarchical 0.95 / 1.00 / 1.00 at NP 16 / 32 / 64; flat 0.69 / 0.44 at
/// NP 32 / 64.
#[test]
#[ignore = "seconds in release: cargo test --release --test quality_gates -- --ignored"]
fn fig13_hierarchical_pages_keep_the_needle_where_flat_ones_collapse_at_128k() {
    let r = depth_seed_grid(131_072, 0xF13_1300, 977, |case| {
        let hier = |np| {
            let paging = PagingConfig::new(np, 16, KvPrecision::Fp16);
            recalls(case, paging, || HierarchicalSelector::new(true), &[3072])
        };
        let flat = |np| {
            let paging = PagingConfig::flat(np, KvPrecision::Fp16);
            recalls(case, paging, || FlatSelector::new(true), &[3072])
        };
        [hier(16), hier(32), hier(64), flat(32), flat(64)].concat()
    });
    println!("hier 16 / 32 / 64, flat 32 / 64: {:?}", shown(&r, 2));
    assert!(
        r[1].min(r[2]) >= r[0] - 0.05,
        "hierarchical 32/64 fell below 16: {:?}",
        shown(&r, 2)
    );
    assert!(
        r[3].max(r[4]) <= 0.75,
        "flat 32/64 kept the needle: {:?}",
        shown(&r, 2)
    );
}

/// Table 2 (LongBench proxy): LServe's retrieval fidelity (INT4, 64/16,
/// budget 4096, reuse interval 4) on the eight task profiles, 3 cases each
/// from seed `0x7AB7E02`, times the paper's dense scores. The paper: within
/// ~0.5 points of dense on average (38.9 -> 38.6 on Llama-3-8B, 39.5 -> 39.4
/// on Llama-2-7B). A gap: 39.0 -> 37.8 and 39.5 -> 38.5, pinned with the
/// per-task fidelities.
#[test]
#[ignore = "seconds in release: cargo test --release --test quality_gates -- --ignored"]
fn table02_longbench_proxy_loses_a_point_on_average() {
    let tasks = longbench_tasks();
    let fidelity: Vec<f64> = tasks
        .iter()
        .map(|task| {
            let cases = task.cases(3, 0x7AB7E02);
            let total: f64 = cases
                .iter()
                .map(|case| {
                    let (pool, cache) =
                        case.build_cache(PagingConfig::new(64, 16, KvPrecision::Int4));
                    let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
                    let s = sel.select(&pool, &cache, &[case.query()], BUDGET, 0);
                    case.accuracy(&s.pages, 64)
                })
                .sum();
            total / cases.len() as f64
        })
        .collect();
    let average = |score: fn(&LongBenchTask) -> f64, fidelity: &[f64]| {
        let total: f64 = tasks.iter().zip(fidelity).map(|(t, f)| score(t) * f).sum();
        total / tasks.len() as f64
    };
    let dense = vec![1.0; tasks.len()];
    let averages = [
        average(|t| t.dense_llama3, &dense),
        average(|t| t.dense_llama3, &fidelity),
        average(|t| t.dense_llama2, &dense),
        average(|t| t.dense_llama2, &fidelity),
    ];
    println!("fidelity per task: {:?}", shown(&fidelity, 3));
    println!(
        "Llama-3-8B dense -> LServe, Llama-2-7B: {:?}",
        shown(&averages, 1)
    );
    assert_eq!(
        shown(&fidelity, 3),
        ["1.000", "0.948", "1.000", "0.917", "0.889", "0.933", "1.000", "1.000"]
    );
    assert_eq!(shown(&averages, 1), ["39.0", "37.8", "39.5", "38.5"]);
}

/// Table 3 (RULER proxy) at 256K, the column its sentence is about:
/// "LServe-4096 within a few points of dense, with a mild gap at 192K+;
/// LServe-8192 closes most of that gap (79.1 vs 79.4 at 256K)". Four
/// needles, spike 3.6, INT4 64/16, reuse interval 4, the table's three
/// seeds, both budgets on one cache. When written (x dense 79.4): 72.8 at
/// 4096, 78.6 at 8192. The 6.6-point gap at 4096 is pinned (DESIGN.md
/// "Paper figures"); 8192 closing most of it is asserted.
#[test]
#[ignore = "seconds in release: cargo test --release --test quality_gates -- --ignored"]
fn table03_ruler_budget_8192_closes_the_256k_gap() {
    const SEQ: usize = 262_144;
    const DENSE: f64 = 79.4;
    let mut fidelity = [0.0f64; 2];
    for seed in 0..3u64 {
        let cfg = NiahConfig {
            spike: 3.6,
            ..NiahConfig::standard(SEQ)
        };
        let case = MultiNeedleCase::generate(cfg, 4, 0x2D7E03 + seed * 7919 + SEQ as u64);
        let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Int4));
        for (f, budget) in fidelity.iter_mut().zip([4096, 8192]) {
            let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
            let s = sel.select(&pool, &cache, &[case.query()], budget, 0);
            *f += case.accuracy(&s.pages, 64);
        }
    }
    let [b4096, b8192] = fidelity.map(|f| DENSE * f / 3.0);
    println!("dense {DENSE}, LServe-4096 {b4096:.1}, LServe-8192 {b8192:.1}");
    assert_eq!(format!("{b4096:.1}"), "72.8");
    assert!(
        DENSE - b8192 <= 0.25 * (DENSE - b4096),
        "budget 8192 left {b8192:.1} of {DENSE}"
    );
}

/// Table 4 (reasoning proxy): teacher-forced agreement of LServe's engine
/// with the dense one over the dense model's own 256-token greedy
/// trajectory, on a DeepSeek-R1-Distill-Llama-8B-shaped proxy (Llama-3-8B's
/// GQA geometry, 4 layers, random weights). The paper reports parity (AIME
/// 43.3 vs 43.3, MATH500 84.2 vs 85.4). The context stays below the budget,
/// so the disagreement is streaming-head conversion and KV quantization, and
/// random-weight heads are not local, which streaming conversion needs. A
/// gap: agreement 0.930 with FP16 KV and 0.863 with INT4 KV, pinned.
#[test]
#[ignore = "seconds in release: cargo test --release --test quality_gates -- --ignored"]
fn table04_reasoning_proxy_agreement_is_pinned_below_parity() {
    const PROMPT: usize = 48;
    const STEPS: usize = 256;
    let model = ModelConfig {
        name: "DS-R1-Llama-8B-proxy".into(),
        num_layers: 4,
        hidden: 512,
        num_q_heads: 8,
        num_kv_heads: 2,
        head_dim: 64,
        ffn_hidden: 1024,
        vocab: 512,
        rope_base: 500_000.0,
    };
    let weights = Arc::new(ModelWeights::random(&model, 0x5EED_2024));
    let prompt: Vec<u32> = (0..PROMPT).map(|i| ((i * 37) % 500) as u32).collect();
    let dense = ModelExecutor::new(Arc::clone(&weights), EngineConfig::dense());
    let mut pool = EngineConfig::dense().make_pool_for(&model, PROMPT + STEPS + 8);
    let trajectory = dense
        .generate(&mut dense.new_sequence(), &mut pool, &prompt, STEPS)
        .expect("pool sized");
    let agreement = |cfg: EngineConfig| {
        let mut pool = cfg.make_pool_for(&model, PROMPT + STEPS + 8);
        let exec = ModelExecutor::new(Arc::clone(&weights), cfg);
        let mut seq = exec.new_sequence();
        let mut logits = exec
            .prefill(&mut seq, &mut pool, &prompt)
            .expect("pool sized")
            .logits;
        let mut agree = 0;
        for (i, &tok) in trajectory.iter().enumerate() {
            agree += usize::from(greedy_next_token(&logits) == tok);
            if i + 1 < trajectory.len() {
                logits = exec
                    .decode_step(&mut seq, &mut pool, tok)
                    .expect("pool sized")
                    .logits;
            }
        }
        agree as f64 / STEPS as f64
    };
    let got = [
        agreement(EngineConfig::lserve_fp16()),
        agreement(EngineConfig::lserve()),
    ];
    println!("agreement FP16 KV / INT4 KV: {:?}", shown(&got, 3));
    assert_eq!(shown(&got, 3), ["0.930", "0.863"]);
}

/// Table 6 at 64K: RULER-proxy accuracy (x dense 86.8) against the selector
/// reuse interval C, on decode queries whose emphasis rotates across four
/// needles; the table's two seeds, one cache each. The paper: "flat through
/// interval 4 (86.8 -> 85.6 at C=4), mild loss at 8, visible loss at 16".
/// When written: 83.6 / 83.6 / 83.5 / 82.8 / 81.7 at budget 4096 and 85.0 /
/// 84.9 / 84.8 / 84.3 / 82.0 at 8192, for C = 1 / 2 / 4 / 8 / 16.
#[test]
#[ignore = "seconds in release: cargo test --release --test quality_gates -- --ignored"]
fn table06_accuracy_is_flat_through_interval_4_and_drops_at_16() {
    const STEPS: usize = 136;
    const DENSE: f64 = 86.8;
    let intervals = [1usize, 2, 4, 8, 16];
    let mut sums = [[0.0f64; 5]; 2];
    for seed in [0x7AB7E06u64, 0x7AB7E07] {
        let cfg = NiahConfig {
            spike: 3.2,
            ..NiahConfig::standard(65_536)
        };
        let case = MultiNeedleCase::generate(cfg, 4, seed);
        let trace = DriftingQueries::generate(&case, STEPS, 34, 1.2, 0.2, seed ^ 0xABCD);
        let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Int4));
        for (row, budget) in sums.iter_mut().zip([4096, 8192]) {
            for (sum, &c) in row.iter_mut().zip(&intervals) {
                let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), c);
                let mut total = 0.0;
                for t in 0..STEPS {
                    let s = sel.select(&pool, &cache, &[trace.query(t)], budget, t);
                    total += trace.weighted_recall(&case, t, &s.pages, 64);
                }
                *sum += total / STEPS as f64;
            }
        }
    }
    for (row, budget) in sums.iter().zip([4096, 8192]) {
        let acc: Vec<f64> = row.iter().map(|s| DENSE * s / 2.0).collect();
        println!(
            "budget {budget}, C = 1 / 2 / 4 / 8 / 16: {:?}",
            shown(&acc, 1)
        );
        assert!(
            acc[1].min(acc[2]) >= acc[0] - 0.2,
            "C <= 4 not flat: {acc:?}"
        );
        assert!(
            acc[3] >= acc[0] - 1.0,
            "C = 8 lost more than a point: {acc:?}"
        );
        assert!(acc[4] < acc[3], "C = 16 lost nothing over C = 8: {acc:?}");
    }
}

/// The page-geometry ablation at 64K (INT4, hierarchical selection, budget
/// 4096, six depths from seed `0xAB1A`): NP=64 / NL=16 keeps NP=16's recall
/// (1.00) at 86 % modeled bandwidth efficiency against 61 %. Its reading of
/// a "4x cheaper selector" does not hold: the selector's cost is set by NL,
/// 0.120 ms per layer at NL=16 for any NP; the 4x is NL=64 (0.030 ms),
/// which drops recall to 0.67.
#[test]
#[ignore = "seconds in release: cargo test --release --test quality_gates -- --ignored"]
fn ablation_page_geometry_64_16_keeps_16_token_recall_at_86_percent_bandwidth() {
    const SEQ: usize = 65_536;
    let geometries = [(16usize, 16usize), (64, 16), (64, 64)];
    let mut recall = [0.0f64; 3];
    for di in 0..6u64 {
        let case = NiahCase::generate(NiahConfig::standard(SEQ), di as f64 / 5.0, 0xAB1A + di);
        for (r, &(np, nl)) in recall.iter_mut().zip(&geometries) {
            let paging = PagingConfig::new(np, nl, KvPrecision::Int4);
            *r += recalls(&case, paging, || HierarchicalSelector::new(true), &[4096])[0];
        }
    }
    let recall = recall.map(|r| r / 6.0);
    let efficiency = geometries
        .map(|(np, _)| bandwidth_efficiency(2.0 * page_bytes(np, 128, KvPrecision::Int4)));
    let selector_ms = geometries.map(|(_, nl)| selector_time((SEQ / nl) as f64, 1.0, 1, 1.0) * 1e3);
    println!(
        "16/16, 64/16, 64/64: recall {:?}, efficiency {:?}, selector ms {:?}",
        shown(&recall, 2),
        shown(&efficiency, 2),
        shown(&selector_ms, 3)
    );
    assert_eq!(shown(&recall, 2), ["1.00", "1.00", "0.67"]);
    assert_eq!(shown(&efficiency, 2)[..2], ["0.61", "0.86"]);
    assert_eq!(shown(&selector_ms, 3), ["0.120", "0.120", "0.030"]);
}
