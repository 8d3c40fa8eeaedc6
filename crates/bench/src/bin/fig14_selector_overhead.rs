//! Figure 14: page-selector overhead vs sparse-attention time across context
//! lengths, vanilla selection vs the reusable selector (interval 4).
//!
//! View 1 is the calibrated A100 cost model (the paper's milliseconds); view 2
//! measures this repo's actual CPU selector and sparse decode kernel over a decode
//! trace, showing the same crossover: selector cost grows linearly with context
//! while budgeted sparse attention stays constant.

use std::time::Instant;

use lserve_attention::decode_dense_head;
use lserve_bench::{klen, print_table};
use lserve_costmodel::selector_time;
use lserve_kvcache::PagingConfig;
use lserve_quant::KvPrecision;
use lserve_selector::{HierarchicalSelector, PageSelector, ReusableSelector};
use lserve_workloads::{NiahCase, NiahConfig};

fn main() {
    // Cost-model view (per layer, Llama-3-8B defaults: NL=16, budget 4096, page 64).
    let lengths = [8_192usize, 16_384, 32_768, 65_536, 131_072, 262_144];
    let sparse_attn_ms = 0.12; // calibrated: budget-bound attention is constant
    let mut rows = Vec::new();
    for &seq in &lengths {
        let vanilla = selector_time(seq as f64 / 16.0, 1.0, 1, 1.0) * 1e3;
        let reused = selector_time(seq as f64 / 16.0, 1.0, 4, 1.0) * 1e3;
        rows.push(vec![
            klen(seq),
            format!("{vanilla:.3}"),
            format!("{reused:.3}"),
            format!("{sparse_attn_ms:.3}"),
        ]);
    }
    print_table(
        "Figure 14, modeled (costmodel), ms/layer: selector vs sparse attention",
        &[
            "Seq",
            "Vanilla selector",
            "Reusable (C=4)",
            "Sparse attention",
        ],
        &rows,
    );

    // CPU view over a real decode trace (single head, FP16 pages).
    let budget = 1024usize;
    let steps = 16usize;
    let mut rows = Vec::new();
    for &seq in &[8_192usize, 16_384, 32_768, 65_536] {
        let case = NiahCase::generate(NiahConfig::standard(seq), 0.5, seq as u64);
        let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Fp16));
        let scale = 1.0 / (128f32).sqrt();

        let mut vanilla = ReusableSelector::new(HierarchicalSelector::new(true), 1);
        let t0 = Instant::now();
        for step in 0..steps {
            let _ = vanilla.select(&pool, &cache, &[case.query()], budget, step);
        }
        let vanilla_ms = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;

        let mut reusable = ReusableSelector::new(HierarchicalSelector::new(true), 4);
        let t0 = Instant::now();
        for step in 0..steps {
            let _ = reusable.select(&pool, &cache, &[case.query()], budget, step);
        }
        let reusable_ms = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;

        let sel = ReusableSelector::new(HierarchicalSelector::new(true), 1).select(
            &pool,
            &cache,
            &[case.query()],
            budget,
            0,
        );
        let t0 = Instant::now();
        for _ in 0..steps {
            let _ = decode_dense_head(&pool, &cache, case.query(), scale, Some(&sel.pages));
        }
        let attn_ms = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;

        rows.push(vec![
            klen(seq),
            format!("{vanilla_ms:.3}"),
            format!("{reusable_ms:.3}"),
            format!("{attn_ms:.3}"),
        ]);
    }
    print_table(
        "Figure 14, measured (this CPU), ms/step, one head: selector vs budgeted sparse attention",
        &[
            "Seq",
            "Vanilla selector",
            "Reusable (C=4)",
            "Sparse attention",
        ],
        &rows,
    );
    println!("\nPaper shape: the vanilla selector overtakes sparse attention past ~64K");
    println!("(0.24 ms vs 0.12 ms per layer at 128K); reuse interval 4 cuts selector cost");
    println!("~4x; sparse attention itself is flat in context length.");
}
