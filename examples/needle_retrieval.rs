//! Needle-in-a-haystack retrieval: plant a needle in a 64K-token KV cache and watch
//! each page-selection policy try to find it under a 4096-token budget.
//!
//! This is the paper's central accuracy mechanism (Figures 6, 9, 13) in ~60 lines:
//! flat Quest-style statistics work at page size 16, collapse at page size 64, and
//! hierarchical paging restores accuracy at 64 without raising the budget.
//!
//! ```text
//! cargo run --release --example needle_retrieval
//! ```

use lserve::kvcache::PagingConfig;
use lserve::quant::KvPrecision;
use lserve::selector::{FlatSelector, HierarchicalSelector, PageSelector};
use lserve::workloads::{NiahCase, NiahConfig};

fn main() {
    let seq = 65_536;
    let budget = 4096;
    println!("haystack: {seq} tokens, budget: {budget} tokens, needle: 8 tokens\n");

    for depth in [0.2f64, 0.5, 0.8] {
        let case = NiahCase::generate(NiahConfig::standard(seq), depth, 7 + (depth * 10.0) as u64);
        let (ns, ne) = case.needle_range();
        println!("needle at depth {:.0}% (tokens {ns}..{ne}):", depth * 100.0);

        // Quest-style flat selection, fine pages: works.
        let (pool, cache) = case.build_cache(PagingConfig::flat(16, KvPrecision::Fp16));
        let mut flat16 = FlatSelector::new(true);
        let s = flat16.select(&pool, &cache, &[case.query()], budget, 0);
        println!(
            "  flat @ page 16          -> recall {:.2} ({} pages scored)",
            case.recall(&s.pages, 16),
            s.logical_pages_scored
        );

        // Quest-style flat selection, coarse pages: the page-size dilemma.
        let (pool, cache) = case.build_cache(PagingConfig::flat(64, KvPrecision::Fp16));
        let mut flat64 = FlatSelector::new(true);
        let s = flat64.select(&pool, &cache, &[case.query()], budget, 0);
        println!(
            "  flat @ page 64          -> recall {:.2} (statistics homogenized)",
            case.recall(&s.pages, 64)
        );

        // LServe's hierarchical paging: coarse physical pages, fine logical stats.
        let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Int4));
        let mut hier = HierarchicalSelector::new(true);
        let s = hier.select(&pool, &cache, &[case.query()], budget, 0);
        println!(
            "  hierarchical @ 64/16    -> recall {:.2} (INT4 pages, same budget)\n",
            case.recall(&s.pages, 64)
        );
    }
    println!("The selected pages feed lserve::attention::attend_pages as a");
    println!("shorter page table — the kernel never touches the skipped pages.");
}
