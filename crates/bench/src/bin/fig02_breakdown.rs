//! Figure 2: latency breakdown of LLM prefilling and decoding (attention vs GEMM vs
//! others) for Llama-3-8B on A100 across 8K–128K context — modeled by
//! `lserve-costmodel`, not measured (`perf` measures this repo's own breakdown).

use lserve_bench::{klen, pct, print_table};
use lserve_costmodel::{decode_step, prefill, GpuSpec, SystemModel};
use lserve_model::ModelConfig;

fn main() {
    let gpu = GpuSpec::a100_80g();
    let model = ModelConfig::llama3_8b();
    // Figure 2 profiles a dense FP16 stack (no sparsity, no quantization).
    let mut dense = SystemModel::vllm();
    dense.int8_gemm = false;
    let lengths = [8_192usize, 16_384, 32_768, 65_536, 131_072];

    let rows: Vec<Vec<String>> = lengths
        .iter()
        .map(|&s| {
            let b = prefill(&gpu, &model, &dense, s);
            vec![
                klen(s),
                pct(b.attention_s / b.total()),
                pct(b.gemm_s / b.total()),
                pct(b.other_s / b.total()),
            ]
        })
        .collect();
    print_table(
        "Figure 2(a), modeled (costmodel): prefill latency breakdown (Llama-3-8B, A100)",
        &["Input", "Attention", "GEMM", "Others"],
        &rows,
    );

    let rows: Vec<Vec<String>> = lengths
        .iter()
        .map(|&s| {
            let b = decode_step(&gpu, &model, &dense, s, 1);
            let total = b.total();
            vec![
                klen(s),
                pct(b.attention_s() / total),
                pct(b.gemm_s / total),
                pct((b.selector_s + b.overhead_s) / total),
            ]
        })
        .collect();
    print_table(
        "Figure 2(b), modeled (costmodel): decode latency breakdown (Llama-3-8B, A100)",
        &["Input", "Attention", "GEMM", "Others"],
        &rows,
    );
    println!("\nPaper shape: attention >= 50% of runtime beyond 64K, ~75% at 128K (prefill).");
}
