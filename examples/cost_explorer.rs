//! Cost-model explorer: ask "what would this configuration cost on an A100?" for
//! any context length — the question every row of
//! `crates/costmodel/tests/paper_figures.rs` asks of a figure.
//!
//! ```text
//! cargo run --release --example cost_explorer [seq_len_tokens]
//! ```

use lserve::costmodel::{decode_step, max_batch, prefill, GpuSpec, SystemModel};
use lserve::model::ModelConfig;

fn main() {
    let seq: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(131_072);
    let gpu = GpuSpec::a100_80g();
    let model = ModelConfig::llama3_8b();
    println!("{} @ {} tokens on {}\n", model.name, seq, gpu.name);

    println!(
        "{:>14} {:>12} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "system", "decode ms", "attn ms", "gemm ms", "select ms", "prefill s", "batch"
    );
    for sys in [
        SystemModel::vllm(),
        SystemModel::qserve(),
        SystemModel::duo_attention(),
        SystemModel::minference(),
        SystemModel::quest(),
        SystemModel::lserve(),
    ] {
        let d = decode_step(&gpu, &model, &sys, seq, 1);
        let p = prefill(&gpu, &model, &sys, seq);
        let b = max_batch(&gpu, &model, &sys, seq);
        println!(
            "{:>14} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>10.1} {:>9}",
            sys.name,
            d.total() * 1e3,
            d.attention_s() * 1e3,
            d.gemm_s * 1e3,
            d.selector_s * 1e3,
            p.total(),
            if b == 0 {
                "OOM".to_string()
            } else {
                b.to_string()
            },
        );
    }
    println!("\nDecode is per step at batch 1; 'batch' is the largest batch whose KV");
    println!("fits next to the weights in 80 GB. Calibration notes live in");
    println!("crates/costmodel/src/kernels.rs and DESIGN.md.");
}
