//! Figure 16: end-to-end decode speedup breakdown — dense FP16 baseline,
//! +streaming heads, +dynamic sparsity, full LServe (quantization included) —
//! normalized throughput (Llama-3-8B, A100).

use lserve_bench::{klen, print_table};
use lserve_costmodel::{decode_step, GpuSpec, SystemModel};
use lserve_model::ModelConfig;
use lserve_quant::KvPrecision;

/// The breakdown starts from the original dense FP16 model on LServe's stack and
/// layers the optimizations on: static sparsity, then dynamic sparsity, then the
/// full system (which adds KV4 quantization).
fn chain() -> Vec<(&'static str, SystemModel)> {
    let fp16 = |mut s: SystemModel| {
        s.kv_precision = KvPrecision::Fp16;
        s.page_size = 16;
        s.logical_page = 16;
        s
    };
    vec![
        (
            "Dense Attention",
            fp16(SystemModel::lserve_dense_baseline()),
        ),
        (
            "+50% Streaming Heads",
            fp16(SystemModel::lserve_static_only()),
        ),
        (
            "+Dynamic (4K budget)",
            fp16(SystemModel::lserve_dynamic_only()),
        ),
        ("LServe", SystemModel::lserve()),
    ]
}

fn main() {
    let gpu = GpuSpec::a100_80g();
    let model = ModelConfig::llama3_8b();
    let lengths = [4_096usize, 8_192, 16_384, 32_768, 65_536, 131_072, 262_144];
    let systems = chain();

    let dense_t: Vec<f64> = lengths
        .iter()
        .map(|&s| decode_step(&gpu, &model, &systems[0].1, s, 1).total())
        .collect();

    let mut rows = Vec::new();
    for (name, sys) in &systems {
        let mut row = vec![name.to_string()];
        for (i, &seq) in lengths.iter().enumerate() {
            let t = decode_step(&gpu, &model, sys, seq, 1).total();
            row.push(format!("{:.2}", dense_t[i] / t)); // speedup over dense
        }
        rows.push(row);
    }
    let mut headers = vec!["System (speedup over dense)".to_string()];
    headers.extend(lengths.iter().map(|&s| klen(s)));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Figure 16, modeled (costmodel): end-to-end decode speedup over the dense FP16 baseline (Llama-3-8B, A100)",
        &headers_ref,
        &rows,
    );
    println!("\nPaper shape: static sparsity contributes a bounded gain dominant at short");
    println!("contexts (up to ~1.7x e2e); dynamic sparsity grows with context (the paper");
    println!("measures up to 4.5x at 256K); combined LServe compounds both. Our dense");
    println!("baseline attention is modeled at full HBM bandwidth, which flatters the");
    println!("baseline, so the absolute speedups here are conservative.");
}
