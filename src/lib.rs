//! # LServe: Efficient Long-sequence LLM Serving with Unified Sparse Attention
//!
//! A CPU reproduction of the MLSys 2025 paper (Yang, Guo, Tang et al.), built as a
//! Rust workspace. This facade crate re-exports every subsystem; see `DESIGN.md` for
//! the system inventory, the executor/state split, and the scheduler architecture.
//!
//! The paper's idea in one paragraph: attention over long contexts is computed
//! block-by-block along the KV dimension, and a block is either fully computed or
//! fully skipped — so *which blocks you visit* is the whole performance story.
//! LServe unifies three ways of visiting fewer blocks: **static sparsity** (half the
//! heads become Λ-masked streaming heads, fixed offline), **dynamic sparsity**
//! (dense heads attend only the top-scoring KV pages under a constant token budget,
//! chosen per-query by hierarchical min/max page statistics), and **KV quantization**
//! (each visited block is cheaper). The three compose multiplicatively.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`tensor`](lserve_tensor) | f32 kernels: matmul, online softmax, RMSNorm, RoPE |
//! | [`quant`](lserve_quant) | INT8/INT4 group quantization (QServe-style KV layout) |
//! | [`kvcache`](lserve_kvcache) | paged pool (refcounts + copy-on-write forks), two-way dense/streaming caches, `K_stats` |
//! | [`prefixcache`](lserve_prefixcache) | cross-request KV prefix cache: radix tree, LRU, refcounted page sharing |
//! | [`attention`](lserve_attention) | block patterns (§3.4 iterators), prefill/decode/fused kernels |
//! | [`selector`](lserve_selector) | flat (Quest), hierarchical (§3.5.2), reusable (§3.5.3) |
//! | [`model`](lserve_model) | Llama-3/Llama-2/Minitron shapes, seeded weights, forward blocks |
//! | [`costmodel`](lserve_costmodel) | A100/L40S analytical model calibrated to the paper |
//! | [`workloads`](lserve_workloads) | NIAH, RULER/LongBench proxies, DuoAttention gates |
//! | [`core`](lserve_core) | the engine: classification, pipelines, serving loop |
//! | [`trace`](lserve_trace) | work-token-clocked tracing, Chrome/Perfetto export, JSON metrics |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use lserve::core::{EngineConfig, ModelExecutor};
//! use lserve::model::{ModelConfig, ModelWeights};
//!
//! let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 42));
//! let cfg = EngineConfig::lserve_fp16();
//! let mut pool = cfg.make_pool_for(&weights.config, 256);
//! // One executor (weights + policy, shareable) serves any number of sequences.
//! let exec = ModelExecutor::new(weights, cfg);
//! let mut seq = exec.new_sequence();
//! let tokens = exec.generate(&mut seq, &mut pool, &[1, 2, 3, 4], 8)?;
//! assert_eq!(tokens.len(), 8);
//! seq.release(&mut pool);
//! # Ok::<(), lserve::core::OutOfPagesError>(())
//! ```
//!
//! Serving many requests over one pool is [`core::Scheduler`], fed
//! [`core::RequestSpec`]s; its documentation has the example.

pub use lserve_attention as attention;
pub use lserve_core as core;
pub use lserve_costmodel as costmodel;
pub use lserve_kvcache as kvcache;
pub use lserve_model as model;
pub use lserve_prefixcache as prefixcache;
pub use lserve_quant as quant;
pub use lserve_selector as selector;
pub use lserve_tensor as tensor;
pub use lserve_trace as trace;
pub use lserve_workloads as workloads;
