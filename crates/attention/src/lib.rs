//! Unified block-sparse attention kernels with the iterator-based block abstraction.
//!
//! This crate implements the paper's primary mechanism (§3.1, §3.4, §3.6): attention
//! computed block-by-block along the KV dimension, where each `TQ × TK` tile (prefill)
//! or `1 × P` page (decode) is either **fully computed** or **entirely skipped** —
//! never partially masked inside an iteration — so skipping blocks directly shortens
//! the sequential loop and yields the `1/(1−r)` speedup of Figure 4(b).
//!
//! * [`pattern`] — the §3.4 *iterator abstraction*: [`BlockPattern`]s enumerate
//!   exactly the blocks that need computing (dense causal, streaming Λ, arbitrary
//!   block masks, selected pages), replacing in-loop branching by offset arithmetic.
//! * [`reference`] — naive dense causal attention used as ground truth by every test.
//! * `block` (private) — the one block routine under both kernels: a block of keys
//!   and values folded into the running softmax state of a group of query rows, with
//!   lanes across d-major keys; bit-identical to the one-key-at-a-time loop.
//! * `exp` (private) — the block routine's lane operations, its running max and
//!   `exp`: key by key and libm per lane, or, on an x86_64 glibc host with AVX2
//!   and FMA, a vector prefix max and glibc's own FMA `expf` four lanes to a
//!   register, bit for bit.
//! * [`prefill`] — the tiled prefill kernel: the block routine across visited tiles,
//!   with per-call [`prefill::PrefillStats`] counting visited vs. total tiles (the
//!   quantity the cost model converts to GPU time).
//! * [`decode`] — the paged decode kernel: a GQA group's query rows against a page
//!   table, optionally restricted to selected pages, reading (de)quantized pages
//!   through the [`lserve_kvcache::PagePool`].
//! * [`dynamic`] — MInference-style query-aware prefill block masks (§4.3): the
//!   Eq. 2 min/max bound lifted to tiles, feeding [`pattern::MaskPattern`].
//! * [`fused`] — the layer-level hybrid prefill kernel of §3.6: dense and streaming
//!   heads dispatched in one call, GQA query→KV head mapping included.
//! * [`parallel`] — the sparsity-aware multi-threaded execution layer: per-head
//!   attention shards (a GQA group's decode over the two-way KV cache is one), LPT
//!   cost balancing over simulated devices and their workers, and one scoped-thread
//!   worker pool with work stealing (std only), bit-identical to serial execution at
//!   every thread and device count.

mod block;
pub mod decode;
pub mod dynamic;
mod exp;
pub mod fused;
pub mod parallel;
pub mod pattern;
pub mod prefill;
pub mod reference;

pub use decode::{decode_dense_head, decode_streaming_head, DecodeStats};
pub use dynamic::build_dynamic_prefill_mask;
pub use fused::{fused_prefill_layer, HeadKind, LayerAttnConfig};
pub use parallel::{
    lpt_assign, placed_queues, run_decode_shard, run_placed, DecodeShard, PlacedBalance,
};
pub use pattern::{BlockDecision, BlockPattern, DensePattern, MaskPattern, StreamingPattern};
pub use prefill::{prefill_attention, PrefillStats};
pub use reference::{causal_attention_reference, masked_attention_reference};
