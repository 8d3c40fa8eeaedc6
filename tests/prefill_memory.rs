//! Claim test: a fused prefill chunk streams its layers one tile of rows at a
//! time.
//!
//! A counting global allocator tracks the live heap bytes of this process.
//! `ModelExecutor::prefill` runs on the geometry of `perf`'s `bench-2l` model
//! (hidden 128, 8 query / 4 KV heads, head_dim 32, ffn 256, vocab 97) under
//! `EngineConfig::lserve()` (INT4 KV) with a 1024-token budget. The transient
//! heap of a call is its peak live bytes less the live bytes after it (the KV
//! pages it wrote stay live on both sides, so they cancel). What a chunk holds
//! per prompt token is the hidden rows (512 B), the RoPE angles (128 B) and
//! the keys and values of each dense KV head (256 B each); a streaming head
//! holds its window's tiles whatever the length, and the tile's own rows are a
//! constant. Three cases, one after another, since the counters are
//! process-wide:
//!
//! * `lserve` at 1024 tokens: at most 2 048 B a prompt token (its two layers
//!   hold one and three dense heads). A chunk that held the layer's whole Q,
//!   K and V held 4 096; one that also copied each query head, 6 784.
//! * every head streaming: from 1024 to 2048 tokens the transient heap grows
//!   by at most 768 B an added token, the hidden rows and the angles.
//! * every dense head under a dynamic mask from the first token: at most
//!   2 048 B a prompt token at 1024 tokens.
//!
//! The test is alone in its binary, so no other test allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lserve::core::{EngineConfig, ModelExecutor};
use lserve::model::{ModelConfig, ModelWeights};

/// Live heap bytes, and their highest value since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it hands out.
struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The transient heap of one fused prefill of `n` tokens of `model` under
/// `cfg`, in bytes: its peak live heap less the live heap after it.
fn transient_heap(model: &ModelConfig, cfg: EngineConfig, n: usize) -> usize {
    let prompt: Vec<u32> = (0..n).map(|i| (i * 31 % 97) as u32).collect();
    let mut pool = cfg.make_pool_for(model, n + 8);
    let exec = ModelExecutor::new(Arc::new(ModelWeights::random(model, 6)), cfg);
    let mut state = exec.new_sequence();

    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let out = exec
        .prefill(&mut state, &mut pool, &prompt)
        .expect("the pool holds the prompt");
    let (peak, after) = (PEAK.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    assert_eq!(out.logits.len(), model.vocab);
    peak - after
}

#[test]
fn a_fused_prefill_chunk_holds_at_most_2048_bytes_per_prompt_token() {
    let model = ModelConfig {
        name: "bench-2l".into(),
        num_layers: 2,
        hidden: 128,
        num_q_heads: 8,
        num_kv_heads: 4,
        head_dim: 32,
        ffn_hidden: 256,
        vocab: 97,
        rope_base: 10_000.0,
    };
    let lserve = EngineConfig {
        dynamic_budget: Some(1024),
        ..EngineConfig::lserve()
    };

    let n = 1024;
    let per_token = transient_heap(&model, lserve.clone(), n) as f64 / n as f64;
    println!("fused prefill of {n} tokens: {per_token:.0} B of transient heap per prompt token");
    assert!(
        per_token <= 2048.0,
        "{per_token:.0} B per prompt token, over 2 048"
    );

    let streaming = EngineConfig {
        streaming_sparsity: 1.0,
        ..lserve.clone()
    };
    let short = transient_heap(&model, streaming.clone(), n);
    let long = transient_heap(&model, streaming, 2 * n);
    let growth = (long as f64 - short as f64) / n as f64;
    println!("every head streaming: {growth:.0} B more transient heap per added prompt token");
    assert!(
        growth <= 768.0,
        "{growth:.0} B per added prompt token, over 768"
    );

    let dynamic = EngineConfig {
        dynamic_prefill_after: 0,
        ..lserve
    };
    let per_token = transient_heap(&model, dynamic, n) as f64 / n as f64;
    println!("dynamic prefill of {n} tokens: {per_token:.0} B of transient heap per prompt token");
    assert!(
        per_token <= 2048.0,
        "{per_token:.0} B per prompt token, over 2 048"
    );
}
