//! Two-way paged KV cache with hierarchical page statistics.
//!
//! This crate is the serving-memory substrate of the LServe reproduction (paper §2.1
//! "Paged Attention" and §3.2 "LServe System Overview"):
//!
//! * [`PagePool`] — a hierarchical pool of physical KV pages with a free list
//!   and reference counts: a capacity-bounded **hot tier** playing the role of
//!   GPU device memory (the only tier attention kernels may read), a
//!   **cold tier** modeling host memory (optionally bounded via
//!   [`TierConfig`]), and below it an optional modeled **nvme tier** an order
//!   of magnitude slower per hop ([`NVME_TRANSFER_SPEEDUP`]). Explicit
//!   [`PagePool::demote`] / [`PagePool::promote`] / [`PagePool::spill`]
//!   migrations carry a deterministic modeled transfer cost
//!   ([`transfer_cost_tokens`]). Sequences hold *page tables*
//!   (vectors of [`PageId`], stable across migrations) and kernels access pages
//!   through the pool, mirroring PagedAttention's indirect addressing.
//! * [`KvPage`] — one physical page of up to `N_P` tokens for a single KV head,
//!   stored at a configurable precision (FP16/INT8/INT4, scales and zeros carried per
//!   token row exactly like QServe's layout) plus the per-*logical*-page channelwise
//!   key min/max statistics (`K_stats` in Figure 5) that the dynamic page selector
//!   consumes.
//! * [`DenseHeadCache`] — the page table of one KV head, every page carrying
//!   `K_stats`. Its append is the pool's one append rule
//!   ([`PagePool::append_row`]: write into the tail, its copy-on-write fork,
//!   or a fresh page). A dense (retrieval) head keeps its full history; a
//!   streaming head is the same table with a [`StreamingWindow`], which frees
//!   the page after its sink pages whenever more than the local window
//!   follows them ("Only Sink & Local Pages" in Figure 5). Evicted pages
//!   return to the pool, which is where LServe's memory saving on streaming
//!   heads comes from. A layer is one table per KV head, windowed by the
//!   static head classification; [`append_token`] feeds it one token.
//!
//! Hierarchical paging (paper §3.5.2) lives here as data: each physical page of
//! `N_P` tokens records min/max key statistics per logical page of `N_L` tokens
//! (`N_P = g · N_L`), so the selector can score at fine granularity while memory
//! stays coarse-grained.

pub mod config;
pub mod copy_engine;
pub mod dense;
pub mod layer;
pub mod page;
pub mod pool;
pub mod stats;
pub mod streaming;

pub use config::PagingConfig;
pub use copy_engine::{MigrationDir, MigrationMode, MigrationStats, COPY_CHANNEL_DEPTH};
pub use dense::DenseHeadCache;
pub use layer::append_token;
pub use page::{key_lane_offset, CodeLanes, KvPage, PageCodes, PageData, KEY_LANES};
pub use pool::tiers::{Moved, Residency, TierConfig};
pub use pool::{AppendedTo, PageId, PagePool};
pub use stats::{
    nvme_ledger_units, transfer_cost_tokens, LogicalPageStats, TierStats, HOST_TRANSFER_SPEEDUP,
    NVME_TRANSFER_SPEEDUP,
};
pub use streaming::{StreamingHeadCache, StreamingWindow};
