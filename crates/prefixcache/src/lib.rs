//! Cross-request KV prefix cache: radix-tree prefix sharing over refcounted pages.
//!
//! Modern long-context traffic is dominated by *reusable* prefill — shared system
//! prompts, per-user personas, multi-turn histories. LServe's paged, refcounted KV
//! layout ([`lserve_kvcache::PagePool`]) is exactly the substrate real servers use
//! for automatic prefix caching: a page can be co-owned by any number of sequences
//! *and* by the cache, and is recycled only when the last owner lets go.
//!
//! This crate provides the cache's data plane, policy-free and generic over what a
//! cached prefix actually stores:
//!
//! * [`RadixTree`] — a token-level radix tree keyed by prompt token sequences, with
//!   edge splitting on divergence and edge merging on removal. Lookups return the
//!   *deepest* cached entry that is a prefix of the query, within caller-supplied
//!   depth bounds (serving layers bound matches below by the prefill tile grid and
//!   above by `prompt_len - 1` so at least one suffix token is always computed).
//! * [`PrefixPages`] — the contract a cached value signs: it lists its page
//!   ids, and the cache asks the pool everything else about them (take or drop
//!   one co-ownership reference on all, whether evicting frees a page, what a
//!   spill moves). The serving layer caches full per-sequence KV state;
//!   [`PageRunPrefix`] is the minimal concrete value (per-layer, page-aligned
//!   runs of [`lserve_kvcache::PageId`]s).
//! * [`PrefixCache`] — the managed store: refcount-backed insertion (donating a
//!   prefix retains its pages; a duplicate insert is refused and nets no
//!   reference), LRU touch on every hit, LRU eviction under pool pressure, and
//!   hit/miss/token counters for serving reports.
//!
//! Mutation safety comes from copy-on-write at the page layer: appending into a
//! page whose refcount exceeds 1 forks it first (see `lserve_kvcache`), so a cached
//! prefix is immutable for as long as the tree references it.
//!
//! The [`PrefixPages`] contract is **tier-agnostic**: the cache's retain and
//! free operate on refcounts, which pages keep across hot↔cold migrations in the two-tier pool
//! ([`lserve_kvcache::PagePool::demote`] / `promote`). A cached prefix may
//! therefore reference cold (host-offloaded) pages — the tree keeps them alive
//! either way, demotion refuses any page the tree co-owns with a live
//! sequence, and a consumer seeded from a partly-cold entry promotes pages on
//! first use (the executor's residency pass). Note the asymmetry pressure
//! eviction inherits: evicting an entry whose sole pages are cold returns host
//! slots, not hot ones, so eviction loops keep walking until something
//! device-resident actually frees.

pub mod cache;
pub mod tree;

pub use cache::{PageRunPrefix, PrefixCache, PrefixCacheStats, PrefixPages};
pub use tree::RadixTree;
