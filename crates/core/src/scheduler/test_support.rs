//! Shared fixtures of the scheduler tests.
#![cfg(test)]

pub(super) use std::sync::Arc;

use lserve_model::{ModelConfig, ModelWeights};

pub(super) use super::Scheduler;
pub(super) use crate::api::*;
pub(super) use crate::{EngineConfig, ModelExecutor};

pub(super) fn weights() -> Arc<ModelWeights> {
    Arc::new(ModelWeights::random(&ModelConfig::tiny(), 5))
}

pub(super) fn request(id: u64, len: usize, gen: usize) -> RequestSpec {
    RequestSpec::new(id, (0..len).map(|i| (i % 90) as u32).collect()).max_new_tokens(gen)
}

pub(super) fn scheduler(cfg: EngineConfig, scfg: SchedulerConfig) -> Scheduler {
    Scheduler::new(Arc::new(ModelExecutor::new(weights(), cfg)), scfg)
}

/// Small pages so the two sequences' hot footprints actually differ in
/// page counts at toy context lengths.
pub(super) fn small_page_dense() -> EngineConfig {
    let mut cfg = EngineConfig::dense();
    cfg.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg
}

/// The FCFS baseline: monolithic prefill, unbounded batch, conservative
/// full-footprint admission.
pub(super) fn fcfs(w: Arc<ModelWeights>, cfg: EngineConfig, pool_pages: usize) -> Scheduler {
    let scfg = SchedulerConfig {
        chunk_tokens: usize::MAX,
        max_batch: usize::MAX,
        admission: AdmissionPolicy::FullFootprint,
        ..SchedulerConfig::new(pool_pages)
    };
    Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg)
}

/// A tiny copy of the benchmark's overcommitted scene — twelve unshared
/// prompts, a selection budget of `budget` tokens — as the engine policy,
/// the requests, and one sequence's page estimate. At a budget of 32 a
/// prompt sits at its capped hot set; at 96, about the prompts' length (as
/// the benchmark's 1024 is about its 1024–1408-token prompts), a sequence's
/// hot set keeps growing while it decodes, so the batches admission starts
/// outgrow the pool of [`overcommit_policy`] and preempt.
pub(super) fn overcommit_scene(budget: usize) -> (EngineConfig, Vec<RequestSpec>, usize) {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg.dynamic_budget = Some(budget);
    cfg.reuse_interval = 2;
    let specs = (0..12u64)
        .map(|i| {
            let len = 96 + 12 * (i as usize % 4);
            let prompt = (0..len).map(|t| ((t * 7 + i as usize * 13) % 90) as u32);
            RequestSpec::new(i, prompt.collect()).max_new_tokens(24)
        })
        .collect();
    let one = crate::sequence_pages_estimate(&cfg, &weights().config, 96 + 36 + 24);
    (cfg, specs, one)
}

/// The scene's scheduler policy: a pool of two sequences, swap preemption
/// over the async copy engine, a bounded host with nvme below it.
pub(super) fn overcommit_policy(one: usize, prefix_cache: bool) -> SchedulerConfig {
    let mut scfg = SchedulerConfig::new(2 * one);
    scfg.chunk_tokens = 16;
    scfg.max_batch = 64;
    scfg.admission = AdmissionPolicy::FirstChunk;
    scfg.prefix_cache = prefix_cache;
    scfg.preemption = PreemptionPolicy::Swap;
    scfg.migration = lserve_kvcache::MigrationMode::Async;
    scfg.host_pages = 2 * one;
    scfg.nvme = true;
    scfg
}
