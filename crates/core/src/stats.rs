//! Aggregate work counters reported by the engine.

use lserve_attention::{DecodeStats, PlacedBalance, PrefillStats};
use lserve_kvcache::{DenseHeadCache, Moved};

/// Cumulative work counters across an engine's lifetime.
///
/// These are the units the analytical cost model prices: visited prefill tiles,
/// visited decode pages, selector scoring work. Accuracy experiments read recall off
/// the workloads; efficiency experiments read these counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Prefill tiles computed on dense (retrieval) heads.
    pub prefill_dense_tiles: u64,
    /// Prefill tiles computed on streaming heads.
    pub prefill_streaming_tiles: u64,
    /// Prefill tiles a fully dense model would have computed.
    pub prefill_total_causal_tiles: u64,
    /// Decode pages visited on dense heads.
    pub decode_dense_pages: u64,
    /// Decode pages visited on streaming heads.
    pub decode_streaming_pages: u64,
    /// Decode pages a dense engine would have visited.
    pub decode_total_pages: u64,
    /// Decode KV token rows actually folded into attention.
    pub decode_tokens_visited: u64,
    /// Logical pages scored by selectors.
    pub selector_logical_scored: u64,
    /// Selector invocations that actually scored (not reused).
    pub selector_invocations: u64,
    /// Selector calls answered from the reuse cache.
    pub selector_reuses: u64,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Pages this sequence demoted to the cold tier (selection-driven).
    pub pages_demoted: u64,
    /// Cold pages this sequence promoted back because a selection picked them.
    pub pages_promoted: u64,
    /// Token-units this sequence moved across the host link in either
    /// direction (see [`lserve_kvcache::transfer_cost_tokens`] for the
    /// conversion into forward-pass token-equivalents).
    pub migrated_token_units: u64,
    /// The fraction of `migrated_token_units` this sequence actually stalled
    /// on: transfer work the copy engine could not hide behind compute
    /// (demand fetches, forced completions). Under synchronous migration
    /// every moved unit lands here.
    pub unhidden_token_units: u64,
}

impl EngineStats {
    /// Folds one KV head's prefill counters in, counted as streaming-head
    /// work when `table` has a window.
    pub fn add_prefill(&mut self, table: &DenseHeadCache, head: PrefillStats) {
        if table.window().is_some() {
            self.prefill_streaming_tiles += head.tiles_visited;
        } else {
            self.prefill_dense_tiles += head.tiles_visited;
        }
        self.prefill_total_causal_tiles += head.tiles_total_causal;
    }

    /// Folds one decode shard's counters in: one pass over `table`, counted
    /// as streaming-head work when the table has a window.
    pub fn add_decode(&mut self, table: &DenseHeadCache, head: DecodeStats) {
        if table.window().is_some() {
            self.decode_streaming_pages += head.pages_visited;
        } else {
            self.decode_dense_pages += head.pages_visited;
        }
        self.decode_total_pages += head.pages_total;
        self.decode_tokens_visited += head.tokens_visited;
    }

    /// Overall prefill block sparsity `r` (fraction of causal tiles skipped).
    pub fn prefill_sparsity(&self) -> f64 {
        if self.prefill_total_causal_tiles == 0 {
            return 0.0;
        }
        1.0 - (self.prefill_dense_tiles + self.prefill_streaming_tiles) as f64
            / self.prefill_total_causal_tiles as f64
    }

    /// Folds one residency pass's migration traffic in — what the pool moved
    /// down-tier and what it brought hot — in a single call per pass: the one
    /// place per-sequence migration accounting happens.
    pub fn add_migration(&mut self, demoted: Moved, promoted: Moved) {
        self.pages_demoted += demoted.pages;
        self.pages_promoted += promoted.pages;
        self.migrated_token_units += demoted.units + promoted.units;
        self.unhidden_token_units += demoted.unhidden + promoted.unhidden;
    }

    /// Modeled transfer work this sequence waited for rather than overlapped,
    /// in forward-pass token-equivalents.
    pub fn migration_stall_tokens(&self) -> u64 {
        lserve_kvcache::transfer_cost_tokens(self.unhidden_token_units)
    }

    /// Overall decode page sparsity (fraction of pages skipped).
    pub fn decode_sparsity(&self) -> f64 {
        if self.decode_total_pages == 0 {
            return 0.0;
        }
        1.0 - (self.decode_dense_pages + self.decode_streaming_pages) as f64
            / self.decode_total_pages as f64
    }
}

/// Aggregate counters of the sparsity-aware parallel execution layer, folded
/// over every prefill/decode parallel phase an executor ran.
///
/// Two families of numbers live here:
///
/// * **Measured** (`busy_ns_*`, `stolen`): wall-clock worker activity. Useful
///   for utilization/imbalance reporting; inherently nondeterministic.
/// * **Modeled** (`cost_*`): the sparsity-aware shard cost estimates the LPT
///   assignment balanced. `cost_total / cost_critical` is the speedup a
///   perfectly parallel machine would get from this schedule — deterministic,
///   so tests can assert on it regardless of host core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelExecStats {
    /// Largest worker count used by any phase.
    pub workers: usize,
    /// Parallel phases executed (one per layer per prefill/decode call).
    pub phases: u64,
    /// Attention shards executed across all phases.
    pub shards: u64,
    /// Shards executed by a worker other than their LPT assignee (work
    /// stealing fired).
    pub stolen: u64,
    /// Total measured worker busy time, nanoseconds.
    pub busy_ns_total: u64,
    /// Sum over phases of the busiest worker's time — the measured critical
    /// path across all phases.
    pub busy_ns_critical: u64,
    /// Sum over phases of `phase workers × busiest worker's time` — the total
    /// worker-seconds the pool was open. Per-phase accumulation matters:
    /// phases clamp their worker count to the shard count, so a run mixing
    /// 2-worker and 8-worker phases must not divide every phase by 8.
    pub busy_ns_capacity: u64,
    /// Total estimated shard cost (serial work) across all phases.
    pub cost_total: u64,
    /// Sum over phases of the most-loaded worker's estimated cost — the
    /// modeled critical path of the LPT schedule.
    pub cost_critical: u64,
    /// Largest simulated device count any phase was placed onto.
    pub devices: usize,
    /// Modeled interconnect tokens charged for cross-device gathers (a
    /// sequence's shards produced on a non-home device).
    pub interconnect_tokens: u64,
    /// Sum over phases of the busiest device's modeled cost — the
    /// device-level critical path (devices run concurrently in the model).
    pub device_cost_critical: u64,
    /// Sum over phases of `phase devices × busiest device's cost` — the
    /// device-seconds the mesh was open, mirroring `busy_ns_capacity`.
    pub device_cost_capacity: u64,
}

impl ParallelExecStats {
    /// Folds one parallel phase in: worker-level balance, the per-device
    /// ledger, and the phase's cross-device gather charge (which the shard
    /// costs already include).
    pub fn absorb(&mut self, p: &PlacedBalance, gather_tokens: u64) {
        self.workers = self.workers.max(p.workers());
        self.phases += 1;
        self.shards += p.shards;
        self.stolen += p.stolen;
        self.busy_ns_total += p.total_busy_ns();
        self.busy_ns_critical += p.max_busy_ns();
        self.busy_ns_capacity += p.workers() as u64 * p.max_busy_ns();
        self.cost_total += p.cost_total();
        self.cost_critical += p.cost_critical();
        self.devices = self.devices.max(p.devices);
        self.interconnect_tokens += gather_tokens;
        self.device_cost_critical += p.device_cost_critical();
        self.device_cost_capacity += p.devices as u64 * p.device_cost_critical();
    }

    /// Measured mean worker utilization in `(0, 1]`: busy time divided by the
    /// worker-seconds the pool was open (per phase, that phase's worker count
    /// × its critical path). 1.0 when no parallel phase ran.
    pub fn utilization(&self) -> f64 {
        if self.busy_ns_capacity == 0 {
            return 1.0;
        }
        self.busy_ns_total as f64 / self.busy_ns_capacity as f64
    }

    /// Measured imbalance `>= 1`: how much longer the critical path ran than a
    /// perfectly balanced schedule would have (the reciprocal of utilization).
    pub fn imbalance(&self) -> f64 {
        let u = self.utilization();
        if u == 0.0 {
            return 1.0;
        }
        1.0 / u
    }

    /// Modeled speedup of the LPT schedule over serial execution
    /// (`cost_total / cost_critical`, deterministic). 1.0 when nothing ran.
    pub fn modeled_speedup(&self) -> f64 {
        if self.cost_critical == 0 {
            return 1.0;
        }
        self.cost_total as f64 / self.cost_critical as f64
    }

    /// Modeled mean device utilization in `(0, 1]`: cost landed across the
    /// mesh (`cost_total`, gather charges included) divided by the
    /// device-seconds the mesh was open. Deterministic (pure placement
    /// arithmetic, no wall clock). 1.0 when nothing ran.
    pub fn device_utilization(&self) -> f64 {
        if self.device_cost_capacity == 0 {
            return 1.0;
        }
        self.cost_total as f64 / self.device_cost_capacity as f64
    }

    /// Modeled device imbalance `>= 1`: how much longer the busiest device
    /// ran than a perfectly balanced placement would have (the reciprocal of
    /// [`ParallelExecStats::device_utilization`]). This is the number the
    /// sparsity-aware-vs-round-robin placement claim test asserts on.
    pub fn device_imbalance(&self) -> f64 {
        let u = self.device_utilization();
        if u == 0.0 {
            return 1.0;
        }
        1.0 / u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_kvcache::StreamingWindow;

    #[test]
    fn sparsity_zero_when_empty() {
        let s = EngineStats::default();
        assert_eq!(s.prefill_sparsity(), 0.0);
        assert_eq!(s.decode_sparsity(), 0.0);
    }

    #[test]
    fn add_prefill_accumulates() {
        let mut s = EngineStats::default();
        let window = StreamingWindow::paper_default();
        s.add_prefill(
            &DenseHeadCache::new(),
            PrefillStats {
                tiles_visited: 10,
                tiles_total_causal: 20,
            },
        );
        s.add_prefill(
            &DenseHeadCache::with_window(Some(window)),
            PrefillStats {
                tiles_visited: 5,
                tiles_total_causal: 20,
            },
        );
        assert_eq!(s.prefill_dense_tiles, 10);
        assert_eq!(s.prefill_streaming_tiles, 5);
        assert!((s.prefill_sparsity() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn add_decode_accumulates() {
        let mut s = EngineStats::default();
        let dense = DecodeStats {
            pages_visited: 4,
            tokens_visited: 64,
            pages_total: 10,
        };
        let streaming = DecodeStats {
            pages_visited: 2,
            tokens_visited: 32,
            pages_total: 10,
        };
        let window = StreamingWindow::paper_default();
        s.add_decode(&DenseHeadCache::new(), dense);
        s.add_decode(&DenseHeadCache::with_window(Some(window)), streaming);
        assert_eq!((s.decode_dense_pages, s.decode_streaming_pages), (4, 2));
        assert_eq!(s.decode_tokens_visited, 96);
        assert!((s.decode_sparsity() - 0.7).abs() < 1e-12);
    }

    /// A one-device phase: everything on device 0.
    fn one_device(
        busy_ns: Vec<u64>,
        assigned_cost: Vec<u64>,
        shards: u64,
        stolen: u64,
    ) -> PlacedBalance {
        PlacedBalance {
            devices: 1,
            device_cost: vec![assigned_cost.iter().sum()],
            shards,
            stolen,
            busy_ns,
            assigned_cost,
        }
    }

    #[test]
    fn parallel_stats_absorb_and_model() {
        let mut p = ParallelExecStats::default();
        assert_eq!(p.utilization(), 1.0);
        assert_eq!(p.modeled_speedup(), 1.0);
        p.absorb(&one_device(vec![100; 4], vec![30, 30, 20, 20], 8, 1), 0);
        assert_eq!(p.phases, 1);
        assert_eq!(p.shards, 8);
        assert_eq!(p.cost_total, 100);
        assert_eq!(p.cost_critical, 30);
        assert!((p.modeled_speedup() - 100.0 / 30.0).abs() < 1e-12);
        assert!((p.utilization() - 1.0).abs() < 1e-12);
        // One device is a balanced mesh of one: its ledger is the phase's cost.
        assert_eq!(p.devices, 1);
        assert_eq!(
            (p.cost_total, p.device_cost_critical, p.device_cost_capacity),
            (100, 100, 100)
        );
        assert_eq!(p.device_imbalance(), 1.0);
    }

    #[test]
    fn absorb_placed_tracks_device_ledger_and_interconnect() {
        let mut p = ParallelExecStats::default();
        assert_eq!(p.device_imbalance(), 1.0);
        p.absorb(
            &PlacedBalance {
                devices: 2,
                device_cost: vec![30, 10],
                shards: 4,
                stolen: 0,
                busy_ns: vec![10, 10],
                assigned_cost: vec![30, 10],
            },
            8,
        );
        assert_eq!(p.devices, 2);
        assert_eq!(p.interconnect_tokens, 8);
        assert_eq!(p.cost_total, 40);
        assert_eq!(p.device_cost_critical, 30);
        assert_eq!(p.device_cost_capacity, 60);
        assert!((p.device_imbalance() - 1.5).abs() < 1e-12);
        // A one-device phase folds in as a balanced mesh of one.
        p.absorb(&one_device(vec![5], vec![20], 1, 0), 0);
        assert_eq!(p.devices, 2);
        assert_eq!(p.interconnect_tokens, 8);
        assert_eq!(p.cost_total, 60);
        assert_eq!(p.device_cost_critical, 50);
        assert_eq!(p.device_cost_capacity, 80);
    }

    #[test]
    fn utilization_weights_phases_by_their_own_worker_count() {
        // A fully-busy 2-worker phase followed by a fully-busy 8-worker phase:
        // utilization must be 1.0, not deflated by dividing the small phase by
        // the run-wide maximum worker count.
        let mut p = ParallelExecStats::default();
        p.absorb(&one_device(vec![50; 2], vec![5; 2], 2, 0), 0);
        p.absorb(&one_device(vec![100; 8], vec![10; 8], 8, 0), 0);
        assert_eq!(p.workers, 8);
        assert_eq!(p.busy_ns_capacity, 2 * 50 + 8 * 100);
        assert!((p.utilization() - 1.0).abs() < 1e-12);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }
}
