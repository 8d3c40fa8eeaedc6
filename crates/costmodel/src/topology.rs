//! Multi-device topology and sparsity-aware head placement.
//!
//! LServe's per-head sparsity makes head-parallel attention structurally
//! imbalanced: a streaming head costs a constant sink+local window while a
//! dense head costs its full (or selected) history, so spreading KV heads
//! round-robin across devices leaves some devices idle behind the one that
//! drew the dense heads — the observation S-HPLB makes for head-parallel
//! sparse decoding. This module is the *modeled* device fabric the executor
//! places those heads on:
//!
//! * [`Topology`] — a symmetric mesh of simulated devices with a modeled
//!   interconnect cost per cross-device gather (a sequence's attention output
//!   produced on a non-home device must cross the mesh before the serial
//!   output projection), plus a host link for tier migrations, priced in the
//!   same work-token currency as the rest of the cost model.
//! * [`Placement`] — an explicit KV-head → device assignment. The
//!   sparsity-aware policy runs the executor's per-shard cost signal through
//!   a device-level LPT (the same `4/3`-approximate makespan heuristic
//!   `lserve_attention::lpt_assign` uses for worker queues); the round-robin
//!   policy is the sparsity-blind baseline it is benchmarked against.
//!
//! Placement never changes outputs — devices are simulated, every shard still
//! writes its own disjoint slice — it changes only the modeled per-device
//! load, the interconnect tokens charged for non-local gathers, and the trace
//! layout. That is what makes the device-matrix determinism tests possible:
//! any device count and any policy must be bit-identical to the solo run.

use lserve_attention::lpt_assign;

/// Default modeled interconnect charge, in work tokens, for gathering one
/// non-home shard's attention output across the device mesh.
pub const DEFAULT_GATHER_COST_TOKENS: u64 = 4;

/// Token-units the inter-device link moves per modeled work token when the
/// rebalancer migrates a head's KV between devices. The mesh link is modeled
/// as 8x faster than the host link (NVLink-class vs PCIe-class), so head
/// migration is cheap relative to tier offload but never free.
pub const INTERCONNECT_SPEEDUP: u64 = 8;

/// A symmetric mesh of simulated devices plus a host link.
///
/// All costs are modeled work tokens on the engine's deterministic work
/// clock; the topology never executes anything and never changes outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    devices: usize,
    gather_cost_tokens: u64,
    interconnect_speedup: u64,
}

impl Topology {
    /// A single device: no mesh, every gather is local and free.
    pub fn single() -> Self {
        Self {
            devices: 1,
            gather_cost_tokens: 0,
            interconnect_speedup: INTERCONNECT_SPEEDUP,
        }
    }

    /// A symmetric all-to-all mesh of `devices` devices where every
    /// cross-device gather costs `gather_cost_tokens` modeled tokens.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn symmetric(devices: usize, gather_cost_tokens: u64) -> Self {
        assert!(devices > 0, "topology needs at least one device");
        Self {
            devices,
            gather_cost_tokens,
            interconnect_speedup: INTERCONNECT_SPEEDUP,
        }
    }

    /// Number of simulated devices.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Modeled tokens one cross-device gather charges (0 on a single device).
    pub fn gather_cost_tokens(&self) -> u64 {
        if self.devices <= 1 {
            0
        } else {
            self.gather_cost_tokens
        }
    }

    /// Modeled tokens to migrate `token_units` of KV across the mesh when the
    /// rebalancer moves a head (0 on a single device, ceiling division
    /// otherwise — a migration is never free).
    pub fn migration_cost_tokens(&self, token_units: u64) -> u64 {
        if self.devices <= 1 || token_units == 0 {
            0
        } else {
            token_units.div_ceil(self.interconnect_speedup)
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::single()
    }
}

/// How KV heads are assigned to devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Device-level LPT over the per-head sparsity cost signal: heads sorted
    /// by descending cost each go to the least-loaded device. Zero-cost heads
    /// are weighted as 1 so ties still spread instead of piling on device 0.
    SparsityAware,
    /// Head `h` goes to device `h % devices` — the sparsity-blind baseline.
    RoundRobin,
}

/// An explicit KV-head → device assignment for one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    assign: Vec<usize>,
    devices: usize,
}

impl Placement {
    /// Computes a placement of `costs.len()` heads onto `devices` devices.
    ///
    /// Deterministic: equal inputs produce equal placements, and every head
    /// is assigned to exactly one device (devices may be empty when there are
    /// more devices than heads).
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn compute(costs: &[u64], devices: usize, policy: PlacementPolicy) -> Self {
        assert!(devices > 0, "placement needs at least one device");
        let assign = match policy {
            PlacementPolicy::RoundRobin => (0..costs.len()).map(|h| h % devices).collect(),
            PlacementPolicy::SparsityAware => {
                let weighted: Vec<u64> = costs.iter().map(|&c| c.max(1)).collect();
                let queues = lpt_assign(&weighted, devices);
                let mut assign = vec![0usize; costs.len()];
                for (d, queue) in queues.iter().enumerate() {
                    for &h in queue {
                        assign[h] = d;
                    }
                }
                assign
            }
        };
        Self { assign, devices }
    }

    /// The device holding head `h`.
    pub fn device_of(&self, head: usize) -> usize {
        self.assign[head]
    }

    /// The full head → device map.
    pub fn assignment(&self) -> &[usize] {
        &self.assign
    }

    /// Number of heads placed.
    pub fn heads(&self) -> usize {
        self.assign.len()
    }

    /// Number of devices placed onto.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Per-device load under `costs` (same length as the placement).
    pub fn device_loads(&self, costs: &[u64]) -> Vec<u64> {
        let mut loads = vec![0u64; self.devices];
        for (h, &d) in self.assign.iter().enumerate() {
            loads[d] += costs[h];
        }
        loads
    }

    /// Max-over-mean device load under `costs` — 1.0 is perfect balance,
    /// `devices` is everything on one device. Returns 1.0 when total load is
    /// zero.
    pub fn imbalance(&self, costs: &[u64]) -> f64 {
        let loads = self.device_loads(costs);
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *loads.iter().max().expect("devices > 0");
        max as f64 * self.devices as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_topology_charges_nothing() {
        let t = Topology::single();
        assert_eq!(t.devices(), 1);
        assert_eq!(t.gather_cost_tokens(), 0);
        assert_eq!(t.migration_cost_tokens(1000), 0);
    }

    #[test]
    fn mesh_charges_gathers_and_migrations() {
        let t = Topology::symmetric(4, 4);
        assert_eq!(t.gather_cost_tokens(), 4);
        assert_eq!(t.migration_cost_tokens(0), 0);
        assert_eq!(t.migration_cost_tokens(1), 1, "migration is never free");
        assert_eq!(t.migration_cost_tokens(64), 64 / INTERCONNECT_SPEEDUP);
    }

    #[test]
    fn sparsity_aware_beats_round_robin_on_skewed_heads() {
        // Head costs alternating heavy/light the way streaming/dense gating
        // produces them: round-robin puts all heavy heads on device 0.
        let costs = [100, 1, 100, 1, 100, 1, 100, 1];
        let sparse = Placement::compute(&costs, 2, PlacementPolicy::SparsityAware);
        let naive = Placement::compute(&costs, 2, PlacementPolicy::RoundRobin);
        assert!(sparse.imbalance(&costs) < naive.imbalance(&costs));
        assert!(sparse.imbalance(&costs) < 1.1);
        assert!(naive.imbalance(&costs) > 1.9);
    }

    #[test]
    fn placement_single_device_puts_everything_on_device_zero() {
        for policy in [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin] {
            let p = Placement::compute(&[5, 0, 9], 1, policy);
            assert_eq!(p.assignment(), &[0, 0, 0]);
            assert_eq!(p.imbalance(&[5, 0, 9]), 1.0);
        }
    }

    #[test]
    fn placement_more_devices_than_heads_covers_every_head_once() {
        let costs = [7u64, 3];
        for policy in [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin] {
            let p = Placement::compute(&costs, 8, policy);
            assert_eq!(p.heads(), 2);
            assert!(p.assignment().iter().all(|&d| d < 8));
            // Both heads land on distinct devices; the other six stay empty.
            assert_ne!(p.device_of(0), p.device_of(1));
            let loads = p.device_loads(&costs);
            assert_eq!(loads.iter().sum::<u64>(), 10);
            assert_eq!(loads.iter().filter(|&&l| l > 0).count(), 2);
        }
    }

    #[test]
    fn placement_all_zero_costs_still_spreads() {
        // Zero-cost heads are weighted as 1, so LPT spreads them instead of
        // piling every head on the first least-loaded scan hit (device 0).
        let costs = [0u64; 8];
        let p = Placement::compute(&costs, 4, PlacementPolicy::SparsityAware);
        let mut per_device = vec![0usize; 4];
        for &d in p.assignment() {
            per_device[d] += 1;
        }
        assert_eq!(per_device, vec![2, 2, 2, 2]);
    }

    #[test]
    fn placement_is_deterministic() {
        let costs: Vec<u64> = (0..32).map(|i| (i * 37) % 11).collect();
        for policy in [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin] {
            let a = Placement::compute(&costs, 4, policy);
            let b = Placement::compute(&costs, 4, policy);
            assert_eq!(a, b);
        }
    }
}
