//! The simulated device mesh and where each KV head's shards run on it.
//!
//! LServe's per-head sparsity makes head-parallel attention structurally
//! imbalanced: a streaming head costs a constant sink+local window while a
//! dense head costs its full (or selected) history, so spreading KV heads
//! round-robin across devices leaves some devices idle behind the one that
//! drew the dense heads — the observation S-HPLB makes for head-parallel
//! sparse decoding. This module holds the whole placement decision:
//!
//! * [`Topology`] — a symmetric mesh of simulated devices with a modeled
//!   interconnect cost per cross-device gather (a sequence's attention output
//!   produced on a non-home device must cross the mesh before the serial
//!   output projection) and per migrated KV token-unit, priced in the
//!   work-token currency of the rest of the cost model.
//! * [`PlacementPolicy`] — the KV-head → device rule: a device-level LPT over
//!   the per-head sparsity cost signal (the same `4/3`-approximate makespan
//!   heuristic [`lpt_assign`] applies to worker queues), or the sparsity-blind
//!   round-robin baseline it is benchmarked against.
//! * [`ShardingPlan`] — the scheduler-owned state that evolves across steps:
//!   each layer's head → device vector and the load history that decides
//!   when it has gone stale. The executor is immutable (`&self`) by design,
//!   so the scheduler (or a test) threads the plan into
//!   `ModelExecutor::decode_batch_sharded`, and every decode round hands it
//!   the round's shards (`ShardingPlan::place`) to get back each shard's
//!   device and the round's gather charge.
//!
//! Placement is lazy and signal-driven: the first decode round of each layer
//! computes it from that round's per-head cost signal (the same estimates the
//! worker-level LPT balances), then it sticks — real head migration moves KV
//! between devices, so placement must not churn every step. Instead the plan
//! accumulates per-head cost and, every [`ShardingPlan::rebalance_interval`]
//! steps, compares the busiest device against the mesh mean; past
//! [`ShardingPlan::rebalance_threshold`] it recomputes placement from the
//! accumulated signal and charges the moved heads' KV across the interconnect
//! ([`Topology::migration_cost_tokens`]).
//!
//! None of this changes outputs: devices are simulated and every shard still
//! writes its own disjoint slice, so placement, gathers and rebalancing move
//! modeled per-device load, interconnect tokens and the trace layout, never
//! the arithmetic. That is what makes the device-matrix determinism tests
//! possible: any device count and any policy must be bit-identical to the
//! solo run.

use lserve_attention::lpt_assign;

/// Default modeled interconnect charge, in work tokens, for gathering one
/// non-home shard's attention output across the device mesh.
pub const DEFAULT_GATHER_COST_TOKENS: u64 = 4;

/// Token-units the inter-device link moves per modeled work token when the
/// rebalancer migrates a head's KV between devices. The mesh link is modeled
/// as 8x faster than the host link (NVLink-class vs PCIe-class), so head
/// migration is cheap relative to tier offload but never free.
pub const INTERCONNECT_SPEEDUP: u64 = 8;

/// A symmetric mesh of simulated devices.
///
/// All costs are modeled work tokens on the engine's deterministic work
/// clock; the topology never executes anything and never changes outputs.
/// One device is a mesh whose gathers and migrations are all free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    devices: usize,
    gather_cost_tokens: u64,
}

impl Topology {
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
    /// rebalancer moves a head (0 on a single device, ceiling division by
    /// [`INTERCONNECT_SPEEDUP`] otherwise — a migration is never free).
    pub fn migration_cost_tokens(&self, token_units: u64) -> u64 {
        if self.devices <= 1 || token_units == 0 {
            0
        } else {
            token_units.div_ceil(INTERCONNECT_SPEEDUP)
        }
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

/// The device of each of `costs.len()` heads on `devices` devices.
///
/// Deterministic: equal inputs produce equal vectors, and every head gets
/// exactly one device (devices may be empty when there are more devices than
/// heads).
fn assign(costs: &[u64], devices: usize, policy: PlacementPolicy) -> Vec<usize> {
    match policy {
        PlacementPolicy::RoundRobin => (0..costs.len()).map(|h| h % devices).collect(),
        PlacementPolicy::SparsityAware => {
            let weighted: Vec<u64> = costs.iter().map(|&c| c.max(1)).collect();
            let mut assign = vec![0usize; costs.len()];
            for (d, queue) in lpt_assign(&weighted, devices).iter().enumerate() {
                for &h in queue {
                    assign[h] = d;
                }
            }
            assign
        }
    }
}

/// Counters the rebalancer accumulates over a plan's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardingStats {
    /// Rebalance passes that actually moved at least one head.
    pub rebalances: u64,
    /// (layer, head) assignments changed across all rebalances.
    pub heads_migrated: u64,
    /// KV token-units moved between devices by those migrations.
    pub migration_token_units: u64,
    /// Modeled work tokens the migrations charged on the interconnect.
    pub migration_cost_tokens: u64,
}

/// One rebalance pass's outcome, for the caller to charge into its work
/// clock and trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceOutcome {
    /// Heads whose device changed.
    pub heads_migrated: u64,
    /// KV token-units those heads had to move.
    pub token_units: u64,
    /// Modeled interconnect tokens the move cost.
    pub cost_tokens: u64,
    /// Measured max-over-mean device load that triggered the pass.
    pub imbalance: f64,
}

/// Mutable multi-device placement state for one engine.
#[derive(Debug, Clone)]
pub struct ShardingPlan {
    topology: Topology,
    policy: PlacementPolicy,
    /// Per-layer head → device vector, computed on the layer's first decode
    /// round.
    layers: Vec<Option<Vec<usize>>>,
    /// Per-(layer, head) modeled cost accumulated since the last rebalance.
    load: Vec<Vec<u64>>,
    steps: u64,
    /// Steps between imbalance checks.
    pub rebalance_interval: u64,
    /// Max-over-mean device load ratio that triggers a rebalance.
    pub rebalance_threshold: f64,
    /// Lifetime rebalance counters.
    pub stats: ShardingStats,
}

impl ShardingPlan {
    /// A plan for `num_layers` layers of `num_kv_heads` KV heads each.
    pub fn new(
        topology: Topology,
        policy: PlacementPolicy,
        num_layers: usize,
        num_kv_heads: usize,
    ) -> Self {
        Self {
            topology,
            policy,
            layers: vec![None; num_layers],
            load: vec![vec![0; num_kv_heads]; num_layers],
            steps: 0,
            rebalance_interval: 16,
            rebalance_threshold: 1.5,
            stats: ShardingStats::default(),
        }
    }

    /// Simulated devices heads are placed onto.
    pub fn devices(&self) -> usize {
        self.topology.devices()
    }

    /// Places one decode round of layer `l`: shard `s` serves KV head
    /// `kv[s]` of batch entry `seq[s]` at modeled cost `cost[s]`, and a
    /// sequence's shards are contiguous (the executor builds them entry by
    /// entry). Fills `device` with each shard's device, adds each shard's
    /// gather charge to its `cost`, and returns the round's total charge.
    ///
    /// A shard runs on its head's device under the layer's head → device
    /// vector, which the layer's first round computes from its per-head
    /// costs (exactly what the worker-level LPT balances); every round adds
    /// them to the rebalancer's load history.
    ///
    /// A sequence's home device is where the plurality of its shard cost
    /// lives (ties to the lower device id): its other shards' outputs must
    /// cross the mesh before the serial output projection, and each such
    /// gather costs the topology's modeled interconnect tokens — onto the
    /// shard (the gather delays it) and into the returned charge. On one
    /// device every shard is at home.
    pub(crate) fn place(
        &mut self,
        l: usize,
        seq: &[usize],
        kv: &[usize],
        cost: &mut [u64],
        device: &mut Vec<usize>,
    ) -> u64 {
        let devices = self.topology.devices();
        let load = &mut self.load[l];
        let heads = self.layers[l].get_or_insert_with(|| {
            let mut head_costs = vec![0; load.len()];
            for (&h, &c) in kv.iter().zip(cost.iter()) {
                head_costs[h] += c;
            }
            assign(&head_costs, devices, self.policy)
        });
        for (&h, &c) in kv.iter().zip(cost.iter()) {
            load[h] += c;
        }
        device.clear();
        device.extend(kv.iter().map(|&h| heads[h]));
        let gather = self.topology.gather_cost_tokens();
        debug_assert!(seq.is_sorted(), "a sequence's shards are contiguous");
        let mut gather_tokens = 0;
        let mut start = 0;
        for shards in seq.chunk_by(|a, b| a == b) {
            let own = start..start + shards.len();
            start = own.end;
            let load_on = |dev: usize| -> u64 {
                own.clone()
                    .filter(|&s| device[s] == dev)
                    .map(|s| cost[s])
                    .sum()
            };
            let home = (0..devices)
                .max_by_key(|&dev| (load_on(dev), std::cmp::Reverse(dev)))
                .expect("devices > 0");
            for s in own {
                if device[s] != home {
                    cost[s] += gather;
                    gather_tokens += gather;
                }
            }
        }
        gather_tokens
    }

    /// Overrides layer `l`'s head → device vector (tests use this to stage
    /// a deliberately bad placement the rebalancer must recover from).
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not give every KV head of the layer a device
    /// of the plan's topology.
    pub fn force_assignment(&mut self, l: usize, heads: Vec<usize>) {
        assert_eq!(heads.len(), self.load[l].len(), "one device per KV head");
        assert!(
            heads.iter().all(|&d| d < self.topology.devices()),
            "placement must match the plan's topology"
        );
        self.layers[l] = Some(heads);
    }

    /// Accumulated per-device load since the last rebalance, summed over
    /// layers with a placement.
    pub fn device_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.topology.devices()];
        for (heads, load) in self.layers.iter().zip(&self.load) {
            for (&d, &c) in heads.iter().flatten().zip(load) {
                loads[d] += c;
            }
        }
        loads
    }

    /// Max-over-mean of [`ShardingPlan::device_loads`]; 1.0 with no load.
    pub fn measured_imbalance(&self) -> f64 {
        let loads = self.device_loads();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *loads.iter().max().expect("devices > 0");
        max as f64 * loads.len() as f64 / total as f64
    }

    /// Advances the plan's step clock and, every `rebalance_interval` steps,
    /// rebalances if the measured device imbalance exceeds the threshold:
    /// every layer's placement is recomputed from the accumulated cost
    /// signal, and each head whose device changed is charged `head_tokens(l,
    /// h)` KV token-units across the interconnect.
    ///
    /// Returns the outcome when a pass moved at least one head, so the
    /// caller can charge `cost_tokens` into its work clock and trace the
    /// migration; `None` otherwise. Single-device plans never rebalance.
    pub fn maybe_rebalance(
        &mut self,
        head_tokens: impl Fn(usize, usize) -> u64,
    ) -> Option<RebalanceOutcome> {
        self.steps += 1;
        if self.topology.devices() <= 1
            || self.rebalance_interval == 0
            || !self.steps.is_multiple_of(self.rebalance_interval)
        {
            return None;
        }
        let imbalance = self.measured_imbalance();
        if imbalance <= self.rebalance_threshold {
            self.reset_load();
            return None;
        }
        let mut heads_migrated = 0u64;
        let mut token_units = 0u64;
        for (l, heads) in self.layers.iter_mut().enumerate() {
            let Some(old) = heads else {
                continue;
            };
            let new = assign(&self.load[l], self.topology.devices(), self.policy);
            for (h, (&a, &b)) in new.iter().zip(old.iter()).enumerate() {
                if a != b {
                    heads_migrated += 1;
                    token_units += head_tokens(l, h);
                }
            }
            *old = new;
        }
        self.reset_load();
        if heads_migrated == 0 {
            return None;
        }
        let cost_tokens = self.topology.migration_cost_tokens(token_units.max(1));
        self.stats.rebalances += 1;
        self.stats.heads_migrated += heads_migrated;
        self.stats.migration_token_units += token_units;
        self.stats.migration_cost_tokens += cost_tokens;
        Some(RebalanceOutcome {
            heads_migrated,
            token_units,
            cost_tokens,
            imbalance,
        })
    }

    fn reset_load(&mut self) {
        for layer in &mut self.load {
            layer.iter_mut().for_each(|c| *c = 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact head → device vector placement returns, one line per cost
    /// vector × policy × device count (`costs policy devices: device of
    /// each head`). Pins LPT's tie-breaking — equal costs in head order,
    /// each to the least-loaded device, ties to the lower id — and the
    /// weighting of zero-cost heads as 1, which no end-to-end row pins
    /// exactly.
    #[test]
    fn placement_vectors_are_pinned() {
        let costs: [Vec<u64>; 5] = [
            vec![100, 1, 100, 1, 100, 1, 100, 1],
            vec![0; 8],
            vec![5, 0, 9],
            vec![7, 3],
            (0..32).map(|i| (i * 37) % 11).collect(),
        ];
        let mut table = String::new();
        for (c, costs) in costs.iter().enumerate() {
            for policy in [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin] {
                for devices in [1, 2, 3, 4, 8] {
                    let heads = assign(costs, devices, policy);
                    let digits: String = heads.iter().map(|d| d.to_string()).collect();
                    table += &format!("{c} {policy:?} {devices}: {digits}\n");
                }
            }
        }
        assert_eq!(table, PINNED_PLACEMENTS, "placement moved; now:\n{table}");
    }

    const PINNED_PLACEMENTS: &str = "\
0 SparsityAware 1: 00000000
0 SparsityAware 2: 00110011
0 SparsityAware 3: 01122102
0 SparsityAware 4: 00112233
0 SparsityAware 8: 04152637
0 RoundRobin 1: 00000000
0 RoundRobin 2: 01010101
0 RoundRobin 3: 01201201
0 RoundRobin 4: 01230123
0 RoundRobin 8: 01234567
1 SparsityAware 1: 00000000
1 SparsityAware 2: 01010101
1 SparsityAware 3: 01201201
1 SparsityAware 4: 01230123
1 SparsityAware 8: 01234567
1 RoundRobin 1: 00000000
1 RoundRobin 2: 01010101
1 RoundRobin 3: 01201201
1 RoundRobin 4: 01230123
1 RoundRobin 8: 01234567
2 SparsityAware 1: 000
2 SparsityAware 2: 110
2 SparsityAware 3: 120
2 SparsityAware 4: 120
2 SparsityAware 8: 120
2 RoundRobin 1: 000
2 RoundRobin 2: 010
2 RoundRobin 3: 012
2 RoundRobin 4: 012
2 RoundRobin 8: 012
3 SparsityAware 1: 00
3 SparsityAware 2: 01
3 SparsityAware 3: 01
3 SparsityAware 4: 01
3 SparsityAware 8: 01
3 RoundRobin 1: 00
3 RoundRobin 2: 01
3 RoundRobin 3: 01
3 RoundRobin 4: 01
3 RoundRobin 8: 01
4 SparsityAware 1: 00000000000000000000000000000000
4 SparsityAware 2: 10101111000100001111101110100000
4 SparsityAware 3: 00001012020101211121210121222020
4 SparsityAware 4: 10123330002112213301133210300222
4 SparsityAware 8: 02621364077347424651035560157023
4 RoundRobin 1: 00000000000000000000000000000000
4 RoundRobin 2: 01010101010101010101010101010101
4 RoundRobin 3: 01201201201201201201201201201201
4 RoundRobin 4: 01230123012301230123012301230123
4 RoundRobin 8: 01234567012345670123456701234567
";

    /// Feeds layer `l` one round of one sequence with a shard per KV head at
    /// `costs`; returns each head's device.
    fn round(plan: &mut ShardingPlan, l: usize, costs: &[u64]) -> Vec<usize> {
        let kv: Vec<usize> = (0..costs.len()).collect();
        let mut device = Vec::new();
        plan.place(l, &vec![0; kv.len()], &kv, &mut costs.to_vec(), &mut device);
        device
    }

    /// Max-over-mean device load of a head → device vector under `costs`.
    fn imbalance(heads: &[usize], costs: &[u64], devices: usize) -> f64 {
        let mut loads = vec![0u64; devices];
        for (&d, &c) in heads.iter().zip(costs) {
            loads[d] += c;
        }
        let max = *loads.iter().max().expect("devices > 0");
        max as f64 * devices as f64 / loads.iter().sum::<u64>() as f64
    }

    #[test]
    fn single_device_topology_charges_nothing() {
        // One device never gathers or migrates, whatever price is stored.
        let one = Topology::symmetric(1, 4);
        assert_eq!(one.devices(), 1);
        assert_eq!(one.gather_cost_tokens(), 0);
        assert_eq!(one.migration_cost_tokens(1000), 0);
    }

    #[test]
    fn mesh_charges_gathers_and_migrations() {
        let mesh = Topology::symmetric(4, 4);
        assert_eq!(mesh.gather_cost_tokens(), 4);
        assert_eq!(mesh.migration_cost_tokens(0), 0);
        assert_eq!(mesh.migration_cost_tokens(1), 1, "migration is never free");
        assert_eq!(mesh.migration_cost_tokens(64), 64 / INTERCONNECT_SPEEDUP);
        // Two sequences of two heads, one head per device. Sequence 0's home
        // is device 1 (9 against 5), sequence 1 ties and goes home to device
        // 0: each has one shard to gather.
        let (seq, kv) = ([0, 0, 1, 1], [0, 1, 0, 1]);
        for (devices, charged, gathered) in [(1, 0, [5, 9, 7, 7]), (2, 8, [9, 9, 7, 11])] {
            let topology = Topology::symmetric(devices, 4);
            let mut plan = ShardingPlan::new(topology, PlacementPolicy::RoundRobin, 1, 2);
            let (mut cost, mut device) = (vec![5, 9, 7, 7], Vec::new());
            assert_eq!(plan.place(0, &seq, &kv, &mut cost, &mut device), charged);
            assert_eq!(device, [0, 1, 0, 1].map(|d| d % devices));
            assert_eq!(cost, gathered);
        }
    }

    #[test]
    fn sparsity_aware_beats_round_robin_on_skewed_heads() {
        // Head costs alternating heavy/light the way streaming/dense gating
        // produces them: round-robin puts all heavy heads on device 0.
        let costs = [100, 1, 100, 1, 100, 1, 100, 1];
        let sparse = assign(&costs, 2, PlacementPolicy::SparsityAware);
        let naive = assign(&costs, 2, PlacementPolicy::RoundRobin);
        let (sparse, naive) = (imbalance(&sparse, &costs, 2), imbalance(&naive, &costs, 2));
        assert!(sparse < naive);
        assert!(sparse < 1.1);
        assert!(naive > 1.9);
    }

    #[test]
    fn placement_single_device_puts_everything_on_device_zero() {
        for policy in [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin] {
            let heads = assign(&[5, 0, 9], 1, policy);
            assert_eq!(heads, [0, 0, 0]);
            assert_eq!(imbalance(&heads, &[5, 0, 9], 1), 1.0);
        }
    }

    #[test]
    fn placement_more_devices_than_heads_covers_every_head_once() {
        let costs = [7u64, 3];
        for policy in [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin] {
            let heads = assign(&costs, 8, policy);
            assert_eq!(heads.len(), 2);
            assert!(heads.iter().all(|&d| d < 8));
            // Both heads land on distinct devices; the other six stay empty.
            assert_ne!(heads[0], heads[1]);
        }
    }

    #[test]
    fn placement_all_zero_costs_still_spreads() {
        // Zero-cost heads are weighted as 1, so LPT spreads them instead of
        // piling every head on the first least-loaded scan hit (device 0).
        let mut per_device = vec![0usize; 4];
        for d in assign(&[0; 8], 4, PlacementPolicy::SparsityAware) {
            per_device[d] += 1;
        }
        assert_eq!(per_device, vec![2, 2, 2, 2]);
    }

    #[test]
    fn placement_is_deterministic() {
        let costs: Vec<u64> = (0..32).map(|i| (i * 37) % 11).collect();
        for policy in [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin] {
            assert_eq!(assign(&costs, 4, policy), assign(&costs, 4, policy));
        }
    }

    #[test]
    fn single_device_plan_never_rebalances() {
        let mut plan = ShardingPlan::new(
            Topology::symmetric(1, 0),
            PlacementPolicy::SparsityAware,
            2,
            4,
        );
        plan.rebalance_interval = 1;
        for _ in 0..8 {
            round(&mut plan, 0, &[100, 1, 1, 1]);
            assert!(plan.maybe_rebalance(|_, _| 100).is_none());
        }
        assert_eq!(plan.stats, ShardingStats::default());
    }

    #[test]
    fn placement_is_lazy_and_sticky() {
        let mut plan = ShardingPlan::new(
            Topology::symmetric(2, 4),
            PlacementPolicy::SparsityAware,
            1,
            4,
        );
        let first = round(&mut plan, 0, &[9, 9, 1, 1]);
        // A later round with a different signal does not move heads.
        let second = round(&mut plan, 0, &[1, 1, 9, 9]);
        assert_eq!(first, second);
    }

    /// Two layers of 8 KV heads on 2 devices, placed round-robin while every
    /// even head is the heavy one: device 0 holds all the load (imbalance
    /// 2.0). The rebalancer must notice within one interval, charge the moved
    /// heads' KV, and the same signal fed against the repaired placement must
    /// measure at most half the staged imbalance. When this test was
    /// written: 2.00 -> 1.00, 8 heads moved for 64 interconnect tokens.
    #[test]
    fn rebalancer_recovers_from_a_stale_placement_and_charges_migration() {
        let (layers, heads) = (2, 8);
        let mut plan = ShardingPlan::new(
            Topology::symmetric(2, DEFAULT_GATHER_COST_TOKENS),
            PlacementPolicy::SparsityAware,
            layers,
            heads,
        );
        plan.rebalance_interval = 8;
        let staged = assign(&vec![0; heads], 2, PlacementPolicy::RoundRobin);
        assert_eq!(staged, [0, 1, 0, 1, 0, 1, 0, 1]);
        for l in 0..layers {
            plan.force_assignment(l, staged.clone());
        }
        let signal: Vec<u64> = (0..heads)
            .map(|h| if h % 2 == 0 { 100 } else { 0 })
            .collect();
        let step = |plan: &mut ShardingPlan| {
            for l in 0..layers {
                round(plan, l, &signal);
            }
            plan.maybe_rebalance(|_, _| 64)
        };
        let o = (0..plan.rebalance_interval)
            .filter_map(|_| step(&mut plan))
            .last()
            .expect("imbalance above threshold must trigger");
        assert!(
            o.imbalance >= 2.0,
            "staged imbalance 2.0, got {}",
            o.imbalance
        );
        assert!(o.heads_migrated >= 1);
        assert_eq!(o.token_units, 64 * o.heads_migrated);
        assert!(o.cost_tokens >= 1, "migration is never free");
        assert_eq!(plan.stats.rebalances, 1);
        // The same signal against the repaired placement, up to the step
        // before the next check.
        for _ in 1..plan.rebalance_interval {
            step(&mut plan);
        }
        let recovered = plan.measured_imbalance();
        println!(
            "staged {:.2} -> recovered {recovered:.2}; {} heads moved for {} tokens",
            o.imbalance, o.heads_migrated, o.cost_tokens
        );
        assert!(
            recovered * 2.0 <= o.imbalance,
            "rebalancer must at least halve {:.2}, measured {recovered:.2}",
            o.imbalance
        );
    }

    #[test]
    fn balanced_load_does_not_trigger() {
        let mut plan = ShardingPlan::new(
            Topology::symmetric(2, 4),
            PlacementPolicy::SparsityAware,
            1,
            4,
        );
        plan.rebalance_interval = 2;
        for _ in 0..8 {
            round(&mut plan, 0, &[5, 5, 5, 5]);
            assert!(plan.maybe_rebalance(|_, _| 10).is_none());
        }
        assert_eq!(plan.stats.rebalances, 0);
    }
}
