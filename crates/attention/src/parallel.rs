//! Sparsity-aware parallel execution of per-head attention shards.
//!
//! LServe's per-head sparsity makes attention work wildly non-uniform: a
//! streaming head touches a constant sink+local window while a dense head
//! touches its full (or selected) page set. Splitting a layer's attention at
//! *(sequence × KV-head)* granularity therefore produces shards whose costs
//! span orders of magnitude, and a naive round-robin over worker threads
//! leaves most of them idle behind the one that drew the long dense shards
//! (the observation S-HPLB makes for head-parallel sparse decoding).
//!
//! This module is the std-only worker pool the executor runs those shards on.
//! A phase is shards + their *estimated* costs (streaming ≈ resident window
//! tokens, dense ≈ selected/resident page tokens from the selector) + a
//! shard → device placement, and goes through one function:
//!
//! * [`lpt_assign`] — Longest-Processing-Time-first assignment of shards to
//!   workers, the classic `4/3`-approximate makespan heuristic.
//! * [`placed_queues`] — a phase's schedule: each device's shards LPT-assigned
//!   over that device's workers.
//! * [`run_placed`] — runs the phase. One worker in total is a plain in-order
//!   loop on the calling thread; otherwise scoped worker threads (no `'static`
//!   bounds, no channels, no external deps) drain their own queue and then
//!   *steal* unstarted shards from their device's other queues,
//!   smallest-first, so a mispredicted straggler cannot serialize the phase.
//!   A single device is a placement of one.
//! * [`DecodeShard`] / [`run_decode_shard`] — the unit of decode work: one KV
//!   head's query group against its head cache, written into a caller-provided
//!   disjoint output slice.
//!
//! Every shard writes only its own preallocated output slice and reads only
//! shared immutable state (pool pages, caches, queries), so the result is
//! bit-identical for every thread count, placement, and steal schedule; the
//! only synchronization is one uncontended claim per shard. Wall-clock
//! speedup needs physical cores, but the [`PlacedBalance`] cost counters give
//! a deterministic model of the achievable parallelism either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use lserve_kvcache::{HeadCache, PagePool};

use crate::decode::{decode_dense_group, decode_streaming_group, DecodeStats};

/// Measured and estimated balance of one parallel phase, per worker and per
/// simulated device. Workers are listed device-major: device 0's first.
///
/// Devices are a modeling construct — they all run on the same host threads —
/// so a placement moves modeled cost (which device a shard's cost lands on,
/// which worker lane it traces into), never arithmetic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlacedBalance {
    /// Simulated devices the phase was placed onto.
    pub devices: usize,
    /// Modeled shard cost landed on each device.
    pub device_cost: Vec<u64>,
    /// Shards executed.
    pub shards: u64,
    /// Shards executed by a worker other than their LPT assignee.
    pub stolen: u64,
    /// Measured per-worker busy time in nanoseconds.
    pub busy_ns: Vec<u64>,
    /// Estimated cost assigned to each worker by [`lpt_assign`].
    pub assigned_cost: Vec<u64>,
}

impl PlacedBalance {
    /// Worker threads actually used (per device, clamped to its shard count).
    pub fn workers(&self) -> usize {
        self.busy_ns.len()
    }

    /// Total measured busy time across workers.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Busiest worker's measured time — the phase's wall-clock lower bound.
    pub fn max_busy_ns(&self) -> u64 {
        self.busy_ns.iter().copied().max().unwrap_or(0)
    }

    /// Total estimated shard cost (the serial work the phase replaces).
    pub fn cost_total(&self) -> u64 {
        self.assigned_cost.iter().sum()
    }

    /// Largest per-worker estimated cost — the phase's modeled critical path.
    pub fn cost_critical(&self) -> u64 {
        self.assigned_cost.iter().copied().max().unwrap_or(0)
    }

    /// Busiest device's modeled cost — the phase's device-level critical path
    /// (devices run concurrently in the model).
    pub fn device_cost_critical(&self) -> u64 {
        self.device_cost.iter().copied().max().unwrap_or(0)
    }
}

/// Longest-Processing-Time-first assignment: shards sorted by descending cost
/// (ties broken by index, so the result is deterministic) are each given to
/// the currently least-loaded worker. Returns one index list per worker, each
/// in descending-cost order.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn lpt_assign(costs: &[u64], workers: usize) -> Vec<Vec<usize>> {
    assert!(workers > 0, "need at least one worker");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut load = vec![0u64; workers];
    for i in order {
        let w = (0..workers)
            .min_by_key(|&w| (load[w], w))
            .expect("workers > 0");
        load[w] += costs[i];
        queues[w].push(i);
    }
    queues
}

/// The schedule of a placed phase: `queues[d][w]` is the LPT queue of device
/// `d`'s worker `w`, shard indices in descending-cost order. A device sizes
/// its workers from its own shards alone — `threads_per_device`, clamped to
/// their count, none for an empty device. [`run_placed`] executes this
/// schedule; the executor's trace draws it.
pub fn placed_queues(
    threads_per_device: usize,
    devices: usize,
    device_of: &[usize],
    costs: &[u64],
) -> Vec<Vec<Vec<usize>>> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); devices];
    for (i, &d) in device_of.iter().enumerate() {
        groups[d].push(i);
    }
    let queues = |group: Vec<usize>| {
        if group.is_empty() {
            return Vec::new();
        }
        let local_costs: Vec<u64> = group.iter().map(|&i| costs[i]).collect();
        lpt_assign(&local_costs, threads_per_device.max(1).min(group.len()))
            .into_iter()
            .map(|queue| queue.into_iter().map(|local| group[local]).collect())
            .collect()
    };
    groups.into_iter().map(queues).collect()
}

/// Runs `tasks` against a placement: shard `i` executes on simulated device
/// `device_of[i]`, each device draining its own LPT-balanced queues
/// ([`placed_queues`]) with up to `threads_per_device` scoped workers.
///
/// Each task is executed exactly once, by exactly one worker. Workers drain
/// their own queue in descending-cost order, then scan their device's other
/// queues from the *back* (smallest assigned shards first) and steal anything
/// unstarted — within the device only, so the modeled per-device load is
/// exact. Claims go through one uncontended mutex per shard; the task bodies
/// themselves run lock-free on whatever disjoint state they own.
///
/// A phase with one worker in total — one thread per device and every shard
/// on the same device, or at most one shard — runs in task order on the
/// calling thread: the reference every other schedule must match bit for
/// bit.
///
/// # Panics
///
/// Panics if `devices` is zero, if `costs`/`device_of`/`tasks` lengths
/// disagree, if any `device_of` entry is out of range, or propagates a panic
/// from `run`.
pub fn run_placed<T: Send, F: Fn(&mut T) + Sync>(
    threads_per_device: usize,
    devices: usize,
    device_of: &[usize],
    costs: &[u64],
    tasks: &mut [T],
    run: F,
) -> PlacedBalance {
    assert!(devices > 0, "need at least one device");
    assert_eq!(costs.len(), tasks.len(), "one cost per shard");
    assert_eq!(device_of.len(), tasks.len(), "one device per shard");
    assert!(
        device_of.iter().all(|&d| d < devices),
        "shard placed on a device outside the topology"
    );
    let mut device_cost = vec![0u64; devices];
    for (&d, &c) in device_of.iter().zip(costs) {
        device_cost[d] += c;
    }
    let mut balance = PlacedBalance {
        devices,
        device_cost,
        shards: tasks.len() as u64,
        ..PlacedBalance::default()
    };
    let one_device = device_of.windows(2).all(|pair| pair[0] == pair[1]);
    if tasks.len() <= 1 || (threads_per_device <= 1 && one_device) {
        let t0 = Instant::now();
        for t in tasks.iter_mut() {
            run(t);
        }
        balance.busy_ns = vec![t0.elapsed().as_nanos() as u64];
        balance.assigned_cost = vec![costs.iter().sum()];
        return balance;
    }
    let queues = placed_queues(threads_per_device, devices, device_of, costs);
    // One claimable slot per shard: `take()` hands exclusive ownership of the
    // `&mut T` to whichever worker gets there first, so assignment and steal
    // races can never run a shard twice.
    let slots: Vec<Mutex<Option<&mut T>>> = tasks.iter_mut().map(|t| Mutex::new(Some(t))).collect();
    let claim = |i: usize| slots[i].lock().expect("shard slot poisoned").take();
    let stolen = AtomicU64::new(0);
    // One flat worker list (device-major), so a single scoped spawn covers
    // the whole mesh.
    balance.busy_ns = thread::scope(|s| {
        let workers = queues
            .iter()
            .flat_map(|device| (0..device.len()).map(move |w| (device, w)));
        let handles: Vec<_> = workers
            .map(|(device, w)| {
                let (claim, stolen, run) = (&claim, &stolen, &run);
                s.spawn(move || {
                    let t0 = Instant::now();
                    for task in device[w].iter().filter_map(|&i| claim(i)) {
                        run(task);
                    }
                    // Straggler fallback: steal unstarted shards, smallest
                    // (back of the LPT queue) first, from the nearest victim
                    // on this device — a cross-device steal would falsify
                    // the modeled per-device load.
                    for offset in 1..device.len() {
                        let victim = &device[(w + offset) % device.len()];
                        for task in victim.iter().rev().filter_map(|&i| claim(i)) {
                            stolen.fetch_add(1, Ordering::Relaxed);
                            run(task);
                        }
                    }
                    t0.elapsed().as_nanos() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("attention worker panicked"))
            .collect()
    });
    balance.stolen = stolen.into_inner();
    balance.assigned_cost = queues
        .iter()
        .flatten()
        .map(|queue| queue.iter().map(|&i| costs[i]).sum())
        .collect();
    balance
}

/// One *(sequence × KV-head)* unit of decode attention: the KV head's query
/// group against its cache, into a caller-owned disjoint output slice.
///
/// `queries` and `out` both hold `group_size * head_dim` values (the query
/// heads of one GQA group are contiguous, so the output region is too).
#[derive(Debug)]
pub struct DecodeShard<'a> {
    /// The KV head's cache (dense or streaming).
    pub head: &'a HeadCache,
    /// Query rows of every query head in this KV head's group, concatenated.
    pub queries: &'a [f32],
    /// Selected physical-page indices for a dense head (`None` = full history;
    /// ignored for streaming heads, whose page table *is* the selection).
    pub selection: Option<&'a [usize]>,
    /// Per-head feature dimension `D`.
    pub head_dim: usize,
    /// Logit scale `1/sqrt(D)`.
    pub scale: f32,
    /// Preallocated output slice, same length as `queries`.
    pub out: &'a mut [f32],
    /// Work counters of the group's pass over the head (the head is of one
    /// kind, so they are dense-head *or* streaming-head work).
    pub stats: DecodeStats,
}

/// Executes one decode shard: the group's query rows attend the KV head's
/// pages together (each page is looked up and loaded once for the group), and
/// the results land in the shard's output slice.
///
/// # Panics
///
/// Panics if `queries`/`out` lengths disagree or are not a multiple of
/// `head_dim`, or on the underlying kernels' shape checks.
pub fn run_decode_shard(pool: &PagePool, shard: &mut DecodeShard<'_>) {
    let (d, q, scale) = (shard.head_dim, shard.queries, shard.scale);
    shard.stats = match shard.head {
        HeadCache::Dense(c) => decode_dense_group(pool, c, d, q, scale, shard.selection, shard.out),
        HeadCache::Streaming(c) => decode_streaming_group(pool, c, d, q, scale, shard.out),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn lpt_balances_known_loads() {
        // Loads {7,6,5,4,3} over 2 workers: LPT yields a 14/11 split (within
        // its 4/3 bound of the optimal 13/12), far better than the 16/9 a
        // naive in-order halving would produce.
        let costs = [5, 3, 7, 6, 4];
        let queues = lpt_assign(&costs, 2);
        let loads: Vec<u64> = queues
            .iter()
            .map(|q| q.iter().map(|&i| costs[i]).sum())
            .collect();
        assert_eq!(loads.iter().sum::<u64>(), 25);
        assert_eq!(*loads.iter().max().unwrap(), 14);
    }

    #[test]
    fn lpt_is_deterministic_under_ties() {
        let costs = [4u64, 4, 4, 4];
        assert_eq!(lpt_assign(&costs, 2), lpt_assign(&costs, 2));
        assert_eq!(lpt_assign(&costs, 2), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn worker_count_clamps_to_shard_count() {
        let mut tasks = vec![0u8; 2];
        let placed = run_placed(16, 1, &[0, 0], &[1, 1], &mut tasks, |t| *t = 1);
        assert_eq!(placed.workers(), 2);
        assert_eq!(tasks, vec![1, 1]);
    }

    /// The serial reference: a phase with one worker in total runs on the
    /// caller, in task order — on one device, and on a mesh whose shards all
    /// landed on one of its devices.
    #[test]
    fn one_worker_in_total_runs_in_task_order_on_the_calling_thread() {
        let caller = thread::current().id();
        for (devices, device) in [(1, 0), (4, 2)] {
            let n = 9;
            let mut tasks: Vec<usize> = (0..n).collect();
            let costs: Vec<u64> = (0..n).map(|i| (i * 5 % 7 + 1) as u64).collect();
            let ran = Mutex::new(Vec::new());
            let placed = run_placed(1, devices, &vec![device; n], &costs, &mut tasks, |t| {
                assert_eq!(thread::current().id(), caller, "{devices} devices");
                ran.lock().unwrap().push(*t);
            });
            assert_eq!(ran.into_inner().unwrap(), (0..n).collect::<Vec<_>>());
            assert_eq!(placed.workers(), 1);
            assert_eq!(placed.assigned_cost, vec![costs.iter().sum::<u64>()]);
            assert_eq!(placed.device_cost[device], costs.iter().sum::<u64>());
        }
    }

    #[test]
    fn run_placed_executes_every_task_once_on_its_device() {
        let meshes = [(1, 1), (1, 2), (1, 3), (1, 8), (2, 1), (2, 3), (4, 2)];
        for (devices, threads) in meshes {
            let n = 37;
            let mut tasks: Vec<u32> = vec![0; n];
            let costs: Vec<u64> = (0..n).map(|i| (i % 7 + 1) as u64).collect();
            let device_of: Vec<usize> = (0..n).map(|i| (i * i) % devices).collect();
            let executions = AtomicUsize::new(0);
            let placed = run_placed(threads, devices, &device_of, &costs, &mut tasks, |t| {
                *t += 1;
                executions.fetch_add(1, Ordering::Relaxed);
            });
            assert!(tasks.iter().all(|&t| t == 1), "devices {devices}");
            assert_eq!(executions.into_inner(), n);
            assert_eq!(placed.devices, devices);
            assert_eq!(placed.shards, n as u64);
            assert!(placed.workers() <= threads * devices);
            assert_eq!(placed.assigned_cost.len(), placed.workers());
            assert_eq!(placed.cost_total(), costs.iter().sum::<u64>());
            assert!(placed.cost_critical() <= placed.cost_total());
            // Per-device load is exactly the sum of the shards placed there.
            for d in 0..devices {
                let want: u64 = (0..n)
                    .filter(|&i| device_of[i] == d)
                    .map(|i| costs[i])
                    .sum();
                assert_eq!(placed.device_cost[d], want);
            }
        }
    }

    #[test]
    fn run_placed_imbalance_reflects_skewed_placement() {
        // Everything on device 0 of 2: the busiest device carries it all.
        let mut tasks = vec![0u8; 6];
        let placed = run_placed(2, 2, &[0; 6], &[3; 6], &mut tasks, |t| *t = 1);
        assert_eq!(placed.device_cost, vec![18, 0]);
        assert_eq!(placed.device_cost_critical(), placed.cost_total());
        assert_eq!(
            placed.assigned_cost,
            vec![9, 9],
            "an empty device has no workers"
        );
        assert!(tasks.iter().all(|&t| t == 1));
    }

    #[test]
    fn empty_task_list_is_fine() {
        let mut tasks: Vec<u8> = Vec::new();
        let placed = run_placed(4, 1, &[], &[], &mut tasks, |_| {});
        assert_eq!(placed.shards, 0);
    }

    #[test]
    fn run_placed_empty_devices_and_empty_tasks_are_fine() {
        let mut tasks: Vec<u8> = Vec::new();
        let placed = run_placed(4, 3, &[], &[], &mut tasks, |_| {});
        assert_eq!(placed.shards, 0);
        assert_eq!(placed.device_cost, vec![0, 0, 0]);
        assert_eq!(placed.cost_total(), 0);
    }
}
