//! A transcript of the tier state machine under random operations, and an
//! audit of its invariants after every call.
//!
//! Seeded sequences of `allocate / retain / free / fork / demote / spill /
//! promote / ensure_hot / prefetch / page_mut / advance_transfer_units` run
//! over {Sync, Async} × {unbounded host, host 4 without nvme, host 4 over
//! nvme}. Every return value and, after every call, every live page's
//! residency and refcount plus the pool's counters and ledgers are folded
//! into one hash per configuration. [`TRANSCRIPT`] holds those hashes as the
//! pool produced them *before* its residency code was rewritten as one state
//! machine: a change that only regroups that code reproduces them, and a
//! change that moves one has changed what some call returns or books — say
//! which, and why, in the commit that edits the row. (The nine Sync rows are
//! still that pool's. The three Async-over-nvme rows were regenerated twice
//! before: by the fix that made the prefetch ledger below hold on the nvme
//! hop, and by the fix that made `page_mut` on a spilling page force the
//! spill, so that the host bound below holds without exception. Under Sync a
//! spill lands inside its issue, and without nvme nothing spills: no other row
//! could see either. Then all nine Async rows moved with the fix that made
//! `ensure_hot` from the host return everything it booked unhidden, as from
//! every other start: only the async copy engine has an outbound transfer to
//! force for a hot slot, or a queue to force its oldest entry out of, so under
//! Sync a promotion's unhidden units were already its own.)
//!
//! The same loop audits the pool through its public API only. The audit is
//! ROADMAP item 5a's invariant list in executable form, written so that a
//! `PagePool::audit()` can lift it:
//!
//! * live pages == `total_in_use()`, and shadow refcounts == `refcount`;
//! * the residency census per tier — an in-flight page counted on the upper
//!   tier of its hop, in both directions — == `in_use` / `cold_in_use` /
//!   `nvme_in_use`;
//! * `in_flight_transfers()` == pages whose residency is `Migrating*`;
//! * `host_used() <= host_pages` on a bounded host;
//! * `free_pages()` never exceeds the hot capacity;
//! * `prefetch_issued == prefetch_hits + prefetch_wasted +` pages still
//!   flagged: every speculative journey reaches one terminal outcome. The
//!   flags are shadowed from what the calls return — set by an accepted
//!   `prefetch`; settled as a hit by the first `ensure_hot`, or `promote`
//!   that does not find the page already inbound; as waste when the page
//!   moves down a tier or dies;
//! * after a final drain, Σ `TierStats` units == hidden + unhidden +
//!   cancelled: every issued unit reached exactly one bucket;
//! * no quantized page holds f32 rows on any tier — its codes are what the
//!   kernel reads — and an FP16 page's rows are its storage.
//!
//! Each configuration runs twice, over FP16 pages and over INT4 pages. No
//! call's outcome depends on the precision, so both runs must reproduce the
//! same row; only the rows audit tells them apart.

use std::collections::{BTreeMap, BTreeSet};

use lserve_kvcache::{
    MigrationDir, MigrationMode, PageId, PagePool, PagingConfig, Residency, TierConfig,
};
use lserve_quant::KvPrecision;

const CALLS: usize = 4000;
const SEEDS: [u64; 3] = [1, 2, 3];
const HOT_PAGES: usize = 8;
/// References the driver holds at most: keeps the unbounded host finite.
const MAX_REFS: usize = 24;

const UNBOUNDED: TierConfig = TierConfig {
    host_pages: 0,
    nvme: false,
};
const HOST_ONLY: TierConfig = TierConfig {
    host_pages: 4,
    nvme: false,
};
const OVER_NVME: TierConfig = TierConfig {
    host_pages: 4,
    nvme: true,
};

/// One hash per `(mode, tiers, seed)`, in the order [`configurations`] yields.
const TRANSCRIPT: [u64; 18] = [
    0xc236e9bd85ded196, // Sync, unbounded host, seed 1
    0xb2a3fb6e4df09196, // Sync, unbounded host, seed 2
    0x37992fb1b4e55c55, // Sync, unbounded host, seed 3
    0xe59a15958788adfe, // Sync, host 4, seed 1
    0x31264dabc7212b23, // Sync, host 4, seed 2
    0x8eb8c3fa95bcc2c4, // Sync, host 4, seed 3
    0xf2ce7430f7765e45, // Sync, host 4 over nvme, seed 1
    0x8b9d9486270661e4, // Sync, host 4 over nvme, seed 2
    0xe4edfc2ea9d282be, // Sync, host 4 over nvme, seed 3
    0xed999408cfd91951, // Async, unbounded host, seed 1 (ensure_hot fix)
    0x688191af10dbd643, // Async, unbounded host, seed 2 (ensure_hot fix)
    0xab5ba1f1233445de, // Async, unbounded host, seed 3 (ensure_hot fix)
    0xfafade2b8aa6209e, // Async, host 4, seed 1 (ensure_hot fix)
    0x15b910f2e8ddd8c9, // Async, host 4, seed 2 (ensure_hot fix)
    0x60a042ca5968f9ff, // Async, host 4, seed 3 (ensure_hot fix)
    0x4a23e5ebb04d8fd4, // Async, host 4 over nvme, seed 1 (prefetch ledger, page_mut, ensure_hot fixes)
    0x3dc112397cd394bb, // Async, host 4 over nvme, seed 2 (prefetch ledger, page_mut, ensure_hot fixes)
    0x99e22cfd79c9b4c1, // Async, host 4 over nvme, seed 3 (prefetch ledger, page_mut, ensure_hot fixes)
];

fn configurations() -> impl Iterator<Item = (MigrationMode, TierConfig, u64)> {
    [MigrationMode::Sync, MigrationMode::Async]
        .into_iter()
        .flat_map(|mode| {
            [UNBOUNDED, HOST_ONLY, OVER_NVME]
                .into_iter()
                .flat_map(move |tiers| SEEDS.into_iter().map(move |seed| (mode, tiers, seed)))
        })
}

/// splitmix64: seeded, dependency-free, the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words.
struct Hash(u64);

impl Hash {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn option(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.word(1);
                self.word(x);
            }
            None => self.word(0),
        }
    }
}

fn residency_code(r: Residency) -> u64 {
    match r {
        Residency::Hot => 0,
        Residency::Cold => 1,
        Residency::Migrating(MigrationDir::ToCold) => 2,
        Residency::Migrating(MigrationDir::ToHot) => 3,
        Residency::Nvme => 4,
        Residency::MigratingNvme(MigrationDir::ToCold) => 5,
        Residency::MigratingNvme(MigrationDir::ToHot) => 6,
    }
}

/// The references the driver holds, one entry per reference: the shadow the
/// pool's refcounts are audited against.
struct Driver {
    pool: PagePool,
    refs: Vec<PageId>,
    rng: Rng,
    hash: Hash,
    /// Pages whose prefetch no demand touch or departure has settled yet.
    flagged: BTreeSet<PageId>,
}

impl Driver {
    fn pick(&mut self) -> Option<(usize, PageId)> {
        if self.refs.is_empty() {
            return None;
        }
        let i = self.rng.below(self.refs.len());
        Some((i, self.refs[i]))
    }

    /// One random call; its return value goes into the hash.
    fn call(&mut self) {
        let op = self.rng.below(100);
        let op = if op < 14 && self.refs.len() >= MAX_REFS {
            25 // a full driver frees instead of allocating
        } else {
            op
        };
        self.hash.word(op as u64);
        if op < 14 {
            let got = self.pool.allocate();
            self.hash.option(got.map(|id| id.index() as u64));
            self.refs.extend(got);
            return;
        }
        if (92..100).contains(&op) {
            let units = self.rng.below(40) as u64;
            self.hash.word(units);
            self.pool.advance_transfer_units(units);
            return;
        }
        let Some((i, id)) = self.pick() else {
            return;
        };
        self.hash.word(id.index() as u64);
        let pool = &mut self.pool;
        match op {
            14..=19 if self.refs.len() < MAX_REFS => {
                pool.retain(id);
                self.refs.push(id);
            }
            14..=19 => {}
            20..=31 => {
                pool.free(id);
                self.refs.swap_remove(i);
            }
            32..=36 => {
                let got = pool.fork(id);
                self.hash.option(got.map(|new| new.index() as u64));
                if let Some(new) = got {
                    self.refs[i] = new;
                }
            }
            37..=52 => self.hash.option(pool.demote(id)),
            53..=58 => self.hash.option(pool.spill(id)),
            59..=68 => {
                let inbound = pool.residency(id) == Residency::Migrating(MigrationDir::ToHot);
                let got = pool.promote(id);
                self.hash.option(got);
                if got.is_some() && !inbound {
                    self.flagged.remove(&id);
                }
            }
            69..=78 => {
                let got = pool.ensure_hot(id);
                self.hash.option(got.map(|(issued, _)| issued));
                self.hash.option(got.map(|(_, unhidden)| unhidden));
                if got.is_some() {
                    self.flagged.remove(&id);
                }
            }
            79..=86 => {
                let accepted = pool.prefetch(id);
                self.hash.word(u64::from(accepted));
                if accepted {
                    self.flagged.insert(id);
                }
            }
            _ => self.hash.word(pool.page_mut(id).len() as u64),
        }
    }

    /// Folds the pool's observable state into the hash and checks the
    /// invariants that state must satisfy.
    fn observe_and_audit(&mut self, tiers: TierConfig, context: &str) {
        let pool = &self.pool;
        let quantized = pool.config().precision().is_quantized();
        let mut shadow: BTreeMap<PageId, u32> = BTreeMap::new();
        for &id in &self.refs {
            *shadow.entry(id).or_insert(0) += 1;
        }
        let mut census = [0usize; 3];
        let mut in_flight = 0;
        for (&id, &count) in &shadow {
            let residency = pool.residency(id);
            assert_eq!(pool.refcount(id), count, "{context}: refcount of {id:?}");
            let tier = match residency {
                Residency::Hot | Residency::Migrating(_) => 0,
                Residency::Cold | Residency::MigratingNvme(_) => 1,
                Residency::Nvme => 2,
            };
            census[tier] += 1;
            assert_eq!(
                pool.page(id).f32_rows_len() == 0,
                quantized,
                "{context}: f32 rows of {id:?}, {residency:?}"
            );
            in_flight += usize::from(matches!(
                residency,
                Residency::Migrating(_) | Residency::MigratingNvme(_)
            ));
            self.hash.word(id.index() as u64);
            self.hash.word(residency_code(residency));
            self.hash.word(u64::from(count));
        }
        assert_eq!(shadow.len(), pool.total_in_use(), "{context}: live pages");
        assert_eq!(
            census,
            [pool.in_use(), pool.cold_in_use(), pool.nvme_in_use()],
            "{context}: residency census per tier"
        );
        assert_eq!(
            in_flight,
            pool.in_flight_transfers(),
            "{context}: in flight"
        );
        if tiers.host_pages > 0 {
            assert!(
                pool.host_used() <= tiers.host_pages,
                "{context}: host holds {} of {}",
                pool.host_used(),
                tiers.host_pages
            );
        }
        assert!(pool.free_pages() <= HOT_PAGES, "{context}: free pages");
        self.flagged.retain(|id| {
            shadow.contains_key(id)
                && !matches!(
                    pool.residency(*id),
                    Residency::Nvme
                        | Residency::Migrating(MigrationDir::ToCold)
                        | Residency::MigratingNvme(MigrationDir::ToCold)
                )
        });
        let m = pool.migration_stats();
        assert_eq!(
            m.prefetch_issued,
            m.prefetch_hits + m.prefetch_wasted + self.flagged.len() as u64,
            "{context}: prefetch ledger {m:?}"
        );

        let (t, m) = (pool.tier_stats(), pool.migration_stats());
        for w in [
            pool.in_use(),
            pool.cold_in_use(),
            pool.nvme_in_use(),
            pool.free_pages(),
            pool.host_used(),
            pool.peak_in_use(),
        ] {
            self.hash.word(w as u64);
        }
        for w in [
            t.pages_demoted,
            t.pages_promoted,
            t.pages_spilled,
            t.pages_recalled,
            t.demoted_token_units,
            t.promoted_token_units,
            t.spilled_token_units,
            t.recalled_token_units,
            m.prefetch_issued,
            m.prefetch_hits,
            m.prefetch_wasted,
            m.hidden_token_units,
            m.unhidden_token_units,
            m.cancelled_token_units,
            m.forced_completions,
        ] {
            self.hash.word(w);
        }
    }
}

fn run(mode: MigrationMode, tiers: TierConfig, seed: u64, precision: KvPrecision) -> u64 {
    let paging = PagingConfig::new(4, 2, precision);
    let mut d = Driver {
        pool: PagePool::new_with_tiers(paging, HOT_PAGES, 2, mode, tiers),
        refs: Vec::new(),
        rng: Rng(seed),
        hash: Hash(0xCBF2_9CE4_8422_2325),
        flagged: BTreeSet::new(),
    };
    for call in 0..CALLS {
        d.call();
        d.observe_and_audit(
            tiers,
            &format!("{precision:?} {mode:?} {tiers:?} seed {seed} call {call}"),
        );
    }
    // Drain: nothing in flight, then nothing live.
    let context = format!("{precision:?} {mode:?} {tiers:?} seed {seed} drained");
    d.pool.advance_transfer_units(u64::MAX / 2);
    d.observe_and_audit(tiers, &context);
    assert_eq!(d.pool.in_flight_transfers(), 0, "{context}");
    let (t, m) = (d.pool.tier_stats(), d.pool.migration_stats());
    assert_eq!(
        t.migrated_token_units(),
        m.hidden_token_units + m.unhidden_token_units + m.cancelled_token_units,
        "{context}: every issued unit is hidden, unhidden or cancelled"
    );
    for id in std::mem::take(&mut d.refs) {
        d.pool.free(id);
    }
    d.observe_and_audit(tiers, &context);
    assert_eq!(d.pool.total_in_use(), 0, "{context}: leaked pages");
    d.hash.0
}

#[test]
fn random_tier_traffic_reproduces_the_transcript_and_audits_clean() {
    for precision in [KvPrecision::Fp16, KvPrecision::Int4] {
        let got: Vec<u64> = configurations()
            .map(|(mode, tiers, seed)| run(mode, tiers, seed, precision))
            .collect();
        if got == TRANSCRIPT {
            continue;
        }
        let rows: Vec<String> = configurations()
            .zip(&got)
            .zip(&TRANSCRIPT)
            .map(|(((mode, tiers, seed), got), want)| {
                let mark = if got == want { ' ' } else { '*' };
                format!("  {mark} {got:#018x}, // {mode:?} {tiers:?} seed {seed}")
            })
            .collect();
        panic!(
            "tier transcript over {precision:?} pages moved (rows marked *):\n{}",
            rows.join("\n")
        );
    }
}
