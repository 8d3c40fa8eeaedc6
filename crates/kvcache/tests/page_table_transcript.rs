//! A transcript of head page tables and the prefix cache under random
//! traffic, and an audit of page conservation after every call.
//!
//! Seeded sequences of appends, sequence forks (a clone of a sequence's heads
//! plus a reference on every page, as a prefix hit seeds a reader), donations
//! into a `PrefixCache<PageRunPrefix>`, held copies of cache hits and their
//! release, `demote_all` / `ensure_resident` of a sequence, its release,
//! copy-engine advances, and every cache operation (`insert`, `lookup`,
//! `touch`, `evict_lru`, `evict_lru_freeing`, `spill_lru`,
//! `evict_prefixes_of`, `clear`) run over windows {(0,1), (1,2), (2,3)} ×
//! pages {4 tokens FP16, 16 tokens INT4} × {Sync, Async} × 3 seeds. Every
//! sequence has two dense and two streaming heads.
//!
//! Every return value and, after every call, every head's token count,
//! needs-page answer and page table (with each page's first token and
//! length), a streaming head's resident tokens, the refcount of every page a
//! sequence or a held copy references, and the pool's and the cache's
//! counters are folded into one hash per configuration. [`TRANSCRIPT`] holds
//! those hashes as the head caches produced them while a streaming head still
//! kept its sink and local pages in two containers of its own (and, later,
//! while it was a type of its own around the dense table): a change that
//! only regroups the page-table code reproduces them, and one that moves a
//! row has allocated, forked or freed some page in another order — say
//! which, and why, in the commit that edits the row.
//!
//! The audit, after every call:
//!
//! * every page reference the driver can see (sequence tables, held copies)
//!   is at most the page's refcount, and the refcounts of every page ever
//!   seen sum to those references plus the cache's `page_refs()`: no
//!   reference is lost or invented;
//! * the pages with a reference are exactly `total_in_use()`;
//! * a dense table holds its tokens in full pages and one tail;
//! * a streaming table holds at most its window, its starts are page-aligned
//!   and increasing, its sink pages start at the head of the stream, and its
//!   last page ends at the head's token count;
//! * an append changed a head's last page iff the head said beforehand that
//!   it needed one.

use std::collections::{BTreeMap, BTreeSet};

use lserve_kvcache::{
    DenseHeadCache, MigrationMode, Moved, PageId, PagePool, PagingConfig, StreamingWindow,
    TierConfig,
};
use lserve_prefixcache::{PageRunPrefix, PrefixCache};
use lserve_quant::KvPrecision;

const CALLS: usize = 1500;
const SEEDS: [u64; 3] = [1, 2, 3];
const WINDOWS: [(usize, usize); 3] = [(0, 1), (1, 2), (2, 3)];
const HOT_PAGES: usize = 48;
const TIERS: TierConfig = TierConfig {
    host_pages: 16,
    nvme: true,
};
const HEAD_DIM: usize = 2;
/// Head kinds of every sequence, `true` = streaming.
const HEADS: [bool; 4] = [false, true, false, true];
const MAX_SEQS: usize = 4;
const MAX_HELD: usize = 4;

/// One hash per `(window, pages, mode, seed)`, in the order
/// [`configurations`] yields.
const TRANSCRIPT: [u64; 36] = [
    0x2c5974bf46bd912f, // window (0, 1), pages (4, Fp16), Sync, seed 1
    0xa3efb6177e125c4e, // window (0, 1), pages (4, Fp16), Sync, seed 2
    0x4d0e470d96236986, // window (0, 1), pages (4, Fp16), Sync, seed 3
    0x46efef3f4fc90ad2, // window (0, 1), pages (4, Fp16), Async, seed 1
    0x1cb9795ab02dbfbe, // window (0, 1), pages (4, Fp16), Async, seed 2
    0x3630a0afe7742a97, // window (0, 1), pages (4, Fp16), Async, seed 3
    0x6cb96dbeca795e5e, // window (0, 1), pages (16, Int4), Sync, seed 1
    0x2da25d49ed9f14cc, // window (0, 1), pages (16, Int4), Sync, seed 2
    0x35de3ce5b46ee543, // window (0, 1), pages (16, Int4), Sync, seed 3
    0xed90a87fbaae29ad, // window (0, 1), pages (16, Int4), Async, seed 1
    0x3c331eebd7c12851, // window (0, 1), pages (16, Int4), Async, seed 2
    0x9983c12301ac67dc, // window (0, 1), pages (16, Int4), Async, seed 3
    0xc29b141539f45ab2, // window (1, 2), pages (4, Fp16), Sync, seed 1
    0xf526222023ed6c36, // window (1, 2), pages (4, Fp16), Sync, seed 2
    0x257cf8876d0f48b3, // window (1, 2), pages (4, Fp16), Sync, seed 3
    0x538d426492228083, // window (1, 2), pages (4, Fp16), Async, seed 1
    0x1600e90c8ba53d5e, // window (1, 2), pages (4, Fp16), Async, seed 2
    0xc604383973069bca, // window (1, 2), pages (4, Fp16), Async, seed 3
    0x7b4fbcd3f8104e53, // window (1, 2), pages (16, Int4), Sync, seed 1
    0xd55a480030b829c4, // window (1, 2), pages (16, Int4), Sync, seed 2
    0xe7ecfaf2b82aeb65, // window (1, 2), pages (16, Int4), Sync, seed 3
    0xfeafcdc7c64d7fae, // window (1, 2), pages (16, Int4), Async, seed 1
    0x14e1f3ff5f677c12, // window (1, 2), pages (16, Int4), Async, seed 2
    0x8e22cf8a0c022927, // window (1, 2), pages (16, Int4), Async, seed 3
    0xe527e43ab2f34f22, // window (2, 3), pages (4, Fp16), Sync, seed 1
    0x5f0edd8ec919f6ad, // window (2, 3), pages (4, Fp16), Sync, seed 2
    0xa724655a7bbb8d91, // window (2, 3), pages (4, Fp16), Sync, seed 3
    0x57674740ecdec7be, // window (2, 3), pages (4, Fp16), Async, seed 1
    0x976871e8dcd2b8f4, // window (2, 3), pages (4, Fp16), Async, seed 2
    0x640cbe6d13456d00, // window (2, 3), pages (4, Fp16), Async, seed 3
    0xf5424346bc6e8346, // window (2, 3), pages (16, Int4), Sync, seed 1
    0xb2ce89ce11f3856a, // window (2, 3), pages (16, Int4), Sync, seed 2
    0x38559d480cd863b2, // window (2, 3), pages (16, Int4), Sync, seed 3
    0xa5642b334f1bea33, // window (2, 3), pages (16, Int4), Async, seed 1
    0x0cccdda4953d323e, // window (2, 3), pages (16, Int4), Async, seed 2
    0x186a36145e97802a, // window (2, 3), pages (16, Int4), Async, seed 3
];

fn pagings() -> [PagingConfig; 2] {
    [
        PagingConfig::new(4, 2, KvPrecision::Fp16),
        PagingConfig::new(16, 4, KvPrecision::Int4),
    ]
}

fn configurations() -> impl Iterator<Item = (StreamingWindow, PagingConfig, MigrationMode, u64)> {
    WINDOWS.into_iter().flat_map(|(sink, local)| {
        let window = StreamingWindow::new(sink, local);
        pagings().into_iter().flat_map(move |paging| {
            [MigrationMode::Sync, MigrationMode::Async]
                .into_iter()
                .flat_map(move |mode| {
                    SEEDS
                        .into_iter()
                        .map(move |seed| (window, paging, mode, seed))
                })
        })
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

    fn value(&mut self) -> f32 {
        (self.below(64) as f32 - 32.0) / 8.0
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

    fn id(&mut self, id: PageId) {
        self.word(id.index() as u64);
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

    fn moved(&mut self, m: Option<Moved>) {
        self.option(m.map(|m| m.pages));
        self.option(m.map(|m| m.units));
        self.option(m.map(|m| m.unhidden));
    }
}

/// One sequence: its heads and the tokens they absorbed (the cache key).
#[derive(Clone)]
struct Seq {
    heads: Vec<DenseHeadCache>,
    stream: Vec<u32>,
}

impl Seq {
    fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.heads.iter().flat_map(DenseHeadCache::page_ids)
    }

    fn release(&mut self, pool: &mut PagePool) {
        for head in &mut self.heads {
            head.release(pool);
        }
    }
}

struct Driver {
    pool: PagePool,
    cache: PrefixCache<PageRunPrefix>,
    window: StreamingWindow,
    seqs: Vec<Seq>,
    /// Page runs of cache hits the driver holds one reference on each.
    held: Vec<Vec<PageId>>,
    /// Every page id a sequence has referenced: the set the conservation
    /// audit sums refcounts over.
    seen: BTreeSet<PageId>,
    rng: Rng,
    hash: Hash,
}

impl Driver {
    fn new_seq(&self) -> Seq {
        let heads = HEADS
            .iter()
            .map(|&streaming| DenseHeadCache::with_window(streaming.then_some(self.window)))
            .collect();
        Seq {
            heads,
            stream: Vec::new(),
        }
    }

    fn pick_seq(&mut self) -> Option<usize> {
        (!self.seqs.is_empty()).then(|| self.rng.below(self.seqs.len()))
    }

    /// A lookup key: a sequence's stream cut at a random depth, or a short
    /// random one.
    fn key(&mut self) -> Vec<u32> {
        match self.pick_seq() {
            Some(s) if self.rng.below(4) > 0 => {
                let stream = &self.seqs[s].stream;
                let cut = stream.len() - self.rng.below(stream.len().min(3) + 1);
                let mut key = stream[..cut].to_vec();
                key.push(self.rng.below(3) as u32);
                key
            }
            _ => (0..1 + self.rng.below(6))
                .map(|_| self.rng.below(3) as u32)
                .collect(),
        }
    }

    fn release_seq(&mut self, s: usize) {
        let mut seq = self.seqs.swap_remove(s);
        seq.release(&mut self.pool);
    }

    /// Feeds `n` tokens to sequence `s`, after making it resident, one token
    /// to every head in head order, stopping at the first head the pool
    /// cannot take a row for. A sequence that runs out of pages is released,
    /// as a serving layer releases it to replay.
    fn append(&mut self, s: usize, n: usize) {
        let moved = self.pool.ensure_resident(self.seqs[s].page_ids());
        self.hash.moved(moved);
        if moved.is_none() {
            return;
        }
        for _ in 0..n {
            let token = self.rng.below(3) as u32;
            let key = [self.rng.value(), self.rng.value()];
            let value = [self.rng.value(), self.rng.value()];
            let seq = &mut self.seqs[s];
            let mut ok = true;
            for (h, head) in seq.heads.iter_mut().enumerate() {
                let needs = head.needs_page_for_next_append(&self.pool);
                let last = head.page_ids().last();
                ok = head.append(&mut self.pool, &key, &value);
                self.hash.word(u64::from(needs));
                self.hash.word(u64::from(ok));
                if !ok {
                    break;
                }
                let now = head.page_ids().last();
                assert_eq!(
                    needs,
                    now != last,
                    "head {h}: needs-page said {needs}, last page {last:?} -> {now:?}"
                );
            }
            if !ok {
                self.release_seq(s);
                return;
            }
            seq.stream.push(token);
        }
    }

    /// One random call; its return value goes into the hash.
    fn call(&mut self) {
        let op = self.rng.below(100);
        self.hash.word(op as u64);
        match op {
            0..=7 if self.seqs.len() < MAX_SEQS => {
                let seq = self.new_seq();
                self.seqs.push(seq);
            }
            0..=11 => {
                let Some(s) = self.pick_seq() else { return };
                if self.seqs.len() >= MAX_SEQS {
                    self.release_seq(s);
                    return;
                }
                let seq = self.seqs[s].clone();
                self.pool.retain_all(seq.page_ids());
                self.seqs.push(seq);
            }
            12..=44 => {
                let Some(s) = self.pick_seq() else { return };
                let n = 1 + self.rng.below(8);
                self.hash.word(n as u64);
                self.append(s, n);
            }
            45..=51 => {
                let Some(s) = self.pick_seq() else { return };
                let seq = &self.seqs[s];
                if seq.stream.is_empty() {
                    return;
                }
                let value = PageRunPrefix {
                    tokens: seq.stream.len(),
                    runs: seq.heads.iter().map(|h| h.page_ids().collect()).collect(),
                };
                let inserted = self.cache.insert(&mut self.pool, &seq.stream, value);
                self.hash.word(u64::from(inserted));
            }
            52..=56 => {
                let key = self.key();
                let max = key.len();
                let Some((depth, hit)) = self.cache.lookup(&key, 1, max) else {
                    self.hash.word(0);
                    return;
                };
                let run: Vec<PageId> = hit.runs.iter().flatten().copied().collect();
                self.hash.word(depth as u64);
                self.hash.word(hit.tokens as u64);
                if self.held.len() < MAX_HELD {
                    self.pool.retain_all(run.iter().copied());
                    self.held.push(run);
                }
            }
            57..=60 => {
                if self.held.is_empty() {
                    return;
                }
                let i = self.rng.below(self.held.len());
                for id in self.held.swap_remove(i) {
                    self.hash.id(id);
                    self.pool.free(id);
                }
            }
            61..=64 => {
                let key = self.key();
                let max = key.len();
                let depth = self.cache.touch(&key, 1, max);
                self.hash.option(depth.map(|d| d as u64));
            }
            65..=71 => {
                let Some(s) = self.pick_seq() else { return };
                let moved = self.pool.demote_all(self.seqs[s].page_ids());
                self.hash.moved(Some(moved));
            }
            72..=77 => {
                let Some(s) = self.pick_seq() else { return };
                let moved = self.pool.ensure_resident(self.seqs[s].page_ids());
                self.hash.moved(moved);
            }
            78..=83 => {
                let Some(s) = self.pick_seq() else { return };
                self.release_seq(s);
            }
            84..=86 => {
                let refs = self.cache.evict_lru(&mut self.pool);
                self.hash.option(refs.map(|r| r as u64));
            }
            87..=89 => {
                let refs = self.cache.evict_lru_freeing(&mut self.pool);
                self.hash.option(refs.map(|r| r as u64));
            }
            90..=92 => {
                let pages = self.cache.spill_lru(&mut self.pool);
                self.hash.option(pages);
            }
            93..=95 => {
                let Some(s) = self.pick_seq() else { return };
                let seq = &self.seqs[s];
                let owned: BTreeSet<PageId> = seq.page_ids().collect();
                let pins = |v: &PageRunPrefix, pool: &PagePool| {
                    v.runs.iter().flatten().any(|id| {
                        owned.contains(id) && pool.refcount(*id) == 2 && pool.holds_slot(*id)
                    })
                };
                let evicted = self
                    .cache
                    .evict_prefixes_of(&mut self.pool, &seq.stream, pins);
                self.hash.word(evicted as u64);
            }
            96 => self.cache.clear(&mut self.pool),
            _ => {
                let units = self.rng.below(40) as u64;
                self.hash.word(units);
                self.pool.advance_transfer_units(units);
            }
        }
    }

    /// Folds the tables, refcounts and counters into the hash and checks the
    /// audit.
    fn observe_and_audit(&mut self, context: &str) {
        let pool = &self.pool;
        let np = pool.config().physical_page_size();
        let mut shadow: BTreeMap<PageId, u32> = BTreeMap::new();
        for (s, seq) in self.seqs.iter().enumerate() {
            self.hash.word(seq.stream.len() as u64);
            for (h, head) in seq.heads.iter().enumerate() {
                let at = format!("{context}: seq {s} head {h}");
                let tokens = head.tokens();
                assert_eq!(tokens, seq.stream.len(), "{at}: tokens");
                self.hash.word(tokens as u64);
                let needs = head.needs_page_for_next_append(pool);
                self.hash.word(u64::from(needs));
                let rows: Vec<(usize, PageId)> = head.page_starts(pool).collect();
                assert!(
                    rows.iter().map(|&(_, id)| id).eq(head.page_ids()),
                    "{at}: page_table and page_ids disagree"
                );
                for &(start, id) in &rows {
                    self.hash.word(start as u64);
                    self.hash.id(id);
                    self.hash.word(pool.page(id).len() as u64);
                    *shadow.entry(id).or_insert(0) += 1;
                }
                let held: usize = rows.iter().map(|&(_, id)| pool.page(id).len()).sum();
                match head.window() {
                    None => {
                        assert_eq!(held, tokens, "{at}: a dense table holds every token");
                        assert_eq!(rows.len(), tokens.div_ceil(np), "{at}: dense pages");
                    }
                    Some(w) => {
                        assert_eq!(head.resident_tokens(pool), held, "{at}: resident tokens");
                        self.hash.word(held as u64);
                        assert!(rows.len() <= w.max_pages(), "{at}: window overrun");
                        for (i, pair) in rows.windows(2).enumerate() {
                            assert!(pair[0].0 < pair[1].0, "{at}: starts at {i}");
                        }
                        for (i, &(start, _)) in rows.iter().enumerate() {
                            assert_eq!(start % np, 0, "{at}: start {start} unaligned");
                            if i < w.sink_pages() {
                                assert_eq!(start, i * np, "{at}: sink page {i}");
                            }
                        }
                        if let Some(&(start, id)) = rows.last() {
                            let end = start + pool.page(id).len();
                            assert_eq!(end, tokens, "{at}: the last page ends the stream");
                        }
                    }
                }
            }
        }
        for run in &self.held {
            for &id in run {
                *shadow.entry(id).or_insert(0) += 1;
            }
        }
        for (&id, &refs) in &shadow {
            let count = pool.refcount(id);
            assert!(count >= refs, "{context}: {id:?} has {count} < {refs} refs");
            self.hash.id(id);
            self.hash.word(u64::from(count));
        }
        self.seen.extend(shadow.keys().copied());
        let visible: u64 = shadow.values().map(|&r| u64::from(r)).sum();
        let counted: u64 = self
            .seen
            .iter()
            .map(|&id| u64::from(pool.refcount(id)))
            .sum();
        assert_eq!(
            counted,
            visible + self.cache.page_refs() as u64,
            "{context}: refcounts != sequence + held + cache references"
        );
        let live = self
            .seen
            .iter()
            .filter(|&&id| pool.refcount(id) > 0)
            .count();
        assert_eq!(live, pool.total_in_use(), "{context}: live pages");

        let stats = self.cache.stats();
        for w in [
            pool.in_use() as u64,
            pool.cold_in_use() as u64,
            pool.nvme_in_use() as u64,
            pool.free_pages() as u64,
            pool.fork_count(),
            self.cache.entries() as u64,
            self.cache.page_refs() as u64,
            stats.hits,
            stats.misses,
            stats.hit_tokens,
            stats.insertions,
            stats.evictions,
        ] {
            self.hash.word(w);
        }
    }
}

fn run(window: StreamingWindow, paging: PagingConfig, mode: MigrationMode, seed: u64) -> u64 {
    let mut d = Driver {
        pool: PagePool::new_with_tiers(paging, HOT_PAGES, HEAD_DIM, mode, TIERS),
        cache: PrefixCache::new(),
        window,
        seqs: Vec::new(),
        held: Vec::new(),
        seen: BTreeSet::new(),
        rng: Rng(seed),
        hash: Hash(0xCBF2_9CE4_8422_2325),
    };
    let name = format!("{window:?} {paging:?} {mode:?} seed {seed}");
    for call in 0..CALLS {
        d.call();
        d.observe_and_audit(&format!("{name} call {call}"));
    }
    // Drain: nothing in flight, then every owner lets go, cache last.
    let context = format!("{name} drained");
    d.pool.advance_transfer_units(u64::MAX / 2);
    while let Some(mut seq) = d.seqs.pop() {
        seq.release(&mut d.pool);
    }
    for id in d.held.drain(..).flatten() {
        d.pool.free(id);
    }
    d.observe_and_audit(&context);
    d.cache.clear(&mut d.pool);
    d.observe_and_audit(&context);
    assert_eq!(d.pool.total_in_use(), 0, "{context}: leaked pages");
    d.hash.0
}

#[test]
fn random_page_table_traffic_reproduces_the_transcript_and_audits_clean() {
    let got: Vec<u64> = configurations()
        .map(|(window, paging, mode, seed)| run(window, paging, mode, seed))
        .collect();
    if got == TRANSCRIPT {
        return;
    }
    let rows: Vec<String> = configurations()
        .zip(&got)
        .zip(&TRANSCRIPT)
        .map(|(((window, paging, mode, seed), got), want)| {
            let mark = if got == want { ' ' } else { '*' };
            let (w, p) = (
                (window.sink_pages(), window.local_pages()),
                (paging.physical_page_size(), paging.precision()),
            );
            format!("  {mark} {got:#018x}, // window {w:?}, pages {p:?}, {mode:?}, seed {seed}")
        })
        .collect();
    panic!(
        "page-table transcript moved (rows marked *):\n{}",
        rows.join("\n")
    );
}
