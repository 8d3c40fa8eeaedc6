//! A quantized page's codes, params and key bounds are its storage on every
//! tier; these tests pin that what the kernel reads of a page after a trip
//! through the tiers is what it read before, bit for bit.
//!
//! Over {INT4, INT8} × {Sync, Async} × {host, host then nvme} × last-page
//! fills {1, 15, 16, 17, 63, 64} × head dimension {5, 32}, a two-page table
//! (one full page, then the fill) is demoted, spilled on the nvme route, and
//! brought back with `ensure_hot`:
//!
//! * every page's dequantized lane groups equal those before the trip, and
//!   key lanes past `len()` read 0;
//! * no page holds f32 rows below the hot tier or back on it;
//! * forking a shared page below the hot tier gives what a fork of it made
//!   while hot gives;
//! * an append into the last page after its trip down (through `page_mut`,
//!   which forces an in-flight spill first), then promotion, leaves what the
//!   same append made while hot leaves.

use lserve_kvcache::{
    key_lane_offset, DenseHeadCache, MigrationMode, PageData, PageId, PagePool, PagingConfig,
    Residency, TierConfig, KEY_LANES,
};
use lserve_quant::KvPrecision;

const PAGE: usize = 64;
const FILLS: [usize; 6] = [1, 15, 16, 17, 63, 64];
const DIMS: [usize; 2] = [5, 32];
const HOST: TierConfig = TierConfig {
    host_pages: 0,
    nvme: false,
};
const OVER_NVME: TierConfig = TierConfig {
    host_pages: 4,
    nvme: true,
};

/// Token `t`'s row: spread values, a constant row now and then (its scale
/// falls back to 1), and a wide one.
fn row(t: usize, d: usize, salt: usize) -> Vec<f32> {
    (0..d)
        .map(|i| match t % 7 {
            3 => 0.75,
            5 => ((t + i * 13 + salt) % 9) as f32 * 40.0 - 170.0,
            _ => ((t * 31 + i * 17 + salt * 5) % 23) as f32 * 0.37 - 3.1,
        })
        .collect()
}

/// What the kernel reads of a page, as bits: every lane group dequantized
/// whole, the keys d-major in lane groups and the value rows.
fn rows(pool: &PagePool, id: PageId) -> (Vec<u32>, Vec<u32>) {
    let page = pool.page(id);
    let PageData::Codes(codes) = page.data() else {
        panic!("a quantized page reads as codes");
    };
    let d = page.head_dim();
    let (mut keys, mut values) = (Vec::new(), Vec::new());
    for lanes in codes.lane_groups() {
        let (mut k, mut v) = (vec![0.0; d * KEY_LANES], vec![0.0; d * KEY_LANES]);
        if codes.is_int4() {
            lanes.dequantize_into::<true>(&mut k, &mut v);
        } else {
            lanes.dequantize_into::<false>(&mut k, &mut v);
        }
        keys.extend(k.iter().map(|x| x.to_bits()));
        values.extend(v.iter().map(|x| x.to_bits()));
    }
    (keys, values)
}

/// Everything a page holds that a reader can see, rows included.
fn contents(pool: &PagePool, id: PageId) -> (usize, (Vec<u32>, Vec<u32>), Vec<String>) {
    let page = pool.page(id);
    let stats = (0..page.occupied_logical_pages())
        .map(|l| format!("{:?}", page.logical_stats(l)))
        .collect();
    (page.len(), rows(pool, id), stats)
}

fn assert_lanes_past_len_are_zero(pool: &PagePool, id: PageId, case: &str) {
    let page = pool.page(id);
    let d = page.head_dim();
    let (lanes, _) = rows(pool, id);
    for t in page.len()..lanes.len() / d {
        for i in 0..d {
            let lane = lanes[key_lane_offset(d, t, i)];
            assert_eq!(lane, 0, "{case}: slot {t} dimension {i}");
        }
    }
}

struct Case {
    precision: KvPrecision,
    mode: MigrationMode,
    tiers: TierConfig,
    fill: usize,
    d: usize,
}

impl Case {
    fn all() -> impl Iterator<Item = Case> {
        let mut cases = Vec::new();
        for precision in [KvPrecision::Int4, KvPrecision::Int8] {
            for mode in [MigrationMode::Sync, MigrationMode::Async] {
                for tiers in [HOST, OVER_NVME] {
                    for fill in FILLS {
                        for d in DIMS {
                            cases.push(Case {
                                precision,
                                mode,
                                tiers,
                                fill,
                                d,
                            });
                        }
                    }
                }
            }
        }
        cases.into_iter()
    }

    fn name(&self) -> String {
        let route = if self.tiers.nvme {
            "host then nvme"
        } else {
            "host"
        };
        format!(
            "{:?} {:?} {route} fill {} d {}",
            self.precision, self.mode, self.fill, self.d
        )
    }

    /// A pool holding one full page and then a page of `fill` tokens, hot.
    fn filled(&self) -> (PagePool, Vec<PageId>) {
        let paging = PagingConfig::new(PAGE, 16, self.precision);
        let mut pool = PagePool::new_with_tiers(paging, 4, self.d, self.mode, self.tiers);
        let mut cache = DenseHeadCache::new();
        for t in 0..PAGE + self.fill {
            assert!(cache.append(&mut pool, &row(t, self.d, 0), &row(t, self.d, 1)));
        }
        (pool, cache.page_table().to_vec())
    }

    /// Takes every page of `ids` below the hot tier — the host, then on the
    /// nvme route the nvme tier — and lands it there; `stop_spill` leaves the
    /// last page's spill in flight under Async.
    fn take_down(&self, pool: &mut PagePool, ids: &[PageId], stop_spill: bool) {
        for &id in ids {
            pool.demote(id).expect("a sole-owned hot page demotes");
        }
        pool.advance_transfer_units(u64::MAX / 2);
        if self.tiers.nvme {
            for &id in ids {
                pool.spill(id).expect("a host page spills");
            }
            if !stop_spill {
                pool.advance_transfer_units(u64::MAX / 2);
            }
        }
        for &id in ids {
            let landed = !(stop_spill && self.tiers.nvme && self.mode == MigrationMode::Async);
            if landed {
                let below = if self.tiers.nvme {
                    Residency::Nvme
                } else {
                    Residency::Cold
                };
                assert_eq!(pool.residency(id), below, "{}", self.name());
            }
            let rows = pool.page(id).f32_rows_len();
            assert_eq!(rows, 0, "{}: f32 rows below hot", self.name());
        }
    }
}

#[test]
fn rows_rebuilt_on_promotion_are_the_rows_before_demotion() {
    for case in Case::all() {
        let name = case.name();
        let (mut pool, ids) = case.filled();
        let before: Vec<_> = ids.iter().map(|&id| rows(&pool, id)).collect();
        for &id in &ids {
            assert_lanes_past_len_are_zero(&pool, id, &name);
        }
        case.take_down(&mut pool, &ids, false);
        pool.ensure_resident(ids.iter().copied())
            .expect("room to promote");
        for (&id, before) in ids.iter().zip(&before) {
            let f32_rows = pool.page(id).f32_rows_len();
            assert_eq!(f32_rows, 0, "{name}: f32 rows back on the hot tier");
            assert!(rows(&pool, id) == *before, "{name}: page {id:?} rows moved");
            assert_lanes_past_len_are_zero(&pool, id, &name);
        }
    }
}

#[test]
fn a_fork_of_a_shared_page_below_hot_has_the_rows_of_a_fork_made_hot() {
    for case in Case::all() {
        let name = case.name();
        let (mut hot, ids) = case.filled();
        let (mut cold, _) = case.filled();
        case.take_down(&mut cold, &ids, false);
        for &id in &ids {
            hot.retain(id);
            cold.retain(id);
            let from_hot = hot.fork(id).expect("room to fork");
            let from_cold = cold.fork(id).expect("room to fork");
            assert!(cold.is_hot(from_cold), "{name}: a fork is installed hot");
            assert!(
                rows(&cold, from_cold) == rows(&hot, from_hot),
                "{name}: fork of {id:?}"
            );
            assert!(!cold.is_hot(id), "{name}: the source stays below");
            assert_lanes_past_len_are_zero(&cold, from_cold, &name);
            hot.free(from_hot);
            cold.free(from_cold);
        }
    }
}

#[test]
fn an_append_below_hot_then_promotion_is_the_append_made_hot() {
    for case in Case::all().filter(|c| c.fill < PAGE) {
        let name = case.name();
        let (mut hot, ids) = case.filled();
        let (mut cold, _) = case.filled();
        let last = *ids.last().expect("two pages");
        let (key, value) = (row(PAGE + case.fill, case.d, 2), row(7, case.d, 3));
        hot.page_mut(last).append(&key, &value);
        case.take_down(&mut cold, &ids, true);
        cold.page_mut(last).append(&key, &value);
        assert!(!cold.is_hot(last), "{name}: written below hot");
        cold.ensure_resident(ids.iter().copied())
            .expect("room to promote");
        for &id in &ids {
            assert!(
                contents(&cold, id) == contents(&hot, id),
                "{name}: page {id:?}"
            );
            assert_lanes_past_len_are_zero(&cold, id, &name);
        }
    }
}
