//! The executor's decode counters and resident spans, pinned: for one fixed
//! generation, every field of the sequence's `EngineStats` (which carries the
//! dense / streaming split of the decode pages and the pages a dense kernel
//! would have visited), `kv_head_resident_tokens` of every (layer, KV head)
//! and a hash of the generated tokens, over {`EngineConfig::lserve()` (INT4),
//! `lserve_fp16()`} × streaming windows {(0, 1), (1, 2)} × prefill {causal,
//! dynamic}, and over {`lserve`, `lserve_fp16`} × three per-request
//! schedules under the engine window (1, 2) with causal prefill.
//!
//! The prompt is past the selection budget and the generation long enough
//! that every streaming window evicts and every selector rescores, so the
//! rows see selected, whole-table and windowed reads. The dynamic rows put
//! the prompt past `dynamic_prefill_after`, so a dense head's prefill mask is
//! the query-aware one, whose sink is the engine window's: they pin that
//! coupling. [`LEDGER`]'s causal rows hold what the code produced while a
//! streaming head was a type of its own beside the dense table, its dynamic
//! rows what it produced while prefill still classified heads by kind: a
//! change that only regroups either reproduces every row. The scheduled rows
//! build the sequence under its schedule: a window override from position 0
//! (whose rows read what the engine window (0, 1) rows of their preset read),
//! a budget cut from inside the generation and a retention ratio from
//! position 0.

use std::sync::Arc;

use lserve::core::{EngineConfig, EngineStats, ModelExecutor, SparsityOverride, SparsitySchedule};
use lserve::kvcache::{PagingConfig, StreamingWindow};
use lserve::model::{ModelConfig, ModelWeights};

const PRESETS: [&str; 2] = ["lserve", "lserve_fp16"];
const WINDOWS: [(usize, usize); 2] = [(0, 1), (1, 2)];
/// The per-request schedules of the scheduled rows, by name; [`schedule`]
/// builds each.
const SCHEDULES: [&str; 3] = ["window (0, 1)", "budget 16 from 64", "retention 500‰"];
const PAGE: usize = 8;
const BUDGET: usize = 32;
const PROMPT: usize = 48;
const NEW_TOKENS: usize = 85;
/// `dynamic_prefill_after` of the dynamic rows: below [`PROMPT`].
const DYNAMIC_AFTER: usize = 16;

/// One row: the [`EngineStats`] fields in declaration order, the resident
/// tokens of every (layer, KV head) layer-major, and the FNV-1a hash of the
/// generated tokens.
type Row = ([u64; 15], [u64; 4], u64);

/// One row per `(preset, window, dynamic, schedule)`, in the order [`cells`]
/// yields.
#[rustfmt::skip]
const LEDGER: [Row; 14] = [
    ([84, 24, 168, 1360, 340, 8040, 11160, 1056, 44, 126, 85, 61, 38, 792, 792], [5, 133, 5, 133], 0x0d0092857821af1b), // lserve, window (0, 1)
    ([84, 60, 168, 1360, 1020, 8040, 16600, 1056, 44, 126, 85, 56, 33, 712, 712], [21, 133, 21, 133], 0xa2b513a529d30d26), // lserve, window (1, 2)
    ([84, 24, 168, 1360, 340, 8040, 11160, 1056, 44, 126, 85, 57, 35, 736, 736], [5, 133, 5, 133], 0xbf07d5b433682c33), // lserve_fp16, window (0, 1)
    ([84, 60, 168, 1360, 1020, 8040, 16600, 1056, 44, 126, 85, 53, 30, 664, 664], [21, 133, 21, 133], 0xc19752589153b140), // lserve_fp16, window (1, 2)
    ([44, 24, 168, 1360, 340, 8040, 11160, 1056, 44, 126, 85, 58, 35, 744, 744], [5, 133, 5, 133], 0x926196adbcbb30cf), // lserve, window (0, 1), dynamic prefill
    ([60, 60, 168, 1360, 1020, 8040, 16600, 1056, 44, 126, 85, 55, 32, 696, 696], [21, 133, 21, 133], 0xd09a0e353cd275c5), // lserve, window (1, 2), dynamic prefill
    ([44, 24, 168, 1360, 340, 8040, 11160, 1056, 44, 126, 85, 59, 36, 760, 760], [5, 133, 5, 133], 0x63008c72f9d0cfe0), // lserve_fp16, window (0, 1), dynamic prefill
    ([60, 60, 168, 1360, 1020, 8040, 16600, 1056, 44, 126, 85, 53, 30, 664, 664], [21, 133, 21, 133], 0xc19752589153b140), // lserve_fp16, window (1, 2), dynamic prefill
    ([84, 24, 168, 1360, 340, 8040, 11160, 1056, 44, 126, 85, 61, 38, 792, 792], [5, 133, 5, 133], 0x0d0092857821af1b), // lserve, window (1, 2), schedule window (0, 1)
    ([84, 60, 168, 808, 1020, 8040, 12184, 1056, 44, 126, 85, 32, 2, 272, 272], [21, 133, 21, 133], 0xc2b39853f4b66029), // lserve, window (1, 2), schedule budget 16 from 64
    ([84, 60, 168, 1296, 1020, 8040, 16088, 1056, 44, 126, 85, 55, 33, 704, 704], [21, 133, 21, 133], 0xee2082331adb9b88), // lserve, window (1, 2), schedule retention 500‰
    ([84, 24, 168, 1360, 340, 8040, 11160, 1056, 44, 126, 85, 57, 35, 736, 736], [5, 133, 5, 133], 0xbf07d5b433682c33), // lserve_fp16, window (1, 2), schedule window (0, 1)
    ([84, 60, 168, 808, 1020, 8040, 12184, 1056, 44, 126, 85, 32, 2, 272, 272], [21, 133, 21, 133], 0x1198f0e363af88c2), // lserve_fp16, window (1, 2), schedule budget 16 from 64
    ([84, 60, 168, 1296, 1020, 8040, 16088, 1056, 44, 126, 85, 54, 30, 672, 672], [21, 133, 21, 133], 0x6c7aeff879525fef), // lserve_fp16, window (1, 2), schedule retention 500‰
];

/// A cell: the preset, the engine window, whether prefill is dynamic and the
/// name of the sequence's schedule (`""` for the empty one).
type Cell = (&'static str, (usize, usize), bool, &'static str);

fn cells() -> impl Iterator<Item = Cell> {
    let unscheduled = [false, true].into_iter().flat_map(|dynamic| {
        PRESETS.into_iter().flat_map(move |preset| {
            WINDOWS
                .into_iter()
                .map(move |window| (preset, window, dynamic, ""))
        })
    });
    let scheduled = PRESETS.into_iter().flat_map(|preset| {
        SCHEDULES
            .into_iter()
            .map(move |name| (preset, (1, 2), false, name))
    });
    unscheduled.chain(scheduled)
}

fn schedule(name: &str) -> SparsitySchedule {
    let none = SparsityOverride::none();
    let (from, over) = match name {
        "" => (0, none),
        "window (0, 1)" => (0, none.with_window(StreamingWindow::new(0, 1))),
        "budget 16 from 64" => (64, none.with_budget(16)),
        "retention 500‰" => (0, none.with_retention_permille(500)),
        _ => unreachable!("unknown schedule {name}"),
    };
    let mut schedule = SparsitySchedule::new();
    schedule.push(from, over);
    schedule
}

fn config((preset, (sink, local), dynamic, _): Cell) -> EngineConfig {
    let base = match preset {
        "lserve" => EngineConfig::lserve(),
        _ => EngineConfig::lserve_fp16(),
    };
    let (dynamic_prefill_keep, dynamic_prefill_after) = if dynamic {
        (Some(1), DYNAMIC_AFTER)
    } else {
        (base.dynamic_prefill_keep, base.dynamic_prefill_after)
    };
    EngineConfig {
        paging: PagingConfig::new(PAGE, 4, base.paging.precision()),
        streaming_window: StreamingWindow::new(sink, local),
        dynamic_budget: Some(BUDGET),
        prefill_tile: PAGE,
        dynamic_prefill_keep,
        dynamic_prefill_after,
        ..base
    }
}

fn fields(s: EngineStats) -> [u64; 15] {
    let EngineStats {
        prefill_dense_tiles,
        prefill_streaming_tiles,
        prefill_total_causal_tiles,
        decode_dense_pages,
        decode_streaming_pages,
        decode_total_pages,
        decode_tokens_visited,
        selector_logical_scored,
        selector_invocations,
        selector_reuses,
        decode_steps,
        pages_demoted,
        pages_promoted,
        migrated_token_units,
        unhidden_token_units,
    } = s;
    [
        prefill_dense_tiles,
        prefill_streaming_tiles,
        prefill_total_causal_tiles,
        decode_dense_pages,
        decode_streaming_pages,
        decode_total_pages,
        decode_tokens_visited,
        selector_logical_scored,
        selector_invocations,
        selector_reuses,
        decode_steps,
        pages_demoted,
        pages_promoted,
        migrated_token_units,
        unhidden_token_units,
    ]
}

fn run(cell: Cell) -> Row {
    let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 17));
    let cfg = config(cell);
    let mut pool = cfg.make_pool_for(&w.config, PROMPT + NEW_TOKENS);
    let exec = ModelExecutor::new(Arc::clone(&w), cfg);
    let mut seq = exec.new_sequence_under(&schedule(cell.3));
    let prompt: Vec<u32> = (0..PROMPT).map(|t| ((t * 13 + 5) % 90) as u32).collect();
    let tokens = exec
        .generate(&mut seq, &mut pool, &prompt, NEW_TOKENS)
        .expect("the pool holds the generation");
    let stats = seq.stats();
    assert!(stats.selector_invocations > 1, "the selectors rescore");
    let heads = w.config.num_kv_heads;
    assert_eq!(w.config.num_layers * heads, 4, "one resident span per head");
    let resident: [u64; 4] =
        std::array::from_fn(|i| seq.kv_head_resident_tokens(&pool, i / heads, i % heads));
    let hash = tokens.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &t| {
        t.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    });
    seq.release(&mut pool);
    assert_eq!(pool.total_in_use(), 0, "pages leaked");
    (fields(stats), resident, hash)
}

#[test]
fn decode_counters_and_resident_spans_reproduce_the_ledger() {
    let got: Vec<Row> = cells().map(run).collect();
    if got == LEDGER {
        return;
    }
    let rows: Vec<String> = cells()
        .zip(&got)
        .zip(&LEDGER)
        .map(|(((preset, window, dynamic, name), got), want)| {
            let mark = if got == want { "" } else { " *" };
            let prefill = if dynamic { ", dynamic prefill" } else { "" };
            let schedule = if name.is_empty() {
                String::new()
            } else {
                format!(", schedule {name}")
            };
            format!(
                "    ({:?}, {:?}, {:#018x}), // {preset}, window {window:?}{prefill}{schedule}{mark}",
                got.0, got.1, got.2
            )
        })
        .collect();
    panic!(
        "head-table ledger moved (rows marked *):\n{}",
        rows.join("\n")
    );
}
