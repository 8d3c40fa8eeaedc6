//! The pages a sequence's fused first chunk takes, pinned: for a fresh
//! sequence, `prefill_threads` of a chunk of `boundary` tokens allocates the
//! pages in [`LEDGER`] — what the pool holds after the chunk and the most it
//! held during it — over the presets {`lserve`, `lserve_fp16`, `dense`,
//! `duo_like`, `quest_like(64)`, `duo_like` with every head streaming}
//! × per-request schedules {empty, window
//! (0, 1), budget 8} × physical pages of 8 and 16 tokens × boundaries one
//! token below, at and one above a page, and past four pages (past every
//! window, so each streaming head evicts). The rows hold what the code
//! produced before the scheduler reserved anything for a first chunk.
//!
//! `ModelExecutor::prefill_page_demand` must equal every row's peak, and a
//! pool with exactly that many free pages must take the chunk while one
//! page fewer refuses it before writing anything.

use std::sync::Arc;

use lserve::core::{
    EngineConfig, ModelExecutor, ParallelExecStats, SparsityOverride, SparsitySchedule,
};
use lserve::kvcache::{PagePool, PagingConfig, StreamingWindow};
use lserve::model::{ModelConfig, ModelWeights};

const PRESETS: [&str; 6] = [
    "lserve",
    "lserve_fp16",
    "dense",
    "duo_like",
    "quest_like(64)",
    "all streaming",
];
const SCHEDULES: [&str; 3] = ["", "window (0, 1)", "budget 8"];
const PAGES: [usize; 2] = [8, 16];

/// The chunk lengths of a row of pages of `page` tokens.
fn boundaries(page: usize) -> [usize; 4] {
    [page - 1, page, page + 1, 4 * page + 1]
}

/// Per boundary: the pages the pool holds after the chunk, and the most it
/// held while the chunk ran (a windowed head takes its next page before it
/// gives its oldest back).
type Row = [(usize, usize); 4];

/// One row per `(preset, schedule, page)`, in the order [`cells`] yields.
#[rustfmt::skip]
const LEDGER: [Row; 36] = [
    [(4, 4), (4, 4), (8, 8), (16, 16)], // lserve, schedule "", page 8
    [(4, 4), (4, 4), (8, 8), (16, 16)], // lserve, schedule "", page 16
    [(4, 4), (4, 4), (6, 6), (12, 12)], // lserve, schedule "window (0, 1)", page 8
    [(4, 4), (4, 4), (6, 6), (12, 12)], // lserve, schedule "window (0, 1)", page 16
    [(4, 4), (4, 4), (8, 8), (16, 16)], // lserve, schedule "budget 8", page 8
    [(4, 4), (4, 4), (8, 8), (16, 16)], // lserve, schedule "budget 8", page 16
    [(4, 4), (4, 4), (8, 8), (16, 16)], // lserve_fp16, schedule "", page 8
    [(4, 4), (4, 4), (8, 8), (16, 16)], // lserve_fp16, schedule "", page 16
    [(4, 4), (4, 4), (6, 6), (12, 12)], // lserve_fp16, schedule "window (0, 1)", page 8
    [(4, 4), (4, 4), (6, 6), (12, 12)], // lserve_fp16, schedule "window (0, 1)", page 16
    [(4, 4), (4, 4), (8, 8), (16, 16)], // lserve_fp16, schedule "budget 8", page 8
    [(4, 4), (4, 4), (8, 8), (16, 16)], // lserve_fp16, schedule "budget 8", page 16
    [(4, 4), (4, 4), (8, 8), (20, 20)], // dense, schedule "", page 8
    [(4, 4), (4, 4), (8, 8), (20, 20)], // dense, schedule "", page 16
    [(4, 4), (4, 4), (8, 8), (20, 20)], // dense, schedule "window (0, 1)", page 8
    [(4, 4), (4, 4), (8, 8), (20, 20)], // dense, schedule "window (0, 1)", page 16
    [(4, 4), (4, 4), (8, 8), (20, 20)], // dense, schedule "budget 8", page 8
    [(4, 4), (4, 4), (8, 8), (20, 20)], // dense, schedule "budget 8", page 16
    [(4, 4), (4, 4), (8, 8), (16, 16)], // duo_like, schedule "", page 8
    [(4, 4), (4, 4), (8, 8), (16, 16)], // duo_like, schedule "", page 16
    [(4, 4), (4, 4), (6, 6), (12, 12)], // duo_like, schedule "window (0, 1)", page 8
    [(4, 4), (4, 4), (6, 6), (12, 12)], // duo_like, schedule "window (0, 1)", page 16
    [(4, 4), (4, 4), (8, 8), (16, 16)], // duo_like, schedule "budget 8", page 8
    [(4, 4), (4, 4), (8, 8), (16, 16)], // duo_like, schedule "budget 8", page 16
    [(4, 4), (4, 4), (8, 8), (20, 20)], // quest_like(64), schedule "", page 8
    [(4, 4), (4, 4), (8, 8), (20, 20)], // quest_like(64), schedule "", page 16
    [(4, 4), (4, 4), (8, 8), (20, 20)], // quest_like(64), schedule "window (0, 1)", page 8
    [(4, 4), (4, 4), (8, 8), (20, 20)], // quest_like(64), schedule "window (0, 1)", page 16
    [(4, 4), (4, 4), (8, 8), (20, 20)], // quest_like(64), schedule "budget 8", page 8
    [(4, 4), (4, 4), (8, 8), (20, 20)], // quest_like(64), schedule "budget 8", page 16
    [(4, 4), (4, 4), (8, 8), (12, 13)], // all streaming, schedule "", page 8
    [(4, 4), (4, 4), (8, 8), (12, 13)], // all streaming, schedule "", page 16
    [(4, 4), (4, 4), (4, 5), (4, 5)], // all streaming, schedule "window (0, 1)", page 8
    [(4, 4), (4, 4), (4, 5), (4, 5)], // all streaming, schedule "window (0, 1)", page 16
    [(4, 4), (4, 4), (8, 8), (12, 13)], // all streaming, schedule "budget 8", page 8
    [(4, 4), (4, 4), (8, 8), (12, 13)], // all streaming, schedule "budget 8", page 16
];

fn cells() -> impl Iterator<Item = (&'static str, &'static str, usize)> {
    PRESETS.into_iter().flat_map(|preset| {
        SCHEDULES
            .into_iter()
            .flat_map(move |schedule| PAGES.into_iter().map(move |page| (preset, schedule, page)))
    })
}

fn config(preset: &str, page: usize) -> EngineConfig {
    let base = match preset {
        "lserve" => EngineConfig::lserve(),
        "lserve_fp16" => EngineConfig::lserve_fp16(),
        "dense" => EngineConfig::dense(),
        "duo_like" => EngineConfig::duo_like(),
        "quest_like(64)" => EngineConfig::quest_like(64),
        "all streaming" => EngineConfig {
            streaming_sparsity: 1.0,
            ..EngineConfig::duo_like()
        },
        _ => unreachable!("unknown preset {preset}"),
    };
    let logical = base.paging.logical_page_size().min(page);
    EngineConfig {
        paging: PagingConfig::new(page, logical, base.paging.precision()),
        ..base
    }
}

fn schedule(name: &str) -> SparsitySchedule {
    let none = SparsityOverride::none();
    let mut schedule = SparsitySchedule::new();
    match name {
        "" => {}
        "window (0, 1)" => schedule.push(0, none.with_window(StreamingWindow::new(0, 1))),
        "budget 8" => schedule.push(0, none.with_budget(8)),
        _ => unreachable!("unknown schedule {name}"),
    }
    schedule
}

/// A fresh sequence's first chunk of `boundary` tokens in a fresh pool of
/// `capacity` pages: what the pool holds after it and its peak, or `None`
/// when the chunk was refused — having written nothing.
fn first_chunk(
    exec: &ModelExecutor,
    schedule: &SparsitySchedule,
    boundary: usize,
    capacity: usize,
) -> Option<(usize, usize)> {
    let head_dim = exec.weights().config.head_dim;
    let mut pool = PagePool::new(exec.config().paging, capacity, head_dim);
    let mut state = exec.new_sequence_under(schedule);
    let tokens: Vec<u32> = (0..boundary).map(|t| (t * 7 % 90) as u32).collect();
    let mut stats = ParallelExecStats::default();
    match exec.prefill_threads(&mut state, &mut pool, &tokens, 1, &mut stats) {
        Ok(_) => Some((pool.in_use(), pool.peak_in_use())),
        Err(_) => {
            assert_eq!((pool.peak_in_use(), state.context_len()), (0, 0));
            None
        }
    }
}

fn executor(
    (preset, schedule_name, page): (&str, &str, usize),
) -> (ModelExecutor, SparsitySchedule) {
    let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 5));
    (
        ModelExecutor::new(w, config(preset, page)),
        schedule(schedule_name),
    )
}

fn run(cell: (&str, &str, usize)) -> Row {
    let (exec, schedule) = executor(cell);
    boundaries(cell.2).map(|b| first_chunk(&exec, &schedule, b, 1024).expect("an ample pool"))
}

#[test]
fn first_chunk_pages_reproduce_the_ledger() {
    let got: Vec<Row> = cells().map(run).collect();
    if got != LEDGER {
        let rows: Vec<String> = cells()
            .zip(&got)
            .map(|((preset, schedule, page), row)| {
                format!("    {row:?}, // {preset}, schedule \"{schedule}\", page {page}")
            })
            .collect();
        panic!("first-chunk pages moved:\n{}", rows.join("\n"));
    }
}

#[test]
fn the_first_chunk_demand_is_its_peak_and_an_exact_pool_takes_it() {
    for (cell, row) in cells().zip(LEDGER) {
        let (exec, schedule) = executor(cell);
        for (b, (held, peak)) in boundaries(cell.2).into_iter().zip(row) {
            let demand = exec.prefill_page_demand(&exec.new_sequence_under(&schedule), b);
            assert_eq!(demand, peak, "{cell:?}, {b} tokens");
            let exact = first_chunk(&exec, &schedule, b, demand);
            assert_eq!(exact, Some((held, peak)), "{cell:?}, {b} tokens");
            let short = first_chunk(&exec, &schedule, b, demand - 1);
            assert_eq!(short, None, "{cell:?}, {b} tokens");
        }
    }
}
