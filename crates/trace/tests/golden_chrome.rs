//! Golden-file pin of the Chrome trace exporter: a tiny fixed scene covering
//! every lane and event kind must render byte-identically across runs and
//! refactors. Regenerate with `UPDATE_GOLDEN=1 cargo test -p lserve-trace
//! --test golden_chrome` and review the diff.

use lserve_trace::{chrome_trace_json, lane, validate_json, Tracer, CONTROL_TID};

fn tiny_scene() -> Tracer {
    let t = Tracer::ring(64);
    // Request 3 arrives, waits one tick, prefills a chunk, decodes a token.
    t.instant("submit", "scheduler", lane::SCHEDULER, 3, &[("prompt", 12)]);
    t.advance(1);
    let queued_from = 0;
    t.span("queued", "scheduler", lane::SCHEDULER, 3, queued_from, &[]);
    t.instant("admit", "scheduler", lane::SCHEDULER, 3, &[]);
    let chunk_start = t.now();
    // The executor runs one layer: a serial phase then two attention shards
    // on two workers, the critical path being the slower shard.
    let serial_start = t.now();
    t.advance(2);
    t.span(
        "decode.serial",
        "executor",
        lane::EXECUTOR,
        CONTROL_TID,
        serial_start,
        &[("layer", 0)],
    );
    let par_start = t.now();
    t.span_at(
        "shard",
        "attention",
        lane::WORKERS,
        0,
        par_start,
        5,
        &[("seq", 0), ("cost", 5)],
    );
    t.span_at(
        "shard",
        "attention",
        lane::WORKERS,
        1,
        par_start,
        3,
        &[("seq", 0), ("cost", 3)],
    );
    t.advance(5);
    t.span(
        "decode.attention",
        "executor",
        lane::EXECUTOR,
        CONTROL_TID,
        par_start,
        &[("layer", 0), ("shards", 2)],
    );
    // Selector rescored one head and the pool moved one page while computing.
    t.instant(
        "rescore",
        "selector",
        lane::SELECTOR,
        0,
        &[("layer", 0), ("head", 1)],
    );
    t.instant(
        "demote.issue",
        "copy",
        lane::COPY,
        0,
        &[("page", 9), ("units", 4)],
    );
    t.instant("land", "copy", lane::COPY, 0, &[("page", 9)]);
    t.span(
        "prefill.chunk",
        "scheduler",
        lane::SCHEDULER,
        3,
        chunk_start,
        &[("tokens", 8)],
    );
    t.counter("pages", lane::SCHEDULER, &[("hot", 5), ("cold", 1)]);
    t.counter(
        "sequences",
        lane::SCHEDULER,
        &[("running", 1), ("queued", 0)],
    );
    t.instant("finish", "scheduler", lane::SCHEDULER, 3, &[("tokens", 1)]);
    t
}

/// A 2-device decode phase: each device runs its local shards on its own
/// worker lanes (`dev/worker` tids via [`lane::device_worker_tid`]), the
/// devices overlap in modeled time, and the interconnect counter tracks the
/// cumulative cross-device gather tokens.
fn device_scene() -> Tracer {
    let t = Tracer::ring(64);
    let par_start = t.now();
    // Device 0 holds the heavy dense head (cost 7) and one light shard its
    // second worker picks up; device 1 holds two streaming shards.
    t.span_at(
        "shard",
        "attention",
        lane::WORKERS,
        lane::device_worker_tid(0, 0),
        par_start,
        7,
        &[("seq", 0), ("cost", 7)],
    );
    t.span_at(
        "shard",
        "attention",
        lane::WORKERS,
        lane::device_worker_tid(0, 1),
        par_start,
        2,
        &[("seq", 1), ("cost", 2)],
    );
    t.span_at(
        "shard",
        "attention",
        lane::WORKERS,
        lane::device_worker_tid(1, 0),
        par_start,
        3,
        &[("seq", 0), ("cost", 3)],
    );
    t.span_at(
        "shard",
        "attention",
        lane::WORKERS,
        lane::device_worker_tid(1, 1),
        par_start,
        2,
        &[("seq", 1), ("cost", 2)],
    );
    // The phase's modeled wall time is the critical device (device 0, 7).
    t.advance(7);
    t.span(
        "decode.attention",
        "executor",
        lane::EXECUTOR,
        CONTROL_TID,
        par_start,
        &[("layer", 0), ("shards", 4), ("devices", 2)],
    );
    // Sequence 0's dense shard lives on device 0 but its streaming shard is
    // on device 1: one modeled gather, tallied on the interconnect track.
    t.counter("interconnect", lane::WORKERS, &[("tokens", 4)]);
    t.counter("pages", lane::SCHEDULER, &[("hot", 6), ("cold", 0)]);
    t
}

/// Compares `rendered` with `tests/golden/<file>`, or rewrites the file when
/// `UPDATE_GOLDEN=1` is set.
fn check_golden(file: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}; run with UPDATE_GOLDEN=1 to create it"));
    assert_eq!(
        rendered, golden,
        "exporter output drifted from {file}; if intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn tiny_scene_matches_golden() {
    let (events, dropped) = tiny_scene().drain();
    assert_eq!(dropped, 0);
    let mut rendered = chrome_trace_json(&events, dropped).render();
    rendered.push('\n');
    validate_json(rendered.trim_end()).unwrap();

    check_golden("tiny.trace.json", &rendered);
}

#[test]
fn device_scene_matches_golden() {
    let (events, dropped) = device_scene().drain();
    assert_eq!(dropped, 0);
    let mut rendered = chrome_trace_json(&events, dropped).render();
    rendered.push('\n');
    validate_json(rendered.trim_end()).unwrap();
    // The per-device worker lanes must label themselves.
    assert!(rendered.contains("dev1/worker 0"));
    assert!(rendered.contains("\"name\":\"interconnect\""));

    check_golden("device_scene.trace.json", &rendered);
}
