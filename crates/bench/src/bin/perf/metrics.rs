//! The metric tables — names, units and direction are the contract with
//! `BENCHMARK.json` — and how each value is computed from passes and probes.

use crate::drive::{fastest, timeline, Observe, Pass, Timeline};
use crate::gen::{Scene, Workload};
use crate::layers::ProbeTable;
use crate::spans::Recorder;
use crate::stats::{nearest_rank, quartiles, sort, tail};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before it
    /// counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

const fn bounded(def: Def, bound: f64) -> Def {
    Def { bound, ..def }
}

/// What a user of the system sees. Measured with both tracers off. The
/// bounds are the widest the benchmark contract allows because the box is
/// that noisy: quiet spells repeat within 5 %, but a neighbour's busy minutes
/// lift every timing by 20-60 % (see the README's A/A table).
pub const END_TO_END: [Def; 9] = [
    bounded(lower("setup_s", "s"), 0.25),
    bounded(lower("ttft_s_p50", "s"), 0.25),
    bounded(lower("ttft_s_p95", "s"), 0.25),
    bounded(lower("tbt_s_p50", "s"), 0.25),
    bounded(lower("tbt_s_p99", "s"), 0.25),
    bounded(higher("output_tok_per_s", "tok/s"), 0.25),
    bounded(lower("makespan_s", "s"), 0.25),
    bounded(higher("slo_goodput_frac", "frac"), 0.25),
    bounded(lower("peak_rss_mb", "MB"), 0.15),
];

/// One row per layer metric, from the traced run. No bounds: these explain a
/// movement in the table above, they do not gate on their own.
pub const PER_LAYER: [Def; 56] = [
    lower("scheduler.step_s_p50", "s"),
    lower("scheduler.step_s_p95", "s"),
    lower("scheduler.submit_s_p50", "s"),
    lower("scheduler.queue_wait_s_p50", "s"),
    lower("scheduler.steps", "count"),
    higher("scheduler.batch_mean", "seqs"),
    lower("scheduler.preemptions", "count"),
    lower("scheduler.work_tokens", "count"),
    lower("scheduler.overhead_frac", "frac"),
    lower("scheduler.preemptions_cache_on", "count"),
    lower("scheduler.work_tokens_cache_on", "count"),
    lower("executor.prefill_ns_per_tok", "ns"),
    lower("executor.decode_ns_per_tok", "ns"),
    lower("executor.decode_ns_per_tok_b1", "ns"),
    lower("executor.decode_visit_frac", "frac"),
    lower("executor.fused_prefill_frac", "frac"),
    lower("attention.prefill_dense_ns_per_tile", "ns"),
    lower("attention.prefill_stream_ns_per_tile", "ns"),
    lower("attention.decode_sel_ns_per_tok_visited", "ns"),
    lower("attention.decode_full_ns_per_tok_visited", "ns"),
    lower("attention.decode_stream_ns_per_tok_visited", "ns"),
    lower("selector.score_ns_per_logical_page", "ns"),
    lower("selector.reused_ns_per_call", "ns"),
    higher("selector.reuse_frac", "frac"),
    higher("selector.recall_niah", "frac"),
    lower("kvcache.append_ns_per_tok", "ns"),
    lower("kvcache.alloc_free_ns_per_op", "ns"),
    lower("kvcache.fork_ns_per_page", "ns"),
    lower("kvcache.tier_sync_ns_per_page", "ns"),
    lower("kvcache.tier_async_ns_per_page", "ns"),
    lower("kvcache.pages_demoted", "count"),
    lower("kvcache.pages_promoted", "count"),
    lower("kvcache.pages_spilled", "count"),
    lower("kvcache.prefetch_waste_frac", "frac"),
    higher("kvcache.overlap_frac", "frac"),
    lower("kvcache.pool_peak_util", "frac"),
    lower("quant.int4_dot_ns_per_elem", "ns"),
    lower("quant.quantize_ns_per_elem", "ns"),
    lower("tensor.dot_ns_per_elem", "ns"),
    lower("tensor.matmul_ns_per_mac", "ns"),
    higher("prefixcache.hit_frac", "frac"),
    lower("prefixcache.insertions", "count"),
    lower("prefixcache.evictions", "count"),
    lower("prefixcache.spills", "count"),
    lower("trace.ring_span_ns_per_event", "ns"),
    lower("trace.sched_overhead_frac", "frac"),
    lower("trace.bench_overhead_frac", "frac"),
    lower("costmodel.ns_per_work_token", "ns"),
    lower("costmodel.ns_per_work_token_prefill", "ns"),
    lower("costmodel.ns_per_work_token_decode", "ns"),
    lower("costmodel.drift_max_ratio", "ratio"),
    higher("workloads.sent", "count"),
    higher("workloads.completed", "count"),
    lower("workloads.failed", "count"),
    lower("workloads.gen_late_s_p95", "s"),
    lower("workloads.backlog_at_last_arrival", "count"),
];

/// One measured value; `n` is the sample or operation count behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: u64,
    /// What `value` is the median of: one per group of passes for an
    /// end-to-end metric (`--compare` takes its quartiles from them), none
    /// for a layer's.
    pub samples: Vec<f64>,
}

/// A value under a name one of the two tables declares.
fn v(name: &'static str, value: f64, n: usize) -> Value {
    let def = END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name);
    let unit = def
        .unwrap_or_else(|| panic!("{name} is in neither table"))
        .unit;
    Value {
        name,
        unit,
        value,
        n: n as u64,
        samples: Vec::new(),
    }
}

/// The median of `samples` (Python's: the mean of the middle two of an even
/// count), which is therefore always inside the quartiles `--compare` prints.
fn median_of(name: &'static str, samples: Vec<f64>, n: usize) -> Value {
    Value {
        samples: samples.clone(),
        ..v(name, quartiles(&samples).1, n)
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    sort(&mut v);
    v
}

/// The end-to-end table of a run from its `groups`, one timeline per
/// leave-one-out group of passes, each laid out from the fastest execution of
/// every call within the group: a timing is the median, across the groups, of
/// the metric on each group's timeline, and `--compare` takes its spread from
/// the same values. `setup_s` is the median of every set-up the run timed.
/// `peak_rss_mb` is a high-water mark of the whole process, so there is one
/// sample of it.
pub fn end_to_end(
    groups: &[Timeline],
    sent: usize,
    setups: &[f64],
    peak_rss_mb: f64,
) -> Vec<Value> {
    let per_group = |f: &dyn Fn(&Timeline) -> f64| groups.iter().map(f).collect::<Vec<f64>>();
    let ttft = |t: &Timeline| sorted(&t.ttft_s);
    let tbt = |t: &Timeline| sorted(&t.tbt_s);
    // Sample counts are the scene's: every group lays out the same one.
    let one = &groups[0];
    let (firsts, gaps) = (one.ttft_s.len(), one.tbt_s.len());
    vec![
        median_of("setup_s", setups.to_vec(), setups.len()),
        median_of(
            "ttft_s_p50",
            per_group(&|t| nearest_rank(&ttft(t), 0.5)),
            firsts,
        ),
        median_of("ttft_s_p95", per_group(&|t| tail(&ttft(t), 0.95)), firsts),
        median_of(
            "tbt_s_p50",
            per_group(&|t| nearest_rank(&tbt(t), 0.5)),
            gaps,
        ),
        median_of("tbt_s_p99", per_group(&|t| tail(&tbt(t), 0.99)), gaps),
        median_of(
            "output_tok_per_s",
            per_group(&|t| t.output_tokens as f64 / t.wall_s),
            one.output_tokens as usize,
        ),
        median_of("makespan_s", per_group(&|t| t.makespan_s), sent),
        median_of(
            "slo_goodput_frac",
            per_group(&|t| t.good as f64 / sent as f64),
            sent,
        ),
        median_of("peak_rss_mb", vec![peak_rss_mb], 1),
    ]
}

/// Step time under `mode` relative to step time untraced, minus one, and the
/// rounds behind it: totals over whole passes that took the same steps. Two
/// passes of one scene differ by several percent on this box, so fewer than
/// three rounds cannot resolve an overhead of a few percent (`perf` prints
/// the row as unresolved).
fn tracing_overhead(passes: &[Pass], mode: Observe) -> (f64, usize) {
    let mean_busy = |o: Observe| {
        let totals: Vec<f64> = passes
            .iter()
            .filter(|p| p.observe == o)
            .map(|p| p.step_s.iter().sum())
            .collect();
        (
            totals.iter().sum::<f64>() / totals.len().max(1) as f64,
            totals.len(),
        )
    };
    let ((plain, _), (traced, rounds)) = (mean_busy(Observe::Plain), mean_busy(mode));
    if rounds == 0 || plain == 0.0 {
        (0.0, 0)
    } else {
        (traced / plain - 1.0, rounds)
    }
}

/// The per-layer table of a traced run: scheduler rows from the spans `rec`
/// holds, ledgers from the first pass, step classes from the fastest
/// execution of every call across all `passes`, probe rows as measured,
/// tracing overheads from the passes under each way of observing, and the
/// ledger of the cache-on variant where one ran.
pub fn per_layer(
    workload: Workload,
    scene: &Scene,
    passes: &[Pass],
    cache_on: Option<&Pass>,
    rec: &Recorder,
    probes: &ProbeTable,
) -> Vec<Value> {
    let first = &passes[0];
    let l = &first.ledger;
    let (step_s, submit_s) = fastest(passes);
    let t = timeline(workload, scene, &first.log, &step_s, &submit_s);
    let busy_s: f64 = step_s.iter().sum();

    let step = sorted(&rec.durations("sched.step"));
    let submit = sorted(&rec.durations("sched.submit"));
    let wait = sorted(&t.queue_wait_s);
    let late = sorted(&t.gen_late_s);

    // Executor time the probes predict for the tokens the pass processed.
    let (prefill, decode, decode_b1) = (
        probes.get("executor.prefill_ns_per_tok"),
        probes.get("executor.decode_ns_per_tok"),
        probes.get("executor.decode_ns_per_tok_b1"),
    );
    let decoded = t.output_tokens.saturating_sub(first.completed as u64);
    let continued = l
        .work_tokens
        .saturating_sub(decoded + first.first_chunk_tokens);
    let predicted_ns = first.first_chunk_tokens as f64 * prefill
        + continued as f64 * decode_b1
        + decoded as f64 * decode;
    // Only where one probe geometry matches the whole pass; on the two mixed
    // workloads chunk size, batch size and context all vary and the
    // prediction is not one: reported as 0, not measured.
    let single_path = matches!(workload, Workload::LongPrefill | Workload::LongDecode);
    let overhead = if single_path {
        1.0 - predicted_ns * 1e-9 / busy_s
    } else {
        0.0
    };

    let per_work = |(s, w): (f64, u64)| if w == 0 { 0.0 } else { s * 1e9 / w as f64 };
    let (prompt, token) = (per_work(t.prompt_steps), per_work(t.decode_steps));
    let costs: Vec<f64> = [prompt, token, prefill, decode, decode_b1]
        .into_iter()
        .filter(|&c| c > 0.0)
        .collect();
    let drift = costs.iter().copied().fold(0.0, f64::max)
        / costs.iter().copied().fold(f64::INFINITY, f64::min);

    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let total = |f: fn(&Pass) -> usize| passes.iter().map(f).sum::<usize>() as f64;
    let steps = l.steps as usize;
    let cached = l.prefix_hit_tokens + l.prefix_recomputed_tokens;
    let (ring, ring_rounds) = tracing_overhead(passes, Observe::Ring);
    let (spans, span_rounds) = tracing_overhead(passes, Observe::Spans);
    let storm = cache_on.map(|p| &p.ledger);
    let mut out = vec![
        v("scheduler.step_s_p50", nearest_rank(&step, 0.5), step.len()),
        v("scheduler.step_s_p95", tail(&step, 0.95), step.len()),
        v(
            "scheduler.submit_s_p50",
            nearest_rank(&submit, 0.5),
            submit.len(),
        ),
        v(
            "scheduler.queue_wait_s_p50",
            nearest_rank(&wait, 0.5),
            wait.len(),
        ),
        v("scheduler.steps", l.steps as f64, steps),
        v("scheduler.batch_mean", l.batch_mean, steps),
        v("scheduler.preemptions", l.preemptions as f64, steps),
        v("scheduler.work_tokens", l.work_tokens as f64, steps),
        v("scheduler.overhead_frac", overhead, l.work_tokens as usize),
        v(
            "scheduler.preemptions_cache_on",
            storm.map_or(0.0, |s| s.preemptions as f64),
            storm.map_or(0, |s| s.steps as usize),
        ),
        v(
            "scheduler.work_tokens_cache_on",
            storm.map_or(0.0, |s| s.work_tokens as f64),
            storm.map_or(0, |s| s.steps as usize),
        ),
        v(
            "executor.fused_prefill_frac",
            t.admit_step_s / busy_s,
            steps,
        ),
        v("kvcache.pages_demoted", l.pages_demoted as f64, steps),
        v("kvcache.pages_promoted", l.pages_promoted as f64, steps),
        v("kvcache.pages_spilled", l.pages_spilled as f64, steps),
        v(
            "kvcache.prefetch_waste_frac",
            share(l.prefetch_wasted, l.prefetch_issued),
            l.prefetch_issued as usize,
        ),
        v(
            "kvcache.overlap_frac",
            l.overlap_frac,
            l.pages_demoted as usize,
        ),
        v("kvcache.pool_peak_util", l.pool_peak_util, steps),
        v(
            "prefixcache.hit_frac",
            share(l.prefix_hit_tokens, cached),
            cached as usize,
        ),
        v(
            "prefixcache.insertions",
            l.prefix_insertions as f64,
            first.sent,
        ),
        v(
            "prefixcache.evictions",
            l.prefix_evictions as f64,
            first.sent,
        ),
        v("prefixcache.spills", l.prefix_spills as f64, first.sent),
        v("trace.sched_overhead_frac", ring, ring_rounds),
        v("trace.bench_overhead_frac", spans, span_rounds),
        v(
            "costmodel.ns_per_work_token",
            busy_s * 1e9 / l.work_tokens as f64,
            l.work_tokens as usize,
        ),
        v(
            "costmodel.ns_per_work_token_prefill",
            prompt,
            t.prompt_steps.1 as usize,
        ),
        v(
            "costmodel.ns_per_work_token_decode",
            token,
            t.decode_steps.1 as usize,
        ),
        v("costmodel.drift_max_ratio", drift, costs.len()),
        v("workloads.sent", total(|p| p.sent), passes.len()),
        v("workloads.completed", total(|p| p.completed), passes.len()),
        v("workloads.failed", total(|p| p.failed), passes.len()),
        v(
            "workloads.gen_late_s_p95",
            if late.is_empty() {
                0.0
            } else {
                tail(&late, 0.95)
            },
            late.len(),
        ),
        v(
            "workloads.backlog_at_last_arrival",
            first.backlog_at_last_arrival as f64,
            first.sent,
        ),
    ];
    // Probe rows enter the table under their own names.
    out.extend(
        probes
            .rows
            .iter()
            .map(|&(name, value, ops)| v(name, value, ops as usize)),
    );
    // Table order, so the output reads layer by layer.
    out.sort_by_key(|x| PER_LAYER.iter().position(|d| d.name == x.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{} {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} is used twice", d.name);
        }
        for w in crate::gen::Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
