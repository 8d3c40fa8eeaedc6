//! `perf`: the wall-clock benchmark. Four serving workloads driven through the
//! public scheduler API, nine end-to-end metrics, a per-layer table from one
//! traced run, and the output checks, in one command. See `README.md` beside
//! this file for what each number means and how it was chosen.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1     one workload; last line is JSON
//! perf --seed N [--seconds S] [--trace 0|1] [--out FILE]    all four
//! perf --aa [--workload NAME] ...                           two sets of runs, then --compare
//! perf --compare A.json B.json                              verdict per (workload, metric)
//! ```

mod compare;
mod drive;
mod gen;
mod layers;
mod metrics;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use lserve_trace::Json;

use drive::{check_against_solo, fastest, run_pass, set_up, timeline, Ledger, Observe, Pass};
use gen::{scene, Scale, Workload};
use metrics::Value;
use spans::Recorder;

/// `run_seconds` of `BENCHMARK.json`: passes, set-ups, probes and output
/// checks all happen inside it.
const DEFAULT_SECONDS: f64 = 30.0;
/// `--seconds` can cut a run's passes (`Workload::passes`, a constant) short
/// on a slow day, but never below this many.
const MIN_PASSES: usize = 3;
/// Set-ups timed in a run; the median is reported.
const SETUPS: usize = 21;
/// The output checks cost at most this share of a pass (measured: 0.2-0.6),
/// kept free at the end of `--seconds`.
const CHECKS_PER_PASS: f64 = 0.6;

/// One round of a traced run: a replay of one scene under each way of
/// observing it. The scheduler's own tracer is weighed on `long_decode` only,
/// as the issue specifies; a third pass a round fits nowhere else.
fn round_of(workload: Workload) -> &'static [Observe] {
    match workload {
        Workload::LongDecode => &[Observe::Plain, Observe::Spans, Observe::Ring],
        _ => &[Observe::Plain, Observe::Spans],
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    passes: Option<usize>,
    trace: bool,
    scale: Scale,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    aa: bool,
    /// Set by `perf` on the processes it starts: print the run's `--out`
    /// entry last, not the result object.
    entry: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        passes: None,
        trace: false,
        scale: Scale::Full,
        out: None,
        compare: None,
        aa: false,
        entry: false,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--passes" => {
                let n: usize = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--passes: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--passes must be in 1..=100".into());
                }
                a.passes = Some(n);
            }
            "--trace" => {
                a.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.scale = Scale::Smoke,
            "--out" => a.out = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                a.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()))
            }
            "--aa" => a.aa = true,
            "--entry" => a.entry = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// What one workload's run produced.
struct Run {
    workload: Workload,
    attempted: usize,
    failed: usize,
    /// Output checks that failed; empty means correct.
    violations: Vec<String>,
    values: Vec<Value>,
    /// One ledger per pass: functions of the seed, not of the clock.
    ledgers: Vec<Ledger>,
    /// What `perf`'s recorder holds: empty unless the run was traced.
    spans: Recorder,
}

impl Run {
    fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload(workload: Workload, args: &Args) -> Run {
    let scale = args.scale;
    let started = Instant::now();
    let sc = scene(workload, args.seed, scale);
    let mut rec = Recorder::new();
    // A traced run's probes go first: a fixed cost the passes then fit around.
    let probes = args.trace.then(|| {
        rec.set_enabled(true);
        layers::run_probes(&mut rec, scale)
    });

    // Every pass replays the scene. Untraced, a run is `workload.passes()` of
    // them; traced, up to `MIN_PASSES` rounds, one pass under each way of
    // observing. A round past the least is started only while it and the
    // output checks still fit in `--seconds`.
    let (round, least, most) = if args.trace {
        (round_of(workload), 1, MIN_PASSES)
    } else {
        (&[Observe::Plain][..], MIN_PASSES, workload.passes())
    };
    let mut passes: Vec<Pass> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let done = passes.len() / round.len();
        let fits = || {
            let needs = (round.len() as f64 + CHECKS_PER_PASS) * longest;
            started.elapsed().as_secs_f64() + needs <= args.seconds
        };
        let more = match args.passes {
            Some(n) => done < n,
            None => done < least || (done < most && fits()),
        };
        if !more {
            break;
        }
        for &observe in round {
            let t = Instant::now();
            passes.push(run_pass(workload, &sc, scale, observe, &mut rec));
            longest = longest.max(t.elapsed().as_secs_f64());
        }
    }
    // Before the checks, whose ample-pool schedulers are not the workload's.
    let rss = peak_rss_mb();
    let in_passes = started.elapsed().as_secs_f64();
    let cache_on = (args.trace && workload == Workload::OvercommitSwap)
        .then(|| run_pass(workload, &sc, scale, Observe::CacheOn, &mut rec));

    // Output checks.
    let mut violations: Vec<String> = passes
        .iter()
        .chain(&cache_on)
        .flat_map(|p| p.violations.clone())
        .collect();
    violations.extend(check_against_solo(workload, &sc, scale, &passes[0]));
    // Arrivals follow the work clock, so every pass must take the same steps,
    // however it is observed.
    let same_steps = passes
        .iter()
        .all(|p| p.log == passes[0].log && p.ledger == passes[0].ledger);
    if !same_steps {
        violations.push("passes of one scene took different steps".into());
    }

    let n = sc.requests.len();
    let values = match &probes {
        Some(probes) => metrics::per_layer(workload, &sc, &passes, cache_on.as_ref(), &rec, probes),
        None => {
            let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
            // The smoke geometry is for plumbing, not for steady numbers.
            let enough = if scale == Scale::Full { SETUPS } else { 1 };
            while setups.len() < enough {
                setups.push(set_up(workload, &sc, scale, Observe::Plain).1);
            }
            // One timeline per leave-one-out group of passes, each call at
            // its fastest within the group (each pass alone if there is but
            // one, or if they took different steps and cannot be combined).
            let alone = passes.len() == 1 || !same_steps;
            let groups: Vec<_> = (0..passes.len())
                .map(|i| {
                    let group = passes
                        .iter()
                        .enumerate()
                        .filter(|&(k, _)| (k == i) == alone)
                        .map(|(_, p)| p);
                    let (step_s, submit_s) = fastest(group);
                    timeline(workload, &sc, &passes[i].log, &step_s, &submit_s)
                })
                .collect();
            metrics::end_to_end(&groups, n, &setups, rss)
        }
    };
    eprintln!(
        "{}: {} passes took {in_passes:.1} s with the probes, the run {:.1} s",
        workload.name(),
        passes.len(),
        started.elapsed().as_secs_f64()
    );
    Run {
        workload,
        attempted: passes.iter().map(|p| p.sent).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        violations,
        values,
        ledgers: passes.into_iter().map(|p| p.ledger).collect(),
        spans: rec,
    }
}

/// Writes the run's spans as Chrome-trace JSON inside the build directory,
/// which `.gitignore` covers.
fn write_trace(run: &Run) {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let path = target
        .join("perf")
        .join(format!("{}.trace.json", run.workload.name()));
    let written = std::fs::create_dir_all(target.join("perf"))
        .and_then(|()| std::fs::write(&path, run.spans.chrome_json().render()));
    match written {
        Ok(()) => eprintln!(
            "trace: {} spans -> {}",
            run.spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
}

/// One line per metric: `workload metric value unit n=<samples>`.
fn print_lines(run: &Run) {
    let w = run.workload.name();
    for v in &run.values {
        // Two passes of one scene differ by more than tracing costs.
        let paired = v.name.ends_with("overhead_frac") && v.name.starts_with("trace.");
        let note = match v.n {
            _ if !paired => "",
            0 => " not measured on this workload",
            n if n < MIN_PASSES as u64 => " unresolved: fewer than 3 rounds",
            _ => "",
        };
        println!("{w} {} {} {} n={}{note}", v.name, v.value, v.unit, v.n);
    }
    let drift = run
        .values
        .iter()
        .find(|v| v.name == "costmodel.drift_max_ratio");
    if let Some(d) = drift.filter(|d| d.value > 2.0) {
        println!(
            "{w} DRIFT one work token costs {:.1}x more on one path than on another",
            d.value
        );
    }
    for v in &run.violations {
        println!("{w} CHECK FAILED {v}");
    }
}

/// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`: the contract's
/// result object, or with `entry` a run's part of the `--out` document, which
/// adds the samples behind each median and the ledger of each pass.
fn run_json(run: &Run, entry: bool) -> String {
    let metrics = run.values.iter().map(|v| {
        let mut cell = vec![
            ("value".to_string(), Json::Num(v.value)),
            ("unit".to_string(), Json::Str(v.unit.into())),
        ];
        if entry {
            cell.push(("n".to_string(), Json::Int(v.n)));
            cell.push((
                "passes".to_string(),
                Json::Arr(v.samples.iter().copied().map(Json::Num).collect()),
            ));
        }
        (v.name.to_string(), Json::Obj(cell))
    });
    let ledgers = run
        .ledgers
        .iter()
        .map(|l| Json::Arr(l.numbers().into_iter().map(Json::Num).collect()));
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}{}}}",
        run.correct(),
        run.attempted,
        run.failed,
        Json::Obj(metrics.collect()).render(),
        if entry {
            format!(",\"ledgers\":{}", Json::Arr(ledgers.collect()).render())
        } else {
            String::new()
        }
    )
}

/// One workload's run as its process reported it: whether every check
/// passed, and its entry in the `--out` document.
type Reported = (Workload, bool, String);

/// The `--out` document: every run's entry, for `--compare`.
fn document(runs: &[Reported], args: &Args) -> String {
    let body: Vec<String> = runs
        .iter()
        .map(|(w, _, entry)| format!("\"{}\":{entry}", w.name()))
        .collect();
    format!(
        "{{\"seed\":{},\"trace\":{},\"runs\":{{{}}}}}",
        args.seed,
        u8::from(args.trace),
        body.join(",")
    )
}

/// Runs each workload in a process of its own, one at a time: `peak_rss_mb`
/// is then that workload's, and nothing one run leaves behind (heap, caches,
/// a high-water mark) reaches the next.
fn run_set(args: &Args) -> Result<Vec<Reported>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut set = Vec::new();
    for w in workloads {
        let mut child = Command::new(&exe);
        child
            .args(["--entry", "--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(n) = args.passes {
            child.args(["--passes", &n.to_string()]);
        }
        if args.scale == Scale::Smoke {
            child.arg("--smoke");
        }
        let out = child
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let (lines, entry) = text.trim_end().rsplit_once('\n').ok_or(format!(
            "{}: no result ({})",
            w.name(),
            out.status
        ))?;
        println!("{lines}");
        set.push((w, out.status.success(), entry.to_string()));
    }
    Ok(set)
}

fn load_cells(path: &Path) -> Result<Vec<compare::Cell>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::cells_of(&compare::parse(&text)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--aa`: the same commit measured twice must agree with itself.
fn run_aa(args: &Args) -> Result<bool, String> {
    let (first, second) = (run_set(args)?, run_set(args)?);
    let (a, b) = (document(&first, args), document(&second, args));
    println!("A {a}\nB {b}");
    let (a, b) = (compare::parse(&a)?, compare::parse(&b)?);
    let regressed = compare::compare(&compare::cells_of(&a)?, &compare::cells_of(&b)?);
    let mut ok = regressed == 0 && first.iter().chain(&second).all(|r| r.1);
    // Every count depends on the seed, not the clock (a busier box may have
    // cut one set's passes short: compare those both made).
    let runs = |doc: &compare::J| doc.get("runs").map(|r| r.fields().to_vec());
    for ((w, x), (_, y)) in runs(&a).iter().flatten().zip(runs(&b).iter().flatten()) {
        let ledgers = |run: &compare::J| run.get("ledgers").map(|l| l.arr().to_vec());
        let (x, y) = (
            ledgers(x).unwrap_or_default(),
            ledgers(y).unwrap_or_default(),
        );
        if x.is_empty() || x.iter().zip(&y).any(|(p, q)| p != q) {
            println!("{w} CHECK FAILED ledgers differ between the two sets");
            ok = false;
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        return Ok(compare::compare(&load_cells(a)?, &load_cells(b)?) == 0);
    }
    // The system under test is fixed: no knob may reach it from outside.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("LSERVE_"))
    {
        return Err(format!(
            "{} is set; perf pins every knob itself",
            k.to_string_lossy()
        ));
    }
    if args.aa {
        return run_aa(&args);
    }
    let save = |doc: &str| match &args.out {
        Some(path) => std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display())),
        None => Ok(()),
    };
    // One workload runs in this process; several, each in its own.
    let Some(workload) = args.workload else {
        let set = run_set(&args)?;
        let doc = document(&set, &args);
        save(&doc)?;
        println!("{doc}");
        return Ok(set.iter().all(|r| r.1));
    };
    let run = run_workload(workload, &args);
    print_lines(&run);
    if args.trace {
        write_trace(&run);
    }
    let entry = run_json(&run, true);
    save(&document(
        &[(workload, run.correct(), entry.clone())],
        &args,
    ))?;
    println!(
        "{}",
        if args.entry {
            entry
        } else {
            run_json(&run, false)
        }
    );
    Ok(run.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    fn smoke(trace: bool) -> Args {
        Args {
            passes: Some(1),
            trace,
            scale: Scale::Smoke,
            ..parse_args(&[]).unwrap()
        }
    }

    fn names(defs: &[metrics::Def]) -> Vec<&'static str> {
        defs.iter().map(|d| d.name).collect()
    }

    /// One untraced pass plus the output checks at the `--smoke` geometry:
    /// the emitted names are exactly the end-to-end table's.
    fn smoke_plain(w: Workload) {
        let run = run_workload(w, &smoke(false));
        assert!(run.correct(), "{:?}", run.violations);
        assert_eq!(run.failed, 0);
        assert!(run.attempted >= 1);
        let got: Vec<&str> = run.values.iter().map(|v| v.name).collect();
        assert_eq!(got, names(&END_TO_END));
        for v in &run.values {
            // The limits behind goodput are wall-clock literals for the
            // full-size release build; an unoptimised test build misses them.
            let floor = if v.name == "slo_goodput_frac" {
                -1.0
            } else {
                0.0
            };
            assert!(
                v.value.is_finite() && v.value > floor,
                "{} {}",
                v.name,
                v.value
            );
        }
        compare::parse(&run_json(&run, false)).expect("well-formed result");
    }

    // One test per workload, so the harness runs them side by side.
    #[test]
    fn smoke_long_prefill() {
        smoke_plain(Workload::LongPrefill);
    }

    #[test]
    fn smoke_long_decode() {
        smoke_plain(Workload::LongDecode);
    }

    #[test]
    fn smoke_overcommit_swap() {
        smoke_plain(Workload::OvercommitSwap);
    }

    #[test]
    fn smoke_serve_mix_open() {
        smoke_plain(Workload::ServeMixOpen);
    }

    /// The traced run: every probe, one round of observed passes, the
    /// cache-on pass, a well-formed trace, and exactly the per-layer table's
    /// names.
    #[test]
    fn smoke_traced_run_and_probes() {
        let run = run_workload(Workload::OvercommitSwap, &smoke(true));
        assert!(run.correct(), "{:?}", run.violations);
        let got: Vec<&str> = run.values.iter().map(|v| v.name).collect();
        assert_eq!(got, names(&PER_LAYER));
        assert!(run.values.iter().all(|v| v.value.is_finite()));
        let trace = run.spans.chrome_json().render();
        lserve_trace::validate_json(&trace).expect("well-formed trace");
        for name in [
            "\"pass\"",
            "\"sched.step\"",
            "\"handle.drain\"",
            "\"probe.trace.ring_span\"",
        ] {
            assert!(trace.contains(name), "{name}");
        }
        let entry = (run.workload, true, run_json(&run, true));
        let doc = compare::parse(&document(&[entry], &smoke(true))).unwrap();
        assert_eq!(compare::cells_of(&doc).unwrap().len(), PER_LAYER.len());
        let ledgers = doc.get("runs").unwrap().fields()[0].1.get("ledgers");
        assert_eq!(ledgers.unwrap().arr().len(), 2, "one ledger per pass");
    }

    /// `BENCHMARK.json` declares exactly what `perf` emits, within the
    /// contract's limits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../../../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let j = compare::parse(text).unwrap();
        let keys: Vec<&str> = j.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(j.get("run_seconds").unwrap().num(), Some(DEFAULT_SECONDS));
        // The benchmark contract wants a compiled benchmark to be a package
        // of its own inside `paths`: the command builds this directory's.
        let dir = j.get("paths").unwrap().arr()[0].str().unwrap();
        assert!(j
            .get("command")
            .unwrap()
            .arr()
            .iter()
            .any(|c| c.str() == Some(&format!("{dir}/Cargo.toml"))));

        let workloads = j.get("workloads").unwrap().arr();
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        assert_eq!(listed, Workload::ALL.map(Workload::name));
        for w in workloads {
            let why = w.get("why").unwrap().str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let rows = j.get(key).unwrap().arr();
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, def) in rows.iter().zip(table) {
                assert_eq!(row.get("name").unwrap().str(), Some(def.name));
                assert_eq!(
                    row.get("unit").unwrap().str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = if def.better == metrics::Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                assert_eq!(
                    row.get("better").unwrap().str(),
                    Some(better),
                    "{}",
                    def.name
                );
                let bound = row.get("bound").and_then(compare::J::num);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(def.bound),
                    "{}",
                    def.name
                );
                assert!(def.bound <= 0.25);
            }
        }
    }

    /// These sources build twice: as the package here (what `BENCHMARK.json`
    /// runs) and as `lserve-bench`'s auto-discovered `perf` bin (what
    /// `cargo test` runs). This keeps the two from drifting apart: the
    /// package may depend only on what `lserve-bench` depends on, and must
    /// build under the workspace's release profile.
    #[test]
    fn the_package_builds_as_the_workspace_does() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let mut dependencies = 0;
        for line in own.lines().filter(|l| l.starts_with("lserve-")) {
            let name = line.split_whitespace().next().unwrap();
            assert!(
                bench.contains(&format!("{name}.workspace = true")),
                "{name}"
            );
            assert!(line.contains(&format!("/{}\"", &name["lserve-".len()..])));
            dependencies += 1;
        }
        assert!(dependencies > 0);
        let release_profile = |manifest: &'static str| -> Vec<&'static str> {
            let section = manifest.split("[profile.release]").nth(1).unwrap_or("");
            section
                .lines()
                .map(str::trim)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        assert_eq!(release_profile(own), release_profile(root));
    }

    #[test]
    fn arguments() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload long_decode --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::LongDecode), 9, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
