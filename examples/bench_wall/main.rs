//! `bench_wall` — the repo's two-clock benchmark: what the simulator
//! costs on the host (ops/s, CPU per op, RSS, set-up) and what the
//! simulated hardware costs on the virtual clock, on four workloads,
//! end to end and layer by layer. See `README.md` beside this file.
//!
//! ```text
//! bench_wall                          every workload: end-to-end, then the traced pass; writes result.json
//! bench_wall --workload W --seed N --seconds S --trace 0|1
//!                                     one workload, one JSON line (the form `BENCHMARK.json`'s command takes)
//! bench_wall --check                  names emitted == names in BENCHMARK.json, at 1/50 size
//! bench_wall --aa                     the end-to-end set twice; fails if the two disagree beyond the bounds
//! bench_wall --smoke                  every workload at 1/50 size, one repetition
//! ```
//!
//! Every repetition is a fresh child process of this executable
//! (`--child`), one at a time: after a first machine is freed, glibc
//! serves later arena `calloc`s from reused heap and must zero them,
//! which turns a 2 ms build into 0.9 s and 6 MB of RSS into 655 MB.

mod gen;
mod host;
mod probes;
mod runner;
mod spans;
mod spec;
mod stats;
mod workloads;

use host::Report;
use obs::json::{self, Value};
use runner::{Session, Shared, Untraced};
use spec::{Better, CHAOS, END_TO_END, PER_LAYER, SMALL, STENCIL, WORKLOADS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    flags: BTreeSet<String>,
    values: BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        const FLAGS: [&str; 5] = ["--check", "--aa", "--smoke", "--traced", "--analyze"];
        const VALUES: [&str; 8] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--out",
            "--child",
            "--div",
            "--obs",
        ];
        let mut a = Args {
            flags: BTreeSet::new(),
            values: BTreeMap::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            if FLAGS.contains(&arg.as_str()) {
                a.flags.insert(arg);
            } else if VALUES.contains(&arg.as_str()) {
                let v = it.next().ok_or(format!("{arg} needs a value"))?;
                a.values.insert(arg, v);
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(a)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }
}

/// `<target dir>/bench_wall/`, beside the profile directory this
/// executable was built into: always inside a directory git ignores.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let target = exe
        .ancestors()
        .find(|p| p.join("CACHEDIR.TAG").exists())
        .unwrap_or_else(|| exe.parent().expect("an executable lives in a directory"));
    target.join("bench_wall")
}

fn main() -> ExitCode {
    let started = Instant::now();
    host::scrub_env();
    // counted before pinning, which leaves this process one
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    if let Err(e) = host::pin_to_one_cpu() {
        eprintln!("bench_wall: {e}");
        return ExitCode::from(2);
    }
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_wall: {e}");
            return ExitCode::from(2);
        }
    };
    match run(started, nproc, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_wall: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(started: Instant, nproc: usize, args: &Args) -> Result<bool, String> {
    let seed = args.num("--seed", spec::DEFAULT_SEED)?;
    if let Some(what) = args.values.get("--child") {
        return child(started, args, what, seed);
    }
    let seconds = args.num("--seconds", spec::DEFAULT_SECONDS as f64)?;
    if let Some(name) = args.values.get("--workload") {
        let w = spec::workload_index(name).ok_or(format!("unknown workload {name:?}"))?;
        let trace = args.num("--trace", 0u8)?;
        return Ok(driver_line(
            &Session { seed, div: 1 },
            w,
            seconds,
            trace != 0,
        ));
    }
    if args.flags.contains("--smoke") {
        return Ok(smoke(&Session { seed, div: 50 }));
    }
    if args.flags.contains("--check") {
        return check(&Session { seed, div: 50 });
    }
    if args.flags.contains("--aa") {
        return Ok(aa(&Session { seed, div: 1 }, seconds));
    }
    let out = args
        .values
        .get("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir().join("result.json"));
    full(&Session { seed, div: 1 }, nproc, seconds, &out)
}

fn child(started: Instant, args: &Args, what: &str, seed: u64) -> Result<bool, String> {
    let traced = args.flags.contains("--traced");
    let obs = match args.values.get("--obs") {
        Some(s) => workloads::ObsMode::parse(s).ok_or(format!("unknown obs mode {s:?}"))?,
        None if traced => workloads::ObsMode::Spans,
        None => workloads::ObsMode::Off,
    };
    let c = workloads::Child {
        started,
        seed,
        div: args.num("--div", 1usize)?.max(1),
        obs,
        spans: traced.then(spans::Spans::new),
        analyze: args.flags.contains("--analyze"),
        out_dir: out_dir(),
    };
    let report = match what {
        "small_rma_mix" => workloads::small_rma_mix(&c),
        "large_pipeline" => workloads::large_pipeline(&c),
        "stencil_scale64" => workloads::stencil_scale64(&c),
        "chaos_campaign" => workloads::chaos_campaign(&c),
        "stencil_validate" => workloads::stencil_validate(&c),
        other => match other.strip_prefix("probe.") {
            Some(p) => probes::run(p, c.div),
            None => return Err(format!("unknown child {other:?}")),
        },
    };
    println!("{}", report.to_json());
    Ok(true)
}

// ------------------------------------------------- one JSON line mode

/// Fewest untraced repetitions behind the per-layer numbers of a
/// `--trace 1` run: they carry no bound, so fewer than the end-to-end
/// run needs will do.
fn layer_min_reps(w: usize) -> usize {
    if w == STENCIL {
        1
    } else {
        2
    }
}

fn driver_line(s: &Session, w: usize, seconds: f64, trace: bool) -> bool {
    let mut errors;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let focus;
    if trace {
        focus = s.untraced(w, seconds / 3.0, layer_min_reps(w));
        let small_off = if w == SMALL {
            None
        } else {
            Some(s.untraced(SMALL, 0.0, layer_min_reps(SMALL)))
        };
        let shared = s.shared(small_off.as_ref().unwrap_or(&focus));
        let (layers, errs) = runner::per_layer(&focus, &shared);
        errors = [focus.errors.clone(), shared.errors, errs].concat();
        if let Some(so) = small_off {
            errors.extend(so.errors);
        }
        for l in &PER_LAYER {
            metrics.push((l.name, layers.get(l.name).map_or(0.0, |(v, _)| *v), l.unit));
        }
    } else {
        focus = s.untraced(w, seconds, spec::MIN_REPS);
        errors = focus.errors.clone();
        match focus.end_to_end() {
            Some(e2e) => {
                for ((name, q), e) in e2e.iter().zip(&END_TO_END) {
                    metrics.push((name, q.median, e.unit));
                }
            }
            None => errors.push("no repetition measured anything".into()),
        }
    }
    for e in &errors {
        eprintln!("bench_wall: {e}");
    }
    if metrics.is_empty() {
        return false;
    }
    let mut line = String::new();
    let mut o = json::ObjWriter::new(&mut line);
    o.bool_field("correct", errors.is_empty())
        .u64_field("attempted", focus.attempted().max(1))
        .u64_field("failed", focus.failed());
    let ms = o.raw_field("metrics");
    let mut mo = json::ObjWriter::new(ms);
    for (name, value, unit) in metrics {
        let field = mo.raw_field(name);
        let mut fo = json::ObjWriter::new(field);
        // every digit as measured: the writer prints the shortest text
        // that reads back to the same f64
        fo.num_field("value", value).str_field("unit", unit);
        fo.finish();
    }
    mo.finish();
    o.finish();
    println!("{line}");
    true
}

// ---------------------------------------------------------- printing

fn print_end_to_end(run: &Untraced) {
    let wl = &WORKLOADS[run.workload];
    println!(
        "\n== {} — end to end, {} untraced repetitions",
        wl.name,
        run.reps.len()
    );
    println!("   runs: {}", wl.per_rep);
    println!("   why:  {}", wl.why);
    println!("   op  = {}", wl.op);
    println!(
        "   ops attempted {} / failed {}",
        run.attempted(),
        run.failed()
    );
    let Some(e2e) = run.end_to_end() else {
        println!("   (no repetition measured anything)");
        return;
    };
    println!(
        "   {:<24} {:>14} {:>14} {:>14}  {:<6} {:<7} n",
        "metric", "median", "q1", "q3", "unit", "better"
    );
    for ((name, q), e) in e2e.iter().zip(&END_TO_END) {
        println!(
            "   {:<24} {:>14.6} {:>14.6} {:>14.6}  {:<6} {:<7} {}",
            name,
            q.median,
            q.q1,
            q.q3,
            e.unit,
            e.better.name(),
            q.n
        );
    }
}

fn print_layers(
    title: &str,
    layers: &BTreeMap<&'static str, (f64, u64)>,
    pick: impl Fn(&spec::Layer) -> bool,
) {
    println!("\n== {title}");
    println!(
        "   {:<40} {:>16}  {:<6} {:<7} n",
        "metric", "value", "unit", "better"
    );
    for l in PER_LAYER.iter().filter(|l| pick(l)) {
        let value = match layers.get(l.name) {
            Some((_, 0)) => format!("{:>16}", "n/a"),
            Some((v, _)) => format!("{v:>16.6}"),
            None => format!("{:>16}", "MISSING"),
        };
        let n = layers.get(l.name).map_or(0, |(_, n)| *n);
        println!(
            "   {:<40} {value}  {:<6} {:<7} {n}",
            l.name,
            l.unit,
            l.better.name()
        );
    }
}

fn print_span_rollup(workload: &str, traced: &Report) {
    println!(
        "\n== {workload} — host spans of the traced repetition (self = span minus its children)"
    );
    println!(
        "   {:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (key, total) in &traced.values {
        let Some(name) = key
            .strip_prefix("span.")
            .and_then(|k| k.strip_suffix(".total_ms"))
        else {
            continue;
        };
        let self_ms = traced.get(&format!("span.{name}.self_ms")).unwrap_or(0.0);
        let n = traced.samples.get(key).copied().unwrap_or(0);
        println!("   {name:<28} {n:>8} {total:>12.3} {self_ms:>12.3}");
    }
}

fn report_errors(errors: &[String]) -> bool {
    for e in errors {
        eprintln!("bench_wall: {e}");
    }
    errors.is_empty()
}

// --------------------------------------------------------- full mode

fn full(s: &Session, nproc: usize, seconds: f64, out: &std::path::Path) -> Result<bool, String> {
    println!(
        "bench_wall: seed {}, {seconds} s of untraced repetitions per workload, nproc {nproc} (children pinned to one CPU)",
        s.seed
    );
    let runs: Vec<Untraced> = (0..WORKLOADS.len())
        .map(|w| {
            let run = s.untraced(w, seconds, spec::MIN_REPS);
            print_end_to_end(&run);
            run
        })
        .collect();
    let shared = s.shared(&runs[SMALL]);
    let mut errors = shared.errors.clone();
    let mut doc = String::new();
    let mut top = json::ObjWriter::new(&mut doc);
    top.u64_field("seed", s.seed)
        .num_field("seconds", seconds)
        .u64_field("nproc", nproc as u64);
    let wls = top.raw_field("workloads");
    let mut wo = json::ObjWriter::new(wls);
    let mut shared_layers = BTreeMap::new();
    for run in &runs {
        let name = WORKLOADS[run.workload].name;
        let (layers, errs) = runner::per_layer(run, &shared);
        errors.extend(run.errors.iter().cloned().chain(errs));
        print_layers(
            &format!("{name} — per layer, this workload's own"),
            &layers,
            |l| l.from == spec::Source::Each,
        );
        print_span_rollup(name, &shared.traced[run.workload]);
        write_workload_json(wo.raw_field(name), run, &layers);
        shared_layers = layers;
    }
    wo.finish();
    print_layers(
        "per layer — probes and traced passes (one value per run)",
        &shared_layers,
        |l| l.from != spec::Source::Each,
    );
    let shared_json = top.raw_field("per_layer_shared");
    write_layers_json(shared_json, &shared_layers, |l| {
        l.from != spec::Source::Each
    });
    top.finish();
    std::fs::create_dir_all(out.parent().unwrap_or(std::path::Path::new(".")))
        .and_then(|()| std::fs::write(out, doc + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "\nresult -> {}; host traces -> {}/trace_<workload>.json",
        out.display(),
        out_dir().display()
    );
    check_separation(&runs, &shared, &mut errors);
    Ok(report_errors(&errors))
}

fn write_layers_json(
    out: &mut String,
    layers: &BTreeMap<&'static str, (f64, u64)>,
    pick: impl Fn(&spec::Layer) -> bool,
) {
    let mut o = json::ObjWriter::new(out);
    for l in PER_LAYER.iter().filter(|l| pick(l)) {
        if let Some((v, n)) = layers.get(l.name) {
            let f = o.raw_field(l.name);
            let mut fo = json::ObjWriter::new(f);
            fo.num_field("value", *v)
                .str_field("unit", l.unit)
                .u64_field("n", *n);
            fo.finish();
        }
    }
    o.finish();
}

fn write_workload_json(
    out: &mut String,
    run: &Untraced,
    layers: &BTreeMap<&'static str, (f64, u64)>,
) {
    let mut o = json::ObjWriter::new(out);
    o.u64_field("attempted", run.attempted())
        .u64_field("failed", run.failed());
    let e = o.raw_field("end_to_end");
    let mut eo = json::ObjWriter::new(e);
    for ((name, q), spec) in run.end_to_end().unwrap_or_default().iter().zip(&END_TO_END) {
        let f = eo.raw_field(name);
        let mut fo = json::ObjWriter::new(f);
        fo.num_field("median", q.median)
            .num_field("q1", q.q1)
            .num_field("q3", q.q3)
            .u64_field("n", q.n as u64)
            .str_field("unit", spec.unit);
        fo.finish();
    }
    eo.finish();
    write_layers_json(o.raw_field("per_layer"), layers, |l| {
        l.from == spec::Source::Each
    });
    o.finish();
}

/// The issue's acceptance check that the workloads separate the
/// layers at all; if they do not, they must be resized.
fn check_separation(runs: &[Untraced], shared: &Shared, errors: &mut Vec<String>) {
    let each: Vec<Report> = runs
        .iter()
        .map(|r| r.each_layer(&shared.traced[r.workload]))
        .collect();
    // a missing value reads NaN and fails every comparison below
    let get = |w: usize, k: &str| each[w].get(k).unwrap_or(f64::NAN);
    let probe = |k: &str| shared.values.get(k).unwrap_or(f64::NAN);
    let sys = "sim-core.sys_share";
    let (stencil, small, large) = (get(STENCIL, sys), get(SMALL, sys), get(spec::LARGE, sys));
    let ordered = stencil > small && small > large;
    if !ordered {
        errors.push(format!(
            "{sys} does not order stencil_scale64 > small_rma_mix > large_pipeline: {stencil} / {small} / {large}"
        ));
    }
    let ev = "sim-core.events_per_op";
    let (large, small) = (get(spec::LARGE, ev), get(SMALL, ev));
    let apart = large >= 20.0 * small;
    if !apart {
        errors.push(format!(
            "{ev}: large_pipeline {large} is not 20x small_rma_mix {small}"
        ));
    }
    let (h2, h64) = (
        probe("sim-core.handoff2_host_us"),
        probe("sim-core.handoff64_host_us"),
    );
    let stampede = h64 > h2;
    if !stampede {
        errors.push(format!(
            "sim-core.handoff64_host_us {h64} is not above handoff2 {h2}"
        ));
    }
}

// ------------------------------------------------------------ --smoke

fn smoke(s: &Session) -> bool {
    let mut ok = true;
    for w in 0..WORKLOADS.len() {
        let run = s.untraced(w, 0.0, 1);
        print_end_to_end(&run);
        ok &= report_errors(&run.errors);
    }
    ok
}

// ------------------------------------------------------------ --check

fn check(s: &Session) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    // name -> "unit better bound" as BENCHMARK.json states them
    let listed_in = |key: &str| -> Result<BTreeMap<String, String>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json: no {key} list"))?
            .iter()
            .map(|e| {
                let text = |k: &str| e.get(k).and_then(Value::as_str).unwrap_or("");
                let name = e
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or(format!("{key}: entry without a name"))?;
                let bound = e
                    .get("bound")
                    .and_then(Value::as_f64)
                    .map_or(String::new(), |b| b.to_string());
                Ok((
                    name.to_string(),
                    format!("{} {} {bound}", text("unit"), text("better")),
                ))
            })
            .collect()
    };
    let stated: BTreeMap<&str, String> = END_TO_END
        .iter()
        .map(|e| {
            (
                e.name,
                format!("{} {} {}", e.unit, e.better.name(), e.bound),
            )
        })
        .chain(
            PER_LAYER
                .iter()
                .map(|l| (l.name, format!("{} {} ", l.unit, l.better.name()))),
        )
        .collect();
    let mut errors = Vec::new();
    let mut emitted_layers = BTreeSet::new();
    let mut emitted_e2e = BTreeSet::new();
    let runs: Vec<Untraced> = (0..WORKLOADS.len())
        .map(|w| s.untraced(w, 0.0, 2))
        .collect();
    let shared = s.shared(&runs[SMALL]);
    errors.extend(shared.errors.iter().cloned());
    for run in &runs {
        errors.extend(run.errors.iter().cloned());
        let (layers, errs) = runner::per_layer(run, &shared);
        errors.extend(errs);
        emitted_layers.extend(layers.keys().map(|k| k.to_string()));
        emitted_e2e.extend(
            run.end_to_end()
                .unwrap_or_default()
                .iter()
                .map(|(n, _)| n.to_string()),
        );
    }
    let emitted_workloads: BTreeSet<String> =
        WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    for (what, emitted, listed) in [
        ("workloads", &emitted_workloads, listed_in("workloads")?),
        ("end_to_end", &emitted_e2e, listed_in("end_to_end")?),
        ("per_layer", &emitted_layers, listed_in("per_layer")?),
    ] {
        for name in emitted.iter().filter(|n| !listed.contains_key(*n)) {
            errors.push(format!(
                "{what}: the binary emits {name}, BENCHMARK.json does not list it"
            ));
        }
        for (name, theirs) in &listed {
            match (emitted.contains(name), stated.get(name.as_str())) {
                (false, _) => errors.push(format!(
                    "{what}: BENCHMARK.json lists {name}, the binary does not emit it"
                )),
                (true, Some(ours)) if ours != theirs => errors.push(format!(
                    "{what}: {name} is {ours:?} here and {theirs:?} in BENCHMARK.json"
                )),
                _ => {}
            }
        }
        for name in emitted.iter().filter(|n| !spec::name_ok(n)) {
            errors.push(format!(
                "{what}: {name:?} is not made of letters, digits, '_', '.', '-'"
            ));
        }
    }
    if doc.get("run_seconds").and_then(Value::as_f64) != Some(spec::DEFAULT_SECONDS as f64) {
        errors.push(format!(
            "BENCHMARK.json run_seconds is not {}",
            spec::DEFAULT_SECONDS
        ));
    }
    let ok = report_errors(&errors);
    println!(
        "check: {} workloads, {} end-to-end and {} per-layer names {}",
        emitted_workloads.len(),
        emitted_e2e.len(),
        emitted_layers.len(),
        if ok {
            "match BENCHMARK.json; every byte and determinism check passed"
        } else {
            "— FAILED"
        }
    );
    Ok(ok)
}

// --------------------------------------------------------------- --aa

/// Two sets of runs of the same code, back to back: the benchmark's
/// own noise floor, per metric and workload, against its own bounds.
fn aa(s: &Session, seconds: f64) -> bool {
    let mut ok = true;
    let sets: Vec<Vec<Untraced>> = (0..2)
        .map(|_| {
            (0..WORKLOADS.len())
                .map(|w| s.untraced(w, seconds, spec::MIN_REPS))
                .collect()
        })
        .collect();
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7} {:>9}",
        "workload", "metric", "median A", "median B", "B vs A", "bound", "spread A"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        let name = WORKLOADS[a.workload].name;
        ok &= report_errors(&a.errors) & report_errors(&b.errors);
        for e in &END_TO_END {
            let (va, vb) = (a.end_to_end_samples(e.name), b.end_to_end_samples(e.name));
            if va.is_empty() || vb.is_empty() {
                ok = false;
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            // positive = B is worse than A
            let worse = if e.better == Better::Lower {
                mb / ma - 1.0
            } else {
                ma / mb - 1.0
            };
            let within = worse.abs() <= e.bound;
            ok &= within;
            println!(
                "{:<18} {:<22} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}% {:>8.2}%{}",
                name,
                e.name,
                ma,
                mb,
                worse * 100.0,
                e.bound * 100.0,
                stats::iqr_share(&va) * 100.0,
                if within { "" } else { "  <-- beyond the bound" }
            );
        }
        // the virtual clock and the engine's counts admit no noise at
        // all; chaos_campaign holds no engine to count, and its summed
        // simulated time is known to waver (see `check_determinism`)
        let exact: &[&str] = if a.workload == CHAOS {
            &["ops", "typed_failed"]
        } else {
            &["sim_ps", "events", "wakeups", "ops"]
        };
        for key in exact {
            let (xa, xb) = (a.reps[0].get(key), b.reps[0].get(key));
            if xa != xb || xa.is_none() {
                ok = false;
                println!("{name:<18} {key:<22} {xa:?} != {xb:?}  <-- must be identical");
            }
        }
    }
    ok
}
