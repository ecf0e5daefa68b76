//! `slsb-benchmark` — end-to-end and per-layer benchmark of the slsbench
//! simulator. See README.md for the workloads, metrics and procedures.
//!
//! ```text
//! slsb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! slsb-benchmark --smoke
//! slsb-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! slsb-benchmark bless
//! ```
//!
//! A run prints human-readable lines and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod compare;
mod layers;
mod spans;
mod speed;
mod stats;
mod workloads;

use compare::{MetricValue, Record, RunReport};
use layers::TracedRun;
use spans::{self_times, Tracer};
use speed::Timed;
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{prepare, RepOut, Size, Sizing, Workload, WorkloadId};

#[global_allocator]
static ALLOC: alloc::TrackingAllocator = alloc::TrackingAllocator;

/// Set-ups per run: at least [`MIN_SETUPS`], and more while they have
/// taken under [`SETUP_BUDGET_S`] in total (a set-up of a few milliseconds
/// is mostly timer and cache noise; hundreds of them give a steady
/// median), up to [`MAX_SETUPS`]. `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1001;
const SETUP_BUDGET_S: f64 = 1.0;

/// Timed reps per run at least, even when they overrun `--seconds`.
const MIN_REPS: usize = 3;

/// Set-up seconds between two samples of the host's speed.
const SPEED_EVERY_S: f64 = 0.1;

/// Where the traced pass writes its spans (relative to the working
/// directory).
const TRACE_FILE: &str = "slsb-benchmark-trace.json";

const USAGE: &str = "usage:
  slsb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  slsb-benchmark --smoke
  slsb-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]
  slsb-benchmark bless
workloads: paper_repro fleet_zipf faulted_retry trace_record trace_explore";

struct RunArgs {
    id: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut id = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                id = Some(
                    WorkloadId::from_name(v).ok_or(format!("unknown workload {v:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => return Err(format!("bad seconds {v:?}")),
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v:?} (0 or 1)")),
                };
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let id = id.ok_or(format!("--workload is required\n{USAGE}"))?;
    Ok(RunArgs {
        id,
        seed: seed.unwrap_or(id.default_seed()),
        seconds,
        trace,
        out,
    })
}

/// What a batch of timed reps produced.
#[derive(Default)]
struct Reps {
    /// Host seconds of every timed rep.
    walls: Vec<f64>,
    /// The phases of every correct rep (see [`RepOut::phases`]); a rep
    /// that has none is one phase.
    phases: Vec<Vec<Timed>>,
    failed: u64,
    last: Option<RepOut>,
}

impl Reps {
    /// Seconds of one rep, as `seconds` reads a phase: the median over
    /// reps, taken phase by phase and summed when reps are made of phases.
    /// A slow spell of the host that covers part of one rep then moves none
    /// of the medians.
    fn rep_seconds(&self, seconds: fn(Timed) -> f64) -> f64 {
        let n = self.phases.first().map_or(0, Vec::len);
        if n == 0 || self.phases.iter().any(|p| p.len() != n) {
            return median(&self.walls);
        }
        (0..n)
            .map(|j| median(&self.phases.iter().map(|p| seconds(p[j])).collect::<Vec<_>>()))
            .sum()
    }

    /// Median host speed over every phase.
    fn speed(&self) -> f64 {
        median(&self.phases.iter().flatten().map(|p| p.factor).collect::<Vec<_>>())
    }
}

/// Checks one rep's outputs: identical to the first correct rep's, and to
/// the committed digests when the run is at the workload's default seed.
struct Expect {
    id: WorkloadId,
    reference: Option<Vec<(String, u64)>>,
    golden: Option<BTreeMap<(String, String), u64>>,
}

impl Expect {
    fn check(&mut self, out: &RepOut) -> Result<(), String> {
        if let Some(g) = &self.golden {
            workloads::check_golden(self.id, &out.digests, g)?;
        }
        match &self.reference {
            Some(r) if *r != out.digests => {
                Err("outputs differ from the first rep's".to_string())
            }
            Some(_) => Ok(()),
            None => {
                self.reference = Some(out.digests.clone());
                Ok(())
            }
        }
    }
}

/// Closed reps until `budget` has passed (and at least [`MIN_REPS`]).
fn timed_reps(
    w: &mut dyn Workload,
    budget: Duration,
    expect: &mut Expect,
    t: &mut Tracer,
    reps: &mut Reps,
) {
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_REPS || start.elapsed() < budget {
        t.context(expect.id.name(), Some(reps.walls.len() as u32));
        let (out, timed) = Timed::run(|| t.span("rep", |t| w.rep(t)));
        reps.walls.push(timed.host_s);
        match out.and_then(|o| expect.check(&o).map(|()| o)) {
            Ok(o) => {
                reps.phases.push(if o.phases.is_empty() {
                    vec![timed]
                } else {
                    o.phases.clone()
                });
                reps.last = Some(o);
            }
            Err(e) => {
                eprintln!("{}: rep {}: {e}", expect.id.name(), reps.walls.len());
                reps.failed += 1;
            }
        }
        i += 1;
    }
}

fn metric(unit: &str, value: f64) -> MetricValue {
    MetricValue {
        value,
        unit: unit.to_string(),
    }
}

fn run(args: &RunArgs) -> Result<RunReport, String> {
    let id = args.id;
    let mut t = Tracer::new(args.trace);
    let at_default = args.seed == id.default_seed();
    println!(
        "workload      : {} (seed {}{}, 1 worker, {} core(s))",
        id.name(),
        args.seed,
        if at_default { ", default" } else { "" },
        workloads::nproc()
    );
    let sizing = Sizing::find(id, args.seed, Size::Full)?;
    if id == WorkloadId::PaperRepro {
        let err = workloads::fig4_max_err_pct(args.seed);
        println!("fig4_max_err_pct : {err:.4} %");
        println!("preset scale  : {:.4}", sizing.horizon);
        if at_default && err > 0.30 {
            return Err(format!(
                "Figure 4 request counts off by {err:.3}% (> 0.30%)"
            ));
        }
    }

    // Each set-up is rescaled by the host speed last sampled before it.
    speed::warm_up();
    let mut setups: Vec<Timed> = Vec::new();
    let (mut spent, mut sampled_at, mut factor) = (0.0, f64::NEG_INFINITY, 1.0);
    let mut prepared = None;
    while setups.len() < MIN_SETUPS || (setups.len() < MAX_SETUPS && spent < SETUP_BUDGET_S) {
        if spent - sampled_at >= SPEED_EVERY_S {
            factor = speed::factor();
            sampled_at = spent;
        }
        drop(prepared.take());
        t.context(id.name(), None);
        let t0 = Instant::now();
        let w = t.span("setup", |t| prepare(id, args.seed, sizing, t))?;
        let host_s = t0.elapsed().as_secs_f64();
        setups.push(Timed { host_s, factor });
        spent += host_s;
        prepared = Some(w);
    }
    let mut w = prepared.expect("at least one set-up");

    // No untimed warm-up: the repeated set-ups have already built every
    // input and cache a rep reads, and a `paper_repro` warm-up would cost
    // a whole rep of several seconds. The first rep's outputs are the
    // reference every later rep must reproduce.
    let mut expect = Expect {
        id,
        reference: None,
        golden: at_default.then(workloads::golden).transpose()?,
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let mut untraced = Reps::default();
    let mut traced = Reps::default();
    alloc::reset_peak();
    if args.trace {
        // Half the budget untraced (the overhead baseline), half traced.
        timed_reps(
            &mut *w,
            budget / 2,
            &mut expect,
            &mut Tracer::new(false),
            &mut untraced,
        );
        timed_reps(&mut *w, budget / 2, &mut expect, &mut t, &mut traced);
    } else {
        timed_reps(
            &mut *w,
            budget,
            &mut expect,
            &mut Tracer::new(false),
            &mut untraced,
        );
    }
    let peak_mb = alloc::peak_bytes() as f64 / 1_048_576.0;

    let attempted = (untraced.walls.len() + traced.walls.len()) as u64;
    let failed = untraced.failed + traced.failed;
    let (q1, q3) = quartiles(&untraced.walls);
    let setup_host: Vec<f64> = setups.iter().map(|s| s.host_s).collect();
    let (setup_q1, setup_q3) = quartiles(&setup_host);
    let setup_s = median(&setups.iter().map(|s| s.reference_s()).collect::<Vec<_>>());
    let wall_s = untraced.rep_seconds(Timed::reference_s);
    println!(
        "host speed    : x{:.3} during set-up, x{:.3} during the reps (reference host = 1)",
        median(&setups.iter().map(|s| s.factor).collect::<Vec<_>>()),
        untraced.speed()
    );
    println!(
        "setup         : {} x, median {:.6} s (q1 {setup_q1:.6}, q3 {setup_q3:.6}); setup_s {setup_s:.6} s",
        setups.len(),
        median(&setup_host)
    );
    println!(
        "reps          : {attempted} timed, {failed} failed; rep {:.6} s (median {:.6}, min {:.6}, q1 {q1:.6}, q3 {q3:.6}); wall_s {wall_s:.6} s",
        untraced.rep_seconds(|p| p.host_s),
        median(&untraced.walls),
        untraced.walls.iter().copied().fold(f64::INFINITY, f64::min)
    );
    println!("peak heap     : {peak_mb:.3} MiB");
    println!(
        "outputs       : {}",
        if at_default {
            "checked against the committed digests"
        } else {
            "checked for invariants and rep-to-rep identity (no committed digests at this seed)"
        }
    );
    let last = traced.last.take().or(untraced.last.take());
    if let Some(sim) = last.as_ref().and_then(|l| l.sim) {
        println!("sim_p99_s         : {}", sim.p99_s);
        println!("sim_success_ratio : {}", sim.success_ratio);
        println!("sim_cost_usd      : {}", sim.cost_usd);
        println!("sim_cold_starts   : {}", sim.cold_starts);
    }

    let mut metrics = BTreeMap::new();
    if args.trace {
        let last = last.ok_or("every timed rep failed")?;
        let work = if last.work.is_empty() {
            w.counted_work()?
        } else {
            last.work
        };
        drop(w);
        let rows = layers::layer_metrics(
            &TracedRun {
                id,
                seed: args.seed,
                wall_untraced: untraced.rep_seconds(|p| p.host_s),
                wall_traced: traced.rep_seconds(|p| p.host_s),
                work: &work,
            },
            &mut t,
        )?;
        for (name, value, unit) in rows {
            metrics.insert(name, metric(unit, value));
        }
        write_trace(id, args.seed, &t, &metrics)?;
    } else {
        metrics.insert("wall_s".to_string(), metric("s", wall_s));
        metrics.insert("setup_s".to_string(), metric("s", setup_s));
        metrics.insert("peak_heap_mb".to_string(), metric("MiB", peak_mb));
    }
    Ok(RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Writes every span (with its self time) and the per-layer metrics.
fn write_trace(
    id: WorkloadId,
    seed: u64,
    t: &Tracer,
    metrics: &BTreeMap<String, MetricValue>,
) -> Result<(), String> {
    #[derive(serde::Serialize)]
    struct TraceFile {
        workload: &'static str,
        seed: u64,
        spans: Vec<spans::Span>,
        metrics: BTreeMap<String, MetricValue>,
    }
    let mut spans = t.spans().to_vec();
    for (s, self_ns) in spans.iter_mut().zip(self_times(t.spans())) {
        s.self_ns = self_ns;
    }
    let doc = TraceFile {
        workload: id.name(),
        seed,
        spans,
        metrics: metrics.clone(),
    };
    let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(TRACE_FILE, json + "\n")
        .map_err(|e| format!("cannot write {TRACE_FILE}: {e}"))?;
    println!(
        "trace         : {} spans written to {TRACE_FILE}",
        t.spans().len()
    );
    Ok(())
}

/// Every workload at tiny size: a rep twice, invariants and identity.
fn smoke() -> Result<(), String> {
    let start = Instant::now();
    for id in WorkloadId::ALL {
        let t0 = Instant::now();
        let mut t = Tracer::new(false);
        let sizing = Sizing::find(id, id.default_seed(), Size::Smoke)?;
        let mut w = prepare(id, id.default_seed(), sizing, &mut t)?;
        let a = w.rep(&mut t).map_err(|e| format!("{}: {e}", id.name()))?;
        let b = w.rep(&mut t).map_err(|e| format!("{}: {e}", id.name()))?;
        if a.digests != b.digests {
            return Err(format!("{}: two reps disagree", id.name()));
        }
        println!(
            "smoke {:<14} ok  {:.3} s",
            id.name(),
            t0.elapsed().as_secs_f64()
        );
    }
    println!("smoke total {:.3} s", start.elapsed().as_secs_f64());
    Ok(())
}

/// Rewrites the committed digests from one rep of every workload at its
/// default seed.
fn bless() -> Result<(), String> {
    let mut text = String::from(
        "# Output digests of one rep of every workload at its default seed.\n\
         # Regenerate with `slsb-benchmark bless` only when outputs change on purpose.\n",
    );
    for id in WorkloadId::ALL {
        let mut t = Tracer::new(false);
        let sizing = Sizing::find(id, id.default_seed(), Size::Full)?;
        let mut w = prepare(id, id.default_seed(), sizing, &mut t)?;
        let out = w.rep(&mut t)?;
        text += &workloads::render_golden(id, &out.digests);
        println!("blessed {}", id.name());
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/digests.txt");
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a value")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a, b] = &files[..] else {
        return Err(format!("compare needs two result files\n{USAGE}"));
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let bench = compare::BenchmarkFile::parse(&read(&bench)?)?;
    let a = compare::parse_records(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let b = compare::parse_records(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    let (text, bad) = compare::compare(&bench, &a, &b)?;
    print!("{text}");
    Ok(bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match cmd_compare(&args[1..]) {
            Ok(false) => Ok(()),
            Ok(true) => return ExitCode::from(2),
            Err(e) => Err(e),
        },
        Some("bless") => bless(),
        Some("--smoke") => smoke(),
        _ => parse_run_args(&args).and_then(|a| {
            let report = run(&a)?;
            let line = serde_json::to_string(&report).map_err(|e| e.to_string())?;
            if let Some(path) = &a.out {
                let record = Record {
                    workload: a.id.name().to_string(),
                    seed: a.seed,
                    trace: u8::from(a.trace),
                    result: report,
                };
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot open {path}: {e}"))?;
                let rec = serde_json::to_string(&record).map_err(|e| e.to_string())?;
                writeln!(f, "{rec}").map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            println!("{line}");
            Ok(())
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("slsb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let bench = compare::BenchmarkFile::parse(BENCHMARK_JSON).unwrap();
        let declared: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);

        // End-to-end: the names and units `run` inserts with --trace 0.
        let e2e: Vec<(&str, &str)> = bench
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let mut emitted = vec![("peak_heap_mb", "MiB"), ("setup_s", "s"), ("wall_s", "s")];
        let mut sorted = e2e.clone();
        sorted.sort_unstable();
        emitted.sort_unstable();
        assert_eq!(sorted, emitted);
        for m in &bench.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }

        // Per-layer: the table the traced pass emits, in the same order.
        let layer: Vec<(String, String, String)> = bench
            .per_layer
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone(), m.better.clone()))
            .collect();
        let table: Vec<(String, String, String)> = layers::layer_metric_table()
            .into_iter()
            .map(|(n, u, b)| {
                let b = if b == layers::Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                (n, u.to_string(), b.to_string())
            })
            .collect();
        assert_eq!(layer, table);
    }

    #[test]
    fn rep_seconds_takes_medians_phase_by_phase() {
        let at = |host_s: f64| Timed {
            host_s,
            factor: 1.0,
        };
        // A slow spell hits the first phase of one rep and the second of
        // another: the median rep is slow, every phase median is not.
        let reps = Reps {
            walls: vec![6.0, 6.0, 2.0],
            phases: vec![
                vec![at(5.0), at(1.0)],
                vec![at(1.0), at(5.0)],
                vec![at(1.0), at(1.0)],
            ],
            ..Reps::default()
        };
        assert_eq!(reps.rep_seconds(|p| p.host_s), 2.0);
        // Each phase is rescaled by the speed sampled before it: a phase
        // that ran twice as long at half the speed counts the same.
        let rescaled = Reps {
            walls: vec![3.0, 2.0, 2.0],
            phases: vec![
                vec![Timed {
                    host_s: 2.0,
                    factor: 0.5,
                }],
                vec![at(1.0)],
                vec![Timed {
                    host_s: 4.0,
                    factor: 0.25,
                }],
            ],
            ..Reps::default()
        };
        assert_eq!(rescaled.rep_seconds(Timed::reference_s), 1.0);
        assert_eq!(rescaled.rep_seconds(|p| p.host_s), 2.0);
        assert_eq!(rescaled.speed(), 0.5);
        // Every rep failed: the median host time of the attempts.
        let failed = Reps {
            walls: vec![1.0, 5.0, 2.0],
            ..Reps::default()
        };
        assert_eq!(failed.rep_seconds(Timed::reference_s), 2.0);
    }

    /// The settings of a manifest's `[profile.release]` table, without
    /// comments and blank lines.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn the_benchmark_builds_with_the_root_release_profile() {
        // A package of its own has its own profile; it must not drift from
        // the one the repository's binaries are built with.
        let ours = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(ours, root);
    }

    #[test]
    fn every_workload_runs_its_checks_at_smoke_size() {
        smoke().unwrap();
    }

    #[test]
    fn run_args_parse_the_run_flags() {
        let strs = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = parse_run_args(&strs(&[
            "--workload",
            "fleet_zipf",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.id, a.seed, a.seconds, a.trace),
            (WorkloadId::FleetZipf, 9, 10.0, true)
        );
        let a = parse_run_args(&strs(&["--workload", "paper_repro"])).unwrap();
        assert_eq!((a.seed, a.trace), (127, false));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "fleet_zipf", "--trace", "2"],
            &["--workload", "fleet_zipf", "--seconds", "0"],
            &["--workload", "fleet_zipf", "--bogus"],
        ] {
            assert!(parse_run_args(&strs(bad)).is_err(), "{bad:?}");
        }
    }
}
