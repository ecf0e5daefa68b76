//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro list                 # show all experiment ids
//! repro fig5                 # regenerate one artifact (full scale)
//! repro all --scale 0.1      # everything, at 10% workload duration
//! repro table1 --seed 7 --out results/
//! ```
//!
//! Markdown goes to stdout; each table is also written as CSV under the
//! output directory (default `results/`).

use slsb_bench::cli::extract_log_level;
use slsb_bench::experiments::{run_experiment_jobs, ReproConfig};
use slsb_bench::outln;
use slsb_core::{ExperimentId, Jobs, Scenario};
use slsb_obs::{info_log, set_log_level};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    targets: Vec<ExperimentId>,
    scenarios: Vec<PathBuf>,
    cfg: ReproConfig,
    out: Option<PathBuf>,
    jobs: Jobs,
}

fn usage() -> String {
    let ids: Vec<&str> = ExperimentId::ALL.iter().map(|e| e.slug()).collect();
    format!(
        "usage: repro <experiment|all|list> [--scale F] [--seed N] [--out DIR] [--jobs N] [--log-level L]\n\
                repro run-scenario <file.json> [...]\n\
         --jobs N runs each experiment's replays on N workers (default: all\n\
         cores; output is identical to --jobs 1 for any N)\n\
         --log-level <quiet|info|debug> controls progress chatter on stderr\n\
         experiments: {}",
        ids.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    set_log_level(extract_log_level(&mut argv)?);
    let mut args = argv.into_iter();
    let mut targets = Vec::new();
    let mut scenarios = Vec::new();
    let mut cfg = ReproConfig::default();
    let mut out = Some(PathBuf::from("results"));
    let mut jobs = Jobs::available();
    let mut listed = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "list" => listed = true,
            "run-scenario" => {
                let v = args.next().ok_or("run-scenario needs a file path")?;
                scenarios.push(PathBuf::from(v));
            }
            "all" => targets = ExperimentId::ALL.to_vec(),
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                cfg.scale = v.parse().map_err(|_| format!("bad scale: {v}"))?;
                ReproConfig::check_scale(cfg.scale)?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                cfg.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--out" => {
                let v = args.next().ok_or("--out needs a value")?;
                out = Some(PathBuf::from(v));
            }
            "--no-out" => out = None,
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad jobs: {v}"))?;
                if n == 0 {
                    return Err("jobs must be at least 1".into());
                }
                jobs = Jobs::new(n);
            }
            slug => {
                let id = ExperimentId::from_slug(slug)
                    .ok_or_else(|| format!("unknown experiment {slug:?}\n{}", usage()))?;
                targets.push(id);
            }
        }
    }
    if listed {
        for e in ExperimentId::ALL {
            outln!("{:<14} {}", e.slug(), e.title());
        }
        std::process::exit(0);
    }
    if targets.is_empty() && scenarios.is_empty() {
        return Err(usage());
    }
    Ok(Args {
        targets,
        scenarios,
        cfg,
        out,
        jobs,
    })
}

fn run_scenario_file(path: &PathBuf) -> Result<(), String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let scenario = Scenario::from_json(&json).map_err(|e| e.to_string())?;
    let (_run, a) = scenario.run().map_err(|e| e.to_string())?;
    outln!("# Scenario: {}\n", scenario.name);
    outln!("deployment    : {}", scenario.deployment.label());
    outln!("requests      : {}", a.total);
    outln!("success ratio : {:.2}%", a.success_ratio * 100.0);
    match a.latency {
        Some(l) => outln!(
            "latency       : mean {:.3}s, p50 {:.3}s, p99 {:.3}s",
            l.mean,
            l.p50,
            l.p99
        ),
        None => outln!("latency       : (no successful requests)"),
    }
    outln!("cost          : {}", a.cost.total());
    outln!(
        "cold starts   : {} instances, peak {} concurrent\n",
        a.cold_started,
        a.peak_instances
    );
    // Latency timeline as a terminal chart.
    let series: Vec<(f64, Option<f64>)> = a.series.iter().map(|p| (p.at, p.mean_latency)).collect();
    outln!(
        "{}",
        slsb_core::ascii_chart("mean latency per 10s bucket (s)", &series, 8)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    for path in &args.scenarios {
        if let Err(e) = run_scenario_file(path) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if args.targets.is_empty() {
        return ExitCode::SUCCESS;
    }

    outln!(
        "# slsbench repro — seed {}, scale {}\n",
        args.cfg.seed,
        args.cfg.scale
    );
    // Experiments run one after another, in target order; each fans its
    // own independent replays across the --jobs workers and renders from
    // them in plan order, so the output stream matches --jobs 1 exactly.
    for &id in &args.targets {
        let started = std::time::Instant::now();
        let out = run_experiment_jobs(id, &args.cfg, args.jobs);
        let elapsed = started.elapsed();
        outln!("{}", out.to_markdown());
        info_log!("[{}] done in {:.1}s", id.slug(), elapsed.as_secs_f64());

        if let Some(dir) = &args.out {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            for (i, table) in out.tables.iter().enumerate() {
                let path = dir.join(format!("{}_{i}.csv", id.slug()));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
