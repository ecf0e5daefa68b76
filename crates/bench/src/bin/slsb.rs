//! `slsb` — the user-facing CLI for the serving-benchmark framework.
//!
//! ```text
//! slsb compare   --model mobilenet --workload w120 [--seed N] [--scale F]
//! slsb explore   --model vgg --workload w120 [--slo 0.5]
//! slsb replicate --model mobilenet --platform aws-serverless --workload w40 --reps 5
//! slsb run       scenarios/flash_crowd_serverless.json [--trace out.jsonl]
//! slsb trace     out.jsonl
//! ```
//!
//! `compare` races all eight systems on one model × workload; `explore`
//! sweeps the serverless design space and prints the Pareto front;
//! `replicate` reruns one deployment across N seeds and reports mean ± std;
//! `run` replays a declarative JSON scenario, optionally streaming every
//! simulation event to a JSONL trace; `trace` explores such a trace —
//! request waterfalls, phase attribution, cold-start breakdown, and
//! per-instance timelines.

use slsb_bench::cli::extract_log_level;
use slsb_bench::ReproConfig;
use slsb_bench::{out, outln};
use slsb_core::{
    analyze, arrival_allocs, ascii_chart, explore_jobs, fleet_metrics, fmt_money, fmt_opt_secs,
    fmt_pct, oracle_bound, replicate_jobs, run_metrics, slo_metrics, slo_samples, trace_oracle,
    Deployment, Executor, ExplorerGrid, FleetPartition, FleetRunner, FleetScenario, Jobs,
    RetryPolicy, Scenario, SloSample, SloSpec, Table, WorkloadSpec, FLEET_CELLS,
};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_obs::{set_log_level, trace_view, JsonlRecorder, Profile};
use slsb_platform::{FaultPlan, PlatformKind, PolicySet};
use slsb_sim::Seed;
use slsb_workload::{MmppPreset, TraceSummary};
use std::process::ExitCode;

/// Counting allocator: `run --profile` charges allocations to profile
/// regions and the fleet report's `arrival allocs` line reads them; the
/// cost is a few relaxed atomic updates per allocation.
#[global_allocator]
static ALLOC: slsb_bench::CountingAllocator = slsb_bench::CountingAllocator;

const USAGE: &str = "usage:
  slsb compare   --model <mobilenet|albert|vgg> --workload <w40|w120|w200> [--runtime <tf|ort>] [--seed N] [--scale F]
  slsb explore   --model <...> --workload <...> [--slo SECS] [--seed N] [--scale F] [--jobs N]
  slsb replicate --platform <name> --model <...> --workload <...> [--runtime <tf|ort>] [--reps N] [--seed N] [--scale F] [--jobs N] [--shards N]
  slsb run       <scenario.json> [--trace FILE] [--faults FILE] [--retry SPEC] [--slo SPEC] [--seed N] [--shards N] [--jobs N] [--profile FILE] [--metrics-out FILE] [--fleet] [--scale F] [--policy NAME]
  slsb fleet     ingest <raw.(json|csv)> [--out FILE]
  slsb trace     <trace.jsonl> [--slo SPEC] [--apps N]
  slsb profile   <profile.json> [--top N] [--collapsed]
  slsb diff      <baseline> <candidate>

--jobs N runs N simulations in parallel (default: all cores; results are
bit-identical to --jobs 1 for any N).
--shards N runs each simulation sharded per client on up to N workers
(sharded results are identical for every N >= 1; they differ from the
unsharded default because each client cell derives its own RNG streams).
--jobs and --shards share one worker budget: with J outer jobs the
shard workers per run are clamped to max(1, jobs/J), so the two flags
never oversubscribe the machine.
--log-level <quiet|info|debug> (any position) controls progress chatter.
run --trace FILE streams every simulation event to FILE as JSONL;
run --faults FILE overrides the scenario's fault-injection plan with a
JSON FaultPlan; --retry SPEC sets the client retry policy (SPEC is
'off' or comma-separated key=value pairs: attempts=N timeout=S base=S
max=S jitter=F budget=N, e.g. 'attempts=3,base=0.5'); --seed N
overrides the scenario seed; --slo SPEC scores the run against
service-level objectives (SPEC is comma-separated key=value pairs:
p50=S p99=S sr=F cost1k=D, optionally per-tenant with key@client, e.g.
'p99=0.5,sr=0.99,p99@2=1.0'); --profile FILE enables the deterministic
self-profiler and writes the region tree as JSON (trace bytes are
unaffected); --metrics-out FILE writes the run's metrics registry as a
stable-ordered JSON snapshot; --policy NAME overrides the scenario's
keep-alive/placement/scaling policy set (zoo: default fixed
hybrid_histogram least_loaded no_overprovision); every run also prints
the clairvoyant oracle's cold-start and cost lower bounds with a
%-of-optimal score.
run on a scenario with a top-level \"fleet\" block (or with --fleet)
replays a multi-tenant fleet: every app gets its own platform and RNG
substreams, arrivals stream through a lazy k-way merge (memory stays
O(apps), not O(requests)), and --jobs/--shards both map to one worker
budget with byte-identical results for every value; --scale F scales a
synthesized fleet's duration.
fleet ingest converts a raw per-app trace summary (schema'd JSON or
'app,profile,bucket,invocations' CSV) into the canonical
slsb-fleet-trace/v1 document that fleet scenarios replay.
trace renders a recorded file: per-request waterfall, phase attribution,
cold-start breakdown, fault attribution, and per-instance timelines;
trace --slo SPEC scores the recorded spans against objectives (cost
objectives are skipped — traces carry no billing data); trace --apps N
adds a per-tenant breakdown of the N busiest apps.
profile renders a profile written by run --profile: the region tree by
default, --top N the hottest regions by exclusive time, --collapsed
flamegraph-collapsed lines (path;to;region <exclusive-us>).
diff compares two artifacts of the same kind (trace JSONL, metrics
snapshot, or profile) against regression thresholds and exits 2 when
the candidate regressed.

platforms: aws-serverless gcp-serverless aws-managedml gcp-managedml aws-cpu gcp-cpu aws-gpu gcp-gpu";

#[derive(Debug)]
struct Options {
    model: ModelKind,
    runtime: RuntimeKind,
    workload: MmppPreset,
    platform: Option<PlatformKind>,
    seed: u64,
    scale: f64,
    slo: f64,
    reps: usize,
    jobs: Jobs,
    shards: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            model: ModelKind::MobileNet,
            runtime: RuntimeKind::Tf115,
            workload: MmppPreset::W120,
            platform: None,
            seed: 152,
            scale: 1.0,
            slo: 0.5,
            reps: 5,
            jobs: Jobs::available(),
            shards: None,
        }
    }
}

fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "mobilenet" | "mn" => Ok(ModelKind::MobileNet),
        "albert" | "al" => Ok(ModelKind::Albert),
        "vgg" => Ok(ModelKind::Vgg),
        other => Err(format!("unknown model {other:?}")),
    }
}

fn parse_runtime(s: &str) -> Result<RuntimeKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "tf" | "tf1.15" | "tensorflow" => Ok(RuntimeKind::Tf115),
        "ort" | "ort1.4" | "onnxruntime" => Ok(RuntimeKind::Ort14),
        other => Err(format!("unknown runtime {other:?}")),
    }
}

fn parse_workload(s: &str) -> Result<MmppPreset, String> {
    match s.to_ascii_lowercase().as_str() {
        "w40" | "workload-40" | "40" => Ok(MmppPreset::W40),
        "w120" | "workload-120" | "120" => Ok(MmppPreset::W120),
        "w200" | "workload-200" | "200" => Ok(MmppPreset::W200),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn parse_platform(s: &str) -> Result<PlatformKind, String> {
    let norm = s.to_ascii_lowercase().replace(['_', '.'], "-");
    PlatformKind::ALL
        .into_iter()
        .find(|p| p.label().to_ascii_lowercase() == norm)
        .ok_or_else(|| format!("unknown platform {s:?}"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--model" => o.model = parse_model(&value("--model")?)?,
            "--runtime" => o.runtime = parse_runtime(&value("--runtime")?)?,
            "--workload" => o.workload = parse_workload(&value("--workload")?)?,
            "--platform" => o.platform = Some(parse_platform(&value("--platform")?)?),
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--scale" => {
                let v = value("--scale")?;
                o.scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
                ReproConfig::check_scale(o.scale)?;
            }
            "--slo" => {
                let v = value("--slo")?;
                o.slo = v.parse().map_err(|_| format!("bad slo {v:?}"))?;
            }
            "--reps" => {
                let v = value("--reps")?;
                o.reps = v.parse().map_err(|_| format!("bad reps {v:?}"))?;
                if o.reps == 0 {
                    return Err("reps must be at least 1".into());
                }
            }
            "--jobs" => {
                let v = value("--jobs")?;
                let n: usize = v.parse().map_err(|_| format!("bad jobs {v:?}"))?;
                if n == 0 {
                    return Err("jobs must be at least 1".into());
                }
                o.jobs = Jobs::new(n);
            }
            "--shards" => {
                let v = value("--shards")?;
                let n: usize = v.parse().map_err(|_| format!("bad shards {v:?}"))?;
                if n == 0 {
                    return Err("shards must be at least 1".into());
                }
                o.shards = Some(n);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn workload_spec(o: &Options) -> WorkloadSpec {
    WorkloadSpec::Preset {
        which: o.workload,
        scale: o.scale,
    }
}

fn cmd_compare(o: &Options) -> Result<(), String> {
    let seed = Seed(o.seed);
    let trace = workload_spec(o).generate(seed.substream("cli-workload"));
    outln!(
        "Comparing all systems on {} x {} ({} requests, runtime {})\n",
        o.model,
        trace.name(),
        trace.len(),
        o.runtime
    );
    let mut table = Table::new(
        "Systems comparison",
        &["System", "Mean latency", "p99", "SR", "Cost"],
    );
    let exec = Executor::default();
    for platform in PlatformKind::ALL {
        // ManagedML only supports TF; skip invalid combinations silently
        // with a note instead of failing the whole comparison.
        let dep = Deployment::new(platform, o.model, o.runtime);
        match exec.run(&dep, &trace, seed) {
            Ok(run) => {
                let a = analyze(&run);
                table.push_row(vec![
                    platform.label().to_string(),
                    fmt_opt_secs(a.mean_latency()),
                    fmt_opt_secs(a.latency.map(|l| l.p99)),
                    fmt_pct(a.success_ratio),
                    fmt_money(a.cost.total()),
                ]);
            }
            Err(e) => {
                table.push_row(vec![
                    platform.label().to_string(),
                    format!("({e})"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    outln!("{}", table.to_markdown());
    Ok(())
}

fn cmd_explore(o: &Options) -> Result<(), String> {
    let seed = Seed(o.seed);
    let trace = workload_spec(o).generate(seed.substream("cli-workload"));
    let base = Deployment::new(PlatformKind::AwsServerless, o.model, RuntimeKind::Tf115);
    let exploration = explore_jobs(
        &Executor::default(),
        base,
        &ExplorerGrid::default(),
        &trace,
        seed,
        o.jobs,
    )
    .map_err(|e| e.to_string())?;

    outln!(
        "Explored {} serverless configurations for {} x {}\n",
        exploration.candidates.len(),
        o.model,
        trace.name()
    );
    outln!("Pareto front (latency vs cost, SR >= 99%):");
    for c in exploration.pareto_front(0.99) {
        outln!(
            "  {:>6.0}MB {} batch={:<2} -> mean {:.3}s, p95 {:.3}s, ${:.3}",
            c.deployment.memory_mb,
            c.deployment.runtime,
            c.deployment.batch_size,
            c.mean_latency,
            c.p95_latency,
            c.cost
        );
    }
    match exploration.cheapest_under_slo(o.slo, 0.99) {
        Some(c) => outln!(
            "\ncheapest with p95 <= {}s: {:.0}MB {} batch={} at ${:.3}",
            o.slo,
            c.deployment.memory_mb,
            c.deployment.runtime,
            c.deployment.batch_size,
            c.cost
        ),
        None => outln!("\nno configuration meets p95 <= {}s", o.slo),
    }
    Ok(())
}

fn cmd_replicate(o: &Options) -> Result<(), String> {
    let platform = o.platform.ok_or("replicate needs --platform (see usage)")?;
    let dep = Deployment::new(platform, o.model, o.runtime);
    let mut exec = Executor::default();
    if let Some(n) = o.shards {
        // replicate_jobs clamps the shard budget against --jobs so the
        // replica fan-out and intra-run shards share one worker pool.
        exec = exec.with_shards(n);
    }
    let r = replicate_jobs(&exec, &dep, workload_spec(o), o.seed, o.reps, o.jobs)
        .map_err(|e| e.to_string())?;
    outln!(
        "{} x {} x {} across {} seeds (base {}):\n",
        platform.label(),
        o.model,
        o.workload.spec().name,
        r.replicas,
        o.seed
    );
    if let Some(m) = r.mean_latency {
        outln!("mean latency : {} s", m.display(3));
    }
    if let Some(m) = r.p99_latency {
        outln!("p99 latency  : {} s", m.display(3));
    }
    outln!("success ratio: {}", r.success_ratio.display(4));
    outln!("cost         : ${}", r.cost.display(3));
    outln!("cold starts  : {}", r.cold_started.display(1));
    Ok(())
}

/// Flags accepted by `slsb run` after the scenario path.
#[derive(Debug, Default, PartialEq)]
struct RunOptions {
    trace_out: Option<String>,
    faults: Option<String>,
    retry: Option<String>,
    slo: Option<String>,
    seed: Option<u64>,
    shards: Option<usize>,
    jobs: Option<usize>,
    profile_out: Option<String>,
    metrics_out: Option<String>,
    fleet: bool,
    scale: Option<f64>,
    policy: Option<PolicySet>,
}

/// Removes `flag VALUE` from `args` wherever it appears, returning the
/// value. Follows the same drain idiom as [`extract_log_level`].
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let mut drained = args.drain(pos..pos + 2);
    drained.next();
    Ok(drained.next())
}

/// Splits `slsb run` arguments into the scenario path and its flags,
/// which may appear in any order.
fn parse_run_args(rest: &[String]) -> Result<(String, RunOptions), String> {
    let mut args: Vec<String> = rest.to_vec();
    let o = RunOptions {
        trace_out: take_flag(&mut args, "--trace")?,
        faults: take_flag(&mut args, "--faults")?,
        retry: take_flag(&mut args, "--retry")?,
        slo: take_flag(&mut args, "--slo")?,
        profile_out: take_flag(&mut args, "--profile")?,
        metrics_out: take_flag(&mut args, "--metrics-out")?,
        seed: take_flag(&mut args, "--seed")?
            .map(|v| v.parse().map_err(|_| format!("bad seed {v:?}")))
            .transpose()?,
        shards: take_flag(&mut args, "--shards")?
            .map(|v| match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("bad shards {v:?} (must be >= 1)")),
            })
            .transpose()?,
        jobs: take_flag(&mut args, "--jobs")?
            .map(|v| match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("bad jobs {v:?} (must be >= 1)")),
            })
            .transpose()?,
        fleet: take_switch(&mut args, "--fleet"),
        scale: take_flag(&mut args, "--scale")?
            .map(|v| match v.parse::<f64>() {
                Ok(f) if f > 0.0 && f.is_finite() => Ok(f),
                _ => Err(format!("bad scale {v:?} (must be > 0)")),
            })
            .transpose()?,
        policy: take_flag(&mut args, "--policy")?
            .map(|v| {
                PolicySet::by_name(&v).ok_or_else(|| {
                    format!(
                        "unknown policy {v:?} (known policies: {})",
                        PolicySet::ZOO.join(", ")
                    )
                })
            })
            .transpose()?,
    };
    match args.as_slice() {
        [path] => Ok((path.clone(), o)),
        [] => Err(format!("run needs a scenario file\n{USAGE}")),
        other => Err(format!("unexpected run arguments {other:?}\n{USAGE}")),
    }
}

fn cmd_run(path: &str, opts: &RunOptions) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // A scenario with a top-level "fleet" block is a multi-tenant fleet
    // run; `--fleet` forces the interpretation for hand-rolled files.
    let is_fleet = opts.fleet || has_fleet_key(&json);
    if is_fleet {
        return cmd_run_fleet(path, &json, opts);
    }
    if opts.scale.is_some() {
        return Err("--scale applies to fleet scenarios only".into());
    }
    let mut scenario = Scenario::from_json(&json).map_err(|e| e.to_string())?;
    if let Some(faults_path) = &opts.faults {
        let text = std::fs::read_to_string(faults_path)
            .map_err(|e| format!("cannot read {faults_path}: {e}"))?;
        let plan: FaultPlan = serde_json::from_str(&text)
            .map_err(|e| format!("{faults_path}: invalid fault plan: {e}"))?;
        plan.validate()
            .map_err(|e| format!("{faults_path}: invalid fault plan: {e}"))?;
        scenario.faults = plan;
    }
    if let Some(spec) = &opts.retry {
        scenario.executor.retry =
            RetryPolicy::parse_spec(spec).map_err(|e| format!("--retry {spec:?}: {e}"))?;
    }
    if let Some(spec) = &opts.slo {
        scenario.slo = SloSpec::parse(spec)?;
    }
    if let Some(seed) = opts.seed {
        scenario.seed = seed;
    }
    if let Some(shards) = opts.shards {
        scenario.executor.shards = shards;
    }
    if let Some(policy) = opts.policy {
        scenario.policy = Some(policy);
    }
    // The profiler is enabled only when a sink was requested: the disabled
    // path is one relaxed atomic load per guard, and trace bytes are
    // identical either way.
    let profiling = opts.profile_out.is_some();
    if profiling {
        slsb_sim::prof::reset();
        slsb_sim::prof::enable(true);
    }
    let wall_start = std::time::Instant::now();
    let mut trace_events = None;
    let (run, a) = match opts.trace_out.as_deref() {
        None => scenario.run().map_err(|e| e.to_string())?,
        Some(out_path) => {
            // Reject the scenario before the file is created: an invalid
            // run must leave an earlier trace at `out_path` untouched.
            scenario.validate().map_err(|e| e.to_string())?;
            let file = std::fs::File::create(out_path)
                .map_err(|e| format!("cannot create {out_path}: {e}"))?;
            // JsonlRecorder buffers internally, so the file goes in raw.
            let mut rec = JsonlRecorder::new(file);
            let result = scenario.run_recorded(&mut rec).map_err(|e| e.to_string())?;
            let written = rec
                .finish()
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            trace_events = Some(written);
            result
        }
    };
    let wall = wall_start.elapsed().as_secs_f64();
    if profiling {
        slsb_sim::prof::enable(false);
    }
    outln!("# {}\n", scenario.name);
    outln!("deployment    : {}", scenario.deployment.label());
    outln!("requests      : {}", a.total);
    outln!("success ratio : {}", fmt_pct(a.success_ratio));
    outln!("mean latency  : {}", fmt_opt_secs(a.mean_latency()));
    outln!("cost          : {}", fmt_money(a.cost.total()));
    outln!("cold starts   : {}", a.cold_started);
    let oracle = oracle_bound(&run);
    outln!(
        "oracle        : cold >= {} ({:.0}% of optimal), cost >= ${:.6} ({:.0}% of optimal)",
        oracle.cold_starts,
        oracle.cold_score(a.cold_started),
        oracle.cost_dollars,
        oracle.cost_score(a.cost.total().as_dollars()),
    );
    outln!("plat. faults  : {}", a.faults);
    outln!("client faults : {}", a.client_faults);
    outln!("retries       : {}", a.retries);
    outln!("engine events : {}", run.engine_events);
    if let Some(n) = trace_events {
        outln!("trace events  : {n}");
    }
    let series: Vec<(f64, Option<f64>)> = a.series.iter().map(|p| (p.at, p.mean_latency)).collect();
    outln!(
        "\n{}",
        ascii_chart("mean latency per 10s bucket (s)", &series, 8)
    );
    let slo_report = if scenario.slo.is_empty() {
        None
    } else {
        let samples = slo_samples(&run);
        let report = scenario.slo.evaluate(&samples, Some(a.cost_dollars()));
        outln!("{}", report.render());
        Some(report)
    };
    if let Some(out) = &opts.metrics_out {
        let mut m = run_metrics(&run);
        if let Some(report) = &slo_report {
            slo_metrics(&mut m, report);
        }
        let json = serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?;
        std::fs::write(out, json + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
        outln!("metrics written to {out}");
    }
    if let Some(out) = &opts.profile_out {
        let profile = Profile::new(slsb_sim::prof::take(), wall);
        std::fs::write(out, profile.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        outln!(
            "profile written to {out} ({:.1}% of {:.3}s wall attributed)",
            profile.attributed_frac * 100.0,
            profile.wall_secs
        );
    }
    Ok(())
}

/// Whether the document carries a `"fleet"` *key* (the vendored
/// serde_json has no dynamic `Value`, so this is a quote-and-colon scan;
/// a string *value* "fleet" is not followed by ':' and does not match).
/// Single-deployment scenarios have no nested objects with a `fleet`
/// field, so any match means the fleet schema.
fn has_fleet_key(json: &str) -> bool {
    let mut rest = json;
    while let Some(i) = rest.find("\"fleet\"") {
        rest = &rest[i + "\"fleet\"".len()..];
        if rest.trim_start().starts_with(':') {
            return true;
        }
    }
    false
}

/// Replays a multi-tenant fleet scenario: per-app platforms fed by the
/// streaming arrival merge. `--jobs`/`--shards` both set the worker-thread
/// budget; results are byte-identical for every value of either.
fn cmd_run_fleet(path: &str, json: &str, opts: &RunOptions) -> Result<(), String> {
    if opts.faults.is_some() || opts.retry.is_some() {
        return Err("fleet runs do not support --faults/--retry".into());
    }
    let mut scenario = FleetScenario::from_json(json).map_err(|e| e.to_string())?;
    if let Some(seed) = opts.seed {
        scenario.seed = seed;
    }
    if let Some(f) = opts.scale {
        scenario.scale_duration(f).map_err(|e| e.to_string())?;
    }
    if let Some(policy) = opts.policy {
        scenario.policy = Some(policy);
    }
    // Trace documents resolve relative to the scenario file, so a scenario
    // directory stays relocatable.
    let trace_json = match scenario.trace_path() {
        Some(p) => {
            let base = std::path::Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or_else(|| std::path::Path::new("."));
            let full = base.join(p);
            Some(
                std::fs::read_to_string(&full)
                    .map_err(|e| format!("cannot read trace {}: {e}", full.display()))?,
            )
        }
        None => None,
    };
    let plan = scenario
        .resolve(trace_json.as_deref())
        .map_err(|e| e.to_string())?;
    for w in &plan.warnings {
        eprintln!("warning: {w}");
    }
    let workers = opts.jobs.unwrap_or(1).max(opts.shards.unwrap_or(1));
    let runner = FleetRunner::default().with_workers(workers);
    let seed = Seed(scenario.seed);
    let profiling = opts.profile_out.is_some();
    if profiling {
        slsb_sim::prof::reset();
        slsb_sim::prof::enable(true);
    }
    let wall_start = std::time::Instant::now();
    let mut trace_events = None;
    let run = match opts.trace_out.as_deref() {
        None => runner.run(&plan, seed).map_err(|e| e.to_string())?,
        Some(out_path) => {
            plan.validate().map_err(|e| e.to_string())?;
            let file = std::fs::File::create(out_path)
                .map_err(|e| format!("cannot create {out_path}: {e}"))?;
            let mut rec = JsonlRecorder::new(file);
            let result = runner
                .run_recorded(&plan, seed, &mut rec)
                .map_err(|e| e.to_string())?;
            let written = rec
                .finish()
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            trace_events = Some(written);
            result
        }
    };
    let wall = wall_start.elapsed().as_secs_f64();
    let profile = profiling.then(|| {
        slsb_sim::prof::enable(false);
        slsb_sim::prof::take()
    });
    outln!("# {} (fleet)\n", scenario.name);
    outln!("apps          : {}", run.apps.len());
    outln!("requests      : {}", run.requests);
    outln!("success ratio : {}", fmt_pct(run.success_ratio()));
    outln!("mean latency  : {}", fmt_opt_secs(run.latency.mean()));
    outln!(
        "p99 latency   : {}",
        fmt_opt_secs(run.latency.quantile(99.0))
    );
    outln!("cost          : {}", fmt_money(run.platform.cost.total()));
    outln!("cold starts   : {}", run.platform.cold_started);
    outln!("engine events : {}", run.engine_events);
    // The engine's own arrival-side footprint (per-app setup + streaming
    // merge), which must stay O(apps) — flat in the request count.
    if let Some(roots) = &profile {
        outln!("arrival allocs: {}", arrival_allocs(roots));
    }
    // The weighted partition's balance, in expected-request units. The
    // verify.sh fleet smoke parses this line and asserts the LPT invariant
    // (max cell <= 2x mean, unless a lone head app is the floor).
    let part = FleetPartition::compute(&plan, FLEET_CELLS.min(run.apps.len()).max(1));
    let bal = part.balance();
    outln!(
        "cell balance  : {} cells, max {:.1} / mean {:.1} / max-app {:.1} ({})",
        part.cells.len(),
        bal.max_cell,
        bal.mean_cell,
        bal.max_app,
        if bal.is_balanced() {
            "balanced"
        } else {
            "imbalanced"
        }
    );
    if let Some(n) = trace_events {
        outln!("trace events  : {n}");
    }
    // The busiest tenants, Zipf's head.
    let mut by_requests: Vec<&slsb_core::AppResult> = run.apps.iter().collect();
    by_requests.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.app.cmp(&b.app)));
    outln!("\ntop apps by requests:");
    outln!("  app        profile     requests       ok      p99     cost");
    for a in by_requests.iter().take(5) {
        outln!(
            "  {:<10} {:<10} {:>9} {:>8} {:>8} {:>8}",
            a.name,
            a.profile,
            a.requests,
            a.ok,
            fmt_opt_secs(a.p99_s),
            format!("${:.4}", a.cost_dollars),
        );
    }
    if let Some(out) = &opts.metrics_out {
        let m = fleet_metrics(&run);
        let json = serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?;
        std::fs::write(out, json + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
        outln!("metrics written to {out}");
    }
    if let (Some(out), Some(roots)) = (&opts.profile_out, profile) {
        let profile = Profile::new(roots, wall);
        std::fs::write(out, profile.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        outln!(
            "profile written to {out} ({:.1}% of {:.3}s wall attributed)",
            profile.attributed_frac * 100.0,
            profile.wall_secs
        );
    }
    Ok(())
}

/// `slsb fleet ingest RAW [--out FILE]` — converts a raw trace summary
/// (JSON or CSV) into the canonical `slsb-fleet-trace/v1` document.
fn cmd_fleet(rest: &[String]) -> Result<(), String> {
    let mut args: Vec<String> = rest.to_vec();
    let out = take_flag(&mut args, "--out")?;
    match args.as_slice() {
        [sub, raw] if sub == "ingest" => {
            let text =
                std::fs::read_to_string(raw).map_err(|e| format!("cannot read {raw}: {e}"))?;
            // JSON documents self-identify via the schema field; anything
            // else goes through the CSV ingester.
            let summary = if text.trim_start().starts_with('{') {
                TraceSummary::from_json(&text).map_err(|e| format!("{raw}: {e}"))?
            } else {
                TraceSummary::from_csv(&text).map_err(|e| format!("{raw}: {e}"))?
            };
            let out = out.unwrap_or_else(|| {
                let stem = raw.rsplit_once('.').map(|(s, _)| s).unwrap_or(raw);
                format!("{stem}.fleet.json")
            });
            std::fs::write(&out, summary.to_json() + "\n")
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            outln!("# fleet ingest: {raw}\n");
            outln!("name          : {}", summary.name);
            outln!("apps          : {}", summary.apps.len());
            outln!(
                "buckets       : {} x {:.0}s",
                summary.buckets,
                summary.bucket_s
            );
            outln!("invocations   : {}", summary.total_invocations());
            outln!("written to    : {out}");
            Ok(())
        }
        _ => Err(format!(
            "usage: slsb fleet ingest <raw.(json|csv)> [--out FILE]\n{USAGE}"
        )),
    }
}

/// Removes a valueless `flag` from `args`, returning whether it was
/// present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

/// Splits `slsb trace` arguments into the trace path and its flags.
fn parse_trace_args(rest: &[String]) -> Result<(String, Option<String>, Option<usize>), String> {
    let mut args: Vec<String> = rest.to_vec();
    let slo = take_flag(&mut args, "--slo")?;
    let apps = take_flag(&mut args, "--apps")?
        .map(|v| match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad apps {v:?} (must be >= 1)")),
        })
        .transpose()?;
    match args.as_slice() {
        [path] => Ok((path.clone(), slo, apps)),
        [] => Err(format!("trace needs a trace file\n{USAGE}")),
        other => Err(format!("unexpected trace arguments {other:?}\n{USAGE}")),
    }
}

fn cmd_trace(path: &str, slo: Option<&str>, apps: Option<usize>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = trace_view::parse_jsonl_strict(&text).map_err(|e| format!("{path}: {e}"))?;
    outln!("# trace: {path}\n");
    outln!("trace events  : {}", events.len());
    match trace_view::run_closed(&events) {
        Some((engine_events, requests)) => {
            outln!("engine events : {engine_events}");
            outln!("requests      : {requests}\n");
        }
        None => outln!("(no run_closed event — trace may be truncated)\n"),
    }
    outln!("{}", trace_view::summary(&events));
    outln!("{}", trace_view::phase_attribution(&events));
    outln!("{}", trace_view::cold_start_breakdown(&events));
    if let Some(t) = trace_oracle(&events) {
        outln!(
            "oracle        : cold-start floor {} vs {} observed ({:.0}% of optimal, \
             peak concurrency {})\n",
            t.cold_floor,
            t.cold_observed,
            t.score(),
            t.instance_floor,
        );
    }
    outln!("{}", trace_view::fault_attribution(&events));
    outln!("{}", trace_view::waterfall(&events, 20));
    outln!("{}", trace_view::instance_timeline(&events, 20));
    if let Some(n) = apps {
        outln!("{}", trace_view::app_breakdown(&events, n));
    }
    if let Some(spec) = slo {
        let spec = SloSpec::parse(spec)?;
        // A replayed trace carries latencies and outcomes but no billing
        // data, so cost objectives are skipped (evaluate notes this).
        let samples: Vec<SloSample> = trace_view::spans(&events)
            .iter()
            .map(|s| SloSample {
                client: s.client,
                ok: s.outcome.is_success(),
                latency_s: s.total().as_secs_f64(),
            })
            .collect();
        outln!("{}", spec.evaluate(&samples, None).render());
    }
    Ok(())
}

/// Flags accepted by `slsb profile`.
#[derive(Debug, PartialEq)]
struct ProfileArgs {
    path: String,
    top: Option<usize>,
    collapsed: bool,
}

fn parse_profile_args(rest: &[String]) -> Result<ProfileArgs, String> {
    let mut args: Vec<String> = rest.to_vec();
    let top = take_flag(&mut args, "--top")?
        .map(|v| match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad top {v:?} (must be >= 1)")),
        })
        .transpose()?;
    let collapsed = take_switch(&mut args, "--collapsed");
    match args.as_slice() {
        [path] => Ok(ProfileArgs {
            path: path.clone(),
            top,
            collapsed,
        }),
        [] => Err(format!("profile needs a profile file\n{USAGE}")),
        other => Err(format!("unexpected profile arguments {other:?}\n{USAGE}")),
    }
}

fn cmd_profile(args: &ProfileArgs) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path))?;
    let profile = Profile::from_json(&text).map_err(|e| format!("{}: {e}", args.path))?;
    if args.collapsed {
        out!("{}", profile.render_collapsed());
    } else if let Some(n) = args.top {
        outln!("{}", profile.render_top(n));
    } else {
        outln!("{}", profile.render_tree());
    }
    Ok(())
}

/// Exit code for `slsb diff` when the candidate regressed: distinct from
/// 1 (usage/parse errors) so CI can tell "broken invocation" from
/// "measured regression".
const DIFF_REGRESSED: u8 = 2;

fn cmd_diff(baseline: &str, candidate: &str) -> Result<ExitCode, String> {
    let a =
        std::fs::read_to_string(baseline).map_err(|e| format!("cannot read {baseline}: {e}"))?;
    let b =
        std::fs::read_to_string(candidate).map_err(|e| format!("cannot read {candidate}: {e}"))?;
    let report =
        slsb_bench::diff(&a, &b).map_err(|e| format!("diff {baseline} {candidate}: {e}"))?;
    outln!("# diff: {baseline} -> {candidate}\n");
    out!("{}", report.render());
    if report.regressed() {
        Ok(ExitCode::from(DIFF_REGRESSED))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let level = match extract_log_level(&mut argv) {
        Ok(level) => level,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    set_log_level(level);
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "compare" => parse_options(rest).and_then(|o| cmd_compare(&o)).map(ok),
        "explore" => parse_options(rest).and_then(|o| cmd_explore(&o)).map(ok),
        "replicate" => parse_options(rest).and_then(|o| cmd_replicate(&o)).map(ok),
        "run" => parse_run_args(rest)
            .and_then(|(path, opts)| cmd_run(&path, &opts))
            .map(ok),
        "trace" => parse_trace_args(rest)
            .and_then(|(path, slo, apps)| cmd_trace(&path, slo.as_deref(), apps))
            .map(ok),
        "fleet" => cmd_fleet(rest).map(ok),
        "profile" => parse_profile_args(rest)
            .and_then(|a| cmd_profile(&a))
            .map(ok),
        "diff" => match rest {
            [a, b] => cmd_diff(a, b),
            _ => Err(format!("diff needs exactly two files\n{USAGE}")),
        },
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Collapses a unit success into the success exit code (`cmd_diff` is
/// the one command with a third exit state).
fn ok(_: ()) -> ExitCode {
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let o = parse_options(&strs(&[
            "--model",
            "vgg",
            "--runtime",
            "ort",
            "--workload",
            "w200",
            "--platform",
            "gcp-serverless",
            "--seed",
            "9",
            "--scale",
            "0.25",
            "--slo",
            "0.2",
            "--reps",
            "3",
            "--jobs",
            "4",
            "--shards",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.model, ModelKind::Vgg);
        assert_eq!(o.runtime, RuntimeKind::Ort14);
        assert_eq!(o.workload, MmppPreset::W200);
        assert_eq!(o.platform, Some(PlatformKind::GcpServerless));
        assert_eq!(o.seed, 9);
        assert_eq!(o.scale, 0.25);
        assert_eq!(o.slo, 0.2);
        assert_eq!(o.reps, 3);
        assert_eq!(o.jobs.get(), 4);
        assert_eq!(o.shards, Some(2));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_options(&strs(&["--model", "resnet"])).is_err());
        assert!(parse_options(&strs(&["--workload", "w999"])).is_err());
        assert!(parse_options(&strs(&["--scale", "-1"])).is_err());
        assert!(parse_options(&strs(&["--reps", "0"])).is_err());
        assert!(parse_options(&strs(&["--jobs", "0"])).is_err());
        assert!(parse_options(&strs(&["--shards", "0"])).is_err());
        assert!(parse_options(&strs(&["--bogus"])).is_err());
        assert!(parse_options(&strs(&["--seed"])).is_err());
    }

    #[test]
    fn platform_names_match_labels() {
        for p in PlatformKind::ALL {
            let lower = p.label().to_ascii_lowercase();
            assert_eq!(parse_platform(&lower).unwrap(), p);
        }
        assert!(parse_platform("azure-functions").is_err());
    }

    #[test]
    fn run_args_accept_flags_in_any_order() {
        let (path, o) = parse_run_args(&strs(&[
            "--retry",
            "attempts=3",
            "scenario.json",
            "--faults",
            "faults.json",
            "--seed",
            "9",
            "--trace",
            "out.jsonl",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert_eq!(path, "scenario.json");
        assert_eq!(o.trace_out.as_deref(), Some("out.jsonl"));
        assert_eq!(o.faults.as_deref(), Some("faults.json"));
        assert_eq!(o.retry.as_deref(), Some("attempts=3"));
        assert_eq!(o.seed, Some(9));
        assert_eq!(o.shards, Some(4));
    }

    #[test]
    fn run_args_accept_every_zoo_policy() {
        for name in PolicySet::ZOO {
            let (path, o) = parse_run_args(&strs(&["scenario.json", "--policy", name])).unwrap();
            assert_eq!(path, "scenario.json");
            assert_eq!(o.policy, PolicySet::by_name(name), "policy {name}");
            assert!(o.policy.is_some(), "zoo name {name} must resolve");
        }
    }

    #[test]
    fn run_args_reject_unknown_policy_and_list_the_zoo() {
        let err = parse_run_args(&strs(&["scenario.json", "--policy", "nope"]))
            .expect_err("unknown policy must be rejected");
        assert!(err.contains("unknown policy"), "{err}");
        for name in PolicySet::ZOO {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
    }

    #[test]
    fn run_args_reject_malformed_invocations() {
        // No scenario path.
        assert!(parse_run_args(&strs(&["--trace", "out.jsonl"])).is_err());
        // Flag without a value.
        assert!(parse_run_args(&strs(&["scenario.json", "--faults"])).is_err());
        // Two positional arguments.
        assert!(parse_run_args(&strs(&["a.json", "b.json"])).is_err());
        // Non-numeric seed.
        assert!(parse_run_args(&strs(&["a.json", "--seed", "xyz"])).is_err());
        // Bare path still works with no flags at all.
        let (path, o) = parse_run_args(&strs(&["a.json"])).unwrap();
        assert_eq!(path, "a.json");
        assert_eq!(o, RunOptions::default());
    }

    #[test]
    fn run_args_accept_slo_profile_and_metrics_flags() {
        let (path, o) = parse_run_args(&strs(&[
            "scenario.json",
            "--slo",
            "p99=0.5,sr=0.99",
            "--profile",
            "profile.json",
            "--metrics-out",
            "metrics.json",
        ]))
        .unwrap();
        assert_eq!(path, "scenario.json");
        assert_eq!(o.slo.as_deref(), Some("p99=0.5,sr=0.99"));
        assert_eq!(o.profile_out.as_deref(), Some("profile.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.json"));
    }

    #[test]
    fn trace_and_profile_args_parse() {
        let (path, slo, apps) = parse_trace_args(&strs(&["t.jsonl", "--slo", "p50=0.1"])).unwrap();
        assert_eq!(path, "t.jsonl");
        assert_eq!(slo.as_deref(), Some("p50=0.1"));
        assert_eq!(apps, None);
        let (_, _, apps) = parse_trace_args(&strs(&["t.jsonl", "--apps", "3"])).unwrap();
        assert_eq!(apps, Some(3));
        assert!(parse_trace_args(&strs(&["t.jsonl", "--apps", "0"])).is_err());
        assert!(parse_trace_args(&strs(&["--slo", "p50=0.1"])).is_err());
        assert!(parse_trace_args(&strs(&["a", "b"])).is_err());

        let a = parse_profile_args(&strs(&["p.json", "--top", "5"])).unwrap();
        assert_eq!(
            a,
            ProfileArgs {
                path: "p.json".to_string(),
                top: Some(5),
                collapsed: false
            }
        );
        assert!(
            parse_profile_args(&strs(&["p.json", "--collapsed"]))
                .unwrap()
                .collapsed
        );
        assert!(parse_profile_args(&strs(&["p.json", "--top", "0"])).is_err());
        assert!(parse_profile_args(&[]).is_err());
    }

    #[test]
    fn model_aliases() {
        assert_eq!(parse_model("MN").unwrap(), ModelKind::MobileNet);
        assert_eq!(parse_model("AlBeRt").unwrap(), ModelKind::Albert);
        assert_eq!(parse_runtime("TensorFlow").unwrap(), RuntimeKind::Tf115);
    }
}
