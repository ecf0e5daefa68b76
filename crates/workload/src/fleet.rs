//! Fleet-scale multi-tenant workloads.
//!
//! The paper's load generator drives one app with one MMPP; production
//! serverless fleets (the Azure Functions traces, and the commodity-platform
//! study in PAPERS.md) are thousands of apps with Zipf-skewed popularity and
//! heavy-tailed idle times. This module represents such fleets two ways:
//!
//! - **Ingested**: a [`TraceSummary`] — per-app invocation counts per time
//!   bucket plus optional duration/memory/artifact-size hints — parsed from
//!   the documented JSON schema ([`FLEET_TRACE_SCHEMA`]) or converted from
//!   raw CSV by `slsb fleet ingest`. Bucket counts are replayed *exactly*
//!   via sequential uniform order statistics (one RNG draw per arrival,
//!   O(1) state).
//! - **Synthesized**: [`FleetSynthesis`] knobs (app count, Zipf exponent,
//!   busy/idle process) expand into per-app on/off processes when no trace
//!   is available.
//!
//! Either way the result is a [`FleetSpec`], and the load path is
//! *streaming*: [`FleetArrivalStream`] lazily k-way-merges one
//! [`AppStream`] per app, so a 10M-request fleet costs O(apps) memory, not
//! O(requests). RNG discipline: app `i` draws only from
//! `seed.substream_indexed("app", i)` keyed by its *global* index, so any
//! partition of the fleet across cells or worker threads replays the exact
//! same per-app arrival sequences.

use crate::trace::WorkloadTrace;
use serde::{Deserialize, Serialize};
use slsb_sim::{KWayMerge, Seed, SimDuration, SimRng, SimTime};
use std::fmt;

/// Schema tag every fleet trace-summary JSON document must carry.
pub const FLEET_TRACE_SCHEMA: &str = "slsb-fleet-trace/v1";

/// Why a fleet description failed to parse or build.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Malformed JSON/CSV input.
    Parse(String),
    /// The document declares a schema other than [`FLEET_TRACE_SCHEMA`].
    SchemaMismatch(String),
    /// The fleet has no apps (or no deployment profiles to assign).
    EmptyFleet,
    /// An app's invocation series is shorter than the declared bucket count
    /// — the classic symptom of a truncated export.
    Truncated {
        /// Offending app name.
        app: String,
        /// Buckets present.
        have: usize,
        /// Buckets declared.
        want: usize,
    },
    /// A synthesis or process knob is out of range.
    BadKnob(String),
    /// A synthesis knob above its bound.
    KnobTooLarge {
        /// The offending field.
        name: &'static str,
        /// Its value.
        value: f64,
        /// The largest value allowed.
        max: f64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Parse(s) => write!(f, "fleet trace parse error: {s}"),
            FleetError::SchemaMismatch(s) => {
                write!(
                    f,
                    "fleet trace schema {s:?}, expected {FLEET_TRACE_SCHEMA:?}"
                )
            }
            FleetError::EmptyFleet => write!(f, "fleet has no apps"),
            FleetError::Truncated { app, have, want } => {
                write!(
                    f,
                    "truncated trace: app {app:?} has {have} of {want} buckets"
                )
            }
            FleetError::BadKnob(s) => write!(f, "bad fleet knob: {s}"),
            FleetError::KnobTooLarge { name, value, max } => {
                write!(f, "bad fleet knob: {name} = {value:e} is above {max}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One app's arrival process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AppProcess {
    /// Alternating busy/idle renewal process: lognormal idle gaps
    /// (heavy-tailed, the production signature), exponential busy sojourns
    /// with Poisson arrivals at `rate` while busy. The app starts idle.
    OnOff {
        /// Poisson rate while busy (req/s).
        rate: f64,
        /// Mean busy-period length.
        mean_busy: SimDuration,
        /// Median idle gap (lognormal location).
        median_idle: SimDuration,
        /// Lognormal shape of the idle gap; larger = heavier tail.
        idle_sigma: f64,
    },
    /// Exact per-bucket invocation counts from an ingested trace summary;
    /// each bucket's arrivals are uniform order statistics, drawn
    /// sequentially (one uniform per arrival, O(1) state).
    Buckets {
        /// Bucket width.
        bucket: SimDuration,
        /// Invocations per bucket.
        counts: Vec<u32>,
    },
}

impl AppProcess {
    /// Long-run duty cycle of an on/off process (fraction of time busy).
    fn duty(mean_busy: SimDuration, median_idle: SimDuration, idle_sigma: f64) -> f64 {
        let busy = mean_busy.as_secs_f64();
        let idle_mean = median_idle.as_secs_f64() * (idle_sigma * idle_sigma / 2.0).exp();
        busy / (busy + idle_mean)
    }

    /// Expected request count over `duration` (exact for `Buckets`).
    pub fn expected_requests(&self, duration: SimDuration) -> f64 {
        match self {
            AppProcess::OnOff {
                rate,
                mean_busy,
                median_idle,
                idle_sigma,
            } => rate * Self::duty(*mean_busy, *median_idle, *idle_sigma) * duration.as_secs_f64(),
            AppProcess::Buckets { counts, .. } => counts.iter().map(|&c| c as f64).sum(),
        }
    }

    fn validate(&self, app: &str) -> Result<(), FleetError> {
        let bad = |what: &str| Err(FleetError::BadKnob(format!("app {app:?}: {what}")));
        match self {
            AppProcess::OnOff {
                rate,
                mean_busy,
                median_idle,
                idle_sigma,
            } => {
                if !rate.is_finite() || *rate < 0.0 {
                    return bad("rate must be finite and >= 0");
                }
                if mean_busy.is_zero() || median_idle.is_zero() {
                    return bad("busy/idle times must be positive");
                }
                if !idle_sigma.is_finite() || *idle_sigma < 0.0 {
                    return bad("idle_sigma must be finite and >= 0");
                }
            }
            AppProcess::Buckets { bucket, counts } => {
                if bucket.is_zero() {
                    return bad("bucket width must be positive");
                }
                if counts.is_empty() {
                    return bad("no buckets");
                }
            }
        }
        Ok(())
    }
}

/// One app in a fleet: a name, a deployment-profile label, and an arrival
/// process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// App name (unique within the fleet).
    pub name: String,
    /// Deployment-profile label this app is served with.
    pub profile: String,
    /// Arrival process.
    pub process: AppProcess,
}

/// A complete multi-tenant fleet workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Fleet label.
    pub name: String,
    /// Run duration; every app's arrivals stay within it.
    pub duration: SimDuration,
    /// The apps, in canonical (global-index) order.
    pub apps: Vec<AppSpec>,
}

impl FleetSpec {
    /// Checks every knob.
    ///
    /// # Errors
    /// [`FleetError::EmptyFleet`] or [`FleetError::BadKnob`].
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.apps.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        if self.duration.is_zero() {
            return Err(FleetError::BadKnob(
                "fleet duration must be positive".into(),
            ));
        }
        for app in &self.apps {
            app.process.validate(&app.name)?;
        }
        Ok(())
    }

    /// Expected total request count.
    pub fn expected_requests(&self) -> f64 {
        self.apps
            .iter()
            .map(|a| a.process.expected_requests(self.duration))
            .sum()
    }

    /// Streams the whole fleet's arrivals, merged in time order.
    pub fn arrival_stream(&self, seed: Seed) -> FleetArrivalStream {
        self.arrival_stream_for(seed, 0..self.apps.len() as u32)
    }

    /// Streams a subset of apps (by global index), merged in time order.
    ///
    /// Each app's RNG substream is keyed by its *global* index, so app `i`
    /// produces the identical arrival sequence whether streamed alone, in a
    /// cell's subset, or in the full merge — the structural basis of the
    /// fleet engine's byte-identity across `--jobs`/`--shards`.
    pub fn arrival_stream_for(
        &self,
        seed: Seed,
        apps: impl IntoIterator<Item = u32>,
    ) -> FleetArrivalStream {
        FleetArrivalStream::merge(apps.into_iter().map(|i| {
            let spec = &self.apps[i as usize];
            let sub = seed.substream_indexed("app", i as u64);
            (i, AppStream::new(&spec.process, self.duration, sub))
        }))
    }

    /// Materializes the merged fleet into a flat [`WorkloadTrace`] — the
    /// thin adapter for consumers that still want a `Vec`. O(requests)
    /// memory, byte-identical to draining [`FleetSpec::arrival_stream`].
    pub fn materialize(&self, seed: Seed) -> WorkloadTrace {
        let mut arrivals = Vec::with_capacity(crate::trace::reserve_for(self.expected_requests()));
        arrivals.extend(self.arrival_stream(seed).map(|(at, _)| at));
        WorkloadTrace::new(self.name.clone(), self.duration, arrivals)
    }
}

/// The longest fleet a synthesis may run, in seconds: a year, far below
/// where instant arithmetic on the run's horizon could overflow.
pub const MAX_FLEET_DURATION_S: f64 = 365.0 * 86_400.0;

/// The steepest Zipf popularity a synthesis may ask for. Measured
/// serverless popularity curves have exponents near 1; at 64 the second
/// app's share is already below 1e-19 of the first's, so a steeper curve
/// sends the same traffic.
pub const MAX_ZIPF_EXPONENT: f64 = 64.0;

/// Knob-based fleet synthesis: `apps` tenants whose long-run request rates
/// follow a Zipf(`zipf_exponent`) popularity curve summing to `total_rate`,
/// each an on/off process with exponential busy periods and lognormal
/// (heavy-tailed) idle gaps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSynthesis {
    /// Number of apps.
    pub apps: u32,
    /// Zipf popularity exponent (0 = uniform).
    pub zipf_exponent: f64,
    /// Fleet-wide long-run arrival rate (req/s).
    pub total_rate: f64,
    /// Mean busy-period length, seconds.
    pub mean_busy_s: f64,
    /// Median idle gap, seconds.
    pub median_idle_s: f64,
    /// Lognormal idle-gap shape; 1.5–2.5 gives production-like tails.
    pub idle_sigma: f64,
    /// Run duration, seconds.
    pub duration_s: f64,
}

impl FleetSynthesis {
    /// Expands the knobs into a concrete [`FleetSpec`], assigning profile
    /// labels round-robin over `profiles` in rank order (most popular app
    /// gets `profiles[0]`).
    ///
    /// Within each app the busy-period Poisson rate is the app's long-run
    /// Zipf share divided by the process duty cycle, so the *fleet's*
    /// long-run rate matches `total_rate` while individual apps stay bursty.
    ///
    /// # Errors
    /// [`FleetError::BadKnob`] on out-of-range knobs,
    /// [`FleetError::KnobTooLarge`] on a `duration_s` above
    /// [`MAX_FLEET_DURATION_S`] or a `zipf_exponent` above
    /// [`MAX_ZIPF_EXPONENT`], [`FleetError::EmptyFleet`] when `apps` or
    /// `profiles` is empty.
    pub fn build(&self, name: &str, profiles: &[String]) -> Result<FleetSpec, FleetError> {
        if self.apps == 0 || profiles.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        let bad = |what: &str| Err(FleetError::BadKnob(what.into()));
        let too_large = |name, value, max| Err(FleetError::KnobTooLarge { name, value, max });
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return bad("zipf_exponent must be finite and >= 0");
        }
        if self.zipf_exponent > MAX_ZIPF_EXPONENT {
            return too_large("zipf_exponent", self.zipf_exponent, MAX_ZIPF_EXPONENT);
        }
        if !self.total_rate.is_finite() || self.total_rate <= 0.0 {
            return bad("total_rate must be positive");
        }
        if !self.mean_busy_s.is_finite()
            || self.mean_busy_s <= 0.0
            || !self.median_idle_s.is_finite()
            || self.median_idle_s <= 0.0
        {
            return bad("busy/idle times must be positive");
        }
        if !self.idle_sigma.is_finite() || self.idle_sigma < 0.0 {
            return bad("idle_sigma must be finite and >= 0");
        }
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return bad("duration_s must be positive");
        }
        if self.duration_s > MAX_FLEET_DURATION_S {
            return too_large("duration_s", self.duration_s, MAX_FLEET_DURATION_S);
        }
        let duration = SimDuration::from_secs_f64(self.duration_s);
        if duration.is_zero() {
            return bad("duration_s must be at least a microsecond");
        }
        let mean_busy = SimDuration::from_secs_f64(self.mean_busy_s);
        let median_idle = SimDuration::from_secs_f64(self.median_idle_s);
        let duty = AppProcess::duty(mean_busy, median_idle, self.idle_sigma);
        let harmonic: f64 = (1..=self.apps)
            .map(|i| (i as f64).powf(-self.zipf_exponent))
            .sum();
        let apps = (0..self.apps)
            .map(|i| {
                let share = ((i + 1) as f64).powf(-self.zipf_exponent) / harmonic;
                AppSpec {
                    name: format!("app-{i:04}"),
                    profile: profiles[i as usize % profiles.len()].clone(),
                    process: AppProcess::OnOff {
                        rate: self.total_rate * share / duty,
                        mean_busy,
                        median_idle,
                        idle_sigma: self.idle_sigma,
                    },
                }
            })
            .collect();
        let spec = FleetSpec {
            name: name.to_string(),
            duration,
            apps,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// A production trace summary: per-app invocation counts per fixed-width
/// time bucket, in the style of the Azure Functions dataset. This is the
/// documented on-disk schema (`slsb fleet ingest` emits it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Must equal [`FLEET_TRACE_SCHEMA`].
    pub schema: String,
    /// Fleet label.
    pub name: String,
    /// Bucket width, seconds.
    pub bucket_s: f64,
    /// Declared bucket count; every app must carry exactly this many.
    pub buckets: u32,
    /// Per-app rows.
    pub apps: Vec<TraceApp>,
}

/// One app's row in a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceApp {
    /// App name.
    pub name: String,
    /// Deployment-profile label.
    pub profile: String,
    /// Invocations per bucket (`buckets` entries).
    pub invocations: Vec<u32>,
    /// Median handler duration hint, milliseconds (informational).
    #[serde(default = "TraceApp::no_hint")]
    pub duration_ms_p50: Option<f64>,
    /// Median memory hint, MB — overrides the profile's memory when set.
    #[serde(default = "TraceApp::no_hint")]
    pub memory_mb_p50: Option<f64>,
    /// Model-artifact size hint, MB — adds to the profile's download size.
    #[serde(default = "TraceApp::no_hint")]
    pub artifact_mb: Option<f64>,
}

impl TraceApp {
    fn no_hint() -> Option<f64> {
        None
    }
}

impl TraceSummary {
    /// Parses and validates the canonical JSON document.
    ///
    /// # Errors
    /// [`FleetError::Parse`] on malformed JSON, [`FleetError::SchemaMismatch`]
    /// on a wrong `schema` tag, [`FleetError::Truncated`] when an app has
    /// fewer buckets than declared, [`FleetError::EmptyFleet`]/
    /// [`FleetError::BadKnob`] on structural problems.
    pub fn from_json(text: &str) -> Result<TraceSummary, FleetError> {
        let summary: TraceSummary =
            serde_json::from_str(text).map_err(|e| FleetError::Parse(e.to_string()))?;
        summary.validate()?;
        Ok(summary)
    }

    /// Serializes to the canonical pretty-JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace summary is serializable")
    }

    /// Parses the raw CSV export format `slsb fleet ingest` converts:
    /// a `# name=…,bucket_s=…,buckets=…` header, an optional
    /// `app,profile,bucket,invocations` column line, then one count per
    /// row. Apps appear in first-mention order; duplicate `(app, bucket)`
    /// rows accumulate.
    ///
    /// # Errors
    /// [`FleetError::Parse`] on malformed headers, rows, truncated lines, or
    /// out-of-range bucket indices; plus everything `validate` rejects.
    pub fn from_csv(text: &str) -> Result<TraceSummary, FleetError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .and_then(|l| l.strip_prefix("# "))
            .ok_or_else(|| FleetError::Parse("missing `# name=…` header".into()))?;
        let (mut name, mut bucket_s, mut buckets) = (None, None, None);
        for kv in header.split(',') {
            match kv.split_once('=') {
                Some(("name", v)) => name = Some(v.to_string()),
                Some(("bucket_s", v)) => {
                    bucket_s = Some(
                        v.parse::<f64>()
                            .map_err(|_| FleetError::Parse(format!("bad bucket_s {v:?}")))?,
                    )
                }
                Some(("buckets", v)) => {
                    buckets = Some(
                        v.parse::<u32>()
                            .map_err(|_| FleetError::Parse(format!("bad buckets {v:?}")))?,
                    )
                }
                _ => return Err(FleetError::Parse(format!("unknown header field {kv:?}"))),
            }
        }
        let missing = |what: &str| FleetError::Parse(format!("header missing {what}"));
        let name = name.ok_or_else(|| missing("name"))?;
        let bucket_s = bucket_s.ok_or_else(|| missing("bucket_s"))?;
        let buckets = buckets.ok_or_else(|| missing("buckets"))?;

        let mut apps: Vec<TraceApp> = Vec::new();
        for line in lines {
            if line.is_empty() || line.starts_with("app,") {
                continue;
            }
            let mut cols = line.split(',');
            let (app, profile, bucket, count) = match (
                cols.next(),
                cols.next(),
                cols.next(),
                cols.next(),
                cols.next(),
            ) {
                (Some(a), Some(p), Some(b), Some(c), None) => (a, p, b, c),
                _ => {
                    return Err(FleetError::Parse(format!(
                        "row {line:?} needs app,profile,bucket,invocations"
                    )))
                }
            };
            let bucket: usize = bucket
                .parse()
                .map_err(|_| FleetError::Parse(format!("bad bucket index {bucket:?}")))?;
            if bucket >= buckets as usize {
                return Err(FleetError::Parse(format!(
                    "bucket {bucket} out of range (buckets={buckets})"
                )));
            }
            let count: u32 = count
                .parse()
                .map_err(|_| FleetError::Parse(format!("bad invocation count {count:?}")))?;
            let slot = match apps.iter().position(|x| x.name == app) {
                Some(i) => {
                    if apps[i].profile != profile {
                        return Err(FleetError::Parse(format!(
                            "app {app:?} listed with profiles {:?} and {profile:?}",
                            apps[i].profile
                        )));
                    }
                    i
                }
                None => {
                    apps.push(TraceApp {
                        name: app.to_string(),
                        profile: profile.to_string(),
                        invocations: vec![0; buckets as usize],
                        duration_ms_p50: None,
                        memory_mb_p50: None,
                        artifact_mb: None,
                    });
                    apps.len() - 1
                }
            };
            apps[slot].invocations[bucket] += count;
        }
        let summary = TraceSummary {
            schema: FLEET_TRACE_SCHEMA.to_string(),
            name,
            bucket_s,
            buckets,
            apps,
        };
        summary.validate()?;
        Ok(summary)
    }

    /// Structural validation shared by both parsers.
    ///
    /// # Errors
    /// See [`TraceSummary::from_json`].
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.schema != FLEET_TRACE_SCHEMA {
            return Err(FleetError::SchemaMismatch(self.schema.clone()));
        }
        if !self.bucket_s.is_finite() || self.bucket_s <= 0.0 {
            return Err(FleetError::BadKnob("bucket_s must be positive".into()));
        }
        if self.buckets == 0 {
            return Err(FleetError::BadKnob("buckets must be positive".into()));
        }
        // The buckets span the run, which must end within a year: past
        // that the span's microseconds can wrap the run's instants.
        let max = MAX_FLEET_DURATION_S / f64::from(self.buckets);
        if self.bucket_s > max {
            return Err(FleetError::KnobTooLarge {
                name: "bucket_s",
                value: self.bucket_s,
                max,
            });
        }
        if self.bucket().is_zero() {
            return Err(FleetError::BadKnob(format!(
                "bucket_s = {:e} rounds to 0 us",
                self.bucket_s
            )));
        }
        if self.apps.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        for app in &self.apps {
            if app.invocations.len() != self.buckets as usize {
                return Err(FleetError::Truncated {
                    app: app.name.clone(),
                    have: app.invocations.len(),
                    want: self.buckets as usize,
                });
            }
        }
        Ok(())
    }

    /// Total invocations across the fleet.
    pub fn total_invocations(&self) -> u64 {
        self.apps
            .iter()
            .flat_map(|a| a.invocations.iter())
            .map(|&c| c as u64)
            .sum()
    }

    /// Bucket width as a duration (micros-exact).
    pub fn bucket(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.bucket_s)
    }

    /// Converts to a runnable [`FleetSpec`]: duration = `buckets` × bucket
    /// width, each app replaying its exact counts.
    ///
    /// # Errors
    /// Propagates validation failures.
    pub fn to_fleet_spec(&self) -> Result<FleetSpec, FleetError> {
        self.validate()?;
        let bucket = self.bucket();
        let spec = FleetSpec {
            name: self.name.clone(),
            duration: SimDuration::from_micros(bucket.as_micros() * self.buckets as u64),
            apps: self
                .apps
                .iter()
                .map(|a| AppSpec {
                    name: a.name.clone(),
                    profile: a.profile.clone(),
                    process: AppProcess::Buckets {
                        bucket,
                        counts: a.invocations.clone(),
                    },
                })
                .collect(),
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Lazy iterator over one app's arrival instants.
#[derive(Debug, Clone)]
pub struct AppStream {
    rng: SimRng,
    end: SimTime,
    state: AppState,
}

#[derive(Debug, Clone)]
enum AppState {
    OnOff {
        rate: f64,
        mean_busy: SimDuration,
        median_idle: SimDuration,
        idle_sigma: f64,
        segment_start: SimTime,
        segment_end: SimTime,
        cursor: SimTime,
        in_busy: bool,
    },
    Buckets {
        bucket: SimDuration,
        counts: Vec<u32>,
        idx: usize,
        remaining: u32,
        cursor: SimTime,
    },
}

impl AppStream {
    /// Starts one app's stream on its own RNG substream.
    pub fn new(process: &AppProcess, duration: SimDuration, seed: Seed) -> AppStream {
        let state = match process {
            AppProcess::OnOff {
                rate,
                mean_busy,
                median_idle,
                idle_sigma,
            } => AppState::OnOff {
                rate: *rate,
                mean_busy: *mean_busy,
                median_idle: *median_idle,
                idle_sigma: *idle_sigma,
                segment_start: SimTime::ZERO,
                segment_end: SimTime::ZERO,
                cursor: SimTime::ZERO,
                in_busy: false,
            },
            AppProcess::Buckets { bucket, counts } => AppState::Buckets {
                bucket: *bucket,
                counts: counts.clone(),
                idx: 0,
                remaining: 0,
                cursor: SimTime::ZERO,
            },
        };
        AppStream {
            rng: seed.rng(),
            end: SimTime::ZERO + duration,
            state,
        }
    }
}

impl Iterator for AppStream {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        match &mut self.state {
            AppState::OnOff {
                rate,
                mean_busy,
                median_idle,
                idle_sigma,
                segment_start,
                segment_end,
                cursor,
                in_busy,
            } => loop {
                if *in_busy {
                    // A tiny rate draws a gap past any instant: it ends
                    // the busy period instead of wrapping.
                    let t = cursor.saturating_add(self.rng.exp_interval(*rate));
                    if t >= *segment_end {
                        *in_busy = false;
                        *segment_start = *segment_end;
                    } else {
                        *cursor = t;
                        return Some(t);
                    }
                } else {
                    if *segment_start >= self.end {
                        return None;
                    }
                    let idle = self.rng.lognormal(*median_idle, *idle_sigma);
                    *segment_start = segment_start.saturating_add(idle).min(self.end);
                    if *segment_start >= self.end {
                        return None;
                    }
                    let busy = self.rng.exp_mean(*mean_busy);
                    *segment_end = segment_start.saturating_add(busy).min(self.end);
                    if *rate > 0.0 {
                        *in_busy = true;
                        *cursor = *segment_start;
                    } else {
                        *segment_start = *segment_end;
                    }
                }
            },
            AppState::Buckets {
                bucket,
                counts,
                idx,
                remaining,
                cursor,
            } => {
                if *remaining == 0 {
                    while *idx < counts.len() && counts[*idx] == 0 {
                        *idx += 1;
                    }
                    if *idx >= counts.len() {
                        return None;
                    }
                    *remaining = counts[*idx];
                    *cursor = SimTime::from_micros(bucket.as_micros() * *idx as u64);
                }
                // The minimum of n uniforms on the remaining window
                // [cursor, bucket_end): CDF 1-(1-x/L)^n, inverted below.
                // Conditioning on it leaves n-1 uniforms on the rest, so
                // sequential draws replay the bucket's exact count.
                let bucket_end =
                    SimTime::from_micros(bucket.as_micros() * (*idx as u64 + 1)).min(self.end);
                let window = bucket_end.duration_since(*cursor).as_secs_f64();
                let u = self.rng.uniform();
                let gap = window * (1.0 - u.powf(1.0 / *remaining as f64));
                let at = cursor
                    .saturating_add(SimDuration::from_secs_f64(gap))
                    .min(bucket_end);
                *cursor = at;
                *remaining -= 1;
                if *remaining == 0 {
                    *idx += 1;
                }
                Some(at)
            }
        }
    }
}

/// K-way merge of per-app arrival streams into one time-ordered stream of
/// `(arrival, app)` pairs. Holds exactly one pending arrival per live app —
/// the whole point: O(apps) memory however many requests flow through.
///
/// Pops the smallest `(arrival, slot)` pair, where a stream's slot is its
/// position in the [`FleetArrivalStream::merge`] input, so same-instant
/// arrivals break ties toward the earlier stream (the lower global app
/// index, since every caller passes apps in ascending order). Each pop
/// refills the frontier's top in place from the same app: one sift per
/// arrival.
#[derive(Debug, Clone)]
pub struct FleetArrivalStream {
    ids: Vec<u32>,
    streams: Vec<AppStream>,
    frontier: KWayMerge<SimTime>,
}

impl FleetArrivalStream {
    /// Merges `(global_app_index, stream)` pairs.
    pub fn merge(apps: impl IntoIterator<Item = (u32, AppStream)>) -> Self {
        let (ids, mut streams): (Vec<u32>, Vec<AppStream>) = apps.into_iter().unzip();
        let frontier = KWayMerge::new(streams.iter_mut().map(Iterator::next));
        FleetArrivalStream {
            ids,
            streams,
            frontier,
        }
    }

    /// Number of apps in the merge (live or exhausted).
    pub fn apps(&self) -> usize {
        self.streams.len()
    }
}

impl Iterator for FleetArrivalStream {
    type Item = (SimTime, u32);

    #[inline]
    fn next(&mut self) -> Option<(SimTime, u32)> {
        let streams = &mut self.streams;
        let (at, slot) = self
            .frontier
            .next_with(|slot| streams[slot as usize].next())?;
        Some((at, self.ids[slot as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<String> {
        vec!["cnn".into(), "lstm".into()]
    }

    fn small_synth() -> FleetSynthesis {
        FleetSynthesis {
            apps: 20,
            zipf_exponent: 1.1,
            total_rate: 40.0,
            mean_busy_s: 10.0,
            median_idle_s: 20.0,
            idle_sigma: 1.5,
            duration_s: 300.0,
        }
    }

    #[test]
    fn synthesis_builds_zipf_fleet() {
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        assert_eq!(fleet.apps.len(), 20);
        assert_eq!(fleet.apps[0].profile, "cnn");
        assert_eq!(fleet.apps[1].profile, "lstm");
        // Rank-0 app strictly more popular than rank-19.
        let rate = |i: usize| match fleet.apps[i].process {
            AppProcess::OnOff { rate, .. } => rate,
            _ => unreachable!(),
        };
        assert!(rate(0) > rate(19) * 10.0);
        // Long-run expectation tracks total_rate × duration.
        let expect = fleet.expected_requests();
        assert!((expect - 40.0 * 300.0).abs() / (40.0 * 300.0) < 1e-6);
    }

    #[test]
    fn synthesis_rejects_bad_knobs() {
        let mut s = small_synth();
        s.total_rate = -1.0;
        assert!(matches!(
            s.build("x", &profiles()),
            Err(FleetError::BadKnob(_))
        ));
        assert!(matches!(
            small_synth().build("x", &[]),
            Err(FleetError::EmptyFleet)
        ));
    }

    #[test]
    fn synthesis_bounds_duration_and_zipf_exponent() {
        let with = |name: &str, value: f64| {
            let mut s = small_synth();
            match name {
                "duration_s" => s.duration_s = value,
                _ => s.zipf_exponent = value,
            }
            s.build("x", &profiles())
        };
        for (name, max) in [
            ("duration_s", MAX_FLEET_DURATION_S),
            ("zipf_exponent", MAX_ZIPF_EXPONENT),
        ] {
            assert!(with(name, max).is_ok(), "{name} at its bound");
            for value in [max * 1.01, 1e300, 1e308] {
                let err = with(name, value).unwrap_err();
                assert!(
                    matches!(err, FleetError::KnobTooLarge { name: n, .. } if n == name),
                    "{name} = {value}: {err}"
                );
                assert!(err.to_string().contains(name), "{err}");
            }
        }
    }

    #[test]
    fn merged_stream_is_sorted_and_bounded() {
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        let arrivals: Vec<(SimTime, u32)> = fleet.arrival_stream(Seed(7)).collect();
        assert!(arrivals.len() > 1000, "got {}", arrivals.len());
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        let end = SimTime::ZERO + fleet.duration;
        assert!(arrivals.iter().all(|&(t, _)| t <= end));
        assert!(arrivals
            .iter()
            .all(|&(_, a)| (a as usize) < fleet.apps.len()));
    }

    /// App `slot` of the differential fleet: on/off apps, bucket apps
    /// packed into a few microseconds (same-instant ties across apps),
    /// bucket apps that run dry early and apps with no arrivals at all.
    fn mixed_process(slot: u32) -> AppProcess {
        match slot % 4 {
            0 => AppProcess::OnOff {
                rate: 200.0,
                mean_busy: SimDuration::from_millis(50),
                median_idle: SimDuration::from_millis(100),
                idle_sigma: 1.0,
            },
            1 => AppProcess::Buckets {
                bucket: SimDuration::from_micros(4),
                counts: vec![3, 0, 2, 5],
            },
            2 => AppProcess::Buckets {
                bucket: SimDuration::from_millis(100),
                counts: vec![1 + slot % 3; 1 + (slot as usize % 5)],
            },
            _ if slot % 8 == 3 => AppProcess::Buckets {
                bucket: SimDuration::from_millis(100),
                counts: vec![0, 0],
            },
            _ => AppProcess::OnOff {
                rate: 0.0,
                mean_busy: SimDuration::from_millis(50),
                median_idle: SimDuration::from_millis(10),
                idle_sigma: 0.5,
            },
        }
    }

    #[test]
    fn merge_matches_a_sort_by_instant_then_app() {
        let duration = SimDuration::from_secs(1);
        let seed = Seed(23);
        for k in [1u32, 2, 43, 64, 65, 1000] {
            // Global indices ascend with gaps, as a fleet cell's do.
            let stream = |slot: u32| {
                let global = 3 * slot + 1;
                let sub = seed.substream_indexed("app", u64::from(global));
                (global, AppStream::new(&mixed_process(slot), duration, sub))
            };
            let mut reference: Vec<(SimTime, u32)> = (0..k)
                .flat_map(|slot| {
                    let (global, app) = stream(slot);
                    app.map(move |t| (t, global))
                })
                .collect();
            reference.sort();
            let merged: Vec<(SimTime, u32)> =
                FleetArrivalStream::merge((0..k).map(stream)).collect();
            assert_eq!(merged, reference, "k = {k}");
            if k >= 43 {
                let ties = reference.windows(2).filter(|w| w[0].0 == w[1].0).count();
                assert!(ties > 0, "k = {k}: no same-instant arrivals to order");
            }
        }
    }

    #[test]
    fn per_app_sequences_are_partition_invariant() {
        // App i's arrivals must be the same whether it is streamed alone or
        // inside the full merge — the property sharded fleet runs rely on.
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        let seed = Seed(11);
        let full: Vec<(SimTime, u32)> = fleet.arrival_stream(seed).collect();
        for i in [0u32, 7, 19] {
            let alone: Vec<SimTime> = fleet
                .arrival_stream_for(seed, [i])
                .map(|(t, _)| t)
                .collect();
            let filtered: Vec<SimTime> = full
                .iter()
                .filter(|&&(_, a)| a == i)
                .map(|&(t, _)| t)
                .collect();
            assert_eq!(alone, filtered, "app {i}");
        }
    }

    #[test]
    fn materialize_matches_stream() {
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        let tr = fleet.materialize(Seed(3));
        let streamed: Vec<SimTime> = fleet.arrival_stream(Seed(3)).map(|(t, _)| t).collect();
        assert_eq!(tr.arrivals(), &streamed[..]);
        assert_eq!(tr.name(), "synth");
    }

    #[test]
    fn bucket_replay_is_exact() {
        let bucket = SimDuration::from_secs(10);
        let counts = vec![3u32, 0, 5, 1];
        let process = AppProcess::Buckets {
            bucket,
            counts: counts.clone(),
        };
        let duration = SimDuration::from_secs(40);
        let arrivals: Vec<SimTime> =
            AppStream::new(&process, duration, Seed(9).substream("t")).collect();
        assert_eq!(arrivals.len(), 9);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        for (i, &want) in counts.iter().enumerate() {
            let lo = 10_000_000 * i as u64;
            let hi = 10_000_000 * (i + 1) as u64;
            let got = arrivals
                .iter()
                .filter(|t| t.as_micros() >= lo && t.as_micros() <= hi)
                .count();
            // Boundary clamping can place a sample exactly on `hi`; the
            // half-open count still must match when buckets are counted in
            // order (no sample may leave its bucket).
            assert!(
                got >= want as usize,
                "bucket {i}: {got} arrivals, want {want}"
            );
        }
        // Exact per-bucket counts under half-open bucketing.
        let mut per_bucket = vec![0u32; counts.len()];
        for t in &arrivals {
            let idx = ((t.as_micros() / 10_000_000) as usize).min(counts.len() - 1);
            per_bucket[idx] += 1;
        }
        assert_eq!(per_bucket, counts);
    }

    #[test]
    fn trace_summary_json_roundtrip() {
        let summary = TraceSummary {
            schema: FLEET_TRACE_SCHEMA.into(),
            name: "sample".into(),
            bucket_s: 60.0,
            buckets: 3,
            apps: vec![TraceApp {
                name: "app-a".into(),
                profile: "cnn".into(),
                invocations: vec![5, 0, 2],
                duration_ms_p50: Some(35.0),
                memory_mb_p50: None,
                artifact_mb: Some(96.0),
            }],
        };
        let parsed = TraceSummary::from_json(&summary.to_json()).unwrap();
        assert_eq!(parsed, summary);
        let fleet = parsed.to_fleet_spec().unwrap();
        assert_eq!(fleet.duration, SimDuration::from_secs(180));
        assert_eq!(fleet.expected_requests(), 7.0);
    }

    /// A trace's buckets span at most a year, and a bucket is at least a
    /// microsecond; either error names `bucket_s`.
    #[test]
    fn trace_summary_bounds_its_bucket_width() {
        let with = |bucket_s: f64, buckets: u32| TraceSummary {
            schema: FLEET_TRACE_SCHEMA.into(),
            name: "x".into(),
            bucket_s,
            buckets,
            apps: vec![TraceApp {
                name: "a".into(),
                profile: "p".into(),
                invocations: vec![1; buckets as usize],
                duration_ms_p50: None,
                memory_mb_p50: None,
                artifact_mb: None,
            }],
        };
        let year = MAX_FLEET_DURATION_S;
        assert!(with(year / 10.0, 10).to_fleet_spec().is_ok());
        assert!(with(1e-6, 10).to_fleet_spec().is_ok());
        for (bucket_s, buckets) in [(year / 10.0 * 1.01, 10), (1e9, 10), (1e300, 10), (1e308, 1)] {
            let err = with(bucket_s, buckets).validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    FleetError::KnobTooLarge {
                        name: "bucket_s",
                        ..
                    }
                ),
                "{bucket_s} x {buckets}: {err}"
            );
        }
        for bucket_s in [1e-300, 4e-7] {
            let err = with(bucket_s, 10).validate().unwrap_err();
            assert!(err.to_string().contains("bucket_s"), "{bucket_s}: {err}");
        }
    }

    #[test]
    fn trace_summary_rejects_schema_and_truncation() {
        let err = TraceSummary::from_json(r#"{"schema":"other/v9","name":"x","bucket_s":60.0,"buckets":1,"apps":[{"name":"a","profile":"p","invocations":[1]}]}"#)
            .unwrap_err();
        assert!(matches!(err, FleetError::SchemaMismatch(_)));
        let err = TraceSummary::from_json(&format!(
            r#"{{"schema":"{FLEET_TRACE_SCHEMA}","name":"x","bucket_s":60.0,"buckets":3,"apps":[{{"name":"a","profile":"p","invocations":[1,2]}}]}}"#
        ))
        .unwrap_err();
        assert_eq!(
            err,
            FleetError::Truncated {
                app: "a".into(),
                have: 2,
                want: 3
            }
        );
        assert!(matches!(
            TraceSummary::from_json("{not json"),
            Err(FleetError::Parse(_))
        ));
        let err = TraceSummary::from_json(&format!(
            r#"{{"schema":"{FLEET_TRACE_SCHEMA}","name":"x","bucket_s":60.0,"buckets":1,"apps":[]}}"#
        ))
        .unwrap_err();
        assert_eq!(err, FleetError::EmptyFleet);
    }

    #[test]
    fn csv_ingest_accumulates_and_validates() {
        let csv = "\
# name=prod,bucket_s=60,buckets=3
app,profile,bucket,invocations
frontdoor,cnn,0,4
frontdoor,cnn,2,2
batch,lstm,1,9
frontdoor,cnn,0,1
";
        let summary = TraceSummary::from_csv(csv).unwrap();
        assert_eq!(summary.apps.len(), 2);
        assert_eq!(summary.apps[0].name, "frontdoor");
        assert_eq!(summary.apps[0].invocations, vec![5, 0, 2]);
        assert_eq!(summary.apps[1].invocations, vec![0, 9, 0]);
        assert_eq!(summary.total_invocations(), 16);

        assert!(matches!(
            TraceSummary::from_csv(""),
            Err(FleetError::Parse(_))
        ));
        assert!(matches!(
            TraceSummary::from_csv("# name=x,bucket_s=60,buckets=2\na,p,5,1\n"),
            Err(FleetError::Parse(_))
        ));
        // Truncated mid-row: missing the count column.
        assert!(matches!(
            TraceSummary::from_csv("# name=x,bucket_s=60,buckets=2\na,p,1\n"),
            Err(FleetError::Parse(_))
        ));
        // One app under two profiles is ambiguous.
        assert!(matches!(
            TraceSummary::from_csv("# name=x,bucket_s=60,buckets=2\na,p,0,1\na,q,1,1\n"),
            Err(FleetError::Parse(_))
        ));
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        let a: Vec<(SimTime, u32)> = fleet.arrival_stream(Seed(5)).collect();
        let b: Vec<(SimTime, u32)> = fleet.arrival_stream(Seed(5)).collect();
        let c: Vec<(SimTime, u32)> = fleet.arrival_stream(Seed(6)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
