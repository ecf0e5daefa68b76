//! Deterministic observability for the slsbench stack.
//!
//! Three pieces, all built around the invariant that *observation never
//! perturbs the simulation*:
//!
//! - [`event`]: the structured, sim-time-stamped trace event taxonomy —
//!   request phase transitions, instance lifecycle, billing ticks, and
//!   executor-level request spans;
//! - [`recorder`]: the [`Recorder`] trait plus [`NoopRecorder`] (disabled,
//!   zero work beyond one branch), [`JsonlRecorder`] (streams JSON Lines),
//!   and [`MemoryRecorder`] (tests);
//! - [`wire`]: the JSON Lines trace format, written and parsed directly
//!   (no serde);
//! - [`metrics`]: streaming log-linear histograms, counters, and gauges
//!   in a [`MetricsRegistry`] that merges deterministically across the
//!   parallel runner's workers.
//!
//! [`trace_view`] renders a recorded trace back into text — waterfall,
//! instance timeline, phase attribution — for the `slsb trace`
//! subcommand, and [`log`] holds the process-wide `--log-level` switch
//! used by the CLI binaries.
//!
//! # Determinism guarantee
//!
//! Recorders are write-only sinks: no instrumentation site reads from a
//! recorder, touches an RNG, or schedules differently when recording is
//! on. Emission sites construct events inside a closure that only runs
//! when [`Recorder::enabled`] returns true, so a disabled recorder costs
//! one branch per site. Simulation output is therefore byte-identical
//! with recording on, off, or absent.

pub mod event;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod trace_view;
pub mod wire;

pub use event::{Component, EventKind, FaultKind, SpanOutcome, SpawnCause, TraceEvent};
pub use log::{log_enabled, log_level, set_log_level, LogLevel};
pub use metrics::{LogLinearHistogram, MetricsRegistry};
pub use profile::{FlatScope, Profile, PROFILE_SCHEMA};
pub use recorder::{JsonlRecorder, MemoryRecorder, NoopRecorder, Recorder};
