//! # slsb-workload — workload generation for model-serving benchmarks
//!
//! Implements the paper's load generator (Section 3, Figure 3 left):
//!
//! - [`mmpp`] — 2-state Markov-Modulated Poisson Process with the paper's
//!   three presets (`workload-40/120/200`, Figure 4);
//! - [`poisson`] — plain Poisson arrivals for micro-benchmarks;
//! - [`patterns`] — extension workload shapes (diurnal cycles, flash
//!   crowds) via non-homogeneous Poisson thinning;
//! - [`splitter`] — divides a trace across the 8-client fleet while
//!   preserving the aggregate arrival process;
//! - [`request`] — pools of distinct request payloads (default 200) so the
//!   serving side cannot cache predictions;
//! - [`trace`] — the materialized [`WorkloadTrace`] with rate-series export
//!   for regenerating Figure 4;
//! - [`stream`] — pull-based arrival iterators (byte-identical to the
//!   materialized generators, O(1) memory);
//! - [`fleet`] — multi-tenant fleets: production trace-summary ingest,
//!   Zipf/idle-knob synthesis, and the streaming k-way arrival merge.
//!
//! ```
//! use slsb_sim::Seed;
//! use slsb_workload::{split_round_robin, MmppPreset};
//!
//! // The paper's workload-40: ~15 000 bursty requests over 15 minutes,
//! // split across the 8-client fleet.
//! let trace = MmppPreset::W40.generate(Seed(1));
//! let clients = split_round_robin(&trace, 8);
//! assert_eq!(clients.len(), 8);
//! let total: usize = clients.iter().map(|c| c.len()).sum();
//! assert_eq!(total, trace.len());
//! ```

pub mod fleet;
pub mod mmpp;
pub mod patterns;
pub mod poisson;
pub mod request;
pub mod splitter;
pub mod stream;
pub mod trace;

pub use fleet::{
    AppProcess, AppSpec, AppStream, FleetArrivalStream, FleetError, FleetSpec, FleetSynthesis,
    TraceApp, TraceSummary, FLEET_TRACE_SCHEMA, MAX_FLEET_DURATION_S, MAX_ZIPF_EXPONENT,
};
pub use mmpp::{MmppPreset, MmppSpec, Phase};
pub use patterns::{DiurnalSpec, FlashCrowdSpec};
pub use poisson::PoissonProcess;
pub use request::{InputKind, Payload, RequestPool};
pub use splitter::{merge, split_round_robin};
pub use stream::MmppStream;
pub use trace::{Burstiness, TooManyRequests, TraceParseError, WorkloadTrace, MAX_TRACE_REQUESTS};
