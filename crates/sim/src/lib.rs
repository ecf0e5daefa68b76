//! # slsb-sim — deterministic discrete-event simulation kernel
//!
//! The foundation every other `slsbench` crate builds on:
//!
//! - [`time`] — integer-microsecond virtual time ([`SimTime`], [`SimDuration`]);
//! - [`event`] — a generic event queue and drive loop ([`Engine`], [`System`]);
//! - [`rng`] — one experiment seed fanned out into labelled, independent
//!   substreams ([`Seed`], [`SimRng`]);
//! - [`stats`] — streaming accumulators, exact percentiles, time-bucketed
//!   series and step-function gauges for the analyzer;
//! - [`merge`] — the k-way merge of sorted sources ([`KWayMerge`]) behind
//!   fleet arrival streams and summed gauges.
//!
//! Determinism contract: for a fixed seed and configuration, a simulation is
//! bit-for-bit reproducible. This is enforced by integer time, FIFO
//! tie-breaking in the event queue, and substream-isolated randomness.
//!
//! ```
//! use slsb_sim::{Engine, EventQueue, SimDuration, SimTime, StoreKind, System};
//!
//! // A system that counts down: each event schedules the next one later.
//! struct Countdown(Vec<u32>);
//! impl System for Countdown {
//!     type Ev = u32;
//!     fn handle<K: StoreKind>(&mut self, q: &mut EventQueue<u32, K>, _at: SimTime, n: u32) {
//!         self.0.push(n);
//!         if n > 0 {
//!             q.schedule_after(SimDuration::from_secs(1), n - 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Countdown(Vec::new()));
//! engine.queue.schedule_at(SimTime::ZERO, 3);
//! engine.run_to_completion();
//! assert_eq!(engine.system.0, vec![3, 2, 1, 0]);
//! assert_eq!(engine.now(), SimTime::from_secs_f64(3.0));
//! ```

pub mod alloc;
pub mod event;
pub mod merge;
pub mod prof;
pub mod rng;
pub mod stats;
pub mod time;
mod wheel;

pub use event::{Engine, EventQueue, StoreKind, System, Wheel};
pub use merge::KWayMerge;
pub use prof::{ProfGuard, ProfileNode};
pub use rng::{Seed, SimRng};
pub use stats::{Accumulator, GaugeSeries, Histogram, SampleSet, TimeSeries};
pub use time::{SimDuration, SimTime};
