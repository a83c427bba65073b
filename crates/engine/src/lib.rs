//! Deterministic discrete-event simulation core for the `hmcsim` workspace.
//!
//! The engine is deliberately small and policy-free:
//!
//! * [`event::EventQueue`] — a time-ordered, FIFO-stable priority queue of
//!   user-defined events. Simulation crates define their own event enums and
//!   drive their own main loops.
//! * [`queue::BoundedQueue`] — a capacity-limited FIFO with time-weighted
//!   occupancy statistics, used for bank queues, controller FIFOs, and tag
//!   pools.
//! * [`stats`] — counters, latency [`stats::Histogram`]s, time-weighted
//!   averages, and bandwidth meters.
//! * [`series::TimeSeries`] — sampled traces (temperature and power over
//!   simulated time).
//! * [`regress`] — least-squares line fitting used for the paper's
//!   Figure 11/12 regressions.
//! * [`rng::SplitMix64`] — a tiny deterministic PRNG so every experiment is
//!   exactly reproducible from its seed.
//! * [`exec`] — a scoped-thread sweep executor that fans independent
//!   simulation points across cores while keeping results in input order,
//!   so sweeps stay bit-identical at any thread count.
//! * [`pdes`] — conservative parallel-DES scaffolding: per-edge lookahead
//!   tables, deterministic cross-shard mailboxes drained in total
//!   `(at, edge, dir, seq)` order, a persistent epoch worker pool, and a
//!   deterministic sim-time [`pdes::EpochProfiler`] (plus a wall-clock
//!   worker-utilization summary confined to the pool).
//! * [`trace`] — always-compiled, zero-overhead-when-disabled lifecycle
//!   tracing: per-stage span histograms plus a sampled event log with a
//!   Chrome trace-event (Perfetto) exporter.
//! * [`metrics`] — a named-gauge registry with a deterministic periodic
//!   sampler producing aligned time series.
//! * [`sanitize`] — a runtime protocol sanitizer (DRAM timing FSM, credit
//!   and request conservation ledgers, event-order and queue-bound checks,
//!   watchdog reporting) with the same zero-cost-when-disabled contract as
//!   [`trace`].
//! * [`fault`] — a seeded fault-scenario model: deterministic schedules of
//!   typed faults (flit corruption, credit leaks, link stalls, vault
//!   wedges, thermal spikes) composable into named scenarios.
//!
//! # Example
//!
//! ```
//! use sim_engine::event::EventQueue;
//! use hmc_types::Time;
//!
//! let mut q = EventQueue::new();
//! q.push(Time::from_ps(20), "late");
//! q.push(Time::from_ps(10), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_ps(), ev), (10, "early"));
//! ```

pub mod arrival;
pub mod event;
pub mod exec;
pub mod fault;
pub mod metrics;
pub mod pdes;
pub mod queue;
pub mod regress;
pub mod rng;
pub mod sanitize;
pub mod series;
pub mod stats;
pub mod token;
pub mod trace;

pub use arrival::{ArrivalKind, ArrivalStream, ZipfSampler};
pub use event::EventQueue;
pub use fault::{FaultEvent, FaultKind, FaultScenario};
pub use metrics::MetricsSampler;
pub use pdes::{EpochProfiler, EpochSample, PoolUtilization};
pub use queue::BoundedQueue;
pub use regress::LinearFit;
pub use rng::SplitMix64;
pub use sanitize::{json_escape, BankOp, Sanitizer, SanitizerReport, Violation, ViolationClass};
pub use series::TimeSeries;
pub use stats::{BandwidthMeter, Counter, Histogram, TimeWeighted};
pub use token::TokenBucket;
pub use trace::{chrome_trace_events, chrome_trace_json, TraceEvent, Tracer};
