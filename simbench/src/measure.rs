//! The untraced pass: end-to-end metrics and the correctness gate.
//!
//! One run builds the workload's system again and again until the
//! time budget is spent. Each repeat times its set-up, runs the
//! simulated warm-up untimed, then times the measured window slice by
//! slice. Every repeat passes the correctness gate or counts as failed.

use std::time::{Duration, Instant};

use hmc_core::hmc_types::{Time, TimeDelta};
use hmc_core::SystemBuilder;

use crate::replica::state_digest;
use crate::stats;
use crate::workloads::{shed_identity, Outputs, SetupTime, Workload};

/// Repeats below this are too few to compare digests and take medians.
const MIN_REPEATS: usize = 3;

/// Set-ups timed per run at least; short runs add set-up-only builds.
const MIN_SETUPS: usize = 15;

/// What the untraced pass measured and checked.
#[derive(Debug)]
pub struct Measured {
    /// Simulated µs per host second, one value per timed slice.
    pub rates: Vec<f64>,
    /// Set-up times, one per repeat.
    pub setups: Vec<SetupTime>,
    /// Model outputs of the first repeat (every repeat must match them).
    pub outputs: Outputs,
    /// Gated checks run (one per repeat plus the replica identity).
    pub attempted: u64,
    /// Checks that failed.
    pub failures: Vec<String>,
    /// Events per completed request in the measured window.
    pub events_per_req: f64,
    /// Peak resident set size after the first repeat, MB.
    pub peak_rss_mb: f64,
}

/// Runs the untraced pass for about `seconds` of host time.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Measured {
    let mut failures = Vec::new();
    if let Err(e) = replica_identity(w, seed, w.warmup(seed) * 2) {
        failures.push(e);
    }
    let (slice, slices) = w.window();
    let window = slice * slices as u64;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut first: Option<Outputs> = None;
    let mut events_per_req = 0.0;
    let mut peak_rss_mb = 0.0;
    // The replica identity check plus one per repeat.
    let mut attempted = 1;
    while setups.len() < MIN_REPEATS || start.elapsed() < budget {
        let (mut sim, setup) = w.setup(seed);
        setups.push(setup);
        sim.run_for(w.warmup(seed));
        sim.reset_stats();
        let events = sim.events();
        for _ in 0..slices {
            let t = Instant::now();
            sim.run_for(slice);
            rates.push(slice.as_us_f64() / t.elapsed().as_secs_f64());
        }
        let out = sim.outputs(window);
        events_per_req = (sim.events() - events) as f64 / out.completed.max(1) as f64;
        let mut check = check_outputs(&out);
        if check.is_ok() {
            check = sim.drain_check();
        }
        if let (Ok(()), Some(f)) = (&check, &first) {
            if f.digest != out.digest {
                check = Err(format!(
                    "sim_digest {:016x} differs from the first repeat's {:016x}",
                    out.digest, f.digest
                ));
            }
        }
        if let Err(e) = check {
            failures.push(format!("repeat {attempted}: {e}"));
        }
        if first.is_none() {
            // Later repeats redo identical work; only allocator
            // fragmentation would add to the peak.
            peak_rss_mb = stats::peak_rss_mb();
            first = Some(out);
        }
        attempted += 1;
    }
    while setups.len() < MIN_SETUPS {
        setups.push(w.setup(seed).1);
    }
    Measured {
        rates,
        attempted,
        setups,
        outputs: first.expect("at least one repeat ran"),
        failures,
        events_per_req,
        peak_rss_mb,
    }
}

/// Plausibility of one window's outputs, plus the shed identity.
fn check_outputs(out: &Outputs) -> Result<(), String> {
    let values = [
        out.bw_gbs,
        out.mean_ns(),
        out.quantile_ns(0.5),
        out.quantile_ns(0.99),
    ];
    if out.completed == 0 || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return Err(format!(
            "implausible outputs: {} completed, bw/mean/p50/p99 = {values:?}",
            out.completed
        ));
    }
    shed_identity(&out.open)
}

/// Runs the workload's single-cube analogue for `span` on the
/// benchmark's replica pump and on `System::run_for`, and compares the
/// full end state.
pub fn replica_identity(w: Workload, seed: u64, span: TimeDelta) -> Result<(), String> {
    let mut r = w.replica(seed);
    r.run_for(span, None);
    let cfg = w.single_cube_config(seed);
    let mut s = SystemBuilder::new(cfg).backend(w.backend()).build_any();
    if let Some(t) = w.traffic() {
        s.host_mut().apply_workload(&t);
    }
    s.host_mut().start(Time::ZERO);
    s.run_for(span);
    let replica = state_digest(r.host(), r.device());
    let system = state_digest(s.host(), s.device());
    if replica == system {
        Ok(())
    } else {
        Err(format!(
            "replica end state {replica:016x} != System::run_for end state {system:016x}"
        ))
    }
}
