//! The traced pass: per-layer host time and work counts.
//!
//! Every number is taken from outside the program: around calls into
//! `Host` and `MemoryBackend` on the replica pump, around `ChainSystem`
//! epochs with the epoch profiler armed, around `SystemBuilder` set-up,
//! and from `observe`'s simulated stage attribution. A metric whose
//! layer the workload leaves idle reads 0.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hmc_core::backends::AnyBackend;
use hmc_core::hmc_mem::DeviceStats;
use hmc_core::hmc_types::trace::Stage;
use hmc_core::hmc_types::TimeDelta;
use hmc_core::mem_backend::MemoryBackend;
use hmc_core::observe::{self, TraceReport};
use hmc_core::sim_engine::EpochProfiler;
use hmc_core::ChainSystem;

use crate::measure::replica_identity;
use crate::replica::{state_digest, Probe};
use crate::stats::{median, rss_mb};
use crate::workloads::{shed_identity, SetupTime, Sim, Workload};

/// Every per-layer metric with its unit, in report order.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("system.pump_ns_per_req", "ns"),
        ("system.instants_per_req", "count"),
        ("hmc_host.tx_ns_per_req", "ns"),
        ("hmc_host.rx_ns_per_req", "ns"),
        ("hmc_host.credit_ns_per_req", "ns"),
        ("hmc_host.events_per_req", "count"),
        ("device.ns_per_req", "ns"),
        ("device.events_per_req", "count"),
        ("device.activations_per_req", "count"),
        ("device.remote_hop_frac", "frac"),
        ("device.peak_channels", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for s in Stage::ALL {
        v.push((format!("stage.{s:?}.sim_ns"), "ns"));
    }
    for (n, u) in [
        ("pdes.epochs_per_sim_us", "1/us"),
        ("pdes.events_per_epoch", "count"),
        ("pdes.envelopes_per_epoch", "count"),
        ("pdes.hol_parked_sim_ns_per_epoch", "ns"),
        ("pdes.ns_per_epoch", "ns"),
        ("pdes.worker_busy_frac", "frac"),
        ("pdes.overhead_ns_per_event", "ns"),
        ("admission.admitted_frac", "frac"),
        ("admission.shed_rate", "frac"),
        ("admission.shed_queue", "frac"),
        ("admission.shed_deadline", "frac"),
        ("admission.backpressured_frac", "frac"),
        ("observe.overhead_pct", "%"),
        ("observe.rss_mb_delta", "MB"),
        ("setup.build_s", "s"),
        ("setup.start_s", "s"),
        ("trace.overhead_pct", "%"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// What the traced pass measured and checked.
#[derive(Debug)]
pub struct Traced {
    /// Metric name to value; every name of [`metric_names`] is present.
    pub metrics: BTreeMap<String, f64>,
    /// Checks run.
    pub attempted: u64,
    /// Checks that failed.
    pub failures: Vec<String>,
    /// Cost of one clock read on this host, ns.
    pub clock_ns: f64,
    /// Replica pass pairs behind the medians.
    pub pairs: usize,
}

/// Simulated span each replica pass times after its warm-up.
fn replica_span(w: Workload) -> TimeDelta {
    match w {
        Workload::HbmClosed | Workload::Chain2Open => TimeDelta::from_us(100),
        Workload::HmcClosed | Workload::Chain8Closed | Workload::Chain8Serial => {
            TimeDelta::from_us(300)
        }
    }
}

/// Simulated span of the chain and observability passes: half the
/// untraced window, as these passes build nine systems.
fn chain_span(w: Workload) -> TimeDelta {
    let (slice, slices) = w.window();
    slice * (slices / 2) as u64
}

/// Runs the traced pass for about `seconds` of host time.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Traced {
    let start = Instant::now();
    let mut m: BTreeMap<String, f64> = metric_names().into_iter().map(|(n, _)| (n, 0.0)).collect();
    let mut failures = Vec::new();
    let mut attempted = 1;
    if w.cubes() > 1 {
        attempted += 1;
        if let Err(e) = chain_layers(w, seed, &mut m) {
            failures.push(e);
        }
    }
    if let Err(e) = replica_identity(w, seed, w.warmup(seed) + replica_span(w)) {
        failures.push(e);
    }
    stages(w, seed, &mut m);
    let setups: Vec<SetupTime> = (0..3).map(|_| w.setup(seed).1).collect();
    let probe = Probe::calibrated();
    let clock_ns = probe.clock_ns();
    let mut plain = Vec::new();
    let mut timed = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let counts = replica_pass(w, seed, Mode::Channels);
    while plain.len() < 3 || start.elapsed() < budget {
        plain.push(replica_pass(w, seed, Mode::Plain));
        timed.push(replica_pass(w, seed, Mode::Timed(probe.clone())));
    }
    attempted += 1;
    if plain
        .iter()
        .chain(&timed)
        .any(|p| p.digest != counts.digest)
    {
        failures.push("replica passes diverged from each other".to_string());
    }
    replica_metrics(&plain, &timed, &counts, &mut m);
    m.insert(
        "setup.build_s".into(),
        median(setups.iter().map(|s: &SetupTime| s.build_s)),
    );
    m.insert(
        "setup.start_s".into(),
        median(setups.iter().map(|s: &SetupTime| s.start_s)),
    );
    Traced {
        metrics: m,
        attempted,
        failures,
        clock_ns,
        pairs: plain.len(),
    }
}

/// One replica pass over the measured span.
struct Pass {
    wall_s: f64,
    requests: f64,
    instants: f64,
    host_events: f64,
    device_events: f64,
    hmc: Option<DeviceStats>,
    probe: Option<Probe>,
    peak_channels: usize,
    digest: u64,
}

fn hmc_stats(d: &AnyBackend) -> Option<DeviceStats> {
    match d {
        AnyBackend::Hmc(d) => Some(d.stats()),
        _ => None,
    }
}

/// How a replica pass runs its measured span.
#[derive(Clone)]
enum Mode {
    /// No clock reads inside the pump.
    Plain,
    /// Layer calls of the sampled instants timed.
    Timed(Probe),
    /// Untimed, with the busy service channels counted.
    Channels,
}

fn replica_pass(w: Workload, seed: u64, mode: Mode) -> Pass {
    let mut r = w.replica(seed);
    r.run_for(w.warmup(seed), None);
    r.host_mut().reset_stats();
    let i0 = r.instants();
    let h0 = r.host().events_processed();
    let d0 = r.device().events_processed();
    let s0 = hmc_stats(r.device());
    let mut probe = None;
    let mut peak_channels = 0;
    let t = Instant::now();
    match mode {
        Mode::Plain => r.run_for(replica_span(w), None),
        Mode::Timed(p) => r.run_for(replica_span(w), Some(probe.insert(p))),
        Mode::Channels => peak_channels = r.run_for_peak_channels(replica_span(w)),
    }
    let wall_s = t.elapsed().as_secs_f64();
    let s = r.host().stats();
    Pass {
        wall_s,
        requests: (s.reads_completed + s.writes_completed).max(1) as f64,
        instants: (r.instants() - i0) as f64,
        host_events: (r.host().events_processed() - h0) as f64,
        device_events: (r.device().events_processed() - d0) as f64,
        hmc: hmc_stats(r.device()).zip(s0).map(|(a, b)| a - b),
        probe,
        peak_channels,
        digest: state_digest(r.host(), r.device()),
    }
}

/// Layer metrics from the untimed passes, the timed passes and the
/// channel-counting pass `counts` (whose counters every pass shares).
fn replica_metrics(plain: &[Pass], timed: &[Pass], counts: &Pass, m: &mut BTreeMap<String, f64>) {
    let p = counts;
    let per_req = |v: f64| v / p.requests;
    let plain_wall = median(plain.iter().map(|x| x.wall_s));
    let timed_wall = median(timed.iter().map(|x| x.wall_s));
    m.insert("system.pump_ns_per_req".into(), per_req(plain_wall * 1e9));
    m.insert("system.instants_per_req".into(), per_req(p.instants));
    m.insert("hmc_host.events_per_req".into(), per_req(p.host_events));
    m.insert("device.events_per_req".into(), per_req(p.device_events));
    m.insert("device.peak_channels".into(), p.peak_channels as f64);
    if let Some(s) = &p.hmc {
        m.insert(
            "device.activations_per_req".into(),
            per_req(s.bank_activations as f64),
        );
        let hops = (s.local_hops + s.remote_hops).max(1);
        m.insert(
            "device.remote_hop_frac".into(),
            s.remote_hops as f64 / hops as f64,
        );
    }
    let layer = |f: fn(&Probe) -> f64| {
        per_req(median(timed.iter().map(|x| {
            let pr = x.probe.as_ref().expect("timed passes carry a probe");
            f(pr) * x.instants / pr.sampled.max(1) as f64
        })))
    };
    m.insert("hmc_host.tx_ns_per_req".into(), layer(|p| p.tx_ns));
    m.insert("device.ns_per_req".into(), layer(|p| p.device_ns));
    m.insert("hmc_host.rx_ns_per_req".into(), layer(|p| p.rx_ns));
    m.insert("hmc_host.credit_ns_per_req".into(), layer(|p| p.credit_ns));
    m.insert(
        "trace.overhead_pct".into(),
        (timed_wall / plain_wall - 1.0) * 100.0,
    );
}

/// Simulated per-stage attribution: mean ns per traced request.
fn stages(w: Workload, seed: u64, m: &mut BTreeMap<String, f64>) {
    let span = w.warmup(seed) + chain_span(w);
    let report = match w {
        Workload::HmcClosed | Workload::HbmClosed => {
            let cfg = w.config(seed);
            let traffic = w.traffic().expect("closed-loop workload");
            let period = TimeDelta::from_us(1);
            if w == Workload::HmcClosed {
                observe::run_window_observed(&cfg, &traffic, span, 64, period).report
            } else {
                observe::run_window_observed_backend(&cfg, w.backend(), &traffic, span, 64, period)
                    .report
            }
        }
        Workload::Chain8Closed | Workload::Chain8Serial | Workload::Chain2Open => {
            let (mut sim, _) = w.setup_with(seed, w.cubes(), |b| w.observe(b).tracing(64));
            sim.run_for(span);
            TraceReport::from_chain(sim.chain().expect("chain workload"))
        }
    };
    for s in Stage::ALL {
        m.insert(
            format!("stage.{s:?}.sim_ns"),
            report.stage(s).mean().as_ns_f64(),
        );
    }
}

/// Totals of an epoch profile: (epochs, envelopes sent, parked ps).
fn profile_totals(p: &EpochProfiler) -> (u64, u64, u64) {
    let sent = p.shards().iter().map(|s| s.sent).sum();
    let parked = p.shards().iter().map(|s| s.parked.as_ps()).sum();
    (p.epochs(), sent, parked)
}

/// One timed span on a freshly built chain of `cubes` cubes, `armed`
/// as the workload defines plus the epoch profiler, or disarmed: wall
/// seconds, events, the profile delta and the system itself.
fn timed_chain(w: Workload, seed: u64, cubes: u8, armed: bool) -> (f64, u64, (u64, u64, u64), Sim) {
    let (mut sim, _) = w.setup_with(seed, cubes, |b| {
        if armed {
            w.observe(b).epoch_profiler()
        } else {
            b
        }
    });
    sim.run_for(w.warmup(seed));
    sim.reset_stats();
    let totals = |s: &Sim| {
        s.chain()
            .and_then(ChainSystem::epoch_profile)
            .map_or((0, 0, 0), profile_totals)
    };
    let p0 = totals(&sim);
    let e0 = sim.events();
    let t = Instant::now();
    sim.run_for(chain_span(w));
    let wall = t.elapsed().as_secs_f64();
    let p1 = totals(&sim);
    let delta = (p1.0 - p0.0, p1.1 - p0.1, p1.2 - p0.2);
    (wall, sim.events() - e0, delta, sim)
}

/// PDES epoch machinery, admission and observability planes on the
/// chain workloads. Armed and disarmed runs alternate three times; the
/// first round, run before anything else in the process, also sizes
/// both systems' resident memory while both are alive.
fn chain_layers(w: Workload, seed: u64, m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let observed = w == Workload::Chain2Open;
    let mut armed = Vec::new();
    let mut disarmed = Vec::new();
    let mut one_cube = Vec::new();
    let mut rss_delta = 0.0;
    let mut last = None;
    for round in 0..3 {
        drop(last.take());
        let r0 = rss_mb();
        let plain = observed.then(|| timed_chain(w, seed, w.cubes(), false));
        let r1 = rss_mb();
        let (wall, events, prof, sim) = timed_chain(w, seed, w.cubes(), true);
        let r2 = rss_mb();
        if let Some((wall_d, ..)) = plain {
            disarmed.push(wall_d);
            if round == 0 {
                rss_delta = (r2 - r1) - (r1 - r0);
            }
        }
        armed.push((wall, events, prof));
        last = Some(sim);
        let (wall1, events1, ..) = timed_chain(w, seed, 1, true);
        one_cube.push(wall1 * 1e9 / events1.max(1) as f64);
    }
    let sim = last.expect("three armed runs");
    let chain = sim.chain().expect("chain workload");
    let (_, events, (epochs, sent, parked_ps)) = armed[0];
    let epochs_f = epochs.max(1) as f64;
    let wall = median(armed.iter().map(|a| a.0));
    m.insert(
        "pdes.epochs_per_sim_us".into(),
        epochs as f64 / chain_span(w).as_us_f64(),
    );
    m.insert("pdes.events_per_epoch".into(), events as f64 / epochs_f);
    m.insert("pdes.envelopes_per_epoch".into(), sent as f64 / epochs_f);
    m.insert(
        "pdes.hol_parked_sim_ns_per_epoch".into(),
        parked_ps as f64 / 1e3 / epochs_f,
    );
    m.insert("pdes.ns_per_epoch".into(), wall * 1e9 / epochs_f);
    if let Some(u) = chain.shard_utilization() {
        let n = u.busy_ns.len().max(1);
        let busy: f64 = (0..u.busy_ns.len()).map(|i| u.busy_fraction(i)).sum();
        m.insert("pdes.worker_busy_frac".into(), busy / n as f64);
    }
    m.insert(
        "pdes.overhead_ns_per_event".into(),
        wall * 1e9 / events.max(1) as f64 - median(one_cube.iter().copied()),
    );
    if observed {
        let open = chain.open_stats();
        shed_identity(&open)?;
        let offered = open.iter().map(|t| t.offered).sum::<u64>().max(1) as f64;
        let frac = |f: fn(&hmc_core::hmc_host::TenantOpenStats) -> u64| {
            open.iter().map(f).sum::<u64>() as f64 / offered
        };
        m.insert("admission.admitted_frac".into(), frac(|t| t.admitted));
        m.insert("admission.shed_rate".into(), frac(|t| t.shed_rate));
        m.insert("admission.shed_queue".into(), frac(|t| t.shed_queue));
        m.insert("admission.shed_deadline".into(), frac(|t| t.shed_deadline));
        m.insert(
            "admission.backpressured_frac".into(),
            frac(|t| t.arrived_backpressured),
        );
        let d = median(disarmed.iter().copied());
        m.insert("observe.overhead_pct".into(), (wall / d - 1.0) * 100.0);
        m.insert("observe.rss_mb_delta".into(), rss_delta);
    }
    Ok(())
}
