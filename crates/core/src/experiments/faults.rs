//! Fault injection: link bit errors and whole-system fault scenarios.
//!
//! The paper credits HMC's packet protocol with "packet integrity and
//! proper flow control" (the Add-Seq#/Add-CRC stages of Figure 14) and
//! counts "better package-level fault tolerance" among the returns for the
//! latency premium. Two experiments live here:
//!
//! * [`ber_sweep`] injects lane bit errors and measures what the
//!   link-level retry protocol costs as the error rate climbs — the
//!   price of the integrity machinery actually doing work.
//! * [`run_scenario`] runs a seeded [`FaultScenario`] (credit leaks, link
//!   stalls, vault wedges, thermal spikes) against the full robustness
//!   stack — structural link retry, host timeouts with backoff, link
//!   degradation, and live thermal-shutdown recovery — with the protocol
//!   sanitizer armed, and characterizes the degraded mode.

use hmc_host::{RobustStats, Workload};
use hmc_mem::DeviceStats;
use hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use sim_engine::{json_escape, FaultScenario, SanitizerReport};

use crate::measure::{run_measurement, MeasureConfig};
use crate::report::{f1, ns, Table};
use crate::system::SystemConfig;

/// One point of the bit-error-rate sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPoint {
    /// Injected lane bit-error rate.
    pub ber: f64,
    /// Counted bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Mean read latency, ns.
    pub latency_ns: f64,
    /// Link retries per million packets.
    pub retries_per_mpkt: f64,
}

/// Sweeps the injected bit-error rate under full-scale 128 B reads.
pub fn ber_sweep(cfg: &SystemConfig, bers: &[f64], mc: &MeasureConfig) -> Vec<FaultPoint> {
    bers.iter()
        .map(|&ber| {
            let mut c = cfg.clone();
            c.mem.link_layer.bit_error_rate = ber;
            let m = run_measurement(
                &c,
                &Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX),
                mc,
            );
            let packets = m.device_delta.reads_completed + m.device_delta.writes_completed;
            FaultPoint {
                ber,
                bandwidth_gbs: m.bandwidth_gbs,
                latency_ns: m.mean_latency_ns(),
                retries_per_mpkt: if packets == 0 {
                    0.0
                } else {
                    m.device_delta.link_retries as f64 * 1e6 / (2 * packets) as f64
                },
            }
        })
        .collect()
}

/// The sweep `repro figure faults` runs.
pub const BER_AXIS: [f64; 5] = [0.0, 1e-9, 1e-7, 1e-6, 1e-5];

/// Renders the sweep.
pub fn faults_table(points: &[FaultPoint]) -> Table {
    let mut t = Table::new(
        "Link fault injection: bandwidth & latency vs lane bit-error rate",
        &["BER", "GB/s", "latency", "retries/Mpkt"],
    );
    for p in points {
        t.row(vec![
            if p.ber == 0.0 {
                "0".to_string()
            } else {
                format!("{:.0e}", p.ber)
            },
            f1(p.bandwidth_gbs),
            ns(p.latency_ns),
            f1(p.retries_per_mpkt),
        ]);
    }
    t
}

/// The outcome of one fault-scenario run: the measurement window's
/// performance, the fault/recovery counters that accumulated from the
/// end of warm-up through the final drain, and the sanitizer verdict.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Counted bandwidth over the measurement window, GB/s.
    pub bandwidth_gbs: f64,
    /// Completed requests over the window, millions per second.
    pub mrps: f64,
    /// Mean read latency over the window, ns (synthesized completions of
    /// abandoned requests included — degradation shows up here).
    pub mean_latency_ns: f64,
    /// Device activity delta over the window (link retries, injected
    /// stalls, leaked credits, deduplicated retransmissions).
    pub device_delta: DeviceStats,
    /// Host robustness counters from the end of warm-up through the
    /// drain (timeouts, retries, poisoned responses, abandons, link
    /// deaths, replays).
    pub robust: RobustStats,
    /// Thermal shutdown/recovery cycles executed.
    pub shutdowns: usize,
    /// Total dead time across all shutdown cycles.
    pub outage: TimeDelta,
    /// Requests issued over the whole run.
    pub issued: u64,
    /// Requests retired over the whole run (device answers plus
    /// force-completed abandons).
    pub completed: u64,
    /// True if the run went idle within the drain budget — a hung
    /// recovery or wedged link shows up as `false`.
    pub drained: bool,
    /// The merged sanitizer report (armed for the whole run).
    pub report: SanitizerReport,
}

impl ScenarioOutcome {
    /// True if the sanitizer saw no violations and the run drained.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.drained
    }

    /// Bit-exact fingerprint of the outcome: every floating-point figure
    /// as raw bits plus every counter. Two runs of the same scenario on
    /// the same configuration must produce identical fingerprints
    /// regardless of host parallelism.
    pub fn fingerprint(&self) -> Vec<u64> {
        let d = &self.device_delta;
        let r = &self.robust;
        vec![
            self.bandwidth_gbs.to_bits(),
            self.mrps.to_bits(),
            self.mean_latency_ns.to_bits(),
            d.link_retries,
            d.link_stalls,
            d.credits_leaked,
            d.duplicate_requests,
            d.dropped_responses,
            r.timeouts,
            r.retries,
            r.poisoned_responses,
            r.abandoned,
            r.links_degraded,
            r.replayed,
            self.shutdowns as u64,
            self.outage.as_ps(),
            self.issued,
            self.completed,
            u64::from(self.drained),
        ]
    }
}

/// Runs one fault scenario under full-scale 128 B reads with the host
/// robustness layer enabled and the sanitizer armed.
///
/// The run warms up, measures one window (faults usually trigger inside
/// it), then — if a thermal shutdown pushed the resume instant past the
/// window — extends past the recovery so the replay executes, and
/// finally stops generation and drains. The built-in scenarios trigger
/// at 200–400 µs, inside [`MeasureConfig::standard`]'s window.
pub fn run_scenario(
    cfg: &SystemConfig,
    scenario: &FaultScenario,
    mc: &MeasureConfig,
) -> ScenarioOutcome {
    let mut sys = crate::builder::SystemBuilder::new(cfg.clone())
        .robust()
        .sanitizer()
        .faults(scenario)
        .build();
    sys.host_mut().apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::MAX,
    ));
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::ZERO + mc.warmup);
    sys.host_mut().reset_stats();
    let device_before = sys.device().stats();
    let robust_before = sys.host().robust_stats();
    sys.step_until(Time::ZERO + mc.warmup + mc.window);
    // Window figures are captured now, before any recovery extension
    // dilutes them.
    let host = sys.host().stats();
    let device_delta = sys.device().stats() - device_before;
    // A shutdown whose recovery outlasts the window leaves the replayed
    // requests parked at the resume instant: run past it so the replay
    // actually executes (and its conservation is checked).
    if let Some(resume) = sys.recoveries().last().map(|r| r.resume_at) {
        let target = resume + mc.window / 4;
        if target > sys.now() {
            sys.step_until(target);
        }
    }
    sys.host_mut().stop_generation();
    let drained = sys.run_until_idle(TimeDelta::from_ms(50));
    if drained {
        sys.sanitize_check_drained();
    }
    ScenarioOutcome {
        name: scenario.name.clone(),
        bandwidth_gbs: host.bandwidth_gbs(mc.window),
        mrps: host.mrps(mc.window),
        mean_latency_ns: host.read_latency.mean().as_ns_f64(),
        device_delta,
        robust: sys.host().robust_stats() - robust_before,
        shutdowns: sys.recoveries().len(),
        outage: sys
            .recoveries()
            .iter()
            .fold(TimeDelta::ZERO, |acc, r| acc + r.outage()),
        issued: sys.host().total_issued(),
        completed: sys.host().total_issued() - sys.host().outstanding(),
        drained,
        report: sys.sanitizer_report(),
    }
}

/// [`run_scenario`] for a built-in scenario by name.
pub fn run_builtin(cfg: &SystemConfig, name: &str, mc: &MeasureConfig) -> Option<ScenarioOutcome> {
    let scenario = FaultScenario::builtin(name)?;
    Some(run_scenario(cfg, &scenario, mc))
}

/// Renders scenario outcomes side by side.
pub fn scenario_table(outcomes: &[ScenarioOutcome]) -> Table {
    let mut t = Table::new(
        "Fault scenarios: degraded-mode characterization (full-scale ro 128 B)",
        &[
            "scenario",
            "GB/s",
            "latency",
            "retries",
            "timeouts",
            "abandoned",
            "dead",
            "shutdowns",
            "outage",
            "clean",
        ],
    );
    for o in outcomes {
        t.row(vec![
            o.name.clone(),
            f1(o.bandwidth_gbs),
            ns(o.mean_latency_ns),
            o.device_delta.link_retries.to_string(),
            o.robust.timeouts.to_string(),
            o.robust.abandoned.to_string(),
            o.robust.links_degraded.to_string(),
            o.shutdowns.to_string(),
            format!("{}", o.outage),
            if o.is_clean() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

/// Hand-rolled JSON export of scenario outcomes — the CI smoke matrix's
/// artifact format.
pub fn scenarios_json(outcomes: &[ScenarioOutcome]) -> String {
    let mut s = String::from("{\"scenarios\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let d = &o.device_delta;
        let r = &o.robust;
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"bandwidth_gbs\":{},\"mrps\":{},\
             \"mean_latency_ns\":{},\"link_retries\":{},\"link_stalls\":{},\
             \"credits_leaked\":{},\"duplicate_requests\":{},\
             \"dropped_responses\":{},\"timeouts\":{},\"host_retries\":{},\
             \"poisoned_responses\":{},\"abandoned\":{},\"links_degraded\":{},\
             \"replayed\":{},\"shutdowns\":{},\"outage_ns\":{},\
             \"issued\":{},\"completed\":{},\"drained\":{},\"violations\":{}}}",
            json_escape(&o.name),
            o.bandwidth_gbs,
            o.mrps,
            o.mean_latency_ns,
            d.link_retries,
            d.link_stalls,
            d.credits_leaked,
            d.duplicate_requests,
            d.dropped_responses,
            r.timeouts,
            r.retries,
            r.poisoned_responses,
            r.abandoned,
            r.links_degraded,
            r.replayed,
            o.shutdowns,
            o.outage.as_ps() / 1_000,
            o.issued,
            o.completed,
            o.drained,
            o.report.violations().len(),
        ));
    }
    s.push_str("]}");
    s
}

impl crate::report::JsonReport for [ScenarioOutcome] {
    fn kind(&self) -> &'static str {
        "faults"
    }

    fn json(&self) -> String {
        scenarios_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::TimeDelta;

    fn tiny() -> MeasureConfig {
        MeasureConfig {
            warmup: TimeDelta::from_us(30),
            window: TimeDelta::from_us(150),
        }
    }

    #[test]
    fn clean_links_never_retry() {
        let pts = ber_sweep(&SystemConfig::default(), &[0.0], &tiny());
        assert_eq!(pts[0].retries_per_mpkt, 0.0);
    }

    #[test]
    fn errors_cost_bandwidth_monotonically() {
        let pts = ber_sweep(&SystemConfig::default(), &[0.0, 1e-6, 1e-5], &tiny());
        assert!(pts[1].retries_per_mpkt > 0.0);
        assert!(pts[2].retries_per_mpkt > pts[1].retries_per_mpkt);
        // Heavy error injection visibly derates the read ceiling.
        assert!(
            pts[2].bandwidth_gbs < pts[0].bandwidth_gbs * 0.97,
            "BER 1e-5: {} vs clean {}",
            pts[2].bandwidth_gbs,
            pts[0].bandwidth_gbs
        );
        // Rare errors are absorbed with negligible cost — the protocol's
        // selling point.
        assert!(
            pts[1].bandwidth_gbs > pts[0].bandwidth_gbs * 0.95,
            "BER 1e-6 nearly free: {} vs {}",
            pts[1].bandwidth_gbs,
            pts[0].bandwidth_gbs
        );
    }

    #[test]
    fn table_renders() {
        let pts = ber_sweep(&SystemConfig::default(), &[0.0], &tiny());
        let t = faults_table(&pts);
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, 0), "0");
    }

    #[test]
    fn noisy_link_scenario_retries_and_stays_clean() {
        let o = run_builtin(&SystemConfig::default(), "noisy-link", &tiny()).unwrap();
        assert!(o.device_delta.link_retries > 0, "BER 1e-6 must retry");
        assert!(o.is_clean(), "{:?}", o.report.violations());
        assert_eq!(o.issued, o.completed, "everything retires");
        assert_eq!(o.shutdowns, 0);
    }

    #[test]
    fn scenario_fingerprint_is_deterministic() {
        let run = || run_builtin(&SystemConfig::default(), "noisy-link", &tiny()).unwrap();
        assert_eq!(run().fingerprint(), run().fingerprint());
    }

    #[test]
    fn scenario_names_are_escaped_in_json() {
        let o = ScenarioOutcome {
            name: "a\"b\\c".into(),
            bandwidth_gbs: 1.0,
            mrps: 1.0,
            mean_latency_ns: 1.0,
            device_delta: DeviceStats::default(),
            robust: RobustStats::default(),
            shutdowns: 0,
            outage: TimeDelta::ZERO,
            issued: 1,
            completed: 1,
            drained: true,
            report: SanitizerReport::default(),
        };
        let j = scenarios_json(&[o]);
        assert!(
            j.starts_with("{\"scenarios\":[{\"name\":\"a\\\"b\\\\c\""),
            "{j}"
        );
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_builtin(&SystemConfig::default(), "no-such", &tiny()).is_none());
    }

    #[test]
    fn scenario_table_and_json_render() {
        let o = run_builtin(&SystemConfig::default(), "noisy-link", &tiny()).unwrap();
        let t = scenario_table(std::slice::from_ref(&o));
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, 0), "noisy-link");
        let j = scenarios_json(std::slice::from_ref(&o));
        assert!(j.starts_with("{\"scenarios\":[{\"name\":\"noisy-link\""));
        assert!(j.contains("\"drained\":true"));
        assert!(j.ends_with("]}"));
    }
}
