//! End-to-end fault-plane tests: live thermal-shutdown recovery, link
//! degradation, and the inertness/determinism guarantees of the
//! robustness layer.

use hmc_core::experiments::faults::run_builtin;
use hmc_core::hmc_host::Workload;
use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::measure::{run_measurement, MeasureConfig};
use hmc_core::sim_engine::FaultScenario;
use hmc_core::{System, SystemConfig};

/// A window wide enough to cover every built-in scenario's trigger
/// instant (200–400 µs) without the full standard runtime.
fn wide() -> MeasureConfig {
    MeasureConfig {
        warmup: TimeDelta::from_us(50),
        window: TimeDelta::from_us(400),
    }
}

fn robust_system(scenario: &str) -> System {
    let mut cfg = SystemConfig::default();
    cfg.host.robust.enabled = true;
    let mut sys = System::new(cfg);
    sys.enable_sanitizer();
    sys.install_faults(&FaultScenario::builtin(scenario).expect("built-in"));
    sys
}

#[test]
fn write_workload_thermal_spike_shuts_down_and_recovers() {
    // thermal-throttle spikes to 82 °C at 300 µs: above the 75 °C write
    // limit, below the 85 °C read limit — the paper's ~10 °C earlier
    // write-workload shutdown, reproduced live.
    let mut sys = robust_system("thermal-throttle");
    sys.host_mut().apply_workload(&Workload::full_scale(
        RequestKind::WriteOnly,
        RequestSize::MAX,
    ));
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::from_ps(400_000_000));

    assert_eq!(sys.recoveries().len(), 1, "write workload must shut down");
    let rec = &sys.recoveries()[0];
    assert_eq!(rec.shutdown_at, Time::from_ps(300_000_000));
    assert_eq!(rec.surface_c, 82.0);
    // The documented recovery sequence: 60 s cool + 500 ms restart +
    // 500 ms retrain + 2 s re-init = 63 s of dead time.
    assert_eq!(rec.outage(), TimeDelta::from_secs(63));
    assert!(rec.replayed > 0, "the in-flight window replays");
    assert_eq!(
        rec.resume_at,
        Time::from_ps(300_000_000) + TimeDelta::from_secs(63)
    );

    // Run past the resume instant so the replay executes, then drain.
    let resume = rec.resume_at;
    sys.step_until(resume + TimeDelta::from_us(200));
    sys.host_mut().stop_generation();
    assert!(sys.run_until_idle(TimeDelta::from_ms(50)), "recovery hung");
    sys.sanitize_check_drained();
    let report = sys.sanitizer_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(sys.host().outstanding(), 0);
}

#[test]
fn read_workload_survives_the_same_spike_with_refresh_boost() {
    // 82 °C is below the 85 °C read limit: no shutdown, but above the
    // 80 °C refresh-boost threshold.
    let mut sys = robust_system("thermal-throttle");
    sys.host_mut().apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::MAX,
    ));
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::from_ps(400_000_000));
    assert!(sys.recoveries().is_empty(), "read workload must survive");
    sys.host_mut().stop_generation();
    assert!(sys.run_until_idle(TimeDelta::from_ms(50)));
    sys.sanitize_check_drained();
    assert!(sys.sanitizer_report().is_clean());
}

#[test]
fn thermal_recovery_is_bit_deterministic() {
    let run = || {
        run_builtin(&SystemConfig::default(), "thermal-runaway", &wide())
            .expect("built-in")
            .fingerprint()
    };
    let a = run();
    assert_eq!(a, run(), "recovery cycle must replay identically");
    // The fingerprint proves a shutdown actually happened (index 14).
    assert_eq!(a[14], 1, "exactly one shutdown in the window");
}

#[test]
fn dead_link_drains_onto_the_survivor() {
    let mut sys = robust_system("link-death");
    sys.host_mut().apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::MAX,
    ));
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::from_ps(600_000_000));

    assert!(
        sys.host().link_is_dead(1),
        "stalled link must be declared dead"
    );
    assert!(!sys.host().link_is_dead(0), "survivor stays up");
    assert_eq!(sys.host().live_links(), 1);
    let at_death = sys.host().stats().reads_completed;
    sys.step_until(Time::from_ps(800_000_000));
    assert!(
        sys.host().stats().reads_completed > at_death,
        "traffic keeps flowing through the survivor"
    );
    sys.host_mut().stop_generation();
    assert!(sys.run_until_idle(TimeDelta::from_ms(50)));
    sys.sanitize_check_drained();
    assert!(
        sys.sanitizer_report().is_clean(),
        "{}",
        sys.sanitizer_report()
    );
}

#[test]
fn enabling_robustness_without_faults_is_bit_inert() {
    let mc = MeasureConfig {
        warmup: TimeDelta::from_us(30),
        window: TimeDelta::from_us(150),
    };
    let wl = Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX);
    let plain = run_measurement(&SystemConfig::default(), &wl, &mc);
    let mut cfg = SystemConfig::default();
    cfg.host.robust.enabled = true;
    let robust = run_measurement(&cfg, &wl, &mc);
    // Deadline tracking must observe, never perturb: every figure is
    // identical to the bit with the layer on.
    assert_eq!(
        plain.bandwidth_gbs.to_bits(),
        robust.bandwidth_gbs.to_bits()
    );
    assert_eq!(plain.mrps.to_bits(), robust.mrps.to_bits());
    assert_eq!(
        plain.read_latency.mean().as_ps(),
        robust.read_latency.mean().as_ps()
    );
    assert_eq!(plain.device_delta, robust.device_delta);
}

#[test]
fn every_builtin_scenario_is_clean_and_deterministic() {
    let cfg = SystemConfig::default();
    for name in FaultScenario::builtin_names() {
        let a = run_builtin(&cfg, name, &wide()).expect("built-in");
        assert!(
            a.is_clean(),
            "scenario '{name}' must stay clean:\n{}",
            a.report
        );
        assert_eq!(a.issued, a.completed, "scenario '{name}' lost requests");
        let b = run_builtin(&cfg, name, &wide()).expect("built-in");
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "scenario '{name}' must be deterministic"
        );
    }
}
