//! Chain-wide observability invariants:
//!
//! * arming the full observer surface (lifecycle tracer, per-cube gauge
//!   samplers, epoch profiler) must be *bit-inert* — the simulation's own
//!   results are byte-identical with and without the observers, with the
//!   protocol sanitizer armed in both runs;
//! * the deterministic observer artifacts themselves (gauge streams,
//!   epoch profiles, trace exports) must be byte-identical between a
//!   serial and a parallel pump of the same chain.

use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::observe::{metrics_json, run_chain_observed, TraceReport};
use hmc_core::topology::Topology;
use hmc_core::{JsonReport, SystemBuilder, SystemConfig};
use hmc_host::Workload;

/// Runs an 8-cube chain on `workers` epoch threads, sanitizer armed,
/// optionally with every observer armed on top. Returns the
/// simulation-results fingerprint (which must not see the observers)
/// plus the full sanitizer JSON (identical across worker counts at a
/// *fixed* observer configuration; its check counters legitimately grow
/// with the extra sampling instants an armed gauge sampler pumps).
fn octet_fingerprint(workers: usize, observed: bool) -> (String, String) {
    let mut b = SystemBuilder::new(SystemConfig::default())
        .sanitizer()
        .parallel_shards(workers)
        .topology(Topology::chain(8));
    if observed {
        b = b.tracing(4).metrics(TimeDelta::from_us(1)).epoch_profiler();
    }
    let mut sys = b.build_chain();
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::new(128).expect("size"),
    ));
    sys.start(Time::ZERO);
    sys.run_for(TimeDelta::from_us(5));
    sys.stop_generation();
    assert!(
        sys.run_until_idle(TimeDelta::from_ms(10)),
        "8-cube chain (workers={workers}, observed={observed}) failed to drain"
    );
    sys.sanitize_check_drained();
    let report = sys.sanitizer_report();
    let s = sys.host_stats();
    let results = format!(
        "reads={} bytes={} lat_total={} lat_count={} events={} now={} \
         injected={} retired={} in_flight={} clean={} violations={}",
        s.reads_completed,
        s.counted_bytes,
        s.read_latency.total().as_ps(),
        s.read_latency.count(),
        sys.events_processed(),
        sys.now().as_ps(),
        report.injected(),
        report.retired(),
        report.in_flight(),
        report.is_clean(),
        report.total_violations(),
    );
    (results, report.to_json())
}

#[test]
fn armed_observability_is_bit_inert_on_the_parallel_chain() {
    // Tracer + per-cube samplers + epoch profiler must not move a single
    // byte of the simulation's own results — serial or parallel.
    let (bare, bare_json) = octet_fingerprint(1, false);
    assert!(bare.contains("clean=true"), "chain must sanitize clean");
    let (bare4, bare4_json) = octet_fingerprint(4, false);
    let (armed1, armed1_json) = octet_fingerprint(1, true);
    let (armed4, armed4_json) = octet_fingerprint(4, true);
    for (label, fp) in [
        ("workers=4 bare", &bare4),
        ("workers=1 armed", &armed1),
        ("workers=4 armed", &armed4),
    ] {
        assert_eq!(&bare, fp, "results diverged at {label}");
    }
    // At a fixed observer configuration the sanitizer's own accounting
    // (including check counters) is part of the deterministic surface.
    assert_eq!(bare_json, bare4_json, "bare sanitizer JSON diverged");
    assert_eq!(armed1_json, armed4_json, "armed sanitizer JSON diverged");
}

/// Captures every deterministic observer artifact of one fully-observed
/// chain run: the merged cube-prefixed gauge stream, the epoch profile,
/// and the merged trace report (stage counts + Perfetto export).
fn observer_artifacts(workers: usize) -> String {
    let obs = run_chain_observed(
        &SystemConfig::default(),
        Topology::chain(4),
        &Workload::read_stream(128, RequestSize::new(64).expect("size")),
        None,
        2,
        Some(TimeDelta::from_us(1)),
        workers,
    );
    assert_eq!(obs.integrity_failures, 0);
    let metrics = obs.metrics.expect("metrics were enabled");
    format!(
        "{}\n{}\n{}",
        metrics_json(&metrics),
        obs.profile.to_json(),
        obs.report.chrome_json_with_profile(Some(&obs.profile)),
    )
}

#[test]
fn observer_artifacts_are_identical_serial_vs_parallel() {
    // The gauge stream, the epoch profile, and the trace export are all
    // derived from simulation state only — a parallel pump must emit the
    // very same bytes as the serial one.
    let serial = observer_artifacts(1);
    assert!(serial.contains("cube0.host.outstanding"));
    // Hop gauges are named by global edge index: cube 3's port in a
    // 4-cube chain is edge 2.
    assert!(serial.contains("cube3.hop.edge2.credits"));
    assert!(serial.contains("\"window_utilization\""));
    for workers in [2, 4] {
        let par = observer_artifacts(workers);
        if serial != par {
            let i = serial
                .bytes()
                .zip(par.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(serial.len().min(par.len()));
            let lo = i.saturating_sub(120);
            panic!(
                "observer artifacts diverged at {workers} epoch workers (byte {i}):\nserial: …{}…\nparallel: …{}…",
                &serial[lo..(i + 120).min(serial.len())],
                &par[lo..(i + 120).min(par.len())],
            );
        }
    }
}

#[test]
fn single_cube_chain_report_matches_single_system_report() {
    // The observed chain runner over the identity topology must agree
    // with a `System` from `build()`: same stage totals, no hop spans.
    let workload = Workload::read_stream(32, RequestSize::new(64).expect("size"));
    let chain = run_chain_observed(
        &SystemConfig::default(),
        Topology::chain(1),
        &workload,
        None,
        1,
        None,
        1,
    );
    let mut sys = SystemBuilder::new(SystemConfig::default())
        .tracing(1)
        .build();
    sys.host_mut().apply_workload(&workload);
    sys.host_mut().start(Time::ZERO);
    assert!(sys.run_until_idle(TimeDelta::from_ms(100)));
    let single = TraceReport::from_chain(&sys);
    for s in hmc_core::hmc_types::trace::Stage::ALL {
        assert_eq!(
            chain.report.stage(s).total().as_ps(),
            single.stage(s).total().as_ps(),
            "stage {s} diverged between chain(1) and System"
        );
    }
    assert_eq!(chain.report.json(), single.json(), "exports must agree");
}
