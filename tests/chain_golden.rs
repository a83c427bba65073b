//! Chain golden artifacts: multi-cube runs pinned byte for byte.
//!
//! The other chain suites compare a serial pump against a sharded one,
//! so a change to the per-instant pump that both share would pass them.
//! These tests pin the absolute output instead: for 2-, 4- and 8-cube
//! chains and a 4-cube star, with the sanitizer, the per-cube gauge
//! samplers and the epoch profiler armed, the event count, host
//! statistics, read-latency histogram bits, merged metrics JSON, epoch
//! profile JSON and sanitizer JSON must equal the files
//! `tests/golden/chain_*.json`. They were captured from a pump that swept
//! every port at every instant, so they hold the hop agenda to that
//! pump's exact behaviour.

use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::observe::metrics_json;
use hmc_core::topology::Topology;
use hmc_core::{SystemBuilder, SystemConfig};
use hmc_host::Workload;

/// Full-scale traffic for this long, then generation stops and the
/// chain drains.
const SPAN: TimeDelta = TimeDelta::from_us(5);

/// Runs one fully armed chain and renders its deterministic surface.
fn render(topo: Topology, kind: RequestKind, bytes: u64, hop_ber: Option<(usize, f64)>) -> String {
    let mut sys = SystemBuilder::new(SystemConfig::default())
        .topology(topo)
        .sanitizer()
        .metrics(TimeDelta::from_us(1))
        .epoch_profiler()
        .build_chain();
    if let Some((edge, ber)) = hop_ber {
        sys.set_hop_bit_error_rate(edge, ber);
    }
    sys.apply_workload(&Workload::full_scale(
        kind,
        RequestSize::new(bytes).expect("size"),
    ));
    sys.start(Time::ZERO);
    sys.run_for(SPAN);
    sys.stop_generation();
    assert!(
        sys.run_until_idle(TimeDelta::from_ms(10)),
        "{topo} failed to drain"
    );
    sys.sanitize_check_drained();
    let s = sys.host_stats();
    let h = &s.read_latency;
    let ps = |d: Option<TimeDelta>| d.map_or(0, TimeDelta::as_ps);
    format!(
        "{{\"topology\":\"{topo}\",\"events\":{},\"now_ps\":{},\n\
         \"host\":{{\"reads_issued\":{},\"writes_issued\":{},\"reads_completed\":{},\
         \"writes_completed\":{},\"counted_bytes\":{},\"integrity_failures\":{}}},\n\
         \"latency\":{{\"count\":{},\"total_ps\":{},\"min_ps\":{},\"max_ps\":{},\
         \"p50_ps\":{},\"p99_ps\":{},\"p999_ps\":{},\"std_dev_bits\":{}}},\n\
         \"metrics\":{},\n\"profile\":{},\n\"sanitizer\":{}}}\n",
        sys.events_processed(),
        sys.now().as_ps(),
        s.reads_issued,
        s.writes_issued,
        s.reads_completed,
        s.writes_completed,
        s.counted_bytes,
        s.integrity_failures,
        h.count(),
        h.total().as_ps(),
        ps(h.min()),
        ps(h.max()),
        ps(h.quantile(0.5)),
        ps(h.quantile(0.99)),
        ps(h.p999()),
        h.std_dev_ps().to_bits(),
        metrics_json(&sys.merged_metrics().expect("metrics armed")),
        sys.epoch_profile().expect("profiler armed").to_json(),
        sys.sanitizer_report().to_json(),
    )
}

/// Asserts `actual` equals a golden file, reporting the first
/// diverging byte with context instead of two multi-kilobyte strings.
fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual == golden {
        return;
    }
    let i = actual
        .bytes()
        .zip(golden.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(actual.len().min(golden.len()));
    let lo = i.saturating_sub(160);
    panic!(
        "{name} diverged from its golden at byte {i}:\nactual: …{}…\ngolden: …{}…",
        &actual[lo..(i + 160).min(actual.len())],
        &golden[lo..(i + 160).min(golden.len())],
    );
}

#[test]
fn chain2_matches_golden() {
    let out = render(Topology::chain(2), RequestKind::ReadOnly, 128, None);
    assert_golden(&out, include_str!("golden/chain_2.json"), "chain_2");
}

#[test]
fn chain4_noisy_hop_matches_golden() {
    // Mixed reads and writes, plus a noisy middle edge so the hop
    // serializers resolve CRC retries.
    let out = render(
        Topology::chain(4),
        RequestKind::ReadModifyWrite,
        64,
        Some((1, 1e-5)),
    );
    assert_golden(&out, include_str!("golden/chain_4.json"), "chain_4");
}

#[test]
fn chain8_matches_golden() {
    let out = render(Topology::chain(8), RequestKind::ReadOnly, 128, None);
    assert_golden(&out, include_str!("golden/chain_8.json"), "chain_8");
}

#[test]
fn star4_matches_golden() {
    // Spoke-to-spoke traffic crosses the hub: two hops, and the hub's
    // three ports contend in one sweep.
    let out = render(Topology::star(4), RequestKind::ReadOnly, 32, None);
    assert_golden(&out, include_str!("golden/chain_star4.json"), "chain_star4");
}
