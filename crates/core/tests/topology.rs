//! Topology regression tests.
//!
//! [`System`] is a view over a one-cube [`ChainSystem`] — these tests pin
//! `System::new` and an explicitly built one-cube chain to the same bits
//! (`f64::to_bits` on every derived measurement), and pin the multi-cube
//! pump to deterministic re-execution under an adverse (noisy-link,
//! sanitizer-armed) configuration.

use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::topology::{ChainSystem, Topology};
use hmc_core::{System, SystemConfig};
use hmc_host::Workload;
use sim_engine::FaultScenario;

const WARMUP: TimeDelta = TimeDelta::from_us(20);
const WINDOW: TimeDelta = TimeDelta::from_us(60);

/// Everything a measurement run derives, flattened to exact bits.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    reads_completed: u64,
    writes_completed: u64,
    counted_bytes: u64,
    latency_count: u64,
    latency_mean_ps: u64,
    bandwidth_bits: u64,
    mrps_bits: u64,
    dev_reads: u64,
    dev_writes: u64,
    dev_bytes_down: u64,
    dev_activations: u64,
    events: u64,
    now_ps: u64,
}

fn run_system(cfg: &SystemConfig, w: &Workload) -> Fingerprint {
    let mut sys = System::new(cfg.clone());
    sys.host_mut().apply_workload(w);
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::ZERO + WARMUP);
    sys.host_mut().reset_stats();
    sys.step_until(Time::ZERO + WARMUP + WINDOW);
    let s = sys.host().stats();
    let d = sys.device().stats();
    Fingerprint {
        reads_completed: s.reads_completed,
        writes_completed: s.writes_completed,
        counted_bytes: s.counted_bytes,
        latency_count: s.read_latency.count(),
        latency_mean_ps: s.read_latency.mean().as_ps(),
        bandwidth_bits: s.bandwidth_gbs(WINDOW).to_bits(),
        mrps_bits: s.mrps(WINDOW).to_bits(),
        dev_reads: d.reads_completed,
        dev_writes: d.writes_completed,
        dev_bytes_down: d.bytes_down,
        dev_activations: d.bank_activations,
        events: sys.events_processed(),
        now_ps: sys.now().as_ps(),
    }
}

fn run_chain(cfg: &SystemConfig, w: &Workload) -> Fingerprint {
    let mut sys = ChainSystem::new(cfg.clone(), Topology::single());
    sys.host_mut(0).apply_workload(w);
    sys.host_mut(0).start(Time::ZERO);
    sys.step_until(Time::ZERO + WARMUP);
    sys.reset_stats();
    sys.step_until(Time::ZERO + WARMUP + WINDOW);
    let s = sys.host_stats();
    let d = sys.device(0).stats();
    Fingerprint {
        reads_completed: s.reads_completed,
        writes_completed: s.writes_completed,
        counted_bytes: s.counted_bytes,
        latency_count: s.read_latency.count(),
        latency_mean_ps: s.read_latency.mean().as_ps(),
        bandwidth_bits: s.bandwidth_gbs(WINDOW).to_bits(),
        mrps_bits: s.mrps(WINDOW).to_bits(),
        dev_reads: d.reads_completed,
        dev_writes: d.writes_completed,
        dev_bytes_down: d.bytes_down,
        dev_activations: d.bank_activations,
        events: sys.events_processed(),
        now_ps: sys.now().as_ps(),
    }
}

#[test]
fn single_cube_chain_is_bit_identical_to_system() {
    // Random full-scale traffic exercises every port RNG; mixed traffic
    // exercises the read/write split; the stream exercises exact pacing.
    let workloads = [
        Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(128).expect("size")),
        Workload::mixed(RequestSize::new(64).expect("size"), 0.7),
        Workload::read_stream(512, RequestSize::new(32).expect("size")),
    ];
    let cfg = SystemConfig::default();
    for w in &workloads {
        let a = run_system(&cfg, w);
        let b = run_chain(&cfg, w);
        assert_eq!(a, b, "single-cube chain diverged from System for {w:?}");
        // Streams finish inside the warmup, so only the continuous
        // workloads must show traffic in the measurement window; the
        // stream still pins event counts and the final clock.
        if matches!(w, Workload::Continuous { .. }) {
            assert!(a.reads_completed > 0, "workload produced no traffic");
        }
        assert!(a.events > 0, "no events processed");
    }
}

#[test]
fn single_cube_chain_honours_the_host_rng_salt() {
    // The chain folds its per-cube salt into the configured one, so a
    // one-cube chain draws the same salted streams as `System`.
    let w = Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(128).expect("size"));
    let mut cfg = SystemConfig::default();
    cfg.host.rng_salt = 0x5EED;
    let salted = run_system(&cfg, &w);
    assert_eq!(
        salted,
        run_chain(&cfg, &w),
        "one-cube chain ignored the salt"
    );
    assert_ne!(
        salted,
        run_system(&SystemConfig::default(), &w),
        "the salt moved nothing — test is vacuous"
    );
}

#[test]
fn single_cube_chain_matches_system_under_noisy_link() {
    // The retry path must also be bit-identical: same BER draws, same
    // replay schedule. noisy-link arms BER 1e-6 on both links at t=0.
    let scenario = FaultScenario::builtin("noisy-link").expect("builtin scenario");
    let w = Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(128).expect("size"));

    let mut sys = System::new(SystemConfig::default());
    sys.install_faults(&scenario);
    sys.host_mut().apply_workload(&w);
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::ZERO + WINDOW);

    let mut chain = ChainSystem::new(SystemConfig::default(), Topology::single());
    chain.install_faults(0, &scenario);
    chain.host_mut(0).apply_workload(&w);
    chain.host_mut(0).start(Time::ZERO);
    chain.step_until(Time::ZERO + WINDOW);

    assert!(
        sys.device().stats().link_retries > 0,
        "scenario injected no retries — test is vacuous"
    );
    assert_eq!(
        sys.device().stats().link_retries,
        chain.device(0).stats().link_retries
    );
    assert_eq!(
        sys.host().stats().reads_completed,
        chain.host_stats().reads_completed
    );
    assert_eq!(sys.events_processed(), chain.events_processed());
}

/// Drives a two-cube chain under the noisy-link scenario on both cubes
/// with the sanitizer armed, and returns its deterministic surface.
fn run_noisy_pair() -> (String, u64, u64, u64) {
    let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(2));
    sys.enable_sanitizer();
    let scenario = FaultScenario::builtin("noisy-link").expect("builtin scenario");
    sys.install_faults(0, &scenario);
    sys.install_faults(1, &scenario);
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::new(128).expect("size"),
    ));
    sys.start(Time::ZERO);
    sys.run_for(TimeDelta::from_us(50));
    sys.stop_generation();
    let drained = sys.run_until_idle(TimeDelta::from_ms(10));
    assert!(drained, "noisy two-cube chain failed to drain");
    sys.sanitize_check_drained();
    let s = sys.host_stats();
    (
        sys.sanitizer_report().to_json(),
        s.reads_completed,
        sys.device(0).stats().link_retries + sys.device(1).stats().link_retries,
        sys.events_processed(),
    )
}

/// Runs a `cubes`-cube chain with the sanitizer armed on `workers` epoch
/// workers and flattens every observable surface — merged host window,
/// per-cube device counters, event totals, final clock, and the full
/// sanitizer report — into one comparable string.
fn run_sharded(cubes: u8, workers: usize) -> String {
    let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(cubes));
    sys.set_parallel_shards(workers);
    sys.enable_sanitizer();
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::new(128).expect("size"),
    ));
    sys.start(Time::ZERO);
    sys.run_for(TimeDelta::from_us(5));
    sys.stop_generation();
    assert!(
        sys.run_until_idle(TimeDelta::from_ms(10)),
        "{cubes}-cube chain on {workers} workers failed to drain"
    );
    sys.sanitize_check_drained();
    let s = sys.host_stats();
    let mut out = format!(
        "reads={} writes={} bytes={} lat_n={} lat_mean={} events={} now={}\n",
        s.reads_completed,
        s.writes_completed,
        s.counted_bytes,
        s.read_latency.count(),
        s.read_latency.mean().as_ps(),
        sys.events_processed(),
        sys.now().as_ps(),
    );
    for c in 0..sys.cubes() {
        let d = sys.device(c).stats();
        out.push_str(&format!(
            "cube{c}: reads={} writes={} down={} up={} acts={} retries={}\n",
            d.reads_completed,
            d.writes_completed,
            d.bytes_down,
            d.bytes_up,
            d.bank_activations,
            d.link_retries,
        ));
    }
    out.push_str(&sys.sanitizer_report().to_json());
    out
}

#[test]
fn parallel_shards_are_bit_identical_to_serial() {
    // The tentpole claim: the epoch scheduler computes the same states no
    // matter how many worker threads pump the shards — at every cube
    // count. Serial (1 worker) is the reference; 2/4/8 workers must agree
    // byte for byte, sanitizer report included.
    for cubes in 1..=8u8 {
        let serial = run_sharded(cubes, 1);
        for workers in [2, 4, 8] {
            let parallel = run_sharded(cubes, workers);
            assert_eq!(
                serial, parallel,
                "{cubes} cubes diverged on {workers} workers"
            );
        }
        assert!(
            serial.contains("\"clean\":true"),
            "sanitizer flagged the {cubes}-cube run: {serial}"
        );
    }
}

#[test]
fn noisy_two_cube_chain_drains_deterministically() {
    let a = run_noisy_pair();
    let b = run_noisy_pair();
    assert_eq!(a, b, "noisy chain runs must agree to the byte");
    assert!(a.2 > 0, "noisy-link scenario injected no retries");
    // The sanitizer saw a fully conserved run: no violations even with
    // every packet at risk of replay on both cubes' host links.
    assert!(
        a.0.contains("\"clean\":true"),
        "sanitizer flagged the noisy chain: {}",
        a.0
    );
}
