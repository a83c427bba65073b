//! The paper's reported numbers (Hadidi et al., "Demystifying the
//! Characteristics of 3D-Stacked Memories: A Case Study for Hybrid Memory
//! Cube", IISWC 2017) and the paper checks that compare them with the
//! model.
//!
//! Each `*_checks` function maps one experiment's result type to its
//! paper-vs-measured rows; `repro figure <target>` prints them after the
//! target's tables and exits nonzero if any row misses its range.

use hmc_core::experiments::ablation::DesignAblations;
use hmc_core::experiments::bandwidth::{MaskSweepPoint, PatternPoint, SizePoint};
use hmc_core::experiments::baseline::BaselineComparison;
use hmc_core::experiments::faults::FaultPoint;
use hmc_core::experiments::generations::GenerationPoint;
use hmc_core::experiments::kernels::{Kernel, KernelResult};
use hmc_core::experiments::latency::{
    Deconstruction, HighLoadPoint, LatencyBandwidthCurve, StreamPoint,
};
use hmc_core::experiments::mapping::MappingPoint;
use hmc_core::experiments::page_policy::{PagePolicyAblation, PagePolicyPoint};
use hmc_core::experiments::read_ratio::{optimal_ratio, ReadRatioPoint};
use hmc_core::experiments::thermal::{CoolingPowerLine, Figure11, ThermalOutcome};
use hmc_core::hmc_host::workload::Addressing;
use hmc_core::AccessPattern;
use hmc_pim::experiments::{EnvelopeRow, PimMeasurement};
use hmc_types::{HmcSpec, InterleaveOrder, LinkConfig, RequestKind, RequestSize};
use sim_engine::LinearFit;

use crate::Comparison;

/// Counted read-only bandwidth at 128 B over 16 vaults (Figures 6–8), GB/s.
pub const RO_16V_128B_GBS: f64 = 21.0;

/// Approximate rw / wo bandwidth ratio (Figure 7: "roughly double").
pub const RW_OVER_WO: f64 = 2.0;

/// Single-vault internal bandwidth ceiling, GB/s (Section IV-A).
pub const VAULT_CEILING_GBS: f64 = 10.0;

/// Minimum low-load read latency at 16 B, ns (Section IV-E2).
pub const MIN_LATENCY_16B_NS: f64 = 655.0;

/// Minimum low-load read latency at 128 B, ns (Section IV-E2).
pub const MIN_LATENCY_128B_NS: f64 = 711.0;

/// Infrastructure (FPGA + link) share of the round trip, ns.
pub const INFRA_NS: f64 = 547.0;

/// Average in-cube share of the round trip, ns.
pub const IN_CUBE_NS: f64 = 125.0;

/// High-load read latency, 32 B across 16 vaults, ns (Figure 16).
pub const HIGH_LOAD_32B_16V_NS: f64 = 1_966.0;

/// High-load read latency, 128 B to one bank, ns (Figure 16).
pub const HIGH_LOAD_128B_1BANK_NS: f64 = 24_233.0;

/// High-load average over low-load average (Section IV-E3).
pub const HIGH_OVER_LOW_LOAD: f64 = 12.0;

/// Little's-law outstanding requests at saturation, 4-bank pattern
/// (Figure 17a).
pub const OUTSTANDING_4BANK: f64 = 375.0;

/// Temperature rise from 5 to 20 GB/s in Cfg2, read-only, °C
/// (Figure 11a).
pub const TEMP_RISE_5_TO_20_C: f64 = 3.0;

/// Device power rise from 5 to 20 GB/s, W (Figure 11b).
pub const POWER_RISE_5_TO_20_W: f64 = 2.0;

/// Cooling-power growth per 16 GB/s of bandwidth, W (Section IV-C).
pub const COOLING_W_PER_16_GBS: f64 = 1.5;

/// Thermal limit for read-dominated workloads, °C.
pub const READ_LIMIT_C: f64 = 85.0;

/// Thermal limit for write-heavy workloads, °C.
pub const WRITE_LIMIT_C: f64 = 75.0;

/// Table III idle temperatures, °C, Cfg1..Cfg4.
pub const IDLE_TEMPS_C: [f64; 4] = [43.1, 51.7, 62.3, 71.6];

/// Table III cooling powers, W, Cfg1..Cfg4.
pub const COOLING_POWERS_W: [f64; 4] = [19.32, 15.9, 13.9, 10.78];

/// Wire efficiency at 128 B requests (Section IV-D).
pub const WIRE_EFFICIENCY_128B: f64 = 128.0 / 144.0;

/// Wire efficiency at 16 B requests (Section IV-D).
pub const WIRE_EFFICIENCY_16B: f64 = 0.5;

/// Peak bidirectional link bandwidth of the AC-510 arrangement, GB/s
/// (Equation 2).
pub const PEAK_BANDWIDTH_GBS: f64 = 60.0;

/// Total banks in a 4 GB HMC 1.1 (Equation 1).
pub const TOTAL_BANKS_GEN2: u32 = 256;

/// Table I: Equation 1 (banks of a 4 GB HMC 1.1) and Equation 2 (peak
/// link bandwidth of the AC-510 arrangement).
pub fn table1_checks(gen2: &HmcSpec, links: &LinkConfig) -> Vec<Comparison> {
    vec![
        Comparison::range(
            "total banks, 4 GB HMC 1.1 (Eq. 1)",
            format!("{TOTAL_BANKS_GEN2}"),
            gen2.total_banks() as f64,
            "banks",
            256.0,
            256.0,
        ),
        Comparison::range(
            "peak bandwidth, 2x half-width @15 Gb/s (Eq. 2)",
            format!("{PEAK_BANDWIDTH_GBS} GB/s"),
            links.peak_bandwidth_bytes_per_sec() as f64 / 1e9,
            "GB/s",
            60.0,
            60.0,
        ),
    ]
}

/// Table II: wire efficiency at the largest and smallest request size.
pub fn table2_checks() -> Vec<Comparison> {
    vec![
        Comparison::range(
            "wire efficiency at 128 B",
            "89%",
            RequestSize::MAX.wire_efficiency() * 100.0,
            "%",
            88.0,
            90.0,
        ),
        Comparison::range(
            "wire efficiency at 16 B",
            "50%",
            RequestSize::MIN.wire_efficiency() * 100.0,
            "%",
            50.0,
            50.0,
        ),
    ]
}

/// Figure 6: the mask sweep exposes the bank / vault hierarchy.
pub fn fig6_checks(points: &[MaskSweepPoint]) -> Vec<Comparison> {
    let bw = |label: &str| {
        points
            .iter()
            .find(|p| p.label == label && p.kind == RequestKind::ReadOnly)
            .map_or(0.0, |p| p.bandwidth_gbs)
    };
    vec![
        Comparison::range(
            "row-only mask (24-31) ro bandwidth",
            "near peak, ≈21 GB/s",
            bw("24-31"),
            "GB/s",
            16.0,
            24.0,
        ),
        Comparison::range(
            "one-bank mask (7-14) is the minimum",
            "global minimum of the sweep",
            bw("7-14"),
            "GB/s",
            0.5,
            2.0,
        ),
        Comparison::range(
            "drop from two vaults (2-9) to one vault (3-10)",
            "large drop (vault ceiling 10 GB/s)",
            bw("2-9") / bw("3-10"),
            "x",
            1.5,
            3.0,
        ),
        Comparison::range(
            "one-vault mask (3-10) bandwidth",
            "≈10 GB/s internal ceiling",
            bw("3-10"),
            "GB/s",
            8.0,
            12.0,
        ),
    ]
}

/// Figure 7: the request-kind ordering at 128 B.
pub fn fig7_checks(points: &[PatternPoint]) -> Vec<Comparison> {
    let bw = |pattern: AccessPattern, kind: RequestKind| {
        points
            .iter()
            .find(|p| p.pattern == pattern && p.kind == kind)
            .map_or(0.0, |p| p.bandwidth_gbs)
    };
    let v16 = AccessPattern::Vaults(16);
    let ro = bw(v16, RequestKind::ReadOnly);
    let rw = bw(v16, RequestKind::ReadModifyWrite);
    let wo = bw(v16, RequestKind::WriteOnly);
    vec![
        Comparison::range(
            "ro 128 B over 16 vaults",
            format!("≈{RO_16V_128B_GBS} GB/s"),
            ro,
            "GB/s",
            17.0,
            24.0,
        ),
        Comparison::range(
            "rw beats ro (bi-directional utilization)",
            "rw > ro",
            rw / ro,
            "x",
            1.01,
            2.0,
        ),
        Comparison::range(
            "rw / wo ratio",
            format!("≈{RW_OVER_WO}x (reads limited by writes)"),
            rw / wo,
            "x",
            1.6,
            2.4,
        ),
        Comparison::range(
            "8 banks ≈ 1 vault (bus-saturated)",
            "equal within noise",
            bw(AccessPattern::Banks(8), RequestKind::ReadOnly)
                / bw(AccessPattern::Vaults(1), RequestKind::ReadOnly),
            "x",
            0.8,
            1.2,
        ),
    ]
}

/// Figure 8: small requests trade bandwidth for request rate.
pub fn fig8_checks(points: &[SizePoint]) -> Vec<Comparison> {
    let at = |pattern: AccessPattern, bytes: u64| {
        points
            .iter()
            .find(|p| p.pattern == pattern && p.size.bytes() == bytes)
            .copied()
            .expect("point exists")
    };
    let v16 = AccessPattern::Vaults(16);
    let b2 = AccessPattern::Banks(2);
    vec![
        Comparison::range(
            "16 vaults: 32 B MRPS over 128 B MRPS",
            "≈2x as many requests handled",
            at(v16, 32).mrps / at(v16, 128).mrps,
            "x",
            1.4,
            2.4,
        ),
        Comparison::range(
            "16 vaults: 32 B bandwidth below 128 B",
            "smaller requests waste overhead",
            at(v16, 32).bandwidth_gbs / at(v16, 128).bandwidth_gbs,
            "x",
            0.4,
            0.9,
        ),
        Comparison::range(
            "2 banks: request rate similar across sizes",
            "similar number of requests (DRAM-bound)",
            at(b2, 32).mrps / at(b2, 128).mrps,
            "x",
            0.8,
            1.6,
        ),
    ]
}

/// Figure 9: which workloads fail thermally across the four cooling
/// configurations (`outcomes` holds every kind).
pub fn fig9_checks(outcomes: &[ThermalOutcome]) -> Vec<Comparison> {
    let failures = |reads: bool| {
        outcomes
            .iter()
            .filter(|o| (o.kind == RequestKind::ReadOnly) == reads && o.failure.is_some())
            .count() as f64
    };
    vec![
        Comparison::range(
            "read-only thermal failures across all configs",
            "none (ro survives even weak cooling)",
            failures(true),
            "failures",
            0.0,
            0.0,
        ),
        Comparison::range(
            "write-workload thermal failures (weak cooling)",
            "wo/rw fail under weak cooling (~75 C limit)",
            failures(false),
            "failures",
            1.0,
            40.0,
        ),
    ]
}

/// Where the model knowingly departs from the paper's Figure 9.
pub const FIG9_DIVERGENCE: &str = "Known divergence: the paper's Fig 9b omits wo at Cfg3 \
     (failure); in this model\nwo at Cfg3 settles a few degrees below the write limit and \
     survives. The write\nfailure band is reproduced at Cfg4. See EXPERIMENTS.md.";

/// Figure 11: the Cfg2 temperature and power fits against bandwidth.
pub fn fig11_checks(f: &Figure11) -> Vec<Comparison> {
    let fit = |fits: &[(RequestKind, LinearFit)], kind| {
        fits.iter().find(|(k, _)| *k == kind).map(|(_, f)| *f)
    };
    let ro_temp = fit(&f.temp_fits, RequestKind::ReadOnly);
    let ro_power = fit(&f.power_fits, RequestKind::ReadOnly);
    let wo_temp = fit(&f.temp_fits, RequestKind::WriteOnly);
    let wo_slope_ratio = match (ro_temp, wo_temp) {
        (Some(r), Some(w)) => w.slope / r.slope,
        _ => 0.0,
    };
    vec![
        Comparison::range(
            "temperature rise 5 -> 20 GB/s, ro, Cfg2",
            format!("≈{TEMP_RISE_5_TO_20_C} C"),
            ro_temp.map_or(0.0, |f| f.predict(20.0) - f.predict(5.0)),
            "C",
            1.5,
            6.0,
        ),
        Comparison::range(
            "device power rise 5 -> 20 GB/s",
            format!("≈{POWER_RISE_5_TO_20_W} W"),
            ro_power.map_or(0.0, |f| f.predict(20.0) - f.predict(5.0)),
            "W",
            1.0,
            3.5,
        ),
        Comparison::range(
            "wo temperature slope vs ro slope",
            "writes more temperature-sensitive (steeper)",
            wo_slope_ratio,
            "x",
            1.05,
            3.0,
        ),
    ]
}

/// Figure 12: cooling power growth per 16 GB/s on the `ro` line that
/// holds 55 C.
pub fn fig12_checks(lines: &[CoolingPowerLine]) -> Vec<Comparison> {
    let per_16 = lines
        .iter()
        .find(|l| l.kind == RequestKind::ReadOnly && l.target_c == 55.0)
        .and_then(|l| Some((*l.points.first()?, *l.points.last()?)))
        .map_or(0.0, |(first, last)| {
            let span_bw = last.0 - first.0;
            if span_bw > 0.0 {
                (last.1 - first.1) / span_bw * 16.0
            } else {
                0.0
            }
        });
    vec![Comparison::range(
        "cooling power growth per 16 GB/s (hold 55 C)",
        format!("≈{COOLING_W_PER_16_GBS} W"),
        per_16,
        "W",
        0.5,
        3.0,
    )]
}

/// Figure 13: closed page makes linear and random equal, and the
/// open-page ablation shows how little HMC gives up.
pub fn fig13_checks(points: &[PagePolicyPoint], open: &PagePolicyAblation) -> Vec<Comparison> {
    let bw = |pattern: AccessPattern, mode: Addressing, bytes: u64| {
        points
            .iter()
            .find(|p| p.pattern == pattern && p.addressing == mode && p.size.bytes() == bytes)
            .map_or(0.0, |p| p.bandwidth_gbs)
    };
    let v16 = AccessPattern::Vaults(16);
    let v1 = AccessPattern::Vaults(1);
    vec![
        Comparison::range(
            "16 vaults: random / linear at 128 B",
            "equal (closed page; random slightly ahead)",
            bw(v16, Addressing::Random, 128) / bw(v16, Addressing::Linear, 128),
            "x",
            0.85,
            1.15,
        ),
        Comparison::range(
            "1 vault: random / linear at 128 B",
            "equal (no row-buffer benefit)",
            bw(v1, Addressing::Random, 128) / bw(v1, Addressing::Linear, 128),
            "x",
            0.85,
            1.15,
        ),
        Comparison::range(
            "16 vaults: 128 B over 16 B bandwidth",
            "climbs with block size (overhead amortized)",
            bw(v16, Addressing::Random, 128) / bw(v16, Addressing::Random, 16),
            "x",
            1.7,
            3.5,
        ),
        Comparison::range(
            "open-page gain on the friendliest workload",
            "small (256 B rows): closed page is cheap",
            open.open_gbs / open.closed_gbs,
            "x",
            0.9,
            1.5,
        ),
    ]
}

/// Figure 14: the minimum round trip at 16 B and 128 B and its split.
pub fn fig14_checks(d16: &Deconstruction, d128: &Deconstruction) -> Vec<Comparison> {
    vec![
        Comparison::range(
            "minimum round trip, 16 B read",
            format!("{MIN_LATENCY_16B_NS} ns"),
            d16.measured_ns,
            "ns",
            500.0,
            820.0,
        ),
        Comparison::range(
            "minimum round trip, 128 B read",
            format!("{MIN_LATENCY_128B_NS} ns"),
            d128.measured_ns,
            "ns",
            550.0,
            880.0,
        ),
        Comparison::range(
            "infrastructure share (TX + RX)",
            format!("{INFRA_NS} ns"),
            d128.infra_ns,
            "ns",
            400.0,
            600.0,
        ),
        Comparison::range(
            "in-cube share",
            format!("≈{IN_CUBE_NS} ns average"),
            d128.in_cube_ns,
            "ns",
            70.0,
            280.0,
        ),
    ]
}

/// Figure 15: low-load stream latency grows with size and stream length.
pub fn fig15_checks(points: &[StreamPoint]) -> Vec<Comparison> {
    let at = |bytes: u64, n: usize| {
        points
            .iter()
            .find(|p| p.size.bytes() == bytes && p.n == n)
            .expect("point exists")
    };
    vec![
        Comparison::range(
            "28-packet stream: 128 B avg over 16 B avg",
            "≈1.5x (interference grows with size)",
            at(128, 28).avg_ns / at(16, 28).avg_ns,
            "x",
            1.05,
            2.0,
        ),
        Comparison::range(
            "max latency growth with stream length (128 B)",
            "maximum grows; minimum stays flat",
            at(128, 28).max_ns - at(128, 2).max_ns,
            "ns",
            30.0,
            2_000.0,
        ),
    ]
}

/// Figure 16: high-load latency is queueing-dominated.
pub fn fig16_checks(points: &[HighLoadPoint]) -> Vec<Comparison> {
    let lat = |pattern: AccessPattern, bytes: u64| {
        points
            .iter()
            .find(|p| p.pattern == pattern && p.size.bytes() == bytes)
            .map_or(0.0, |p| p.latency_ns)
    };
    vec![
        Comparison::range(
            "32 B across 16 vaults",
            format!("{HIGH_LOAD_32B_16V_NS} ns"),
            lat(AccessPattern::Vaults(16), 32),
            "ns",
            1_200.0,
            4_500.0,
        ),
        Comparison::range(
            "128 B to one bank",
            format!("{HIGH_LOAD_128B_1BANK_NS} ns"),
            lat(AccessPattern::Banks(1), 128),
            "ns",
            12_000.0,
            40_000.0,
        ),
        Comparison::range(
            "one bank / 16 vaults latency ratio (128 B)",
            "order of magnitude (queueing at the bank)",
            lat(AccessPattern::Banks(1), 128) / lat(AccessPattern::Vaults(16), 128),
            "x",
            3.0,
            20.0,
        ),
        Comparison::range(
            "32 B faster than 128 B at the same pattern",
            "32 B always lower (one DRAM-bus beat)",
            lat(AccessPattern::Banks(1), 32) / lat(AccessPattern::Banks(1), 128),
            "x",
            0.1,
            0.99,
        ),
    ]
}

/// The curve of `pattern` at `bytes`, if swept.
fn curve(
    curves: &[LatencyBandwidthCurve],
    pattern: AccessPattern,
    bytes: u64,
) -> Option<&LatencyBandwidthCurve> {
    curves
        .iter()
        .find(|c| c.pattern == pattern && c.size.bytes() == bytes)
}

/// Figure 17: Little's-law outstanding requests at the 4-bank and 2-bank
/// knees.
pub fn fig17_checks(curves: &[LatencyBandwidthCurve]) -> Vec<Comparison> {
    let outstanding = |pattern| {
        curve(curves, pattern, 128)
            .and_then(|c| c.analysis.points.last())
            .map_or(0.0, |p| p.outstanding())
    };
    let o4 = outstanding(AccessPattern::Banks(4));
    let o2 = outstanding(AccessPattern::Banks(2));
    vec![
        Comparison::range(
            "outstanding at saturation, 4 banks (Little's law)",
            format!("≈{OUTSTANDING_4BANK}"),
            o4,
            "requests",
            200.0,
            600.0,
        ),
        Comparison::range(
            "4-bank / 2-bank outstanding ratio",
            "≈2x (one queue per bank)",
            o4 / o2,
            "x",
            1.5,
            2.5,
        ),
    ]
}

/// Figure 18: saturation bandwidth of one and two vaults.
pub fn fig18_checks(curves: &[LatencyBandwidthCurve]) -> Vec<Comparison> {
    let sat = |pattern| {
        curve(curves, pattern, 128).map_or(0.0, |c| c.analysis.saturation_bandwidth_gbs())
    };
    let v1 = sat(AccessPattern::Vaults(1));
    let v2 = sat(AccessPattern::Vaults(2));
    vec![
        Comparison::range(
            "1-vault saturation bandwidth",
            format!("≈{VAULT_CEILING_GBS} GB/s"),
            v1,
            "GB/s",
            8.0,
            12.0,
        ),
        Comparison::range(
            "2-vault / 1-vault saturation ratio",
            "≈2x (19 GB/s vs 10 GB/s)",
            v2 / v1,
            "x",
            1.5,
            2.4,
        ),
    ]
}

/// The DDR baseline at 128 B: the packet interface's latency premium and
/// the concurrency it buys.
pub fn baseline_checks(rows: &[BaselineComparison]) -> Vec<Comparison> {
    let c = rows
        .iter()
        .find(|r| r.size == RequestSize::MAX)
        .expect("128 B row exists");
    vec![
        Comparison::range(
            "HMC unloaded latency premium over DDR",
            "packet interface costs ~10x unloaded",
            c.hmc_unloaded_ns / c.ddr_unloaded_ns,
            "x",
            5.0,
            25.0,
        ),
        Comparison::range(
            "HMC in-cube share over one DDR access",
            "≈2x a closed-page DRAM access",
            c.hmc_in_cube_ns / c.ddr_unloaded_ns,
            "x",
            1.0,
            6.0,
        ),
        Comparison::range(
            "HMC / DDR loaded bandwidth (128 B reads)",
            "HMC wins on concurrency",
            c.hmc_bandwidth_gbs / c.ddr_bandwidth_gbs,
            "x",
            1.05,
            4.0,
        ),
    ]
}

/// The read-ratio sweep against the related-work optimum (HMCSim,
/// OpenHMC).
pub fn readratio_checks(points: &[ReadRatioPoint]) -> Vec<Comparison> {
    let peak = optimal_ratio(points).expect("sweep not empty");
    let pure_reads = points.last().expect("sweep not empty");
    let pure_writes = points.first().expect("sweep not empty");
    vec![
        Comparison::range(
            "optimal read ratio",
            "53-66 % reads maximizes link utilization",
            peak.read_fraction * 100.0,
            "%",
            40.0,
            80.0,
        ),
        Comparison::range(
            "peak over pure reads",
            "mixed traffic fills both directions",
            peak.bandwidth_gbs / pure_reads.bandwidth_gbs,
            "x",
            1.1,
            2.0,
        ),
        Comparison::range(
            "peak over pure writes",
            "writes alone idle the downstream direction",
            peak.bandwidth_gbs / pure_writes.bandwidth_gbs,
            "x",
            1.3,
            3.5,
        ),
    ]
}

/// The design knobs move the figures DESIGN.md says they move.
pub fn ablation_checks(a: &DesignAblations) -> Vec<Comparison> {
    vec![
        Comparison::range(
            "bank-queue depth doubles -> outstanding grows",
            "knee position tracks queue capacity",
            a.knee_outstanding[3] / a.knee_outstanding[1],
            "x",
            1.5,
            6.0,
        ),
        Comparison::range(
            "write drain halved -> wo bandwidth drops",
            "wo ceiling tracks the drain knob",
            a.wo_gbs[0] / a.wo_gbs[1],
            "x",
            0.3,
            0.8,
        ),
        Comparison::range(
            "zero packet overhead -> ro ceiling rises",
            "read ceiling tracks the overhead knob",
            a.ro_gbs[0] / a.ro_gbs[2],
            "x",
            1.1,
            2.5,
        ),
    ]
}

/// The PIM projection: in-stack updates against host-driven updates per
/// second, and the thermal envelope across cooling configurations.
pub fn pim_checks(
    host_updates_per_sec: f64,
    pim: &PimMeasurement,
    envelope: &[EnvelopeRow],
) -> Vec<Comparison> {
    vec![
        Comparison::range(
            "PIM / host update-rate advantage",
            "in-stack updates dodge the link+packet path",
            pim.ops_per_sec / host_updates_per_sec,
            "x",
            1.3,
            20.0,
        ),
        Comparison::range(
            "in-stack memory latency",
            "a fraction of the ~650 ns external round trip",
            pim.mem_latency_ns,
            "ns",
            20.0,
            400.0,
        ),
        Comparison::range(
            "envelope monotone: Cfg1 over Cfg4 sustainable rate",
            "stronger cooling buys more in-stack compute",
            envelope[0].max_ops_per_sec / envelope[3].max_ops_per_sec.max(1.0),
            "x",
            1.0,
            1e9,
        ),
    ]
}

/// The application kernels: closed page makes locality free to ignore.
pub fn kernels_checks(results: &[KernelResult]) -> Vec<Comparison> {
    let get = |k: Kernel| results.iter().find(|r| r.kernel == k).expect("present");
    vec![
        Comparison::range(
            "scan == gather (closed page: locality is free to ignore)",
            "conclusion (iii) of the paper",
            get(Kernel::Scan).bandwidth_gbs / get(Kernel::Gather).bandwidth_gbs,
            "x",
            0.85,
            1.15,
        ),
        Comparison::range(
            "pointer chase pays one round trip per hop",
            "~unloaded latency per dependent access",
            get(Kernel::PointerChase).latency_ns,
            "ns",
            550.0,
            900.0,
        ),
        Comparison::range(
            "hot 2 KB structure vs scan bandwidth",
            "small structures are parallelism-starved",
            get(Kernel::HotSpot).bandwidth_gbs / get(Kernel::Scan).bandwidth_gbs,
            "x",
            0.3,
            0.95,
        ),
    ]
}

/// The address-mapping ablation on a 2 KB hot buffer.
pub fn mapping_checks(points: &[MappingPoint]) -> Vec<Comparison> {
    let hot = |order: InterleaveOrder| {
        points
            .iter()
            .find(|p| p.order == order && p.max_block.bytes() == 128)
            .expect("present")
            .hot_buffer_gbs
    };
    let bank_first = hot(InterleaveOrder::BankThenVault);
    vec![
        Comparison::range(
            "bank-first interleave on a 2 KB buffer",
            "packs it into one vault: ~10 GB/s cap",
            bank_first,
            "GB/s",
            8.0,
            12.0,
        ),
        Comparison::range(
            "default interleave on the same buffer",
            "spreads it across all 16 vaults",
            hot(InterleaveOrder::VaultThenBank) / bank_first,
            "x",
            1.4,
            2.5,
        ),
    ]
}

/// The bit-error sweep (over `faults::BER_AXIS`): rare errors are free,
/// heavy ones derate the read ceiling.
pub fn faults_checks(points: &[FaultPoint]) -> Vec<Comparison> {
    vec![
        Comparison::range(
            "rare lane errors (1e-9) cost nothing",
            "integrity machinery absorbs them",
            points[1].bandwidth_gbs / points[0].bandwidth_gbs,
            "x",
            0.97,
            1.03,
        ),
        Comparison::range(
            "heavy lane errors (1e-5) derate the ceiling",
            "retries burn wire time",
            points[4].bandwidth_gbs / points[0].bandwidth_gbs,
            "x",
            0.5,
            0.98,
        ),
    ]
}

/// The generation sweep (HMC 1.0, 1.1, 2.0): the four-link HMC 2.0
/// projection.
pub fn generations_checks(points: &[GenerationPoint]) -> Vec<Comparison> {
    vec![Comparison::range(
        "HMC 2.0 (4 links) over HMC 1.1 read ceiling",
        "projection for the then-unreleased part",
        points[2].ro_gbs / points[1].ro_gbs,
        "x",
        1.3,
        2.5,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_are_sane() {
        let sizes = [MIN_LATENCY_16B_NS, MIN_LATENCY_128B_NS];
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        let split = [INFRA_NS + IN_CUBE_NS, MIN_LATENCY_128B_NS + 60.0];
        assert!(split.windows(2).all(|w| w[0] < w[1]));
        assert!(IDLE_TEMPS_C.windows(2).all(|w| w[0] < w[1]));
        assert!(COOLING_POWERS_W.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(TOTAL_BANKS_GEN2, 256);
        assert!((WIRE_EFFICIENCY_128B - 0.888).abs() < 1e-2);
    }

    #[test]
    fn table_checks_hold_for_the_model() {
        let gen2 = HmcSpec::of(hmc_types::HmcVersion::Gen2);
        let rows = [table1_checks(&gen2, &LinkConfig::ac510()), table2_checks()].concat();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.ok), "{rows:?}");
    }

    #[test]
    fn fig7_check_misses_a_doubled_read_ceiling() {
        let point = |pattern, kind, bandwidth_gbs| PatternPoint {
            pattern,
            kind,
            bandwidth_gbs,
        };
        let v16 = AccessPattern::Vaults(16);
        let points = [
            point(v16, RequestKind::ReadOnly, 40.0),
            point(v16, RequestKind::ReadModifyWrite, 44.0),
            point(v16, RequestKind::WriteOnly, 22.0),
            point(AccessPattern::Banks(8), RequestKind::ReadOnly, 10.0),
            point(AccessPattern::Vaults(1), RequestKind::ReadOnly, 10.0),
        ];
        let rows = fig7_checks(&points);
        assert_eq!(rows.len(), 4);
        assert!(!rows[0].ok, "ro = 40 GB/s must miss ≈21: {:?}", rows[0]);
        assert_eq!(rows[0].measured, "40.00 GB/s");
        assert!(rows[1..].iter().all(|r| r.ok), "{rows:?}");
    }
}
