//! Design-knob ablations: three calibrated modeling choices, each swept
//! around its default to show which paper figure it moves.
//!
//! * the per-bank queue depth moves the Figure 17 knee (outstanding
//!   requests at saturation);
//! * the posted-write drain rate moves the `wo` ceiling;
//! * the link packet-processing overhead moves the read ceiling.

use hmc_host::Workload;
use hmc_types::{RequestKind, RequestSize, TimeDelta};

use crate::experiments::latency::latency_bandwidth_curve;
use crate::measure::{run_measurement, MeasureConfig};
use crate::report::{f1, Table};
use crate::system::SystemConfig;
use crate::AccessPattern;

/// Per-bank queue depths swept (the default is 120).
pub const QUEUE_DEPTHS: [usize; 4] = [30, 60, 120, 240];

/// Posted-write drain rates swept, GB/s (the default is 10.8).
pub const DRAIN_GBS: [u64; 4] = [5, 10, 20, 40];

/// Link packet-processing overheads swept, ns (the default is 7).
pub const OVERHEAD_NS: [u64; 4] = [0, 4, 7, 12];

/// The three sweeps, one measurement per setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignAblations {
    /// Outstanding requests at the deepest point of the 4-bank 128 B
    /// latency–bandwidth curve, per [`QUEUE_DEPTHS`] entry.
    pub knee_outstanding: [f64; 4],
    /// `wo` 128 B full-scale counted bandwidth, GB/s, per [`DRAIN_GBS`]
    /// entry.
    pub wo_gbs: [f64; 4],
    /// `ro` 128 B full-scale counted bandwidth, GB/s, per [`OVERHEAD_NS`]
    /// entry.
    pub ro_gbs: [f64; 4],
}

/// Runs the three sweeps: the queue-depth curves under `curve_mc`, the
/// bandwidth points under `mc`.
pub fn design_ablations(
    cfg: &SystemConfig,
    mc: &MeasureConfig,
    curve_mc: &MeasureConfig,
) -> DesignAblations {
    let knee_outstanding = QUEUE_DEPTHS.map(|depth| {
        let mut c = cfg.clone();
        c.mem.vault.bank_queue_depth = depth;
        let curve =
            latency_bandwidth_curve(&c, AccessPattern::Banks(4), RequestSize::MAX, curve_mc);
        curve
            .analysis
            .points
            .last()
            .map_or(0.0, |p| p.outstanding())
    });
    let wo_gbs = DRAIN_GBS.map(|gbs| {
        let mut c = cfg.clone();
        c.mem.link_layer.write_drain_bytes_per_sec = gbs * 1_000_000_000;
        let w = Workload::full_scale(RequestKind::WriteOnly, RequestSize::MAX);
        run_measurement(&c, &w, mc).bandwidth_gbs
    });
    let ro_gbs = OVERHEAD_NS.map(|ns| {
        let mut c = cfg.clone();
        c.mem.link_layer.packet_overhead = TimeDelta::from_ns(ns);
        let w = Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX);
        run_measurement(&c, &w, mc).bandwidth_gbs
    });
    DesignAblations {
        knee_outstanding,
        wo_gbs,
        ro_gbs,
    }
}

/// Renders the three sweeps as one table.
pub fn ablations_table(a: &DesignAblations) -> Table {
    let mut t = Table::new(
        "Design-knob ablations (128 B)",
        &["knob", "setting", "measured"],
    );
    for (depth, o) in QUEUE_DEPTHS.iter().zip(a.knee_outstanding) {
        t.row(vec![
            "bank queue depth (4 banks)".into(),
            depth.to_string(),
            format!("{o:.0} outstanding at the deepest sweep"),
        ]);
    }
    for (gbs, bw) in DRAIN_GBS.iter().zip(a.wo_gbs) {
        t.row(vec![
            "write drain".into(),
            format!("{gbs} GB/s"),
            format!("{} GB/s wo", f1(bw)),
        ]);
    }
    for (ns, bw) in OVERHEAD_NS.iter().zip(a.ro_gbs) {
        t.row(vec![
            "packet overhead".into(),
            format!("{ns} ns"),
            format!("{} GB/s ro", f1(bw)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_one_row_per_setting() {
        let a = DesignAblations {
            knee_outstanding: [100.0, 200.0, 400.0, 800.0],
            wo_gbs: [5.0, 9.0, 9.5, 9.6],
            ro_gbs: [30.0, 24.0, 21.0, 17.0],
        };
        let t = ablations_table(&a);
        assert_eq!(t.len(), 12);
        assert_eq!(t.cell(4, 1), "5 GB/s");
        assert_eq!(t.cell(11, 2), "17.0 GB/s ro");
    }
}
