//! Shared infrastructure for the `repro` CLI: the measurement windows, the
//! paper's reference numbers and checks ([`paper`]), and the
//! paper-vs-measured comparison printer.
//!
//! `repro figure <target>` regenerates one table or figure of the paper
//! and prints (a) the reproduced rows/series and (b) its paper checks, one
//! `[ok]`/`[!!]` row per headline quantity; a missed check makes it exit
//! with status 1. `repro figure all` is the full reproduction record. The
//! `benches/` targets measure the simulator itself, not the paper.

use hmc_core::measure::MeasureConfig;
use hmc_types::TimeDelta;

pub mod dashboard;
pub mod paper;

/// The measurement window `repro` uses. Set `HMC_BENCH_FAST=1` to shrink it
/// (useful in CI) at some cost in measurement noise.
pub fn bench_mc() -> MeasureConfig {
    // The fast-mode switch scales the measurement window only; every
    // simulated statistic within a window stays bit-identical.
    // hmc-lint: allow(env-read)
    if std::env::var_os("HMC_BENCH_FAST").is_some() {
        MeasureConfig {
            warmup: TimeDelta::from_us(30),
            window: TimeDelta::from_us(150),
        }
    } else {
        MeasureConfig {
            warmup: TimeDelta::from_us(100),
            window: TimeDelta::from_us(600),
        }
    }
}

/// A faster window for the many-point sweeps (Figures 17/18).
pub fn sweep_mc() -> MeasureConfig {
    // Same fast-mode switch as `bench_mc`: window length, not results.
    // hmc-lint: allow(env-read)
    if std::env::var_os("HMC_BENCH_FAST").is_some() {
        MeasureConfig {
            warmup: TimeDelta::from_us(25),
            window: TimeDelta::from_us(100),
        }
    } else {
        MeasureConfig {
            warmup: TimeDelta::from_us(50),
            window: TimeDelta::from_us(250),
        }
    }
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared.
    pub what: &'static str,
    /// The paper's reported value (as prose).
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the shape criterion holds.
    pub ok: bool,
}

impl Comparison {
    /// Builds a row from a numeric measurement and an acceptance range.
    pub fn range(
        what: &'static str,
        paper: impl Into<String>,
        measured: f64,
        unit: &str,
        lo: f64,
        hi: f64,
    ) -> Self {
        Comparison {
            what,
            paper: paper.into(),
            measured: format!("{measured:.2} {unit}"),
            ok: (lo..=hi).contains(&measured),
        }
    }
}

/// Prints a comparison block with a PASS/DIVERGES marker per row.
pub fn print_comparisons(title: &str, rows: &[Comparison]) {
    println!("\n=== paper vs measured: {title} ===");
    for r in rows {
        println!(
            "  [{}] {:<46} paper: {:<28} measured: {}",
            if r.ok { "ok" } else { "!!" },
            r.what,
            r.paper,
            r.measured
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_range_marks_pass_and_fail() {
        let ok = Comparison::range("x", "≈21", 20.0, "GB/s", 17.0, 24.0);
        assert!(ok.ok);
        let bad = Comparison::range("x", "≈21", 40.0, "GB/s", 17.0, 24.0);
        assert!(!bad.ok);
        assert!(bad.measured.contains("40.00"));
    }

    #[test]
    fn windows_are_positive() {
        let mc = bench_mc();
        assert!(mc.window.as_ps() > 0);
        let s = sweep_mc();
        assert!(s.window.as_ps() > 0);
        assert!(s.window <= mc.window);
    }
}
