//! Observed runs: lifecycle-trace reports, latency attribution, and
//! metrics export.
//!
//! The host and device each own a [`Tracer`](sim_engine::Tracer); this
//! module merges the two into a single [`TraceReport`] whose per-stage
//! histograms telescope — for a drained read stream the stage spans sum
//! *exactly* (in integer picoseconds) to the end-to-end read latency, so
//! the Figure 14 breakdown is an attribution, not an estimate.
//!
//! Multi-cube chains add a third tracer per cube (the hop tracer, stage
//! [`Stage::HopLink`]) covering cube-to-cube traversal, so the same
//! zero-residue telescoping holds end-to-end across a chain.
//! [`TraceReport::from_chain`] merges all `3 × cubes` tracers, and
//! [`run_chain_observed`] is the chain counterpart of
//! [`run_stream_observed`] / [`run_window_observed`], additionally
//! capturing the merged cube-prefixed gauge stream and the deterministic
//! PDES epoch profile.

use std::fmt::Write as _;

use hmc_host::Workload;
use hmc_types::trace::Stage;
use hmc_types::{Time, TimeDelta};
use mem_backend::{BackendKind, MemoryBackend};
use sim_engine::stats::Histogram;
use sim_engine::trace::{chrome_trace_events, chrome_trace_json, TraceEvent};
use sim_engine::{json_escape, EpochProfiler, MetricsSampler};

use crate::builder::SystemBuilder;
use crate::report::{f1, Table};
use crate::system::{System, SystemConfig};
use crate::topology::{ChainSystem, Topology};

/// The merged host + device lifecycle trace of one run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    stages: Vec<Histogram>,
    events: Vec<TraceEvent>,
}

impl TraceReport {
    /// Merges every tracer of a finished (or paused) system — each
    /// cube's host and device tracer plus each shard's hop tracer (stage
    /// [`Stage::HopLink`]) — into one report, for any backend (the device
    /// tracer comes through the [`MemoryBackend`] surface). A single cube
    /// ([`System`] derefs to its one-cube chain) has an empty hop tracer,
    /// so its report is host plus device.
    pub fn from_chain<B: MemoryBackend>(sys: &ChainSystem<B>) -> Self {
        let mut stages = vec![Histogram::new(); Stage::COUNT];
        let mut events: Vec<TraceEvent> = Vec::new();
        for s in 0..sys.cubes() {
            for t in [
                sys.host(s).tracer(),
                sys.device(s).tracer(),
                sys.hop_tracer(s),
            ] {
                for (mine, theirs) in stages.iter_mut().zip(t.stage_histograms()) {
                    mine.merge(theirs);
                }
                events.extend_from_slice(t.events());
            }
        }
        TraceReport { stages, events }
    }

    /// The span histogram of one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// The merged sampled event log.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Sum of all stage spans, averaged per request (`n` requests). For a
    /// drained read stream with `n` completed reads this equals the mean
    /// end-to-end read latency exactly.
    pub fn stage_sum_ns(&self, n: u64) -> f64 {
        let total: u64 = self.stages.iter().map(|h| h.total().as_ps()).sum();
        total as f64 / n.max(1) as f64 / 1_000.0
    }

    /// Renders the latency-attribution table: one row per populated
    /// stage with its count, mean span, per-request contribution, and
    /// share of the end-to-end mean, followed by the telescoping check
    /// rows (sum of stages vs. measured end-to-end).
    pub fn attribution_table(&self, title: impl Into<String>, end_to_end: &Histogram) -> Table {
        let mut t = Table::new(
            title,
            &["stage", "count", "mean ns", "per-req ns", "share %"],
        );
        let n = end_to_end.count().max(1) as f64;
        let e2e_ns = end_to_end.mean().as_ns_f64();
        let mut sum_ns = 0.0;
        for s in Stage::ALL {
            let h = &self.stages[s.index()];
            if h.is_empty() {
                continue;
            }
            let per_req = h.total().as_ns_f64() / n;
            sum_ns += per_req;
            let share = if e2e_ns > 0.0 {
                per_req / e2e_ns * 100.0
            } else {
                0.0
            };
            t.row(vec![
                s.name().to_string(),
                h.count().to_string(),
                f1(h.mean().as_ns_f64()),
                f1(per_req),
                f1(share),
            ]);
        }
        let delta = if e2e_ns > 0.0 {
            (sum_ns - e2e_ns) / e2e_ns * 100.0
        } else {
            0.0
        };
        t.row(vec![
            "sum of stages".to_string(),
            String::new(),
            String::new(),
            f1(sum_ns),
            String::new(),
        ]);
        t.row(vec![
            "end-to-end mean".to_string(),
            end_to_end.count().to_string(),
            String::new(),
            f1(e2e_ns),
            f1(100.0),
        ]);
        t.row(vec![
            "attribution delta".to_string(),
            String::new(),
            String::new(),
            f1(sum_ns - e2e_ns),
            f1(delta),
        ]);
        t
    }

    /// The event log as Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.events, &Stage::NAMES)
    }

    /// Like [`chrome_json`](TraceReport::chrome_json), with one extra
    /// Perfetto track per PDES shard carrying its epoch spans (process 1,
    /// thread = shard index; the request spans stay on process 0). Each
    /// epoch event's `args` records the events processed and envelopes
    /// sent inside that window.
    pub fn chrome_json_with_profile(&self, profile: Option<&EpochProfiler>) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        chrome_trace_events(&self.events, &Stage::NAMES, &mut out);
        if let Some(p) = profile {
            if !out.ends_with('[') {
                out.push(',');
            }
            out.push_str(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
                 \"args\":{\"name\":\"pdes shards\"}}",
            );
            for (s, sp) in p.shards().iter().enumerate() {
                write!(
                    out,
                    ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\
                     \"tid\":{s},\"args\":{{\"name\":\"shard {s}\"}}}}"
                )
                .expect("writing to a String cannot fail");
                for e in &sp.spans {
                    write!(
                        out,
                        ",{{\"name\":\"epoch\",\"cat\":\"pdes\",\"ph\":\"X\",\
                         \"ts\":{:.6},\"dur\":{:.6},\"pid\":1,\"tid\":{s},\
                         \"args\":{{\"events\":{},\"sent\":{}}}}}",
                        e.start.as_ps() as f64 / 1e6,
                        e.end.since(e.start).as_ps() as f64 / 1e6,
                        e.events,
                        e.sent,
                    )
                    .expect("writing to a String cannot fail");
                }
            }
        }
        out.push_str("]}\n");
        out
    }
}

impl crate::report::JsonReport for TraceReport {
    fn kind(&self) -> &'static str {
        "trace"
    }

    fn json(&self) -> String {
        self.chrome_json()
    }
}

/// A drained stream run with tracing enabled.
#[derive(Debug, Clone)]
pub struct ObservedStream {
    /// End-to-end read-latency histogram.
    pub latency: Histogram,
    /// Data-integrity failures (must be zero).
    pub integrity_failures: u64,
    /// The merged lifecycle trace.
    pub report: TraceReport,
}

/// Runs a [`Workload::Stream`] to completion with lifecycle tracing on.
/// `sample_every` controls event-log retention (1 keeps every request).
///
/// # Panics
///
/// Panics if the stream does not drain within 100 ms of simulated time.
pub fn run_stream_observed(
    cfg: &SystemConfig,
    workload: &Workload,
    sample_every: u64,
) -> ObservedStream {
    let mut sys = SystemBuilder::new(cfg.clone())
        .tracing(sample_every)
        .build();
    sys.host_mut().apply_workload(workload);
    sys.host_mut().start(Time::ZERO);
    let drained = sys.run_until_idle(TimeDelta::from_ms(100));
    assert!(
        drained,
        "observed stream did not drain: {} outstanding at t={} ns",
        sys.host().outstanding(),
        sys.now().as_ns_f64(),
    );
    let stats = sys.host().stats();
    ObservedStream {
        latency: stats.read_latency.clone(),
        integrity_failures: stats.integrity_failures,
        report: TraceReport::from_chain(&sys),
    }
}

/// A fixed-span continuous run with tracing and gauge sampling on.
#[derive(Debug, Clone)]
pub struct ObservedWindow {
    /// End-to-end read-latency histogram over the run.
    pub latency: Histogram,
    /// The merged lifecycle trace.
    pub report: TraceReport,
    /// The periodic gauge sampler with all recorded series.
    pub metrics: MetricsSampler,
}

/// Runs a continuous workload for `span` with lifecycle tracing (one
/// request in `sample_every` kept in the event log) and periodic gauge
/// sampling every `metrics_period`. This is what `repro sweep trace` and
/// `repro sweep metrics` capture.
pub fn run_window_observed(
    cfg: &SystemConfig,
    workload: &Workload,
    span: TimeDelta,
    sample_every: u64,
    metrics_period: TimeDelta,
) -> ObservedWindow {
    let sys = SystemBuilder::new(cfg.clone())
        .tracing(sample_every)
        .metrics(metrics_period)
        .build();
    observe_window_on(sys, workload, span)
}

/// [`run_window_observed`] against a selected backend preset: the same
/// traced + gauge-sampled window, built through
/// [`SystemBuilder::backend`] so any technology can be captured.
pub fn run_window_observed_backend(
    cfg: &SystemConfig,
    kind: BackendKind,
    workload: &Workload,
    span: TimeDelta,
    sample_every: u64,
    metrics_period: TimeDelta,
) -> ObservedWindow {
    let sys = SystemBuilder::new(cfg.clone())
        .backend(kind)
        .tracing(sample_every)
        .metrics(metrics_period)
        .build_any();
    observe_window_on(sys, workload, span)
}

/// The shared window body: run the workload for `span` and package the
/// merged trace, gauge stream, and latency histogram.
fn observe_window_on<B: MemoryBackend>(
    mut sys: System<B>,
    workload: &Workload,
    span: TimeDelta,
) -> ObservedWindow {
    sys.host_mut().apply_workload(workload);
    sys.host_mut().start(Time::ZERO);
    sys.run_for(span);
    let metrics = sys.metrics().expect("metrics were enabled").clone();
    ObservedWindow {
        latency: sys.host().stats().read_latency.clone(),
        report: TraceReport::from_chain(&sys),
        metrics,
    }
}

/// A fully-observed chain run: merged lifecycle trace (host + device +
/// hop tracers of every cube), merged cube-prefixed gauge stream, and the
/// deterministic PDES epoch profile.
#[derive(Debug, Clone)]
pub struct ObservedChain {
    /// End-to-end read-latency histogram aggregated over all cubes.
    pub latency: Histogram,
    /// Data-integrity failures (must be zero).
    pub integrity_failures: u64,
    /// The merged lifecycle trace across every tracer of the chain.
    pub report: TraceReport,
    /// Merged gauge sampler with `cube{i}.`-prefixed series, if metrics
    /// were requested (`metrics_period` was `Some`).
    pub metrics: Option<MetricsSampler>,
    /// The deterministic per-shard epoch profile.
    pub profile: EpochProfiler,
}

/// Runs a workload on a chain with full observability armed: lifecycle
/// tracing (one request in `sample_every` kept in the event log), the
/// PDES epoch profiler, and — when `metrics_period` is `Some` — per-cube
/// gauge sampling merged into one cube-prefixed stream.
///
/// With `span = None` the workload runs to completion (a drained
/// stream); with `span = Some(d)` it runs continuously for `d`.
/// `shards > 1` pumps epochs on that many worker threads — every
/// artifact except the wall-clock pool utilization is bit-identical at
/// any setting.
///
/// # Panics
///
/// Panics if `span` is `None` and the stream does not drain within
/// 100 ms of simulated time.
pub fn run_chain_observed(
    cfg: &SystemConfig,
    topo: Topology,
    workload: &Workload,
    span: Option<TimeDelta>,
    sample_every: u64,
    metrics_period: Option<TimeDelta>,
    shards: usize,
) -> ObservedChain {
    let mut b = SystemBuilder::new(cfg.clone())
        .topology(topo)
        .tracing(sample_every)
        .epoch_profiler()
        .parallel_shards(shards);
    if let Some(period) = metrics_period {
        b = b.metrics(period);
    }
    let mut sys = b.build_chain();
    sys.apply_workload(workload);
    sys.start(Time::ZERO);
    match span {
        Some(d) => sys.run_for(d),
        None => {
            let drained = sys.run_until_idle(TimeDelta::from_ms(100));
            assert!(
                drained,
                "observed chain stream did not drain by t={} ns",
                sys.now().as_ns_f64(),
            );
        }
    }
    let stats = sys.host_stats();
    ObservedChain {
        latency: stats.read_latency.clone(),
        integrity_failures: stats.integrity_failures,
        report: TraceReport::from_chain(&sys),
        metrics: sys.merged_metrics(),
        profile: sys
            .epoch_profile()
            .expect("epoch profiler was enabled")
            .clone(),
    }
}

/// Renders a metrics sampler as JSON: `{"period_ps": ..., "series":
/// [{"name": ..., "points": [[t_ps, value], ...]}, ...]}`.
pub fn metrics_json(sampler: &MetricsSampler) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    write!(
        out,
        "{{\"period_ps\":{},\"series\":[",
        sampler.period().as_ps()
    )
    .expect("writing to a String cannot fail");
    for (i, s) in sampler.series().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"name\":\"{}\",\"points\":[", json_escape(s.name()))
            .expect("writing to a String cannot fail");
        for (j, (t, v)) in s.points().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "[{},{}]", t.as_ps(), v).expect("writing to a String cannot fail");
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{RequestKind, RequestSize};

    #[test]
    fn read_stream_stage_spans_sum_exactly_to_end_to_end() {
        let obs = run_stream_observed(
            &SystemConfig::default(),
            &Workload::read_stream(16, RequestSize::new(64).unwrap()),
            1,
        );
        assert_eq!(obs.latency.count(), 16);
        assert_eq!(obs.integrity_failures, 0);
        // Every read-path stage saw all 16 requests; write stages none.
        for s in Stage::read_path() {
            assert_eq!(obs.report.stage(s).count(), 16, "stage {s}");
        }
        assert!(obs.report.stage(Stage::WriteStall).is_empty());
        assert!(obs.report.stage(Stage::WriteDrain).is_empty());
        // Telescoping: stage spans sum to end-to-end latency exactly.
        let stage_sum_ps: u64 = Stage::ALL
            .iter()
            .map(|s| obs.report.stage(*s).total().as_ps())
            .sum();
        assert_eq!(
            stage_sum_ps,
            obs.latency.total().as_ps(),
            "stage attribution must telescope with zero residue"
        );
    }

    #[test]
    fn attribution_table_reports_near_zero_delta() {
        let obs = run_stream_observed(
            &SystemConfig::default(),
            &Workload::read_stream(8, RequestSize::MAX),
            1,
        );
        let t = obs
            .report
            .attribution_table("Fig 14 breakdown", &obs.latency);
        let rendered = t.to_string();
        assert!(rendered.contains("dram"));
        assert!(rendered.contains("sum of stages"));
        // Last row is the attribution delta; exact telescoping makes the
        // per-request residue 0.0 ns.
        assert_eq!(t.cell(t.len() - 1, 3), "0.0");
    }

    #[test]
    fn untraced_system_produces_an_empty_report() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut()
            .apply_workload(&Workload::read_stream(4, RequestSize::MAX));
        sys.host_mut().start(Time::ZERO);
        assert!(sys.run_until_idle(TimeDelta::from_ms(100)));
        let report = TraceReport::from_chain(&sys);
        assert!(report.events().is_empty());
        let total: u64 = Stage::ALL.iter().map(|s| report.stage(*s).count()).sum();
        assert_eq!(total, 0, "disabled tracers must record nothing");
    }

    #[test]
    fn series_names_are_escaped_in_metrics_json() {
        let mut smp = MetricsSampler::new(TimeDelta::from_us(1));
        smp.record("tenant.a\"b\\c.queued", Time::ZERO, 1.0);
        let j = metrics_json(&smp);
        assert!(j.contains("\"name\":\"tenant.a\\\"b\\\\c.queued\""), "{j}");
    }

    #[test]
    fn noisy_links_surface_the_retry_stage_in_attribution() {
        let mut cfg = SystemConfig::default();
        cfg.mem.link_layer.bit_error_rate = 1e-4;
        let obs = run_stream_observed(&cfg, &Workload::read_stream(64, RequestSize::MAX), 1);
        let t = obs.report.attribution_table("noisy links", &obs.latency);
        let rendered = t.to_string();
        assert!(rendered.contains("link_retry"), "{rendered}");
        // Telescoping attribution stays exact even when retries reshuffle
        // the stage boundaries.
        assert_eq!(t.cell(t.len() - 1, 3), "0.0");
    }

    #[test]
    fn chain_attribution_telescopes_with_zero_residue() {
        // The hop_link stage closes the chain attribution gap: for 1-,
        // 2-, and 4-cube chains the stage spans must sum exactly (in
        // integer picoseconds) to the measured end-to-end latency.
        for cubes in [1u8, 2, 4] {
            let obs = run_chain_observed(
                &SystemConfig::default(),
                Topology::chain(cubes),
                &Workload::read_stream(32, RequestSize::new(64).unwrap()),
                None,
                1,
                None,
                1,
            );
            // Each cube's sharded host issues the full stream.
            assert_eq!(obs.latency.count(), 32 * u64::from(cubes), "{cubes} cubes");
            assert_eq!(obs.integrity_failures, 0);
            let stage_sum_ps: u64 = Stage::ALL
                .iter()
                .map(|s| obs.report.stage(*s).total().as_ps())
                .sum();
            assert_eq!(
                stage_sum_ps,
                obs.latency.total().as_ps(),
                "chain attribution must telescope exactly ({cubes} cubes)"
            );
            let hops = obs.report.stage(Stage::HopLink).count();
            if cubes == 1 {
                assert_eq!(hops, 0, "no hop spans on a single cube");
            } else {
                assert!(hops > 0, "{cubes}-cube chain must record hop spans");
            }
            let t = obs
                .report
                .attribution_table("chain breakdown", &obs.latency);
            assert_eq!(t.cell(t.len() - 1, 3), "0.0", "{cubes} cubes");
            if cubes > 1 {
                assert!(t.to_string().contains("hop_link"));
            }
        }
    }

    #[test]
    fn chain_export_carries_one_epoch_track_per_shard() {
        let obs = run_chain_observed(
            &SystemConfig::default(),
            Topology::chain(4),
            &Workload::read_stream(64, RequestSize::new(64).unwrap()),
            None,
            8,
            None,
            4,
        );
        assert_eq!(obs.profile.shards().len(), 4);
        assert!(obs.profile.epochs() > 0, "multi-cube runs pump epochs");
        let json = obs.report.chrome_json_with_profile(Some(&obs.profile));
        assert!(json.starts_with("{\"displayTimeUnit\""));
        for s in 0..4 {
            assert!(
                json.contains(&format!("\"args\":{{\"name\":\"shard {s}\"}}")),
                "missing thread_name track for shard {s}"
            );
        }
        assert!(json.contains("\"name\":\"epoch\""));
        assert!(json.contains("\"cat\":\"pdes\""));
        // Profile JSON is a valid artifact too.
        let pjson = obs.profile.to_json();
        assert!(pjson.contains("\"window_utilization\""));
        assert!(pjson.contains("\"parked_ps\""));
    }

    #[test]
    fn chain_window_capture_merges_cube_prefixed_gauges() {
        let obs = run_chain_observed(
            &SystemConfig::default(),
            Topology::chain(2),
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(64).unwrap()),
            Some(TimeDelta::from_us(20)),
            8,
            Some(TimeDelta::from_us(1)),
            1,
        );
        let m = obs.metrics.expect("metrics were enabled");
        for name in [
            "cube0.host.outstanding",
            "cube0.device.vault_queued",
            "cube0.device.link_stalls",
            "cube0.device.credits_leaked",
            "cube0.hop.edge0.tx_backlog",
            "cube0.chain.mailbox",
            "cube1.device.busy_banks",
            "cube1.hop.edge0.credits",
        ] {
            let s = m.get(name).unwrap_or_else(|| panic!("{name}"));
            assert!(s.len() >= 15, "{name} has {} samples", s.len());
        }
        let json = metrics_json(&m);
        assert!(json.contains("cube1.hop.edge0.rx_queued"));
    }

    #[test]
    fn window_capture_exports_valid_trace_and_metrics() {
        let obs = run_window_observed(
            &SystemConfig::default(),
            &Workload::full_scale(RequestKind::ReadModifyWrite, RequestSize::new(64).unwrap()),
            TimeDelta::from_us(20),
            8,
            TimeDelta::from_us(1),
        );
        let json = obs.report.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"dram\""));
        // ~20 samples of each gauge.
        for name in [
            "host.outstanding",
            "host.tx_queue",
            "device.vault_queued",
            "device.busy_banks",
            "device.ingress_credits",
            "device.link_retries",
        ] {
            let s = obs.metrics.get(name).unwrap_or_else(|| panic!("{name}"));
            assert!(s.len() >= 15, "{name} has {} samples", s.len());
        }
        let mjson = metrics_json(&obs.metrics);
        assert!(mjson.contains("\"period_ps\":1000000"));
        assert!(mjson.contains("\"series\""));
        assert!(mjson.contains("device.busy_banks"));
    }
}
