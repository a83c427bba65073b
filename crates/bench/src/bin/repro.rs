//! `repro` — regenerate any table or figure of the paper on demand.
//!
//! Usage: `cargo run --release -p hmc-bench --bin repro -- <command> ...`
//!
//! Commands (each accepts `--threads N` to fan sweeps across OS threads
//! and `--json PATH` to export its artifact as JSON):
//!
//! * `figure <id>...` — print paper tables/figures: `table1`, `table2`,
//!   `table3`, `fig6`..`fig18`, `baseline`, `readratio`, `kernels`,
//!   `mapping`, `faults`, `generations`, or `all`. `--breakdown` adds the
//!   traced per-stage attribution to `fig14`.
//! * `sweep <trace|metrics|perf> [--backend <kind>]` — observability
//!   captures: a traced full-scale window as Chrome trace-event JSON
//!   (Perfetto-loadable), the same window's sampled gauge series, or
//!   simulation-throughput measurements (`perf` defaults to
//!   `BENCH_simperf.json`, including the cross-backend
//!   `backend_compare` grid). `--backend` selects the device preset for
//!   `trace`/`metrics` (`hmc` default, `hmc-gen3`, `ddr3-1600`, `hbm`).
//! * `compare [--quick]` — the cross-technology table: every backend
//!   preset under the identical host pipeline at the Figure 9 operating
//!   point (full-scale ro and rw at 128 B) plus one open-loop
//!   multi-tenant point, reporting bandwidth, p99, and the
//!   channels-in-flight concurrency gauge (nonzero exit if the HBM
//!   backend does not sustain more channels in flight than HMC Gen2).
//! * `sanitize` — run the Figure 9 bandwidth subset with the protocol
//!   sanitizer armed, verify bit-identity against the plain run, and
//!   print the invariant-check report (nonzero exit on any violation).
//! * `faults [scenario|all]` — run built-in fault scenarios with the
//!   host robustness layer on and the sanitizer armed, and print the
//!   degraded-mode characterization (nonzero exit on violations or a
//!   run that failed to drain).
//! * `openloop [policy|all] [--poisson] [--quick] [--cubes N] [--shards N]
//!   [--faults scenario]` — open-loop multi-tenant overload sweep:
//!   throughput-latency curves over the saturation-fraction grid plus
//!   per-tenant SLO conformance, MMPP arrivals by default, sanitizer and
//!   shed-accounting invariant armed (nonzero exit on violations or a
//!   failed drain). `--faults` composes one 1.5x-saturation point with a
//!   built-in fault scenario and the host robustness layer.
//! * `chain [--cubes N] [--star] [--interleave cube|vault] [--shards N]`
//!   — multi-cube chain characterization: aggregate bandwidth vs chain
//!   length, the per-hop latency ladder, and near/far asymmetry, with
//!   the shape checks asserted (two cubes >= 1.8x one cube; ladder rungs
//!   on the modeled pass-through adder). `--shards N` pumps the cubes on
//!   `N` conservative-PDES worker threads — bit-identical results,
//!   different wall clock. Observability add-ons:
//!   * `--breakdown` — run a traced stream and print the chain-wide
//!     latency attribution (includes the `hop_link` stage; telescopes
//!     with zero residue).
//!   * `--trace-json PATH` — Perfetto export of the traced run with one
//!     epoch track per PDES shard.
//!   * `--metrics-json PATH` — the merged cube-prefixed gauge stream.
//!   * `--profile-json PATH` — the deterministic epoch profile.
//!   * `--dashboard` / `--dashboard-headless` — stream gauge frames
//!     through a fixed ring buffer into a live ANSI panel, or simulate
//!     silently and dump the final ring as JSON (stdout, plus `--json
//!     PATH`). Tune with `--frames N` (ring capacity), `--frame-us N`
//!     (simulated time per frame), `--span-us N` (total simulated time),
//!     `--refresh-ms N` (live repaint pacing).
//!
//! Unknown commands or flags print the usage text and exit nonzero (the
//! pre-subcommand flag aliases were removed after their deprecation
//! period).
//!
//! (The `benches/` targets print the same tables plus paper-vs-measured
//! verdicts; this binary is the quick interactive entry point.)

use hmc_bench::{bench_mc, sweep_mc};
use hmc_core::experiments::{
    bandwidth, baseline, chain, faults, generations, kernels, latency, mapping, openloop,
    page_policy, read_ratio, thermal,
};
use hmc_core::hmc_host::{OpenLoopConfig, ShedPolicy, Workload};
use hmc_core::hmc_types::CubeInterleave;
use hmc_core::measure::{run_backend_measurement, BackendMeasurement, MeasureConfig};
use hmc_core::mem_backend::BackendKind;
use hmc_core::observe::{run_window_observed, run_window_observed_backend};
use hmc_core::topology::Topology;
use hmc_core::{JsonReport, System, SystemBuilder, SystemConfig};
use hmc_types::packet::{OpKind, TransactionSizes};
use hmc_types::{HmcSpec, HmcVersion, RequestKind, RequestSize, Time, TimeDelta};
use sim_engine::exec;
use sim_engine::ArrivalKind;

fn table1() {
    for v in [HmcVersion::Gen1, HmcVersion::Gen2, HmcVersion::Hmc2] {
        let s = HmcSpec::of(v);
        println!(
            "{}: {} quadrants, {} vaults, {} banks ({} MB each), {} layers",
            s,
            s.num_quadrants(),
            s.num_vaults(),
            s.total_banks(),
            s.bank_bytes() >> 20,
            s.dram_layers(),
        );
    }
}

fn table2() {
    println!("size  rd-req  rd-resp  wr-req  wr-resp (flits)");
    for size in RequestSize::ALL {
        let rd = TransactionSizes::of(OpKind::Read, size);
        let wr = TransactionSizes::of(OpKind::Write, size);
        println!(
            "{:>5}  {:>6}  {:>7}  {:>6}  {:>7}",
            size.to_string(),
            rd.request_flits().count(),
            rd.response_flits().count(),
            wr.request_flits().count(),
            wr.response_flits().count(),
        );
    }
}

/// Output options shared by every target.
#[derive(Debug, Clone, Copy, Default)]
struct Opts {
    /// Print the traced per-stage attribution alongside `fig14`.
    breakdown: bool,
}

fn run(target: &str, cfg: &SystemConfig, opts: Opts) {
    let mc = bench_mc();
    match target {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => println!("{}", thermal::table3()),
        "fig6" => println!(
            "{}",
            bandwidth::figure6_table(&bandwidth::figure6(cfg, &mc))
        ),
        "fig7" => println!(
            "{}",
            bandwidth::figure7_table(&bandwidth::figure7(cfg, &mc))
        ),
        "fig8" => println!(
            "{}",
            bandwidth::figure8_table(&bandwidth::figure8(cfg, &mc))
        ),
        "fig9" | "fig10" => {
            for kind in RequestKind::ALL {
                let outcomes = thermal::figure9_10(cfg, kind, &mc);
                if target == "fig9" {
                    println!("{}", thermal::figure9_table(kind, &outcomes));
                } else {
                    println!("{}", thermal::figure10_table(kind, &outcomes));
                }
            }
        }
        "fig11" | "fig12" => {
            let mut all = Vec::new();
            for kind in RequestKind::ALL {
                all.extend(thermal::figure9_10(cfg, kind, &mc));
            }
            if target == "fig11" {
                println!("{}", thermal::figure11_table(&thermal::figure11(&all)));
            } else {
                for line in thermal::figure12(&all, &[50.0, 55.0, 60.0]) {
                    println!(
                        "{} hold {:.0} C: {:?}",
                        line.kind,
                        line.target_c,
                        line.points
                            .iter()
                            .map(|(b, w)| format!("{b:.1}GB/s->{w:.2}W"))
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
        "fig13" => println!(
            "{}",
            page_policy::figure13_table(&page_policy::figure13(cfg, &mc))
        ),
        "fig14" => {
            println!(
                "{}",
                latency::figure14_table(&latency::figure14(cfg, RequestSize::MAX))
            );
            if opts.breakdown {
                let obs = latency::figure14_breakdown(cfg, RequestSize::MAX);
                println!(
                    "{}",
                    latency::figure14_breakdown_table(&obs, RequestSize::MAX)
                );
            }
        }
        "fig15" => {
            let pts = latency::figure15(cfg);
            for bytes in latency::FIG15_SIZES {
                let size = RequestSize::new(bytes).expect("valid");
                println!("{}", latency::figure15_table(size, &pts));
            }
        }
        "fig16" => println!("{}", latency::figure16_table(&latency::figure16(cfg, &mc))),
        "fig17" => println!(
            "{}",
            latency::curves_table("Figure 17", &latency::figure17(cfg, &sweep_mc()))
        ),
        "fig18" => {
            let sizes = [RequestSize::new(32).expect("valid"), RequestSize::MAX];
            println!(
                "{}",
                latency::curves_table("Figure 18", &latency::figure18(cfg, &sizes, &sweep_mc()))
            );
        }
        "baseline" => {
            let rows: Vec<_> = [16u64, 64, 128]
                .into_iter()
                .map(|b| baseline::compare(cfg, RequestSize::new(b).expect("valid"), &mc))
                .collect();
            println!("{}", baseline::baseline_table(&rows));
        }
        "readratio" => {
            let pts = read_ratio::read_ratio_sweep(cfg, RequestSize::MAX, 10, &mc);
            println!("{}", read_ratio::read_ratio_table(&pts));
        }
        "kernels" => {
            println!(
                "{}",
                kernels::kernels_table(&kernels::run_kernels(cfg, &mc))
            );
        }
        "mapping" => {
            println!(
                "{}",
                mapping::mapping_table(&mapping::mapping_ablation(cfg, &mc))
            );
        }
        "faults" => {
            let pts = faults::ber_sweep(cfg, &faults::BER_AXIS, &mc);
            println!("{}", faults::faults_table(&pts));
        }
        "generations" => {
            println!(
                "{}",
                generations::generations_table(&generations::generation_sweep(&mc))
            );
        }
        other => unreachable!("cmd_figure validated target '{other}'"),
    }
}

/// Measures the conservative-PDES chain scheduler's throughput at one
/// `(cubes, workers)` point: a saturated full-scale read run over `span`,
/// returning `(events, wall_sec)`. With `armed` the full observability
/// surface rides along (tracer, per-cube gauges, epoch profiler) so the
/// armed-vs-unarmed delta is the overhead of watching.
fn chain_perf_point(
    cfg: &SystemConfig,
    cubes: u8,
    shards: usize,
    span: TimeDelta,
    armed: bool,
) -> (u64, f64) {
    use std::time::Instant;
    let mut b = SystemBuilder::new(cfg.clone())
        .parallel_shards(shards)
        .topology(Topology::chain(cubes));
    if armed {
        b = b
            .tracing(64)
            .metrics(TimeDelta::from_us(1))
            .epoch_profiler();
    }
    let mut sys = b.build_chain();
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::MAX,
    ));
    sys.start(Time::ZERO);
    let t0 = Instant::now();
    sys.run_for(span);
    (sys.events_processed(), t0.elapsed().as_secs_f64())
}

/// Measures simulation throughput and writes `BENCH_simperf.json`:
///
/// * `event_core`: one full-scale rw `System` run — events per
///   wall-second and simulated µs per wall-second of the event core;
/// * `sweep`: the Figure 7 sweep at the configured thread count —
///   simulated µs per wall-second across the whole fleet of points;
/// * `parallel_chain`: the epoch scheduler's events per wall-second over
///   the cubes x epoch-worker grid {1,2,4,8} x {1,2,4,8} (every cell is
///   bit-identical in results; only the wall clock moves);
/// * `observability`: armed-vs-unarmed throughput on a {2,4,8} x {1,4}
///   chain grid — the wall-clock cost of tracer + per-cube gauges +
///   epoch profiler (the event counts are asserted identical).
fn perf_json(cfg: &SystemConfig) {
    use std::time::Instant;

    // Event-core throughput on a single saturated system.
    let span = TimeDelta::from_us(400);
    let mut sys = System::new(cfg.clone());
    sys.host_mut().apply_workload(&Workload::full_scale(
        RequestKind::ReadModifyWrite,
        RequestSize::MAX,
    ));
    sys.host_mut().start(Time::ZERO);
    let t0 = Instant::now();
    sys.run_for(span);
    let core_wall = t0.elapsed().as_secs_f64();
    let events = sys.events_processed();

    // Sweep throughput: the full Figure 7 grid (27 measurement points).
    let mc = bench_mc();
    let t1 = Instant::now();
    let pts = bandwidth::figure7(cfg, &mc);
    let sweep_wall = t1.elapsed().as_secs_f64();
    let sim_us_per_point = (mc.warmup + mc.window).as_ns_f64() / 1e3;
    let sweep_sim_us = pts.len() as f64 * sim_us_per_point;

    // The conservative-PDES chain grid. Single-core hosts show flat (or
    // slightly negative) scaling here — the numbers record what this
    // machine actually did, not an aspiration.
    let chain_span = TimeDelta::from_us(100);
    let mut chain_cells = String::new();
    for cubes in [1u8, 2, 4, 8] {
        for shards in [1usize, 2, 4, 8] {
            let (ev, wall) = chain_perf_point(cfg, cubes, shards, chain_span, false);
            if !chain_cells.is_empty() {
                chain_cells.push_str(",\n");
            }
            chain_cells.push_str(&format!(
                "      {{\"cubes\": {cubes}, \"shards\": {shards}, \
                 \"events\": {ev}, \"wall_sec\": {wall:.3}, \
                 \"events_per_sec\": {:.0}}}",
                ev as f64 / wall
            ));
        }
    }

    // Observability overhead: the same chain grid (smaller, to keep the
    // run short) measured bare and with tracer + gauges + epoch profiler
    // armed. The events counts are bit-identical by construction; only
    // the wall clock moves.
    let mut obs_cells = String::new();
    for cubes in [2u8, 4, 8] {
        for shards in [1usize, 4] {
            let (ev_bare, wall_bare) = chain_perf_point(cfg, cubes, shards, chain_span, false);
            let (ev_armed, wall_armed) = chain_perf_point(cfg, cubes, shards, chain_span, true);
            assert_eq!(
                ev_bare, ev_armed,
                "armed observability must not change the event count"
            );
            if !obs_cells.is_empty() {
                obs_cells.push_str(",\n");
            }
            obs_cells.push_str(&format!(
                "      {{\"cubes\": {cubes}, \"shards\": {shards}, \
                 \"events\": {ev_bare}, \
                 \"unarmed_events_per_sec\": {:.0}, \
                 \"armed_events_per_sec\": {:.0}, \
                 \"overhead_pct\": {:.1}}}",
                ev_bare as f64 / wall_bare,
                ev_armed as f64 / wall_armed,
                (wall_armed / wall_bare - 1.0) * 100.0
            ));
        }
    }

    // Open-loop overload grid: offered load vs goodput across the
    // standard fraction grid (MMPP arrivals, reject-newest, sanitizer
    // armed) — the throughput-latency curve as a regression surface.
    let ol_run = openloop::OpenLoopRun::mmpp(hmc_core::hmc_host::ShedPolicy::RejectNewest);
    let t2 = Instant::now();
    let ol = openloop::run_openloop(cfg, &ol_run, &mc);
    let ol_wall = t2.elapsed().as_secs_f64();
    assert!(ol.is_clean(), "openloop perf grid must sanitize clean");
    let mut ol_cells = String::new();
    for p in &ol.points {
        if !ol_cells.is_empty() {
            ol_cells.push_str(",\n");
        }
        ol_cells.push_str(&format!(
            "      {{\"load\": {:.2}, \"offered_rps\": {:.0}, \
             \"goodput_rps\": {:.0}, \"shed\": {}, \"p99_ns\": {:.1}}}",
            p.offered_rps / ol.saturation_rps,
            p.offered_rps,
            p.goodput_rps,
            p.shed,
            p.p99_ns
        ));
    }

    // Cross-backend simulation throughput and achieved bandwidth at the
    // Figure 9 operating point (full-scale ro at 128 B): every device
    // preset behind the identical host pipeline.
    let mut backend_cells = String::new();
    for kind in BackendKind::ALL {
        let mut sys = SystemBuilder::new(cfg.clone()).backend(kind).build_any();
        let t = Instant::now();
        let m = run_backend_measurement(
            &mut sys,
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX),
            &mc,
        );
        let wall = t.elapsed().as_secs_f64();
        if !backend_cells.is_empty() {
            backend_cells.push_str(",\n");
        }
        backend_cells.push_str(&format!(
            "      {{\"backend\": \"{}\", \"events\": {}, \
             \"events_per_sec\": {:.0}, \"achieved_gbs\": {:.2}, \
             \"peak_channels\": {}}}",
            m.backend,
            m.events,
            m.events as f64 / wall,
            m.bandwidth_gbs,
            m.peak_channels,
        ));
    }

    let json = format!(
        "{{\n  \"event_core\": {{\n    \"events_per_sec\": {:.0},\n    \
         \"simulated_us_per_wall_sec\": {:.1}\n  }},\n  \"sweep\": {{\n    \
         \"name\": \"fig7\",\n    \"points\": {},\n    \"threads\": {},\n    \
         \"wall_sec\": {:.3},\n    \"simulated_us_per_wall_sec\": {:.1}\n  }},\n  \
         \"parallel_chain\": {{\n    \"span_us\": {:.0},\n    \
         \"host_cores\": {},\n    \"points\": [\n{}\n    ]\n  }},\n  \
         \"observability\": {{\n    \"span_us\": {:.0},\n    \
         \"armed\": \"tracer + per-cube gauges + epoch profiler\",\n    \
         \"points\": [\n{}\n    ]\n  }},\n  \
         \"backend_compare\": {{\n    \"workload\": \"full-scale ro 128B\",\n    \
         \"points\": [\n{backend_cells}\n    ]\n  }},\n  \
         \"openloop\": {{\n    \"arrivals\": \"mmpp\",\n    \
         \"policy\": \"reject-newest\",\n    \
         \"saturation_rps\": {:.0},\n    \"wall_sec\": {:.3},\n    \
         \"points\": [\n{}\n    ]\n  }}\n}}\n",
        events as f64 / core_wall,
        span.as_ns_f64() / 1e3 / core_wall,
        pts.len(),
        exec::threads(),
        sweep_wall,
        sweep_sim_us / sweep_wall,
        chain_span.as_ns_f64() / 1e3,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        chain_cells,
        chain_span.as_ns_f64() / 1e3,
        obs_cells,
        ol.saturation_rps,
        ol_wall,
        ol_cells,
    );
    print!("{json}");
    if let Err(e) = std::fs::write("BENCH_simperf.json", &json) {
        eprintln!("could not write BENCH_simperf.json: {e}");
    }
}

/// Writes a [`JsonReport`] artifact to `path` with a stderr note.
fn write_artifact<R: JsonReport + ?Sized>(report: &R, path: &str) {
    match report.write_json(std::path::Path::new(path)) {
        Ok(()) => eprintln!("wrote {} artifact to {path}", report.kind()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Runs a traced full-scale window on the selected backend preset and
/// writes the requested exports: Chrome trace-event JSON and/or the
/// sampled gauge series. The default `hmc` preset takes the concrete
/// [`System`] path (byte-identical artifacts across refactors); other
/// presets go through the generic backend build.
fn capture_observed(
    cfg: &SystemConfig,
    kind: BackendKind,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) {
    let workload = Workload::full_scale(
        RequestKind::ReadModifyWrite,
        RequestSize::new(64).expect("valid"),
    );
    let span = TimeDelta::from_us(50);
    let obs = if kind == BackendKind::Hmc {
        run_window_observed(cfg, &workload, span, 101, TimeDelta::from_us(1))
    } else {
        run_window_observed_backend(cfg, kind, &workload, span, 101, TimeDelta::from_us(1))
    };
    if let Some(path) = trace_out {
        write_artifact(&obs.report, path);
    }
    if let Some(path) = metrics_out {
        write_artifact(&obs.metrics, path);
    }
}

/// One backend's row of the `repro compare` table.
struct CompareRow {
    /// Fig-9 operating point, read-only.
    ro: BackendMeasurement,
    /// Fig-9 operating point, read-modify-write.
    rw: BackendMeasurement,
    /// Open-loop point: goodput (requests/s), p99 (ns), sheds.
    open_goodput_rps: f64,
    open_p99_ns: f64,
    open_shed: u64,
}

/// The offered rate of the compare table's open-loop point: modest
/// enough that even the single-channel DIMM can serve most of it, so
/// the p99 column contrasts queueing behavior rather than raw ceilings.
const COMPARE_OPENLOOP_RPS: f64 = 10.0e6;

/// Measures one backend preset at the Figure 9 operating point (ro and
/// rw full-scale) plus the open-loop multi-tenant point.
fn compare_backend(cfg: &SystemConfig, kind: BackendKind, mc: &MeasureConfig) -> CompareRow {
    let mut sys = SystemBuilder::new(cfg.clone()).backend(kind).build_any();
    let ro = run_backend_measurement(
        &mut sys,
        &Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX),
        mc,
    );
    let mut sys = SystemBuilder::new(cfg.clone()).backend(kind).build_any();
    let rw = run_backend_measurement(
        &mut sys,
        &Workload::full_scale(RequestKind::ReadModifyWrite, RequestSize::MAX),
        mc,
    );
    let open = OpenLoopConfig::standard_mix(
        COMPARE_OPENLOOP_RPS,
        ArrivalKind::Poisson,
        ShedPolicy::RejectNewest,
    );
    let mut sys = SystemBuilder::new(cfg.clone())
        .backend(kind)
        .open_loop(open.clone())
        .build_any();
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::ZERO + mc.warmup);
    sys.host_mut().reset_stats();
    sys.step_until(Time::ZERO + mc.warmup + mc.window);
    let point = openloop::make_window_point(
        COMPARE_OPENLOOP_RPS,
        &open,
        sys.host().open_stats(),
        mc.window,
    );
    CompareRow {
        ro,
        rw,
        open_goodput_rps: point.goodput_rps,
        open_p99_ns: point.p99_ns,
        open_shed: point.shed,
    }
}

/// Runs every backend preset under the identical host pipeline and
/// prints the cross-technology table. Returns `false` (nonzero exit)
/// if the HBM backend fails to sustain more channels in flight than
/// HMC Gen2 — the structural-concurrency claim the comparison rests on.
fn run_compare(cfg: &SystemConfig, mc: &MeasureConfig, json_out: Option<&str>) -> bool {
    let rows: Vec<(BackendKind, CompareRow)> = BackendKind::ALL
        .into_iter()
        .map(|kind| (kind, compare_backend(cfg, kind, mc)))
        .collect();
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>6} {:>11} {:>10} {:>7}",
        "backend",
        "ro-GB/s",
        "ro-p99ns",
        "rw-GB/s",
        "rw-p99ns",
        "chans",
        "open-Mrps",
        "open-p99",
        "shed"
    );
    let mut cells = String::new();
    for (kind, r) in &rows {
        println!(
            "{:<10} {:>9.2} {:>9.0} {:>9.2} {:>9.0} {:>6} {:>11.2} {:>10.0} {:>7}",
            kind.label(),
            r.ro.bandwidth_gbs,
            r.ro.p99_latency_ns,
            r.rw.bandwidth_gbs,
            r.rw.p99_latency_ns,
            r.ro.peak_channels,
            r.open_goodput_rps / 1e6,
            r.open_p99_ns,
            r.open_shed,
        );
        if !cells.is_empty() {
            cells.push_str(",\n");
        }
        cells.push_str(&format!(
            "    {{\"backend\": \"{}\", \
             \"ro_gbs\": {:.3}, \"ro_p99_ns\": {:.1}, \
             \"rw_gbs\": {:.3}, \"rw_p99_ns\": {:.1}, \
             \"peak_channels\": {}, \"events\": {}, \
             \"open_goodput_rps\": {:.0}, \"open_p99_ns\": {:.1}, \
             \"open_shed\": {}}}",
            kind.label(),
            r.ro.bandwidth_gbs,
            r.ro.p99_latency_ns,
            r.rw.bandwidth_gbs,
            r.rw.p99_latency_ns,
            r.ro.peak_channels,
            r.ro.events,
            r.open_goodput_rps,
            r.open_p99_ns,
            r.open_shed,
        ));
    }
    let hmc_chans = rows
        .iter()
        .find(|(k, _)| *k == BackendKind::Hmc)
        .map_or(0, |(_, r)| r.ro.peak_channels);
    let hbm_chans = rows
        .iter()
        .find(|(k, _)| *k == BackendKind::Hbm)
        .map_or(0, |(_, r)| r.ro.peak_channels);
    let ok = hbm_chans > hmc_chans;
    println!(
        "channels-in-flight: hbm {hbm_chans} vs hmc {hmc_chans} — {}",
        if ok { "ok" } else { "VIOLATION" }
    );
    if let Some(path) = json_out {
        let json = format!(
            "{{\n  \"workload\": \"fig9 operating point (full-scale ro/rw 128B) + \
             openloop {:.0}rps poisson reject-newest\",\n  \
             \"window_us\": {:.1},\n  \"backends\": [\n{cells}\n  ],\n  \
             \"verdict\": {{\"hbm_channels\": {hbm_chans}, \
             \"hmc_channels\": {hmc_chans}, \"hbm_exceeds_hmc\": {ok}}}\n}}\n",
            COMPARE_OPENLOOP_RPS,
            mc.window.as_ns_f64() / 1e3,
        );
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("wrote compare artifact to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    ok
}

/// Runs the Figure 9 subset twice — plain and sanitized — checks the
/// figures match to the bit, and prints the sanitizer's findings.
/// Returns `false` if any invariant was violated or the runs diverged.
fn run_sanitize(cfg: &SystemConfig, json_out: Option<&str>) -> bool {
    let mc = bench_mc();
    let plain = hmc_core::sanitize::fig9_bandwidth_subset(cfg, &mc, false);
    let sane = hmc_core::sanitize::fig9_bandwidth_subset(cfg, &mc, true);
    println!("{}", sane.table());
    println!("{}", sane.report);
    let identical = plain.fingerprint() == sane.fingerprint();
    if identical {
        println!("bit-identity: sanitized figures match the plain run exactly");
    } else {
        eprintln!("bit-identity FAILED: sanitized figures diverge from the plain run");
    }
    if let Some(path) = json_out {
        write_artifact(&sane.report, path);
    }
    sane.report.is_clean() && identical
}

/// Runs one built-in fault scenario (or all of them) with the sanitizer
/// armed and prints the degraded-mode table plus each sanitizer report.
/// Returns `false` if any scenario saw a violation or failed to drain;
/// an unknown scenario name exits 2 before anything runs.
fn run_faults(cfg: &SystemConfig, which: &str, json_out: Option<&str>) -> bool {
    use sim_engine::FaultScenario;
    let mc = bench_mc();
    let names: Vec<&str> = if which == "all" {
        FaultScenario::builtin_names().to_vec()
    } else if FaultScenario::builtin(which).is_some() {
        vec![which]
    } else {
        eprintln!(
            "unknown scenario '{which}' (built-ins: {}, or 'all')",
            FaultScenario::builtin_names().join(", ")
        );
        std::process::exit(2);
    };
    let outcomes: Vec<_> = names
        .iter()
        .map(|n| faults::run_builtin(cfg, n, &mc).expect("name came from the built-in list"))
        .collect();
    println!("{}", faults::scenario_table(&outcomes));
    let mut ok = true;
    for o in &outcomes {
        if !o.report.is_clean() {
            eprintln!("scenario '{}' sanitizer violations:\n{}", o.name, o.report);
            ok = false;
        }
        if !o.drained {
            eprintln!(
                "scenario '{}' failed to drain: recovery hung or a request was lost",
                o.name
            );
            ok = false;
        }
    }
    if let Some(path) = json_out {
        write_artifact(outcomes.as_slice(), path);
    }
    ok
}

/// Runs the open-loop multi-tenant overload sweep for one shed policy
/// (or all three) and prints the throughput-latency curve plus the
/// per-tenant SLO conformance table. With `--faults <scenario>` it runs
/// a single 1.5x-saturation point composed with that fault scenario and
/// the host robustness layer instead. Returns `false` on any sanitizer
/// violation or failed drain; bad arguments (unknown policy or scenario,
/// `--cubes` outside 1..=8) exit 2 before anything runs.
#[allow(clippy::too_many_lines)]
fn run_openloop(cfg: &SystemConfig, args: &[String], json_out: Option<&str>) -> bool {
    use hmc_core::hmc_host::ShedPolicy;
    use sim_engine::{ArrivalKind, FaultScenario};

    let mut policies: Vec<ShedPolicy> = ShedPolicy::ALL.to_vec();
    let mut kind = openloop::bursty();
    let mut cubes = 1u8;
    let mut shards = 1usize;
    let mut scenario: Option<FaultScenario> = None;
    let mut mc = bench_mc();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--poisson" => kind = ArrivalKind::Poisson,
            "--quick" => mc = hmc_core::measure::MeasureConfig::quick(),
            "--cubes" => {
                cubes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--faults" => {
                let name = it.next().unwrap_or_else(|| usage());
                match FaultScenario::builtin(name) {
                    Some(s) => scenario = Some(s),
                    None => {
                        eprintln!(
                            "unknown scenario '{name}' (built-ins: {})",
                            FaultScenario::builtin_names().join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            }
            "all" => policies = ShedPolicy::ALL.to_vec(),
            p => match ShedPolicy::parse(p) {
                Some(policy) => policies = vec![policy],
                None => {
                    eprintln!(
                        "unknown policy '{p}' (policies: {}, or 'all')",
                        ShedPolicy::ALL.map(|p| p.label()).join(", ")
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    if !(1..=8).contains(&cubes) {
        eprintln!("--cubes must be in 1..=8 (the CUB field addresses 8 cubes)");
        std::process::exit(2);
    }
    let mut ok = true;
    if let Some(scenario) = scenario {
        for policy in policies {
            let run = openloop::OpenLoopRun {
                kind,
                cubes,
                workers: shards,
                ..openloop::OpenLoopRun::standard(policy)
            };
            let o = openloop::run_openloop_scenario(cfg, &run, &scenario, 1.5, &mc);
            let p = &o.point;
            println!(
                "{} + {} at 1.5x saturation: offered={} shed={} completed={} \
                 p99={:.0} ns abandoned={} retries={} drained={}",
                policy,
                o.scenario,
                p.offered,
                p.shed,
                p.completed,
                p.p99_ns,
                o.robust.abandoned,
                o.robust.retries,
                o.drained,
            );
            if !o.is_clean() {
                eprintln!(
                    "degraded run under '{}' was not clean:\n{}",
                    o.scenario, o.report
                );
                ok = false;
            }
        }
        return ok;
    }
    let mut last: Option<openloop::OpenLoopOutcome> = None;
    for policy in policies {
        let run = openloop::OpenLoopRun {
            kind,
            cubes,
            workers: shards,
            ..openloop::OpenLoopRun::standard(policy)
        };
        let o = openloop::run_openloop(cfg, &run, &mc);
        println!("{}", openloop::throughput_table(&o));
        println!("{}", openloop::slo_table(&o));
        if !o.is_clean() {
            eprintln!("openloop sweep under {policy} was not clean:\n{}", o.report);
            ok = false;
        }
        last = Some(o);
    }
    if let (Some(path), Some(o)) = (json_out, last.as_ref()) {
        write_artifact(o, path);
    }
    ok
}

/// Runs the multi-cube chain characterization and prints its three
/// tables. The shape checks (aggregate scaling, exact ladder adders,
/// near/far asymmetry) are asserted inside `characterize`.
fn run_chain(
    cfg: &SystemConfig,
    cubes: u8,
    star: bool,
    interleave: CubeInterleave,
    shards: usize,
    json_out: Option<&str>,
) {
    let topo = if star {
        Topology::star(cubes)
    } else {
        Topology::chain(cubes)
    }
    .with_interleave(interleave);
    let mc = bench_mc();
    let report = chain::characterize_sharded(cfg, topo, &mc, shards);
    println!("{}", report.scaling_table());
    println!("{}", report.ladder_table());
    println!("{}", report.near_far_table());
    if let Some(path) = json_out {
        write_artifact(&report, path);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <command> [--threads N] [--json PATH]\n\
         commands:\n\
         \x20 figure <table1|table2|table3|fig6..fig18|baseline|readratio|kernels|mapping|faults|generations|all>... [--breakdown]\n\
         \x20 sweep <trace|metrics|perf> [--backend hmc|hmc-gen3|ddr3-1600|hbm]\n\
         \x20 compare [--quick]\n\
         \x20 sanitize\n\
         \x20 faults [scenario|all]\n\
         \x20 openloop [policy|all] [--poisson] [--quick] [--cubes N] [--shards N]\n\
         \x20          [--faults scenario]\n\
         \x20 chain [--cubes N] [--star] [--interleave cube|vault] [--shards N]\n\
         \x20       [--breakdown] [--trace-json P] [--metrics-json P] [--profile-json P]\n\
         \x20       [--dashboard | --dashboard-headless] [--frames N] [--frame-us N]\n\
         \x20       [--span-us N] [--refresh-ms N]"
    );
    std::process::exit(2);
}

/// Shared option extraction: pulls `--threads N` and `--json PATH` out of
/// a subcommand's argument list, returning the remaining arguments.
fn take_common(args: &[String]) -> (Vec<String>, Option<String>) {
    let mut rest = Vec::new();
    let mut json: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                exec::set_threads(n);
            }
            "--json" => json = Some(it.next().unwrap_or_else(|| usage()).clone()),
            other => rest.push(other.to_string()),
        }
    }
    (rest, json)
}

const ALL_TARGETS: [&str; 22] = [
    "table1",
    "table2",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "baseline",
    "readratio",
    "kernels",
    "mapping",
    "faults",
    "generations",
];

fn cmd_figure(cfg: &SystemConfig, args: &[String]) {
    let (rest, _json) = take_common(args);
    let mut opts = Opts::default();
    let mut targets: Vec<String> = Vec::new();
    for arg in &rest {
        match arg.as_str() {
            "--breakdown" => opts.breakdown = true,
            flag if flag.starts_with("--") => usage(),
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    if let Some(bad) = targets
        .iter()
        .find(|t| *t != "all" && !ALL_TARGETS.contains(&t.as_str()))
    {
        eprintln!(
            "unknown target '{bad}' (try: {}, all)",
            ALL_TARGETS.join(", ")
        );
        std::process::exit(2);
    }
    for arg in &targets {
        if arg == "all" {
            for t in ALL_TARGETS {
                println!("\n########## {t} ##########");
                run(t, cfg, opts);
            }
        } else {
            run(arg, cfg, opts);
        }
    }
}

fn cmd_sweep(cfg: &SystemConfig, args: &[String]) {
    let (rest, json) = take_common(args);
    let mut backend = BackendKind::default();
    let mut target: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--backend" => {
                let name = it.next().unwrap_or_else(|| usage());
                backend = BackendKind::parse(name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown backend '{name}' (kinds: {})",
                        BackendKind::ALL.map(|k| k.label()).join(", ")
                    );
                    std::process::exit(2);
                });
            }
            t if !t.starts_with("--") && target.is_none() => target = Some(t.to_string()),
            _ => usage(),
        }
    }
    match target.as_deref() {
        Some("trace") => {
            capture_observed(
                cfg,
                backend,
                Some(json.as_deref().unwrap_or("trace.json")),
                None,
            );
        }
        Some("metrics") => {
            capture_observed(
                cfg,
                backend,
                None,
                Some(json.as_deref().unwrap_or("metrics.json")),
            );
        }
        Some("perf") => perf_json(cfg),
        _ => usage(),
    }
}

/// Parsed observability add-ons of the `chain` subcommand.
#[derive(Debug, Clone, Default)]
struct ChainObs {
    breakdown: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile_out: Option<String>,
    dashboard: bool,
    headless: bool,
    frames: usize,
    frame_us: u64,
    span_us: u64,
    refresh_ms: u64,
}

/// Runs the chain observability captures requested alongside (or instead
/// of) the characterization tables.
fn run_chain_obs(
    cfg: &SystemConfig,
    topo: Topology,
    shards: usize,
    o: &ChainObs,
    json: Option<&str>,
) {
    use hmc_bench::dashboard::{run_dashboard, DashboardMode, DashboardRun};
    use hmc_core::observe::run_chain_observed;

    let workload =
        Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(64).expect("valid"));
    if o.breakdown || o.trace_out.is_some() || o.metrics_out.is_some() || o.profile_out.is_some() {
        let obs = run_chain_observed(
            cfg,
            topo,
            &Workload::read_stream(256, RequestSize::new(64).expect("valid")),
            None,
            8,
            Some(TimeDelta::from_us(1)),
            shards,
        );
        if o.breakdown {
            println!(
                "{}",
                obs.report
                    .attribution_table("chain latency attribution", &obs.latency)
            );
        }
        if let Some(path) = &o.trace_out {
            let json = obs.report.chrome_json_with_profile(Some(&obs.profile));
            match std::fs::write(path, &json) {
                Ok(()) => eprintln!("wrote trace artifact to {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        if let Some(path) = &o.metrics_out {
            if let Some(m) = &obs.metrics {
                write_artifact(m, path);
            }
        }
        if let Some(path) = &o.profile_out {
            write_artifact(&obs.profile, path);
        }
    }
    if o.dashboard || o.headless {
        let mode = if o.headless {
            DashboardMode::Headless
        } else {
            DashboardMode::Live {
                refresh_ms: o.refresh_ms,
            }
        };
        let (dash, sys) = run_dashboard(
            cfg,
            topo,
            &workload,
            shards,
            DashboardRun {
                total: TimeDelta::from_us(o.span_us),
                frame_span: TimeDelta::from_us(o.frame_us),
                capacity: o.frames,
                mode,
            },
        );
        if o.headless {
            let dump = dash.to_json();
            print!("{dump}");
            if let Some(path) = json {
                match std::fs::write(path, &dump) {
                    Ok(()) => eprintln!("wrote dashboard artifact to {path}"),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
        } else {
            // Leave the final panel on screen with a wall-clock summary.
            print!("{}", dash.render(&sys));
        }
    }
}

fn cmd_chain(cfg: &SystemConfig, args: &[String]) {
    let (rest, json) = take_common(args);
    let mut cubes: u8 = 2;
    let mut star = false;
    let mut interleave = CubeInterleave::CubeFirst;
    let mut shards: usize = 1;
    let mut obs = ChainObs {
        frames: 64,
        frame_us: 5,
        span_us: 500,
        refresh_ms: 100,
        ..ChainObs::default()
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let num = |it: &mut std::slice::Iter<String>| -> u64 {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--cubes" => cubes = u8::try_from(num(&mut it)).unwrap_or_else(|_| usage()),
            "--shards" => shards = num(&mut it) as usize,
            "--star" => star = true,
            "--interleave" => {
                interleave = match it.next().map(String::as_str) {
                    Some("cube") => CubeInterleave::CubeFirst,
                    Some("vault") => CubeInterleave::VaultFirst,
                    _ => usage(),
                };
            }
            "--breakdown" => obs.breakdown = true,
            "--trace-json" => obs.trace_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--metrics-json" => {
                obs.metrics_out = Some(it.next().unwrap_or_else(|| usage()).clone());
            }
            "--profile-json" => {
                obs.profile_out = Some(it.next().unwrap_or_else(|| usage()).clone());
            }
            "--dashboard" => obs.dashboard = true,
            "--dashboard-headless" => obs.headless = true,
            "--frames" => obs.frames = num(&mut it) as usize,
            "--frame-us" => obs.frame_us = num(&mut it),
            "--span-us" => obs.span_us = num(&mut it),
            "--refresh-ms" => obs.refresh_ms = num(&mut it),
            _ => usage(),
        }
    }
    if !(2..=8).contains(&cubes) {
        eprintln!("--cubes must be in 2..=8 (the CUB field addresses 8 cubes)");
        std::process::exit(2);
    }
    if obs.frame_us == 0 {
        eprintln!("--frame-us must be at least 1 (each frame spans simulated time)");
        std::process::exit(2);
    }
    let topo = if star {
        Topology::star(cubes)
    } else {
        Topology::chain(cubes)
    }
    .with_interleave(interleave);
    let observing = obs.breakdown
        || obs.dashboard
        || obs.headless
        || obs.trace_out.is_some()
        || obs.metrics_out.is_some()
        || obs.profile_out.is_some();
    if observing {
        run_chain_obs(cfg, topo, shards, &obs, json.as_deref());
    } else {
        run_chain(cfg, cubes, star, interleave, shards, json.as_deref());
    }
}

fn main() {
    let cfg = SystemConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("figure") => cmd_figure(&cfg, &args[1..]),
        Some("sweep") => cmd_sweep(&cfg, &args[1..]),
        Some("sanitize") => {
            let (_, json) = take_common(&args[1..]);
            if !run_sanitize(&cfg, json.as_deref()) {
                std::process::exit(1);
            }
        }
        Some("faults") => {
            let (rest, json) = take_common(&args[1..]);
            let which = rest.first().map(String::as_str).unwrap_or("all");
            if !run_faults(&cfg, which, json.as_deref()) {
                std::process::exit(1);
            }
        }
        Some("openloop") => {
            let (rest, json) = take_common(&args[1..]);
            if !run_openloop(&cfg, &rest, json.as_deref()) {
                std::process::exit(1);
            }
        }
        Some("chain") => cmd_chain(&cfg, &args[1..]),
        Some("compare") => {
            let (rest, json) = take_common(&args[1..]);
            let mut mc = bench_mc();
            for arg in &rest {
                match arg.as_str() {
                    "--quick" => mc = MeasureConfig::quick(),
                    _ => usage(),
                }
            }
            if !run_compare(&cfg, &mc, json.as_deref()) {
                std::process::exit(1);
            }
        }
        Some(other) => {
            eprintln!("unknown command '{other}'");
            usage();
        }
        None => usage(),
    }
}
