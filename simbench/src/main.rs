//! `simbench`: the simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload hmc_closed_ro128 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced pass with the per-layer metrics. Both run the
//! correctness gate. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it carries provenance, spreads and sample counts. See
//! `simbench/README.md` for the metric table and the workloads.

mod layers;
mod measure;
mod replica;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use stats::{host_cores, median, quartiles};
use workloads::{Workload, HELD_OUT_SEED};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number, or `null` for a non-finite value.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Prints the metric table, the detail line and the result line.
fn emit(metrics: &[Metric], detail: &str, attempted: u64, failures: &[String]) {
    for m in metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in failures {
        println!("FAILED: {f}");
    }
    println!("{{\"detail\":{{{detail}}}}}");
    let failed = (failures.len() as u64).min(attempted);
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failures.is_empty() && finite
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    println!("{out}");
}

/// Provenance shared by both passes.
fn provenance(a: &Args) -> String {
    let w = a.workload;
    format!(
        "\"workload\":{},\"seed\":{},\"seed_effective\":{},\"seed_route\":{},\
         \"held_out_seed\":{HELD_OUT_SEED},\"host_cores\":{},\"epoch_workers\":{},\
         \"cubes\":{},\"backend\":{},\"git_commit\":{},\"command\":{}",
        json_str(w.name()),
        a.seed,
        w.seed_effective(),
        json_str(w.seed_route()),
        host_cores(),
        w.epoch_workers(),
        w.cubes(),
        json_str(w.backend().label()),
        json_str(&stats::git_commit()),
        json_str(&format!(
            "cargo run --release --manifest-path simbench/Cargo.toml -- --workload {} \
             --seed {} --seconds {} --trace {}",
            w.name(),
            a.seed,
            a.seconds,
            u8::from(a.trace)
        )),
    )
}

fn spread(name: &str, values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values.iter().copied());
    format!(
        "{}:{{\"samples\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
        json_str(name),
        values.len(),
        json_num(q1),
        json_num(q2),
        json_num(q3)
    )
}

fn run_untraced(a: &Args) {
    let w = a.workload;
    let r = measure::run(w, a.seed, a.seconds);
    let out = &r.outputs;
    let setup: Vec<f64> = r.setups.iter().map(|s| s.total_s()).collect();
    let metrics = [
        metric("sim_us_per_s", median(r.rates.iter().copied()), "us/s"),
        metric("setup_s", median(setup.iter().copied()), "s"),
        metric("peak_rss_mb", r.peak_rss_mb, "MB"),
        metric("sim_bw_gbs", out.bw_gbs, "GB/s"),
    ];
    let paper_err = (w == Workload::HmcClosed).then(|| {
        let reference = hmc_bench::paper::RO_16V_128B_GBS;
        (out.bw_gbs - reference).abs() / reference * 100.0
    });
    let failed = (r.failures.len() as u64).min(r.attempted);
    let (slice, slices) = w.window();
    let detail = format!(
        "{},\"spread\":{{{},{}}},\"model\":{{\"sim_digest\":\"{:016x}\",\
         \"window_sim_us\":{},\"latency_samples\":{},\"latency_reservoir_exact\":{},\
         \"latency_kind\":{},\"completed\":{},\"events_per_req\":{},\
         \"sim_read_mean_ns\":{},\"sim_read_p50_ns\":{},\"sim_read_p99_ns\":{},\"sim_shed_frac\":{},\"paper_err_pct\":{}}},\"failed_frac\":{}",
        provenance(a),
        spread("sim_us_per_s", &r.rates),
        spread("setup_s", &setup),
        out.digest,
        json_num((slice * slices as u64).as_us_f64()),
        out.latency.count(),
        out.latency.is_exact(),
        json_str(if out.open.is_empty() {
            "read issue to completion"
        } else {
            "arrival to completion, all requests"
        }),
        out.completed,
        json_num(r.events_per_req),
        json_num(out.mean_ns()),
        json_num(out.quantile_ns(0.5)),
        json_num(out.quantile_ns(0.99)),
        if out.open.is_empty() {
            "null".to_string()
        } else {
            json_num(out.shed_frac())
        },
        paper_err.map_or("null".to_string(), json_num),
        json_num(failed as f64 / r.attempted as f64),
    );
    emit(&metrics, &detail, r.attempted, &r.failures);
}

fn run_traced(a: &Args) {
    let t = layers::run(a.workload, a.seed, a.seconds);
    let metrics: Vec<Metric> = layers::metric_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: t.metrics[&name],
            name,
            unit,
        })
        .collect();
    let failed = (t.failures.len() as u64).min(t.attempted);
    let detail = format!(
        "{},\"clock_read_ns\":{},\"replica_pairs\":{},\"timed_instant_share\":0.0625,\
         \"failed_frac\":{}",
        provenance(a),
        json_num(t.clock_ns),
        t.pairs,
        json_num(failed as f64 / t.attempted as f64),
    );
    emit(&metrics, &detail, t.attempted, &t.failures);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# simbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        run_traced(&args);
    } else {
        run_untraced(&args);
    }
    ExitCode::SUCCESS
}
