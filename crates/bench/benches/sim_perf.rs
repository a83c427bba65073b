//! Criterion benchmarks of the simulator itself (not the paper's
//! experiments): how fast the event core, device, and full system run.

use criterion::{criterion_group, criterion_main, Criterion};
use hmc_core::experiments::bandwidth;
use hmc_core::hmc_host::Workload;
use hmc_core::system::{System, SystemConfig};
use hmc_core::MeasureConfig;
use hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use sim_engine::{exec, EventQueue, SplitMix64};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            let mut rng = SplitMix64::new(7);
            for i in 0..10_000u64 {
                q.push(Time::from_ps(rng.next_below(1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

/// Eight queues stepped in turn through 8 ns windows, each carrying a
/// steady ~1 event/ns load of 64 B payloads rescheduled 8 ns–1 µs ahead
/// (~512 pending per queue): the access pattern of an 8-cube chain pumped
/// in PDES epochs. Unlike the single cache-hot queue above, it measures
/// how much memory each queue's event store pulls through the cache per
/// window. One iteration is 1 µs of simulated time on every queue.
fn bench_event_queue_interleaved(c: &mut Criterion) {
    const QUEUES: usize = 8;
    const WINDOW_PS: u64 = 8_000;
    const WINDOWS: u64 = 125;
    let mut rng = SplitMix64::new(11);
    let mut queues: Vec<EventQueue<[u64; 8]>> = (0..QUEUES)
        .map(|_| {
            let mut q = EventQueue::new();
            for i in 0..512u64 {
                q.push(Time::from_ps(i * 1_000 + rng.next_below(1_000)), [i; 8]);
            }
            q
        })
        .collect();
    let mut now = 0u64;
    let mut batch = Vec::new();
    c.bench_function("event_queue_interleaved_8x", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for _ in 0..WINDOWS {
                now += WINDOW_PS;
                for q in &mut queues {
                    q.pop_until(Time::from_ps(now - 1), &mut batch);
                    for (t, ev) in batch.drain(..) {
                        sum = sum.wrapping_add(ev[0]);
                        let dt = WINDOW_PS + rng.next_below(1_008_000);
                        q.push(Time::from_ps(t.as_ps() + dt), ev);
                    }
                }
            }
            black_box(sum)
        })
    });
}

fn bench_full_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_system");
    g.sample_size(10);
    g.bench_function("full_scale_ro_128B_50us", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::default());
            sys.host_mut().apply_workload(&Workload::full_scale(
                RequestKind::ReadOnly,
                RequestSize::MAX,
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(50));
            black_box(sys.host().total_issued())
        })
    });
    g.bench_function("full_scale_rw_64B_50us", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::default());
            sys.host_mut().apply_workload(&Workload::full_scale(
                RequestKind::ReadModifyWrite,
                RequestSize::new(64).expect("valid"),
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(50));
            black_box(sys.host().total_issued())
        })
    });
    g.bench_function("single_bank_flood_50us", |b| {
        b.iter(|| {
            let cfg = SystemConfig::default();
            let mask = hmc_core::AccessPattern::Banks(1)
                .mask(cfg.mem.mapping, &cfg.mem.spec)
                .expect("valid");
            let mut sys = System::new(cfg);
            sys.host_mut().apply_workload(&Workload::masked(
                RequestKind::ReadOnly,
                RequestSize::MAX,
                mask,
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(50));
            black_box(sys.host().total_issued())
        })
    });
    g.finish();
}

/// Sweep throughput: the Figure 7 grid (27 independent measurement
/// points) through the parallel executor, serial vs. all cores. The
/// ratio of the two is the perf-regression headline for the executor;
/// on a single-core host both report the same time.
fn bench_sweep(c: &mut Criterion) {
    let mc = MeasureConfig {
        warmup: TimeDelta::from_us(20),
        window: TimeDelta::from_us(60),
    };
    let cfg = SystemConfig::default();
    let mut g = c.benchmark_group("sweep_fig7");
    g.sample_size(3);
    g.bench_function("serial", |b| {
        exec::set_threads(1);
        b.iter(|| black_box(bandwidth::figure7(&cfg, &mc).len()));
    });
    g.bench_function("all_cores", |b| {
        exec::set_threads(0);
        b.iter(|| black_box(bandwidth::figure7(&cfg, &mc).len()));
    });
    exec::set_threads(0);
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_interleaved,
    bench_full_system,
    bench_sweep
);
criterion_main!(benches);
