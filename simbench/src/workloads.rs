//! The named workloads: how each system is configured, built,
//! started and read out, and the model outputs every run checks.

use std::time::Instant;

use hmc_core::backends::{self, AnyBackend};
use hmc_core::experiments::openloop;
use hmc_core::hmc_host::{OpenLoopConfig, ShedPolicy, TenantOpenStats, Workload as Traffic};
use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::mem_backend::{BackendKind, MemoryBackend};
use hmc_core::sim_engine::Histogram;
use hmc_core::{ChainSystem, System, SystemBuilder, SystemConfig, Topology};

use crate::replica::Replica;

/// Aggregate offered rate of the open-loop workload, requests/second —
/// about 1.2x the closed-loop saturation rate of a 2-cube chain.
pub const OPEN_OFFERED_RPS: f64 = 200.0e6;

/// A seed held out of every tuning run; performance claims are checked
/// on it as well.
pub const HELD_OUT_SEED: u64 = 9_001;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One HMC Gen2 cube, full-scale closed-loop GUPS, random 128 B reads.
    HmcClosed,
    /// An 8-cube chain with the same closed-loop traffic, 2 epoch workers.
    /// Its host time follows thread wake-up latency, too unsteady on a
    /// shared 2-core host to gate.
    Chain8Closed,
    /// The same 8-cube chain pumped serially (1 epoch worker), gated in
    /// place of [`Workload::Chain8Closed`].
    Chain8Serial,
    /// A 2-cube serial chain with the three-tenant MMPP open-loop mix,
    /// tracer, gauges and epoch profiler armed.
    Chain2Open,
    /// The single-cube closed-loop traffic on the `hbm` preset.
    HbmClosed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 5] = [
        Workload::HmcClosed,
        Workload::Chain8Closed,
        Workload::Chain8Serial,
        Workload::Chain2Open,
        Workload::HbmClosed,
    ];

    /// The fixed name other documents refer to.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HmcClosed => "hmc_closed_ro128",
            Workload::Chain8Closed => "chain8_closed_ro128",
            Workload::Chain8Serial => "chain8_serial_closed_ro128",
            Workload::Chain2Open => "chain2_open_mmpp_observed",
            Workload::HbmClosed => "hbm_closed_ro128",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Cubes in the topology.
    pub fn cubes(self) -> u8 {
        match self {
            Workload::Chain8Closed | Workload::Chain8Serial => 8,
            Workload::Chain2Open => 2,
            Workload::HmcClosed | Workload::HbmClosed => 1,
        }
    }

    /// Epoch worker threads pumping the chain.
    pub fn epoch_workers(self) -> usize {
        match self {
            Workload::Chain8Closed => 2,
            _ => 1,
        }
    }

    /// The memory-backend preset.
    pub fn backend(self) -> BackendKind {
        match self {
            Workload::HbmClosed => BackendKind::Hbm,
            _ => BackendKind::Hmc,
        }
    }

    /// False where no outside seed reaches the traffic generators:
    /// `ChainSystem::with_devices` overwrites `HostConfig::rng_salt` per
    /// shard and the closed-loop ports have no other seed. There the
    /// seed only moves the measured window (see [`Workload::warmup`]).
    pub fn seed_effective(self) -> bool {
        !matches!(self, Workload::Chain8Closed | Workload::Chain8Serial)
    }

    /// Where the seed is routed.
    pub fn seed_route(self) -> &'static str {
        match self {
            Workload::HmcClosed | Workload::HbmClosed => "HostConfig::rng_salt",
            Workload::Chain8Closed | Workload::Chain8Serial => "warm-up length only",
            Workload::Chain2Open => "OpenLoopConfig::seed",
        }
    }

    /// Simulated warm-up before the measured window: a fixed part plus
    /// a seed-chosen offset of 0-15 µs, so the window start varies with
    /// the seed on every workload. The open-loop queues need longer to
    /// settle under MMPP bursts than the closed loops' tag pools.
    pub fn warmup(self, seed: u64) -> TimeDelta {
        let fixed = if self == Workload::Chain2Open {
            100
        } else {
            20
        };
        TimeDelta::from_us(fixed + seed % 16)
    }

    /// The measured window: `slices` slices of `slice` simulated time.
    /// Model outputs come from exactly this span, so they depend on the
    /// seed and never on host speed.
    pub fn window(self) -> (TimeDelta, usize) {
        match self {
            Workload::HmcClosed => (TimeDelta::from_us(50), 10),
            Workload::Chain8Closed | Workload::Chain8Serial => (TimeDelta::from_us(6), 10),
            Workload::Chain2Open => (TimeDelta::from_us(40), 20),
            Workload::HbmClosed => (TimeDelta::from_us(30), 10),
        }
    }

    /// The system configuration after the backend preset, with the seed
    /// routed into the host where the workload accepts it.
    pub fn config(self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::default();
        backends::apply_preset(self.backend(), &mut cfg);
        if self.cubes() == 1 {
            cfg.host.rng_salt = seed;
        }
        cfg
    }

    /// The single-cube analogue the replica pump runs: one cube with the
    /// per-cube traffic of the workload (open-loop frontend included).
    pub fn single_cube_config(self, seed: u64) -> SystemConfig {
        let mut cfg = self.config(seed);
        cfg.host.openloop = self.open_loop(seed);
        cfg
    }

    /// A started replica pump over the single-cube analogue.
    pub fn replica(self, seed: u64) -> Replica<AnyBackend> {
        let cfg = self.single_cube_config(seed);
        let device = backends::instantiate(self.backend(), &cfg);
        Replica::start(cfg.host, device, self.traffic().as_ref())
    }

    /// The open-loop frontend of one host (per cube: the aggregate rate
    /// is split evenly across the chain's hosts).
    pub fn open_loop(self, seed: u64) -> Option<OpenLoopConfig> {
        (self == Workload::Chain2Open).then(|| {
            let per_host = OPEN_OFFERED_RPS / f64::from(self.cubes());
            let mut open = OpenLoopConfig::standard_mix(
                per_host,
                openloop::bursty(),
                ShedPolicy::RejectNewest,
            );
            open.seed = seed;
            open
        })
    }

    /// The closed-loop GUPS traffic every port runs; `None` where the
    /// open-loop frontend generates the requests instead.
    pub fn traffic(self) -> Option<Traffic> {
        (self != Workload::Chain2Open)
            .then(|| Traffic::full_scale(RequestKind::ReadOnly, RequestSize::MAX))
    }

    /// Arms what the workload defines: the open-loop workload runs with
    /// a tracer keeping one request in 64, 1 µs gauges and the epoch
    /// profiler; the others run disarmed.
    pub fn observe(self, b: SystemBuilder) -> SystemBuilder {
        if self == Workload::Chain2Open {
            b.tracing(64)
                .metrics(TimeDelta::from_us(1))
                .epoch_profiler()
        } else {
            b
        }
    }

    /// Builds and starts the workload's system as defined.
    pub fn setup(self, seed: u64) -> (Sim, SetupTime) {
        self.setup_with(seed, self.cubes(), |b| self.observe(b))
    }

    /// Builds and starts the workload's system with `cubes` cubes (the
    /// per-cube traffic stays the same) and the builder knobs `arm`
    /// sets, timing the two set-up phases.
    pub fn setup_with(
        self,
        seed: u64,
        cubes: u8,
        arm: impl FnOnce(SystemBuilder) -> SystemBuilder,
    ) -> (Sim, SetupTime) {
        let t0 = Instant::now();
        let mut b = SystemBuilder::new(self.config(seed)).backend(self.backend());
        if let Some(open) = self.open_loop(seed) {
            b = b.open_loop(open);
        }
        b = arm(b);
        let mut sim = match self {
            Workload::HmcClosed => Sim::Hmc(b.build()),
            Workload::HbmClosed => Sim::Any(b.build_any()),
            Workload::Chain8Closed | Workload::Chain8Serial | Workload::Chain2Open => Sim::Chain(
                b.parallel_shards(self.epoch_workers())
                    .topology(Topology::chain(cubes))
                    .build_chain(),
            ),
        };
        let t1 = Instant::now();
        sim.start(self.traffic().as_ref());
        let t2 = Instant::now();
        let time = SetupTime {
            build_s: (t1 - t0).as_secs_f64(),
            start_s: (t2 - t1).as_secs_f64(),
        };
        (sim, time)
    }
}

/// Host seconds spent building and starting one system.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// `SystemBuilder::new` through the build call.
    pub build_s: f64,
    /// Workload install plus `start`.
    pub start_s: f64,
}

impl SetupTime {
    /// The whole set-up.
    pub fn total_s(self) -> f64 {
        self.build_s + self.start_s
    }
}

/// A built system of any of the three shapes the workloads use.
#[derive(Debug)]
pub enum Sim {
    /// A single HMC cube on the statically typed path.
    Hmc(System),
    /// A single cube behind a runtime-selected backend preset.
    Any(System<AnyBackend>),
    /// A multi-cube chain.
    Chain(ChainSystem),
}

/// Model outputs of one measured window.
#[derive(Debug, Clone)]
pub struct Outputs {
    /// Counted bandwidth over the window, GB/s.
    pub bw_gbs: f64,
    /// Read latency (open loop: arrival to completion, all requests).
    pub latency: Histogram,
    /// Requests completed in the window.
    pub completed: u64,
    /// Per-tenant open-loop accounting (empty for closed loops).
    pub open: Vec<TenantOpenStats>,
    /// Digest over every simulated statistic of the window.
    pub digest: u64,
}

impl Outputs {
    /// A latency quantile in ns (0 with no samples).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        self.latency.quantile(q).map_or(0.0, |d| d.as_ns_f64())
    }

    /// Mean latency in ns (0 with no samples).
    pub fn mean_ns(&self) -> f64 {
        self.latency.mean().as_ns_f64()
    }

    /// Open-loop arrivals over the window.
    pub fn offered(&self) -> u64 {
        self.open.iter().map(|t| t.offered).sum()
    }

    /// Shed fraction of open-loop arrivals (0 for closed loops).
    pub fn shed_frac(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 0.0;
        }
        let shed: u64 = self.open.iter().map(TenantOpenStats::shed_total).sum();
        shed as f64 / offered as f64
    }
}

macro_rules! single {
    ($sim:expr, $s:ident => $e:expr, $c:ident => $ce:expr) => {
        match $sim {
            Sim::Hmc($s) => $e,
            Sim::Any($s) => $e,
            Sim::Chain($c) => $ce,
        }
    };
}

impl Sim {
    fn start(&mut self, traffic: Option<&Traffic>) {
        single!(self,
        s => {
            if let Some(t) = traffic {
                s.host_mut().apply_workload(t);
            }
            s.host_mut().start(Time::ZERO);
        },
        c => {
            if let Some(t) = traffic {
                c.apply_workload(t);
            }
            c.start(Time::ZERO);
        })
    }

    /// Advances simulated time by `span`.
    pub fn run_for(&mut self, span: TimeDelta) {
        single!(self, s => s.run_for(span), c => c.run_for(span))
    }

    /// Opens a measurement window.
    pub fn reset_stats(&mut self) {
        single!(self, s => s.host_mut().reset_stats(), c => c.reset_stats())
    }

    /// Discrete events processed so far, all components.
    pub fn events(&self) -> u64 {
        single!(self, s => s.events_processed(), c => c.events_processed())
    }

    /// The chain, if this is one.
    pub fn chain(&self) -> Option<&ChainSystem> {
        match self {
            Sim::Chain(c) => Some(c),
            _ => None,
        }
    }

    /// Reads the model outputs of a window of length `window`.
    pub fn outputs(&self, window: TimeDelta) -> Outputs {
        let mut d = Digest::default();
        let (host, open) = single!(self,
        s => {
            digest_device(&mut d, s.device());
            (s.host().stats(), s.host().open_stats().to_vec())
        },
        c => {
            for cube in 0..c.cubes() {
                digest_host(&mut d, &c.host(cube).stats());
                digest_device(&mut d, c.device(cube));
            }
            (c.host_stats(), c.open_stats())
        });
        d.push(self.events());
        digest_host(&mut d, &host);
        let mut latency = host.read_latency.clone();
        if !open.is_empty() {
            latency = Histogram::default();
            for t in &open {
                latency.merge(&t.latency);
                for v in [
                    t.offered,
                    t.shed_rate,
                    t.shed_queue,
                    t.shed_deadline,
                    t.admitted,
                    t.issued,
                    t.completed,
                    t.completed_within_slo,
                    t.arrived_backpressured,
                ] {
                    d.push(v);
                }
                digest_histogram(&mut d, &t.latency);
                digest_histogram(&mut d, &t.queue_wait);
            }
        }
        Outputs {
            bw_gbs: host.bandwidth_gbs(window),
            latency,
            completed: host.reads_completed + host.writes_completed,
            open,
            digest: d.0,
        }
    }

    /// Conservation at drain: stops generation, runs until idle, and
    /// checks that nothing is outstanding and that every device
    /// completion was delivered to a host. Returns a failure reason.
    pub fn drain_check(&mut self) -> Result<(), String> {
        let max = TimeDelta::from_ms(2);
        let (idle, outstanding, issued, served) = single!(self,
        s => {
            s.host_mut().stop_generation();
            let idle = s.run_until_idle(max);
            (idle, s.host().outstanding(), s.host().total_issued(),
             s.device().core_stats().completed())
        },
        c => {
            c.stop_generation();
            let idle = c.run_until_idle(max);
            let mut out = 0;
            let mut issued = 0;
            let mut served = 0;
            for cube in 0..c.cubes() {
                out += c.host(cube).outstanding();
                issued += c.host(cube).total_issued();
                served += c.device(cube).core_stats().completed();
            }
            (idle, out, issued, served)
        });
        if !idle || outstanding != 0 {
            return Err(format!(
                "drain: idle={idle}, {outstanding} requests still outstanding"
            ));
        }
        if issued != served {
            return Err(format!(
                "drain: hosts issued {issued} requests, devices served {served}"
            ));
        }
        Ok(())
    }
}

/// The open-loop shed identity over a window under reject-newest:
/// every arrival is rate-shed, rejected at the full queue, or admitted.
pub fn shed_identity(open: &[TenantOpenStats]) -> Result<(), String> {
    for (i, t) in open.iter().enumerate() {
        let accounted = t.shed_rate + t.shed_queue + t.shed_deadline + t.admitted;
        if t.offered != accounted {
            return Err(format!(
                "tenant {i}: offered {} != shed {} + admitted {}",
                t.offered,
                t.shed_total(),
                t.admitted
            ));
        }
    }
    Ok(())
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every bit of a histogram a caller can read: moments, extremes and
/// the reported quantiles.
pub fn digest_histogram(d: &mut Digest, h: &Histogram) {
    d.push(h.count());
    d.push(h.mean().as_ps());
    d.push(h.std_dev_ps().to_bits());
    for v in [h.min(), h.max(), h.quantile(0.5), h.quantile(0.99)] {
        d.push(v.map_or(u64::MAX, |t| t.as_ps()));
    }
}

fn digest_host(d: &mut Digest, s: &hmc_core::hmc_host::HostStats) {
    for v in [
        s.reads_issued,
        s.writes_issued,
        s.reads_completed,
        s.writes_completed,
        s.counted_bytes,
        s.integrity_failures,
    ] {
        d.push(v);
    }
    digest_histogram(d, &s.read_latency);
}

fn digest_device<B: MemoryBackend>(d: &mut Digest, dev: &B) {
    let c = dev.core_stats();
    for v in [
        c.reads_completed,
        c.writes_completed,
        c.data_read_bytes,
        c.data_write_bytes,
        c.bytes_up,
        c.bytes_down,
        dev.events_processed(),
    ] {
        d.push(v);
    }
}
