//! The single construction path for simulated systems.
//!
//! Declare the configuration, backend, topology and every observability
//! and fault knob up front, then build. Every build variant constructs a
//! [`ChainSystem`] through [`ChainSystem::with_devices`] and applies the
//! declared knobs in one fixed order; they differ only in which devices
//! sit behind the hosts and in the type they return:
//!
//! * [`build`](SystemBuilder::build) — a single-cube [`System`] with the
//!   statically typed HMC device;
//! * [`build_any`](SystemBuilder::build_any) — a single-cube
//!   [`System`] behind any backend preset;
//! * [`build_with`](SystemBuilder::build_with) — a single-cube
//!   [`System`] around a caller-constructed backend;
//! * [`build_chain`](SystemBuilder::build_chain) — a [`ChainSystem`] of
//!   any HMC topology.
//!
//! ```
//! use hmc_core::builder::SystemBuilder;
//! use hmc_core::topology::Topology;
//! use hmc_core::SystemConfig;
//! use hmc_types::TimeDelta;
//!
//! // A sanitized, metric-sampled two-cube chain in one expression.
//! let chain = SystemBuilder::new(SystemConfig::default())
//!     .metrics(TimeDelta::from_us(10))
//!     .sanitizer()
//!     .topology(Topology::chain(2))
//!     .build_chain();
//! assert_eq!(chain.cubes(), 2);
//! assert!(chain.sanitizer_enabled());
//! ```

use hmc_thermal::FailurePolicy;
use hmc_types::TimeDelta;
use mem_backend::{BackendKind, MemoryBackend};
use sim_engine::FaultScenario;

use crate::backends::{self, AnyBackend};
use crate::system::{System, SystemConfig};
use crate::topology::{hmc_cube, ChainSystem, Topology};

/// Declarative constructor for [`System`] and [`ChainSystem`].
///
/// Every observability and fault knob that used to require a post-`new`
/// `enable_*` call is a chainable method here; every `build` variant
/// applies them in one fixed order (epoch workers, policy, tracing,
/// metrics, epoch profiler, sanitizer, faults), so all construction
/// paths behave identically.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    cfg: SystemConfig,
    backend: BackendKind,
    topo: Topology,
    tracing: Option<u64>,
    metrics: Option<TimeDelta>,
    /// `Some(None)` = default watchdog span, `Some(Some(d))` = explicit.
    sanitizer: Option<Option<TimeDelta>>,
    /// Scenarios to install: `None` cube = every cube of the topology.
    faults: Vec<(Option<usize>, FaultScenario)>,
    policy: Option<FailurePolicy>,
    shards: Option<usize>,
    profiler: bool,
}

impl SystemBuilder {
    /// Starts a builder from a system configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        SystemBuilder {
            cfg,
            backend: BackendKind::default(),
            topo: Topology::single(),
            tracing: None,
            metrics: None,
            sanitizer: None,
            faults: Vec::new(),
            policy: None,
            shards: None,
            profiler: false,
        }
    }

    /// Selects the memory-backend preset (the default is
    /// [`BackendKind::Hmc`], the characterized Gen2 device).
    ///
    /// This is the single selection path: the preset rewrites the
    /// configuration's geometry at build time (see
    /// [`backends::apply_preset`]) and picks the device model. HMC-family
    /// presets work with every build variant; `ddr3-1600` and `hbm`
    /// require [`build_any`](Self::build_any).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Pumps chain epochs on `workers` threads instead of sequentially.
    /// Purely a wall-clock knob: results are bit-identical at every
    /// setting (see [`ChainSystem::set_parallel_shards`]). Inert on a
    /// single cube, which has no epochs to spread.
    pub fn parallel_shards(mut self, workers: usize) -> Self {
        self.shards = Some(workers);
        self
    }

    /// Enables lifecycle tracing; one request in `sample_every` lands in
    /// the exportable event log.
    pub fn tracing(mut self, sample_every: u64) -> Self {
        self.tracing = Some(sample_every);
        self
    }

    /// Arms the deterministic PDES epoch profiler (see
    /// [`ChainSystem::enable_epoch_profiler`]). Inert on a single cube,
    /// which has no epoch loop to profile.
    pub fn epoch_profiler(mut self) -> Self {
        self.profiler = true;
        self
    }

    /// Installs a periodic gauge sampler (one per cube in a chain).
    pub fn metrics(mut self, period: TimeDelta) -> Self {
        self.metrics = Some(period);
        self
    }

    /// Arms the protocol sanitizer and forward-progress watchdog with the
    /// default span.
    pub fn sanitizer(mut self) -> Self {
        self.sanitizer = Some(None);
        self
    }

    /// [`sanitizer`](SystemBuilder::sanitizer) with an explicit watchdog
    /// span.
    pub fn sanitizer_span(mut self, span: TimeDelta) -> Self {
        self.sanitizer = Some(Some(span));
        self
    }

    /// Installs a fault scenario on *every* cube (the single cube, or
    /// each cube of a chain, matching how a chain shares one workload).
    /// Scenarios compose; call repeatedly to merge schedules.
    pub fn faults(mut self, scenario: &FaultScenario) -> Self {
        self.faults.push((None, scenario.clone()));
        self
    }

    /// Installs a fault scenario on one specific cube of a chain.
    pub fn faults_on(mut self, cube: usize, scenario: &FaultScenario) -> Self {
        self.faults.push((Some(cube), scenario.clone()));
        self
    }

    /// Replaces the thermal limits evaluated at spikes.
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Enables the host fault-robustness layer (per-request deadlines,
    /// bounded retransmission, link-death rerouting) with its configured
    /// parameters.
    pub fn robust(mut self) -> Self {
        self.cfg.host.robust.enabled = true;
        self
    }

    /// Attaches the open-loop multi-tenant arrival frontend with
    /// admission control to every host. In a chain, each sharded host
    /// receives a clone (so the config's `offered_rps` is per shard) and
    /// draws decorrelated arrivals through its `rng_salt`.
    pub fn open_loop(mut self, open: hmc_host::OpenLoopConfig) -> Self {
        self.cfg.host.openloop = Some(open);
        self
    }

    /// Selects the cube topology ([`Topology::single`] by default).
    /// Multi-cube topologies require [`build_chain`](Self::build_chain).
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topo = topo;
        self
    }

    /// Builds the system around the devices `factory` makes per cube and
    /// applies the declared knobs, in the one fixed order every build
    /// variant shares.
    fn finish<B: MemoryBackend>(
        self,
        factory: impl FnMut(usize, &SystemConfig) -> B,
    ) -> ChainSystem<B> {
        let mut sys = ChainSystem::with_devices(self.cfg, self.topo, factory);
        if let Some(workers) = self.shards {
            sys.set_parallel_shards(workers);
        }
        if let Some(policy) = self.policy {
            sys.set_failure_policy(policy);
        }
        if let Some(sample_every) = self.tracing {
            sys.enable_tracing(sample_every);
        }
        if let Some(period) = self.metrics {
            sys.enable_metrics(period);
        }
        if self.profiler {
            sys.enable_epoch_profiler();
        }
        match self.sanitizer {
            Some(Some(span)) => sys.enable_sanitizer_with_span(span),
            Some(None) => sys.enable_sanitizer(),
            None => {}
        }
        for (cube, scenario) in &self.faults {
            match cube {
                Some(c) => sys.install_faults(*c, scenario),
                None => {
                    for c in 0..sys.cubes() {
                        sys.install_faults(c, scenario);
                    }
                }
            }
        }
        sys
    }

    /// Panics unless the declared topology is the single cube.
    fn assert_single_cube(&self) {
        assert_eq!(
            self.topo.cubes(),
            1,
            "multi-cube topology requires build_chain()"
        );
    }

    /// Builds the single cube around an already-constructed device.
    fn finish_single<B: MemoryBackend>(self, device: B) -> System<B> {
        let mut device = Some(device);
        System {
            chain: self.finish(|_, _| device.take().expect("a single cube has one device")),
        }
    }

    /// Builds a single-cube [`System`] with the concrete HMC device
    /// (the statically-typed fast path every existing caller uses).
    ///
    /// # Panics
    ///
    /// Panics if a multi-cube [`topology`](SystemBuilder::topology) was
    /// selected — use [`build_chain`](SystemBuilder::build_chain) — or
    /// if a non-HMC [`backend`](SystemBuilder::backend) preset was
    /// selected — use [`build_any`](SystemBuilder::build_any).
    pub fn build(mut self) -> System {
        self.assert_single_cube();
        assert!(
            matches!(self.backend, BackendKind::Hmc | BackendKind::HmcGen3),
            "backend preset '{}' requires build_any()",
            self.backend
        );
        backends::apply_preset(self.backend, &mut self.cfg);
        System {
            chain: self.finish(hmc_cube),
        }
    }

    /// Builds a single-cube system around the selected
    /// [`backend`](SystemBuilder::backend) preset, after the build-time
    /// address-layout handshake.
    ///
    /// # Panics
    ///
    /// Panics on a multi-cube topology, or with a diagnostic naming
    /// both bit-fields when the instantiated backend decodes a shared
    /// address field differently than the host generates it.
    pub fn build_any(mut self) -> System<AnyBackend> {
        self.assert_single_cube();
        backends::apply_preset(self.backend, &mut self.cfg);
        let device = backends::instantiate(self.backend, &self.cfg);
        backends::assert_layout_compatible(
            &device,
            &backends::host_layout(self.backend, &self.cfg),
        );
        self.finish_single(device)
    }

    /// Builds a single-cube system around a caller-constructed backend
    /// — the checked entry point for custom device models that share
    /// the host's interleave (DIMM-style backends with no interleave
    /// contract go through [`build_any`](Self::build_any) presets).
    ///
    /// # Panics
    ///
    /// Panics on a multi-cube topology, or with a diagnostic naming
    /// both bit-fields when `device` decodes a shared address field
    /// differently than the host's configured mapping generates it.
    pub fn build_with<B: MemoryBackend>(self, device: B) -> System<B> {
        self.assert_single_cube();
        let host = mem_backend::AddressLayout::of_mapping(
            "host-interleave",
            self.cfg.mem.mapping,
            &self.cfg.mem.spec,
        );
        backends::assert_layout_compatible(&device, &host);
        self.finish_single(device)
    }

    /// Builds a [`ChainSystem`] of the selected topology (any cube count,
    /// including the single-cube topology).
    ///
    /// # Panics
    ///
    /// Panics if a non-HMC [`backend`](SystemBuilder::backend) preset
    /// was selected: cube chaining is an HMC-specification feature (the
    /// hop links are HMC pass-through serializers), so chains are
    /// HMC-family only.
    pub fn build_chain(mut self) -> ChainSystem {
        assert!(
            matches!(self.backend, BackendKind::Hmc | BackendKind::HmcGen3),
            "backend preset '{}' cannot form a cube chain; chaining is HMC-family only",
            self.backend
        );
        backends::apply_preset(self.backend, &mut self.cfg);
        self.finish(hmc_cube)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_mutator_path() {
        let built = SystemBuilder::new(SystemConfig::default())
            .tracing(8)
            .metrics(TimeDelta::from_us(10))
            .sanitizer()
            .build();
        let mut mutated = System::new(SystemConfig::default());
        mutated.enable_tracing(8);
        mutated.enable_metrics(TimeDelta::from_us(10));
        mutated.enable_sanitizer();
        assert_eq!(built.sanitizer_enabled(), mutated.sanitizer_enabled());
        assert_eq!(built.metrics().is_some(), mutated.metrics().is_some());
    }

    #[test]
    fn builder_installs_faults_on_every_cube() {
        let scenario = FaultScenario::builtin("noisy-link").expect("builtin");
        let chain = SystemBuilder::new(SystemConfig::default())
            .faults(&scenario)
            .topology(Topology::chain(2))
            .build_chain();
        assert_eq!(chain.cubes(), 2);
    }

    #[test]
    fn robust_flag_reaches_the_hosts() {
        let chain = SystemBuilder::new(SystemConfig::default())
            .robust()
            .topology(Topology::chain(2))
            .build_chain();
        assert_eq!(chain.cubes(), 2);
    }

    #[test]
    fn parallel_shards_reach_the_chain() {
        let chain = SystemBuilder::new(SystemConfig::default())
            .parallel_shards(4)
            .topology(Topology::chain(2))
            .build_chain();
        assert_eq!(chain.parallel_shards(), 4);
        // Requesting zero workers clamps to the serial scheduler.
        let serial = SystemBuilder::new(SystemConfig::default())
            .parallel_shards(0)
            .topology(Topology::chain(2))
            .build_chain();
        assert_eq!(serial.parallel_shards(), 1);
    }

    #[test]
    fn epoch_knobs_are_inert_on_one_cube() {
        use hmc_host::Workload;
        use hmc_types::{RequestKind, RequestSize, Time};

        let run = |b: SystemBuilder| {
            let mut sys = b.sanitizer().build();
            let armed = (sys.parallel_shards(), sys.epoch_profile().is_some());
            sys.host_mut().apply_workload(&Workload::full_scale(
                RequestKind::ReadOnly,
                RequestSize::MAX,
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(50));
            let s = sys.host().stats();
            let surface = (
                sys.events_processed(),
                sys.now(),
                s.reads_issued,
                s.reads_completed,
                s.counted_bytes,
                s.read_latency.mean().as_ps(),
                s.read_latency.count(),
                sys.sanitizer_report().to_json(),
            );
            (armed, surface)
        };
        let (plain_armed, plain) = run(SystemBuilder::new(SystemConfig::default()));
        let (knobs_armed, knobs) = run(SystemBuilder::new(SystemConfig::default())
            .parallel_shards(4)
            .epoch_profiler());
        assert_eq!(plain_armed, (1, false));
        assert_eq!(knobs_armed, (4, true), "the knobs must reach the cube");
        assert!(plain.3 > 0, "no traffic — test is vacuous");
        assert_eq!(plain, knobs, "epoch knobs changed a single-cube run");
    }

    #[test]
    #[should_panic(expected = "build_chain")]
    fn build_rejects_multi_cube_topologies() {
        let _ = SystemBuilder::new(SystemConfig::default())
            .topology(Topology::chain(2))
            .build();
    }
}
