//! The single-cube system: the paper's one HMC behind the AC-510 host.
//!
//! [`System`] is a one-cube [`ChainSystem`] ([`Topology::single`]) seen
//! through single-cube accessors: the host, device, gauge sampler and
//! fault schedule of cube 0 without a cube index. Everything else — the
//! event pump, thermal-spike barriers and live shutdown/recovery, the
//! sanitizer and forward-progress watchdog — is the chain's, reached
//! through [`Deref`]/[`DerefMut`], so there is one pump for one cube and
//! for eight.

use std::ops::{Deref, DerefMut};

use hmc_host::{Host, HostConfig};
use hmc_mem::{HmcDevice, MemConfig};
use mem_backend::MemoryBackend;
use sim_engine::{FaultScenario, MetricsSampler};

use crate::topology::{ChainSystem, Topology};

/// Configuration of the whole modelled system.
#[derive(Debug, Clone, Default)]
pub struct SystemConfig {
    /// Device-side configuration.
    pub mem: MemConfig,
    /// Host-side configuration.
    pub host: HostConfig,
}

/// The co-simulated system: an FPGA host driving an HMC device.
///
/// ```
/// use hmc_core::{System, SystemConfig};
/// use hmc_host::Workload;
/// use hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
///
/// let mut sys = System::new(SystemConfig::default());
/// sys.host_mut().apply_workload(&Workload::read_stream(
///     4,
///     RequestSize::new(64)?,
/// ));
/// sys.host_mut().start(Time::ZERO);
/// sys.run_until_idle(TimeDelta::from_us(100));
/// assert_eq!(sys.host().stats().reads_completed, 4);
/// # Ok::<(), hmc_types::HmcError>(())
/// ```
#[derive(Debug)]
pub struct System<B: MemoryBackend = HmcDevice> {
    /// The one-cube chain this view forwards to.
    pub(crate) chain: ChainSystem<B>,
}

impl System {
    /// Builds an idle system around the characterized HMC device.
    pub fn new(cfg: SystemConfig) -> Self {
        System {
            chain: ChainSystem::new(cfg, Topology::single()),
        }
    }
}

impl<B: MemoryBackend> System<B> {
    /// Installs a fault scenario: device-level faults are translated into
    /// device events immediately; thermal spikes are queued as time
    /// barriers for [`ChainSystem::step_until`]. Scenarios compose —
    /// calling this twice merges the schedules.
    ///
    /// Deprecated construction path: prefer
    /// [`SystemBuilder::faults`](crate::SystemBuilder::faults) when the
    /// scenario is known up front.
    pub fn install_faults(&mut self, scenario: &FaultScenario) {
        self.chain.install_faults(0, scenario);
    }

    /// The gauge sampler, if [`ChainSystem::enable_metrics`] installed
    /// one.
    pub fn metrics(&self) -> Option<&MetricsSampler> {
        self.chain.metrics(0)
    }

    /// The host model.
    pub fn host(&self) -> &Host {
        self.chain.host(0)
    }

    /// Mutable host access (workload installation, stat windows).
    pub fn host_mut(&mut self) -> &mut Host {
        self.chain.host_mut(0)
    }

    /// The device model.
    pub fn device(&self) -> &B {
        self.chain.device(0)
    }

    /// Mutable device access (refresh coupling, data wipes).
    pub fn device_mut(&mut self) -> &mut B {
        self.chain.device_mut(0)
    }
}

impl<B: MemoryBackend> Deref for System<B> {
    type Target = ChainSystem<B>;

    fn deref(&self) -> &ChainSystem<B> {
        &self.chain
    }
}

impl<B: MemoryBackend> DerefMut for System<B> {
    fn deref_mut(&mut self) -> &mut ChainSystem<B> {
        &mut self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_host::Workload;
    use hmc_types::{RequestKind, RequestSize, Time, TimeDelta};

    #[test]
    fn stream_of_reads_completes() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut()
            .apply_workload(&Workload::read_stream(8, RequestSize::MAX));
        sys.host_mut().start(Time::ZERO);
        assert!(sys.run_until_idle(TimeDelta::from_us(100)));
        let s = sys.host().stats();
        assert_eq!(s.reads_completed, 8);
        assert_eq!(s.integrity_failures, 0);
        assert!(s.read_latency.min().unwrap().as_ns_f64() > 300.0);
    }

    #[test]
    fn continuous_workload_reaches_steady_state() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut().apply_workload(&Workload::full_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
        ));
        sys.host_mut().start(Time::ZERO);
        sys.run_for(TimeDelta::from_us(200));
        let s = sys.host().stats();
        assert!(s.reads_completed > 10_000, "{}", s.reads_completed);
        // Outstanding is bounded by the tag pools.
        assert!(sys.host().outstanding() <= 9 * 64);
    }

    #[test]
    fn device_and_host_agree_on_completions() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut().apply_workload(&Workload::full_scale(
            RequestKind::ReadModifyWrite,
            RequestSize::new(64).unwrap(),
        ));
        sys.host_mut().start(Time::ZERO);
        sys.run_for(TimeDelta::from_us(100));
        sys.host_mut().stop_generation();
        assert!(sys.run_until_idle(TimeDelta::from_ms(10)), "drain stalled");
        let h = sys.host().stats();
        let d = sys.device().stats();
        assert_eq!(h.reads_completed, d.reads_completed);
        assert_eq!(h.writes_completed, d.writes_completed);
        assert!(h.writes_completed > 0, "rw produced writes");
    }

    #[test]
    fn write_only_is_drain_limited_not_stuck() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut().apply_workload(&Workload::full_scale(
            RequestKind::WriteOnly,
            RequestSize::MAX,
        ));
        sys.host_mut().start(Time::ZERO);
        sys.run_for(TimeDelta::from_us(200));
        let s = sys.host().stats();
        assert!(s.writes_completed > 5_000, "{}", s.writes_completed);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let mut sys = System::new(SystemConfig::default());
            sys.host_mut().apply_workload(&Workload::full_scale(
                RequestKind::ReadOnly,
                RequestSize::new(32).unwrap(),
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(100));
            let s = sys.host().stats();
            (s.reads_completed, s.counted_bytes)
        };
        assert_eq!(run(), run());
    }
}
