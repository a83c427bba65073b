//! An outside replica of the single-cube event pump.
//!
//! [`Replica::run_for`] repeats `System::step_events_until` call for
//! call — host TX, device, host RX, credit return — through the public
//! `Host` and `MemoryBackend` interfaces, so per-layer host time can be
//! taken around each call from the benchmark's own files. Clock reads
//! are costly next to a single call, so only a pseudo-random sixteenth
//! of the instants is timed, and the measured cost of one clock read is
//! taken off every timed call.

use std::time::Instant;

use hmc_core::hmc_host::{Host, HostConfig, LinkSink, Workload as Traffic};
use hmc_core::hmc_types::{MemoryRequest, Time, TimeDelta};
use hmc_core::mem_backend::{BackendOutput, MemoryBackend};

use crate::workloads::{digest_histogram, Digest};

/// Any backend as the host's transmit sink.
struct Sink<'a, B: MemoryBackend>(&'a mut B);

impl<B: MemoryBackend> LinkSink for Sink<'_, B> {
    fn free_slots(&self, link: usize) -> usize {
        self.0.free_slots(link)
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        self.0.submit(link, req, now)
    }
}

/// Host nanoseconds per layer, accumulated over the timed instants.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Cost of one `Instant::now()`, taken off every timed call.
    clock_ns: f64,
    /// Instants timed.
    pub sampled: u64,
    /// `Host::advance_instant` (TX pipeline, including device submits).
    pub tx_ns: f64,
    /// `MemoryBackend::advance_instant`.
    pub device_ns: f64,
    /// `Host::receive_response` over the instant's outputs.
    pub rx_ns: f64,
    /// Stall check, `free_slots` and `notify_credit`.
    pub credit_ns: f64,
}

impl Probe {
    /// A probe with the clock cost calibrated on this host.
    pub fn calibrated() -> Self {
        const N: u32 = 20_000;
        let start = Instant::now();
        let mut last = start;
        for _ in 0..N {
            last = std::hint::black_box(Instant::now());
        }
        Probe {
            clock_ns: (last - start).as_secs_f64() * 1e9 / f64::from(N),
            ..Probe::default()
        }
    }

    /// The calibrated cost of one clock read, ns.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    fn span_ns(&self, from: Instant, to: Instant) -> f64 {
        ((to - from).as_secs_f64() * 1e9 - self.clock_ns).max(0.0)
    }
}

/// True for about one instant in sixteen, spread without a period that
/// could line up with the fabric clock.
fn timed(instant: u64) -> bool {
    let mut z = instant.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 15 == 0
}

/// A host and a device driven by the benchmark's copy of the pump.
#[derive(Debug)]
pub struct Replica<B: MemoryBackend> {
    host: Host,
    device: B,
    now: Time,
    instants: u64,
    outputs: Vec<BackendOutput>,
}

impl<B: MemoryBackend> Replica<B> {
    /// Builds the pair the way `System::with_backend` does and starts it.
    pub fn start(cfg: HostConfig, device: B, traffic: Option<&Traffic>) -> Self {
        let mut host = Host::new(cfg);
        if let Some(t) = traffic {
            host.apply_workload(t);
        }
        host.start(Time::ZERO);
        Replica {
            host,
            device,
            now: Time::ZERO,
            instants: 0,
            outputs: Vec::new(),
        }
    }

    /// The host model.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Mutable host access (stat windows).
    pub fn host_mut(&mut self) -> &mut Host {
        &mut self.host
    }

    /// The device model.
    pub fn device(&self) -> &B {
        &self.device
    }

    /// Distinct event instants pumped so far.
    pub fn instants(&self) -> u64 {
        self.instants
    }

    /// The next event instant at or before `end`, if any.
    fn next_instant(&self, end: Time) -> Option<Time> {
        let t = match (self.host.next_time(), self.device.next_time()) {
            (Some(h), Some(d)) => h.min(d),
            (Some(h), None) => h,
            (None, Some(d)) => d,
            (None, None) => return None,
        };
        (t <= end).then_some(t)
    }

    /// Advances by `span`, as `System::run_for`; with a probe, times the
    /// layer calls of the sampled instants.
    pub fn run_for(&mut self, span: TimeDelta, mut probe: Option<&mut Probe>) {
        let end = self.now + span;
        while let Some(t) = self.next_instant(end) {
            match probe.as_deref_mut() {
                Some(p) if timed(self.instants) => self.instant_timed(t, p),
                _ => self.instant(t),
            }
            self.instants += 1;
        }
        self.now = self.now.max(end);
    }

    /// Advances by `span` untimed and returns the most service channels
    /// busy at a sampled instant. Kept apart from the timed passes: the
    /// channel scan costs more than a whole instant on some backends.
    pub fn run_for_peak_channels(&mut self, span: TimeDelta) -> usize {
        let end = self.now + span;
        let mut peak = 0;
        while let Some(t) = self.next_instant(end) {
            self.instant(t);
            if timed(self.instants) {
                peak = peak.max(self.device.channels_in_flight(t));
            }
            self.instants += 1;
        }
        self.now = self.now.max(end);
        peak
    }

    fn instant(&mut self, t: Time) {
        self.host.advance_instant(t, &mut Sink(&mut self.device));
        self.outputs.clear();
        self.device.advance_instant(t, &mut self.outputs);
        for o in &self.outputs {
            self.host.receive_response(o.resp, o.at);
        }
        self.return_credits(t);
    }

    fn instant_timed(&mut self, t: Time, p: &mut Probe) {
        let c0 = Instant::now();
        self.host.advance_instant(t, &mut Sink(&mut self.device));
        let c1 = Instant::now();
        self.outputs.clear();
        self.device.advance_instant(t, &mut self.outputs);
        let c2 = Instant::now();
        for o in &self.outputs {
            self.host.receive_response(o.resp, o.at);
        }
        let c3 = Instant::now();
        self.return_credits(t);
        let c4 = Instant::now();
        p.sampled += 1;
        p.tx_ns += p.span_ns(c0, c1);
        p.device_ns += p.span_ns(c1, c2);
        p.rx_ns += p.span_ns(c2, c3);
        p.credit_ns += p.span_ns(c3, c4);
    }

    fn return_credits(&mut self, t: Time) {
        if self.host.any_node_stalled() {
            for l in 0..self.device.num_links() {
                let free = self.device.free_slots(l);
                if free > 0 {
                    self.host.notify_credit(l, free, t);
                }
            }
        }
    }
}

/// Digest of everything a run leaves in a host and its device: event
/// counts, completions, latency-histogram bits and open-loop ledgers.
/// Equal digests mean the replica and `System` took the same path.
pub fn state_digest<B: MemoryBackend>(host: &Host, device: &B) -> u64 {
    let mut d = Digest::default();
    let s = host.stats();
    for v in [
        host.events_processed(),
        device.events_processed(),
        host.total_issued(),
        host.outstanding(),
        s.reads_completed,
        s.writes_completed,
        s.counted_bytes,
        device.core_stats().completed(),
    ] {
        d.push(v);
    }
    digest_histogram(&mut d, &s.read_latency);
    for t in host.open_stats() {
        d.push(t.offered);
        d.push(t.admitted);
        d.push(t.completed);
        digest_histogram(&mut d, &t.latency);
    }
    d.0
}
