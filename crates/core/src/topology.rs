//! Chain/star topologies: N sharded hosts driving N cubes whose far-side
//! links forward non-local traffic hop by hop. With N = 1 this is the
//! paper's single cube, which [`crate::System`] views without a cube
//! index.
//!
//! The HMC 1.1 specification allows a cube's links to connect to *another
//! cube* instead of a host; the companion NoC study (Hadidi et al., 2017)
//! shows the interconnect, not the DRAM, bounds performance once traffic
//! crosses device boundaries. This module reproduces that regime:
//!
//! * a [`Topology`] describes 1..8 cubes in a daisy [`Arrangement::Chain`]
//!   or a hub-and-spoke [`Arrangement::Star`];
//! * every cube keeps its full device model; each also gets its own
//!   sharded host whose generators split a *global*
//!   address space with a [`hmc_types::ChainShard`] (cube-first or
//!   vault-first interleave);
//! * adjacent cubes are joined by pass-through [`hmc_mem::link::DeviceLink`]
//!   serializers, so a forwarded packet pays the full SerDes serialization
//!   plus retry-protocol cost **again on every hop** — the modeled
//!   remote-access adder is `transfer_time(request) +
//!   transfer_time(response)` per hop;
//! * tracing, metrics, the sanitizer's credit/conservation ledgers, and
//!   fault scenarios all remain per-cube, and a fleet-wide forward-progress
//!   watchdog spans the whole chain.
//!
//! # Conservative parallel execution
//!
//! The chain is organized as one `CubeShard` per cube: host, device,
//! hop-link serializers, and metrics sampler bundled behind a private
//! event pump that touches no other cube's state. Cross-cube traffic —
//! request arrivals, response arrivals, and flow-control credits — moves
//! as timestamped [`sim_engine::pdes::Envelope`]s whose delivery times
//! carry at least the per-edge SerDes floor (one 16-byte flit through a
//! pass-through link). That floor is the conservative *lookahead*: shards
//! advance in lockstep epoch windows no wider than the minimum lookahead,
//! exchanging envelopes only at epoch boundaries through per-shard
//! [`sim_engine::pdes::Mailbox`]es drained in total `(at, edge, dir, seq)`
//! order. Because every shard consumes its events and messages in a
//! fixed total order that is independent of *where* each epoch executes,
//! running the shards on [`SystemBuilder::parallel_shards`] worker
//! threads is bit-identical to running them sequentially — at every cube
//! count and every worker count. See DESIGN.md §10 for the protocol.
//!
//! A single cube has no edges and no epochs: it runs its own pump, one
//! host→device→credits→sampler pass per instant, with the shard the
//! identity function and every per-cube seed salt the identity for cube
//! 0. Every single-cube figure of the paper runs through that pump.
//!
//! # Thermal shutdown and live recovery
//!
//! Installed [`FaultScenario`]s flow through the chain: device-level
//! faults become device events at install time, while thermal spikes act
//! as time barriers in [`ChainSystem::step_until`] — the system advances
//! exactly to the spike, evaluates the [`FailurePolicy`] against the
//! cube's write history, and on shutdown executes the timed
//! [`RecoveryStep`] sequence (that cube's DRAM lost, its host's in-flight
//! window replayed), recorded as a [`RecoveryRecord`].
//!
//! [`SystemBuilder::parallel_shards`]: crate::SystemBuilder::parallel_shards

use std::collections::VecDeque;
use std::fmt;

use hmc_host::{Host, HostStats, LinkSink, Workload};
use hmc_mem::link::{DeviceLink, OutPacket, Transfer};
use hmc_mem::{DeviceOutput, HmcDevice};
use hmc_thermal::{FailurePolicy, RecoveryStep, ThermalEvent};
use hmc_types::packet::{OpKind, TransactionSizes, FLIT_BYTES};
use hmc_types::trace::Stage;
use hmc_types::{
    ChainShard, CubeInterleave, MemoryRequest, MemoryResponse, RequestSize, Time, TimeDelta,
};
use mem_backend::MemoryBackend;
use sim_engine::pdes::{
    Envelope, EpochProfiler, EpochSample, EpochShard, LookaheadTable, Mailbox, MsgKey,
    PoolUtilization, ShardPool,
};
use sim_engine::{
    FaultKind, FaultScenario, MetricsSampler, SanitizerReport, Tracer, ViolationClass,
};

use crate::system::SystemConfig;

/// Shift giving every sharded host a disjoint request-id range; the high
/// bits double as the stateless origin-cube routing tag for responses.
const ORIGIN_SHIFT: u32 = 48;

/// How the cubes of a multi-cube topology are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arrangement {
    /// Daisy chain: cube `k` connects to cubes `k-1` and `k+1`. Remote
    /// traffic between cubes `s` and `d` crosses `|s - d|` hops.
    #[default]
    Chain,
    /// Star: cube 0 is the hub; every other cube hangs off it. Remote
    /// traffic crosses one hop (to or from the hub) or two (spoke to
    /// spoke).
    Star,
}

impl fmt::Display for Arrangement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arrangement::Chain => write!(f, "chain"),
            Arrangement::Star => write!(f, "star"),
        }
    }
}

/// A multi-cube topology description: cube count, wiring, and the address
/// interleave the sharded hosts use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    cubes: u8,
    arrangement: Arrangement,
    interleave: CubeInterleave,
}

impl Topology {
    /// A single cube — the topology [`crate::System`] is built on.
    pub fn single() -> Self {
        Topology::chain(1)
    }

    /// A daisy chain of `cubes` cubes with the default cube-first
    /// interleave.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cubes <= 8` (the CUB field width).
    pub fn chain(cubes: u8) -> Self {
        // Delegate the range check to the shard constructor.
        let _ = ChainShard::new(cubes, CubeInterleave::CubeFirst);
        Topology {
            cubes,
            arrangement: Arrangement::Chain,
            interleave: CubeInterleave::CubeFirst,
        }
    }

    /// A star of `cubes` cubes (cube 0 is the hub).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cubes <= 8`.
    pub fn star(cubes: u8) -> Self {
        let _ = ChainShard::new(cubes, CubeInterleave::CubeFirst);
        Topology {
            cubes,
            arrangement: Arrangement::Star,
            interleave: CubeInterleave::CubeFirst,
        }
    }

    /// Replaces the address interleave (cube-first by default).
    pub fn with_interleave(mut self, interleave: CubeInterleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// Number of cubes.
    pub fn cubes(&self) -> u8 {
        self.cubes
    }

    /// The wiring arrangement.
    pub fn arrangement(&self) -> Arrangement {
        self.arrangement
    }

    /// The configured interleave.
    pub fn interleave(&self) -> CubeInterleave {
        self.interleave
    }

    /// The shard function the hosts split global addresses with.
    pub fn shard(&self) -> ChainShard {
        ChainShard::new(self.cubes, self.interleave)
    }

    /// Number of cube-to-cube edges (`cubes - 1` for both arrangements).
    pub fn edge_count(&self) -> usize {
        self.cubes as usize - 1
    }

    /// Hop count between two cubes.
    pub fn hops(&self, from: u8, to: u8) -> u32 {
        match self.arrangement {
            Arrangement::Chain => u32::from(from.abs_diff(to)),
            Arrangement::Star => match (from, to) {
                (a, b) if a == b => 0,
                (0, _) | (_, 0) => 1,
                _ => 2,
            },
        }
    }

    /// The adjacent cube a packet at `at` moves to next on its way to
    /// `toward` (`at != toward`).
    fn next_shard(&self, at: usize, toward: usize) -> usize {
        debug_assert_ne!(at, toward);
        match self.arrangement {
            Arrangement::Chain => {
                if toward > at {
                    at + 1
                } else {
                    at - 1
                }
            }
            Arrangement::Star => {
                if at == 0 {
                    toward
                } else {
                    0
                }
            }
        }
    }

    /// The edge joining adjacent cubes `a` and `b`, and whether travelling
    /// `a -> b` goes in the edge's lo→hi ("up") direction.
    fn hop_between(&self, a: usize, b: usize) -> (usize, bool) {
        let e = match self.arrangement {
            Arrangement::Chain => a.min(b),
            Arrangement::Star => a.max(b) - 1,
        };
        (e, a < b)
    }

    /// Adjacent cubes of `s`, ascending.
    fn neighbors(&self, s: usize) -> Vec<usize> {
        let n = self.cubes as usize;
        match self.arrangement {
            Arrangement::Chain => {
                let mut v = Vec::new();
                if s > 0 {
                    v.push(s - 1);
                }
                if s + 1 < n {
                    v.push(s + 1);
                }
                v
            }
            Arrangement::Star => {
                if s == 0 {
                    (1..n).collect()
                } else {
                    vec![0]
                }
            }
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} ({})",
            self.arrangement, self.cubes, self.interleave
        )
    }
}

/// The origin cube a request id encodes (the issuing host's shard).
fn origin_of(id: u64) -> usize {
    (id >> ORIGIN_SHIFT) as usize
}

/// Rebuilds the response record an [`OutPacket`] carries, stamped at `now`
/// (the host's RX path overwrites `completed_at` on delivery).
fn response_from(pkt: &OutPacket, now: Time) -> MemoryResponse {
    MemoryResponse {
        id: pkt.req.id,
        port: pkt.req.port,
        tag: pkt.req.tag,
        op: pkt.req.op,
        size: pkt.req.size,
        cube: pkt.req.cube,
        addr: pkt.req.addr,
        issued_at: pkt.req.issued_at,
        completed_at: now,
        data_token: pkt.token,
        tenant: pkt.req.tenant,
    }
}

/// Repacks a device response for another hop of egress forwarding.
fn repack(resp: &MemoryResponse) -> OutPacket {
    OutPacket {
        req: MemoryRequest {
            id: resp.id,
            port: resp.port,
            tag: resp.tag,
            op: resp.op,
            size: resp.size,
            cube: resp.cube,
            addr: resp.addr,
            issued_at: resp.issued_at,
            data_token: 0,
            tenant: resp.tenant,
        },
        token: resp.data_token,
    }
}

/// A cross-shard hop-link message. Delivery times always carry at least
/// the per-edge lookahead, which is what lets shards advance a whole
/// epoch without hearing from their neighbours.
#[derive(Debug, Clone)]
enum HopMsg {
    /// A request finished its hop serialization and arrives on sub-link
    /// `l` of the destination's port for the edge in the key.
    Req { l: usize, req: MemoryRequest },
    /// A response finished its hop and arrives on sub-link `l`.
    Resp { l: usize, pkt: OutPacket },
    /// Flow-control credit: the receiver handed one of our requests
    /// downstream, freeing a slot on sub-link `l`.
    Credit { l: usize },
}

/// The request-transmit half of one hop sub-link, owned by the sending
/// shard: a full [`DeviceLink`] (so forwarded packets pay the same SerDes
/// serialization and CRC/retry costs as host traffic — its ingress queue
/// is the hop's admission window) plus credit-based flow control toward
/// the receiver's bounded arrival queue.
#[derive(Debug)]
struct ReqTx {
    link: DeviceLink,
    /// Completion instant of the transfer occupying the serializer.
    busy_until: Time,
    /// Remaining receive-queue slots at the far end.
    credits: usize,
}

impl ReqTx {
    /// Starts the next queued transfer at `now` if the serializer is free
    /// and the receiver has room, resolving the whole CRC/retry exchange
    /// eagerly: the returned instant is the final delivery time (each
    /// retry adds the penalty plus a reserialization, exactly as the
    /// incremental model would), so the arrival can ship as one message.
    fn try_start(&mut self, now: Time) -> Option<(Time, MemoryRequest)> {
        if self.credits == 0 || self.busy_until > now {
            return None;
        }
        let mut done = self.link.start_ingress(now)?;
        let req = loop {
            match self.link.complete_ingress(done) {
                Transfer::Retry { next_done, .. } => done = next_done,
                Transfer::Delivered { payload, .. } => {
                    self.link.finish_ingress();
                    break payload;
                }
            }
        };
        self.credits -= 1;
        self.busy_until = done;
        Some((done, req))
    }
}

/// The response-transmit half of one hop sub-link, owned by the shard
/// that forwards responses across the edge. Responses are never
/// backpressured (matching the unbounded egress path of the host-facing
/// wires), so there is no credit state.
#[derive(Debug)]
struct RespTx {
    link: DeviceLink,
    busy_until: Time,
}

impl RespTx {
    /// Starts the next queued response transfer at `now` if the
    /// serializer is free, resolving retries eagerly as
    /// [`ReqTx::try_start`] does.
    fn try_start(&mut self, now: Time) -> Option<(Time, OutPacket)> {
        if self.busy_until > now {
            return None;
        }
        let mut done = self.link.start_egress(now)?;
        let pkt = loop {
            match self.link.complete_egress(done) {
                Transfer::Retry { next_done, .. } => done = next_done,
                Transfer::Delivered { payload, .. } => {
                    self.link.finish_egress();
                    break payload;
                }
            }
        };
        self.busy_until = done;
        Some((done, pkt))
    }
}

/// One shard's endpoint of one cube-to-cube edge: transmit serializers
/// toward the peer and arrival queues from it, one of each per external
/// sub-link.
#[derive(Debug)]
struct Port {
    /// Global edge index (the mailbox ordering key's second field).
    edge: usize,
    /// Direction this shard sends in on the edge (0 = lo→hi).
    dir: u8,
    /// The adjacent shard.
    peer: usize,
    /// Minimum message latency across this edge (the credit delay).
    lookahead: TimeDelta,
    /// Next sequence number for messages sent on `(edge, dir)`.
    seq: u64,
    req_tx: Vec<ReqTx>,
    resp_tx: Vec<RespTx>,
    /// Arrived requests per sub-link; the head parks when the next stage
    /// is full (head-of-line blocking, as a wire cannot reorder).
    req_rx: Vec<VecDeque<(Time, MemoryRequest)>>,
    /// Arrived responses per sub-link; never backpressured.
    resp_rx: Vec<VecDeque<(Time, OutPacket)>>,
}

/// Emits a message through `port`, stamping the next `(edge, dir, seq)`
/// ordering key. Free function so callers can borrow the port and the
/// outbox from the same shard simultaneously.
fn send_via(port: &mut Port, outbox: &mut Vec<Envelope<HopMsg>>, at: Time, msg: HopMsg) {
    let key = MsgKey {
        at,
        edge: u32::try_from(port.edge).expect("at most 7 edges in an 8-cube topology"),
        dir: port.dir,
        seq: port.seq,
    };
    port.seq += 1;
    outbox.push(Envelope {
        to: port.peer,
        key,
        msg,
    });
}

/// A shard's hop agenda: which of its sub-links have work, and from
/// when, kept in step with port state so that neither the per-instant
/// sweep nor [`CubeShard::next_time`] has to rescan the ports. Sub-link
/// `j = pi * links + l` is sub-link `l` of port `pi`.
///
/// Invariant: after every mutation of a sub-link's port state (mailbox
/// delivery, host submission, device-output routing, request or response
/// forwarding, each sweep step) its entries are recomputed from that
/// state by [`HopAgenda::refresh`]. The agenda is therefore never a
/// prediction, only a summary, and a sub-link it reports idle would make
/// no progress if visited.
#[derive(Debug)]
struct HopAgenda {
    links: usize,
    /// Bit `j` is set while sub-link `j` has queued arrivals (requests,
    /// possibly parked head-of-line, or responses).
    rx: u64,
    /// `ready[2j]` and `ready[2j + 1]`: the earliest instant sub-link
    /// `j`'s request and response serializer can start a transfer —
    /// `busy_until` while it has backlog (and, for requests, credit),
    /// else [`Time::MAX`].
    ready: Vec<Time>,
}

impl HopAgenda {
    fn new(ports: usize, links: usize) -> Self {
        assert!(ports * links <= 64, "rx bitmask holds at most 64 sub-links");
        HopAgenda {
            links,
            rx: 0,
            ready: vec![Time::MAX; 2 * ports * links],
        }
    }

    /// Recomputes sub-link `l` of port `pi` from `port`'s state.
    fn refresh(&mut self, port: &Port, pi: usize, l: usize) {
        let j = pi * self.links + l;
        let tx = &port.req_tx[l];
        self.ready[2 * j] = if tx.credits > 0 && tx.link.ingress_backlog() > 0 {
            tx.busy_until
        } else {
            Time::MAX
        };
        let rtx = &port.resp_tx[l];
        self.ready[2 * j + 1] = if rtx.link.egress_backlog() > 0 {
            rtx.busy_until
        } else {
            Time::MAX
        };
        if port.req_rx[l].is_empty() && port.resp_rx[l].is_empty() {
            self.rx &= !(1 << j);
        } else {
            self.rx |= 1 << j;
        }
    }

    /// The earliest pending serializer start, if any.
    fn next_start(&self) -> Option<Time> {
        self.ready.iter().copied().min().filter(|&t| t < Time::MAX)
    }

    /// The first sub-link at or after `from` with work due at `t`: queued
    /// arrivals, or a serializer that can start by `t`.
    fn next_due(&self, from: usize, t: Time) -> Option<usize> {
        (from..self.ready.len() / 2)
            .find(|&j| self.rx & (1 << j) != 0 || self.ready[2 * j].min(self.ready[2 * j + 1]) <= t)
    }
}

/// The transmit sink one sharded host sees: local requests go straight to
/// the home cube's device; remote requests enter the request serializer
/// toward their target. Host flow control sees the *tightest* window
/// along the local fan-out (device ingress and every adjacent outgoing
/// hop queue), which is conservative but never over-commits a queue.
struct ShardSink<'a, B: MemoryBackend> {
    shard: usize,
    topo: &'a Topology,
    device: &'a mut B,
    ports: &'a mut [Port],
    agenda: &'a mut HopAgenda,
    outbox: &'a mut Vec<Envelope<HopMsg>>,
    hop_tracer: &'a mut Tracer,
}

impl<B: MemoryBackend> LinkSink for ShardSink<'_, B> {
    fn free_slots(&self, link: usize) -> usize {
        let mut free = self.device.free_slots(link);
        for p in self.ports.iter() {
            free = free.min(p.req_tx[link].link.ingress_free());
        }
        free
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        let dst = req.cube.index() as usize;
        if dst == self.shard {
            return self.device.submit(link, req, now);
        }
        let id = req.id.value();
        let next = self.topo.next_shard(self.shard, dst);
        let pi = self
            .ports
            .iter()
            .position(|p| p.peer == next)
            .expect("route leads to an adjacent port");
        let port = &mut self.ports[pi];
        port.req_tx[link].link.enqueue_ingress(req, now)?;
        // The host's LinkTx span ended at `now`; the hop stage owns the
        // request from here until its serialized arrival at the peer.
        self.hop_tracer.begin(id, now);
        if let Some((done, r)) = port.req_tx[link].try_start(now) {
            self.hop_tracer
                .finish(r.id.value(), Stage::HopLink.index(), done);
            send_via(port, self.outbox, done, HopMsg::Req { l: link, req: r });
        }
        self.agenda.refresh(port, pi, link);
        Ok(())
    }
}

/// One cube of the chain, self-contained for epoch execution: its host,
/// device, metrics sampler, and every hop-link endpoint it drives. The
/// pump consumes local events and mailbox messages in one deterministic
/// total order, so the shard computes the same states no matter which
/// thread (or how many) runs its epochs.
#[derive(Debug)]
struct CubeShard<B: MemoryBackend = HmcDevice> {
    idx: usize,
    topo: Topology,
    links: usize,
    host: Host,
    device: B,
    sampler: Option<MetricsSampler>,
    ports: Vec<Port>,
    /// Which sub-links of `ports` have work, and from when.
    agenda: HopAgenda,
    inbox: Mailbox<HopMsg>,
    outbox: Vec<Envelope<HopMsg>>,
    /// Local clock: the last instant this shard pumped.
    local_now: Time,
    /// Scratch buffer for device outputs.
    outputs: Vec<DeviceOutput>,
    /// Lifecycle tracer for hop-link traversal (the chain-only
    /// [`Stage::HopLink`] spans): opened when a packet enters a hop
    /// serializer or arrives over an edge, closed when it leaves for the
    /// next shard or reaches its next local stage. Disabled by default,
    /// like the host and device tracers.
    hop_tracer: Tracer,
    /// Total head-of-line parking time: arrival→delivery gaps of
    /// requests that waited at this shard because their next stage was
    /// full. Plain accounting — never feeds back into simulation state.
    hol_parked: TimeDelta,
}

impl<B: MemoryBackend> CubeShard<B> {
    /// Index of the port facing adjacent shard `peer`.
    fn port_toward(&self, peer: usize) -> usize {
        self.ports
            .iter()
            .position(|p| p.peer == peer)
            .expect("route leads to an adjacent port")
    }

    /// Earliest instant at which this shard has work: a host or device
    /// event, an undelivered mailbox message, a pending transmit start
    /// (from the hop agenda), or a metrics sample. Parked request heads
    /// are deliberately excluded — they retry when the event that frees
    /// their next stage fires. Used only on the multi-cube path (the
    /// single-cube pump looks at the host and device alone).
    fn next_time(&self) -> Option<Time> {
        [
            self.host.next_time(),
            self.device.next_time(),
            self.inbox.peek_at(),
            self.sampler.as_ref().and_then(|s| s.due_before(Time::MAX)),
            self.agenda.next_start(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Processes one instant `t` of this shard's timeline: mailbox
    /// deliveries, host events, device events, hop-link progress, stall
    /// credits, and metrics samples — the same order per instant as the
    /// serial chain pump always used. Only components with work due at
    /// `t` are stepped; the others see only the bookkeeping their step
    /// would have done at a quiet instant.
    fn pump_instant(&mut self, t: Time) {
        // 1. Cross-shard messages due by now, in total (at, edge, dir,
        //    seq) order. Credits open transmit windows; arrivals queue on
        //    their port and move downstream in step 4.
        while let Some((key, msg)) = self.inbox.pop_before(t) {
            let pi = self
                .ports
                .iter()
                .position(|p| p.edge == key.edge as usize)
                .expect("message addressed to an owned edge");
            let port = &mut self.ports[pi];
            let l = match msg {
                HopMsg::Req { l, req } => {
                    // The hop stage keeps owning the request while it
                    // waits (possibly parked) for its next local stage.
                    self.hop_tracer.begin(req.id.value(), key.at);
                    port.req_rx[l].push_back((key.at, req));
                    l
                }
                HopMsg::Resp { l, pkt } => {
                    port.resp_rx[l].push_back((key.at, pkt));
                    l
                }
                HopMsg::Credit { l } => {
                    port.req_tx[l].credits += 1;
                    l
                }
            };
            self.agenda.refresh(port, pi, l);
        }
        // 2. Host first: its submissions at instants <= t reach a device
        //    (or hop serializer) whose clock has not passed t yet.
        if self.host.next_time() == Some(t) {
            let CubeShard {
                idx,
                topo,
                host,
                device,
                ports,
                agenda,
                outbox,
                hop_tracer,
                ..
            } = self;
            let mut sink = ShardSink {
                shard: *idx,
                topo,
                device,
                ports,
                agenda,
                outbox,
                hop_tracer,
            };
            host.advance_instant(t, &mut sink);
        } else {
            self.host.skip_instant(t);
        }
        // 3. Device events (including any the host step just scheduled
        //    at `t`); responses route to the local host or back into the
        //    chain toward their origin cube.
        if self.device.next_time() == Some(t) {
            let mut outputs = std::mem::take(&mut self.outputs);
            outputs.clear();
            self.device.advance_instant(t, &mut outputs);
            for o in &outputs {
                self.route_device_output(o);
            }
            self.outputs = outputs;
        } else {
            self.device.skip_instant(t);
        }
        // 4. Hop progress: visit the sub-links the agenda reports due, in
        //    port-then-link order, until a full sweep makes no progress,
        //    so same-instant head-of-line unblocking is observed
        //    deterministically in port order. A sub-link the agenda
        //    skips has nothing queued and no serializer able to start.
        let mut progress = true;
        while progress {
            progress = false;
            let mut from = 0;
            while let Some(j) = self.agenda.next_due(from, t) {
                progress |= self.step_sub_link(j / self.links, j % self.links, t);
                from = j + 1;
            }
        }
        // 5. Wake a stalled host if any fan-out window opened.
        if self.host.any_node_stalled() {
            for l in 0..self.links {
                let mut free = self.device.free_slots(l);
                for p in &self.ports {
                    free = free.min(p.req_tx[l].link.ingress_free());
                }
                if free > 0 {
                    self.host.notify_credit(l, free, t);
                }
            }
        }
        // 6. Metrics samples due by this instant. Hop gauges ride the
        //    same per-cube sampler as the host and device gauges.
        if let Some(mut smp) = self.sampler.take() {
            while let Some(due) = smp.due_before(t) {
                self.host.sample_metrics(due, &mut smp);
                self.device.sample_metrics(due, &mut smp);
                self.sample_hop_metrics(due, &mut smp);
                smp.advance();
            }
            self.sampler = Some(smp);
        }
        self.local_now = self.local_now.max(t);
    }

    /// One sweep step of sub-link `l` of port `pi` at `t`: delivers its
    /// arrivals and restarts its serializers. Returns whether anything
    /// moved.
    fn step_sub_link(&mut self, pi: usize, l: usize, t: Time) -> bool {
        let mut progress = false;
        // Arrived requests: hand each to the device or the next hop; the
        // head parks on downstream-full and the sender's credit returns
        // one lookahead later.
        while let Some(&(at, req)) = self.ports[pi].req_rx[l].front() {
            if self.try_deliver_request(l, req, t).is_err() {
                break;
            }
            self.hol_parked += t.since(at);
            self.ports[pi].req_rx[l].pop_front();
            let la = self.ports[pi].lookahead;
            send_via(
                &mut self.ports[pi],
                &mut self.outbox,
                t + la,
                HopMsg::Credit { l },
            );
            progress = true;
        }
        // Arrived responses: deliver to the local host or re-serialize
        // toward the origin. Never blocks.
        while let Some((at, pkt)) = self.ports[pi].resp_rx[l].pop_front() {
            self.deliver_response(l, pkt, at);
            progress = true;
        }
        // Restart any serializer freed this instant.
        let port = &mut self.ports[pi];
        if let Some((done, r)) = port.req_tx[l].try_start(t) {
            self.hop_tracer
                .finish(r.id.value(), Stage::HopLink.index(), done);
            send_via(port, &mut self.outbox, done, HopMsg::Req { l, req: r });
            progress = true;
        }
        if let Some((done, p)) = port.resp_tx[l].try_start(t) {
            self.hop_tracer
                .finish(p.req.id.value(), Stage::HopLink.index(), done);
            send_via(port, &mut self.outbox, done, HopMsg::Resp { l, pkt: p });
            progress = true;
        }
        self.agenda.refresh(port, pi, l);
        progress
    }

    /// Records the chain-level gauges of this shard: per-edge hop-link
    /// occupancy (transmit backlog, arrival queue, remaining credit
    /// window) plus the cross-shard mailbox depth. Read-only over the
    /// port state, so an armed sampler stays bit-inert.
    fn sample_hop_metrics(&self, due: Time, smp: &mut MetricsSampler) {
        for p in &self.ports {
            let mut tx = 0usize;
            let mut rx = 0usize;
            let mut credits = 0usize;
            for l in 0..self.links {
                tx += p.req_tx[l].link.ingress_backlog() + p.resp_tx[l].link.egress_backlog();
                rx += p.req_rx[l].len() + p.resp_rx[l].len();
                credits += p.req_tx[l].credits;
            }
            let e = p.edge;
            smp.record(&format!("hop.edge{e}.tx_backlog"), due, tx as f64);
            smp.record(&format!("hop.edge{e}.rx_queued"), due, rx as f64);
            smp.record(&format!("hop.edge{e}.credits"), due, credits as f64);
        }
        smp.record("chain.mailbox", due, self.inbox.len() as f64);
    }

    /// Routes one device output: responses to locally-issued requests go
    /// to the local host (exactly the single-system path); responses to
    /// forwarded requests re-enter the chain toward their origin cube,
    /// paying another serialization per hop.
    fn route_device_output(&mut self, o: &DeviceOutput) {
        let owner = origin_of(o.resp.id.value());
        if owner == self.idx || owner >= self.topo.cubes() as usize || o.link >= self.links {
            // Local traffic — and PIM returns, whose pseudo-link is out of
            // range — deliver straight to the local host.
            self.host.receive_response(o.resp, o.at);
            return;
        }
        let next = self.topo.next_shard(self.idx, owner);
        let pi = self.port_toward(next);
        // The device tracer's LinkEgress span ended at `o.at`; the hop
        // stage owns the response from here until its wire arrival.
        self.hop_tracer.begin(o.resp.id.value(), o.at);
        let port = &mut self.ports[pi];
        port.resp_tx[o.link].link.push_egress(repack(&o.resp));
        if let Some((done, pkt)) = port.resp_tx[o.link].try_start(o.at) {
            self.hop_tracer
                .finish(pkt.req.id.value(), Stage::HopLink.index(), done);
            send_via(
                port,
                &mut self.outbox,
                done,
                HopMsg::Resp { l: o.link, pkt },
            );
        }
        self.agenda.refresh(port, pi, o.link);
    }

    /// Attempts to move an arrived request into its next stage (the local
    /// device, or the next hop toward its cube). `Err` means
    /// downstream-full: the caller leaves it parked head-of-line.
    fn try_deliver_request(&mut self, l: usize, req: MemoryRequest, now: Time) -> Result<(), ()> {
        let dst = req.cube.index() as usize;
        if dst == self.idx {
            self.device.submit(l, req, now).map_err(|_| ())?;
            // Close the hop span opened at wire arrival: it covered the
            // head-of-line wait; the device tracer takes over at `now`.
            self.hop_tracer
                .finish(req.id.value(), Stage::HopLink.index(), now);
            return Ok(());
        }
        let next = self.topo.next_shard(self.idx, dst);
        let pi = self.port_toward(next);
        let port = &mut self.ports[pi];
        port.req_tx[l]
            .link
            .enqueue_ingress(req, now)
            .map_err(|_| ())?;
        if let Some((done, r)) = port.req_tx[l].try_start(now) {
            self.hop_tracer
                .finish(r.id.value(), Stage::HopLink.index(), done);
            send_via(port, &mut self.outbox, done, HopMsg::Req { l, req: r });
        }
        self.agenda.refresh(port, pi, l);
        Ok(())
    }

    /// Delivers an arrived response: at its origin cube it reaches the
    /// host (stamped with its wire arrival instant); otherwise it
    /// re-enters the next hop's response serializer.
    fn deliver_response(&mut self, l: usize, pkt: OutPacket, at: Time) {
        let owner = origin_of(pkt.req.id.value());
        if owner == self.idx || owner >= self.topo.cubes() as usize {
            // `at` is the previous hop's serialized arrival instant, so
            // the host's RX rebase leaves no unattributed gap.
            self.host.receive_response(response_from(&pkt, at), at);
            return;
        }
        let next = self.topo.next_shard(self.idx, owner);
        let pi = self.port_toward(next);
        // Pass-through forward: the hop stage owns the response from its
        // arrival here until it finishes the next serialization.
        self.hop_tracer.begin(pkt.req.id.value(), at);
        let port = &mut self.ports[pi];
        port.resp_tx[l].link.push_egress(pkt);
        if let Some((done, p)) = port.resp_tx[l].try_start(at) {
            self.hop_tracer
                .finish(p.req.id.value(), Stage::HopLink.index(), done);
            send_via(port, &mut self.outbox, done, HopMsg::Resp { l, pkt: p });
        }
        self.agenda.refresh(port, pi, l);
    }
}

impl<B: MemoryBackend> EpochShard for CubeShard<B> {
    /// Pumps every instant strictly before `end` — the epoch window is
    /// half-open, so a message timestamped exactly `end` lands in the
    /// next epoch on every shard alike.
    fn pump_epoch(&mut self, end: Time) {
        while let Some(t) = self.next_time() {
            if t >= end {
                break;
            }
            self.pump_instant(t);
        }
    }
}

/// One thermal shutdown and its timed recovery, as executed live.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// The cube that shut down.
    pub cube: usize,
    /// Instant the spike crossed the policy limit and the device halted.
    pub shutdown_at: Time,
    /// The offending surface temperature, °C.
    pub surface_c: f64,
    /// The recovery sequence with the duration charged per step.
    pub steps: Vec<(RecoveryStep, TimeDelta)>,
    /// Instant the device accepted traffic again.
    pub resume_at: Time,
    /// In-flight requests the host replayed from `resume_at`.
    pub replayed: usize,
}

impl RecoveryRecord {
    /// Total dead time of the cycle.
    pub fn outage(&self) -> TimeDelta {
        self.resume_at.since(self.shutdown_at)
    }
}

/// Forward-progress watchdog state: outstanding requests with no
/// retirement for [`Watchdog::span`] of simulated time means the system
/// wedged (deadlock or livelock) and a diagnostic dump is recorded.
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    /// Simulated time without a retirement before the watchdog trips.
    span: TimeDelta,
    /// Fleet-wide completion count at the last observed progress.
    last_completed: u64,
    /// Instant of the last observed progress.
    last_progress: Time,
    /// Set once tripped so the report carries one dump, not thousands.
    tripped: bool,
}

/// A chained (or starred) system of 1..8 cubes: N sharded hosts, N cubes,
/// pass-through links between adjacent cubes. One cube runs the
/// single-cube pump; more advance as conservative-PDES shards (see the
/// module docs) either serially or on a worker pool — bit-identically.
///
/// ```
/// use hmc_core::topology::{ChainSystem, Topology};
/// use hmc_core::SystemConfig;
/// use hmc_host::Workload;
/// use hmc_types::{RequestSize, Time, TimeDelta};
///
/// let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(2));
/// sys.apply_workload(&Workload::read_stream(4, RequestSize::new(64)?));
/// sys.start(Time::ZERO);
/// assert!(sys.run_until_idle(TimeDelta::from_ms(1)));
/// assert_eq!(sys.host_stats().reads_completed, 2 * 4);
/// # Ok::<(), hmc_types::HmcError>(())
/// ```
#[derive(Debug)]
pub struct ChainSystem<B: MemoryBackend = HmcDevice> {
    cfg: SystemConfig,
    topo: Topology,
    shards: Vec<CubeShard<B>>,
    /// Per-edge conservative lookahead (`None` for a single cube, which
    /// has no edges and no epochs).
    lookahead: Option<LookaheadTable>,
    /// Requested epoch worker count (1 = pump shards sequentially).
    workers: usize,
    /// Lazily-spawned persistent worker pool (only when `workers > 1` and
    /// the topology is multi-cube).
    pool: Option<ShardPool<CubeShard<B>>>,
    now: Time,
    watchdog: Option<Watchdog>,
    /// Pending thermal spikes `(at, °C, cube)`, sorted ascending.
    thermal_spikes: Vec<(Time, f64, usize)>,
    policy: FailurePolicy,
    recoveries: Vec<RecoveryRecord>,
    /// Deterministic per-shard epoch profiler (armed on demand; the
    /// coordinator feeds it after every epoch barrier).
    profiler: Option<EpochProfiler>,
    /// Per-shard `(events, parked)` totals at the last recorded epoch,
    /// so the profiler sees per-epoch deltas.
    prof_prev: Vec<(u64, TimeDelta)>,
    /// Envelopes delivered to each shard at the last exchange.
    recv_counts: Vec<u64>,
}

impl ChainSystem {
    /// Builds an idle system of HMC cubes. Each cube `s` gets:
    ///
    /// * a host sharded over the whole topology, with request-id base
    ///   `s << 48` (ids double as stateless response-routing tags), and a
    ///   per-cube generator-seed salt folded into the configured
    ///   `rng_salt` (the fold is the identity for cube 0, so a
    ///   single-cube topology draws the configured streams);
    /// * a device whose link-fault seeds are salted per cube (base seed
    ///   unchanged for cube 0);
    /// * pass-through hop serializers toward its neighbors, one per
    ///   external sub-link per direction, with credit windows sized to
    ///   the link layer's retry-buffer depth.
    ///
    /// The per-edge lookahead table is fixed here: one 16-byte flit
    /// through a pass-through link (serialization at wire efficiency plus
    /// the packet and per-flit overheads) is the smallest latency any
    /// cross-shard message can carry, and therefore the conservative
    /// epoch bound.
    pub fn new(cfg: SystemConfig, topo: Topology) -> Self {
        ChainSystem::with_devices(cfg, topo, hmc_cube)
    }
}

/// The HMC device of cube `s`: the configured device with its link-fault
/// seed salted per cube (unchanged for cube 0).
pub(crate) fn hmc_cube(s: usize, cfg: &SystemConfig) -> HmcDevice {
    let mut mc = cfg.mem.clone();
    mc.link_seed ^= (s as u64) << 8;
    HmcDevice::new(mc)
}

impl<B: MemoryBackend> ChainSystem<B> {
    /// Builds an idle system from a per-cube backend factory —
    /// the generic analogue of [`ChainSystem::new`]. The hop links joining
    /// adjacent cubes stay HMC pass-through serializers (cube chaining is
    /// an HMC-specification feature; the backend only replaces what sits
    /// behind each cube's host-facing ports).
    pub fn with_devices(
        cfg: SystemConfig,
        topo: Topology,
        mut factory: impl FnMut(usize, &SystemConfig) -> B,
    ) -> Self {
        let n = topo.cubes() as usize;
        let shard = topo.shard();
        let links = cfg.mem.links.num_links() as usize;
        let probe = DeviceLink::new(cfg.mem.links, cfg.mem.link_layer);
        let hop_floor = probe.transfer_time(FLIT_BYTES);
        let credit_window = cfg.mem.link_layer.retry_buffer_depth;
        let mut shards = Vec::with_capacity(n);
        for s in 0..n {
            let mut hc = cfg.host.clone();
            hc.shard = shard;
            hc.request_id_base = (s as u64) << ORIGIN_SHIFT;
            hc.rng_salt = cfg.host.rng_salt ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let host = Host::new(hc);
            let device = factory(s, &cfg);
            let mut ports = Vec::new();
            for b in topo.neighbors(s) {
                let (e, up) = topo.hop_between(s, b);
                let dir: u8 = if up { 0 } else { 1 };
                ports.push(Port {
                    edge: e,
                    dir,
                    peer: b,
                    lookahead: hop_floor,
                    seq: 0,
                    req_tx: (0..links)
                        .map(|l| ReqTx {
                            link: DeviceLink::with_seed(
                                cfg.mem.links,
                                cfg.mem.link_layer,
                                0xED6E ^ ((e as u64) << 12) ^ (u64::from(dir) << 8) ^ l as u64,
                            ),
                            busy_until: Time::ZERO,
                            credits: credit_window,
                        })
                        .collect(),
                    resp_tx: (0..links)
                        .map(|l| RespTx {
                            link: DeviceLink::with_seed(
                                cfg.mem.links,
                                cfg.mem.link_layer,
                                0xC4E5 ^ ((e as u64) << 12) ^ (u64::from(dir) << 8) ^ l as u64,
                            ),
                            busy_until: Time::ZERO,
                        })
                        .collect(),
                    req_rx: (0..links).map(|_| VecDeque::new()).collect(),
                    resp_rx: (0..links).map(|_| VecDeque::new()).collect(),
                });
            }
            shards.push(CubeShard {
                idx: s,
                topo,
                links,
                host,
                device,
                sampler: None,
                agenda: HopAgenda::new(ports.len(), links),
                ports,
                inbox: Mailbox::new(),
                outbox: Vec::new(),
                local_now: Time::ZERO,
                outputs: Vec::new(),
                hop_tracer: Tracer::new(&Stage::NAMES),
                hol_parked: TimeDelta::ZERO,
            });
        }
        let lookahead = (topo.edge_count() > 0)
            .then(|| LookaheadTable::new(vec![hop_floor; topo.edge_count()]));
        ChainSystem {
            cfg,
            topo,
            shards,
            lookahead,
            workers: 1,
            pool: None,
            now: Time::ZERO,
            watchdog: None,
            thermal_spikes: Vec::new(),
            policy: FailurePolicy::default(),
            recoveries: Vec::new(),
            profiler: None,
            prof_prev: vec![(0, TimeDelta::ZERO); n],
            recv_counts: vec![0; n],
        }
    }

    /// The topology description.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of cubes.
    pub fn cubes(&self) -> usize {
        self.shards.len()
    }

    /// The host of cube `s`.
    pub fn host(&self, s: usize) -> &Host {
        &self.shards[s].host
    }

    /// Mutable host access (workload installation, stat windows).
    pub fn host_mut(&mut self, s: usize) -> &mut Host {
        &mut self.shards[s].host
    }

    /// The device of cube `s`.
    pub fn device(&self, s: usize) -> &B {
        &self.shards[s].device
    }

    /// Mutable device access.
    pub fn device_mut(&mut self, s: usize) -> &mut B {
        &mut self.shards[s].device
    }

    /// Sets how many worker threads pump shard epochs: `<= 1` keeps the
    /// serial scheduler; more spread the cubes over a persistent pool.
    /// Results are bit-identical at every setting (the pool changes only
    /// where an epoch runs, never what it computes), so this is purely a
    /// wall-clock knob. A single-cube system always runs serially.
    pub fn set_parallel_shards(&mut self, workers: usize) {
        let workers = workers.max(1);
        if workers != self.workers {
            self.workers = workers;
            self.pool = None;
        }
    }

    /// The configured epoch worker count.
    pub fn parallel_shards(&self) -> usize {
        self.workers
    }

    /// The conservative lookahead table (`None` for a single cube).
    pub fn lookahead(&self) -> Option<&LookaheadTable> {
        self.lookahead.as_ref()
    }

    /// Installs the same workload on every sharded host.
    pub fn apply_workload(&mut self, w: &Workload) {
        for sh in &mut self.shards {
            sh.host.apply_workload(w);
        }
    }

    /// Starts every host's generators at `now`.
    pub fn start(&mut self, now: Time) {
        for sh in &mut self.shards {
            sh.host.start(now);
        }
    }

    /// Stops every host's generators (outstanding responses still drain).
    pub fn stop_generation(&mut self) {
        for sh in &mut self.shards {
            sh.host.stop_generation();
        }
    }

    /// Clears every host's measurement window.
    pub fn reset_stats(&mut self) {
        for sh in &mut self.shards {
            sh.host.reset_stats();
        }
    }

    /// Merged measurement window across all hosts.
    pub fn host_stats(&self) -> HostStats {
        let mut agg = HostStats::default();
        for sh in &self.shards {
            let s = sh.host.stats();
            agg.reads_issued += s.reads_issued;
            agg.writes_issued += s.writes_issued;
            agg.reads_completed += s.reads_completed;
            agg.writes_completed += s.writes_completed;
            agg.counted_bytes += s.counted_bytes;
            agg.integrity_failures += s.integrity_failures;
            agg.read_latency.merge(&s.read_latency);
        }
        agg
    }

    /// Merged per-tenant open-loop stats across all sharded hosts, in
    /// shard order (deterministic). Empty without the open-loop frontend.
    pub fn open_stats(&self) -> Vec<hmc_host::TenantOpenStats> {
        let mut agg: Vec<hmc_host::TenantOpenStats> = self.shards[0].host.open_stats().to_vec();
        for sh in &self.shards[1..] {
            for (a, s) in agg.iter_mut().zip(sh.host.open_stats()) {
                a.merge(s);
            }
        }
        agg
    }

    /// The modeled per-hop remote-access latency adder for `size`-byte
    /// reads: one request serialization plus one response serialization
    /// through a pass-through link (identical timing model to the
    /// host-facing wires). An unloaded chain shows exactly this constant
    /// per hop.
    pub fn modeled_hop_adder(&self, size: RequestSize) -> TimeDelta {
        let probe = DeviceLink::new(self.cfg.mem.links, self.cfg.mem.link_layer);
        let sizes = TransactionSizes::of(OpKind::Read, size);
        probe.transfer_time(sizes.request_flits().bytes())
            + probe.transfer_time(sizes.response_flits().bytes())
    }

    /// Turns on lifecycle tracing on every host, device, and hop-link
    /// tracer, so chain attribution tables telescope end to end.
    pub fn enable_tracing(&mut self, sample_every: u64) {
        for sh in &mut self.shards {
            sh.host.tracer_mut().enable(sample_every);
            sh.device.tracer_mut().enable(sample_every);
            sh.hop_tracer.enable(sample_every);
        }
    }

    /// Installs one periodic gauge sampler per cube.
    pub fn enable_metrics(&mut self, period: TimeDelta) {
        for sh in &mut self.shards {
            sh.sampler = Some(MetricsSampler::new(period));
        }
    }

    /// Cube `s`'s gauge sampler, if metrics are enabled.
    pub fn metrics(&self, s: usize) -> Option<&MetricsSampler> {
        self.shards[s].sampler.as_ref()
    }

    /// Cube `s`'s hop-link tracer (the chain-only `hop_link` spans).
    pub fn hop_tracer(&self, s: usize) -> &Tracer {
        &self.shards[s].hop_tracer
    }

    /// All per-cube gauge series merged into one sampler under
    /// `cube{N}.`-prefixed names, in cube order — the chain's exportable
    /// metrics surface. `None` unless metrics are enabled.
    pub fn merged_metrics(&self) -> Option<MetricsSampler> {
        let period = self.shards[0].sampler.as_ref()?.period();
        let mut merged = MetricsSampler::new(period);
        for sh in &self.shards {
            let smp = sh.sampler.as_ref()?;
            for series in smp.series() {
                let name = format!("cube{}.{}", sh.idx, series.name());
                for &(t, v) in series.points() {
                    merged.record(&name, t, v);
                }
            }
        }
        Some(merged)
    }

    /// Arms the deterministic per-shard epoch profiler. Sim-time only:
    /// the coordinator records each epoch's per-shard event counts,
    /// envelope traffic, window utilization, and head-of-line parking
    /// after the barrier, so profiles are bit-identical at every worker
    /// count and the armed profiler never perturbs simulation state.
    /// A single-cube system has no epochs and records nothing.
    pub fn enable_epoch_profiler(&mut self) {
        self.profiler = Some(EpochProfiler::new(self.shards.len()));
        for (prev, sh) in self.prof_prev.iter_mut().zip(&self.shards) {
            *prev = (
                sh.host.events_processed() + sh.device.events_processed(),
                sh.hol_parked,
            );
        }
    }

    /// The epoch profile recorded so far, if the profiler is armed.
    pub fn epoch_profile(&self) -> Option<&EpochProfiler> {
        self.profiler.as_ref()
    }

    /// The wall-clock worker-utilization summary of the shard pool
    /// (busy vs. barrier-wait per worker). `None` until a parallel
    /// multi-cube run has spawned the pool. Non-deterministic by nature;
    /// never fold it into a fingerprint.
    pub fn shard_utilization(&self) -> Option<&PoolUtilization> {
        self.pool.as_ref().map(|p| p.utilization())
    }

    /// Arms the protocol sanitizer on every host and device plus the
    /// fleet-wide forward-progress watchdog (default span). Enable before
    /// starting a run; the merged outcome comes from
    /// [`sanitizer_report`](ChainSystem::sanitizer_report).
    pub fn enable_sanitizer(&mut self) {
        // Worst legal retirement gap: one fully-loaded bank queue
        // (120 deep) serializing at tRC ≈ 15 µs; 200 µs means wedged.
        self.enable_sanitizer_with_span(TimeDelta::from_us(200));
    }

    /// [`enable_sanitizer`](ChainSystem::enable_sanitizer) with an
    /// explicit watchdog span.
    pub fn enable_sanitizer_with_span(&mut self, span: TimeDelta) {
        for sh in &mut self.shards {
            sh.host.enable_sanitizer();
            sh.device.enable_sanitizer();
        }
        self.watchdog = Some(Watchdog {
            span,
            last_completed: self.completed(),
            last_progress: self.now,
            tripped: false,
        });
    }

    /// True once the sanitizer is armed.
    pub fn sanitizer_enabled(&self) -> bool {
        self.shards[0].host.sanitizer().is_enabled()
    }

    /// The merged sanitizer outcome: hosts in cube order first, then
    /// devices — deterministic violation order (for one cube: host, then
    /// device).
    pub fn sanitizer_report(&self) -> SanitizerReport {
        let mut r = self.shards[0].host.sanitizer().report();
        for sh in &self.shards[1..] {
            r.merge(&sh.host.sanitizer().report());
        }
        for sh in &self.shards {
            r.merge(&sh.device.sanitizer().report());
        }
        r
    }

    /// Asserts every host's request-conservation ledger is empty — call
    /// once the run has drained. With the open-loop frontend attached
    /// this also asserts each shard's shed-accounting invariant
    /// (`offered = shed + completed` at drain).
    pub fn sanitize_check_drained(&mut self) {
        let now = self.now;
        for sh in &mut self.shards {
            sh.host.check_open_conservation(now);
            sh.host.sanitizer_mut().check_drained(now);
        }
    }

    /// Installs a fault scenario against cube `cube`: device-level faults
    /// become that device's events; thermal spikes become per-cube time
    /// barriers. Note that a thermal shutdown of a remote cube drops any
    /// in-flight traffic other hosts sent it — run multi-cube fault
    /// scenarios with the host robustness layer enabled so those requests
    /// are replayed rather than leaked.
    pub fn install_faults(&mut self, cube: usize, scenario: &FaultScenario) {
        for ev in &scenario.events {
            match ev.kind {
                FaultKind::ThermalSpike { surface_c } => {
                    self.thermal_spikes.push((ev.at, surface_c, cube));
                }
                kind => self.shards[cube].device.schedule_fault(ev.at, kind),
            }
        }
        self.thermal_spikes
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
    }

    /// Arms a bit-error rate on every hop serializer of cube-to-cube edge
    /// `e` (both directions, requests and responses) — the hop-level
    /// analogue of the `noisy-link` scenario.
    pub fn set_hop_bit_error_rate(&mut self, e: usize, ber: f64) {
        for sh in &mut self.shards {
            for p in &mut sh.ports {
                if p.edge != e {
                    continue;
                }
                for l in 0..sh.links {
                    p.req_tx[l].link.set_bit_error_rate(ber);
                    p.resp_tx[l].link.set_bit_error_rate(ber);
                }
            }
        }
    }

    /// Replaces the thermal limits evaluated at spikes.
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.policy = policy;
    }

    /// Every thermal shutdown/recovery cycle executed so far.
    pub fn recoveries(&self) -> &[RecoveryRecord] {
        &self.recoveries
    }

    /// Total discrete events processed across all hosts and devices.
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|sh| sh.host.events_processed() + sh.device.events_processed())
            .sum()
    }

    /// The system clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// True while any host has outstanding work.
    pub fn is_busy(&self) -> bool {
        self.shards.iter().any(|sh| sh.host.is_busy())
    }

    /// Deterministic dump of every cube's occupancies, link credits in
    /// use, and hop-port backlogs — the watchdog's diagnostic body.
    pub fn diagnostic_dump(&self) -> String {
        let mut s = format!("chain wedged at {} ({})\n", self.now, self.topo);
        for sh in &self.shards {
            s.push_str(&format!("-- cube {}\n", sh.idx));
            s.push_str(&sh.host.diagnostic_dump(self.now));
            s.push_str(&sh.device.diagnostic_dump(self.now));
            let in_use = sh.device.sanitizer().credits_in_use();
            if !in_use.is_empty() {
                let links: Vec<String> = in_use
                    .iter()
                    .enumerate()
                    .map(|(l, c)| format!("link {l}={c}"))
                    .collect();
                s.push_str(&format!("credits in use per link: {}\n", links.join(", ")));
            }
            for p in &sh.ports {
                let tx: usize = (0..sh.links)
                    .map(|l| {
                        p.req_tx[l].link.ingress_backlog() + p.resp_tx[l].link.egress_backlog()
                    })
                    .sum();
                let rx: usize = (0..sh.links)
                    .map(|l| p.req_rx[l].len() + p.resp_rx[l].len())
                    .sum();
                let credits: usize = (0..sh.links).map(|l| p.req_tx[l].credits).sum();
                s.push_str(&format!(
                    "port ->{} (edge {}): tx backlog {tx}, rx queued {rx}, credits {credits}\n",
                    p.peer, p.edge
                ));
            }
            if !sh.inbox.is_empty() {
                s.push_str(&format!("inbox pending {}\n", sh.inbox.len()));
            }
        }
        s
    }

    fn completed(&self) -> u64 {
        self.shards
            .iter()
            .map(|sh| sh.host.total_issued() - sh.host.outstanding())
            .sum()
    }

    fn outstanding(&self) -> u64 {
        self.shards.iter().map(|sh| sh.host.outstanding()).sum()
    }

    /// Feeds the fleet-wide watchdog: records progress, and trips it
    /// (once) with a diagnostic dump when outstanding requests stop
    /// retiring. The violation lands on cube 0's host sanitizer so the
    /// merged report carries exactly one dump.
    fn watchdog_check(&mut self, now: Time) {
        let Some(mut wd) = self.watchdog.take() else {
            return;
        };
        let completed = self.completed();
        if completed != wd.last_completed || self.outstanding() == 0 {
            wd.last_completed = completed;
            wd.last_progress = now;
        } else if !wd.tripped && now >= wd.last_progress && now.since(wd.last_progress) >= wd.span {
            wd.tripped = true;
            let detail = format!(
                "no retirement for {} with {} outstanding\n{}",
                now.since(wd.last_progress),
                self.outstanding(),
                self.diagnostic_dump(),
            );
            self.shards[0].host.sanitizer_mut().note_violation(
                ViolationClass::Watchdog,
                now,
                detail,
            );
        }
        self.watchdog = Some(wd);
    }

    /// Advances every component until no event at or before `end`
    /// remains. Installed thermal spikes act as barriers: the system
    /// advances exactly to each spike, evaluates the failure policy
    /// against that cube, and (on shutdown) executes the recovery cycle
    /// before continuing.
    pub fn step_until(&mut self, end: Time) {
        while let Some(&(at, surface_c, cube)) = self.thermal_spikes.first() {
            if at > end {
                break;
            }
            self.step_events_until(at);
            self.thermal_spikes.remove(0);
            self.apply_thermal_spike(cube, at, surface_c);
        }
        self.step_events_until(end);
    }

    /// Evaluates one thermal spike against the failure policy. The
    /// write limit applies as soon as the cube has completed any write —
    /// the paper's ~10 °C earlier write-workload shutdowns.
    fn apply_thermal_spike(&mut self, cube: usize, at: Time, surface_c: f64) {
        let writes = self.shards[cube].device.core_stats().writes_completed > 0;
        match self.policy.check(surface_c, writes) {
            Ok(ThermalEvent::Normal) => {}
            Ok(ThermalEvent::RefreshBoost) => self.shards[cube].device.set_refresh_multiplier(2),
            Err(_) => self.thermal_shutdown(cube, at, surface_c),
        }
    }

    /// One cube's live shutdown/recovery cycle: the device halts and
    /// forgets everything (in-flight packets, queue contents, DRAM data),
    /// the timed recovery sequence elapses, and that cube's host replays
    /// its in-flight window from the resume instant (remote requesters
    /// rely on their robustness layer).
    fn thermal_shutdown(&mut self, cube: usize, at: Time, surface_c: f64) {
        let mut steps = Vec::new();
        let mut resume = at;
        for step in RecoveryStep::sequence() {
            let d = step.typical_duration();
            steps.push((step, d));
            resume += d;
        }
        self.shards[cube].device.reset_after_shutdown(resume);
        let replayed = self.shards[cube].host.reset_for_recovery(resume);
        // The outage is legal dead time, not a wedge: restart the
        // forward-progress clock at the resume instant.
        if let Some(wd) = &mut self.watchdog {
            wd.last_progress = resume;
        }
        self.now = self.now.max(at);
        self.recoveries.push(RecoveryRecord {
            cube,
            shutdown_at: at,
            surface_c,
            steps,
            resume_at: resume,
            replayed,
        });
    }

    /// The event-pump core of [`ChainSystem::step_until`] (no thermal
    /// barriers). One cube runs the single-cube pump; more cubes run the
    /// conservative epoch scheduler, serially or on the worker pool —
    /// the last two compute bit-identical states.
    fn step_events_until(&mut self, end: Time) {
        if self.shards.len() == 1 {
            self.step_single_until(end);
        } else {
            self.step_epochs_until(end);
        }
    }

    /// The single-cube pump. With no ports, no mailbox and no epochs, each
    /// instant is the earliest host or device event: host first, then
    /// device (its responses straight to the host), stall credits, due
    /// metrics samples, and the watchdog.
    fn step_single_until(&mut self, end: Time) {
        loop {
            let sh = &mut self.shards[0];
            let t = match (sh.host.next_time(), sh.device.next_time()) {
                (Some(h), Some(d)) => h.min(d),
                (Some(h), None) => h,
                (None, Some(d)) => d,
                (None, None) => break,
            };
            if t > end {
                break;
            }
            // Host first: its submissions at instants <= t reach a device
            // whose clock has not passed t yet.
            {
                let CubeShard {
                    idx,
                    topo,
                    host,
                    device,
                    ports,
                    agenda,
                    outbox,
                    hop_tracer,
                    ..
                } = sh;
                let mut sink = ShardSink {
                    shard: *idx,
                    topo,
                    device,
                    ports,
                    agenda,
                    outbox,
                    hop_tracer,
                };
                host.advance_instant(t, &mut sink);
            }
            let mut outputs = std::mem::take(&mut sh.outputs);
            outputs.clear();
            sh.device.advance_instant(t, &mut outputs);
            for o in &outputs {
                sh.host.receive_response(o.resp, o.at);
            }
            sh.outputs = outputs;
            if sh.host.any_node_stalled() {
                for l in 0..sh.links {
                    let free = sh.device.free_slots(l);
                    if free > 0 {
                        sh.host.notify_credit(l, free, t);
                    }
                }
            }
            if let Some(mut smp) = sh.sampler.take() {
                while let Some(due) = smp.due_before(t) {
                    sh.host.sample_metrics(due, &mut smp);
                    sh.device.sample_metrics(due, &mut smp);
                    smp.advance();
                }
                sh.sampler = Some(smp);
            }
            sh.local_now = t;
            self.now = t;
            self.watchdog_check(t);
        }
        self.now = self.now.max(end);
        // A wedged system can drain both event queues while requests are
        // still outstanding: the loop above exits immediately, so the
        // watchdog must also see the end-of-step instant.
        self.watchdog_check(self.now);
    }

    /// The multi-cube pump: lockstep epochs bounded by the global
    /// lookahead, with deterministic mailbox exchange at every barrier.
    fn step_epochs_until(&mut self, end: Time) {
        let delta = self
            .lookahead
            .as_ref()
            .expect("multi-cube topologies have edges")
            .global();
        // Epoch windows are half-open, so covering every event at or
        // before `end` means capping windows at `end + 1 ps`.
        let cap = Time::from_ps(end.as_ps().saturating_add(1));
        if self.workers > 1 && self.pool.is_none() {
            self.pool = Some(ShardPool::new(self.workers.min(self.shards.len())));
        }
        while let Some(next) = self.shards.iter().filter_map(CubeShard::next_time).min() {
            if next >= cap {
                break;
            }
            // No shard has work before `next`, so every message emitted
            // in this window is timestamped >= next + delta: the window
            // [next, next + delta) is conservative.
            let window = (next + delta).min(cap);
            if let Some(pool) = (self.workers > 1).then_some(self.pool.as_mut()).flatten() {
                let owned: Vec<(usize, CubeShard<B>)> = self.shards.drain(..).enumerate().collect();
                let back = pool.run_epoch(owned, window);
                self.shards.extend(back.into_iter().map(|(_, sh)| sh));
            } else {
                for sh in &mut self.shards {
                    sh.pump_epoch(window);
                }
            }
            // Envelope counts must be read at the barrier: the outbox
            // drains during exchange, which in turn fills recv_counts.
            let sent: Option<Vec<u64>> = self.profiler.is_some().then(|| {
                self.shards
                    .iter()
                    .map(|sh| sh.outbox.len() as u64)
                    .collect()
            });
            self.exchange();
            if let Some(prof) = &mut self.profiler {
                let sent = sent.expect("captured before exchange");
                let mut samples = Vec::with_capacity(self.shards.len());
                for (i, sh) in self.shards.iter().enumerate() {
                    let events = sh.host.events_processed() + sh.device.events_processed();
                    let parked = sh.hol_parked;
                    let prev = &mut self.prof_prev[i];
                    samples.push(EpochSample {
                        events: events - prev.0,
                        sent: sent[i],
                        received: self.recv_counts[i],
                        advanced_to: sh.local_now,
                        parked: TimeDelta::from_ps(parked.as_ps() - prev.1.as_ps()),
                    });
                    *prev = (events, parked);
                }
                prof.record_epoch(next, window, &samples);
            }
            self.now = self.now.max(next);
            self.watchdog_check(self.now);
        }
        self.now = self.now.max(end);
        self.watchdog_check(self.now);
    }

    /// Routes every envelope emitted during the last epoch into its
    /// destination shard's mailbox. Arrival order is irrelevant: the
    /// mailbox pops in total key order.
    fn exchange(&mut self) {
        self.recv_counts.fill(0);
        for i in 0..self.shards.len() {
            let envs = std::mem::take(&mut self.shards[i].outbox);
            for env in envs {
                self.recv_counts[env.to] += 1;
                self.shards[env.to].inbox.push(env.key, env.msg);
            }
        }
    }

    /// Runs until no host has outstanding work or `max` simulated time
    /// elapses. Returns `true` if the chain went idle.
    pub fn run_until_idle(&mut self, max: TimeDelta) -> bool {
        let deadline = self.now + max;
        while self.now < deadline {
            if !self.is_busy() {
                return true;
            }
            let spike = self.thermal_spikes.first().map(|&(t, _, _)| t);
            let next = if self.shards.len() == 1 {
                // The single-cube pump's own notion of the next instant.
                let sh = &self.shards[0];
                [sh.host.next_time(), sh.device.next_time(), spike]
                    .into_iter()
                    .flatten()
                    .min()
            } else {
                self.shards
                    .iter()
                    .filter_map(CubeShard::next_time)
                    .chain(spike)
                    .min()
            };
            let Some(next) = next else {
                return !self.is_busy();
            };
            if next > deadline {
                break;
            }
            self.step_until(next);
        }
        !self.is_busy()
    }

    /// Convenience: advance by a span.
    pub fn run_for(&mut self, span: TimeDelta) {
        let end = self.now + span;
        self.step_until(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::RequestKind;

    #[test]
    fn topology_geometry() {
        let t = Topology::chain(4);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.hops(0, 3), 3);
        assert_eq!(t.next_shard(1, 3), 2);
        assert_eq!(t.next_shard(2, 0), 1);
        assert_eq!(t.hop_between(1, 2), (1, true));
        assert_eq!(t.hop_between(2, 1), (1, false));
        assert_eq!(t.neighbors(0), vec![1]);
        assert_eq!(t.neighbors(2), vec![1, 3]);

        let s = Topology::star(4);
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.hops(1, 3), 2);
        assert_eq!(s.hops(0, 3), 1);
        assert_eq!(s.next_shard(1, 3), 0);
        assert_eq!(s.next_shard(0, 3), 3);
        assert_eq!(s.hop_between(0, 3), (2, true));
        assert_eq!(s.hop_between(3, 0), (2, false));
        assert_eq!(s.neighbors(0), vec![1, 2, 3]);
        assert_eq!(s.neighbors(2), vec![0]);
        assert!(format!("{s}").contains("star"));
    }

    #[test]
    #[should_panic(expected = "cubes")]
    fn topology_rejects_too_many_cubes() {
        let _ = Topology::chain(9);
    }

    #[test]
    fn two_cube_stream_round_trips_remote() {
        // A read stream on sharded hosts: cube-first interleave sends
        // every other block remote, and everything still drains.
        let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(2));
        sys.apply_workload(&Workload::read_stream(
            8,
            RequestSize::new(128).expect("valid size"),
        ));
        sys.start(Time::ZERO);
        assert!(sys.run_until_idle(TimeDelta::from_ms(1)), "chain wedged");
        let s = sys.host_stats();
        assert_eq!(s.reads_completed, 2 * 8);
        assert_eq!(s.integrity_failures, 0);
        // Both devices served traffic (the stream is split by the shard).
        assert!(sys.device(0).stats().reads_completed > 0);
        assert!(sys.device(1).stats().reads_completed > 0);
    }

    #[test]
    fn remote_reads_pay_the_modeled_hop_adder() {
        // One pinned pointer-chase per target cube, refresh disabled so
        // nothing perturbs the unloaded round trip: the far mean latency
        // must exceed the near one by exactly hops x modeled adder.
        let size = RequestSize::new(128).expect("valid size");
        let mut lat = Vec::new();
        for target in 0..2u8 {
            let mut cfg = SystemConfig::default();
            cfg.mem.refresh.enabled = false;
            let mut sys = ChainSystem::new(cfg, Topology::chain(2));
            let addrs: Vec<hmc_types::Address> = (0..64u64)
                .map(|i| hmc_types::Address::new(i * 4096))
                .collect();
            sys.host_mut(0)
                .apply_workload(&Workload::DependentChain { addrs, size });
            sys.host_mut(0)
                .set_cube_pin(Some(hmc_types::CubeId::new(target)));
            sys.start(Time::ZERO);
            assert!(sys.run_until_idle(TimeDelta::from_ms(10)));
            lat.push(sys.host(0).stats().read_latency.mean());
        }
        let adder = sys_adder(size);
        assert_eq!(
            lat[1].as_ps(),
            lat[0].as_ps() + adder.as_ps(),
            "remote latency must be near latency plus the modeled hop cost"
        );
    }

    fn sys_adder(size: RequestSize) -> TimeDelta {
        ChainSystem::new(SystemConfig::default(), Topology::chain(2)).modeled_hop_adder(size)
    }

    #[test]
    fn star_spoke_to_spoke_crosses_hub() {
        let mut sys = ChainSystem::new(SystemConfig::default(), Topology::star(3));
        // Pin host 1's traffic to cube 2: two hops via the hub.
        let size = RequestSize::new(64).expect("valid size");
        sys.host_mut(1)
            .apply_workload(&Workload::read_stream(4, size));
        sys.host_mut(1)
            .set_cube_pin(Some(hmc_types::CubeId::new(2)));
        sys.start(Time::ZERO);
        assert!(sys.run_until_idle(TimeDelta::from_ms(1)), "star wedged");
        assert_eq!(sys.host(1).stats().reads_completed, 4);
        assert_eq!(sys.device(2).stats().reads_completed, 4);
        assert_eq!(
            sys.device(0).stats().reads_completed,
            0,
            "hub only forwards"
        );
    }

    #[test]
    fn chain_sanitizer_stays_clean_under_load() {
        let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(2));
        sys.enable_sanitizer();
        sys.apply_workload(&Workload::full_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
        ));
        sys.start(Time::ZERO);
        sys.run_for(TimeDelta::from_us(50));
        sys.stop_generation();
        assert!(sys.run_until_idle(TimeDelta::from_ms(10)), "drain stalled");
        sys.sanitize_check_drained();
        let report = sys.sanitizer_report();
        assert!(report.is_clean(), "{}", report.to_json());
    }

    #[test]
    fn lookahead_is_the_single_flit_floor() {
        let sys = ChainSystem::new(SystemConfig::default(), Topology::chain(3));
        let la = sys.lookahead().expect("multi-cube lookahead");
        assert_eq!(la.edges(), 2);
        let probe = DeviceLink::new(sys.cfg.mem.links, sys.cfg.mem.link_layer);
        assert_eq!(la.global(), probe.transfer_time(FLIT_BYTES));
        assert!(la.global() > TimeDelta::ZERO);
        // Single cube: no edges, no epochs, no table.
        let solo = ChainSystem::new(SystemConfig::default(), Topology::single());
        assert!(solo.lookahead().is_none());
    }
}
