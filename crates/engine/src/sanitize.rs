//! Runtime protocol sanitizer: machine-checked structural invariants.
//!
//! The model's headline behaviours (the per-vault bandwidth ceiling, the
//! closed-page linear≡random equivalence, queueing-dominated tails) are
//! consequences of invariants that are otherwise enforced only by
//! convention: closed-page bank-timing legality, credit-based link flow
//! control, and request conservation. The [`Sanitizer`] checks them at
//! run time, mirroring the zero-cost-when-disabled pattern of
//! [`trace`](crate::trace): every recording method is `#[inline]` and
//! returns immediately while disabled, so production sweeps pay nothing.
//!
//! Checked invariant classes:
//!
//! * **DRAM timing** — a per-bank FSM validates every scheduled access
//!   against the [`DramTimingFloor`] of the device spec: accesses never
//!   overlap on a bank, data never appears before `tRCD + tCL`, the bank
//!   never frees before `tRAS + tRP` (writes: `tRCD + tWR + tRP`),
//!   activates on one bank stay `tRC` apart, and column data bursts stay
//!   `tCCD` apart.
//! * **Credit conservation** — a per-link ledger of the SerDes ingress
//!   credit window: credits in use never exceed the configured pool and
//!   never go negative.
//! * **Request conservation** — every injected request is retired exactly
//!   once or accounted in flight; the ledger must be empty at drain.
//! * **Time order** — event queues never deliver an event earlier than
//!   one already processed.
//! * **Queue bounds** — event-queue occupancy stays within the
//!   structural bound implied by the configuration.
//! * **Forward progress** — a watchdog (driven by the system loop)
//!   reports deadlock/livelock: outstanding requests with no retirement
//!   for a configured span, with a deterministic diagnostic dump.
//!
//! Violations are collected (capped at [`MAX_VIOLATIONS`], counting
//! overflow) into a [`SanitizerReport`] that merges across components and
//! exports deterministic JSON.

use std::collections::BTreeMap;
use std::fmt;

use hmc_types::spec::DramTimingFloor;
use hmc_types::Time;

/// Hard cap on stored violations; later ones only increment a counter so
/// a badly corrupted run cannot balloon memory.
pub const MAX_VIOLATIONS: usize = 64;

/// The invariant classes the sanitizer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationClass {
    /// A scheduled bank access violated the DRAM timing floor.
    DramTiming,
    /// More link ingress credits in use than the configured pool.
    CreditOverflow,
    /// A link ingress credit released that was never acquired.
    CreditUnderflow,
    /// A request lost or duplicated between injection and retirement.
    Conservation,
    /// An event delivered earlier than one already processed.
    TimeOrder,
    /// An event queue exceeded its structural occupancy bound.
    QueueBound,
    /// Outstanding requests made no progress for the watchdog span.
    Watchdog,
}

impl ViolationClass {
    /// Every class, in report order.
    pub const ALL: [ViolationClass; 7] = [
        ViolationClass::DramTiming,
        ViolationClass::CreditOverflow,
        ViolationClass::CreditUnderflow,
        ViolationClass::Conservation,
        ViolationClass::TimeOrder,
        ViolationClass::QueueBound,
        ViolationClass::Watchdog,
    ];

    /// Number of classes (length of per-class counter arrays).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable kebab-case name used in reports and JSON.
    pub const fn name(self) -> &'static str {
        match self {
            ViolationClass::DramTiming => "dram-timing",
            ViolationClass::CreditOverflow => "credit-overflow",
            ViolationClass::CreditUnderflow => "credit-underflow",
            ViolationClass::Conservation => "conservation",
            ViolationClass::TimeOrder => "time-order",
            ViolationClass::QueueBound => "queue-bound",
            ViolationClass::Watchdog => "watchdog",
        }
    }

    /// Index into per-class counter arrays.
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant class that failed.
    pub class: ViolationClass,
    /// Simulated instant of detection.
    pub at: Time,
    /// Deterministic human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.class, self.at, self.detail)
    }
}

/// Which DRAM operation a bank access performs (for the timing FSM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOp {
    /// ACT → RD → PRE.
    Read,
    /// ACT → WR → PRE.
    Write,
}

impl BankOp {
    const fn name(self) -> &'static str {
        match self {
            BankOp::Read => "read",
            BankOp::Write => "write",
        }
    }
}

/// Per-bank FSM state: the last committed access of one bank.
#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// End of the previous access (bank busy until here).
    busy_until: Time,
    /// Start (ACT) of the previous access.
    last_start: Option<Time>,
    /// Data instant (column command) of the previous access.
    last_data: Option<Time>,
}

/// The runtime protocol sanitizer. Disabled by default and free when
/// disabled; [`enable`](Sanitizer::enable) arms it. One sanitizer lives
/// in each checked component (host, device); their reports merge.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    enabled: bool,
    floor: Option<DramTimingFloor>,
    banks: BTreeMap<u32, BankState>,
    credit_pool: Vec<usize>,
    credit_in_use: Vec<usize>,
    in_flight: BTreeMap<u64, Time>,
    injected: u64,
    retired: u64,
    last_event_time: Time,
    checks: [u64; ViolationClass::COUNT],
    violations: Vec<Violation>,
    dropped: u64,
}

impl Sanitizer {
    /// A disabled sanitizer (allocation-free; every check is a no-op).
    pub fn new() -> Self {
        Sanitizer {
            enabled: false,
            floor: None,
            banks: BTreeMap::new(),
            credit_pool: Vec::new(),
            credit_in_use: Vec::new(),
            in_flight: BTreeMap::new(),
            injected: 0,
            retired: 0,
            last_event_time: Time::ZERO,
            checks: [0; ViolationClass::COUNT],
            violations: Vec::new(),
            dropped: 0,
        }
    }

    /// Arms the sanitizer. `floor` enables the DRAM timing FSM (pass
    /// `None` for page policies the closed-page floor does not apply to);
    /// all other invariant classes are always checked once enabled.
    pub fn enable(&mut self, floor: Option<DramTimingFloor>) {
        self.enabled = true;
        self.floor = floor;
    }

    /// True once [`enable`](Sanitizer::enable) was called.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Declares the per-link ingress credit pools (index = link id).
    pub fn set_credit_pools(&mut self, pools: &[usize]) {
        if !self.enabled {
            return;
        }
        self.credit_pool = pools.to_vec();
        self.credit_in_use = vec![0; pools.len()];
    }

    // ---------------------------------------------------------------
    // credit conservation
    // ---------------------------------------------------------------

    /// Records one ingress credit taken on `link` (a request accepted
    /// into the link's ingress window).
    #[inline]
    pub fn credit_acquire(&mut self, link: usize, now: Time) {
        if !self.enabled {
            return;
        }
        self.checks[ViolationClass::CreditOverflow.index()] += 1;
        if link >= self.credit_pool.len() {
            return;
        }
        self.credit_in_use[link] += 1;
        if self.credit_in_use[link] > self.credit_pool[link] {
            let detail = format!(
                "link {link}: {} credits in use exceeds pool of {}",
                self.credit_in_use[link], self.credit_pool[link]
            );
            self.record(ViolationClass::CreditOverflow, now, detail);
        }
    }

    /// Records one ingress credit returned on `link` (the request left
    /// the ingress window).
    #[inline]
    pub fn credit_release(&mut self, link: usize, now: Time) {
        if !self.enabled {
            return;
        }
        self.checks[ViolationClass::CreditUnderflow.index()] += 1;
        if link >= self.credit_pool.len() {
            return;
        }
        if self.credit_in_use[link] == 0 {
            let detail = format!("link {link}: credit released below zero in use");
            self.record(ViolationClass::CreditUnderflow, now, detail);
        } else {
            self.credit_in_use[link] -= 1;
        }
    }

    /// Credits currently in use on each link (diagnostics).
    pub fn credits_in_use(&self) -> &[usize] {
        &self.credit_in_use
    }

    /// Forgets all credits in use without a violation: the ingress
    /// windows were legitimately emptied outside the normal release path
    /// (a shutdown dropped the queues on the floor).
    pub fn credit_forget_all(&mut self) {
        for c in &mut self.credit_in_use {
            *c = 0;
        }
    }

    // ---------------------------------------------------------------
    // DRAM timing FSM
    // ---------------------------------------------------------------

    /// Validates one committed bank access against the timing floor.
    /// `bank` is a device-global bank id; `start` is the ACT instant,
    /// `data_at` the column-data instant, and `busy_until` the end of the
    /// bank's own cycle (before any bus-contention extension).
    #[inline]
    pub fn check_bank_access(
        &mut self,
        bank: u32,
        op: BankOp,
        start: Time,
        data_at: Time,
        busy_until: Time,
    ) {
        if !self.enabled {
            return;
        }
        self.checks[ViolationClass::DramTiming.index()] += 1;
        let st = *self.banks.entry(bank).or_default();
        if start < st.busy_until {
            let detail = format!(
                "bank {bank}: {} ACT at {start} overlaps previous access busy until {}",
                op.name(),
                st.busy_until
            );
            self.record(ViolationClass::DramTiming, start, detail);
        }
        if let Some(f) = self.floor {
            if let Some(prev) = st.last_start {
                if start < prev || start.since(prev) < f.t_rc() {
                    let detail = format!(
                        "bank {bank}: ACT-to-ACT spacing {} below tRC floor {} \
                         (previous ACT at {prev})",
                        if start >= prev {
                            start.since(prev)
                        } else {
                            hmc_types::TimeDelta::ZERO
                        },
                        f.t_rc()
                    );
                    self.record(ViolationClass::DramTiming, start, detail);
                }
            }
            let min_data = match op {
                BankOp::Read => f.read_access(),
                // Write data needs the row open: tRCD.
                BankOp::Write => f.t_rcd,
            };
            if data_at < start || data_at.since(start) < min_data {
                let detail = format!(
                    "bank {bank}: {} data at {data_at} only {} after ACT at {start}, \
                     floor is {min_data}",
                    op.name(),
                    if data_at >= start {
                        data_at.since(start)
                    } else {
                        hmc_types::TimeDelta::ZERO
                    }
                );
                self.record(ViolationClass::DramTiming, data_at, detail);
            }
            let min_cycle = match op {
                BankOp::Read => f.t_rc(),
                BankOp::Write => f.write_cycle(),
            };
            if busy_until < start || busy_until.since(start) < min_cycle {
                let detail = format!(
                    "bank {bank}: {} cycle {} below floor {min_cycle} (tRAS/tWR + tRP)",
                    op.name(),
                    if busy_until >= start {
                        busy_until.since(start)
                    } else {
                        hmc_types::TimeDelta::ZERO
                    }
                );
                self.record(ViolationClass::DramTiming, busy_until, detail);
            }
            if let Some(prev_data) = st.last_data {
                if data_at >= prev_data && data_at.since(prev_data) < f.t_ccd {
                    let detail = format!(
                        "bank {bank}: column commands {} apart, tCCD floor is {}",
                        data_at.since(prev_data),
                        f.t_ccd
                    );
                    self.record(ViolationClass::DramTiming, data_at, detail);
                }
            }
        }
        let st = self.banks.entry(bank).or_default();
        st.busy_until = st.busy_until.max(busy_until);
        st.last_start = Some(start);
        st.last_data = Some(data_at);
    }

    // ---------------------------------------------------------------
    // request conservation
    // ---------------------------------------------------------------

    /// Records a request entering the system (host issue).
    #[inline]
    pub fn note_inject(&mut self, id: u64, now: Time) {
        if !self.enabled {
            return;
        }
        self.checks[ViolationClass::Conservation.index()] += 1;
        self.injected += 1;
        if self.in_flight.insert(id, now).is_some() {
            let detail = format!("request {id} injected twice without retirement");
            self.record(ViolationClass::Conservation, now, detail);
        }
    }

    /// Records a request retiring (response delivered to its port).
    #[inline]
    pub fn note_retire(&mut self, id: u64, now: Time) {
        if !self.enabled {
            return;
        }
        self.checks[ViolationClass::Conservation.index()] += 1;
        self.retired += 1;
        if self.in_flight.remove(&id).is_none() {
            let detail = format!("request {id} retired but was never injected (or retired twice)");
            self.record(ViolationClass::Conservation, now, detail);
        }
    }

    /// Asserts the conservation ledger is empty — call at drain.
    pub fn check_drained(&mut self, now: Time) {
        if !self.enabled {
            return;
        }
        self.checks[ViolationClass::Conservation.index()] += 1;
        if !self.in_flight.is_empty() {
            let mut ids: Vec<String> = self.in_flight.keys().take(8).map(u64::to_string).collect();
            if self.in_flight.len() > 8 {
                ids.push("...".to_string());
            }
            let detail = format!(
                "{} requests still in flight at drain (ids {})",
                self.in_flight.len(),
                ids.join(", ")
            );
            self.record(ViolationClass::Conservation, now, detail);
        }
    }

    /// Requests injected but not yet retired.
    pub fn in_flight_count(&self) -> u64 {
        self.in_flight.len() as u64
    }

    // ---------------------------------------------------------------
    // event-queue checks
    // ---------------------------------------------------------------

    /// Checks that event delivery times never move backwards.
    #[inline]
    pub fn check_event_time(&mut self, t: Time) {
        if !self.enabled {
            return;
        }
        self.checks[ViolationClass::TimeOrder.index()] += 1;
        if t < self.last_event_time {
            let detail = format!(
                "event delivered at {t} after an event at {}",
                self.last_event_time
            );
            self.record(ViolationClass::TimeOrder, t, detail);
        } else {
            self.last_event_time = t;
        }
    }

    /// Checks an event-queue occupancy against its structural bound.
    #[inline]
    pub fn check_queue_bound(&mut self, what: &str, len: usize, bound: usize, now: Time) {
        if !self.enabled {
            return;
        }
        self.checks[ViolationClass::QueueBound.index()] += 1;
        if len > bound {
            let detail = format!("{what}: {len} queued exceeds structural bound {bound}");
            self.record(ViolationClass::QueueBound, now, detail);
        }
    }

    // ---------------------------------------------------------------
    // reporting
    // ---------------------------------------------------------------

    /// Records an externally detected violation (the system watchdog uses
    /// this for forward-progress failures with a diagnostic dump).
    pub fn note_violation(&mut self, class: ViolationClass, at: Time, detail: String) {
        if !self.enabled {
            return;
        }
        self.checks[class.index()] += 1;
        self.record(class, at, detail);
    }

    fn record(&mut self, class: ViolationClass, at: Time, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { class, at, detail });
        } else {
            self.dropped += 1;
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Snapshot of this component's checks and violations.
    pub fn report(&self) -> SanitizerReport {
        SanitizerReport {
            checks: self.checks,
            violations: self.violations.clone(),
            dropped: self.dropped,
            injected: self.injected,
            retired: self.retired,
            in_flight: self.in_flight_count(),
        }
    }
}

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer::new()
    }
}

/// The merged outcome of a sanitized run: per-class check counts, every
/// recorded violation, and the conservation-ledger totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    checks: [u64; ViolationClass::COUNT],
    violations: Vec<Violation>,
    dropped: u64,
    injected: u64,
    retired: u64,
    in_flight: u64,
}

impl SanitizerReport {
    /// Folds another component's report into this one.
    pub fn merge(&mut self, other: &SanitizerReport) {
        for (mine, theirs) in self.checks.iter_mut().zip(other.checks.iter()) {
            *mine += theirs;
        }
        self.violations.extend_from_slice(&other.violations);
        self.dropped += other.dropped;
        self.injected += other.injected;
        self.retired += other.retired;
        self.in_flight += other.in_flight;
    }

    /// All recorded violations, in component merge order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations of one class.
    pub fn count_of(&self, class: ViolationClass) -> usize {
        self.violations.iter().filter(|v| v.class == class).count()
    }

    /// Checks performed for one class.
    pub fn checks_of(&self, class: ViolationClass) -> u64 {
        self.checks[class.index()]
    }

    /// Total checks performed across all classes.
    pub fn total_checks(&self) -> u64 {
        self.checks.iter().sum()
    }

    /// Total violations (stored plus overflowed).
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.dropped
    }

    /// True if no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Requests injected over the run.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Requests retired over the run.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Requests still in flight when the report was taken.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Deterministic JSON export (`repro sanitize` writes this).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\"clean\":");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        write!(
            out,
            ",\"injected\":{},\"retired\":{},\"in_flight\":{},\"dropped\":{}",
            self.injected, self.retired, self.in_flight, self.dropped
        )
        .expect("writing to a String cannot fail");
        out.push_str(",\"checks\":{");
        for (i, c) in ViolationClass::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":{}", c.name(), self.checks[c.index()])
                .expect("writing to a String cannot fail");
        }
        out.push_str("},\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"class\":\"{}\",\"at_ps\":{},\"detail\":\"{}\"}}",
                v.class.name(),
                v.at.as_ps(),
                json_escape(&v.detail)
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        out
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sanitizer: {} checks, {} violations ({}); {} injected, {} retired, {} in flight",
            self.total_checks(),
            self.total_violations(),
            if self.is_clean() { "clean" } else { "DIRTY" },
            self.injected,
            self.retired,
            self.in_flight,
        )?;
        for c in ViolationClass::ALL {
            writeln!(
                f,
                "  {:<17} checks={:<10} violations={}",
                c.name(),
                self.checks[c.index()],
                self.count_of(c)
            )?;
        }
        for v in &self.violations {
            writeln!(f, "  ! {v}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "  ... and {} more violations not stored", self.dropped)?;
        }
        Ok(())
    }
}

/// Minimal JSON string escaping: quotes, backslashes, and control
/// characters (the newlines of diagnostic dumps, user-set names).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                use std::fmt::Write as _;
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::spec::HmcSpec;
    use hmc_types::TimeDelta;

    fn armed() -> Sanitizer {
        let mut s = Sanitizer::new();
        s.enable(Some(HmcSpec::default().timing_floor()));
        s
    }

    #[test]
    fn disabled_sanitizer_records_nothing() {
        let mut s = Sanitizer::new();
        s.set_credit_pools(&[1]);
        s.credit_acquire(0, Time::ZERO);
        s.credit_acquire(0, Time::ZERO);
        s.credit_release(0, Time::ZERO);
        s.credit_release(0, Time::ZERO);
        s.note_inject(1, Time::ZERO);
        s.check_event_time(Time::from_ps(10));
        s.check_event_time(Time::from_ps(5));
        s.check_bank_access(0, BankOp::Read, Time::ZERO, Time::ZERO, Time::ZERO);
        s.check_drained(Time::ZERO);
        let r = s.report();
        assert!(r.is_clean());
        assert_eq!(r.total_checks(), 0);
    }

    #[test]
    fn legal_closed_page_schedule_is_clean() {
        let mut s = armed();
        let f = HmcSpec::default().timing_floor();
        let mut t = Time::ZERO;
        for _ in 0..5 {
            s.check_bank_access(
                3,
                BankOp::Read,
                t,
                t + f.read_access(),
                t + f.t_rc() + TimeDelta::from_ns(12),
            );
            t = t + f.t_rc() + TimeDelta::from_ns(12);
        }
        let r = s.report();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.checks_of(ViolationClass::DramTiming), 5);
    }

    #[test]
    fn short_bank_cycle_violates_timing() {
        let mut s = armed();
        let f = HmcSpec::default().timing_floor();
        // A cycle of tRAS alone (missing the precharge) is illegal.
        s.check_bank_access(0, BankOp::Read, Time::ZERO, Time::ZERO + f.read_access(), {
            Time::ZERO + f.t_ras
        });
        let r = s.report();
        assert_eq!(r.count_of(ViolationClass::DramTiming), 1);
        assert!(r.violations()[0].detail.contains("cycle"));
    }

    #[test]
    fn overlapping_accesses_and_fast_reactivation_flagged() {
        let mut s = armed();
        let f = HmcSpec::default().timing_floor();
        s.check_bank_access(
            7,
            BankOp::Read,
            Time::ZERO,
            Time::ZERO + f.read_access(),
            Time::ZERO + f.t_rc(),
        );
        // Second ACT long before the bank freed: overlap, tRC spacing, and
        // tCCD spacing (column commands 1 ns apart) all fire.
        s.check_bank_access(
            7,
            BankOp::Read,
            Time::from_ps(1_000),
            Time::from_ps(1_000) + f.read_access(),
            Time::from_ps(1_000) + f.t_rc(),
        );
        let r = s.report();
        assert_eq!(r.count_of(ViolationClass::DramTiming), 3);
    }

    #[test]
    fn early_data_violates_trcd_tcl() {
        let mut s = armed();
        let f = HmcSpec::default().timing_floor();
        s.check_bank_access(
            1,
            BankOp::Read,
            Time::ZERO,
            Time::from_ps(1_000), // far below the 50 ns floor
            Time::ZERO + f.t_rc(),
        );
        let r = s.report();
        assert_eq!(r.count_of(ViolationClass::DramTiming), 1);
        assert!(r.violations()[0].detail.contains("data"));
    }

    #[test]
    fn credit_ledger_catches_overflow_and_underflow() {
        let mut s = armed();
        s.set_credit_pools(&[2, 2]);
        s.credit_acquire(0, Time::ZERO);
        s.credit_acquire(0, Time::ZERO);
        s.credit_acquire(0, Time::ZERO); // over the pool
        let r = s.report();
        assert_eq!(r.count_of(ViolationClass::CreditOverflow), 1);
        s.credit_release(1, Time::ZERO); // never acquired on link 1
        let r = s.report();
        assert_eq!(r.count_of(ViolationClass::CreditUnderflow), 1);
        assert_eq!(s.credits_in_use()[0], 3);
    }

    #[test]
    fn balanced_credits_are_clean() {
        let mut s = armed();
        s.set_credit_pools(&[32]);
        for _ in 0..1_000 {
            s.credit_acquire(0, Time::ZERO);
            s.credit_release(0, Time::ZERO);
        }
        assert!(s.report().is_clean());
        assert_eq!(s.credits_in_use()[0], 0);
    }

    #[test]
    fn conservation_ledger_tracks_inject_and_retire() {
        let mut s = armed();
        s.note_inject(1, Time::ZERO);
        s.note_inject(2, Time::ZERO);
        assert_eq!(s.in_flight_count(), 2);
        s.note_retire(1, Time::from_ps(10));
        s.check_drained(Time::from_ps(20));
        let r = s.report();
        assert_eq!(r.count_of(ViolationClass::Conservation), 1);
        assert!(r.violations()[0].detail.contains("in flight at drain"));
        assert_eq!(r.injected(), 2);
        assert_eq!(r.retired(), 1);
        assert_eq!(r.in_flight(), 1);
    }

    #[test]
    fn duplicate_inject_and_unknown_retire_flagged() {
        let mut s = armed();
        s.note_inject(5, Time::ZERO);
        s.note_inject(5, Time::ZERO);
        s.note_retire(99, Time::ZERO);
        let r = s.report();
        assert_eq!(r.count_of(ViolationClass::Conservation), 2);
    }

    #[test]
    fn time_order_and_queue_bound() {
        let mut s = armed();
        s.check_event_time(Time::from_ps(100));
        s.check_event_time(Time::from_ps(100)); // equal is fine
        s.check_event_time(Time::from_ps(50)); // backwards
        s.check_queue_bound("device events", 10, 100, Time::ZERO);
        s.check_queue_bound("device events", 200, 100, Time::ZERO);
        let r = s.report();
        assert_eq!(r.count_of(ViolationClass::TimeOrder), 1);
        assert_eq!(r.count_of(ViolationClass::QueueBound), 1);
    }

    #[test]
    fn violation_cap_counts_overflow() {
        let mut s = armed();
        for i in 0..(MAX_VIOLATIONS as u64 + 10) {
            s.note_retire(i, Time::ZERO); // every one unknown
        }
        let r = s.report();
        assert_eq!(r.violations().len(), MAX_VIOLATIONS);
        assert_eq!(r.total_violations(), MAX_VIOLATIONS as u64 + 10);
        assert!(!r.is_clean());
    }

    #[test]
    fn reports_merge_and_export_json() {
        let mut a = armed();
        a.note_inject(1, Time::ZERO);
        let mut b = armed();
        b.note_violation(
            ViolationClass::Watchdog,
            Time::from_ps(42),
            "no progress\nqueue dump: \"q0\"=3".to_string(),
        );
        let mut r = a.report();
        r.merge(&b.report());
        assert_eq!(r.total_violations(), 1);
        assert_eq!(r.in_flight(), 1);
        let json = r.to_json();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"class\":\"watchdog\""));
        assert!(json.contains("\\n"), "newlines escaped: {json}");
        assert!(json.contains("\\\"q0\\\""), "quotes escaped: {json}");
        assert!(!json.contains("\n\""), "raw newline leaked into JSON");
        let text = r.to_string();
        assert!(text.contains("DIRTY"));
        assert!(text.contains("watchdog"));
    }
}
