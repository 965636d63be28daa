//! The cycle-level out-of-order core model.
//!
//! A trace-driven engine modelling the Table-I pipeline: N-wide fetch/decode
//! gated by the L1I and branch prediction, dispatch into ROB/IQ/LQ/SB,
//! dataflow issue over load/store/ALU ports, a load-store queue with
//! store-to-load forwarding and memory-order-violation detection, optional
//! speculative memory bypassing, in-order commit with predictor training,
//! and post-commit store drain.
//!
//! ## Speculation model
//!
//! Loads consult the memory-dependence predictor at decode (Fig. 4):
//!
//! * **NoDependence** — issue as soon as the address operands are ready.
//! * **Dependence(d)** — additionally wait until the store `d` back has
//!   issued (stores issue when address *and* data are ready, §V), then
//!   forward from it.
//! * **Bypass(d)** — dependents receive the store's data one cycle after
//!   the store issues, without waiting for the load; the load still
//!   executes to verify the speculation (value/address check, §V).
//!
//! A load that executes while its true in-flight source store is still
//! unissued reads stale data; when that store issues, the load and all
//! younger micro-ops are squashed and re-fetched, and the re-fetched load
//! executes conservatively (waits for all prior stores; never bypasses) to
//! guarantee forward progress. Failed bypasses squash at verification time.
//!
//! Because the engine is trace-driven, squash/replay re-decodes the same
//! micro-ops; speculative global history is rewound to the architectural
//! path on every squash (both for the MDP predictor and the TAGE branch
//! predictor), exactly as checkpointed history restoration would behave.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mascot::history::{BranchEvent, BranchKind};
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPredictor, MemDepPrediction, ObservedDependence,
    PredictReq, StoreDistance,
};

use crate::branch::TagePredictor;
use crate::cache::Hierarchy;
use crate::config::CoreConfig;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::stats::SimStats;
use crate::uop::{Trace, TraceDep, Uop, UopKind, UopSlice};

/// Cycles without a commit after which the engine declares a hang.
const WATCHDOG_CYCLES: u64 = 500_000;
/// Branch events retained for history rewind (covers the longest predictor
/// history with slack).
const REWIND_WINDOW: usize = 320;
/// Retained branch events at which the log drops what no squash can read.
const BRANCH_LOG_TRIM_AT: usize = 4 * REWIND_WINDOW;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Dispatched, waiting for operands.
    Waiting,
    /// Operands ready, waiting for a port.
    Ready,
    /// Executing.
    Issued,
    /// Finished; eligible for commit.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    ValueReady,
    Complete,
}

/// How a load obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Cache,
    Forwarded,
    Bypassed,
}

#[derive(Debug)]
struct LoadInfo<M> {
    prediction: MemDepPrediction,
    meta: Option<M>,
    /// True when the bypass datapath was actually engaged.
    effective_bypass: bool,
    /// Set at issue: whether an engaged bypass delivered the right value.
    bypass_wrong: bool,
    /// Completion is deferred until the bypass value arrives.
    awaiting_bypass_value: bool,
    outcome: LoadOutcome,
    served: Served,
}

#[derive(Debug)]
enum Payload<M> {
    Alu,
    Branch,
    Load(Box<LoadInfo<M>>),
    Store { store_seq: u64 },
}

/// Which issue-port class a micro-op competes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortClass {
    Store,
    Load,
    Alu,
}

impl<M> Payload<M> {
    fn port_class(&self) -> PortClass {
        match self {
            Payload::Store { .. } => PortClass::Store,
            Payload::Load(_) => PortClass::Load,
            Payload::Alu | Payload::Branch => PortClass::Alu,
        }
    }
}

#[derive(Debug)]
struct RobEntry<M> {
    id: u64,
    trace_idx: usize,
    dispatch_cycle: u64,
    issue_cycle: u64,
    state: State,
    deps_remaining: u32,
    dependents: Vec<u64>,
    value_ready_at: Option<u64>,
    complete_at: Option<u64>,
    has_load_producer: bool,
    dst: Option<u8>,
    branch_log_len: usize,
    store_count_at_dispatch: u64,
    payload: Payload<M>,
}

#[derive(Debug)]
struct SbEntry {
    store_seq: u64,
    pc: u64,
    addr: u64,
    issued: bool,
    /// Commit cycle, once retired (drain eligibility is delayed from here).
    committed_at: Option<u64>,
    /// Loads stalled on this store's issue (MDP waits + conservative).
    waiting_loads: Vec<u64>,
    /// Bypassed loads whose value this store provides.
    bypass_waiters: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
enum SquashReason {
    MemoryOrder,
    BypassFail,
}

/// A deliberately injected engine defect, used to exercise the audit layer
/// (`Simulator::with_audit`, `crates/audit`). Each variant disables one
/// bookkeeping step the cycle auditor is supposed to catch; production runs
/// never set one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `squash_from` keeps flushed load ids in the memory-order violation
    /// table (a skipped LQ invalidation).
    SkipViolationPurge,
    /// `squash_from` leaves flushed `Ready` micro-ops in the ready masks.
    SkipReadyMaskPurge,
    /// `commit_load` drops the served-path accounting for forwarded loads.
    SkipServedAccounting,
}

/// Age-ordered ready bitmap: one bit per in-flight micro-op.
///
/// Ids are mapped to bits by `id & mask` with a power-of-two capacity of at
/// least `rob_entries`, so the ids in flight (a contiguous window no wider
/// than the ROB) never collide. Insert/remove are single bit operations and
/// the issue stage recovers the oldest ready ids with a short word scan —
/// no ordered-set node allocation or pointer chasing on the per-cycle path.
#[derive(Debug)]
struct ReadyMask {
    words: Vec<u64>,
    mask: u64,
    /// Number of set bits: lets the issue stage skip the word scan outright
    /// on the (common, in memory-bound phases) nothing-ready cycles.
    count: u32,
}

impl ReadyMask {
    fn new(rob_entries: usize) -> Self {
        let cap = rob_entries.next_power_of_two().max(64);
        Self {
            words: vec![0; cap / 64],
            mask: cap as u64 - 1,
            count: 0,
        }
    }

    #[inline]
    fn insert(&mut self, id: u64) {
        let b = (id & self.mask) as usize;
        let bit = 1u64 << (b % 64);
        debug_assert_eq!(self.words[b / 64] & bit, 0, "ready ids are unique");
        self.words[b / 64] |= bit;
        self.count += 1;
    }

    #[inline]
    fn remove(&mut self, id: u64) {
        let b = (id & self.mask) as usize;
        let bit = 1u64 << (b % 64);
        debug_assert_ne!(self.words[b / 64] & bit, 0, "removing a present id");
        self.words[b / 64] &= !bit;
        self.count -= 1;
    }

    /// Membership test (audit path; not used by the issue loop).
    #[inline]
    fn contains(&self, id: u64) -> bool {
        let b = (id & self.mask) as usize;
        self.words[b / 64] & (1u64 << (b % 64)) != 0
    }

    fn len(&self) -> u32 {
        self.count
    }

    /// Appends up to `k` ready ids to `out`, oldest first, where `front` is
    /// the oldest id that can possibly be in the mask (the ROB head).
    fn pick_oldest(&self, front: u64, k: usize, out: &mut Vec<u64>) {
        if k == 0 || self.count == 0 {
            return;
        }
        let k = k.min(self.count as usize);
        let nw = self.words.len();
        // Both the word count and the bit capacity are powers of two (see
        // `new`), so the wraps below are masks rather than divides.
        let (word_mask, bit_mask) = (nw - 1, self.mask as usize);
        let start = (front & self.mask) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let mut taken = 0;
        // One lap around the circular window: the start word's upper bits,
        // the following words, then the start word's lower (wrapped) bits.
        for step in 0..=nw {
            let wi = (sw + step) & word_mask;
            let mut w = self.words[wi];
            if step == 0 {
                w &= !0u64 << sb;
            } else if step == nw {
                if sb == 0 {
                    break;
                }
                w &= !(!0u64 << sb);
            }
            while w != 0 {
                let b = wi * 64 + w.trailing_zeros() as usize;
                out.push(front + (b.wrapping_sub(start) & bit_mask) as u64);
                taken += 1;
                if taken == k {
                    return;
                }
                w &= w - 1;
            }
        }
    }
}

/// Calendar-style event queue (timing wheel).
///
/// Every schedule distance in the engine is bounded: ALU latencies fit in a
/// byte, and memory completions from [`Hierarchy::access_data`] land within
/// `memory_latency` cycles (in-flight fills were started at an earlier
/// cycle, so a merged completion is still within the bound of `now`). The
/// wheel is sized from the configuration to cover that bound, making
/// scheduling O(1) and per-cycle retrieval O(due events) instead of the
/// former binary heap's O(log n) per operation. Anything beyond the bound
/// (defensive; unreachable with a validated configuration) spills into a
/// small heap consulted once per cycle.
#[derive(Debug)]
struct EventWheel {
    /// `slots[c & mask]` holds the `(id, kind)` events due at cycle `c`.
    /// The strict `delta <= mask` push bound guarantees a slot never mixes
    /// cycles.
    slots: Vec<Vec<(u64, u8)>>,
    mask: u64,
    overflow: BinaryHeap<Reverse<(u64, u64, u8)>>,
}

impl EventWheel {
    fn new(max_delta: u64) -> Self {
        let len = (max_delta + 2).next_power_of_two().max(64) as usize;
        Self {
            slots: vec![Vec::new(); len],
            mask: len as u64 - 1,
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn push(&mut self, now: u64, cycle: u64, id: u64, kind: u8) {
        // A hard error, not a debug_assert: a same-cycle push would land in
        // the slot `process_events` has already drained this cycle, so the
        // event would silently fire a whole wheel revolution late — a
        // timing corruption far harder to diagnose than this panic.
        assert!(
            cycle > now,
            "events fire strictly in the future (scheduled cycle {cycle} at now {now})"
        );
        if cycle - now <= self.mask {
            self.slots[(cycle & self.mask) as usize].push((id, kind));
        } else {
            self.overflow.push(Reverse((cycle, id, kind)));
        }
    }

    /// Takes the events due at `now`, sorted by `(id, kind)` — the delivery
    /// order of the binary heap this wheel replaced, which the golden-stats
    /// snapshot pins. Return the buffer via [`EventWheel::restore`].
    fn take_due(&mut self, now: u64) -> Vec<(u64, u8)> {
        let mut due = std::mem::take(&mut self.slots[(now & self.mask) as usize]);
        while let Some(&Reverse((cycle, id, kind))) = self.overflow.peek() {
            if cycle > now {
                break;
            }
            self.overflow.pop();
            due.push((id, kind));
        }
        if due.len() > 1 {
            due.sort_unstable();
        }
        due
    }

    /// Hands the drained `take_due` buffer back to its slot so the
    /// allocation is reused on the next lap around the wheel.
    fn restore(&mut self, now: u64, mut buf: Vec<(u64, u8)>) {
        buf.clear();
        self.slots[(now & self.mask) as usize] = buf;
    }
}

/// Recognizes every multiple of a period on a counter that advances one at
/// a time, by comparing against the next multiple rather than dividing on
/// every check.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    /// The period; 0 when unset.
    period: u64,
    /// The next multiple to recognize.
    next: u64,
}

impl Boundary {
    /// A boundary that never fires.
    const NEVER: Self = Self {
        period: 0,
        next: u64::MAX,
    };

    /// Fires at `period`, `2 * period`, ...
    fn every(period: u64) -> Self {
        Self {
            period,
            next: period,
        }
    }

    fn is_set(&self) -> bool {
        self.period > 0
    }

    /// Whether `count` is the next multiple of the period, moving on to
    /// the one after it if so. The counter must visit every value.
    #[inline]
    fn crossed(&mut self, count: u64) -> bool {
        let hit = count == self.next;
        if hit {
            self.next = self.next.saturating_add(self.period);
        }
        hit
    }
}

/// The simulation engine. Construct with [`Simulator::new`] and drive with
/// [`Simulator::run`], or use the [`simulate`] convenience function.
pub struct Simulator<'a, P: MemDepPredictor> {
    trace: &'a Trace,
    cfg: &'a CoreConfig,
    pred: &'a mut P,
    bp: TagePredictor,
    mem: Hierarchy,

    now: u64,
    fetch_idx: usize,
    fetch_resume_at: u64,
    pending_redirect: Option<u64>,

    rob: VecDeque<RobEntry<P::Meta>>,
    next_id: u64,
    iq_count: u32,
    lq_count: u32,
    sb: VecDeque<SbEntry>,
    store_seq_next: u64,

    reg_writer: [Option<u64>; 64],
    /// Ready micro-ops, partitioned by port class so the issue stage only
    /// ever looks at the oldest port-width candidates of each class instead
    /// of scanning the whole ready window.
    ready_stores: ReadyMask,
    ready_loads: ReadyMask,
    ready_alus: ReadyMask,
    events: EventWheel,
    /// Issue-stage scratch, reused every cycle: this cycle's issue
    /// candidates (at most one port-width per class).
    scratch_issue: Vec<u64>,
    /// Dispatch-stage scratch for batched prediction of consecutive loads.
    batch_reqs: Vec<PredictReq>,
    batch_out: Vec<(MemDepPrediction, P::Meta)>,
    /// Recycled `Vec` allocations for dependent/waiter lists, and recycled
    /// `LoadInfo` boxes: the per-uop bookkeeping otherwise costs a handful
    /// of allocator round-trips per dispatched micro-op.
    list_pool: Vec<Vec<u64>>,
    load_pool: Vec<Box<LoadInfo<P::Meta>>>,
    /// store_seq → executed-stale loads awaiting that store's issue.
    violations: FxHashMap<u64, Vec<u64>>,
    pending_squashes: Vec<(u64, SquashReason)>,
    /// Trace indices that must replay conservatively after a squash.
    conservative: FxHashSet<usize>,
    /// Dependence observed by a squashed load instance, merged into the
    /// committed instance's training record when the replay no longer sees
    /// the (since-drained) store — the violation information a hardware LSQ
    /// snoop reports.
    replay_outcome: FxHashMap<usize, ObservedDependence>,

    /// The retained tail of the dispatched branch path: a squash rewinds
    /// the predictors to the last [`REWIND_WINDOW`] events before its
    /// victim, so older events are dropped (see `push_branch`).
    branch_log: Vec<BranchEvent>,
    /// Absolute path position of `branch_log[0]`; `RobEntry::branch_log_len`
    /// counts from the start of the run.
    branch_log_base: usize,
    committed: u64,
    last_commit_cycle: u64,
    stats: SimStats,
    /// When set, the commit stage records a [`SimStats`] snapshot every
    /// time the committed-uop count crosses a multiple of this period —
    /// a pure observation that never perturbs pipeline timing (see
    /// [`run_interval_deltas`](Self::run_interval_deltas)).
    interval: Boundary,
    interval_snaps: Vec<SimStats>,
    /// Every multiple of this many cycles, the predictor's
    /// `end_tuning_period` is called (§IV-F); unset disables periodic
    /// tuning snapshots.
    tuning: Boundary,

    /// Run the cycle auditor (`audit_cycle`) after every step. One
    /// predictable branch per cycle when disabled.
    audit: bool,
    /// Injected defect for audit-layer testing; `None` in production.
    fault: Option<Fault>,
    /// Micro-ops that entered the ROB (audit accounting only).
    audit_dispatched: u64,
    /// Micro-ops flushed by squashes (audit accounting only).
    audit_squashed: u64,
}

impl<P: MemDepPredictor> std::fmt::Debug for Simulator<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("trace", &self.trace.name)
            .field("cycle", &self.now)
            .field("committed", &self.committed)
            .field("fetch_idx", &self.fetch_idx)
            .field("rob_occupancy", &self.rob.len())
            .finish_non_exhaustive()
    }
}

impl<'a, P: MemDepPredictor> Simulator<'a, P> {
    /// Creates an engine over a trace, core configuration and predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(trace: &'a Trace, cfg: &'a CoreConfig, pred: &'a mut P) -> Self {
        cfg.validate().expect("invalid core configuration");
        Self {
            trace,
            cfg,
            pred,
            bp: TagePredictor::default(),
            mem: Hierarchy::new(cfg),
            now: 0,
            fetch_idx: 0,
            fetch_resume_at: 0,
            pending_redirect: None,
            rob: VecDeque::with_capacity(cfg.rob_entries as usize),
            next_id: 0,
            iq_count: 0,
            lq_count: 0,
            sb: VecDeque::with_capacity(cfg.sb_entries as usize),
            store_seq_next: 0,
            reg_writer: [None; 64],
            ready_stores: ReadyMask::new(cfg.rob_entries as usize),
            ready_loads: ReadyMask::new(cfg.rob_entries as usize),
            ready_alus: ReadyMask::new(cfg.rob_entries as usize),
            events: EventWheel::new(
                // ALU latencies are a byte; memory completions are bounded
                // by the slowest level of the hierarchy.
                255u64
                    .max(u64::from(cfg.memory_latency))
                    .max(u64::from(cfg.l1d.hit_latency))
                    .max(u64::from(cfg.l2.hit_latency))
                    .max(u64::from(cfg.l3.hit_latency)),
            ),
            scratch_issue: Vec::new(),
            batch_reqs: Vec::new(),
            batch_out: Vec::new(),
            list_pool: Vec::new(),
            load_pool: Vec::new(),
            violations: FxHashMap::default(),
            pending_squashes: Vec::new(),
            conservative: FxHashSet::default(),
            replay_outcome: FxHashMap::default(),
            branch_log: Vec::new(),
            branch_log_base: 0,
            committed: 0,
            last_commit_cycle: 0,
            stats: SimStats::default(),
            interval: Boundary::NEVER,
            interval_snaps: Vec::new(),
            tuning: Boundary::NEVER,
            audit: false,
            fault: None,
            audit_dispatched: 0,
            audit_squashed: 0,
        }
    }

    /// Enables periodic predictor tuning snapshots every `cycles` cycles
    /// (the paper records F1 scores every 1 M cycles on 100 M-instruction
    /// SimPoints; scale proportionally for shorter traces).
    pub fn with_tuning_period(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "tuning period must be non-zero");
        self.tuning = Boundary::every(cycles);
        self
    }

    /// Enables the cycle auditor: after every cycle the full set of engine
    /// invariants (ROB id/age ordering, LQ/SB ↔ ROB consistency, ready-mask
    /// agreement, accounting identities) is validated and any violation
    /// panics with a description — in release builds too. Costs O(window)
    /// work per cycle; leave disabled for performance runs.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Injects a deliberate engine defect (audit-layer testing only).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables per-tenant misprediction attribution (DESIGN.md §12): loads
    /// with `pc < boundary` count toward [`SimStats::victim`], the rest
    /// toward [`SimStats::attacker`]. The adversarial traces place the
    /// attacker at `mascot_workloads::adversarial::TENANT_BOUNDARY`.
    ///
    /// # Panics
    ///
    /// Panics if `boundary` is zero (zero means "disabled" in the stats).
    pub fn with_tenant_split(mut self, boundary: u64) -> Self {
        assert!(boundary > 0, "tenant boundary must be non-zero");
        self.stats.tenant_boundary = boundary;
        self
    }

    /// Runs the simulation to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the engine makes no forward progress for
    /// `WATCHDOG_CYCLES` cycles (an engine bug, not a workload property).
    pub fn run(mut self) -> SimStats {
        self.run_to_end()
    }

    /// [`run`](Self::run) minus the consuming signature: drives the engine
    /// to completion, performs end-of-run finalisation and returns the
    /// final statistics, leaving `self` alive so callers can still read
    /// fields populated during the run (interval snapshots).
    fn run_to_end(&mut self) -> SimStats {
        self.run_until_committed(self.trace.len() as u64);
        if self.tuning.is_set() {
            self.pred.end_tuning_period(); // flush the final partial period
        }
        self.stats.cycles = self.now.max(1);
        self.stats.branch_mispredicts = self.bp.stats.cond_mispredicts;
        self.stats.indirect_mispredicts = self.bp.stats.indirect_mispredicts;
        self.stats.l1i_misses = self.mem.l1i.stats.misses;
        self.stats.l1d_misses = self.mem.l1d.stats.misses;
        self.stats.l2_misses = self.mem.l2.stats.misses;
        self.stats.l3_misses = self.mem.l3.stats.misses;
        if self.audit {
            self.audit_final();
        }
        self.stats.clone()
    }

    /// Steps the engine until at least `target` micro-ops have committed
    /// (clamped to the trace length). The pipeline is left live — uops past
    /// the boundary may already be in flight — so the engine can resume
    /// from exactly this point, which is what the sampled-simulation entry
    /// points below build on.
    fn run_until_committed(&mut self, target: u64) {
        let target = target.min(self.trace.len() as u64);
        while self.committed < target {
            self.step();
            assert!(
                self.now - self.last_commit_cycle < WATCHDOG_CYCLES,
                "no commit for {WATCHDOG_CYCLES} cycles at cycle {} \
                 (committed {}/{}, fetch_idx {}, rob {} entries)",
                self.now,
                self.committed,
                self.trace.len(),
                self.fetch_idx,
                self.rob.len()
            );
        }
    }

    /// The statistics as they stand at the current cycle, with the fields
    /// that [`run`](Self::run) normally derives at the end (cycle count,
    /// branch and cache-miss totals) filled in from live state — a valid
    /// subtrahend for [`SimStats::delta_since`].
    fn stats_snapshot(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.now;
        s.branch_mispredicts = self.bp.stats.cond_mispredicts;
        s.indirect_mispredicts = self.bp.stats.indirect_mispredicts;
        s.l1i_misses = self.mem.l1i.stats.misses;
        s.l1d_misses = self.mem.l1d.stats.misses;
        s.l2_misses = self.mem.l2.stats.misses;
        s.l3_misses = self.mem.l3.stats.misses;
        s
    }

    /// Runs to completion like [`run`](Self::run) but returns statistics
    /// for the *measured window only*: everything committed after the first
    /// `warmup_uops` commits. The warm-up primes predictor tables, branch
    /// history and the cache hierarchy without polluting the measurement —
    /// the representative-interval entry point of sampled simulation
    /// (DESIGN.md §13).
    ///
    /// The boundary snapshot is taken *inside* the commit stage the instant
    /// the count crosses `warmup_uops` — not after the enclosing cycle —
    /// so the measured delta covers exactly `trace.len() - warmup_uops`
    /// commits even when the commit stage retires several uops per cycle.
    /// (A post-cycle snapshot can overshoot by a commit-width, which on a
    /// short tail window would swallow the entire measurement.)
    ///
    /// # Panics
    ///
    /// Panics if `warmup_uops` covers the whole trace: there would be
    /// nothing left to measure.
    pub fn run_measured(mut self, warmup_uops: u64) -> SimStats {
        assert!(
            warmup_uops < self.trace.len() as u64,
            "warm-up ({warmup_uops} uops) covers the whole {}-uop window",
            self.trace.len()
        );
        if warmup_uops == 0 {
            return self.run_to_end();
        }
        self.interval = Boundary::every(warmup_uops);
        let total = self.run_to_end();
        // The commit-stage hook fires at every multiple of `warmup_uops`;
        // the first snapshot is the exact warm boundary.
        let warm = std::mem::take(&mut self.interval_snaps)
            .into_iter()
            .next()
            .expect("commit hook must have fired at the warm boundary");
        total.delta_since(&warm)
    }

    /// Adopts a [`FunctionalWarmer`]'s architectural state: cache
    /// hierarchy, branch predictor and store-sequence counter. The
    /// memory-dependence predictor is *not* copied (the simulator borrows
    /// it): construct the engine around a clone of
    /// [`FunctionalWarmer::predictor`] instead. Must precede the first
    /// cycle.
    pub fn seed_from_warmer(&mut self, warmer: &FunctionalWarmer<P>) {
        assert_eq!(self.now, 0, "warm-state restore must precede the run");
        assert_eq!(self.committed, 0, "warm-state restore must precede the run");
        self.mem = warmer.mem.clone();
        self.bp = warmer.bp.clone();
        self.store_seq_next = warmer.store_seq_next;
    }

    /// Runs to completion, returning one [`SimStats`] delta per
    /// `interval_uops`-commit interval (the last interval may be partial).
    /// Snapshots are taken *inside* the commit stage the instant the
    /// committed count crosses each boundary — pure observations that never
    /// alter pipeline timing — so each delta covers exactly `interval_uops`
    /// commits and the deltas telescope: accumulating them reproduces the
    /// unconstrained full run's statistics bit-exactly, which is what pins
    /// the sampled-simulation projection math (see `mascot-sampling`).
    ///
    /// # Panics
    ///
    /// Panics if `interval_uops` is zero.
    pub fn run_interval_deltas(mut self, interval_uops: u64) -> Vec<SimStats> {
        assert!(interval_uops > 0, "interval size must be non-zero");
        self.interval = Boundary::every(interval_uops);
        let total = self.run_to_end();
        let mut snaps = std::mem::take(&mut self.interval_snaps);
        if (self.trace.len() as u64).is_multiple_of(interval_uops) {
            // The final boundary coincides with the end of the trace; the
            // finalised totals stand in for that snapshot (same counters,
            // plus the end-of-run cycle accounting).
            snaps.pop();
        }
        let mut out = Vec::with_capacity(snaps.len() + 1);
        let mut prev = SimStats::default();
        for snap in snaps {
            out.push(snap.delta_since(&prev));
            prev = snap;
        }
        out.push(total.delta_since(&prev));
        out
    }

    fn step(&mut self) {
        self.process_events();
        self.issue();
        self.apply_squashes();
        self.commit();
        self.drain_stores();
        self.dispatch();
        self.now += 1;
        if self.tuning.crossed(self.now) {
            self.pred.end_tuning_period();
        }
        if self.audit {
            self.audit_cycle();
        }
    }

    // ---------------------------------------------------------- lookup

    fn pos_of(&self, id: u64) -> Option<usize> {
        // ROB ids are contiguous `front.id .. front.id + len`: dispatch
        // allocates them in order, commit pops the front, and a squash
        // truncates the tail *and rewinds the allocator* (see
        // `squash_from`), so the position is a subtraction, not a search.
        let front = self.rob.front()?.id;
        let idx = id.checked_sub(front)? as usize;
        if idx < self.rob.len() {
            debug_assert_eq!(self.rob[idx].id, id);
            Some(idx)
        } else {
            None
        }
    }

    fn entry(&self, id: u64) -> Option<&RobEntry<P::Meta>> {
        self.pos_of(id).map(|i| &self.rob[i])
    }

    fn entry_mut(&mut self, id: u64) -> Option<&mut RobEntry<P::Meta>> {
        self.pos_of(id).map(move |i| &mut self.rob[i])
    }

    fn sb_pos(&self, store_seq: u64) -> Option<usize> {
        let front = self.sb.front()?.store_seq;
        if store_seq < front {
            return None;
        }
        let idx = (store_seq - front) as usize;
        (idx < self.sb.len()).then_some(idx)
    }

    // ---------------------------------------------------------- recycling

    /// Returns a retired/flushed entry's heap allocations to the pools.
    fn recycle_entry(&mut self, e: RobEntry<P::Meta>) {
        self.recycle_list(e.dependents);
        if let Payload::Load(mut info) = e.payload {
            info.meta = None;
            self.load_pool.push(info);
        }
    }

    fn recycle_sb(&mut self, s: SbEntry) {
        self.recycle_list(s.waiting_loads);
        self.recycle_list(s.bypass_waiters);
    }

    #[inline]
    fn recycle_list(&mut self, mut v: Vec<u64>) {
        if v.capacity() > 0 {
            v.clear();
            self.list_pool.push(v);
        }
    }

    #[inline]
    fn fresh_list(&mut self) -> Vec<u64> {
        self.list_pool.pop().unwrap_or_default()
    }

    // ---------------------------------------------------------- events

    fn schedule(&mut self, cycle: u64, id: u64, kind: EventKind) {
        self.events.push(self.now, cycle, id, kind as u8);
    }

    fn process_events(&mut self) {
        // Handlers never schedule new events (all scheduling happens in the
        // issue and dispatch stages, strictly in the future), so the due
        // list is complete when taken.
        let due = self.events.take_due(self.now);
        for &(id, kind) in &due {
            if kind == EventKind::ValueReady as u8 {
                self.on_value_ready(id);
            } else {
                self.on_complete(id);
            }
        }
        self.events.restore(self.now, due);
    }

    fn on_value_ready(&mut self, id: u64) {
        let Some(pos) = self.pos_of(id) else { return };
        if self.rob[pos].value_ready_at != Some(self.now) {
            return; // stale event
        }
        let dependents = std::mem::take(&mut self.rob[pos].dependents);
        for &dep in &dependents {
            self.satisfy_dependency(dep);
        }
        self.recycle_list(dependents);
    }

    fn ready_class(&mut self, class: PortClass) -> &mut ReadyMask {
        match class {
            PortClass::Store => &mut self.ready_stores,
            PortClass::Load => &mut self.ready_loads,
            PortClass::Alu => &mut self.ready_alus,
        }
    }

    fn satisfy_dependency(&mut self, id: u64) {
        let Some(e) = self.entry_mut(id) else { return };
        debug_assert!(e.deps_remaining > 0);
        e.deps_remaining -= 1;
        if e.deps_remaining == 0 && e.state == State::Waiting {
            e.state = State::Ready;
            let class = e.payload.port_class();
            self.ready_class(class).insert(id);
        }
    }

    fn on_complete(&mut self, id: u64) {
        let Some(pos) = self.pos_of(id) else { return };
        let e = &mut self.rob[pos];
        if e.complete_at != Some(self.now) || e.state != State::Issued {
            return; // stale event
        }
        // A bypassed load may complete execution before its bypass value
        // arrives; commit must wait for the value.
        if let Payload::Load(info) = &mut e.payload {
            if info.effective_bypass && e.value_ready_at.is_none_or(|v| v > self.now) {
                info.awaiting_bypass_value = true;
                e.complete_at = None;
                return;
            }
        }
        e.state = State::Done;
        // Failed bypass: squash at verification.
        if let Payload::Load(info) = &e.payload {
            if info.effective_bypass && info.bypass_wrong {
                self.pending_squashes.push((id, SquashReason::BypassFail));
            }
        }
        // Mispredicted branch resolution lifts the frontend stall.
        if self.pending_redirect == Some(id) {
            self.pending_redirect = None;
            self.fetch_resume_at = self.now + u64::from(self.cfg.redirect_penalty);
        }
    }

    // ---------------------------------------------------------- issue

    fn issue(&mut self) {
        // Pick this cycle's candidates: the oldest port-width entries of
        // each class (the sets iterate in id = age order). Copying them to
        // scratch first keeps the sets free for `begin_issue` to mutate.
        // Store issue can wake *waiting* loads, but those enter the ready
        // sets only now and correctly sit out this cycle.
        // Nothing in flight means nothing ready.
        let front = match self.rob.front() {
            Some(e) => e.id,
            None => return,
        };
        let mut picks = std::mem::take(&mut self.scratch_issue);
        picks.clear();
        // All candidates are frozen before anything issues: a store issuing
        // this cycle may wake micro-ops waiting on it, and those become
        // eligible next cycle, not this one.
        self.ready_stores
            .pick_oldest(front, self.cfg.store_ports as usize, &mut picks);
        let loads_at = picks.len();
        self.ready_loads
            .pick_oldest(front, self.cfg.load_ports as usize, &mut picks);
        let alus_at = picks.len();
        self.ready_alus
            .pick_oldest(front, self.cfg.alu_ports as usize, &mut picks);

        // Stores issue first within a cycle so same-cycle loads can forward.
        for &id in &picks[..loads_at] {
            self.issue_store(id);
        }
        // A failed load issue (MSHR file full) stops the load stream for
        // the cycle and consumes no budget, so at most `load_ports`
        // candidates are ever examined.
        for &id in &picks[loads_at..alus_at] {
            if !self.issue_load(id) {
                break; // structural stall on the MSHR file: retry next cycle
            }
        }
        for &id in &picks[alus_at..] {
            self.issue_alu(id);
        }

        self.scratch_issue = picks;
    }

    fn begin_issue(&mut self, id: u64) {
        self.iq_count -= 1;
        let now = self.now;
        let e = self.entry_mut(id).expect("issuing entry exists");
        debug_assert_eq!(e.state, State::Ready);
        e.state = State::Issued;
        e.issue_cycle = now;
        let class = e.payload.port_class();
        self.ready_class(class).remove(id);
    }

    fn finish_issue(&mut self, id: u64, complete: u64, value_ready: Option<u64>) {
        let e = self.entry_mut(id).expect("issued entry exists");
        e.complete_at = Some(complete);
        if let Some(v) = value_ready {
            e.value_ready_at = Some(v);
            self.schedule(v, id, EventKind::ValueReady);
        }
        self.schedule(complete, id, EventKind::Complete);
    }

    fn issue_alu(&mut self, id: u64) {
        self.begin_issue(id);
        let e = self.entry(id).expect("entry exists");
        let latency = u64::from(self.trace.uops.latency(e.trace_idx).max(1));
        let done = self.now + latency;
        self.finish_issue(id, done, Some(done));
    }

    fn issue_store(&mut self, id: u64) {
        self.begin_issue(id);
        let (store_seq, trace_idx) = {
            let e = self.entry(id).expect("entry exists");
            match &e.payload {
                Payload::Store { store_seq } => (*store_seq, e.trace_idx),
                _ => unreachable!("issue_store on non-store"),
            }
        };
        let _ = trace_idx;
        let done = self.now + 1;
        self.finish_issue(id, done, Some(done));

        // Resolve the SB entry and wake everyone waiting on it.
        let Some(pos) = self.sb_pos(store_seq) else {
            return;
        };
        self.sb[pos].issued = true;
        let waiting = std::mem::take(&mut self.sb[pos].waiting_loads);
        let bypassers = std::mem::take(&mut self.sb[pos].bypass_waiters);
        for &load in &waiting {
            self.satisfy_dependency(load);
        }
        self.recycle_list(waiting);
        let value_at = self.now + 1;
        for &load in &bypassers {
            if let Some(e) = self.entry_mut(load) {
                e.value_ready_at = Some(value_at);
                let deliver_complete = match &mut e.payload {
                    Payload::Load(info) if info.awaiting_bypass_value => {
                        info.awaiting_bypass_value = false;
                        e.complete_at = Some(value_at);
                        e.state = State::Issued; // still issued; re-arm completion
                        true
                    }
                    _ => false,
                };
                self.schedule(value_at, load, EventKind::ValueReady);
                if deliver_complete {
                    self.schedule(value_at, load, EventKind::Complete);
                }
            }
        }
        self.recycle_list(bypassers);
        // Memory-order violations: stale loads younger than this store.
        if let Some(loads) = self.violations.remove(&store_seq) {
            if let Some(&victim) = loads.iter().min() {
                self.pending_squashes.push((victim, SquashReason::MemoryOrder));
            }
            self.recycle_list(loads);
        }
    }

    /// Issues a load; returns false when blocked on a full MSHR file.
    fn issue_load(&mut self, id: u64) -> bool {
        let (trace_idx, store_count) = {
            let e = self.entry(id).expect("entry exists");
            (e.trace_idx, e.store_count_at_dispatch)
        };
        let uop = self.trace.uops.get(trace_idx);
        let UopKind::Load { addr, dep, .. } = uop.kind else {
            unreachable!("issue_load on non-load")
        };
        let pc = uop.pc;

        // The observed in-flight dependence: the ground-truth source store,
        // if it is still in the store buffer.
        let inflight = dep.and_then(|d| {
            let seq = store_count.checked_sub(u64::from(d.distance))?;
            let pos = self.sb_pos(seq)?;
            Some((d, seq, pos))
        });

        let effective_bypass = {
            let e = self.entry(id).expect("entry exists");
            match &e.payload {
                Payload::Load(info) => info.effective_bypass,
                _ => unreachable!(),
            }
        };

        let completion;
        let mut served = Served::Cache;
        let mut outcome = LoadOutcome::independent();
        let mut register_violation = None;

        match inflight {
            Some((d, _seq, pos)) if self.sb[pos].issued => {
                // Store-to-load forwarding: SB searched in parallel with the
                // L1D, same latency (§V).
                completion = self.now + u64::from(self.cfg.l1d.hit_latency);
                served = Served::Forwarded;
                outcome = d.outcome();
            }
            Some((d, seq, _pos)) => {
                // The source store's address/data are unknown: the load
                // reads stale data. Squash fires when the store issues,
                // unless the bypass datapath supplied the value instead.
                let Some(done) = self.mem.access_data(pc, addr, self.now, false) else {
                    return false;
                };
                completion = done;
                outcome = d.outcome();
                if !effective_bypass {
                    register_violation = Some(seq);
                }
            }
            None => {
                let Some(done) = self.mem.access_data(pc, addr, self.now, false) else {
                    return false;
                };
                completion = done;
            }
        }

        self.begin_issue(id);
        if let Some(seq) = register_violation {
            self.violations.entry(seq).or_default().push(id);
        }

        // Bypass verification: correct iff the static ground truth names the
        // predicted store and the class is within the datapath's reach.
        let mut bypass_wrong = false;
        if effective_bypass {
            served = Served::Bypassed;
            let predicted = {
                let e = self.entry(id).expect("entry exists");
                match &e.payload {
                    Payload::Load(info) => info.prediction.distance(),
                    _ => unreachable!(),
                }
            };
            let ok = dep.is_some_and(|d| {
                StoreDistance::new(d.distance) == predicted
                    && (d.class.is_bypassable()
                        || (d.class == mascot::BypassClass::Offset
                            && self.pred.bypass_supports_offset()))
            });
            bypass_wrong = !ok;
        }

        {
            let e = self.entry_mut(id).expect("entry exists");
            if let Payload::Load(info) = &mut e.payload {
                info.outcome = outcome;
                info.served = served;
                info.bypass_wrong = bypass_wrong;
            }
        }
        let value_ready = if effective_bypass {
            None // scheduled by the bypassing store (or already at dispatch)
        } else {
            Some(completion)
        };
        self.finish_issue(id, completion, value_ready);
        true
    }

    // ---------------------------------------------------------- squash

    fn apply_squashes(&mut self) {
        if self.pending_squashes.is_empty() {
            return;
        }
        let squashes = std::mem::take(&mut self.pending_squashes);
        let &(victim, reason) = squashes
            .iter()
            .min_by_key(|s| s.0)
            .expect("checked non-empty");
        if self.pos_of(victim).is_none() {
            return; // already flushed by an earlier squash this cycle
        }
        match reason {
            SquashReason::MemoryOrder => self.stats.mem_order_squashes += 1,
            SquashReason::BypassFail => {
                self.stats.smb_squashes += 1;
                // A wrong bypass that squashes pre-commit replays
                // conservatively and usually commits demoted, so the
                // commit-time taxonomy alone would never see it; attribute
                // the false bypass to its tenant here, at the squash.
                let pos = self.pos_of(victim).expect("victim in ROB");
                let pc = self.trace.uops.pc(self.rob[pos].trace_idx);
                if let Some(t) = self.stats.tenant_mut(pc) {
                    t.false_bypasses += 1;
                }
            }
        }
        self.squash_from(victim);
    }

    /// Absolute path position one past the newest dispatched branch.
    fn branch_log_end(&self) -> usize {
        self.branch_log_base + self.branch_log.len()
    }

    /// Appends a dispatched branch to the log. Once the log holds
    /// [`BRANCH_LOG_TRIM_AT`] events, drops those older than the window
    /// before the ROB head: every squash victim is the head or younger, and
    /// position is monotonic in ROB order, so no squash reads them. Drops
    /// happen a window or more at a time, so the shift amortises.
    fn push_branch(&mut self, ev: BranchEvent) {
        if self.branch_log.len() >= BRANCH_LOG_TRIM_AT {
            let oldest = self
                .rob
                .front()
                .map_or(self.branch_log_end(), |e| e.branch_log_len);
            let drop = oldest.saturating_sub(REWIND_WINDOW) - self.branch_log_base;
            if drop >= REWIND_WINDOW {
                self.branch_log.drain(..drop);
                self.branch_log_base += drop;
            }
        }
        self.branch_log.push(ev);
    }

    fn squash_from(&mut self, victim: u64) {
        let vpos = self.pos_of(victim).expect("victim in ROB");
        let (trace_idx, branch_len, store_count) = {
            let v = &self.rob[vpos];
            (v.trace_idx, v.branch_log_len, v.store_count_at_dispatch)
        };
        // Preserve the violation information for the replayed instance's
        // training record (the store will usually have drained by then).
        if let Payload::Load(info) = &self.rob[vpos].payload {
            if let Some(dep) = info.outcome.dependence {
                self.replay_outcome.insert(trace_idx, dep);
            }
        }

        // Flush the victim and everything younger.
        while self.rob.len() > vpos {
            let e = self.rob.pop_back().expect("len > vpos");
            self.audit_squashed += 1;
            match &e.payload {
                Payload::Store { store_seq } => {
                    let back = self.sb.pop_back().expect("store has an SB entry");
                    debug_assert_eq!(back.store_seq, *store_seq);
                    self.recycle_sb(back);
                }
                Payload::Load(_) => self.lq_count -= 1,
                _ => {}
            }
            if matches!(e.state, State::Waiting | State::Ready) {
                self.iq_count -= 1;
            }
            if e.state == State::Ready && self.fault != Some(Fault::SkipReadyMaskPurge) {
                let class = e.payload.port_class();
                self.ready_class(class).remove(e.id);
            }
            self.recycle_entry(e);
        }

        // Rewind the id allocator so ROB ids stay contiguous (the O(1)
        // `pos_of` depends on it). Replayed micro-ops reuse the flushed
        // ids; in-flight events naming a flushed id are harmless against a
        // reused one: an event only acts when the entry's own
        // `value_ready_at`/`complete_at` matches the current cycle, and in
        // that case a genuine duplicate of the event exists anyway — the
        // handlers are idempotent (dependents are drained once, completion
        // flips Issued → Done once).
        self.next_id = victim;

        // Purge references to flushed micro-ops.
        for s in &mut self.sb {
            s.waiting_loads.retain(|&l| l < victim);
            s.bypass_waiters.retain(|&l| l < victim);
        }
        if self.fault != Some(Fault::SkipViolationPurge) {
            self.violations.retain(|_, loads| {
                loads.retain(|&l| l < victim);
                !loads.is_empty()
            });
        }
        for e in &mut self.rob {
            e.dependents.retain(|&d| d < victim);
        }
        if matches!(self.pending_redirect, Some(b) if b >= victim) {
            self.pending_redirect = None;
        }

        // Rebuild the rename map from the surviving window.
        self.reg_writer = [None; 64];
        for e in &self.rob {
            if let Some(dst) = e.dst {
                self.reg_writer[usize::from(dst)] = Some(e.id);
            }
        }

        // Rewind the speculative path.
        self.fetch_idx = trace_idx;
        self.store_seq_next = store_count;
        self.branch_log.truncate(branch_len - self.branch_log_base);
        let tail_start = branch_len.saturating_sub(REWIND_WINDOW) - self.branch_log_base;
        self.pred.rewind_history(&self.branch_log[tail_start..]);
        self.bp.rewind_history(&self.branch_log[tail_start..]);

        self.conservative.insert(trace_idx);
        self.fetch_resume_at = self.now + u64::from(self.cfg.redirect_penalty);
    }

    // ---------------------------------------------------------- commit

    fn commit(&mut self) {
        let mut budget = self.cfg.commit_width;
        while budget > 0 {
            let Some(front) = self.rob.front() else { break };
            if front.state != State::Done || front.complete_at.is_none_or(|c| c > self.now) {
                break;
            }
            let e = self.rob.pop_front().expect("checked non-empty");
            budget -= 1;
            self.committed += 1;
            self.stats.committed_uops += 1;
            self.last_commit_cycle = self.now;
            if e.has_load_producer {
                self.stats.dependent_wait_cycles += e.issue_cycle - e.dispatch_cycle;
                self.stats.dependent_wait_count += 1;
            }
            if let Some(dst) = e.dst {
                if self.reg_writer[usize::from(dst)] == Some(e.id) {
                    self.reg_writer[usize::from(dst)] = None;
                }
            }
            match e.payload {
                Payload::Alu => {}
                Payload::Branch => self.stats.committed_branches += 1,
                Payload::Store { store_seq } => {
                    self.stats.committed_stores += 1;
                    let now = self.now;
                    if let Some(pos) = self.sb_pos(store_seq) {
                        self.sb[pos].committed_at = Some(now);
                    }
                }
                Payload::Load(mut info) => {
                    self.stats.committed_loads += 1;
                    self.lq_count -= 1;
                    self.conservative.remove(&e.trace_idx);
                    // Merge violation information from a squashed instance
                    // of this load if the replay saw the store drained.
                    if let Some(dep) = self.replay_outcome.remove(&e.trace_idx) {
                        if info.outcome.dependence.is_none() {
                            info.outcome = LoadOutcome::dependent(dep);
                        }
                    }
                    self.commit_load(e.trace_idx, &mut info);
                    self.load_pool.push(info);
                }
            }
            self.recycle_list(e.dependents);
            if self.interval.crossed(self.committed) {
                let snap = self.stats_snapshot();
                self.interval_snaps.push(snap);
            }
        }
    }

    fn commit_load(&mut self, trace_idx: usize, info: &mut LoadInfo<P::Meta>) {
        let pc = self.trace.uops.pc(trace_idx);
        // Per-tenant attribution (no-op unless `with_tenant_split` set).
        if let Some(t) = self.stats.tenant_mut(pc) {
            t.loads += 1;
        }
        // Prediction census (Fig. 10 left).
        match info.prediction {
            MemDepPrediction::NoDependence => self.stats.pred_no_dep += 1,
            MemDepPrediction::Dependence { .. } => self.stats.pred_mdp += 1,
            MemDepPrediction::Bypass { .. } => self.stats.pred_smb += 1,
        }
        match info.served {
            Served::Cache => self.stats.loads_from_cache += 1,
            Served::Forwarded if self.fault == Some(Fault::SkipServedAccounting) => {}
            Served::Forwarded => self.stats.loads_forwarded += 1,
            Served::Bypassed => self.stats.loads_bypassed += 1,
        }
        // In-flight dependence census (Fig. 2).
        if let Some(dep) = info.outcome.dependence {
            match dep.class {
                mascot::BypassClass::DirectBypass => self.stats.class_direct_bypass += 1,
                mascot::BypassClass::NoOffset => self.stats.class_no_offset += 1,
                mascot::BypassClass::Offset => self.stats.class_offset += 1,
                mascot::BypassClass::MdpOnly => self.stats.class_mdp_only += 1,
            }
        }
        // Misprediction taxonomy (Figs. 8 and 10 right).
        let outcome_dist = info.outcome.dependence.map(|d| d.distance);
        match info.prediction {
            MemDepPrediction::NoDependence => {
                if outcome_dist.is_some() {
                    self.stats.missed_dependencies += 1;
                    if let Some(t) = self.stats.tenant_mut(pc) {
                        t.missed_dependencies += 1;
                    }
                } else {
                    self.stats.correct_no_dep += 1;
                }
            }
            MemDepPrediction::Dependence { distance } => match outcome_dist {
                Some(d) if d == distance => self.stats.correct_mdp += 1,
                Some(_) => self.stats.wrong_store += 1,
                None => {
                    self.stats.false_dependencies += 1;
                    if let Some(t) = self.stats.tenant_mut(pc) {
                        t.false_dependencies += 1;
                    }
                }
            },
            MemDepPrediction::Bypass { distance } => {
                if info.effective_bypass && !info.bypass_wrong {
                    self.stats.correct_smb += 1;
                } else if info.effective_bypass {
                    self.stats.smb_errors += 1;
                    if let Some(t) = self.stats.tenant_mut(pc) {
                        t.false_bypasses += 1;
                    }
                } else {
                    // Demoted bypass (source store gone at dispatch).
                    match outcome_dist {
                        Some(d) if d == distance => self.stats.correct_mdp += 1,
                        Some(_) => self.stats.wrong_store += 1,
                        None => {
                            self.stats.false_dependencies += 1;
                            if let Some(t) = self.stats.tenant_mut(pc) {
                                t.false_dependencies += 1;
                            }
                        }
                    }
                }
            }
        }
        if let Some(meta) = info.meta.take() {
            self.pred.train(pc, meta, info.prediction, &info.outcome);
        }
    }

    // ---------------------------------------------------------- drain

    fn drain_stores(&mut self) {
        let mut budget = self.cfg.store_drain_per_cycle;
        let delay = u64::from(self.cfg.store_drain_delay);
        while budget > 0 {
            let Some(front) = self.sb.front() else { break };
            let eligible = front.issued
                && front
                    .committed_at
                    .is_some_and(|c| self.now >= c + delay);
            if !eligible {
                break;
            }
            let s = self.sb.pop_front().expect("checked non-empty");
            let _ = self.mem.access_data(s.pc, s.addr, self.now, true);
            self.recycle_sb(s);
            budget -= 1;
        }
    }

    // ---------------------------------------------------------- dispatch

    fn dispatch(&mut self) {
        if self.fetch_idx >= self.trace.len() {
            return;
        }
        if self.now < self.fetch_resume_at {
            self.stats.stall_frontend += 1;
            return;
        }
        let mut budget = self.cfg.fetch_width;
        let mut dispatched = 0u32;
        let mut blocker: Option<&'static str> = None;
        while budget > 0 {
            if self.fetch_idx >= self.trace.len() {
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries as usize {
                blocker = Some("rob");
                break;
            }
            if self.iq_count >= self.cfg.iq_entries {
                blocker = Some("iq");
                break;
            }
            let uop = self.trace.uops.get(self.fetch_idx);
            match uop.kind {
                UopKind::Load { .. } if self.lq_count >= self.cfg.lq_entries => {
                    blocker = Some("lq");
                    break;
                }
                UopKind::Store { .. } if self.sb.len() >= self.cfg.sb_entries as usize => {
                    blocker = Some("sb");
                    break;
                }
                _ => {}
            }
            if matches!(uop.kind, UopKind::Load { .. }) {
                // Batched path: a maximal run of consecutive loads shares one
                // predictor probe. No store, branch, or memory access happens
                // between consecutive load dispatches, so a single
                // `predict_batch` is sequentially identical to per-load
                // `predict` calls (and all loads in the run see the same
                // store count).
                let max_n = (budget as usize)
                    .min(self.cfg.rob_entries as usize - self.rob.len())
                    .min((self.cfg.iq_entries - self.iq_count) as usize)
                    .min((self.cfg.lq_entries - self.lq_count) as usize);
                let store_count = self.store_seq_next;
                self.batch_reqs.clear();
                let mut stalled_at: Option<u64> = None;
                while self.batch_reqs.len() < max_n {
                    let idx = self.fetch_idx + self.batch_reqs.len();
                    if idx >= self.trace.len() {
                        break;
                    }
                    let u = self.trace.uops.get(idx);
                    let UopKind::Load { dep, .. } = u.kind else {
                        break;
                    };
                    let avail = self.mem.access_inst(u.pc, self.now);
                    if avail > self.now {
                        stalled_at = Some(avail);
                        break;
                    }
                    self.batch_reqs.push(PredictReq {
                        pc: u.pc,
                        store_seq: store_count,
                        oracle: ground_truth(dep),
                    });
                }
                let mut out = std::mem::take(&mut self.batch_out);
                self.pred.predict_batch(&self.batch_reqs, &mut out);
                for pm in out.drain(..) {
                    let u = self.trace.uops.get(self.fetch_idx);
                    let stall = self.dispatch_one(u, Some(pm));
                    debug_assert!(!stall, "loads never stall the frontend");
                    budget -= 1;
                    dispatched += 1;
                    self.fetch_idx += 1;
                }
                self.batch_out = out;
                if let Some(avail) = stalled_at {
                    self.fetch_resume_at = avail;
                    blocker = Some("frontend");
                    break;
                }
                continue;
            }
            let avail = self.mem.access_inst(uop.pc, self.now);
            if avail > self.now {
                self.fetch_resume_at = avail;
                blocker = Some("frontend");
                break;
            }
            let stall = self.dispatch_one(uop, None);
            budget -= 1;
            dispatched += 1;
            self.fetch_idx += 1;
            if stall {
                break;
            }
        }
        if dispatched == 0 {
            match blocker {
                Some("rob") => self.stats.stall_rob += 1,
                Some("iq") => self.stats.stall_iq += 1,
                Some("lq") => self.stats.stall_lq += 1,
                Some("sb") => self.stats.stall_sb += 1,
                Some(_) => self.stats.stall_frontend += 1,
                None => {}
            }
        }
    }

    /// Dispatches one micro-op; returns true when the frontend must stall
    /// (mispredicted branch). A load carries its prediction, made for its
    /// whole run of loads by one `predict_batch`; other micro-ops pass
    /// `None`.
    fn dispatch_one(&mut self, uop: Uop, load_pred: Option<(MemDepPrediction, P::Meta)>) -> bool {
        let id = self.next_id;
        self.next_id += 1;
        self.audit_dispatched += 1;
        let trace_idx = self.fetch_idx;

        // Register dataflow (a micro-op has at most two sources).
        let mut deps = 0u32;
        let mut has_load_producer = false;
        let mut writers = [0u64; 2];
        let mut n_writers = 0usize;
        for src in uop.srcs.iter().flatten() {
            if let Some(writer) = self.reg_writer[usize::from(*src)] {
                if let Some(w) = self.entry(writer) {
                    let pending = w.value_ready_at.is_none_or(|t| t > self.now);
                    if matches!(w.payload, Payload::Load(_)) {
                        has_load_producer = true;
                    }
                    if pending {
                        deps += 1;
                        writers[n_writers] = writer;
                        n_writers += 1;
                    }
                }
            }
        }
        for &writer in &writers[..n_writers] {
            let Some(pos) = self.pos_of(writer) else { continue };
            if self.rob[pos].dependents.capacity() == 0 {
                self.rob[pos].dependents = self.list_pool.pop().unwrap_or_default();
            }
            self.rob[pos].dependents.push(id);
        }

        let store_count = self.store_seq_next;
        let mut payload = Payload::Alu;
        let mut frontend_stall = false;
        // Set when a bypassed load's source store has already issued at
        // dispatch: the value arrives next cycle.
        let mut early_value_at: Option<u64> = None;

        match uop.kind {
            UopKind::Alu => {}
            UopKind::Branch {
                kind,
                taken,
                target,
            } => {
                payload = Payload::Branch;
                let correct = match kind {
                    BranchKind::Conditional => self.bp.predict_and_train(uop.pc, taken),
                    BranchKind::Indirect => self.bp.predict_indirect_and_train(uop.pc, target),
                };
                let ev = BranchEvent {
                    pc: uop.pc,
                    kind,
                    taken,
                    target,
                };
                self.bp.on_branch(&ev);
                self.pred.on_branch(&ev);
                self.push_branch(ev);
                if !correct {
                    self.pending_redirect = Some(id);
                    self.fetch_resume_at = u64::MAX;
                    frontend_stall = true;
                }
            }
            UopKind::Store { addr, .. } => {
                let store_seq = self.store_seq_next;
                self.store_seq_next += 1;
                // Store-store serialisation (Store Sets, §V): the predictor
                // may order this store behind an earlier one in its set.
                if let Some(d) = self.pred.predict_store_wait(uop.pc, store_seq) {
                    if let Some(pos) = store_seq
                        .checked_sub(u64::from(d.get()))
                        .and_then(|s| self.sb_pos(s))
                    {
                        if !self.sb[pos].issued {
                            self.sb[pos].waiting_loads.push(id);
                            deps += 1;
                        }
                    }
                }
                let waiting_loads = self.fresh_list();
                let bypass_waiters = self.fresh_list();
                self.sb.push_back(SbEntry {
                    store_seq,
                    pc: uop.pc,
                    addr,
                    issued: false,
                    committed_at: None,
                    waiting_loads,
                    bypass_waiters,
                });
                self.pred.on_store_dispatch(uop.pc, store_seq);
                payload = Payload::Store { store_seq };
            }
            UopKind::Load { .. } => {
                self.lq_count += 1;
                let conservative = self.conservative.contains(&trace_idx);
                let (prediction, meta) =
                    load_pred.expect("every load is predicted through predict_batch");

                let mut effective_bypass = false;
                match prediction {
                    MemDepPrediction::NoDependence => {}
                    MemDepPrediction::Dependence { distance }
                    | MemDepPrediction::Bypass { distance } => {
                        let target_seq = store_count.checked_sub(u64::from(distance.get()));
                        let sb_pos = target_seq.and_then(|s| self.sb_pos(s));
                        let wants_bypass = prediction.is_bypass() && !conservative;
                        match sb_pos {
                            Some(pos) if wants_bypass => {
                                effective_bypass = true;
                                if self.sb[pos].issued {
                                    // Value already available: deliver next cycle.
                                    let v = self.now + 1;
                                    early_value_at = Some(v);
                                    self.schedule(v, id, EventKind::ValueReady);
                                } else {
                                    self.sb[pos].bypass_waiters.push(id);
                                    // The load's own execution (the address/
                                    // value verification) also waits for the
                                    // store so it checks via the forwarding
                                    // path instead of a spurious cache access.
                                    self.sb[pos].waiting_loads.push(id);
                                    deps += 1;
                                }
                            }
                            Some(pos) if !self.sb[pos].issued => {
                                self.sb[pos].waiting_loads.push(id);
                                deps += 1;
                            }
                            Some(_) => {} // source store already resolved
                            None => {} // source store drained or out of range
                        }
                    }
                }
                if conservative {
                    // Wait for every currently-unissued prior store.
                    for i in 0..self.sb.len() {
                        if !self.sb[i].issued {
                            self.sb[i].waiting_loads.push(id);
                            deps += 1;
                        }
                    }
                }
                let info = LoadInfo {
                    prediction,
                    meta: Some(meta),
                    effective_bypass,
                    bypass_wrong: false,
                    awaiting_bypass_value: false,
                    outcome: LoadOutcome::independent(),
                    served: Served::Cache,
                };
                payload = Payload::Load(match self.load_pool.pop() {
                    Some(mut b) => {
                        *b = info;
                        b
                    }
                    None => Box::new(info),
                });
            }
        }

        if let Some(dst) = uop.dst {
            self.reg_writer[usize::from(dst)] = Some(id);
        }
        let state = if deps == 0 {
            State::Ready
        } else {
            State::Waiting
        };
        let value_ready_at = early_value_at;
        if state == State::Ready {
            let class = payload.port_class();
            self.ready_class(class).insert(id);
        }
        self.iq_count += 1;
        self.rob.push_back(RobEntry {
            id,
            trace_idx,
            dispatch_cycle: self.now,
            issue_cycle: self.now,
            state,
            deps_remaining: deps,
            dependents: Vec::new(),
            value_ready_at,
            complete_at: None,
            has_load_producer,
            dst: uop.dst,
            branch_log_len: self.branch_log_end().saturating_sub(
                // The branch's own event is context for *younger* uops, not
                // for itself: rewinding to this uop must exclude it.
                usize::from(matches!(uop.kind, UopKind::Branch { .. })),
            ),
            store_count_at_dispatch: store_count,
            payload,
        });
        frontend_stall
    }

    // ---------------------------------------------------------- audit

    /// Panics with an invariant name, engine context and detail. Cold and
    /// out-of-line so the check sites in `audit_cycle` stay cheap.
    #[cold]
    #[inline(never)]
    fn audit_fail(&self, invariant: &str, detail: String) -> ! {
        panic!(
            "audit violation [{invariant}] at cycle {} \
             (trace {:?}, committed {}/{}, fetch_idx {}, rob {} entries): {detail}",
            self.now,
            self.trace.name,
            self.committed,
            self.trace.len(),
            self.fetch_idx,
            self.rob.len()
        );
    }

    /// Validates the cross-structure invariants of the engine after a cycle.
    ///
    /// Runs in release builds (plain `if` checks, not `debug_assert!`); the
    /// cost is O(in-flight window) per cycle, which is why it hides behind
    /// [`Simulator::with_audit`].
    fn audit_cycle(&self) {
        // --- ROB: contiguous ids, monotone dispatch order, per-entry state.
        let mut iq = 0u32;
        let mut lq = 0u32;
        let mut ready = [0u32; 3]; // Store / Load / Alu
        if let Some(front) = self.rob.front() {
            let base = front.id;
            if base + self.rob.len() as u64 != self.next_id {
                self.audit_fail(
                    "rob tail matches id allocator",
                    format!(
                        "front {base} + len {} != next_id {}",
                        self.rob.len(),
                        self.next_id
                    ),
                );
            }
            let mut prev_dispatch = front.dispatch_cycle;
            for (i, e) in self.rob.iter().enumerate() {
                if e.id != base + i as u64 {
                    self.audit_fail(
                        "rob ids contiguous",
                        format!("position {i} holds id {}, expected {}", e.id, base + i as u64),
                    );
                }
                if e.dispatch_cycle < prev_dispatch {
                    self.audit_fail(
                        "rob age order",
                        format!(
                            "id {} dispatched at {} after predecessor's {}",
                            e.id, e.dispatch_cycle, prev_dispatch
                        ),
                    );
                }
                prev_dispatch = e.dispatch_cycle;
                match (e.state, e.deps_remaining) {
                    (State::Waiting, 0) => self.audit_fail(
                        "waiting implies pending deps",
                        format!("id {} is Waiting with deps_remaining 0", e.id),
                    ),
                    (State::Ready | State::Issued | State::Done, d) if d > 0 => self.audit_fail(
                        "ready/issued/done implies no deps",
                        format!("id {} is {:?} with deps_remaining {d}", e.id, e.state),
                    ),
                    _ => {}
                }
                if e.state == State::Done && e.complete_at.is_none_or(|c| c > self.now) {
                    self.audit_fail(
                        "done implies completed",
                        format!("id {} Done with complete_at {:?} at now {}", e.id, e.complete_at, self.now),
                    );
                }
                if matches!(e.state, State::Waiting | State::Ready) {
                    iq += 1;
                }
                let mask = match e.payload.port_class() {
                    PortClass::Store => &self.ready_stores,
                    PortClass::Load => &self.ready_loads,
                    PortClass::Alu => &self.ready_alus,
                };
                if mask.contains(e.id) != (e.state == State::Ready) {
                    self.audit_fail(
                        "ready mask agrees with state",
                        format!(
                            "id {} ({:?}) state {:?} but mask membership {}",
                            e.id,
                            e.payload.port_class(),
                            e.state,
                            mask.contains(e.id)
                        ),
                    );
                }
                if e.state == State::Ready {
                    ready[e.payload.port_class() as usize] += 1;
                }
                match &e.payload {
                    Payload::Load(_) => lq += 1,
                    Payload::Store { store_seq } => match self.sb_pos(*store_seq) {
                        None => self.audit_fail(
                            "in-rob store has an SB entry",
                            format!("id {} store_seq {store_seq} not in SB", e.id),
                        ),
                        Some(pos) if self.sb[pos].committed_at.is_some() => self.audit_fail(
                            "in-rob store not committed",
                            format!("id {} store_seq {store_seq} already committed in SB", e.id),
                        ),
                        Some(_) => {}
                    },
                    _ => {}
                }
                for &d in &e.dependents {
                    if self.pos_of(d).is_none() {
                        self.audit_fail(
                            "dependents are in flight",
                            format!("id {} lists flushed dependent {d}", e.id),
                        );
                    }
                }
            }
        }
        if iq != self.iq_count {
            self.audit_fail(
                "iq occupancy",
                format!("counter {} vs {} waiting/ready entries", self.iq_count, iq),
            );
        }
        if lq != self.lq_count {
            self.audit_fail(
                "lq occupancy",
                format!("counter {} vs {} in-flight loads", self.lq_count, lq),
            );
        }
        let mask_counts = [
            self.ready_stores.len(),
            self.ready_loads.len(),
            self.ready_alus.len(),
        ];
        if ready != mask_counts {
            self.audit_fail(
                "ready mask population",
                format!("rob ready counts {ready:?} vs mask counts {mask_counts:?}"),
            );
        }

        // --- Store buffer: contiguous seqs, allocator agreement, waiter ids.
        if let Some(sfront) = self.sb.front() {
            let sbase = sfront.store_seq;
            if self.sb.back().expect("non-empty").store_seq + 1 != self.store_seq_next {
                self.audit_fail(
                    "sb tail matches seq allocator",
                    format!(
                        "back seq {} + 1 != store_seq_next {}",
                        self.sb.back().expect("non-empty").store_seq,
                        self.store_seq_next
                    ),
                );
            }
            for (i, s) in self.sb.iter().enumerate() {
                if s.store_seq != sbase + i as u64 {
                    self.audit_fail(
                        "sb seqs contiguous",
                        format!("position {i} holds seq {}, expected {}", s.store_seq, sbase + i as u64),
                    );
                }
                for &w in &s.waiting_loads {
                    if self.pos_of(w).is_none() {
                        self.audit_fail(
                            "sb waiters in flight",
                            format!("seq {} waiting_loads holds flushed id {w}", s.store_seq),
                        );
                    }
                }
                for &b in &s.bypass_waiters {
                    match self.entry(b) {
                        None => self.audit_fail(
                            "sb bypass waiters in flight",
                            format!("seq {} bypass_waiters holds flushed id {b}", s.store_seq),
                        ),
                        Some(e) if !matches!(e.payload, Payload::Load(_)) => self.audit_fail(
                            "sb bypass waiters are loads",
                            format!("seq {} bypass waiter {b} is not a load", s.store_seq),
                        ),
                        Some(_) => {}
                    }
                }
            }
        }

        // --- Violation table: stores pending issue, loads still in flight.
        for (&seq, loads) in &self.violations {
            match self.sb_pos(seq) {
                None => self.audit_fail(
                    "violation store in SB",
                    format!("violation entry names drained/flushed store seq {seq}"),
                ),
                Some(pos) if self.sb[pos].issued => self.audit_fail(
                    "violation store unissued",
                    format!("violation entry survives its store's issue (seq {seq})"),
                ),
                Some(_) => {}
            }
            if loads.is_empty() {
                self.audit_fail(
                    "violation lists non-empty",
                    format!("empty stale-load list for store seq {seq}"),
                );
            }
            for &l in loads {
                match self.entry(l) {
                    None => self.audit_fail(
                        "violation loads in flight",
                        format!("store seq {seq} lists flushed load id {l}"),
                    ),
                    Some(e) if !matches!(e.payload, Payload::Load(_)) => self.audit_fail(
                        "violation entries are loads",
                        format!("store seq {seq} lists non-load id {l}"),
                    ),
                    Some(_) => {}
                }
            }
        }

        // --- Rename map points at live producers of the right register.
        for (reg, writer) in self.reg_writer.iter().enumerate() {
            let Some(id) = writer else { continue };
            match self.entry(*id) {
                None => self.audit_fail(
                    "rename map in flight",
                    format!("reg {reg} names flushed writer {id}"),
                ),
                Some(e) if e.dst != Some(reg as u8) => self.audit_fail(
                    "rename map register agreement",
                    format!("reg {reg} names id {id} whose dst is {:?}", e.dst),
                ),
                Some(_) => {}
            }
        }
        if let Some(b) = self.pending_redirect {
            match self.entry(b) {
                None => self.audit_fail(
                    "pending redirect in flight",
                    format!("redirect names flushed id {b}"),
                ),
                Some(e) if !matches!(e.payload, Payload::Branch) => self.audit_fail(
                    "pending redirect is a branch",
                    format!("redirect names non-branch id {b}"),
                ),
                Some(_) => {}
            }
        }

        // --- Accounting: everything dispatched either committed, is in
        // flight, or was squashed.
        let accounted = self.committed + self.rob.len() as u64 + self.audit_squashed;
        if accounted != self.audit_dispatched {
            self.audit_fail(
                "dispatch accounting",
                format!(
                    "committed {} + in-flight {} + squashed {} != dispatched {}",
                    self.committed,
                    self.rob.len(),
                    self.audit_squashed,
                    self.audit_dispatched
                ),
            );
        }
        if let Err(detail) = self.stats.check_identities() {
            self.audit_fail("stats identities", detail);
        }
    }

    /// End-of-run audit: the pipeline drained completely and the committed
    /// stream matches the trace's composition.
    fn audit_final(&self) {
        if !self.rob.is_empty() || self.iq_count != 0 || self.lq_count != 0 {
            self.audit_fail(
                "pipeline drained",
                format!(
                    "rob {} entries, iq {}, lq {} after the last commit",
                    self.rob.len(),
                    self.iq_count,
                    self.lq_count
                ),
            );
        }
        if !self.violations.is_empty() {
            self.audit_fail(
                "violation table drained",
                format!("{} stale entries at end of run", self.violations.len()),
            );
        }
        let got = (
            self.stats.committed_uops,
            self.stats.committed_loads,
            self.stats.committed_stores,
            self.stats.committed_branches,
        );
        let want = (
            self.trace.len() as u64,
            self.trace.num_loads() as u64,
            self.trace.num_stores() as u64,
            self.trace.num_branches() as u64,
        );
        if got != want {
            self.audit_fail(
                "commit stream matches trace composition",
                format!("(uops, loads, stores, branches): committed {got:?} vs trace {want:?}"),
            );
        }
        if let Err(detail) = self.stats.check_identities() {
            self.audit_fail("stats identities", detail);
        }
    }
}

/// Helper: the oracle annotation handed to the predictor for a load's
/// trace dependence (none when the distance is beyond the encodable window).
fn ground_truth(dep: Option<TraceDep>) -> Option<GroundTruth> {
    dep.and_then(|d| {
        Some(GroundTruth {
            distance: StoreDistance::new(d.distance)?,
            class: d.class,
        })
    })
}

/// The cache half of the functional replay: drives the cache hierarchy
/// (demand lines *and* the stride prefetcher) and the branch predictor a
/// detailed run would train, with no timing machinery at all. It needs
/// only PCs, addresses and branch outcomes, and never reads the
/// memory-dependence half's state.
fn warm_cache_and_branch(mem: &mut Hierarchy, bp: &mut TagePredictor, uops: UopSlice<'_>) {
    for uop in uops {
        mem.warm_inst(uop.pc);
        match uop.kind {
            UopKind::Alu => {}
            UopKind::Load { addr, .. } => {
                mem.warm_data(addr);
                mem.warm_prefetch(uop.pc, addr);
            }
            UopKind::Store { addr, .. } => mem.warm_data(addr),
            UopKind::Branch {
                kind,
                taken,
                target,
            } => {
                let _ = match kind {
                    BranchKind::Conditional => bp.predict_and_train(uop.pc, taken),
                    BranchKind::Indirect => bp.predict_indirect_and_train(uop.pc, target),
                };
                bp.on_branch(&branch_event(uop.pc, kind, taken, target));
            }
        }
    }
}

/// The memory-dependence half of the functional replay: trains the
/// predictor on every load's ground-truth outcome and advances the
/// store-sequence counter. It needs only loads, stores and branch events,
/// and never reads the cache half's state.
fn warm_mem_dep<P: MemDepPredictor>(pred: &mut P, store_seq_next: &mut u64, uops: UopSlice<'_>) {
    for uop in uops {
        match uop.kind {
            UopKind::Alu => {}
            UopKind::Load { dep, .. } => {
                let (prediction, meta) =
                    pred.predict(uop.pc, *store_seq_next, ground_truth(dep).as_ref());
                let outcome = dep
                    .as_ref()
                    .map_or_else(LoadOutcome::independent, TraceDep::outcome);
                pred.train(uop.pc, meta, prediction, &outcome);
            }
            UopKind::Store { .. } => {
                let store_seq = *store_seq_next;
                *store_seq_next += 1;
                let _ = pred.predict_store_wait(uop.pc, store_seq);
                pred.on_store_dispatch(uop.pc, store_seq);
            }
            UopKind::Branch {
                kind,
                taken,
                target,
            } => pred.on_branch(&branch_event(uop.pc, kind, taken, target)),
        }
    }
}

/// Helper: the history event both warm halves feed a committed branch.
fn branch_event(pc: u64, kind: BranchKind, taken: bool, target: u64) -> BranchEvent {
    BranchEvent {
        pc,
        kind,
        taken,
        target,
    }
}

/// A standalone functional (architectural) warm-up engine: owns the cache
/// hierarchy, branch predictor, memory-dependence predictor and
/// store-sequence counter a detailed run would train, and replays trace
/// uops through them with no timing simulation. Afterwards every structure
/// holds the contents a full detailed run of that prefix would have left
/// (caches by architectural reference order, branch tables by actual
/// outcomes, dependence tables by the trace's ground-truth annotations), at
/// an order of magnitude less cost than simulating it.
///
/// The state splits into two halves that never read each other: the cache
/// hierarchy plus branch predictor, and the memory-dependence predictor
/// plus store-sequence counter. [`replay`](Self::replay) drives both in
/// turn; [`at_boundaries`](Self::at_boundaries) drives them on two threads.
///
/// A warmer is **checkpointable**: frozen at each sampled window's warm-up
/// boundary, it seeds that window's detailed simulator via
/// [`Simulator::seed_from_warmer`]. The state a checkpoint holds at commit
/// boundary `b` is bit-identical to an independent functional replay of
/// `trace[..b]` — replay is deterministic and history-only — so sampled
/// windows see full-prefix warm state while the trace is walked only once
/// (DESIGN.md §13).
#[derive(Debug, Clone)]
pub struct FunctionalWarmer<P> {
    mem: Hierarchy,
    bp: TagePredictor,
    pred: P,
    store_seq_next: u64,
    warmed: u64,
}

impl<P: MemDepPredictor> FunctionalWarmer<P> {
    /// A cold warmer for the given core configuration, taking ownership of
    /// the predictor it will train.
    pub fn new(cfg: &CoreConfig, pred: P) -> Self {
        Self {
            mem: Hierarchy::new(cfg),
            bp: TagePredictor::default(),
            pred,
            store_seq_next: 0,
            warmed: 0,
        }
    }

    /// Architecturally replays `uops`, continuing from wherever the warmer
    /// already is (callers feed consecutive trace segments).
    pub fn replay(&mut self, uops: UopSlice<'_>) {
        warm_cache_and_branch(&mut self.mem, &mut self.bp, uops);
        warm_mem_dep(&mut self.pred, &mut self.store_seq_next, uops);
        self.warmed += uops.len() as u64;
    }

    /// Checkpoints of one functional pass over `uops`, starting cold with
    /// `pred`: element `i` is bit-identical to
    /// `new(cfg, pred).replay(uops.slice(..boundaries[i]))`.
    ///
    /// The two halves of the state run concurrently: the memory-dependence
    /// half on a scoped thread, the cache and branch half on the calling
    /// thread, each cloning its own state at every boundary. The cache
    /// hierarchy (the large clone, one per boundary) stays on the calling
    /// thread on purpose: allocating the clones on a second thread spreads
    /// them over a second allocator arena and measurably raises peak RSS.
    /// On a single-CPU host the halves simply share the core.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is not sorted ascending or its last entry
    /// exceeds `uops.len()`.
    pub fn at_boundaries(
        cfg: &CoreConfig,
        pred: P,
        uops: UopSlice<'_>,
        boundaries: &[usize],
    ) -> Vec<Self>
    where
        P: Clone + Send,
    {
        assert!(boundaries.is_sorted(), "warm boundaries must be sorted");
        assert!(
            boundaries.last().is_none_or(|&b| b <= uops.len()),
            "warm boundary beyond the {}-uop trace",
            uops.len()
        );
        std::thread::scope(|scope| {
            let mem_dep = scope.spawn(move || {
                let mut pred = pred;
                let mut store_seq_next = 0;
                let mut cursor = 0;
                boundaries
                    .iter()
                    .map(|&b| {
                        warm_mem_dep(&mut pred, &mut store_seq_next, uops.slice(cursor..b));
                        cursor = b;
                        (pred.clone(), store_seq_next)
                    })
                    .collect::<Vec<_>>()
            });
            let mut mem = Hierarchy::new(cfg);
            let mut bp = TagePredictor::default();
            let mut cursor = 0;
            let cache_and_branch: Vec<_> = boundaries
                .iter()
                .map(|&b| {
                    warm_cache_and_branch(&mut mem, &mut bp, uops.slice(cursor..b));
                    cursor = b;
                    (mem.clone(), bp.clone())
                })
                .collect();
            let mem_dep = mem_dep.join().expect("memory-dependence warm-up panicked");
            cache_and_branch
                .into_iter()
                .zip(mem_dep)
                .zip(boundaries)
                .map(|(((mem, bp), (pred, store_seq_next)), &b)| Self {
                    mem,
                    bp,
                    pred,
                    store_seq_next,
                    warmed: b as u64,
                })
                .collect()
        })
    }

    /// The predictor as trained so far — clone it to build the simulator
    /// that [`Simulator::seed_from_warmer`] will seed.
    pub fn predictor(&self) -> &P {
        &self.pred
    }

    /// Total uops replayed through this warmer.
    pub fn warmed_uops(&self) -> u64 {
        self.warmed
    }
}

/// Runs `trace` on a core with the given configuration and predictor.
///
/// # Examples
///
/// ```
/// use mascot_sim::{simulate, CoreConfig, Trace, Uop};
/// use mascot_predictors::PerfectMdp;
///
/// let trace = Trace::new("demo", vec![
///     Uop::alu(0x0, [None, None], Some(1), 1),
///     Uop::store(0x4, 0x1000, 8, None, Some(1)),
///     Uop::load(0x8, 0x1000, 8, None, 2, None),
/// ]);
/// let mut oracle = PerfectMdp::new();
/// let stats = simulate(&trace, &CoreConfig::golden_cove(), &mut oracle);
/// assert_eq!(stats.committed_uops, 3);
/// ```
pub fn simulate<P: MemDepPredictor>(trace: &Trace, cfg: &CoreConfig, pred: &mut P) -> SimStats {
    Simulator::new(trace, cfg, pred).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::prediction::BypassClass;

    /// A predictor with a fixed response, for engine testing.
    #[derive(Debug)]
    struct Fixed(MemDepPrediction);

    impl MemDepPredictor for Fixed {
        type Meta = ();
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn predict(
            &mut self,
            _pc: u64,
            _store_seq: u64,
            _oracle: Option<&GroundTruth>,
        ) -> (MemDepPrediction, ()) {
            (self.0, ())
        }
        fn train(&mut self, _: u64, _: (), _: MemDepPrediction, _: &LoadOutcome) {}
        fn on_branch(&mut self, _: &BranchEvent) {}
        fn rewind_history(&mut self, _: &[BranchEvent]) {}
        fn storage_bits(&self) -> u64 {
            0
        }
    }

    fn always_no_dep() -> Fixed {
        Fixed(MemDepPrediction::NoDependence)
    }

    fn always_dep(d: u32) -> Fixed {
        Fixed(MemDepPrediction::Dependence {
            distance: StoreDistance::new(d).unwrap(),
        })
    }

    fn always_bypass(d: u32) -> Fixed {
        Fixed(MemDepPrediction::Bypass {
            distance: StoreDistance::new(d).unwrap(),
        })
    }

    fn dep1() -> Option<TraceDep> {
        Some(TraceDep {
            distance: 1,
            class: BypassClass::DirectBypass,
            store_pc: 0, // patched by helpers
            branches_between: 0,
        })
    }

    /// store (data from a slow ALU) ... load (same addr) ... consumer.
    /// `alu_latency` controls how late the store's data arrives.
    fn store_load_trace(n: usize, alu_latency: u8) -> Trace {
        let mut uops = Vec::new();
        for i in 0..n {
            let base = 0x1000 + (i as u64) * 64;
            let store_pc = 0x400 + 16;
            uops.push(Uop::alu(0x400, [None, None], Some(1), alu_latency));
            uops.push(Uop::store(store_pc, base, 8, None, Some(1)));
            let mut dep = dep1().unwrap();
            dep.store_pc = store_pc;
            uops.push(Uop::load(0x400 + 32, base, 8, None, 2, Some(dep)));
            uops.push(Uop::alu(0x400 + 48, [Some(2), None], Some(3), 1));
        }
        Trace::new("store-load", uops)
    }

    fn golden() -> CoreConfig {
        CoreConfig::golden_cove()
    }

    #[test]
    fn independent_alu_ops_commit_at_high_ipc() {
        let uops: Vec<Uop> = (0..6000)
            .map(|i| Uop::alu(0x100 + (i % 32) * 4, [None, None], Some((i % 40) as u8), 1))
            .collect();
        let trace = Trace::new("alu", uops);
        let mut p = always_no_dep();
        let stats = simulate(&trace, &golden(), &mut p);
        assert_eq!(stats.committed_uops, 6000);
        // Independent single-cycle ALU ops: bounded by fetch width (6) and
        // should get close to it.
        assert!(stats.ipc() > 4.0, "ipc {}", stats.ipc());
    }

    #[test]
    fn dependent_alu_chain_limits_ipc_to_one() {
        let uops: Vec<Uop> = (0..4000)
            .map(|i| Uop::alu(0x100 + (i % 16) * 4, [Some(1), None], Some(1), 1))
            .collect();
        let trace = Trace::new("chain", uops);
        let mut p = always_no_dep();
        let stats = simulate(&trace, &golden(), &mut p);
        assert!(stats.ipc() <= 1.05, "serial chain cannot beat 1 IPC, got {}", stats.ipc());
        assert!(stats.ipc() > 0.8, "chain should sustain ~1 IPC, got {}", stats.ipc());
    }

    #[test]
    fn perfect_mdp_forwards_without_squashes() {
        let trace = store_load_trace(500, 8);
        let mut p = mascot_test_oracle();
        let stats = simulate(&trace, &golden(), &mut p);
        assert_eq!(stats.committed_uops, trace.len() as u64);
        assert_eq!(stats.mem_order_squashes, 0);
        assert_eq!(stats.smb_squashes, 0);
        assert!(stats.loads_forwarded > 400, "forwarded {}", stats.loads_forwarded);
        assert_eq!(stats.missed_dependencies, 0);
        assert_eq!(stats.false_dependencies, 0);
    }

    /// An oracle like PerfectMdp but local to these tests.
    fn mascot_test_oracle() -> impl MemDepPredictor<Meta = ()> {
        #[derive(Debug)]
        struct Oracle;
        impl MemDepPredictor for Oracle {
            type Meta = ();
            fn name(&self) -> &'static str {
                "test-oracle"
            }
            fn predict(
                &mut self,
                _pc: u64,
                _seq: u64,
                oracle: Option<&GroundTruth>,
            ) -> (MemDepPrediction, ()) {
                match oracle {
                    Some(gt) => (
                        MemDepPrediction::Dependence {
                            distance: gt.distance,
                        },
                        (),
                    ),
                    None => (MemDepPrediction::NoDependence, ()),
                }
            }
            fn train(&mut self, _: u64, _: (), _: MemDepPrediction, _: &LoadOutcome) {}
            fn on_branch(&mut self, _: &BranchEvent) {}
            fn rewind_history(&mut self, _: &[BranchEvent]) {}
            fn storage_bits(&self) -> u64 {
                0
            }
        }
        Oracle
    }

    #[test]
    fn always_no_dep_causes_squashes_but_completes() {
        // Slow store data => loads that speculate reads stale data and get
        // squashed when the store issues.
        let trace = store_load_trace(300, 12);
        let mut p = always_no_dep();
        let stats = simulate(&trace, &golden(), &mut p);
        assert_eq!(stats.committed_uops, trace.len() as u64);
        assert!(stats.mem_order_squashes > 100, "squashes {}", stats.mem_order_squashes);
        // Replayed loads commit with the dependence observed: the predictor
        // kept predicting no-dep, so they count as missed dependencies.
        assert!(stats.missed_dependencies > 100);
    }

    #[test]
    fn tenant_split_attributes_mispredictions_by_pc() {
        // Victim tenant: dependent store→load pairs that always_no_dep
        // mispredicts (missed dependencies). Attacker tenant (PC bit 34
        // set): genuinely independent loads, correctly predicted.
        let mut uops = Vec::new();
        for i in 0..300u64 {
            let base = 0x1000 + i * 64;
            uops.push(Uop::alu(0x400, [None, None], Some(1), 12));
            uops.push(Uop::store(0x410, base, 8, None, Some(1)));
            let mut dep = dep1().unwrap();
            dep.store_pc = 0x410;
            uops.push(Uop::load(0x420, base, 8, None, 2, Some(dep)));
            uops.push(Uop::load((1 << 34) | 0x420, 0x9000_0000 + i * 64, 8, None, 3, None));
        }
        let trace = Trace::new("tenants", uops);
        let mut p = always_no_dep();
        let stats = Simulator::new(&trace, &golden(), &mut p)
            .with_tenant_split(1 << 34)
            .with_audit()
            .run();
        stats.check_identities().unwrap();
        assert_eq!(stats.victim.loads, 300);
        assert_eq!(stats.attacker.loads, 300);
        assert!(
            stats.victim.missed_dependencies > 100,
            "victim missed {}",
            stats.victim.missed_dependencies
        );
        assert_eq!(stats.attacker.missed_dependencies, 0);
        assert!(stats.victim.missed_dependency_rate() > 0.3);
        assert_eq!(stats.attacker.misprediction_rate(), 0.0);
    }

    #[test]
    fn tenant_counters_zero_without_split() {
        let trace = store_load_trace(50, 4);
        let mut p = always_no_dep();
        let stats = simulate(&trace, &golden(), &mut p);
        assert_eq!(stats.tenant_boundary, 0);
        assert_eq!(stats.victim, crate::stats::TenantCounters::default());
        assert_eq!(stats.attacker, crate::stats::TenantCounters::default());
    }

    #[test]
    fn squashes_cost_performance() {
        let trace = store_load_trace(300, 12);
        let mut good = mascot_test_oracle();
        let ipc_good = simulate(&trace, &golden(), &mut good).ipc();
        let mut bad = always_no_dep();
        let ipc_bad = simulate(&trace, &golden(), &mut bad).ipc();
        assert!(
            ipc_good > ipc_bad * 1.05,
            "perfect MDP {ipc_good} should clearly beat squash-heavy {ipc_bad}"
        );
    }

    #[test]
    fn false_dependencies_only_delay() {
        // Loads with NO real dependence, predicted dependent on distance 1:
        // they stall behind an unrelated store but never squash.
        let mut uops = Vec::new();
        for i in 0..200u64 {
            uops.push(Uop::alu(0x100, [None, None], Some(1), 6));
            uops.push(Uop::store(0x110, 0x9000 + i * 64, 8, None, Some(1)));
            uops.push(Uop::load(0x120, 0x5_0000 + i * 64, 8, None, 2, None));
        }
        let trace = Trace::new("false-dep", uops);
        let mut p = always_dep(1);
        let stats = simulate(&trace, &golden(), &mut p);
        assert_eq!(stats.mem_order_squashes, 0);
        assert!(stats.false_dependencies > 150);
        let mut free = always_no_dep();
        let unstalled = simulate(&trace, &golden(), &mut free);
        assert!(
            unstalled.ipc() >= stats.ipc(),
            "false dependencies cannot help: {} vs {}",
            unstalled.ipc(),
            stats.ipc()
        );
    }

    #[test]
    fn bypassing_beats_waiting_when_data_is_late() {
        // The store's data comes from a long-latency op; consumers of the
        // load profit from bypassing because the load's value is forwarded
        // the moment the store issues, skipping the L1D latency.
        let trace = store_load_trace(400, 10);
        let mut wait = always_dep(1);
        let ipc_wait = simulate(&trace, &golden(), &mut wait).ipc();
        let mut byp = always_bypass(1);
        let stats_byp = simulate(&trace, &golden(), &mut byp);
        assert_eq!(stats_byp.smb_squashes, 0, "all bypasses are correct");
        assert!(stats_byp.loads_bypassed > 300, "bypassed {}", stats_byp.loads_bypassed);
        assert!(
            stats_byp.ipc() > ipc_wait,
            "bypassing {} should beat waiting {}",
            stats_byp.ipc(),
            ipc_wait
        );
    }

    #[test]
    fn wrong_bypass_squashes_and_still_completes() {
        // Loads have no dependence at all, but are force-bypassed from the
        // previous (unrelated) store: every engaged bypass is wrong.
        let mut uops = Vec::new();
        for i in 0..150u64 {
            uops.push(Uop::alu(0x100, [None, None], Some(1), 4));
            uops.push(Uop::store(0x110, 0x9000 + i * 64, 8, None, Some(1)));
            uops.push(Uop::load(0x120, 0x5_0000 + i * 64, 8, None, 2, None));
        }
        let trace = Trace::new("bad-bypass", uops);
        let mut p = always_bypass(1);
        let stats = simulate(&trace, &golden(), &mut p);
        assert_eq!(stats.committed_uops, trace.len() as u64);
        assert!(stats.smb_squashes > 50, "smb squashes {}", stats.smb_squashes);
        assert!(stats.smb_errors + stats.false_dependencies + stats.correct_no_dep > 0);
    }

    /// Records every history rewind the engine asks of the predictor.
    #[derive(Debug, Default)]
    struct RewindCounter {
        /// The rewound path of each call, oldest event first.
        rewinds: Vec<Vec<BranchEvent>>,
    }

    impl MemDepPredictor for RewindCounter {
        type Meta = ();
        fn name(&self) -> &'static str {
            "rewind-counter"
        }
        fn predict(&mut self, _: u64, _: u64, _: Option<&GroundTruth>) -> (MemDepPrediction, ()) {
            (MemDepPrediction::NoDependence, ())
        }
        fn train(&mut self, _: u64, _: (), _: MemDepPrediction, _: &LoadOutcome) {}
        fn on_branch(&mut self, _: &BranchEvent) {}
        fn rewind_history(&mut self, recent: &[BranchEvent]) {
            self.rewinds.push(recent.to_vec());
        }
        fn storage_bits(&self) -> u64 {
            0
        }
    }

    /// `n` ALU + branch pairs over distinct branch PCs and both directions.
    fn branch_run(n: u64) -> Vec<Uop> {
        let mut uops = Vec::new();
        let mut state = 0x1234_5678u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            uops.push(Uop::alu(0x100, [None, None], Some(1), 1));
            uops.push(Uop::branch(0x1000 + (i % 997) * 4, (state >> 33) & 1 == 1, 0x200, Some(1)));
        }
        uops
    }

    /// A branch mispredict stalls fetch at dispatch and never rewinds the
    /// predictor's history; only a squash (memory-order or SMB) does, once.
    #[test]
    fn only_squashes_rewind_history() {
        let mut p = RewindCounter::default();
        let stats = simulate(&Trace::new("branchy", branch_run(3000)), &golden(), &mut p);
        assert!(stats.branch_mispredicts > 1000, "{}", stats.branch_mispredicts);
        assert_eq!(stats.mem_order_squashes + stats.smb_squashes, 0);
        assert!(p.rewinds.is_empty(), "{} rewinds", p.rewinds.len());

        let mut p = RewindCounter::default();
        let stats = simulate(&store_load_trace(1, 12), &golden(), &mut p);
        assert_eq!(stats.mem_order_squashes, 1);
        assert_eq!(p.rewinds.len(), 1);
    }

    /// A long run keeps the branch log to a few rewind windows, and a
    /// squash at its end still rewinds the full window before the victim.
    #[test]
    fn branch_log_stays_bounded_and_rewinds_a_full_window() {
        let mut uops = branch_run(5000);
        let branches: Vec<BranchEvent> = uops
            .iter()
            .filter_map(|u| match u.kind {
                UopKind::Branch { kind, taken, target } => Some(BranchEvent {
                    pc: u.pc,
                    kind,
                    taken,
                    target,
                }),
                _ => None,
            })
            .collect();
        uops.extend(&store_load_trace(1, 12).uops);
        let trace = Trace::new("long-branchy", uops);
        let (cfg, mut p) = (golden(), RewindCounter::default());
        let mut sim = Simulator::new(&trace, &cfg, &mut p);
        while sim.committed < trace.len() as u64 {
            sim.step();
            assert!(sim.branch_log.len() <= BRANCH_LOG_TRIM_AT, "{}", sim.branch_log.len());
            // Every event a squash of the ROB head would read is retained.
            if let Some(head) = sim.rob.front() {
                assert!(sim.branch_log_base <= head.branch_log_len.saturating_sub(REWIND_WINDOW));
            }
        }
        assert!(sim.branch_log_base > 0, "the log was never trimmed");
        let stats = sim.run();
        assert_eq!(stats.mem_order_squashes, 1);
        assert_eq!(p.rewinds.len(), 1);
        assert_eq!(p.rewinds[0], branches[branches.len() - REWIND_WINDOW..]);
    }

    #[test]
    fn branch_mispredicts_cost_fetch_cycles() {
        // A branch whose direction is a pseudo-random coin: mostly
        // unpredictable. Compare against an always-taken branch.
        let mk = |rand: bool| {
            let mut uops = Vec::new();
            let mut state = 0x1234_5678u64;
            for _ in 0..3000 {
                let taken = if rand {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33).is_multiple_of(2)
                } else {
                    true
                };
                uops.push(Uop::alu(0x100, [None, None], Some(1), 1));
                uops.push(Uop::branch(0x104, taken, 0x200, Some(1)));
            }
            Trace::new("branchy", uops)
        };
        let mut p1 = always_no_dep();
        let predictable = simulate(&mk(false), &golden(), &mut p1);
        let mut p2 = always_no_dep();
        let unpredictable = simulate(&mk(true), &golden(), &mut p2);
        assert!(predictable.branch_mispredicts < 100);
        assert!(unpredictable.branch_mispredicts > 1000);
        assert!(
            predictable.ipc() > unpredictable.ipc() * 1.5,
            "{} vs {}",
            predictable.ipc(),
            unpredictable.ipc()
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = store_load_trace(200, 6);
        let mut a = always_no_dep();
        let mut b = always_no_dep();
        let s1 = simulate(&trace, &golden(), &mut a);
        let s2 = simulate(&trace, &golden(), &mut b);
        assert_eq!(s1, s2);
    }

    #[test]
    fn lion_cove_is_at_least_as_fast() {
        let trace = store_load_trace(400, 4);
        let mut a = mascot_test_oracle();
        let g = simulate(&trace, &golden(), &mut a).ipc();
        let mut b = mascot_test_oracle();
        let l = simulate(&trace, &CoreConfig::lion_cove(), &mut b).ipc();
        assert!(l >= g * 0.95, "lion cove {l} vs golden cove {g}");
    }

    #[test]
    fn commit_counts_match_trace_composition() {
        let trace = store_load_trace(100, 2);
        let mut p = always_no_dep();
        let stats = simulate(&trace, &golden(), &mut p);
        assert_eq!(stats.committed_loads, 100);
        assert_eq!(stats.committed_stores, 100);
        assert_eq!(stats.committed_uops, 400);
    }

    #[test]
    fn dependence_census_matches_ground_truth() {
        // Fast store data: loads issue after the store resolved most of the
        // time, but the store is still in the SB (drain is post-commit), so
        // the in-flight dependence census sees nearly every pair.
        let trace = store_load_trace(200, 1);
        let mut p = mascot_test_oracle();
        let stats = simulate(&trace, &golden(), &mut p);
        assert!(
            stats.class_direct_bypass > 150,
            "direct-bypass census {}",
            stats.class_direct_bypass
        );
        assert!(stats.dependent_load_fraction() > 0.75);
    }

    /// Committed stores must remain forwardable during the drain delay:
    /// a load issuing shortly after the store commits still observes the
    /// dependence.
    #[test]
    fn drain_delay_keeps_stores_forwardable() {
        let mk = |delay: u32| {
            let mut cfg = golden();
            cfg.store_drain_delay = delay;
            let trace = store_load_trace(200, 1);
            let mut p = mascot_test_oracle();
            simulate(&trace, &cfg, &mut p)
        };
        let with_delay = mk(40);
        let without = mk(0);
        assert!(
            with_delay.loads_forwarded >= without.loads_forwarded,
            "delay {} vs none {}",
            with_delay.loads_forwarded,
            without.loads_forwarded
        );
        // With the delay, nearly every pair is observed in flight.
        assert!(
            with_delay.class_direct_bypass > 150,
            "census {}",
            with_delay.class_direct_bypass
        );
    }

    /// A store-wait prediction (Store Sets serialisation) delays the
    /// waiting store behind its predicted predecessor.
    #[test]
    fn store_store_serialisation_orders_stores() {
        #[derive(Debug)]
        struct SerialiseStores;
        impl MemDepPredictor for SerialiseStores {
            type Meta = ();
            fn name(&self) -> &'static str {
                "serialise"
            }
            fn predict(
                &mut self,
                _pc: u64,
                _seq: u64,
                _oracle: Option<&GroundTruth>,
            ) -> (MemDepPrediction, ()) {
                (MemDepPrediction::NoDependence, ())
            }
            fn train(&mut self, _: u64, _: (), _: MemDepPrediction, _: &LoadOutcome) {}
            fn on_branch(&mut self, _: &BranchEvent) {}
            fn rewind_history(&mut self, _: &[BranchEvent]) {}
            fn predict_store_wait(&mut self, _pc: u64, _seq: u64) -> Option<StoreDistance> {
                StoreDistance::new(1) // every store waits for its predecessor
            }
            fn storage_bits(&self) -> u64 {
                0
            }
        }
        // Independent stores whose data arrives at staggered times: without
        // serialisation they issue in parallel; with it they form a chain.
        let mut uops = Vec::new();
        for i in 0..200u64 {
            uops.push(Uop::alu(0x100, [None, None], Some(1), 8));
            uops.push(Uop::store(0x110, 0x9000 + i * 64, 8, None, Some(1)));
        }
        let trace = Trace::new("stores", uops);
        let mut serial = SerialiseStores;
        let chained = simulate(&trace, &golden(), &mut serial);
        let mut free = always_no_dep();
        let parallel = simulate(&trace, &golden(), &mut free);
        assert!(
            chained.cycles > parallel.cycles,
            "serialised {} vs parallel {} cycles",
            chained.cycles,
            parallel.cycles
        );
    }

    /// Stall attribution: a tiny store buffer shows SB-full stalls; the
    /// default configuration on the same trace does not.
    #[test]
    fn stall_attribution_identifies_sb_pressure() {
        let trace = store_load_trace(300, 1);
        let mut tiny = golden();
        tiny.sb_entries = 2;
        tiny.store_drain_delay = 60;
        let mut p1 = always_no_dep();
        let squeezed = simulate(&trace, &tiny, &mut p1);
        assert!(squeezed.stall_sb > 0, "expected SB-full stalls");
        let mut p2 = always_no_dep();
        let roomy = simulate(&trace, &golden(), &mut p2);
        assert_eq!(roomy.stall_sb, 0);
        assert!(roomy.ipc() > squeezed.ipc());
    }

    /// The dispatch-stall taxonomy never exceeds total cycles.
    #[test]
    fn stall_counters_are_bounded_by_cycles() {
        let trace = store_load_trace(200, 6);
        let mut p = always_no_dep();
        let stats = simulate(&trace, &golden(), &mut p);
        assert!(stats.total_dispatch_stalls() <= stats.cycles);
        assert!(stats.stall_frontend <= stats.cycles);
    }

    /// A tiny load queue throttles in-flight loads and is attributed as an
    /// LQ stall.
    #[test]
    fn lq_pressure_is_attributed() {
        let mut cfg = golden();
        cfg.lq_entries = 2;
        // Loads with long memory latency keep the LQ full.
        let uops: Vec<Uop> = (0..600)
            .map(|i| Uop::load(0x100 + (i % 8) * 16, 0x100_0000 + i * 4096, 8, None, 1, None))
            .collect();
        let trace = Trace::new("lq", uops);
        let mut p = always_no_dep();
        let squeezed = simulate(&trace, &cfg, &mut p);
        assert!(squeezed.stall_lq > 0, "expected LQ stalls");
        let mut p2 = always_no_dep();
        let roomy = simulate(&trace, &golden(), &mut p2);
        assert!(roomy.ipc() >= squeezed.ipc());
    }

    /// Cold instruction fetch stalls the frontend; steady-state re-use of
    /// the same lines does not.
    #[test]
    fn icache_misses_only_stall_cold_code() {
        let uops: Vec<Uop> = (0..4000)
            .map(|i| Uop::alu(0x100 + (i % 64) * 4, [None, None], Some(1), 1))
            .collect();
        let trace = Trace::new("hot-code", uops);
        let mut p = always_no_dep();
        let stats = simulate(&trace, &golden(), &mut p);
        // 64 PCs over 4-byte spacing = 4 lines: a handful of cold misses.
        assert!(stats.l1i_misses <= 8, "l1i misses {}", stats.l1i_misses);
    }

    /// Same-cycle event scheduling is an engine bug: the slot for `now` has
    /// already been drained, so the event would fire a wheel revolution
    /// late. The push must hard-fail in release builds too.
    #[test]
    #[should_panic(expected = "events fire strictly in the future")]
    fn event_wheel_rejects_same_cycle_push() {
        let mut w = EventWheel::new(64);
        w.push(10, 10, 1, 0);
    }

    #[test]
    #[should_panic(expected = "events fire strictly in the future")]
    fn event_wheel_rejects_past_push() {
        let mut w = EventWheel::new(64);
        w.push(10, 9, 1, 0);
    }

    /// Beyond-horizon events spill to the overflow heap and are still
    /// delivered at the right cycle, merged with wheel-resident events.
    #[test]
    fn event_wheel_overflow_delivers_on_time() {
        let mut w = EventWheel::new(16);
        let far = w.mask + 50; // past the wheel horizon from cycle 0
        w.push(0, far, 7, 0);
        w.push(0, 3, 1, 1);
        assert_eq!(w.take_due(3), vec![(1, 1)]);
        for c in 4..far {
            assert!(w.take_due(c).is_empty(), "no event due at {c}");
        }
        assert_eq!(w.take_due(far), vec![(7, 0)]);
    }

    /// Seeded model check: the ready mask agrees with an ordered-set model
    /// through random insert/remove churn and a sliding id window, both in
    /// membership, count and `pick_oldest` order.
    #[test]
    fn ready_mask_matches_model_under_random_churn() {
        use std::collections::BTreeSet;

        const ROB: usize = 512; // window width; mask capacity matches
        let mut mask = ReadyMask::new(ROB);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut front = 0u64; // oldest id that may be present
        let mut next_id = 0u64; // ids dispatched so far
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            // xorshift*: deterministic, no external dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };

        let mut scratch = Vec::new();
        for round in 0..20_000u32 {
            match rng() % 4 {
                // Dispatch: a fresh id becomes ready (window permitting).
                0 if (next_id - front) < ROB as u64 => {
                    mask.insert(next_id);
                    model.insert(next_id);
                    next_id += 1;
                }
                // Issue: a random ready id leaves the mask.
                1 if !model.is_empty() => {
                    let nth = (rng() as usize) % model.len();
                    let id = *model.iter().nth(nth).expect("in range");
                    mask.remove(id);
                    model.remove(&id);
                }
                // Commit: the window front advances, evicting old ids.
                2 if front < next_id => {
                    let step = 1 + (rng() % 8);
                    let new_front = (front + step).min(next_id);
                    let evict: Vec<u64> =
                        model.range(..new_front).copied().collect();
                    for id in evict {
                        mask.remove(id);
                        model.remove(&id);
                    }
                    front = new_front;
                }
                // Drain check: oldest-k agrees with the model's order.
                _ => {
                    let k = (rng() as usize) % 8;
                    scratch.clear();
                    mask.pick_oldest(front, k, &mut scratch);
                    let want: Vec<u64> =
                        model.iter().copied().take(k.min(model.len())).collect();
                    assert_eq!(scratch, want, "round {round} front {front}");
                }
            }
            assert_eq!(mask.len() as usize, model.len(), "round {round}");
            // Spot-check membership across the whole live window.
            if round % 512 == 0 {
                for id in front..next_id {
                    assert_eq!(mask.contains(id), model.contains(&id), "id {id}");
                }
            }
        }
    }

    /// The audited engine accepts legitimate executions, including
    /// squash-heavy and bypass-heavy ones.
    #[test]
    fn audit_accepts_clean_runs() {
        let cases: Vec<(Trace, Fixed)> = vec![
            (store_load_trace(300, 12), always_no_dep()),
            (store_load_trace(300, 10), always_bypass(1)),
            (store_load_trace(300, 6), always_dep(1)),
        ];
        for (trace, mut p) in cases {
            let stats = Simulator::new(&trace, &golden(), &mut p)
                .with_audit()
                .run();
            assert_eq!(stats.committed_uops, trace.len() as u64);
        }
    }

    /// A skipped LQ invalidation (flushed loads surviving in the violation
    /// table) is caught by the auditor on the squash cycle.
    #[test]
    fn audit_catches_skipped_violation_purge() {
        let trace = store_load_trace(300, 12); // squash-heavy with no-dep
        let mut p = always_no_dep();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulator::new(&trace, &golden(), &mut p)
                .with_audit()
                .with_fault(Fault::SkipViolationPurge)
                .run()
        }));
        let msg = panic_message(result);
        assert!(msg.contains("audit violation"), "panic was: {msg}");
    }

    /// Ready-mask entries surviving a flush are caught as a population or
    /// membership mismatch. A single ALU port keeps a backlog of Ready
    /// micro-ops queued so the squash window actually contains some.
    #[test]
    fn audit_catches_skipped_ready_mask_purge() {
        let mut cfg = golden();
        cfg.alu_ports = 1;
        let mut uops = Vec::new();
        for i in 0..200u64 {
            let base = 0x1000 + i * 64;
            uops.push(Uop::alu(0x400, [None, None], Some(1), 12));
            uops.push(Uop::store(0x410, base, 8, None, Some(1)));
            let mut dep = dep1().unwrap();
            dep.store_pc = 0x410;
            uops.push(Uop::load(0x420, base, 8, None, 2, Some(dep)));
            for _ in 0..6 {
                uops.push(Uop::alu(0x430, [None, None], None, 1));
            }
        }
        let trace = Trace::new("ready-backlog", uops);
        let mut p = always_no_dep();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulator::new(&trace, &cfg, &mut p)
                .with_audit()
                .with_fault(Fault::SkipReadyMaskPurge)
                .run()
        }));
        // Debug builds may trip the mask's own debug_assert first; either
        // way the defect cannot survive an audited run.
        let msg = panic_message(result);
        assert!(
            msg.contains("audit violation") || msg.contains("ready ids are unique"),
            "panic was: {msg}"
        );
    }

    /// Dropped served-path accounting breaks the per-load census identity.
    #[test]
    fn audit_catches_skipped_served_accounting() {
        let trace = store_load_trace(100, 1); // forwarding-heavy
        let mut p = mascot_test_oracle();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulator::new(&trace, &golden(), &mut p)
                .with_audit()
                .with_fault(Fault::SkipServedAccounting)
                .run()
        }));
        let msg = panic_message(result);
        assert!(msg.contains("served-path census"), "panic was: {msg}");
    }

    fn panic_message(result: std::thread::Result<SimStats>) -> String {
        match result {
            Ok(_) => String::from("<no panic>"),
            Err(e) => {
                if let Some(s) = e.downcast_ref::<String>() {
                    s.clone()
                } else if let Some(s) = e.downcast_ref::<&str>() {
                    (*s).to_string()
                } else {
                    String::from("<non-string panic>")
                }
            }
        }
    }

    /// Counts the predictor's `end_tuning_period` calls.
    #[derive(Debug)]
    struct CountPeriods(u64);

    impl MemDepPredictor for CountPeriods {
        type Meta = ();
        fn name(&self) -> &'static str {
            "count"
        }
        fn predict(
            &mut self,
            _pc: u64,
            _seq: u64,
            _oracle: Option<&GroundTruth>,
        ) -> (MemDepPrediction, ()) {
            (MemDepPrediction::NoDependence, ())
        }
        fn train(&mut self, _: u64, _: (), _: MemDepPrediction, _: &LoadOutcome) {}
        fn on_branch(&mut self, _: &BranchEvent) {}
        fn rewind_history(&mut self, _: &[BranchEvent]) {}
        fn storage_bits(&self) -> u64 {
            0
        }
        fn end_tuning_period(&mut self) {
            self.0 += 1;
        }
    }

    /// A tuned run ends a period at exactly the cycles the modulo rule
    /// picks — every cycle count `1..=cycles` that is a multiple of the
    /// period — plus the final flush, whatever the period.
    #[test]
    fn tuning_calls_match_the_modulo_rule() {
        let trace = store_load_trace(300, 1);
        for period in [1, 2, 7, 50, 64, 1000, u64::MAX] {
            let mut p = CountPeriods(0);
            let stats = Simulator::new(&trace, &golden(), &mut p)
                .with_tuning_period(period)
                .run();
            let by_modulo = (1..=stats.cycles).filter(|c| c % period == 0).count() as u64;
            assert_eq!(p.0, by_modulo + 1, "period {period}, {} cycles", stats.cycles);
        }
    }
}
