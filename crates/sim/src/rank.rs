//! Per-rank handle: point-to-point messaging, collectives, virtual clock.
//!
//! Each rank owns a virtual clock (ns) and runs as a fiber of the rank
//! scheduler, on the one host thread that drives its world.
//! Message timing follows an alpha/beta model; computation is charged
//! explicitly by the layers above (offset/length-pair processing, buffer
//! copies, file-system service times). A receive completes at
//! `max(local_now, message_available_at) + recv_overhead`, which is what
//! makes communication/computation overlap (§5.4 of the paper) fall out
//! naturally: work done while a message is in flight hides its latency.

use crate::cost::CostModel;
use crate::sched::Segment;
use crate::world::{Msg, Payload, World};
use std::any::TypeId;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// Tag space reserved for internal collective traffic. An internal tag is
/// `INTERNAL_BASE + (round key << STEP_BITS) + step`, the round key being
/// `seq * 8 + op`: a collective's sequence number on its rank and its
/// kind ([`OPS`]). Steps run to `nprocs - 1` in the pairwise `alltoallv`
/// (the log-step rounds take ⌈log2 nprocs⌉), so the step field is wide
/// enough for any world the simulator can hold and no round's tags reach
/// into another's.
const INTERNAL_BASE: u64 = 1 << 40;
const STEP_BITS: u32 = 24;

/// Collective kinds, indexed by the `op` of a round key.
const OPS: [&str; 5] = ["barrier", "allgatherv", "alltoallv", "exchange", "alltoall"];

/// Whether `tag` is a collective's rather than a user's.
pub(crate) fn is_collective(tag: u64) -> bool {
    tag >= INTERNAL_BASE
}

/// What a parked receive waits for, for the deadlock report: the user tag,
/// or the collective (by sequence number and kind) and the step in it.
pub(crate) fn describe_tag(tag: u64) -> String {
    if !is_collective(tag) {
        return format!("tag={tag}");
    }
    let (key, step) = ((tag - INTERNAL_BASE) >> STEP_BITS, tag & ((1 << STEP_BITS) - 1));
    format!("collective #{} {} step {step}", key / 8, OPS[(key % 8) as usize])
}

/// The tag of step `step` of the collective with round key `key`.
fn coll_tag(key: u64, step: usize) -> u64 {
    debug_assert!(step < 1 << STEP_BITS, "collective step {step} overflows the tag layout");
    INTERNAL_BASE + (key << STEP_BITS) + step as u64
}

/// How many of the indices `0..p` have bit `k` set: the blocks step `k`
/// of a Bruck `alltoall` sends.
fn indices_with_bit(p: usize, k: usize) -> usize {
    let period = 2 << k;
    ((p / period) << k) + (p % period).saturating_sub(1 << k)
}

/// Bits of a world rank in a round's identity ([`Rank::round_id`]): a
/// world holds at most 2^24 ranks.
const RANK_BITS: u32 = 24;

/// The blocks of one `allgatherv` or `alltoall` round, one slot per
/// member in rank order, and one table for the round: every member gets
/// the same one ([`Rank::allgatherv_shared`], [`Rank::alltoall`]),
/// deposits its own block in it on entry, and reads the others' from it.
/// The round's messages carry only the byte counts they are charged for.
/// An `alltoall` member's block is its whole row, and it reads its own
/// column of the others'.
///
/// A member reads a slot only once the round's chain of steps has
/// delivered it a message that the slot's owner sent after depositing
/// (why that holds is on [`Rank::allgatherv_shared`]); reading a slot
/// that is still empty panics.
///
/// Beside its block a slot holds its owner's stamp, a word deposited with
/// the block and charged nothing ([`Rank::allgatherv_stamped`]).
pub struct GatherTable {
    round: u64,
    slots: Box<[OnceLock<Slot>]>,
    /// The largest stamp, once a member has asked for it.
    max_stamp: OnceLock<u64>,
}

/// One member's deposit in a [`GatherTable`].
struct Slot {
    block: Box<[u8]>,
    stamp: u64,
}

impl GatherTable {
    /// The round's identity, unique among its world's rounds: the table's
    /// [`Rank::shared_once`] key, and a key for a value that is computed
    /// from the table once per world.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of blocks: one per member of the round.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the round had no members (never: a communicator has one).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The block and the stamp of member `i`.
    fn slot(&self, i: usize) -> &Slot {
        let Some(slot) = self.slots[i].get() else {
            panic!("round {:#x}: member {i}'s block read before it was deposited", self.round)
        };
        slot
    }

    /// The block of member `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.slot(i).block
    }

    /// Every block, in rank order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every stamp, in rank order.
    pub fn stamps(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        (0..self.len()).map(|i| self.slot(i).stamp)
    }

    /// The largest stamp: the first member to ask scans the table, the
    /// others read what it found (every member scanning was p² reads a
    /// round).
    pub fn max_stamp(&self) -> u64 {
        *self.max_stamp.get_or_init(|| self.stamps().max().unwrap_or(0))
    }

    /// The bytes of the first `n` blocks member `from` holds in a round:
    /// its own and those of the `n − 1` members below it, wrapping.
    fn held_bytes(&self, from: usize, n: usize) -> usize {
        let below = n.min(from + 1);
        let wrapped = self.len() - (n - below)..self.len();
        (from + 1 - below..from + 1).chain(wrapped).map(|i| self.get(i).len()).sum()
    }
}

/// Execution phases, for MPE-style attribution (§6.2 uses MPE logging to
/// find where time goes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Datatype processing / address computation.
    Compute,
    /// Network communication.
    Comm,
    /// File-system I/O.
    Io,
}

/// Per-rank counters, owned by the rank itself (no sharing). This struct
/// is the store: a rank keeps one in its state and every charge writes it
/// through [`Rank::tally`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Messages sent (point-to-point, including collective internals).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Offset/length pairs charged via [`Rank::charge_pairs`].
    pub pairs_processed: u64,
    /// Bytes charged via [`Rank::charge_memcpy`].
    pub memcpy_bytes: u64,
    /// Bytes the collective engines moved through an intermediate
    /// staging buffer on the data path: a sieve-resolved group's copy
    /// into (or out of) its sieve buffer, and the ROMIO engine's
    /// placement into its integrated sieve buffer — the data path hands
    /// runs down everywhere else and copies nothing. A pure ledger, no
    /// virtual time (the copy is charged with [`Rank::charge_memcpy`]),
    /// and never more than [`Stats::memcpy_bytes`], which also counts
    /// transport self-delivery and independent I/O's pack.
    pub bytes_copied: u64,
    /// Virtual ns attributed to compute / comm / io phases. Only time
    /// a rank waited in is here: I/O hidden behind other work is in
    /// [`Stats::overlap_saved_ns`], not in the `Io` bucket, so a pipelined
    /// aggregator whose every read completed behind distribution shows an
    /// `Io` bucket of 0.
    pub phase_ns: [u64; 3],
    /// Exchange-schedule cache hits (collective-engine layer).
    pub schedule_cache_hits: u64,
    /// Exchange-schedule cache misses (probes that had to re-derive).
    pub schedule_cache_misses: u64,
    /// Cached schedules patched in place after a straggler realm
    /// rebalance (windows re-cut against the new realms without
    /// re-parsing wire metadata), so a rebalance does not cost a full miss
    /// on the next call.
    pub schedule_cache_patches: u64,
    /// Flatten-cache hits (datatype layer).
    pub flatten_cache_hits: u64,
    /// Flatten-cache misses.
    pub flatten_cache_misses: u64,
    /// Virtual ns of in-flight operation time hidden behind other work
    /// (windows of any phase but [`Phase::Compute`] completed via
    /// [`Rank::overlap_complete`]).
    pub overlap_saved_ns: u64,
    /// Virtual ns of schedule-derivation compute hidden behind other work
    /// (windows of [`Phase::Compute`] completed via
    /// [`Rank::overlap_complete`]). Kept separate from
    /// [`Stats::overlap_saved_ns`] so I/O-pipelining and derive-overlap
    /// savings can be attributed independently.
    pub derive_overlap_saved_ns: u64,
    /// High-water mark of buffer cycles concurrently active in the
    /// collective engine's pipeline (1 = strictly serial); a watermark,
    /// not an accumulator.
    pub pipeline_depth_used: u64,
    /// File-system requests this rank re-issued after a transient fault
    /// (collective-engine retry loops).
    pub io_retries: u64,
    /// Buffer cycles during which the engine observed a straggling
    /// aggregator (EWMA service time ≥ 2× the others' average).
    pub degraded_cycles: u64,
    /// Times the flexible engine rebalanced persistent file realms away
    /// from a straggling aggregator for subsequent collective calls.
    pub realms_rebalanced: u64,
    /// Crash-stopped peers this rank agreed dead and recovered past
    /// (collective membership shrink + replay).
    pub ranks_recovered: u64,
}

/// One physical rank's clock, collective sequence number and counters, in
/// one allocation that all of the rank's communicator handles share.
/// Plain `Cell`s: a charge is a handful of loads and stores with no
/// borrow flag to test.
#[derive(Default)]
struct RankState {
    clock: Cell<u64>,
    seq: Cell<u64>,
    stats: Cell<Stats>,
}

/// A handle to one simulated MPI rank — either the world communicator or
/// a sub-communicator made with [`Rank::subgroup`]. Group handles share
/// the clock, collective sequence, and counters of the rank they were
/// split from (one `Rc`), so a collective run over a subgroup charges the
/// same physical rank; only the id frame changes.
pub struct Rank {
    world: Arc<World>,
    /// World-frame id: mailbox identity and scheduler slot.
    global: usize,
    /// Group-relative id (equals `global` on the world communicator).
    rank: usize,
    /// Sorted world-frame ids of the group (`None` = whole world).
    group: Option<Arc<Vec<usize>>>,
    state: Rc<RankState>,
}

/// An in-flight operation of known virtual completion time (e.g. a
/// non-blocking file write) that runs without occupying this rank's CPU.
/// Opened with [`Rank::overlap_begin`], harvested with
/// [`Rank::overlap_complete`]: any clock advance between the two hides an
/// equal amount of the operation's duration, so a begin/work/complete
/// window charges `max(op, work)` instead of their sum.
#[must_use = "an overlapped operation must be completed to charge its time"]
pub struct OverlapWindow {
    issued_at: u64,
    done_at: u64,
    phase: Phase,
}

impl OverlapWindow {
    /// Virtual time the operation was issued at.
    pub fn issued_at(&self) -> u64 {
        self.issued_at
    }

    /// Virtual time the operation completes at.
    pub fn done_at(&self) -> u64 {
        self.done_at
    }

    /// The operation's full virtual duration.
    pub fn duration(&self) -> u64 {
        self.done_at.saturating_sub(self.issued_at)
    }
}

impl Rank {
    pub(crate) fn new(world: Arc<World>, rank: usize) -> Self {
        Rank { world, global: rank, rank, group: None, state: Rc::default() }
    }

    /// This rank's id in its communicator (group-relative for a
    /// [`Rank::subgroup`] handle).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    pub fn nprocs(&self) -> usize {
        match &self.group {
            None => self.world.nprocs(),
            Some(g) => g.len(),
        }
    }

    /// Translate a communicator-relative id to its world-frame id.
    fn global_of(&self, r: usize) -> usize {
        match &self.group {
            None => r,
            Some(g) => g[r],
        }
    }

    /// This segment's token: every entry point that communicates asks
    /// once, and panics here when called outside `flexio_sim::run`.
    fn seg(&self) -> Segment<'_> {
        crate::sched::segment(&self.world)
    }

    /// Split off a sub-communicator over `members` (ids relative to THIS
    /// handle's frame, strictly ascending, containing the caller). The
    /// returned handle shares this rank's clock, sequence, and counters;
    /// its `rank()`/`nprocs()` are group-relative, so collectives — and
    /// whole engines — run over the subgroup unchanged. This is how
    /// survivors re-form the world after agreeing a peer is dead:
    /// aggregator re-election and realm re-partition fall out of
    /// re-deriving schedules over the shrunk `nprocs()`.
    pub fn subgroup(&self, members: &[usize]) -> Rank {
        assert!(!members.is_empty(), "subgroup needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "subgroup members must be strictly ascending"
        );
        let globals: Vec<usize> = members.iter().map(|&m| self.global_of(m)).collect();
        let rank = globals
            .iter()
            .position(|&g| g == self.global)
            .expect("subgroup must contain the calling rank");
        Rank {
            world: Arc::clone(&self.world),
            global: self.global,
            rank,
            group: Some(Arc::new(globals)),
            state: Rc::clone(&self.state),
        }
    }

    /// Whether this rank's world was built to crash
    /// ([`crate::world::run_crashable`] or [`World::with_crashes`]),
    /// whatever its schedule holds; false under [`crate::world::run`].
    /// The same on every rank of the world and on every subgroup handle,
    /// so callers may arm crash detection on it collectively.
    pub fn crashable(&self) -> bool {
        self.world.crashable()
    }

    /// Crash checkpoint: if this rank's scheduled crash time (see
    /// [`crate::world::run_crashable`]) has been reached, the rank
    /// crash-stops — its fiber unwinds (running destructors), its mailbox
    /// is reaped, and it never communicates again. Call at points where
    /// dying is survivable for the rest of the world, i.e. *between*
    /// collectives, never inside one.
    pub fn maybe_crash(&self) {
        if self.now() >= self.world.crash_time(self.global) && !self.seg().is_dead(self.global) {
            std::panic::resume_unwind(Box::new(crate::world::CrashStop));
        }
    }

    /// The id of this rank's world ([`World::id`]): the same on every
    /// rank and on every subgroup handle of the world, and larger than
    /// that of every world built before it.
    pub fn world_id(&self) -> u64 {
        self.world.id()
    }

    /// The world's cost model.
    pub fn cost(&self) -> &CostModel {
        self.world.cost()
    }

    /// Current virtual time, ns.
    pub fn now(&self) -> u64 {
        self.state.clock.get()
    }

    /// Advance the virtual clock by `ns`.
    pub fn advance(&self, ns: u64) {
        self.state.clock.set(self.state.clock.get() + ns);
    }

    /// Move the clock forward to `t` if `t` is later.
    pub fn advance_to(&self, t: u64) {
        if t > self.state.clock.get() {
            self.state.clock.set(t);
        }
    }

    /// Charge the processing of `n` offset/length pairs (Compute phase).
    pub fn charge_pairs(&self, n: u64) {
        let ns = self.cost().pairs_ns(n);
        self.advance(ns);
        self.tally(|s| {
            s.pairs_processed += n;
            s.phase_ns[Phase::Compute as usize] += ns;
        });
    }

    /// Charge a local buffer copy of `bytes` (Compute phase).
    pub fn charge_memcpy(&self, bytes: u64) {
        let ns = self.cost().memcpy_ns(bytes);
        self.advance(ns);
        self.tally(|s| {
            s.memcpy_bytes += bytes;
            s.phase_ns[Phase::Compute as usize] += ns;
        });
    }

    /// Attribute `ns` of already-elapsed virtual time to a phase.
    pub fn note_phase(&self, phase: Phase, ns: u64) {
        self.tally(|s| s.phase_ns[phase as usize] += ns);
    }

    /// Update this rank's counters: `f` gets the current [`Stats`] to
    /// change in place — the one write path to them, for this crate's
    /// charges and for the layers above alike (`rank.tally(|s|
    /// s.io_retries += 1)`). No virtual time moves here; a counter that
    /// stands for work is charged separately.
    pub fn tally(&self, f: impl FnOnce(&mut Stats)) {
        let mut s = self.state.stats.get();
        f(&mut s);
        self.state.stats.set(s);
    }

    /// Open an overlapped window for an operation issued at the current
    /// virtual time that will complete at `done_at` without occupying this
    /// rank's CPU (a non-blocking file request already in the device
    /// queue). The clock does not move; work performed before
    /// [`Rank::overlap_complete`] runs concurrently with the operation.
    pub fn overlap_begin(&self, done_at: u64, phase: Phase) -> OverlapWindow {
        OverlapWindow { issued_at: self.now(), done_at, phase }
    }

    /// Complete an overlapped operation: advance the clock to its
    /// completion time and attribute only the *un-hidden* remainder to the
    /// window's phase — clock advances made since [`Rank::overlap_begin`]
    /// (which carried their own attribution) hide an equal share of the
    /// operation. The pair therefore charges `max(op, work)` rather than
    /// `op + work`, while per-phase buckets still sum to elapsed time.
    /// Returns the hidden ns, also accumulated by the window's phase: in
    /// [`Stats::derive_overlap_saved_ns`] for a [`Phase::Compute`] window
    /// (a derivation's pending pairs), in [`Stats::overlap_saved_ns`]
    /// otherwise.
    pub fn overlap_complete(&self, w: OverlapWindow) -> u64 {
        let remainder = w.done_at.saturating_sub(self.now());
        self.advance_to(w.done_at);
        self.note_phase(w.phase, remainder);
        let hidden = w.duration() - remainder;
        match w.phase {
            Phase::Compute => self.tally(|s| s.derive_overlap_saved_ns += hidden),
            _ => self.tally(|s| s.overlap_saved_ns += hidden),
        }
        hidden
    }

    /// Snapshot of this rank's counters.
    pub fn stats(&self) -> Stats {
        self.state.stats.get()
    }

    // ----- world-shared values ---------------------------------------------

    /// World-scoped "compute once, share": the value of type `T` under
    /// `key`, computed by the first rank of this world to ask and shared
    /// (one `Arc`) with every rank that asks after it. The world holds the
    /// value until every member of this communicator (`nprocs()` asks,
    /// the first included) has taken it, so a member that finishes with
    /// it early cannot make a slower one recompute it; from then on it
    /// keeps only a weak reference, so the value is freed with its last
    /// holder and a later ask recomputes it. A member that never asks
    /// leaves the value pinned until the world ends; nothing outlives the
    /// world. Sub-communicators share their world's cells.
    ///
    /// `init` must be a pure function of what `key` digests (every rank
    /// must be content with any other rank's result) and must not
    /// communicate or otherwise yield. Host-side only: no virtual time is
    /// charged here, callers charge what their cost model says the work
    /// costs each rank.
    pub fn shared_once<T: std::any::Any + Send + Sync>(
        &self,
        key: u64,
        init: impl FnOnce() -> T,
    ) -> Arc<T> {
        self.seg().shared_once(key, self.nprocs(), init)
    }

    /// Number of [`Rank::shared_once`] values of this world that are
    /// alive — held by a rank, or pinned for a member that has not taken
    /// its value yet (a residency probe for tests). Every `allgatherv`
    /// round's [`GatherTable`] is one while the round's members hold it.
    pub fn shared_live(&self) -> usize {
        self.seg().shared_live(None)
    }

    /// [`Rank::shared_live`] counting only the values of type `T`.
    pub fn shared_live_of<T: 'static>(&self) -> usize {
        self.seg().shared_live(Some(TypeId::of::<T>()))
    }

    // ----- point to point ------------------------------------------------

    /// Eager send: never blocks. The message becomes available at the
    /// destination after latency + transfer time.
    pub fn send(&self, dst: usize, tag: u64, data: &[u8]) {
        assert!(tag < INTERNAL_BASE, "user tags must stay below 2^40, got {tag}");
        self.send_tagged(dst, tag, Payload::Owned(data.to_vec()));
    }

    /// Charge one send of `len` bytes (overhead now, α + β·len in
    /// flight) and return the virtual time the message is available at.
    fn charge_send(&self, len: usize) -> u64 {
        let c = self.cost();
        self.advance(c.send_overhead_ns);
        self.tally(|s| {
            s.msgs_sent += 1;
            s.bytes_sent += len as u64;
            s.phase_ns[Phase::Comm as usize] += c.send_overhead_ns;
        });
        self.now() + c.msg_ns(len)
    }

    /// Charge the completion of a receive: wait for the message if it is
    /// still in flight, then the receive overhead; all of it Comm time.
    fn charge_recv(&self, m: Msg) -> Payload {
        let before = self.now();
        self.advance_to(m.avail_at);
        self.advance(self.cost().recv_overhead_ns);
        self.note_phase(Phase::Comm, self.now() - before);
        m.data
    }

    /// Send `data` as it is: the message takes it over.
    fn send_tagged(&self, dst: usize, tag: u64, data: Payload) {
        let avail_at = self.charge_send(data.len());
        // Mailbox identity is world-frame: group ids translate here, in
        // `recv_tagged` and in `recv_timeout`, nowhere else.
        let msg = Msg { data, avail_at };
        self.seg().deliver(self.global_of(dst), self.global, tag, msg);
    }

    /// Blocking receive of the next message from `src` with `tag`.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<u8> {
        assert!(tag < INTERNAL_BASE, "user tags must stay below 2^40, got {tag}");
        self.recv_tagged(src, tag).into_vec()
    }

    fn recv_tagged(&self, src: usize, tag: u64) -> Payload {
        let m = self.seg().take(self.global, self.global_of(src), tag, self.now(), None);
        self.charge_recv(m.expect("only a deadline ends a park without its message"))
    }

    /// Blocking receive with a virtual-time watchdog: returns `None` when
    /// no matching message has arrived by `deadline` (absolute virtual
    /// ns), advancing the clock to the deadline — the timed-out wait was
    /// real (Comm) time. The timer is a deterministic scheduler event, so
    /// a timeout is as reproducible as a delivery. This is the primitive
    /// under crash-stop failure detection.
    pub fn recv_timeout(&self, src: usize, tag: u64, deadline: u64) -> Option<Vec<u8>> {
        let before = self.now();
        match self.seg().take(self.global, self.global_of(src), tag, before, Some(deadline)) {
            Some(m) => Some(self.charge_recv(m).into_vec()),
            None => {
                self.advance_to(deadline);
                self.note_phase(Phase::Comm, self.now() - before);
                None
            }
        }
    }

    // ----- collectives ----------------------------------------------------

    /// The round key of the collective about to run: `seq * 8 + op`, the
    /// same on every participant. Its messages are tagged
    /// `coll_tag(key, step)`.
    fn round_key(&self, op: u64) -> u64 {
        debug_assert!((op as usize) < OPS.len());
        self.state.seq.get() * 8 + op
    }

    /// The identity of the round with key `key` over this communicator:
    /// the key and the communicator's lowest world rank. Every member of a
    /// round runs it under the same key and a rank never reuses one, so
    /// two rounds with one key have no member in common, and so not the
    /// same lowest rank — disjoint subgroups that run the same round at
    /// the same time included.
    fn round_id(&self, key: u64) -> u64 {
        let lowest = self.global_of(0) as u64;
        debug_assert!(lowest < 1 << RANK_BITS && key < 1 << (64 - RANK_BITS));
        key << RANK_BITS | lowest
    }

    fn finish_coll(&self) {
        self.state.seq.set(self.state.seq.get() + 1);
    }

    /// Step `step` of a collective with round key `key`: send `data` to
    /// `dst`, then receive the step's message from `src` — the one thing
    /// every step of `barrier`, `allgatherv` and `alltoallv` does.
    fn step(&self, key: u64, step: usize, (dst, src): (usize, usize), data: Payload) -> Payload {
        let tag = coll_tag(key, step);
        self.send_tagged(dst, tag, data);
        self.recv_tagged(src, tag)
    }

    /// The peers `dist` away (`0 < dist < nprocs`): whom a step sends to
    /// and whom it receives from.
    fn peers_at(&self, dist: usize) -> (usize, usize) {
        let (r, p) = (self.rank, self.nprocs());
        // `dist < p`, so one conditional subtraction wraps.
        let wrap = |x: usize| if x >= p { x - p } else { x };
        (wrap(r + dist), wrap(r + p - dist))
    }

    /// The steps of a log-step round: ⌈log2 nprocs⌉, step `k` pairing
    /// with the ranks `2^k` away.
    fn log_steps(&self) -> std::ops::Range<usize> {
        0..self.nprocs().next_power_of_two().trailing_zeros() as usize
    }

    /// Dissemination barrier; also synchronizes virtual clocks to a common
    /// lower bound (every rank ends at ≥ the max participant clock).
    /// Round `k` exchanges empty messages at distance `2^k`.
    pub fn barrier(&self) {
        let key = self.round_key(0);
        for k in self.log_steps() {
            self.step(key, k, self.peers_at(1 << k), Payload::Owned(Vec::new()));
        }
        self.finish_coll();
    }

    /// Allgather of variable-size blocks (Bruck); result indexed by rank.
    /// [`Rank::allgatherv_shared`] with a private copy of every block.
    pub fn allgatherv(&self, mine: &[u8]) -> Vec<Vec<u8>> {
        self.allgatherv_shared(mine).iter().map(|b| b.to_vec()).collect()
    }

    /// Allgather of variable-size blocks; the round's table, indexed by
    /// rank. Bruck's algorithm: ⌈log2 p⌉ steps, step `k` sending `rank +
    /// 2^k` the first min(2^k, p − 2^k) blocks this rank holds — its own,
    /// then `rank − 1`'s, `rank − 2`'s, … — and receiving as many from
    /// `rank − 2^k`, one message of α + β·Σlen each.
    ///
    /// The blocks do not travel: the round has one [`GatherTable`] (a
    /// [`Rank::shared_once`] cell under `Rank::round_id`), each member
    /// deposits its own block in it on entry, and a step's message carries
    /// only the byte count it is charged for. So a world holds `p` blocks
    /// and a member's share of the host work is its steps and one table
    /// handle.
    ///
    /// Why no member reads a slot before its owner deposits: a member
    /// deposits before its first send, and by induction on `k`, a member
    /// entering step `k` has received — directly or through the senders
    /// before it — a message from each of the 2^k − 1 members below it,
    /// each sent after that member deposited (step `k`'s message from
    /// `rank − 2^k` was sent after its sender had heard from the 2^k − 1
    /// below *it*). Step `k` sends the blocks of at most 2^k members, its
    /// own and those below it, and after the last step a member has heard
    /// from all `p − 1` others.
    pub fn allgatherv_shared(&self, mine: &[u8]) -> Arc<GatherTable> {
        self.allgatherv_stamped(mine, 0)
    }

    /// [`Rank::allgatherv_shared`], depositing `stamp` beside this rank's
    /// block: every member reads every member's stamp from the table
    /// ([`GatherTable::stamps`]), and no step is charged for them. A stamp
    /// is for state the model must have every member agree on where a
    /// real system sends no message for it — the file size a collective
    /// write's ranks saw on entry, which a real OST simply knows.
    pub fn allgatherv_stamped(&self, mine: &[u8], stamp: u64) -> Arc<GatherTable> {
        let p = self.nprocs();
        let key = self.round_key(1);
        let table = self.deposit(key, mine, stamp);
        // Bytes of the blocks this rank holds: its own and those the steps
        // so far stood for. A step that sends them all sends these.
        let mut held = mine.len();
        for k in self.log_steps() {
            let n = (1 << k).min(p - (1 << k));
            let bytes = if n == 1 << k { held } else { table.held_bytes(self.rank, n) };
            let (dst, src) = self.peers_at(1 << k);
            let got = self.step(key, k, (dst, src), Payload::Sized(bytes)).len();
            debug_assert_eq!(got, table.held_bytes(src, n), "step {k} from {src}");
            held += got;
        }
        self.finish_coll();
        table
    }

    /// The table of the round with key `key`, with this rank's `block`
    /// and `stamp` deposited in it: the first member to enter makes it.
    fn deposit(&self, key: u64, block: &[u8], stamp: u64) -> Arc<GatherTable> {
        let round = self.round_id(key);
        let table = self.shared_once(round, || GatherTable {
            round,
            slots: (0..self.nprocs()).map(|_| OnceLock::new()).collect(),
            max_stamp: OnceLock::new(),
        });
        let fresh = table.slots[self.rank].set(Slot { block: block.into(), stamp }).is_ok();
        assert!(fresh, "round {round:#x}: rank {} deposited twice", self.rank);
        table
    }

    /// All-to-all of fixed-size blocks: `blocks` holds one block per rank,
    /// all of one length, the one for rank `d` at `d · len`; the result
    /// holds the blocks addressed to this rank, the one from `s` at
    /// `s · len`. Every member passes blocks of the same length.
    ///
    /// Bruck's index algorithm, which MPICH's automatic selection runs for
    /// short blocks on 8 ranks or more: a local rotation that puts the
    /// block for `rank + j` at index `j`, then ⌈log2 p⌉ steps, step `k`
    /// sending `rank + 2^k` the blocks whose index has bit `k` set and
    /// receiving as many from `rank − 2^k`, then the inverse rotation. One
    /// message a step of α + β·(count · len), the count in closed form;
    /// each rotation is charged as a copy of the `p` blocks. Two things
    /// MPICH does are deliberately not modelled: below 8 ranks it sends
    /// the blocks by scattered isend/irecv instead (here every size runs
    /// Bruck), and it packs a step's blocks before the send and unpacks
    /// them after the receive (here only the two rotations are charged).
    ///
    /// As in [`Rank::allgatherv_shared`], the blocks do not travel: each
    /// member deposits its row in the round's [`GatherTable`] on entry, a
    /// step's message carries only the byte count it is charged for, and
    /// a member reads its column once its steps end. The steps pair the
    /// same peers as the `allgatherv`'s, so by the induction there a
    /// member has heard from every other one, each after its deposit.
    pub fn alltoall(&self, blocks: &[u8]) -> Vec<u8> {
        let p = self.nprocs();
        assert_eq!(blocks.len() % p, 0, "alltoall needs one block per rank, all of one length");
        let len = blocks.len() / p;
        let key = self.round_key(4);
        let table = self.deposit(key, blocks, 0);
        self.charge_memcpy(blocks.len() as u64);
        for k in self.log_steps() {
            let bytes = indices_with_bit(p, k) * len;
            let got = self.step(key, k, self.peers_at(1 << k), Payload::Sized(bytes)).len();
            debug_assert_eq!(got, bytes, "alltoall step {k}: blocks of unequal length");
        }
        self.charge_memcpy(blocks.len() as u64);
        let column = self.rank * len..(self.rank + 1) * len;
        let mut out = Vec::with_capacity(blocks.len());
        for (src, row) in table.iter().enumerate() {
            assert_eq!(row.len(), blocks.len(), "alltoall: rank {src}'s blocks differ in length");
            out.extend_from_slice(&row[column.clone()]);
        }
        self.finish_coll();
        out
    }

    /// Pairwise-exchange all-to-all of variable-size blocks, one per rank;
    /// result indexed by rank. Step `s` sends the block for `rank + s` and
    /// receives the block of `rank − s`, `nprocs − 1` steps after the
    /// local copy of the own block: one message per peer, empty blocks
    /// included. [`Rank::exchange`] sends only the blocks that exist.
    pub fn alltoallv(&self, mut blocks: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let p = self.nprocs();
        assert_eq!(blocks.len(), p, "alltoallv needs one block per rank");
        let own = std::mem::take(&mut blocks[self.rank]);
        self.charge_memcpy(own.len() as u64);
        let key = self.round_key(2);
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
        out[self.rank] = own;
        for s in 1..p {
            let (dst, src) = self.peers_at(s);
            let block = Payload::Owned(std::mem::take(&mut blocks[dst]));
            out[src] = self.step(key, s, (dst, src), block).into_vec();
        }
        self.finish_coll();
        out
    }

    /// Sparse exchange, the point-to-point round of two-phase I/O: one
    /// message for every listed block, empty or not, and none for a peer
    /// listed on neither side. `sends` lists `(dst, payload)` pairs, posted
    /// in the order given; then the receives of `recv_from` complete in
    /// order, one message from each. A block for this rank skips the
    /// network and is charged its copy where `recv_from` lists it. The
    /// payloads are taken by value: each becomes its message (or, sent to
    /// self, its own receipt) without a copy. All participants must call
    /// this the same number of times with consistent expectations: a block
    /// its receiver does not list is a caller bug, reported when the world
    /// ends. Returns `(src, payload)` pairs in `recv_from` order.
    pub fn exchange(
        &self,
        sends: Vec<(usize, Vec<u8>)>,
        recv_from: &[usize],
    ) -> Vec<(usize, Vec<u8>)> {
        let tag = coll_tag(self.round_key(3), 0);
        let mut self_payloads = std::collections::VecDeque::new();
        for (dst, payload) in sends {
            if dst == self.rank {
                self_payloads.push_back(payload);
            } else {
                self.send_tagged(dst, tag, Payload::Owned(payload));
            }
        }
        let mut out = Vec::with_capacity(recv_from.len());
        for &src in recv_from {
            if src == self.rank {
                // Local delivery without the network.
                let payload = self_payloads
                    .pop_front()
                    .expect("recv_from lists self but no send targets self");
                self.charge_memcpy(payload.len() as u64);
                out.push((self.rank, payload));
            } else {
                out.push((src, self.recv_tagged(src, tag).into_vec()));
            }
        }
        assert!(
            self_payloads.is_empty(),
            "exchange: rank {} sends to itself but its recv_from does not list it ({})",
            self.rank,
            describe_tag(tag),
        );
        self.finish_coll();
        out
    }

    /// Allreduce over `u64` with a binary operator (gather + local fold).
    pub fn allreduce_u64(&self, val: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        let parts = self.allgatherv_shared(&val.to_le_bytes());
        parts
            .iter()
            .map(|b| {
                u64::from_le_bytes(
                    b.try_into()
                        .expect("allreduce_u64: every contribution must be exactly 8 bytes"),
                )
            })
            .reduce(op)
            .expect("allreduce_u64: a world always has at least one rank")
    }

    /// Maximum of `val` across ranks.
    pub fn allreduce_max(&self, val: u64) -> u64 {
        self.allreduce_u64(val, u64::max)
    }

    /// Minimum of `val` across ranks.
    pub fn allreduce_min(&self, val: u64) -> u64 {
        self.allreduce_u64(val, u64::min)
    }

    /// Sum of `val` across ranks.
    pub fn allreduce_sum(&self, val: u64) -> u64 {
        self.allreduce_u64(val, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{run, run_crashable};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn no_token_outside_the_runtime_or_for_a_world_it_does_not_drive() {
        let stray_send = || {
            let err = std::panic::catch_unwind(|| {
                Rank::new(World::new(2, CostModel::free()), 0).send(1, 0, &[]);
            })
            .expect_err("a rank of a world nobody drives must not reach its state");
            let msg = err.downcast_ref::<String>().expect("panic carries a String");
            assert!(msg.contains("outside the rank runtime"), "{msg}");
        };
        stray_send();
        // Inside a run, but of another world than the stray rank's.
        run(1, CostModel::free(), |_| stray_send());
    }

    #[test]
    fn shared_once_computes_once_per_world() {
        let inits = AtomicUsize::new(0);
        let out = run(8, CostModel::default(), |r| {
            let v = r.shared_once(7, || {
                inits.fetch_add(1, Ordering::SeqCst);
                vec![r.nprocs() as u64; 4]
            });
            // Everyone is past the lookup before anyone lets go.
            r.barrier();
            (Arc::as_ptr(&v) as usize, r.shared_live())
        });
        assert_eq!(inits.load(Ordering::SeqCst), 1);
        assert!(out.iter().all(|&(p, live)| p == out[0].0 && live == 1));
    }

    #[test]
    fn shared_once_separates_keys_and_types_and_frees_with_the_last_holder() {
        let out = run(2, CostModel::free(), |r| {
            let a = r.shared_once(1, || 10u64);
            let b = r.shared_once(2, || 20u64);
            let c = r.shared_once(1, || String::from("same key, other type"));
            assert_eq!((*a, *b, c.len()), (10, 20, 20));
            r.barrier();
            assert_eq!(r.shared_live(), 3);
            drop((a, b, c));
            r.barrier();
            assert_eq!(r.shared_live(), 0, "cells must not outlive their holders");
            r.barrier();
            // A later ask recomputes, once: whoever asks first lets go at
            // once, and its value waits, pinned, for the other.
            let v = *r.shared_once(1, || 11 + r.rank() as u64);
            r.barrier();
            assert_eq!(r.shared_live(), 0, "taken by both and let go");
            v
        });
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn a_value_waits_for_every_member_of_the_asking_communicator() {
        // Each rank takes the value and lets go of it before the next one
        // runs. A weak cell alone would be dead at every ask (eight
        // derivations); pinned until all eight have taken it, it is
        // computed once and freed with the last taker.
        let inits = AtomicUsize::new(0);
        let init = || inits.fetch_add(1, Ordering::SeqCst);
        run(8, CostModel::free(), |r| {
            drop(r.shared_once(3, init));
            r.barrier();
            assert_eq!(r.shared_live(), 0, "taken by all eight and let go");
            r.barrier();
            // A sub-communicator's ask pins for its own members only.
            if r.rank() % 3 == 0 {
                let comm = r.subgroup(&[0, 3, 6]);
                drop(comm.shared_once(4, init));
                comm.barrier();
                assert_eq!(r.shared_live(), 0, "taken by all three and let go");
            }
        });
        assert_eq!(inits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn p2p_roundtrip() {
        let out = run(2, CostModel::default(), |r| {
            if r.rank() == 0 {
                r.send(1, 7, b"hello");
                r.recv(1, 8)
            } else {
                let m = r.recv(0, 7);
                r.send(0, 8, &m);
                m
            }
        });
        assert_eq!(out[0], b"hello");
        assert_eq!(out[1], b"hello");
    }

    #[test]
    fn p2p_fifo_per_tag() {
        let out = run(2, CostModel::free(), |r| {
            if r.rank() == 0 {
                for i in 0..10u8 {
                    r.send(1, 3, &[i]);
                }
                vec![]
            } else {
                (0..10).map(|_| r.recv(0, 3)[0]).collect::<Vec<u8>>()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn recv_waits_for_transfer_time() {
        let out = run(2, CostModel::default(), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[0u8; 1000]);
                r.now()
            } else {
                let _ = r.recv(0, 1);
                r.now()
            }
        });
        // Receiver time >= alpha + 1000 * beta.
        assert!(out[1] >= 60_000 + 10_000, "recv time {} too small", out[1]);
        // Sender only pays the send overhead.
        assert!(out[0] < 10_000);
    }

    #[test]
    fn overlap_hides_latency() {
        let out = run(2, CostModel::default(), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[0u8; 1000]);
                0
            } else {
                r.advance(10_000_000); // compute while in flight
                let t0 = r.now();
                let _ = r.recv(0, 1);
                r.now() - t0 // only recv overhead remains
            }
        });
        assert!(out[1] <= 5_000, "latency not hidden: {}", out[1]);
    }

    #[test]
    fn barrier_syncs_clocks() {
        let out = run(4, CostModel::default(), |r| {
            if r.rank() == 2 {
                r.advance(1_000_000_000);
            }
            r.barrier();
            r.now()
        });
        for t in &out {
            assert!(*t >= 1_000_000_000, "clock {} below slowest rank", t);
        }
    }

    #[test]
    fn allgatherv_collects_all() {
        let out = run(6, CostModel::default(), |r| {
            let mine = vec![r.rank() as u8; r.rank() + 1];
            r.allgatherv(&mine)
        });
        for v in out {
            for (i, blk) in v.iter().enumerate() {
                assert_eq!(blk, &vec![i as u8; i + 1]);
            }
        }
    }

    #[test]
    fn bruck_allgatherv_delivers_every_block_once_in_log_steps() {
        // For p in 1..=70 — empty blocks, skewed sizes, skewed entry clocks
        // (so a later step's message can land before an earlier one's),
        // the whole world or a sub-communicator of it: every member ends
        // with every block and every stamp in rank order; the round sends
        // ⌈log2 p⌉ messages a member, p·⌈log2 p⌉ in all; and the members
        // send (p − 1)·total bytes in all — every member receives each
        // other block once, and the stamps cost nothing. Every member
        // holds the one table of the round, and it is freed once the last
        // member lets go of it.
        crate::prop::Runner::new("bruck_allgatherv").run(
            |rng| {
                let p = 1 + rng.next_below(70) as usize;
                let shape = rng.next_below(3);
                let sizes: Vec<usize> = (0..p)
                    .map(|_| match shape {
                        0 => 0,
                        1 if rng.next_below(8) == 0 => 256 + rng.next_below(768) as usize,
                        _ => rng.next_below(24) as usize,
                    })
                    .collect();
                let skew: Vec<u64> = (0..p).map(|_| rng.next_below(4) * 40_000).collect();
                let members: Vec<usize> = match rng.next_below(2) {
                    0 => (0..p).collect(),
                    _ => {
                        let some: Vec<usize> = (0..p).filter(|_| rng.next_below(2) == 0).collect();
                        if some.is_empty() {
                            vec![p - 1]
                        } else {
                            some
                        }
                    }
                };
                (sizes, skew, members)
            },
            |(sizes, skew, members)| {
                let (m, steps) =
                    (members.len(), members.len().next_power_of_two().trailing_zeros() as u64);
                let block =
                    |g: usize| (0..sizes[g]).map(|i| (g * 31 + i) as u8).collect::<Vec<u8>>();
                let stamp = |g: usize| u64::MAX - g as u64;
                let total: usize = members.iter().map(|&g| sizes[g]).sum();
                let out = run(sizes.len(), CostModel::default(), |r| {
                    if !members.contains(&r.rank()) {
                        return None;
                    }
                    let comm = r.subgroup(members);
                    r.advance(skew[r.rank()]);
                    let before = r.stats();
                    let got = comm.allgatherv_stamped(&block(r.rank()), stamp(r.rank()));
                    let sent = (
                        r.stats().msgs_sent - before.msgs_sent,
                        r.stats().bytes_sent - before.bytes_sent,
                    );
                    for ((&g, b), s) in members.iter().zip(got.iter()).zip(got.stamps()) {
                        assert_eq!(b, block(g), "rank {}: block of {g}", r.rank());
                        assert_eq!(s, stamp(g), "rank {}: stamp of {g}", r.rank());
                    }
                    assert_eq!(got.len(), m);
                    // Between the barriers every member holds its handle:
                    // one table, held m times and no longer pinned.
                    comm.barrier();
                    assert_eq!(
                        (r.shared_live_of::<GatherTable>(), Arc::strong_count(&got)),
                        (1, m)
                    );
                    comm.barrier();
                    let table = Arc::downgrade(&got);
                    drop(got);
                    comm.barrier();
                    assert!(
                        table.upgrade().is_none() && r.shared_live() == 0,
                        "the table outlived its round"
                    );
                    Some((sent, table.as_ptr() as usize))
                });
                let (sent, tables): (Vec<(u64, u64)>, Vec<usize>) =
                    out.into_iter().flatten().unzip();
                assert!(tables.iter().all(|&t| t == tables[0]), "members hold different tables");
                assert!(sent.iter().all(|&(msgs, _)| msgs == steps), "{sent:?}");
                assert_eq!(sent.iter().map(|s| s.0).sum::<u64>(), m as u64 * steps);
                assert_eq!(sent.iter().map(|s| s.1).sum::<u64>(), ((m - 1) * total) as u64);
            },
        );
    }

    #[test]
    fn alltoallv_exchanges() {
        let p = 5;
        let out = run(p, CostModel::default(), |r| {
            let blocks: Vec<Vec<u8>> =
                (0..p).map(|d| vec![(r.rank() * 10 + d) as u8; d + 1]).collect();
            r.alltoallv(blocks)
        });
        for (dst, v) in out.iter().enumerate() {
            for (src, blk) in v.iter().enumerate() {
                assert_eq!(blk, &vec![(src * 10 + dst) as u8; dst + 1]);
            }
        }
    }

    #[test]
    fn indices_with_bit_counts_in_closed_form() {
        for p in 1..=300 {
            for k in 0..10 {
                let scan = (0..p).filter(|j| j & (1 << k) != 0).count();
                assert_eq!(indices_with_bit(p, k), scan, "p = {p}, bit {k}");
            }
        }
    }

    #[test]
    fn bruck_alltoall_equals_the_dense_alltoallv_in_log_steps() {
        // For p in 1..=70 — empty blocks (every member has nothing to say
        // and still takes every step), skewed entry clocks, the whole
        // world or a sub-communicator of it (nothing goes to a rank
        // outside it: a block left untaken fails the world's end) —
        // every member gets the blocks the dense `alltoallv` over the same
        // blocks gives it, sends ⌈log2 p⌉ messages, step `k` charged the
        // blocks whose index has bit `k` set (counted here by a scan), and
        // is charged two copies of its row. The round's table is freed
        // with its last member.
        crate::prop::Runner::new("bruck_alltoall").run(
            |rng| {
                let p = 1 + rng.next_below(70) as usize;
                let len = match rng.next_below(3) {
                    0 => 0,
                    1 => 8,
                    _ => rng.next_below(24) as usize,
                };
                let skew: Vec<u64> = (0..p).map(|_| rng.next_below(4) * 40_000).collect();
                let members: Vec<usize> = match rng.next_below(2) {
                    0 => (0..p).collect(),
                    _ => {
                        let some: Vec<usize> = (0..p).filter(|_| rng.next_below(2) == 0).collect();
                        if some.is_empty() {
                            vec![p - 1]
                        } else {
                            some
                        }
                    }
                };
                (len, skew, members)
            },
            |(len, skew, members)| {
                let m = members.len();
                let per_step: Vec<u64> = (0..m.next_power_of_two().trailing_zeros() as usize)
                    .map(|k| ((0..m).filter(|j| j & (1 << k) != 0).count() * len) as u64)
                    .collect();
                let block = |src: usize, dst: usize| -> Vec<u8> {
                    (0..*len).map(|i| (src * 31 + dst * 7 + i) as u8).collect()
                };
                run(skew.len(), CostModel::default(), |r| {
                    let Ok(me) = members.binary_search(&r.rank()) else { return };
                    let comm = r.subgroup(members);
                    let row: Vec<Vec<u8>> = (0..m).map(|d| block(me, d)).collect();
                    let want = comm.alltoallv(row.clone());
                    r.advance(skew[r.rank()]);
                    let before = r.stats();
                    let got = comm.alltoall(&row.concat());
                    let after = r.stats();
                    assert_eq!(got, want.concat(), "member {me}");
                    assert_eq!(after.msgs_sent - before.msgs_sent, per_step.len() as u64);
                    assert_eq!(after.bytes_sent - before.bytes_sent, per_step.iter().sum::<u64>());
                    assert_eq!(after.memcpy_bytes - before.memcpy_bytes, 2 * (m * len) as u64);
                    comm.barrier();
                    assert_eq!(r.shared_live(), 0, "the table outlived its round");
                });
            },
        );
    }

    #[test]
    fn exchange_sends_the_listed_blocks_and_nothing_else() {
        // For p in 1..=65, random listed blocks — empty ones, self-blocks,
        // ranks that list nothing on either side — entered at skewed
        // clocks: every rank gets the bytes the dense `alltoallv` over the
        // same blocks gives it, sends one message per listed block for
        // another rank, and leaves at its entry clock when it lists
        // nothing.
        crate::prop::Runner::new("exchange_listed_blocks").run(
            |rng| {
                let p = 1 + rng.next_below(65) as usize;
                let silent: Vec<bool> = (0..p).map(|_| rng.next_below(4) == 0).collect();
                let density = 1 + rng.next_below(4);
                let listed: Vec<Vec<Option<usize>>> = (0..p)
                    .map(|src| {
                        (0..p)
                            .map(|dst| {
                                let on =
                                    !silent[src] && !silent[dst] && rng.next_below(4) < density;
                                on.then(|| rng.next_below(24) as usize)
                            })
                            .collect()
                    })
                    .collect();
                let skew: Vec<u64> = (0..p).map(|_| rng.next_below(4) * 40_000).collect();
                (listed, skew)
            },
            |(listed, skew)| {
                let p = listed.len();
                let block = |src: usize, dst: usize, len: usize| -> Vec<u8> {
                    (0..len).map(|i| (src * 31 + dst * 7 + i) as u8).collect()
                };
                run(p, CostModel::default(), |r| {
                    let me = r.rank();
                    let dense: Vec<Vec<u8>> = (0..p)
                        .map(|d| listed[me][d].map_or_else(Vec::new, |len| block(me, d, len)))
                        .collect();
                    let want = r.alltoallv(dense);
                    let sends: Vec<(usize, Vec<u8>)> = (0..p)
                        .filter_map(|d| listed[me][d].map(|len| (d, block(me, d, len))))
                        .collect();
                    let recv_from: Vec<usize> =
                        (0..p).filter(|&s| listed[s][me].is_some()).collect();
                    let off_rank = sends.iter().filter(|s| s.0 != me).count() as u64;
                    r.advance(skew[me]);
                    let (entry, before) = (r.now(), r.stats().msgs_sent);
                    let got = r.exchange(sends, &recv_from);
                    assert_eq!(
                        r.stats().msgs_sent - before,
                        off_rank,
                        "rank {me}: one message a listed block"
                    );
                    if off_rank == 0 && recv_from.is_empty() {
                        assert_eq!(r.now(), entry, "rank {me} listed nothing");
                    }
                    assert_eq!(got.iter().map(|g| g.0).collect::<Vec<_>>(), recv_from);
                    for (src, b) in &got {
                        assert_eq!(b, &want[*src], "rank {me}: block of {src}");
                    }
                });
            },
        );
    }

    // The next three are callers' contracts, checked in every profile
    // (they were `debug_assert!`s or unchecked: a release build dropped
    // the block, aliased a collective's tag, dropped the payload).

    #[test]
    #[should_panic(
        expected = "rank 1 ended the world with a message from rank 0 it never took (collective #0 exchange step 0)"
    )]
    fn exchange_refuses_a_block_its_receiver_does_not_list() {
        run(2, CostModel::default(), |r| {
            let sends = if r.rank() == 0 { vec![(1, vec![7; 3])] } else { Vec::new() };
            r.exchange(sends, &[]);
        });
    }

    #[test]
    #[should_panic(expected = "user tags must stay below 2^40")]
    fn user_tag_in_the_collective_range_is_refused() {
        run(1, CostModel::free(), |r| r.send(0, INTERNAL_BASE, &[]));
    }

    #[test]
    #[should_panic(
        expected = "rank 1 sends to itself but its recv_from does not list it (collective #0 exchange step 0)"
    )]
    fn exchange_refuses_a_self_send_nobody_receives() {
        run(2, CostModel::free(), |r| {
            let sends = if r.rank() == 1 { vec![(1, vec![9])] } else { Vec::new() };
            r.exchange(sends, &[]);
        });
    }

    #[test]
    fn exchange_sparse() {
        // Rank 0 sends to 1 and 2; ranks 1,2 send back to 0.
        let out = run(3, CostModel::default(), |r| match r.rank() {
            0 => {
                let got = r.exchange(vec![(1, vec![1]), (2, vec![2])], &[1, 2]);
                got.iter().map(|(s, d)| (*s, d.clone())).collect::<Vec<_>>()
            }
            me => {
                let got = r.exchange(vec![(0, vec![me as u8 * 10])], &[0]);
                got.iter().map(|(s, d)| (*s, d.clone())).collect::<Vec<_>>()
            }
        });
        assert_eq!(out[0], vec![(1, vec![10]), (2, vec![20])]);
        assert_eq!(out[1], vec![(0, vec![1])]);
        assert_eq!(out[2], vec![(0, vec![2])]);
    }

    #[test]
    fn exchange_self_delivery() {
        let out = run(2, CostModel::free(), |r| {
            let got = r.exchange(vec![(r.rank(), vec![9, 9])], &[r.rank()]);
            got[0].1.clone()
        });
        assert_eq!(out[0], vec![9, 9]);
        assert_eq!(out[1], vec![9, 9]);
    }

    #[test]
    fn allreduce_ops() {
        let out = run(4, CostModel::default(), |r| {
            let v = (r.rank() + 1) as u64;
            (r.allreduce_max(v), r.allreduce_min(v), r.allreduce_sum(v))
        });
        for (mx, mn, sm) in out {
            assert_eq!((mx, mn, sm), (4, 1, 10));
        }
    }

    #[test]
    fn collectives_back_to_back_do_not_cross_talk() {
        let out = run(3, CostModel::free(), |r| {
            let mut acc = Vec::new();
            for i in 0..20u8 {
                let v = r.allgatherv(&[r.rank() as u8, i]);
                acc.push(v);
            }
            acc
        });
        for v in out {
            for (i, round) in v.iter().enumerate() {
                for (src, blk) in round.iter().enumerate() {
                    assert_eq!(blk, &vec![src as u8, i as u8]);
                }
            }
        }
    }

    /// Distinct bytes for every (iteration, collective, src, dst).
    fn stamp(i: usize, coll: usize, src: usize, dst: usize) -> Vec<u8> {
        let len = 1 + (src + 2 * dst + i) % 5;
        vec![(i * 97 + coll * 31 + src * 7 + dst * 3) as u8; len]
    }

    /// Three passes of alltoallv / allgatherv / barrier / a ring exchange /
    /// a many-to-two exchange over `comm`, every payload checked.
    fn mixed_rounds(comm: &Rank) {
        let (me, p) = (comm.rank(), comm.nprocs());
        for i in 0..3 {
            let got = comm.alltoallv((0..p).map(|d| stamp(i, 0, me, d)).collect());
            for (src, b) in got.iter().enumerate() {
                assert_eq!(b, &stamp(i, 0, src, me), "alltoallv pass {i}: {src} -> {me}");
            }
            let got = comm.allgatherv(&stamp(i, 1, me, 0));
            for (src, b) in got.iter().enumerate() {
                assert_eq!(b, &stamp(i, 1, src, 0), "allgatherv pass {i}: block of {src}");
            }
            comm.barrier();
            let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
            let got = comm.exchange(vec![(next, stamp(i, 2, me, next))], &[prev]);
            assert_eq!(got, vec![(prev, stamp(i, 2, prev, me))], "exchange pass {i}");
            // Everyone has data for ranks 0 and p - 1 only.
            let ends: Vec<usize> = if p == 1 { vec![0] } else { vec![0, p - 1] };
            let sends = ends.iter().map(|&d| (d, stamp(i, 3, me, d))).collect();
            let all: Vec<usize> = (0..p).collect();
            let recv_from: &[usize] = if ends.contains(&me) { &all } else { &[] };
            let got = comm.exchange(sends, recv_from);
            assert_eq!(got.len(), recv_from.len());
            for (src, b) in &got {
                assert_eq!(b, &stamp(i, 3, *src, me), "exchange pass {i}: {src} -> {me}");
            }
        }
    }

    #[test]
    fn dense_rounds_back_to_back_keep_their_messages_apart() {
        // 130 ranks: steps run far past 8, where a tag layout with room for
        // fewer steps aliases (step 64 of one collective would be step 0
        // of the next). Then
        // the same passes over a subgroup. A message left untaken would
        // fail the world-end check.
        run(130, CostModel::default(), |r| {
            mixed_rounds(r);
            r.barrier();
            // The others sit the second half out (a handle's sequence
            // number is its rank's, so they could not rejoin a world
            // collective afterwards — as with a real communicator
            // split, membership is decided before the calls).
            let members: Vec<usize> = (0..130).filter(|m| m % 3 != 1).collect();
            if members.contains(&r.rank()) {
                let comm = r.subgroup(&members);
                mixed_rounds(&comm);
                comm.barrier();
            }
        });
    }

    #[test]
    fn internal_tags_name_their_round_and_never_alias() {
        let tag = |seq: u64, op: u64, step: usize| coll_tag(seq * 8 + op, step);
        // The old layout's alias: step 64 + s of collective q was step s
        // of collective q + 1.
        assert_ne!(tag(4, 2, 70), tag(5, 2, 6));
        assert!(tag(0, 0, 0) >= INTERNAL_BASE);
        assert!(tag(4, OPS.len() as u64 - 1, (1 << STEP_BITS) - 1) < tag(5, 0, 0));
        assert_eq!(describe_tag(tag(4, 2, 70)), "collective #4 alltoallv step 70");
        assert_eq!(describe_tag(tag(3, 3, 0)), "collective #3 exchange step 0");
        assert_eq!(describe_tag(tag(9, 0, 2)), "collective #9 barrier step 2");
        assert_eq!(describe_tag(tag(2, 4, 5)), "collective #2 alltoall step 5");
        assert_ne!(tag(2, 4, 5), tag(2, 2, 5));
        assert_eq!(describe_tag(17), "tag=17");
    }

    #[test]
    fn crashed_ranks_messages_are_taken_and_its_boards_reaped() {
        // Rank 2 dies right after a world alltoallv that its left
        // neighbour entered a virtual second late: by then rank 2 has
        // sent its last block to rank 1, which is still several steps
        // from taking it. The block is taken in the normal course (the
        // world-end check finds no collective message left behind), and
        // the survivors go on over a four-rank subgroup.
        let out = run_crashable(5, CostModel::default(), &[(2, 1)], |r| {
            if r.rank() == 1 {
                r.advance(1_000_000_000);
            }
            let got = r.alltoallv((0..5).map(|d| stamp(0, 0, r.rank(), d)).collect());
            for (src, b) in got.iter().enumerate() {
                assert_eq!(b, &stamp(0, 0, src, r.rank()));
            }
            r.maybe_crash();
            let comm = r.subgroup(&[0, 1, 3, 4]);
            mixed_rounds(&comm);
            let survivors = comm.allreduce_sum(1);
            comm.barrier();
            survivors
        });
        assert_eq!(out, vec![Some(4), Some(4), None, Some(4), Some(4)]);
    }

    #[test]
    fn deadlock_on_a_dead_rank_names_the_round_and_step() {
        // Ranks 0 and 2 enter an alltoallv with rank 1, which sleeps a
        // virtual second and then dies without entering it: their blocks
        // for it wait in its mailbox and go down with it. Rank 3 sits on
        // timers outside the round.
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_crashable(4, CostModel::default(), &[(1, 1)], |r| match r.rank() {
                1 => {
                    let _ = r.recv_timeout(1, 5, 1_000_000_000);
                    r.maybe_crash();
                }
                3 => {
                    let _ = r.recv_timeout(3, 5, 500_000_000);
                    let _ = r.recv_timeout(3, 5, 2_000_000_000);
                }
                _ => {
                    r.subgroup(&[0, 1, 2]).alltoallv(vec![vec![7]; 3]);
                }
            })
        }));
        let err = got.expect_err("waiting on a dead rank must be reported");
        let msg = err.downcast_ref::<String>().expect("panic carries a String");
        // Word for word: both wait for the dead rank's message, each at
        // the clock it parked at.
        assert_eq!(
            msg,
            "flexio-sim event loop deadlock: 2 of 4 ranks parked with no message in flight: \
             rank 0 (clock 72010 ns) <- recv(src=1, collective #0 alltoallv step 2); \
             rank 2 (clock 4000 ns) <- recv(src=1, collective #0 alltoallv step 1) \
             (1 rank(s) crash-stopped earlier)"
        );
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        // Every rank's block to rank 0 and back, as two sparse exchanges:
        // many senders into one receiver, then one sender to many.
        let out = run(4, CostModel::free(), |r| {
            let mine = vec![r.rank() as u8 + 40; 3];
            let everyone: Vec<usize> = if r.rank() == 0 { (0..4).collect() } else { Vec::new() };
            let gathered = r.exchange(vec![(0, mine)], &everyone);
            r.exchange(gathered, &[0]).pop().expect("one block from rank 0").1
        });
        for (rank, blk) in out.iter().enumerate() {
            assert_eq!(blk, &vec![rank as u8 + 40; 3]);
        }
    }

    #[test]
    fn overlap_charges_max_not_sum() {
        // A 10 µs I/O overlapped with 4 µs of exchange must elapse 10 µs
        // (max), not 14 µs (sum), and the buckets must still sum to the
        // elapsed time: 4 µs Comm + 6 µs Io.
        let out = run(1, CostModel::default(), |r| {
            let t0 = r.now();
            let io = r.overlap_begin(t0 + 10_000, Phase::Io);
            r.advance(4_000);
            r.note_phase(Phase::Comm, 4_000);
            let hidden = r.overlap_complete(io);
            (r.now() - t0, hidden, r.stats())
        });
        let (elapsed, hidden, s) = &out[0];
        assert_eq!(*elapsed, 10_000, "overlap must charge the max window");
        assert_eq!(*hidden, 4_000);
        assert_eq!(s.overlap_saved_ns, 4_000);
        assert_eq!(s.phase_ns[Phase::Io as usize], 6_000);
        assert_eq!(s.phase_ns[Phase::Comm as usize], 4_000);
        assert_eq!(
            s.phase_ns.iter().sum::<u64>(),
            *elapsed,
            "trace buckets must sum to elapsed time"
        );
    }

    #[test]
    fn overlap_fully_hidden_op() {
        // Work longer than the in-flight op: elapsed = work, the whole op
        // duration is hidden, and zero ns land in the op's phase.
        let out = run(1, CostModel::default(), |r| {
            let io = r.overlap_begin(r.now() + 3_000, Phase::Io);
            r.advance(9_000);
            r.note_phase(Phase::Compute, 9_000);
            let hidden = r.overlap_complete(io);
            (r.now(), hidden, r.stats())
        });
        let (now, hidden, s) = &out[0];
        assert_eq!(*now, 9_000);
        assert_eq!(*hidden, 3_000);
        assert_eq!(s.overlap_saved_ns, 3_000);
        assert_eq!(s.phase_ns[Phase::Io as usize], 0);
        assert_eq!(s.phase_ns.iter().sum::<u64>(), *now);
    }

    #[test]
    fn overlap_immediate_complete_matches_blocking() {
        // begin + complete with no interleaved work is exactly a blocking
        // charge: full duration in the phase, nothing saved.
        let out = run(1, CostModel::default(), |r| {
            let io = r.overlap_begin(r.now() + 5_000, Phase::Io);
            let hidden = r.overlap_complete(io);
            (r.now(), hidden, r.stats())
        });
        let (now, hidden, s) = &out[0];
        assert_eq!(*now, 5_000);
        assert_eq!(*hidden, 0);
        assert_eq!(s.overlap_saved_ns, 0);
        assert_eq!(s.phase_ns[Phase::Io as usize], 5_000);
    }

    #[test]
    fn derive_overlap_separate_counter() {
        // A Compute window hides behind comm work: hidden time lands in
        // derive_overlap_saved_ns (not overlap_saved_ns), and phase buckets
        // still sum to elapsed.
        let out = run(1, CostModel::default(), |r| {
            let w = r.overlap_begin(r.now() + r.cost().pairs_ns(100), Phase::Compute); // 12_000 ns pending
            r.advance(5_000);
            r.note_phase(Phase::Comm, 5_000);
            let hidden = r.overlap_complete(w);
            (r.now(), hidden, r.stats())
        });
        let (now, hidden, s) = &out[0];
        assert_eq!(*now, 12_000);
        assert_eq!(*hidden, 5_000);
        assert_eq!(s.derive_overlap_saved_ns, 5_000);
        assert_eq!(s.overlap_saved_ns, 0);
        assert_eq!(s.phase_ns[Phase::Compute as usize], 7_000);
        assert_eq!(s.phase_ns.iter().sum::<u64>(), *now);
    }

    #[test]
    fn derive_overlap_immediate_complete_matches_blocking() {
        // Counting the pairs, then a Compute window's begin + complete with
        // no interleaved work, must equal a plain charge_pairs call, charge
        // for charge.
        let out = run(1, CostModel::default(), |r| {
            r.tally(|s| s.pairs_processed += 50);
            let w = r.overlap_begin(r.now() + r.cost().pairs_ns(50), Phase::Compute);
            let hidden = r.overlap_complete(w);
            (r.now(), hidden, r.stats())
        });
        let blocking = run(1, CostModel::default(), |r| {
            r.charge_pairs(50);
            (r.now(), 0u64, r.stats())
        });
        let ((now, hidden, s), (bnow, _, bs)) = (&out[0], &blocking[0]);
        assert_eq!(now, bnow);
        assert_eq!(*hidden, 0);
        assert_eq!(s.pairs_processed, bs.pairs_processed);
        assert_eq!(s.phase_ns, bs.phase_ns);
        assert_eq!(s.derive_overlap_saved_ns, 0);
    }

    #[test]
    fn pipeline_depth_is_a_watermark() {
        // Tallies compose: a watermark kept through `tally` keeps the
        // deepest value, and a sub-communicator's handle writes the same
        // store as the world's.
        let out = run(2, CostModel::default(), |r| {
            let deepest =
                |d: u64| move |s: &mut Stats| s.pipeline_depth_used = s.pipeline_depth_used.max(d);
            r.tally(deepest(2));
            r.subgroup(&[r.rank()]).tally(deepest(5));
            r.tally(deepest(3));
            r.stats().pipeline_depth_used
        });
        assert_eq!(out, [5, 5]);
    }

    #[test]
    fn overlap_interleavings_keep_phase_buckets_consistent() {
        // Property (ISSUE 3 satellite): for arbitrary interleavings of
        // charges, overlap_begin and (out-of-order) overlap_complete —
        // including windows completed long after done_at and Compute
        // (derive) windows — the phase buckets always sum to elapsed
        // virtual time, every window's hidden time is bounded by its
        // duration, and the two savings counters equal the sums of their
        // windows' hidden time (never underflowing).
        crate::prop::Runner::new("overlap_interleavings").cases(64).run(
            |rng| {
                let n = 4 + rng.next_below(28);
                (0..n).map(|_| (rng.next_u64(), rng.next_below(20_000))).collect::<Vec<_>>()
            },
            |ops| {
                let ops = ops.clone();
                run(1, CostModel::default(), move |r| {
                    let mut open: Vec<OverlapWindow> = Vec::new();
                    let mut hidden_io = 0u64;
                    let mut hidden_derive = 0u64;
                    let mut rng = crate::prng::XorShift64Star::new(ops.len() as u64 + 1);
                    let mut complete_one =
                        |open: &mut Vec<OverlapWindow>, r: &Rank, io: &mut u64, de: &mut u64| {
                            if open.is_empty() {
                                return;
                            }
                            let idx = rng.next_below(open.len() as u64) as usize;
                            let w = open.swap_remove(idx);
                            let (dur, is_derive) = (w.duration(), w.phase == Phase::Compute);
                            let hidden = r.overlap_complete(w);
                            assert!(hidden <= dur, "hidden {hidden} exceeds duration {dur}");
                            if is_derive {
                                *de += hidden;
                            } else {
                                *io += hidden;
                            }
                        };
                    for &(sel, amt) in &ops {
                        match sel % 6 {
                            0 => r.charge_pairs(1 + amt / 256),
                            1 => r.charge_memcpy(1 + amt),
                            2 => {
                                r.advance(amt);
                                r.note_phase(Phase::Comm, amt);
                            }
                            3 => open.push(r.overlap_begin(r.now() + amt, Phase::Io)),
                            4 => open.push(r.overlap_begin(
                                r.now() + r.cost().pairs_ns(amt / 64),
                                Phase::Compute,
                            )),
                            _ => complete_one(&mut open, r, &mut hidden_io, &mut hidden_derive),
                        }
                    }
                    while !open.is_empty() {
                        complete_one(&mut open, r, &mut hidden_io, &mut hidden_derive);
                    }
                    let s = r.stats();
                    assert_eq!(
                        s.phase_ns.iter().sum::<u64>(),
                        r.now(),
                        "phase buckets must sum to elapsed virtual time"
                    );
                    assert_eq!(s.overlap_saved_ns, hidden_io);
                    assert_eq!(s.derive_overlap_saved_ns, hidden_derive);
                });
            },
        );
    }

    #[test]
    fn stats_count_messages() {
        let out = run(2, CostModel::default(), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[0u8; 64]);
                r.send(1, 1, &[0u8; 36]);
            } else {
                let _ = r.recv(0, 1);
                let _ = r.recv(0, 1);
            }
            r.stats()
        });
        assert_eq!(out[0].msgs_sent, 2);
        assert_eq!(out[0].bytes_sent, 100);
    }

    #[test]
    fn charge_pairs_advances_clock() {
        let out = run(1, CostModel::default(), |r| {
            r.charge_pairs(1000);
            (r.now(), r.stats().pairs_processed)
        });
        assert_eq!(out[0], (120_000, 1000));
    }

    #[test]
    fn subgroup_collectives_translate_ids() {
        // World of 4; ranks {0, 2, 3} form a subgroup and run collectives
        // over it while rank 1 sits out. Group-relative ids drive the
        // algorithms; only the mailbox identity stays world-frame.
        let out = run(4, CostModel::default(), |r| {
            if r.rank() == 1 {
                return (usize::MAX, Vec::new(), 0);
            }
            let comm = r.subgroup(&[0, 2, 3]);
            let gathered = comm.allgatherv(&[r.rank() as u8]);
            comm.barrier();
            let sum = comm.allreduce_sum(r.rank() as u64);
            (comm.rank(), gathered.concat(), sum)
        });
        for (i, world_rank) in [(0usize, 0usize), (1, 2), (2, 3)] {
            let (grank, gathered, sum) = &out[world_rank];
            assert_eq!(*grank, i, "group-relative id");
            assert_eq!(gathered, &vec![0u8, 2, 3], "allgatherv over the subgroup");
            assert_eq!(*sum, 5, "allreduce over the subgroup");
        }
    }

    #[test]
    fn nested_subgroup_translates_through_frames() {
        // A subgroup of a subgroup: member ids are relative to the parent
        // frame, so [0, 2] of {0, 2, 3} is world ranks {0, 3}.
        let out = run(4, CostModel::free(), |r| {
            if r.rank() == 1 || r.rank() == 2 {
                return 0;
            }
            let mid = r.subgroup(&[0, 2, 3]); // needs all three present? no:
                                              // only the *members of the inner group* communicate below.
            let inner = mid.subgroup(&[0, 2]);
            inner.allreduce_sum(r.rank() as u64)
        });
        assert_eq!(out[0], 3);
        assert_eq!(out[3], 3);
    }

    #[test]
    fn subgroup_shares_clock_and_stats() {
        let out = run(2, CostModel::default(), |r| {
            let comm = r.subgroup(&[0, 1]);
            comm.barrier();
            assert_eq!(comm.now(), r.now(), "clock is shared");
            r.charge_pairs(10);
            (r.now(), comm.stats().pairs_processed)
        });
        for (now, pairs) in out {
            assert!(now > 0);
            assert_eq!(pairs, 10, "stats are shared across group handles");
        }
    }

    #[test]
    fn single_rank_collectives() {
        let out = run(1, CostModel::default(), |r| {
            r.barrier();
            let e = r.exchange(vec![(0, vec![5])], &[0]);
            let g = r.allgatherv(&[7]);
            let a = r.alltoallv(vec![vec![9]]);
            (e, g, a)
        });
        let (e, g, a) = &out[0];
        assert_eq!(e, &vec![(0, vec![5])]);
        assert_eq!(g, &vec![vec![7]]);
        assert_eq!(a, &vec![vec![9]]);
    }
}
