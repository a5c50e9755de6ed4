//! The shared world: per-rank records, mailboxes, landing boards, shared
//! cells, and the entry points that drive one ([`run`], [`run_crashable`]).

use crate::cost::CostModel;
use crate::rank::Cursor;
use crate::sched::{ParkWake, Segment};
use std::any::{Any, TypeId};
use std::cell::{Cell, UnsafeCell};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Weak};

/// Panic payload raised by [`crate::rank::Rank::maybe_crash`] when a rank
/// reaches its scheduled crash time: the scheduler recognizes it, marks
/// the rank dead (reaping its mailbox), and keeps driving the survivors —
/// the simulation analogue of a crash-stop process failure.
pub(crate) struct CrashStop;

/// The rank runtime that drives a world's ranks. There is one, and [`run`]
/// uses it; the enum (and [`run_on`], which takes it) is still here only
/// because the benchmark package — which a change to the crates may not
/// edit — names `run_on(Backend::EventLoop, …)`. A `[benchmark]` change
/// drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One host thread drives every rank as a cooperatively-scheduled
    /// fiber over virtual time, lowest clock first (deterministic by
    /// construction; supports thousands of ranks per process).
    EventLoop,
}

impl Backend {
    /// Whether the fiber runtime is available on this build target (the
    /// fiber layer is x86_64-only; since the thread-per-rank runtime's
    /// retirement there is no fallback elsewhere).
    pub fn event_loop_supported() -> bool {
        cfg!(target_arch = "x86_64")
    }
}

/// The bytes of a dense round's message. An `alltoallv` step owns its
/// buffer; an `allgatherv` step carries several ranks' blocks, each one
/// allocation shared by every rank it passes through, so forwarding a
/// block costs a reference count, not a copy.
#[derive(Debug)]
pub(crate) enum Payload {
    Owned(Vec<u8>),
    Blocks(Vec<Arc<[u8]>>),
}

impl Payload {
    /// The bytes the message is charged for.
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Blocks(blocks) => blocks.iter().map(|b| b.len()).sum(),
        }
    }
}

/// A tag-addressed message in flight: its bytes plus the virtual time it
/// becomes available at the receiver.
#[derive(Debug)]
pub(crate) struct Msg {
    pub data: Vec<u8>,
    pub avail_at: u64,
}

/// What a run cost its scheduler: the two things a message can make it
/// do that are dearer than a few loads and stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedCounters {
    /// Switches from the scheduler into a rank's fiber (each has its
    /// switch back): one per rank start, per park of a point-to-point or
    /// tree-collective receive, and per dense round that parked at all.
    pub fiber_switches: u64,
    /// Entries pushed onto the ready heap: rank starts, wakes of parked
    /// receives (a dense round's steps included) and park timers.
    pub heap_pushes: u64,
}

std::thread_local! {
    /// Counters of the last world this thread finished driving.
    pub(crate) static LAST_RUN: Cell<SchedCounters> =
        const { Cell::new(SchedCounters { fiber_switches: 0, heap_pushes: 0 }) };
}

/// The scheduler counters of the last `run`/`run_crashable` that returned
/// on this thread.
pub fn last_run_counters() -> SchedCounters {
    LAST_RUN.with(Cell::get)
}

/// Multiply-rotate hasher for the mailbox queue map. The keys are small
/// fixed-size `(src, tag)` pairs from trusted (in-process) senders, and
/// every message pays two to three lookups — SipHash was a measurable
/// slice of the per-message cost at host_scale rank counts.
#[derive(Default)]
pub(crate) struct TagHasher(u64);

impl Hasher for TagHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci-style multiply spreads entropy into the high bits;
        // the rotate brings it back down for the table index.
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(26);
    }
}

/// One rank's incoming-message store for tag-addressed traffic (`send`/
/// `recv`, `exchange`, the tree collectives; the dense rounds land on
/// the rank's boards), one FIFO queue per `(src, tag)`. Only the overflow path —
/// deliveries that found no matching parked receiver — lands here.
type QueueMap = HashMap<(usize, u64), VecDeque<Msg>, BuildHasherDefault<TagHasher>>;

/// Where one message of a dense collective round lands: the round is
/// `key` (the collective's sequence number and kind, see
/// `Rank::round_key`), and the message is the one its receiver takes at
/// `step` — a rank takes the steps of a round in ascending order.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    pub key: u64,
    pub step: usize,
}

/// A slot no message has landed in yet. (A message's availability time
/// is a virtual clock in ns, which never gets here.)
const ABSENT: u64 = u64::MAX;

/// The key of a header no round's board is open in. (`seq * 8 + op`
/// never gets here.)
const NO_ROUND: u64 = u64::MAX;

/// [`Peer::park_src`] of a rank that is not parked. (A world holds at
/// most 2^24 ranks.)
const NOT_PARKED: u32 = u32::MAX;

/// One board's landing slots. All a receive needs of a message is the
/// time it becomes available at, so that is all a slot holds
/// ([`ABSENT`] until it lands, and again once it is taken). The slots
/// are a power-of-two ring indexed `step & mask` over the window that
/// opens at the first step the board's owner has not taken (`taken`,
/// kept beside the ring) and reaches as far as the furthest step a peer
/// has delivered: the ring doubles when a sender's lead outgrows it and
/// never shrinks, so a board is as long as its senders have ever run
/// ahead of its owner — at most ⌈log2 nprocs⌉ steps in a barrier or an
/// allgather, 8–32 slots in a pairwise exchange entered together, more
/// for a rank that enters one late (32 at 512 ranks), never more than
/// `nprocs` — not as long as the round times the rounds in flight.
#[derive(Default)]
struct Ring(Box<[u64]>);

impl Ring {
    /// One cache line: what the first delivery to a rank allocates.
    const MIN_SLOTS: usize = 8;

    /// `step`'s message lands; `taken` is where the window opens.
    fn land(&mut self, taken: usize, step: usize, avail_at: u64) {
        debug_assert!(step >= taken, "step {step} delivered twice");
        if step - taken >= self.0.len() {
            self.grow(taken, step - taken);
        }
        let mask = self.0.len() - 1;
        debug_assert_eq!(self.0[step & mask], ABSENT, "two messages for step {step}");
        self.0[step & mask] = avail_at;
    }

    /// Make room for a sender `lead` steps ahead of `taken`. Every landed
    /// step lies in `taken .. taken + len`, which the old ring maps one to
    /// one onto its slots; the new one, being longer, does too.
    #[cold]
    fn grow(&mut self, taken: usize, lead: usize) {
        let len = (lead + 1).next_power_of_two().max(Self::MIN_SLOTS);
        let mut slots = vec![ABSENT; len].into_boxed_slice();
        for step in taken..taken + self.0.len() {
            slots[step & (len - 1)] = self.0[step & (self.0.len() - 1)];
        }
        self.0 = slots;
    }

    /// Take `step`'s message off the ring, if it has landed.
    fn take(&mut self, step: usize) -> Option<u64> {
        // A ring nothing ever landed on has no slots (and no mask).
        let slot = self.0.get_mut(step & self.0.len().wrapping_sub(1))?;
        (*slot != ABSENT).then(|| std::mem::replace(slot, ABSENT))
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&t| t == ABSENT)
    }
}

/// What a delivery to a rank reads and writes, in one cache line: whether
/// the rank is dead, what it is parked on (the hand-off match), and the
/// header of the board its round's messages land on. The scheduler's
/// park table *is* these records' park entries; there is no other.
#[repr(align(64))]
pub(crate) struct Peer {
    /// The park entry: the `(src, tag)` the rank waits for and the clock
    /// it parked at, its wake-up priority. `park_src` is [`NOT_PARKED`]
    /// while the rank is ready or running.
    park_tag: u64,
    park_clock: u64,
    /// What the delivery that ended a dense round's park handed over:
    /// its message's availability time ([`ABSENT`] once the woken step
    /// has read it).
    handed: u64,
    /// The board header: the round it is open for ([`NO_ROUND`] = none),
    /// the first step its owner has not taken, and the slots. Open for
    /// the round the rank is in from entry to exit; between rounds, for
    /// whichever round a peer delivers first.
    key: u64,
    ring: Ring,
    park_src: u32,
    taken: u32,
    /// The rank has crash-stopped: deliveries to it are dropped.
    dead: bool,
}

impl Default for Peer {
    fn default() -> Peer {
        Peer {
            park_tag: 0,
            park_clock: 0,
            handed: ABSENT,
            key: NO_ROUND,
            ring: Ring::default(),
            park_src: NOT_PARKED,
            taken: 0,
            dead: false,
        }
    }
}

/// A rank's park entry, read out of its record.
#[derive(Clone, Copy)]
pub(crate) struct Parked {
    pub src: usize,
    pub tag: u64,
    pub clock: u64,
}

impl Peer {
    /// The rank now waits for a message for `(src, tag)`; `clock` is its
    /// wake-up priority.
    pub fn park(&mut self, src: usize, tag: u64, clock: u64) {
        debug_assert!(self.park_src == NOT_PARKED && src < NOT_PARKED as usize);
        (self.park_src, self.park_tag, self.park_clock) = (src as u32, tag, clock);
    }

    /// What the rank is parked on, if it is parked.
    pub fn parked(&self) -> Option<Parked> {
        (self.park_src != NOT_PARKED).then_some(Parked {
            src: self.park_src as usize,
            tag: self.park_tag,
            clock: self.park_clock,
        })
    }

    /// End the rank's park (a timer fired, or the rank is being reaped).
    pub fn unpark(&mut self) {
        self.park_src = NOT_PARKED;
    }

    /// The availability time a dense round's hand-off left for the rank,
    /// read by whoever acts on its wake.
    pub fn take_handed(&mut self) -> u64 {
        debug_assert_ne!(self.handed, ABSENT, "a round's wake carries its message's time");
        std::mem::replace(&mut self.handed, ABSENT)
    }

    /// The hand-off match: if the rank is parked on exactly `(src, tag)`
    /// it is parked no longer, and this returns its park clock — the
    /// priority its wake is pushed at. When it is parked on a message,
    /// nothing of that `(src, tag)` waits anywhere else — it looked before
    /// parking — so FIFO order holds.
    fn unpark_if(&mut self, src: usize, tag: u64) -> Option<u64> {
        (self.park_src as usize == src && self.park_tag == tag).then(|| {
            self.park_src = NOT_PARKED;
            self.park_clock
        })
    }
}

/// A board that is not in its rank's record: the round is one a peer
/// runs ahead into while the rank is still in (or, rarely, headed for)
/// another. Its owner has taken none of its steps. A vacated entry
/// (`key` = [`NO_ROUND`]) keeps its ring for the next round that needs
/// one, so a steady stream of rounds allocates nothing.
struct Board {
    key: u64,
    ring: Ring,
    /// The messages that carry bytes, `(step, bytes)` in delivery order:
    /// they wait here until the rank enters the round, then move to its
    /// cursor, where later ones are delivered directly.
    blocks: Vec<(usize, Payload)>,
}

/// The part of a rank's boards that a delivery seldom needs: the bytes
/// that landed for the header's round ahead of its owner, and the boards
/// of other rounds than the header's. One communicator's rounds put at
/// most one board here (dense collectives are fully synchronizing: no
/// peer can finish a round before the rank has entered it, so none can be
/// more than one round ahead); ranks in overlapping communicators can
/// hold a few more.
#[derive(Default)]
struct Spill {
    blocks: Vec<(usize, Payload)>,
    ahead: Vec<Board>,
}

/// The board of round `key` among `ahead` (a [`Spill`]'s), opened — in a
/// vacated entry when there is one — by the first delivery of the round.
fn board_of(ahead: &mut Vec<Board>, key: u64) -> &mut Board {
    let at = ahead.iter().position(|b| b.key == key).unwrap_or_else(|| {
        let at = ahead.iter().position(|b| b.key == NO_ROUND).unwrap_or_else(|| {
            ahead.push(Board { key: NO_ROUND, ring: Ring::default(), blocks: Vec::new() });
            ahead.len() - 1
        });
        ahead[at].key = key;
        at
    });
    &mut ahead[at]
}

/// State that only the one running segment touches — a rank's fiber, or
/// the scheduler stepping a sleeping rank's round — so it needs no lock
/// of its own: one host thread drives a world from its first segment to
/// its last, one segment at a time (DESIGN "Rank runtime"). Every access
/// goes through [`World::runner_owned`], which takes the segment's token
/// and gives out only cells of the world the token is for.
#[derive(Default)]
struct RunnerCell<T>(UnsafeCell<T>);

// SAFETY: the field is private and `World::runner_owned` is the only code
// that reaches into it. It asks for a `Segment`, which exists only on the
// thread whose active scheduler drives the segment's world
// (`sched::segment` is the one place that makes one from a `&World`, and
// it checks exactly that; the token is neither `Send` nor `Sync`), and a
// world is driven by exactly one scheduler, on one thread
// (`run`/`run_crashable` build the world they drive): every access that
// gets through is on that thread. Another thread that holds the
// `Arc<World>` cannot obtain a token for it.
unsafe impl<T: Send> Sync for RunnerCell<T> {}

/// One of the world's "compute once, share" cells (see
/// [`crate::rank::Rank::shared_once`]).
struct SharedCell {
    value: Weak<dyn Any + Send + Sync>,
    /// The value, held by the world until `takers` more asks have taken
    /// it — the members of the asking communicator that have not yet —
    /// so that no member recomputes it because the others let go first.
    /// After that the cell is weak: the value dies with its last user.
    pin: Option<Arc<dyn Any + Send + Sync>>,
    takers: usize,
}

type SharedCells = HashMap<(TypeId, u64), SharedCell>;

/// The shared state of a simulated MPI world.
pub struct World {
    pub(crate) nprocs: usize,
    pub(crate) cost: CostModel,
    /// Per-rank record: park entry, dead flag, board header.
    peers: Box<[RunnerCell<Peer>]>,
    /// Per-rank boards beside the header's.
    spills: Vec<RunnerCell<Spill>>,
    mailboxes: Vec<RunnerCell<QueueMap>>,
    /// Per-rank round cursor: `Some` from the moment a rank enters a
    /// dense round until its fiber has left it (see
    /// [`crate::rank::step_round`]).
    cursors: Vec<RunnerCell<Option<Cursor>>>,
    /// Scheduled crash-stop time per rank, virtual ns (`u64::MAX` =
    /// never). Checked by [`crate::rank::Rank::maybe_crash`].
    crash_at: Vec<u64>,
    shared: RunnerCell<SharedCells>,
}

impl World {
    /// Create a world of `nprocs` ranks with the given cost model.
    pub fn new(nprocs: usize, cost: CostModel) -> Arc<World> {
        Self::with_crashes(nprocs, cost, &[])
    }

    /// [`World::new`] plus a crash-stop schedule: each `(rank, at_ns)`
    /// entry kills that rank's fiber at its first [`Rank::maybe_crash`]
    /// check at or past `at_ns` of virtual time.
    ///
    /// [`Rank::maybe_crash`]: crate::rank::Rank::maybe_crash
    pub fn with_crashes(nprocs: usize, cost: CostModel, crashes: &[(usize, u64)]) -> Arc<World> {
        assert!(nprocs > 0, "world needs at least one rank");
        let mut crash_at = vec![u64::MAX; nprocs];
        for &(r, at) in crashes {
            assert!(r < nprocs, "crash rank {r} out of range for {nprocs} ranks");
            crash_at[r] = crash_at[r].min(at);
        }
        Arc::new(World {
            nprocs,
            cost,
            peers: (0..nprocs).map(|_| RunnerCell::default()).collect(),
            spills: (0..nprocs).map(|_| RunnerCell::default()).collect(),
            mailboxes: (0..nprocs).map(|_| RunnerCell::default()).collect(),
            cursors: (0..nprocs).map(|_| RunnerCell::default()).collect(),
            crash_at,
            shared: RunnerCell::default(),
        })
    }

    /// The scheduled crash time of `rank` (`u64::MAX` = never).
    pub(crate) fn crash_time(&self, rank: usize) -> u64 {
        self.crash_at[rank]
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The world's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// One cell of the runner-owned state of the world `seg` is a segment
    /// of. The token is what makes the unguarded `&mut` sound, and the
    /// cell is picked out of the token's own world, so there is no way to
    /// show one world's token for another world's cell.
    #[allow(clippy::mut_from_ref)]
    fn runner_owned<'w, T>(
        seg: Segment<'w>,
        cell: impl FnOnce(&'w World) -> &'w RunnerCell<T>,
    ) -> &'w mut T {
        // SAFETY: `seg` proves that the caller is a segment of the one
        // drive of this world, on the thread that drives it
        // (`sched::segment` checked it, once, when the segment's entry
        // point asked for the token), and segments run one at a time;
        // callers never hold the reference across a park or a second
        // request for the same cell (a round's step holds its own rank's
        // cursor while it asks for a *peer's* cursor and for records and
        // spills, which are other cells).
        unsafe { &mut *cell(seg.world()).0.get() }
    }
}

/// The world's share of what a segment may touch (the scheduler's is in
/// `sched.rs`): everything below is reached through the token, never
/// through a bare `&World`.
impl<'w> Segment<'w> {
    /// `rank`'s record.
    pub(crate) fn peer(self, rank: usize) -> &'w mut Peer {
        World::runner_owned(self, |w| &w.peers[rank])
    }

    fn spill(self, rank: usize) -> &'w mut Spill {
        World::runner_owned(self, |w| &w.spills[rank])
    }

    /// `rank`'s tag-addressed queues.
    fn queues(self, rank: usize) -> &'w mut QueueMap {
        World::runner_owned(self, |w| &w.mailboxes[rank])
    }

    /// `rank`'s round cursor (`None` outside a dense round).
    pub(crate) fn cursor(self, rank: usize) -> &'w mut Option<Cursor> {
        World::runner_owned(self, |w| &w.cursors[rank])
    }

    /// The live value of cell `(T, key)`, computing it with `init` when
    /// the cell holds none; pinned for `takers` asks in all, this one
    /// included.
    ///
    /// The map is not borrowed across `init` (which may itself ask for a
    /// cell): ranks are fibers dispatched one at a time and `init` must
    /// not communicate, so no second rank can run between the miss and
    /// the insert.
    pub(crate) fn shared_once<T: Any + Send + Sync>(
        self,
        key: u64,
        takers: usize,
        init: impl FnOnce() -> T,
    ) -> Arc<T> {
        let id = (TypeId::of::<T>(), key);
        if let Some(cell) = World::runner_owned(self, |w| &w.shared).get_mut(&id) {
            if let Some(v) = cell.value.upgrade() {
                cell.takers = cell.takers.saturating_sub(1);
                if cell.takers == 0 {
                    cell.pin = None;
                }
                return v.downcast::<T>().expect("cell is keyed by its type");
            }
        }
        let v = Arc::new(init());
        let cells = World::runner_owned(self, |w| &w.shared);
        cells.retain(|_, c| c.value.strong_count() > 0);
        let takers = takers.saturating_sub(1);
        let pin = (takers > 0).then(|| Arc::clone(&v) as Arc<dyn Any + Send + Sync>);
        let value: Weak<T> = Arc::downgrade(&v);
        cells.insert(id, SharedCell { value, pin, takers });
        v
    }

    /// Number of shared cells whose value is alive: held by some rank, or
    /// pinned for a member that has not taken it yet.
    pub(crate) fn shared_live(self) -> usize {
        World::runner_owned(self, |w| &w.shared).values().filter(|c| c.value.strong_count() > 0).count()
    }

    /// Whether `rank` has crash-stopped.
    pub(crate) fn is_dead(self, rank: usize) -> bool {
        self.peer(rank).dead
    }

    /// Mark `rank` dead and drop its park entry, everything queued in its
    /// mailbox and on its boards (ring and pooled ones included) and its
    /// round cursor, so the scheduler's deadlock diagnostics and memory
    /// footprint never carry already-dead ranks.
    pub(crate) fn reap_rank(self, rank: usize) {
        *self.peer(rank) = Peer { dead: true, ..Peer::default() };
        *self.spill(rank) = Spill::default();
        self.queues(rank).clear();
        *self.cursor(rank) = None;
    }

    pub(crate) fn deliver(self, dst: usize, src: usize, tag: u64, msg: Msg) {
        let p = self.peer(dst);
        // Messages to a crash-stopped rank fall on the floor, exactly like
        // packets to a dead host.
        if p.dead {
            return;
        }
        // Fast path: a receiver already parked on exactly `(src, tag)`
        // gets the message handed to it directly.
        match p.unpark_if(src, tag) {
            Some(clock) => self.hand_over(dst, clock, msg),
            None => self.queues(dst).entry((src, tag)).or_default().push_back(msg),
        }
    }

    /// Where a message of round `key` lands when `p` — `rank`'s record —
    /// is not open for it: the round's board beside the record if it has
    /// one, or is to get one because the header is taken; `None` if the
    /// header was vacant — it is open for `key` now (the first delivery
    /// of a round opens its board).
    #[cold]
    fn board_beside(self, rank: usize, p: &mut Peer, key: u64) -> Option<&'w mut Board> {
        debug_assert_ne!(p.key, key);
        let ahead = &mut self.spill(rank).ahead;
        if p.key == NO_ROUND && !ahead.iter().any(|b| b.key == key) {
            debug_assert!(p.ring.is_empty());
            (p.key, p.taken) = (key, 0);
            return None;
        }
        Some(board_of(ahead, key))
    }

    /// `rank` enters the round `cursor` describes: its header is the
    /// round's from here to [`Segment::end_round`] (the board a peer
    /// opened for it ahead of time moves in; one that a peer opened in
    /// the vacant header for a later round moves out), and the bytes that
    /// landed ahead of the rank move to the cursor, where later ones are
    /// delivered directly.
    pub(crate) fn begin_round(self, rank: usize, mut cursor: Cursor) {
        let (p, spill) = (self.peer(rank), self.spill(rank));
        if p.key != cursor.key {
            if p.key != NO_ROUND {
                let b = board_of(&mut spill.ahead, p.key);
                std::mem::swap(&mut b.ring, &mut p.ring);
                std::mem::swap(&mut b.blocks, &mut spill.blocks);
            }
            (p.key, p.taken) = (cursor.key, 0);
            if let Some(b) = spill.ahead.iter_mut().find(|b| b.key == cursor.key) {
                std::mem::swap(&mut b.ring, &mut p.ring);
                std::mem::swap(&mut b.blocks, &mut spill.blocks);
                b.key = NO_ROUND;
            }
        }
        std::mem::swap(&mut cursor.received, &mut spill.blocks);
        let slot = self.cursor(rank);
        debug_assert!(slot.is_none(), "rank {rank} entered a round inside a round");
        *slot = Some(cursor);
    }

    /// [`Segment::deliver`] for a message of a dense collective round, in
    /// the same order: dropped if the receiver is dead; its bytes, if it
    /// has any, left with the receiver (its cursor once it is in the
    /// round, its board for the round until then); then its availability
    /// time handed to a receiver parked on exactly this `(src, tag)`, or
    /// written into the slot of the step the receiver takes it at. All of
    /// which is in the receiver's record, and the slot: two cache lines —
    /// no hash, no lock, and no allocation once the receiver's ring has
    /// grown to its senders' lead.
    pub(crate) fn deliver_step(
        self,
        dst: usize,
        src: usize,
        tag: u64,
        at: Slot,
        data: Option<Payload>,
        avail_at: u64,
    ) {
        let p = self.peer(dst);
        if p.dead {
            return;
        }
        debug_assert_ne!(avail_at, ABSENT);
        // The round's board: the record's, or — seldom — one beside it.
        // (Nothing is opened ahead of a hand-off: a receiver parked on
        // this message is in the round, its header open for it.)
        let mut beside = if p.key == at.key { None } else { self.board_beside(dst, p, at.key) };
        if let Some(data) = data {
            let blocks = match (self.cursor(dst), &mut beside) {
                (Some(c), _) if c.key == at.key => &mut c.received,
                (_, Some(b)) => &mut b.blocks,
                (_, None) => &mut self.spill(dst).blocks,
            };
            blocks.push((at.step, data));
        }
        if let Some(clock) = p.unpark_if(src, tag) {
            p.handed = avail_at;
            self.wake(dst, clock);
            return;
        }
        match beside {
            Some(b) => b.ring.land(0, at.step, avail_at),
            None => p.ring.land(p.taken as usize, at.step, avail_at),
        }
    }

    /// The receive half of [`Segment::deliver_step`]: the availability
    /// time of the message `rank` takes at `at`, if it has landed. Either
    /// way the window moves on: a message that has not landed is one the
    /// rank now parks on, and comes by hand-off.
    pub(crate) fn take_step(self, rank: usize, at: Slot) -> Option<u64> {
        let p = self.peer(rank);
        debug_assert_eq!(p.key, at.key, "rank {rank} takes a step of a round it is not in");
        p.taken = at.step as u32 + 1;
        p.ring.take(at.step)
    }

    /// `rank`'s fiber leaves round `key` with its cursor: every message
    /// addressed to it has been taken, so its header is vacant again (and
    /// keeps its ring). Every slot must be empty by now — a message left
    /// behind would surface in whichever later round the header opens for.
    pub(crate) fn end_round(self, rank: usize, key: u64) -> Cursor {
        let p = self.peer(rank);
        debug_assert_eq!(p.key, key, "rank {rank} leaves a round it is not in");
        debug_assert!(
            p.ring.is_empty() && self.spill(rank).blocks.is_empty(),
            "rank {rank} left round {key} with an untaken message on its board"
        );
        p.key = NO_ROUND;
        let c = self.cursor(rank).take().expect("a rank leaves the round it entered");
        debug_assert!(c.key == key && c.is_done(), "rank {rank} left round {key} half-stepped");
        c
    }

    /// Whether `rank` has a round cursor (tests).
    #[cfg(test)]
    pub(crate) fn in_round(self, rank: usize) -> bool {
        self.cursor(rank).is_some()
    }

    /// `(live, pooled)` board counts of `rank` (tests): boards open for a
    /// round, and rings kept for the next.
    #[cfg(test)]
    pub(crate) fn board_census(self, rank: usize) -> (usize, usize) {
        let (p, ahead) = (self.peer(rank), &self.spill(rank).ahead);
        let live = usize::from(p.key != NO_ROUND) + ahead.iter().filter(|b| b.key != NO_ROUND).count();
        let rings = usize::from(!p.ring.0.is_empty()) + ahead.iter().filter(|b| !b.ring.0.is_empty()).count();
        (live, rings.saturating_sub(live))
    }

    /// `(slots, landed)` of `rank`'s rings (tests): the length of the
    /// longest, and the messages waiting on all of them.
    #[cfg(test)]
    pub(crate) fn ring_census(self, rank: usize) -> (usize, usize) {
        let rings = || std::iter::once(&self.peer(rank).ring).chain(self.spill(rank).ahead.iter().map(|b| &b.ring));
        let landed = rings().flat_map(|r| r.0.iter()).filter(|&&t| t != ABSENT).count();
        (rings().map(|r| r.0.len()).max().unwrap_or(0), landed)
    }

    /// Pop the next message from `(src, tag)` for rank `dst`, parking the
    /// caller until one arrives. `now` is the receiver's virtual clock —
    /// its wake-up priority.
    pub(crate) fn take(self, dst: usize, src: usize, tag: u64, now: u64) -> Msg {
        loop {
            if let Some(m) = self.pop_queued(dst, src, tag) {
                return m;
            }
            // The common case resumes with the message in hand; after a
            // spurious resume, look again at where an un-parked delivery
            // would have waited.
            match self.park_for_recv(dst, src, tag, now, None) {
                ParkWake::Delivered(m) => return m,
                ParkWake::Spurious => continue,
                ParkWake::TimedOut => unreachable!("deadline-free park cannot time out"),
            }
        }
    }

    /// [`Segment::take`] with a virtual-time watchdog: returns `None` when
    /// no matching message has been delivered by `deadline` (absolute
    /// virtual ns). The deterministic timer is a scheduler feature, and
    /// crash detection is what needs it.
    pub(crate) fn take_deadline(self, dst: usize, src: usize, tag: u64, now: u64, deadline: u64) -> Option<Msg> {
        loop {
            if let Some(m) = self.pop_queued(dst, src, tag) {
                return Some(m);
            }
            match self.park_for_recv(dst, src, tag, now, Some(deadline)) {
                ParkWake::Delivered(m) => return Some(m),
                ParkWake::Spurious => continue,
                // Re-check once: a delivery racing the timer entry would
                // have been queued, not handed off.
                ParkWake::TimedOut => return self.pop_queued(dst, src, tag),
            }
        }
    }

    /// The first collective message still in a mailbox, `(rank, src,
    /// tag)` lowest first. Read when every rank has finished: a
    /// collective's block its receiver did not list, which nothing else
    /// would ever report. (Dead ranks' mailboxes were emptied when they
    /// were reaped, and deliveries to them dropped.)
    pub(crate) fn untaken_collective(self) -> Option<(usize, usize, u64)> {
        (0..self.world().nprocs).find_map(|rank| {
            let keys = self.queues(rank).keys().filter(|&&(_, tag)| crate::rank::is_collective(tag));
            keys.min().map(|&(src, tag)| (rank, src, tag))
        })
    }

    /// Pop the head of `dst`'s `(src, tag)` queue if present, removing
    /// the queue when that drains it (drained queues are removed so
    /// unique collective tags can't grow the map without bound).
    fn pop_queued(self, dst: usize, src: usize, tag: u64) -> Option<Msg> {
        if let Entry::Occupied(mut e) = self.queues(dst).entry((src, tag)) {
            let m = e.get_mut().pop_front().expect("empty queue left in mailbox map");
            if e.get().is_empty() {
                e.remove();
            }
            return Some(m);
        }
        None
    }
}

/// Drive a fresh world's ranks to completion: `None` for crash-stopped
/// ranks, `Some` for the rest.
fn drive<R, F>(world: Arc<World>, f: F) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(&crate::rank::Rank) -> R + Sync,
{
    assert!(
        Backend::event_loop_supported(),
        "the flexio-sim rank runtime requires x86_64 stackful fibers \
         (the thread-per-rank fallback was retired)"
    );
    let out = crate::sched::run_event_loop_partial(world, f);
    // The world is gone — stacks, boards, shared cells — and with it most
    // of what the heap grew for: hand the free pages back to the system,
    // or the next world's allocation pattern decides how much of them
    // stays resident.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer and may be called
        // at any time; 0 keeps no pad at the top of the heap.
        unsafe { malloc_trim(0) };
    }
    out
}

/// Run `f` on every rank of a fresh world and return the per-rank results
/// in rank order. Panics in any rank propagate.
pub fn run<R, F>(nprocs: usize, cost: CostModel, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&crate::rank::Rank) -> R + Sync,
{
    drive(World::new(nprocs, cost), f)
        .into_iter()
        .map(|r| r.expect("rank finished without a result"))
        .collect()
}

/// [`run`], under the name the benchmark package calls it by (see
/// [`Backend`]; goes when the benchmark stops naming it).
pub fn run_on<R, F>(_backend: Backend, nprocs: usize, cost: CostModel, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&crate::rank::Rank) -> R + Sync,
{
    run(nprocs, cost, f)
}

/// Run `f` on every rank of a fresh world carrying a crash-stop schedule:
/// each `(rank, at_ns)` pair kills that rank at its first
/// [`Rank::maybe_crash`] check at or past `at_ns` of virtual time.
/// Crashed ranks return `None`; survivors return `Some`.
///
/// [`Rank::maybe_crash`]: crate::rank::Rank::maybe_crash
pub fn run_crashable<R, F>(
    nprocs: usize,
    cost: CostModel,
    crashes: &[(usize, u64)],
    f: F,
) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(&crate::rank::Rank) -> R + Sync,
{
    drive(World::with_crashes(nprocs, cost, crashes), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_rank_order() {
        let out = run(4, CostModel::free(), |r| r.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn a_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Peer>(), 64);
        assert_eq!(std::mem::align_of::<RunnerCell<Peer>>(), 64);
    }

    #[test]
    fn ring_wraps_around_without_growing() {
        let mut ring = Ring::default();
        assert!(ring.is_empty() && ring.take(0).is_none(), "a ring nothing landed on has no slots");
        // A sender three steps ahead of the owner, for many laps.
        for step in 0..100usize {
            ring.land(step.saturating_sub(3), step, 1000 + step as u64);
            if let Some(due) = step.checked_sub(3) {
                assert_eq!(ring.take(due), Some(1000 + due as u64));
                assert_eq!(ring.take(due), None, "a taken slot is free for the next lap");
            }
        }
        assert_eq!(ring.0.len(), Ring::MIN_SLOTS);
        for due in 97..100 {
            assert_eq!(ring.take(due), Some(1000 + due as u64));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.take(100), None);
    }

    #[test]
    fn ring_growth_keeps_what_has_landed() {
        let mut ring = Ring::default();
        // A window that opens at step 6 of an 8-slot ring: 9 and 13 wrap.
        for step in [6usize, 9, 13] {
            ring.land(6, step, step as u64 * 10);
        }
        assert_eq!(ring.0.len(), Ring::MIN_SLOTS);
        // A sender 129 steps ahead: the ring grows while non-empty and
        // wrapped, and every landed step keeps its time.
        ring.land(6, 135, 7);
        assert_eq!(ring.0.len(), 256);
        for step in 6..137usize {
            let want = match step {
                6 | 9 | 13 => Some(step as u64 * 10),
                135 => Some(7),
                _ => None,
            };
            assert_eq!(ring.take(step), want, "step {step}");
        }
        assert!(ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::new(0, CostModel::free());
    }
}
