//! The shared world: mailboxes, landing boards, shared cells, and the
//! entry points that drive one ([`run`], [`run_crashable`]).

use crate::cost::CostModel;
use crate::rank::Cursor;
use std::any::{Any, TypeId};
use std::cell::{Cell, UnsafeCell};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// A message's bytes. Point-to-point and all-to-all traffic owns its
/// buffer; an allgather block is one allocation shared by every rank it
/// passes through, so a ring hop costs a reference count, not a copy.
#[derive(Debug)]
pub(crate) enum Payload {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl Payload {
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Shared(a) => a.len(),
        }
    }

    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => a.to_vec(),
        }
    }

    pub fn into_shared(self) -> Arc<[u8]> {
        match self {
            Payload::Owned(v) => v.into(),
            Payload::Shared(a) => a,
        }
    }
}

/// A message in flight: payload plus the virtual time it becomes available
/// at the receiver.
#[derive(Debug)]
pub(crate) struct Msg {
    pub data: Payload,
    pub avail_at: u64,
}

impl Msg {
    /// What a dense round hands a parked receiver: the message's bytes,
    /// if it has any, are with the receiver already
    /// ([`World::deliver_step`]).
    pub fn time_only(avail_at: u64) -> Msg {
        Msg { data: Payload::Owned(Vec::new()), avail_at }
    }
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
/// [`Boards`]), one FIFO queue per `(src, tag)`. Only the overflow path —
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

/// One rank's landing slots for one round. All a receive needs of a
/// message is the time it becomes available at, so that is all a slot
/// holds: `avail[i]` is step `taken + i`'s, [`ABSENT`] until it lands.
/// The window opens at the first step the rank has not taken yet and
/// reaches as far as the furthest step a peer has delivered, so a board
/// is as long as its senders run ahead of its owner — a handful of slots
/// in a ring allgather at any world size, up to `nprocs` in a skewed
/// all-to-all — not as long as the round. The few messages that carry
/// bytes leave them in `blocks` (`(step, bytes)`, in delivery order)
/// when they land before the rank has entered the round; once it has,
/// they go straight to its cursor.
#[derive(Default)]
struct Board {
    key: u64,
    taken: usize,
    avail: VecDeque<u64>,
    blocks: Vec<(usize, Payload)>,
}

/// One rank's boards: the rounds some peer has already delivered into
/// (`live`: the round the rank is in and, when a peer runs ahead, the
/// next one) and the emptied boards of finished rounds (`free`), reused
/// so a steady stream of rounds allocates nothing.
#[derive(Default)]
struct Boards {
    live: Vec<Board>,
    free: Vec<Board>,
}

impl Boards {
    /// The board of round `key`, opened (from the pool when it has one)
    /// by the first delivery of the round.
    fn open(&mut self, key: u64) -> &mut Board {
        let at = match self.live.iter().position(|b| b.key == key) {
            Some(at) => at,
            None => {
                let mut b = self.free.pop().unwrap_or_default();
                (b.key, b.taken) = (key, 0);
                self.live.push(b);
                self.live.len() - 1
            }
        };
        &mut self.live[at]
    }
}

/// State that only the one running segment touches — a rank's fiber, or
/// the scheduler stepping a sleeping rank's round — so it needs no lock
/// of its own: one host thread drives a world from its first segment to
/// its last, one segment at a time (DESIGN "Rank runtime"). Every access
/// goes through [`World::runner_owned`], which checks that the caller is
/// a segment of that drive.
#[derive(Default)]
struct RunnerCell<T>(UnsafeCell<T>);

// SAFETY: the field is private and `World::runner_owned` is the only code
// that reaches into it. It refuses any caller whose thread's active
// scheduler is not the one driving this world, and a world is driven by
// exactly one scheduler, on one thread (`run`/`run_crashable` build the
// world they drive): every access that gets through is on that thread.
// Another thread that holds the `Arc<World>` can only be refused.
unsafe impl<T: Send> Sync for RunnerCell<T> {}

/// The world's "compute once, share" cells (see
/// [`crate::rank::Rank::shared_once`]): weak references, so a value dies
/// with its last user and the map never keeps one alive.
type SharedCells = HashMap<(TypeId, u64), Weak<dyn Any + Send + Sync>>;

/// The shared state of a simulated MPI world.
pub struct World {
    pub(crate) nprocs: usize,
    pub(crate) cost: CostModel,
    mailboxes: Vec<RunnerCell<QueueMap>>,
    /// Per-rank landing boards of the dense collective rounds.
    boards: Vec<RunnerCell<Boards>>,
    /// Per-rank round cursor: `Some` from the moment a rank enters a
    /// dense round until its fiber has left it (see
    /// [`crate::rank::step_round`]).
    cursors: Vec<RunnerCell<Option<Cursor>>>,
    /// Scheduled crash-stop time per rank, virtual ns (`u64::MAX` =
    /// never). Checked by [`crate::rank::Rank::maybe_crash`].
    pub(crate) crash_at: Vec<u64>,
    /// Ranks that have crash-stopped: deliveries to them are dropped.
    pub(crate) dead: Vec<AtomicBool>,
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
            mailboxes: (0..nprocs).map(|_| RunnerCell::default()).collect(),
            boards: (0..nprocs).map(|_| RunnerCell::default()).collect(),
            cursors: (0..nprocs).map(|_| RunnerCell::default()).collect(),
            crash_at,
            dead: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
            shared: RunnerCell::default(),
        })
    }

    /// The live value of cell `(T, key)`, computing it with `init` when no
    /// rank of this world currently holds one.
    ///
    /// The map is not borrowed across `init` (which may itself ask for a
    /// cell): ranks are fibers dispatched one at a time and `init` must
    /// not communicate, so no second rank can run between the miss and
    /// the insert.
    pub(crate) fn shared_once<T: Any + Send + Sync>(
        &self,
        key: u64,
        init: impl FnOnce() -> T,
    ) -> Arc<T> {
        let id = (TypeId::of::<T>(), key);
        let live = self.runner_owned(&self.shared).get(&id).and_then(Weak::upgrade);
        if let Some(v) = live {
            return v.downcast::<T>().expect("cell is keyed by its type");
        }
        let v = Arc::new(init());
        let cells = self.runner_owned(&self.shared);
        cells.retain(|_, w| w.strong_count() > 0);
        let weak: Weak<T> = Arc::downgrade(&v);
        cells.insert(id, weak);
        v
    }

    /// Number of shared cells some rank still holds.
    pub(crate) fn shared_live(&self) -> usize {
        self.runner_owned(&self.shared).values().filter(|w| w.strong_count() > 0).count()
    }

    /// The scheduled crash time of `rank` (`u64::MAX` = never).
    pub(crate) fn crash_time(&self, rank: usize) -> u64 {
        self.crash_at[rank]
    }

    /// Whether `rank` has crash-stopped.
    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Relaxed)
    }

    /// Mark `rank` dead and drop everything queued in its mailbox and on
    /// its boards (pooled ones included) and its round cursor, so the
    /// scheduler's deadlock diagnostics and memory footprint never carry
    /// already-dead ranks.
    pub(crate) fn reap_rank(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::Relaxed);
        self.queues(rank).clear();
        *self.boards(rank) = Boards::default();
        *self.cursor(rank) = None;
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The world's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    pub(crate) fn deliver(&self, dst: usize, src: usize, tag: u64, msg: Msg) {
        // Messages to a crash-stopped rank fall on the floor, exactly like
        // packets to a dead host.
        if self.is_dead(dst) {
            return;
        }
        // Fast path: a receiver already parked on exactly `(src, tag)`
        // gets the message handed to it directly. When it is parked, its
        // queue is provably empty — it drained it before parking — so FIFO
        // order holds.
        let Some(msg) = crate::sched::try_handoff(self, dst, src, tag, msg) else {
            return;
        };
        self.queues(dst).entry((src, tag)).or_default().push_back(msg);
    }

    /// One rank's cell of runner-owned state. Only the running segment
    /// may ask (for its own rank's or a peer's): that is what makes the
    /// unguarded `&mut` sound.
    #[allow(clippy::mut_from_ref)]
    fn runner_owned<'a, T>(&'a self, cell: &'a RunnerCell<T>) -> &'a mut T {
        assert!(
            crate::sched::scheduler_active_for(self),
            "communication outside the rank runtime (ranks only run inside flexio_sim::run)"
        );
        // SAFETY: the caller is a segment of the one drive of this world,
        // on the thread that drives it (checked above), and segments run
        // one at a time; callers never hold the reference across a park
        // or a second request for the same cell (a round's step holds its
        // own rank's cursor while it asks for a *peer's* cursor and for
        // boards, which are other cells).
        unsafe { &mut *cell.0.get() }
    }

    /// `rank`'s tag-addressed queues.
    fn queues(&self, rank: usize) -> &mut QueueMap {
        self.runner_owned(&self.mailboxes[rank])
    }

    fn boards(&self, rank: usize) -> &mut Boards {
        self.runner_owned(&self.boards[rank])
    }

    /// `rank`'s round cursor (`None` outside a dense round).
    pub(crate) fn cursor(&self, rank: usize) -> &mut Option<Cursor> {
        self.runner_owned(&self.cursors[rank])
    }

    /// `rank` enters the round `cursor` describes: the bytes that landed
    /// on its board ahead of it move to the cursor, where later ones are
    /// delivered directly.
    pub(crate) fn begin_round(&self, rank: usize, mut cursor: Cursor) {
        if let Some(b) = self.boards(rank).live.iter_mut().find(|b| b.key == cursor.key) {
            std::mem::swap(&mut cursor.received, &mut b.blocks);
        }
        let slot = self.cursor(rank);
        debug_assert!(slot.is_none(), "rank {rank} entered a round inside a round");
        *slot = Some(cursor);
    }

    /// [`World::deliver`] for a message of a dense collective round, in
    /// the same order: dropped if the receiver is dead; its bytes, if it
    /// has any, left with the receiver (its cursor once it is in the
    /// round, its board for the round until then); then its availability
    /// time handed to a receiver parked on exactly this `(src, tag)`, or
    /// written into the slot of the step the receiver takes it at — no
    /// hash, no lock, and no allocation once the receiver's pooled
    /// windows have grown to its senders' lead.
    pub(crate) fn deliver_step(
        &self,
        dst: usize,
        src: usize,
        tag: u64,
        at: Slot,
        data: Option<Payload>,
        avail_at: u64,
    ) {
        if self.is_dead(dst) {
            return;
        }
        debug_assert_ne!(avail_at, ABSENT);
        if let Some(data) = data {
            match self.cursor(dst) {
                Some(c) if c.key == at.key => c.received.push((at.step, data)),
                _ => self.boards(dst).open(at.key).blocks.push((at.step, data)),
            }
        }
        if crate::sched::try_handoff(self, dst, src, tag, Msg::time_only(avail_at)).is_none() {
            return;
        }
        let b = self.boards(dst).open(at.key);
        debug_assert!(at.step >= b.taken, "step {} of round {} delivered twice", at.step, at.key);
        let i = at.step - b.taken;
        if i >= b.avail.len() {
            // Mostly `i == len`: the sender is one more step ahead.
            b.avail.resize(i, ABSENT);
            b.avail.push_back(avail_at);
        } else {
            debug_assert_eq!(b.avail[i], ABSENT, "two messages for step {} of round {}", at.step, at.key);
            b.avail[i] = avail_at;
        }
    }

    /// The receive half of [`World::deliver_step`]: the availability time
    /// of the message `rank` takes at `at`, if it has landed.
    pub(crate) fn take_step(&self, rank: usize, at: Slot) -> Option<u64> {
        let b = self.boards(rank).live.iter_mut().find(|b| b.key == at.key)?;
        let i = at.step - b.taken;
        let avail_at = *b.avail.get(i).filter(|&&t| t != ABSENT)?;
        // Earlier steps came by hand-off; the window moves on.
        b.avail.drain(..=i);
        b.taken = at.step + 1;
        Some(avail_at)
    }

    /// `rank`'s fiber leaves round `key` with its cursor: every message
    /// addressed to it has been taken, so its board, if any delivery ever
    /// needed one, goes back to the pool. Every slot must be empty by now
    /// — a message left behind would surface in whichever later round
    /// reuses the board.
    pub(crate) fn end_round(&self, rank: usize, key: u64) -> Cursor {
        let boards = self.boards(rank);
        if let Some(i) = boards.live.iter().position(|b| b.key == key) {
            let mut b = boards.live.swap_remove(i);
            debug_assert!(
                b.avail.iter().all(|&t| t == ABSENT) && b.blocks.is_empty(),
                "rank {rank} left round {key} with an untaken message on its board"
            );
            b.avail.clear();
            boards.free.push(b);
        }
        let c = self.cursor(rank).take().expect("a rank leaves the round it entered");
        debug_assert!(c.key == key && c.is_done(), "rank {rank} left round {key} half-stepped");
        c
    }

    /// Whether `rank` has a round cursor (tests).
    #[cfg(test)]
    pub(crate) fn in_round(&self, rank: usize) -> bool {
        self.cursor(rank).is_some()
    }

    /// `(live, pooled)` board counts of `rank` (tests).
    #[cfg(test)]
    pub(crate) fn board_census(&self, rank: usize) -> (usize, usize) {
        let b = self.boards(rank);
        (b.live.len(), b.free.len())
    }

    /// Pop the next message from `(src, tag)` for rank `dst`, parking the
    /// caller until one arrives. `now` is the receiver's virtual clock —
    /// its wake-up priority.
    pub(crate) fn take(&self, dst: usize, src: usize, tag: u64, now: u64) -> Msg {
        loop {
            if let Some(m) = self.pop_queued(dst, src, tag) {
                return m;
            }
            if let Some(m) = self.park(dst, src, tag, now) {
                return m;
            }
        }
    }

    /// Park `dst` until a delivery for `(src, tag)` is handed to it (the
    /// common case: resumes with the message in hand); `None` on a
    /// spurious resume, after which the caller looks again at where an
    /// un-parked delivery would have waited.
    fn park(&self, dst: usize, src: usize, tag: u64, now: u64) -> Option<Msg> {
        match crate::sched::park_for_recv(self, dst, src, tag, now, None) {
            crate::sched::ParkWake::Delivered(m) => Some(m),
            crate::sched::ParkWake::Spurious => None,
            crate::sched::ParkWake::TimedOut => unreachable!("deadline-free park cannot time out"),
        }
    }

    /// [`World::take`] with a virtual-time watchdog: returns `None` when
    /// no matching message has been delivered by `deadline` (absolute
    /// virtual ns). The deterministic timer is a scheduler feature, and
    /// crash detection is what needs it.
    pub(crate) fn take_deadline(
        &self,
        dst: usize,
        src: usize,
        tag: u64,
        now: u64,
        deadline: u64,
    ) -> Option<Msg> {
        loop {
            if let Some(m) = self.pop_queued(dst, src, tag) {
                return Some(m);
            }
            match crate::sched::park_for_recv(self, dst, src, tag, now, Some(deadline)) {
                crate::sched::ParkWake::Delivered(m) => return Some(m),
                crate::sched::ParkWake::Spurious => continue,
                // Re-check once: a delivery racing the timer entry would
                // have been queued, not handed off.
                crate::sched::ParkWake::TimedOut => return self.pop_queued(dst, src, tag),
            }
        }
    }

    /// Pop the head of `dst`'s `(src, tag)` queue if present, removing
    /// the queue when that drains it (drained queues are removed so
    /// unique collective tags can't grow the map without bound).
    fn pop_queued(&self, dst: usize, src: usize, tag: u64) -> Option<Msg> {
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
    crate::sched::run_event_loop_partial(world, f)
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
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::new(0, CostModel::free());
    }
}
