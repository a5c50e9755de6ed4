//! A world — its size, cost model and crash schedule — the per-rank
//! record its scheduler keeps (park entry, handed message, dead flag),
//! the world's one mailbox, what a delivery and a receive do with them,
//! and the entry points that drive a world ([`run`], [`run_crashable`]).

use crate::cost::CostModel;
use crate::sched::Segment;
use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The bytes of a message. Most messages own their buffer; an
/// `allgatherv` step carries only the byte count it is charged for: the
/// blocks it stands for are in the round's table
/// ([`crate::rank::GatherTable`]), which every member of the round shares.
#[derive(Debug)]
pub(crate) enum Payload {
    Owned(Vec<u8>),
    Sized(usize),
}

impl Payload {
    /// The bytes the message is charged for.
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Sized(n) => *n,
        }
    }

    /// The buffer of a message that owns one.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Sized(_) => unreachable!("only an allgatherv step carries a size alone"),
        }
    }
}

/// A message in flight: its bytes plus the virtual time it becomes
/// available at the receiver.
#[derive(Debug)]
pub(crate) struct Msg {
    pub data: Payload,
    pub avail_at: u64,
}

/// What a run cost its scheduler: the two things a message can make it
/// do that are dearer than a few loads and stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedCounters {
    /// Switches from the scheduler into a rank's fiber (each has its
    /// switch back): one per rank start and one per wake of a parked
    /// receive.
    pub fiber_switches: u64,
    /// Entries pushed onto the ready heap: rank starts, wakes of parked
    /// receives and park timers.
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
/// fixed-size `(route, tag)` pairs from trusted (in-process) senders, and
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

/// What waits in the mailbox for one `(dst, src, tag)`. A collective's
/// tag names one message from each source, which waits on its own; a
/// FIFO queue is built only when a second message shares a `(dst, src,
/// tag)`, as a user tag's may.
pub(crate) enum Waiting {
    One(Msg),
    Many(VecDeque<Msg>),
}

impl Waiting {
    fn push(&mut self, msg: Msg) {
        let queue = match std::mem::replace(self, Waiting::Many(VecDeque::new())) {
            Waiting::One(first) => VecDeque::from([first, msg]),
            Waiting::Many(mut queue) => {
                queue.push_back(msg);
                queue
            }
        };
        *self = Waiting::Many(queue);
    }
}

/// A world's store of delivered messages nobody has taken yet: what
/// waits for each receiver, sender and tag, keyed by [`route`] and tag.
/// One map for the world, not one per rank: a 512-rank write kept 512
/// small tables, that grew one by one (some 1 900 reallocations a world)
/// and that every delivery reached through its receiver's record.
pub(crate) type QueueMap = HashMap<(u64, u64), Waiting, BuildHasherDefault<TagHasher>>;

/// Bits of a rank id in a [`route`] (a world holds at most 2^24 ranks).
const ROUTE_BITS: u32 = 24;

/// The mailbox key of messages from `src` to `dst`.
fn route(dst: usize, src: usize) -> u64 {
    (dst as u64) << ROUTE_BITS | src as u64
}

/// [`Peer::park_src`] of a rank that is not parked. (A world holds at
/// most 2^24 ranks.)
const NOT_PARKED: u32 = u32::MAX;

/// Everything the runtime keeps for one rank between its segments but its
/// queued messages: what it is parked on, the message a delivery handed
/// it and whether it is dead. The scheduler holds one record per rank and
/// no other per-rank state besides the fibers and the mailbox's entries;
/// the records are its whole park table, and a delivery touches only the
/// receiver's.
pub(crate) struct Peer {
    /// The park entry: the `(src, tag)` the rank waits for and the clock
    /// it parked at, its wake-up priority. `park_src` is [`NOT_PARKED`]
    /// while the rank is ready or running.
    park_tag: u64,
    park_clock: u64,
    park_src: u32,
    /// The number of the rank's current (or last) park. A park timer
    /// carries the generation of the park that set it, so one that pops
    /// after that park ended no longer matches.
    gen: u64,
    /// The message a delivery handed the parked rank; the rank takes it
    /// when it resumes.
    pub handed: Option<Msg>,
    /// The rank has crash-stopped: deliveries to it are dropped.
    dead: bool,
}

impl Default for Peer {
    fn default() -> Peer {
        Peer { park_tag: 0, park_clock: 0, park_src: NOT_PARKED, gen: 0, handed: None, dead: false }
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
    /// wake-up priority. Returns the park's generation.
    pub fn park(&mut self, src: usize, tag: u64, clock: u64) -> u64 {
        debug_assert!(self.park_src == NOT_PARKED && src < NOT_PARKED as usize);
        (self.park_src, self.park_tag, self.park_clock) = (src as u32, tag, clock);
        self.gen += 1;
        self.gen
    }

    /// What the rank is parked on, if it is parked.
    pub fn parked(&self) -> Option<Parked> {
        (self.park_src != NOT_PARKED).then_some(Parked {
            src: self.park_src as usize,
            tag: self.park_tag,
            clock: self.park_clock,
        })
    }

    /// A park timer of generation `gen` popped: if the rank is still in
    /// the very park that set it, that park ends here, with nothing
    /// handed, and this returns true. A hand-off that beat the deadline,
    /// or any later park, makes the timer stale.
    pub fn time_out(&mut self, gen: u64) -> bool {
        let fires = self.park_src != NOT_PARKED && self.gen == gen;
        if fires {
            self.park_src = NOT_PARKED;
        }
        fires
    }

    /// The hand-off match: if the rank is parked on exactly `(src, tag)`
    /// it is parked no longer, and this returns its park clock — the
    /// priority its wake is pushed at. When it is parked on a message,
    /// nothing of that `(src, tag)` waits in its mailbox — it looked
    /// before parking — so FIFO order holds.
    fn unpark_if(&mut self, src: usize, tag: u64) -> Option<u64> {
        (self.park_src as usize == src && self.park_tag == tag).then(|| {
            self.park_src = NOT_PARKED;
            self.park_clock
        })
    }
}

/// One of the world's "compute once, share" cells (see
/// [`crate::rank::Rank::shared_once`]).
pub(crate) struct SharedCell {
    value: Weak<dyn Any + Send + Sync>,
    /// The value, held by the world until `takers` more asks have taken
    /// it — the members of the asking communicator that have not yet —
    /// so that no member recomputes it because the others let go first.
    /// After that the cell is weak: the value dies with its last user.
    pin: Option<Arc<dyn Any + Send + Sync>>,
    takers: usize,
}

pub(crate) type SharedCells = HashMap<(TypeId, u64), SharedCell>;

/// The id the next world built in this process takes ([`World::id`]).
static NEXT_WORLD_ID: AtomicU64 = AtomicU64::new(1);

fn next_world_id() -> u64 {
    NEXT_WORLD_ID.fetch_add(1, Ordering::Relaxed)
}

/// A simulated MPI world: its id, size, cost model and crash schedule.
/// What its ranks leave for each other at run time — records, mailboxes,
/// shared cells — belongs to the one scheduler that drives it
/// (`sched.rs`).
pub struct World {
    id: u64,
    pub(crate) nprocs: usize,
    pub(crate) cost: CostModel,
    /// Scheduled crash-stop time per rank, virtual ns (`u64::MAX` =
    /// never), checked by [`crate::rank::Rank::maybe_crash`]; `None` in a
    /// world that cannot crash ([`World::new`]).
    crash_at: Option<Vec<u64>>,
}

impl World {
    /// Create a world of `nprocs` ranks with the given cost model. Its
    /// ranks never crash, and [`Rank::crashable`] is false on them.
    ///
    /// [`Rank::crashable`]: crate::rank::Rank::crashable
    pub fn new(nprocs: usize, cost: CostModel) -> Arc<World> {
        assert!(nprocs > 0, "world needs at least one rank");
        Arc::new(World { id: next_world_id(), nprocs, cost, crash_at: None })
    }

    /// [`World::new`] plus a crash-stop schedule: each `(rank, at_ns)`
    /// entry kills that rank's fiber at its first [`Rank::maybe_crash`]
    /// check at or past `at_ns` of virtual time. The world is crashable
    /// ([`Rank::crashable`]) whatever the schedule holds, an empty one
    /// included.
    ///
    /// [`Rank::maybe_crash`]: crate::rank::Rank::maybe_crash
    /// [`Rank::crashable`]: crate::rank::Rank::crashable
    pub fn with_crashes(nprocs: usize, cost: CostModel, crashes: &[(usize, u64)]) -> Arc<World> {
        assert!(nprocs > 0, "world needs at least one rank");
        let mut crash_at = vec![u64::MAX; nprocs];
        for &(r, at) in crashes {
            assert!(r < nprocs, "crash rank {r} out of range for {nprocs} ranks");
            crash_at[r] = crash_at[r].min(at);
        }
        Arc::new(World { id: next_world_id(), nprocs, cost, crash_at: Some(crash_at) })
    }

    /// The world's id: unique in the process, and larger than the id of
    /// every world built before it. A file system keys its virtual time
    /// on it (`flexio_pfs::Pfs::enter_world`): every world starts at
    /// virtual time 0, so a newer world starts on idle servers.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether this world was built with a crash schedule.
    pub(crate) fn crashable(&self) -> bool {
        self.crash_at.is_some()
    }

    /// The scheduled crash time of `rank` (`u64::MAX` = never).
    pub(crate) fn crash_time(&self, rank: usize) -> u64 {
        self.crash_at.as_ref().map_or(u64::MAX, |c| c[rank])
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The world's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

/// What a segment does with the records and cells of its drive. It
/// reaches them only through the token's accessors
/// ([`Segment::peer`], [`Segment::shared_cells`]).
impl<'w> Segment<'w> {
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
        if let Some(cell) = self.shared_cells().get_mut(&id) {
            if let Some(v) = cell.value.upgrade() {
                cell.takers = cell.takers.saturating_sub(1);
                if cell.takers == 0 {
                    cell.pin = None;
                }
                return v.downcast::<T>().expect("cell is keyed by its type");
            }
        }
        let v = Arc::new(init());
        let cells = self.shared_cells();
        cells.retain(|_, c| c.value.strong_count() > 0);
        let takers = takers.saturating_sub(1);
        let pin = (takers > 0).then(|| Arc::clone(&v) as Arc<dyn Any + Send + Sync>);
        let value: Weak<T> = Arc::downgrade(&v);
        cells.insert(id, SharedCell { value, pin, takers });
        v
    }

    /// Number of shared cells whose value is alive — held by some rank, or
    /// pinned for a member that has not taken it yet — and, given a type,
    /// holds one of that type.
    pub(crate) fn shared_live(self, of: Option<TypeId>) -> usize {
        let cells = self.shared_cells().iter();
        cells
            .filter(|((ty, _), c)| of.is_none_or(|of| of == *ty) && c.value.strong_count() > 0)
            .count()
    }

    /// Whether `rank` has crash-stopped.
    pub(crate) fn is_dead(self, rank: usize) -> bool {
        self.peer(rank).dead
    }

    /// Mark `rank` dead, reset the rest of its record — park entry,
    /// handed message — in one write and drop what waits for it in the
    /// mailbox, so the scheduler's deadlock diagnostics and memory
    /// footprint never carry already-dead ranks.
    pub(crate) fn reap_rank(self, rank: usize) {
        *self.peer(rank) = Peer { dead: true, ..Peer::default() };
        self.mailbox().retain(|&(r, _), _| (r >> ROUTE_BITS) as usize != rank);
    }

    pub(crate) fn deliver(self, dst: usize, src: usize, tag: u64, msg: Msg) {
        let p = self.peer(dst);
        // Messages to a crash-stopped rank fall on the floor, exactly like
        // packets to a dead host.
        if p.dead {
            return;
        }
        // Fast path: a receiver already parked on exactly `(src, tag)`
        // gets the message handed to it directly, and wakes at its park
        // clock.
        match p.unpark_if(src, tag) {
            Some(clock) => {
                p.handed = Some(msg);
                self.wake(dst, clock);
            }
            None => match self.mailbox().entry((route(dst, src), tag)) {
                Entry::Vacant(e) => {
                    e.insert(Waiting::One(msg));
                }
                Entry::Occupied(mut e) => e.get_mut().push(msg),
            },
        }
    }

    /// Pop the next message from `(src, tag)` for rank `dst`, parking the
    /// caller until one arrives. `now` is the receiver's virtual clock —
    /// its wake-up priority. With a `deadline` (absolute virtual ns) this
    /// returns `None` when no matching message has been delivered by
    /// then; the deterministic timer is a scheduler feature, and crash
    /// detection is what needs it. Without one it returns `Some`.
    pub(crate) fn take(
        self,
        dst: usize,
        src: usize,
        tag: u64,
        now: u64,
        deadline: Option<u64>,
    ) -> Option<Msg> {
        self.pop_queued(dst, src, tag).or_else(|| self.park_for_recv(dst, src, tag, now, deadline))
    }

    /// The first collective message still in a mailbox, `(rank, src,
    /// tag)` lowest first. Read when every rank has finished: a
    /// collective's block its receiver did not list — or a step of a
    /// round nobody took — which nothing else would ever report. (Dead
    /// ranks' messages were dropped when they were reaped, and deliveries
    /// to them too.)
    pub(crate) fn untaken_collective(self) -> Option<(usize, usize, u64)> {
        let keys = self.mailbox().keys().filter(|&&(_, tag)| crate::rank::is_collective(tag));
        let mask = (1 << ROUTE_BITS) - 1;
        keys.min().map(|&(r, tag)| ((r >> ROUTE_BITS) as usize, (r & mask) as usize, tag))
    }

    /// Take the first message waiting for `dst` from `(src, tag)`, if
    /// there is one, removing the entry when that empties it (so unique
    /// collective tags cannot grow the map without bound).
    fn pop_queued(self, dst: usize, src: usize, tag: u64) -> Option<Msg> {
        let Entry::Occupied(mut e) = self.mailbox().entry((route(dst, src), tag)) else {
            return None;
        };
        match e.get_mut() {
            Waiting::Many(queue) if queue.len() > 1 => queue.pop_front(),
            _ => match e.remove() {
                Waiting::One(m) => Some(m),
                Waiting::Many(mut queue) => queue.pop_front(),
            },
        }
    }
}

/// Drive a fresh world's ranks to completion: `None` for crash-stopped
/// ranks, `Some` for the rest.
fn drive<R, F>(world: Arc<World>, f: F) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(&crate::rank::Rank) -> R + Sync,
{
    if !cfg!(target_arch = "x86_64") {
        panic!(
            "the flexio-sim rank runtime requires x86_64 stackful fibers \
             (the thread-per-rank fallback was retired)"
        );
    }
    let out = crate::sched::run_event_loop_partial(world, f);
    // The world is gone — stacks, mailboxes, shared cells — and with it most
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
/// Crashed ranks return `None`; survivors return `Some`. Its ranks are
/// [`Rank::crashable`] even under an empty schedule.
///
/// [`Rank::maybe_crash`]: crate::rank::Rank::maybe_crash
/// [`Rank::crashable`]: crate::rank::Rank::crashable
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
    fn crashable_is_set_by_the_world_not_its_schedule() {
        assert_eq!(run(3, CostModel::free(), |r| r.crashable()), vec![false; 3]);
        for schedule in [&[][..], &[(1, u64::MAX / 2)][..]] {
            let out = run_crashable(3, CostModel::free(), schedule, |r| {
                (r.crashable(), r.subgroup(&[r.rank()]).crashable())
            });
            assert!(out.iter().all(|o| *o == Some((true, true))), "{out:?}");
        }
    }

    #[test]
    fn a_world_built_later_has_a_larger_id_seen_by_every_rank() {
        let a = World::new(2, CostModel::free());
        let b = World::with_crashes(2, CostModel::free(), &[]);
        assert!(b.id() > a.id());
        let ids = run(3, CostModel::free(), |r| (r.world_id(), r.subgroup(&[r.rank()]).world_id()));
        assert!(ids.iter().all(|&(w, s)| w == ids[0].0 && s == w), "{ids:?}");
        assert!(ids[0].0 > b.id());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::new(0, CostModel::free());
    }
}
