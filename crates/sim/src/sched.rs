//! The fiber rank runtime: every rank of a world runs as a cooperatively-
//! scheduled fiber over virtual time, driven either by one host thread
//! (the sequential event loop) or by a **sharded pool** of host threads
//! that reproduces the sequential execution bit for bit.
//!
//! Ranks are resumable state machines (stackful fibers, [`crate::fiber`])
//! parked on their one blocking primitive — a message receive that found
//! its `(src, tag)` queue, or its slot of a dense round's board, empty
//! ([`World::take`], [`crate::rank::step_round`]). The scheduler always
//! resumes the runnable rank with the **lowest virtual clock**, rank id as
//! tie-break, so host execution order is a pure function of the workload:
//! no OS wakeup races, no `Condvar` herds, bit-identical clocks and
//! counters on every run. A rank parked inside a dense round is resumed
//! without its fiber: the round's state is a cursor in the world, and the
//! scheduler advances it on its own stack ([`run_segment`]).
//!
//! Why lowest-clock-first matters: message payloads and per-rank charges
//! never depend on host order (per-`(src, tag)` queues are single-producer
//! FIFO), but operations against shared stateful resources — PFS OSTs with
//! ratcheting service clocks, seeded fault draws — observe the *order* in
//! which rank segments execute. Lowest-clock-first pins that order down to
//! a pure function of the workload, which is what turns "deterministic
//! except for device-queueing races" into "deterministic".
//!
//! # The sharded pool (`Backend::Sharded`)
//!
//! Ranks are partitioned by id into contiguous blocks, one per shard; each
//! shard owns a host thread, a local lowest-clock-first ready heap, and
//! the fiber slots of its ranks. Because the simulation has **zero
//! lookahead** (a segment resuming at virtual time `t` may issue PFS
//! operations timestamped far past `t`, and OST clocks ratchet on arrival
//! order), no shard may run a segment while any other shard holds a
//! globally smaller `(clock, rank, kind)` key. The pool therefore runs an
//! **epoch barrier degenerate to one segment per epoch**: a shared
//! min-gate (one mutex) where every shard publishes the head of its heap,
//! and only the shard holding the global minimum may dispatch — exactly
//! the key the sequential loop would pop next. Execution is serialized;
//! what the shards parallelize is scheduler state (heaps, park bookkeeping,
//! fiber slots, inbox drains), which is also what bounds per-thread memory
//! at high rank counts. See DESIGN.md "Rank runtime" for the equivalence
//! induction.
//!
//! Cross-shard delivery cannot hand a message directly into a parked
//! fiber — the receiver's park state belongs to another host thread. The
//! sender instead consults a gate-protected **park mirror** (each shard
//! republishes its ranks' park state when it releases the baton), pushes
//! the message into the target shard's **inbox**, and lowers the target's
//! published min so the global argmin sees the wake. The target drains its
//! inbox at its next gate entry, before publishing. Same-shard deliveries
//! keep the sequential loop's lock-free direct-handoff fast path.
//!
//! Error handling: a panic in any rank force-unwinds every other live
//! fiber (their park points re-raise a private `ForcedUnwind` panic, so
//! destructors on fiber stacks run) and then propagates the original
//! payload from `run`. Under the pool, the first payload wins and every
//! shard unwinds its own fibers. A world where every live rank is parked
//! with no matching message in flight is reported as a deadlock with
//! identical diagnostics under both drivers.

use crate::fiber::{prepare, switch_stacks, Context, FiberStack, Payload, StackArena};
use crate::rank::Rank;
use crate::world::{Msg, SchedCounters, World, LAST_RUN};
use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Default fiber stack size: 1 MiB of (lazily committed) address space.
const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Panic payload used to force parked fibers to unwind (running their
/// destructors) when another rank has panicked or the world deadlocked.
struct ForcedUnwind;

/// Bits of a ready-heap key that hold its kind; the rank id gets the
/// other 24 of the word (as a collective's step gets of a tag).
const KIND_BITS: u32 = 40;

/// Heap-entry discriminant for wake entries (initial starts and handoff
/// resumes). Timer entries carry the park generation instead, which
/// `note_park` keeps strictly below this.
const WAKE_ENTRY: u64 = (1 << KIND_BITS) - 1;

/// A ready-heap key: `(virtual clock, global rank id, kind)`, ordered in
/// that order. Rank ids are globally unique, so keys totally order across
/// shards. Packed into one integer because every pop compares its way
/// down the heap: a tuple's field-by-field comparison is a chain of
/// branches the host mispredicts, one integer's is not (a quarter off the
/// host time of a skewed 512-rank `alltoallv`, most of it in `pop`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(clock: u64, rank: usize, kind: u64) -> Key {
        debug_assert!(kind <= WAKE_ENTRY && (rank as u64) < 1 << (64 - KIND_BITS));
        Key((clock as u128) << 64 | (rank as u128) << KIND_BITS | kind as u128)
    }

    fn parts(self) -> (u64, usize, u64) {
        ((self.0 >> 64) as u64, (self.0 as u64 >> KIND_BITS) as usize, self.0 as u64 & WAKE_ENTRY)
    }
}

/// How a park ended, as seen by `World::take`/`take_deadline`.
pub(crate) enum ParkWake {
    /// A delivery matching `(src, tag)` was handed directly to the parked
    /// receiver (the common case).
    Delivered(Msg),
    /// Resumed without a message; the caller re-checks its queue.
    Spurious,
    /// The park's virtual-time deadline fired with no delivery.
    TimedOut,
}

/// A rank parked in `World::take`: what it waits for and the virtual
/// clock it parked at (its wake-up priority).
#[derive(Clone, Copy)]
struct ParkedRecv {
    src: usize,
    tag: u64,
    clock: u64,
    /// This park's generation: a stale timer entry (from an earlier park
    /// of the same rank) no longer matches and is skipped on pop.
    gen: u64,
}

struct FiberSlot {
    stack: FiberStack,
    /// Saved context while the fiber is suspended (initially the fresh
    /// image from `fiber::prepare`).
    ctx: Context,
    /// Boxed so its address is stable for the initial register image.
    payload: Box<Payload>,
    done: bool,
    /// The fiber sleeps in a dense round ([`sleep_in_round`]): its wakes
    /// advance the round's cursor on the scheduler's stack, and it is
    /// switched to only once the cursor has taken its last step.
    in_round: bool,
}

/// A cross-shard delivery parked in the target shard's inbox: the sender
/// matched the receiver against the park mirror and consumed its entry;
/// the target completes the handoff (clear local park state, stash the
/// message, push the wake) when it next drains at the gate.
struct InboxDelivery {
    dst: usize,
    /// The receiver's park-time clock — its wake-up priority, exactly the
    /// key the sequential loop would have pushed.
    clock: u64,
    msg: Msg,
}

/// State behind the pool's min-gate mutex.
struct Gate {
    /// Head of each shard's ready heap as of its last gate visit. A
    /// running shard's entry stays at the key it is executing until it
    /// returns and republishes — but that alone does not fence the
    /// world, because the runner's own cross-shard deliveries can push
    /// smaller keys under other shards' mins; [`Gate::running`] does.
    mins: Vec<Option<Key>>,
    /// Pending cross-shard deliveries, per target shard.
    inboxes: Vec<Vec<InboxDelivery>>,
    /// The shard currently executing a dispatched segment (gate
    /// released). While `Some`, no other shard may dispatch: a
    /// cross-shard delivery can lower a sleeping shard's published min
    /// *below* the running shard's fenced key (park-time clocks routinely
    /// trail the global min), and `Condvar::wait` permits spurious
    /// wakeups — without this fence, a spuriously woken shard could win
    /// the argmin and race the in-flight segment on shared stateful
    /// resources (OST ratchets, fault draws).
    running: Option<usize>,
    /// Park mirror: every rank's park state as of its shard's last baton
    /// release. Consulted (and consumed) by cross-shard senders.
    parked: Vec<Option<ParkedRecv>>,
    /// Live (not finished, not crashed) ranks across the whole world.
    live: usize,
    /// Crash-stopped ranks across the whole world.
    crashed: usize,
    /// Set once: every shard must force-unwind its fibers and exit.
    unwinding: bool,
    /// Deadlock diagnostics, reported by the shard that detected it.
    deadlock: Option<String>,
    /// First rank panic payload; re-raised by the pool's caller.
    panic_payload: Option<Box<dyn Any + Send>>,
}

/// Shared coordination state of one pool run.
struct ShardShared {
    /// Partition parameters: shard `s` owns `base + (s < extra)` ranks,
    /// contiguous ascending (so `shard_of` is closed-form).
    base: usize,
    extra: usize,
    gate: Mutex<Gate>,
    /// One condvar per shard (all waiting on `gate`): a shard is notified
    /// when some other shard observed it holding the global minimum.
    cvs: Vec<Condvar>,
    /// The shards' [`SchedCounters`], added up as each one leaves.
    fiber_switches: AtomicU64,
    heap_pushes: AtomicU64,
}

impl ShardShared {
    /// Which shard owns global rank `r`.
    fn shard_of(&self, r: usize) -> usize {
        let cut = self.extra * (self.base + 1);
        if r < cut {
            r / (self.base + 1)
        } else {
            self.extra + (r - cut) / self.base
        }
    }
}

/// Index of the shard holding the globally smallest published key.
fn global_argmin(mins: &[Option<Key>]) -> Option<usize> {
    let mut best: Option<(Key, usize)> = None;
    for (s, m) in mins.iter().enumerate() {
        if let Some(k) = *m {
            if best.is_none_or(|(bk, _)| k < bk) {
                best = Some((k, s));
            }
        }
    }
    best.map(|(_, s)| s)
}

/// Per-shard scheduler state. The sequential event loop is the one-shard
/// special case (`shared: None`, owning ranks `0..nprocs`); the pool runs
/// one of these per host thread over a contiguous rank block. All
/// rank-indexed vectors are local (`global rank - lo`); ready-heap keys
/// carry global rank ids so they order identically to the sequential heap.
struct Sched {
    /// Identity of the world this scheduler drives (nested `run` calls
    /// swap the active scheduler; the pointer check keeps a foreign
    /// world's primitives from parking on the wrong one).
    world: *const World,
    /// Full world size (diagnostics only).
    nprocs: usize,
    /// This shard's id within the pool (0 for the sequential driver).
    shard: usize,
    /// First global rank id this shard owns.
    lo: usize,
    stack_bytes: usize,
    current: usize,
    /// Locally owned ranks still live (the whole world for the solo
    /// driver; the pool tracks the global count in [`Gate::live`]).
    live: usize,
    unwinding: bool,
    panic_payload: Option<Box<dyn Any + Send>>,
    /// Runnable ranks and pending park timers, ordered by `(virtual time,
    /// global rank id)` ascending. The third element distinguishes wake
    /// entries (`WAKE_ENTRY`) from timer entries (the park's generation);
    /// at an equal `(time, rank)` the timer pops first and is discarded
    /// as stale if the handoff already cleared the park.
    ready: BinaryHeap<Reverse<Key>>,
    /// Per-rank park state; `Some` while blocked in `World::take`.
    waiting: Vec<Option<ParkedRecv>>,
    /// Per-rank park generation counter (see [`ParkedRecv::gen`]).
    park_seq: Vec<u64>,
    /// Set when a park's deadline fired; consumed by the resumed fiber.
    timed_out: Vec<bool>,
    /// Ranks that crash-stopped ([`crate::world::CrashStop`]); the pool
    /// also accumulates deltas to fold into the gate at baton release.
    crashed: usize,
    crashed_delta: usize,
    finished_delta: usize,
    /// Global rank ids whose park state changed during the segment just
    /// run; their mirror entries are republished at baton release. Unused
    /// (never pushed) by the solo driver.
    dirty: Vec<usize>,
    /// Direct-handoff slot per rank: a delivery matching a parked
    /// receiver's `(src, tag)` lands here, bypassing the mailbox map and
    /// its lock entirely (same host thread, so the queue is provably
    /// empty whenever the receiver is parked).
    handoff: Vec<Option<Msg>>,
    slots: Vec<FiberSlot>,
    /// The memory behind every slot's stack.
    stacks: StackArena,
    host_ctx: Context,
    /// Pool coordination state; `None` for the solo driver.
    shared: Option<Arc<ShardShared>>,
    counters: SchedCounters,
}

std::thread_local! {
    /// The scheduler currently executing on this thread (null outside a
    /// `run_*` frame). Each pool host thread sees only its own shard.
    static ACTIVE: Cell<*mut Sched> = const { Cell::new(std::ptr::null_mut()) };
}

fn stack_bytes_from_env() -> usize {
    std::env::var("FLEXIO_SIM_STACK_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(DEFAULT_STACK_BYTES)
}

/// True when the calling code is a fiber of a scheduler driving `world`.
pub(crate) fn scheduler_active_for(world: &World) -> bool {
    let el = ACTIVE.with(|a| a.get());
    // SAFETY: a non-null ACTIVE points at the Sched owned by the run
    // frame further up this same thread's (host) stack.
    !el.is_null() && std::ptr::eq(unsafe { (*el).world }, world)
}

/// True when the calling code is the one rank fiber a scheduler driving
/// `world` has dispatched, and no teardown is under way: the only time
/// peer fibers of a pool run concurrently is the forced unwind, when each
/// shard resumes its own fibers to run their destructors. This is the
/// guard on the world's lock-free runner-owned state (the landing
/// boards).
pub(crate) fn is_exclusive_runner(world: &World) -> bool {
    let el = ACTIVE.with(|a| a.get());
    // SAFETY: as in `scheduler_active_for`.
    !el.is_null() && unsafe { std::ptr::eq((*el).world, world) && !(*el).unwinding }
}

/// The scheduler driving `world` on this thread.
fn active_for(world: &World) -> *mut Sched {
    let el = ACTIVE.with(|a| a.get());
    assert!(
        !el.is_null() && std::ptr::eq(unsafe { (*el).world }, world),
        "park outside the owning scheduler"
    );
    el
}

impl Sched {
    /// Record that rank `dst` — the one running — now waits for a message
    /// for `(src, tag)`, `now` being its wake-up priority, and push the
    /// park's timer if it has a deadline. Returns the rank's local index.
    fn note_park(&mut self, dst: usize, src: usize, tag: u64, now: u64, deadline: Option<u64>) -> usize {
        debug_assert_eq!(self.current, dst, "a rank may only take from its own mailbox");
        let li = dst - self.lo;
        self.park_seq[li] += 1;
        let gen = self.park_seq[li];
        self.waiting[li] = Some(ParkedRecv { src, tag, clock: now, gen });
        if self.shared.is_some() {
            self.dirty.push(dst);
        }
        if let Some(d) = deadline {
            assert!(gen < WAKE_ENTRY, "rank {dst} parked 2^{KIND_BITS} times");
            self.push_ready(Key::new(d.max(now), dst, gen));
        }
        li
    }

    fn push_ready(&mut self, key: Key) {
        self.counters.heap_pushes += 1;
        self.ready.push(Reverse(key));
    }
}

/// Park the current rank until a message for `(src, tag)` is delivered,
/// or — when `deadline` (absolute virtual ns) is given — until that much
/// virtual time passes with no delivery. Called by `World::take`/
/// `take_deadline` after finding the queue empty; `now` is the rank's
/// virtual clock, which becomes its wake-up priority. The deadline is a
/// heap timer entry ordered with every other wake-up, so timeouts are as
/// deterministic as deliveries.
pub(crate) fn park_for_recv(
    world: &World,
    dst: usize,
    src: usize,
    tag: u64,
    now: u64,
    deadline: Option<u64>,
) -> ParkWake {
    let el = active_for(world);
    // SAFETY: the owning host thread; no other code touches this Sched
    // between here and the switch (borrows end before switching).
    let (my, host, li) = unsafe {
        let el = &mut *el;
        if el.unwinding {
            // A destructor receiving during forced unwind: re-raise
            // rather than parking a fiber nobody will ever wake.
            panic_any(ForcedUnwind);
        }
        let li = el.note_park(dst, src, tag, now, deadline);
        (&mut el.slots[li].ctx as *mut Context, &el.host_ctx as *const Context, li)
    };
    // SAFETY: host_ctx holds the scheduler context that switched us in.
    unsafe { switch_stacks(my, host) };
    // Resumed: a matching message was handed off, the deadline fired, or
    // the world is being torn down and this fiber must unwind.
    // SAFETY: as above; the loop that resumed us is in `switch_stacks`.
    let el = unsafe { &mut *el };
    if el.unwinding {
        panic_any(ForcedUnwind);
    }
    if el.timed_out[li] {
        el.timed_out[li] = false;
        return ParkWake::TimedOut;
    }
    match el.handoff[li].take() {
        Some(m) => ParkWake::Delivered(m),
        None => ParkWake::Spurious,
    }
}

/// The park of a dense round's step: exactly [`park_for_recv`]'s
/// bookkeeping — the `waiting` entry a delivery matches and the deadlock
/// report prints, at the same clock — and no switch. Whoever is stepping
/// the round (`rank::step_round`: the rank's fiber in its first segment,
/// the scheduler afterwards) returns to its caller instead.
pub(crate) fn park_round(world: &World, dst: usize, src: usize, tag: u64, now: u64) {
    // SAFETY: the owning host thread, short borrow, no switch inside.
    unsafe { (*active_for(world)).note_park(dst, src, tag, now, None) };
}

/// Put rank `r`'s fiber to sleep until its round's cursor — parked by
/// [`park_round`] a moment ago — has taken its last step: every wake of
/// the rank in between is the scheduler's to act on ([`run_segment`]).
pub(crate) fn sleep_in_round(world: &World, r: usize) {
    let el = active_for(world);
    // SAFETY: as in `park_for_recv`.
    let (my, host, li) = unsafe {
        let el = &mut *el;
        let li = r - el.lo;
        debug_assert!(el.current == r && el.waiting[li].is_some(), "only a parked round sleeps");
        el.slots[li].in_round = true;
        (&mut el.slots[li].ctx as *mut Context, &el.host_ctx as *const Context, li)
    };
    // SAFETY: host_ctx holds the scheduler context that switched us in.
    unsafe { switch_stacks(my, host) };
    // SAFETY: as above.
    let el = unsafe { &mut *el };
    if el.unwinding {
        panic_any(ForcedUnwind);
    }
    debug_assert!(!el.slots[li].in_round, "rank {r} woken inside its round");
}

/// Delivery fast path: if `dst` is parked on exactly `(src, tag)`, hand
/// the message straight to it and mark it runnable at its park-time
/// clock. Same-shard receivers take the lock-free direct slot; receivers
/// on other shards go through the gate's park mirror and inbox (their
/// park state belongs to another host thread — the direct slot would be
/// a data race). Returns the message back when no such receiver is
/// parked (or no scheduler drives `world`); the caller then queues it.
pub(crate) fn try_handoff(world: &World, dst: usize, src: usize, tag: u64, msg: Msg) -> Option<Msg> {
    let el = ACTIVE.with(|a| a.get());
    if el.is_null() || !std::ptr::eq(unsafe { (*el).world }, world) {
        return Some(msg);
    }
    // SAFETY: the owning host thread, short borrow, no switch inside.
    let el = unsafe { &mut *el };
    if dst >= el.lo && dst < el.lo + el.slots.len() {
        if let Some(w) = el.waiting[dst - el.lo] {
            if w.src == src && w.tag == tag {
                el.waiting[dst - el.lo] = None;
                el.handoff[dst - el.lo] = Some(msg);
                el.push_ready(Key::new(w.clock, dst, WAKE_ENTRY));
                if el.shared.is_some() {
                    el.dirty.push(dst);
                }
                return None;
            }
        }
        return Some(msg);
    }
    cross_shard_handoff(el, dst, src, tag, msg)
}

/// The cross-shard half of [`try_handoff`]: match `dst` against the park
/// mirror under the gate; on a hit, consume the mirror entry, queue the
/// delivery in the target shard's inbox, and lower the target's published
/// min so the global argmin already sees the wake (the target's own heap
/// learns of it when it drains the inbox at its next gate entry).
fn cross_shard_handoff(el: &Sched, dst: usize, src: usize, tag: u64, msg: Msg) -> Option<Msg> {
    let sh = el.shared.as_ref().expect("cross-shard delivery without a pool");
    let target = sh.shard_of(dst);
    debug_assert_ne!(target, el.shard, "local rank routed to the cross-shard path");
    let mut g = sh.gate.lock().unwrap();
    if let Some(w) = g.parked[dst] {
        if w.src == src && w.tag == tag {
            g.parked[dst] = None;
            let key = Key::new(w.clock, dst, WAKE_ENTRY);
            g.inboxes[target].push(InboxDelivery { dst, clock: w.clock, msg });
            if g.mins[target].is_none_or(|k| key < k) {
                g.mins[target] = Some(key);
            }
            return None;
        }
    }
    Some(msg)
}

/// Resume every live local fiber so it unwinds (running destructors) and
/// marks itself done. Park points re-raise `ForcedUnwind`; never-started
/// fibers skip their body. Requires ACTIVE to still point at `el`.
unsafe fn force_unwind_local(el: *mut Sched) {
    let count = unsafe {
        (*el).unwinding = true;
        (*el).slots.len()
    };
    for li in 0..count {
        // Scoped borrow: must end before the switch hands control to a
        // fiber that will re-borrow the scheduler from its own park point.
        let (host, fctx) = {
            // SAFETY: caller guarantees `el` outlives every fiber.
            let el = unsafe { &mut *el };
            if el.slots[li].done {
                continue;
            }
            el.current = el.lo + li;
            (&mut el.host_ctx as *mut Context, &el.slots[li].ctx as *const Context)
        };
        // SAFETY: fctx is a live suspended fiber (not done).
        unsafe { switch_stacks(host, fctx) };
        // SAFETY: host thread again; the fiber is parked or done.
        debug_assert!(
            unsafe { (&(*el).slots)[li].done },
            "forced unwind left local slot {li} live"
        );
    }
}

/// A per-rank result slot writable from the owning shard's host thread.
struct ResultCell<R>(UnsafeCell<Option<R>>);

// SAFETY: each cell is written by exactly one shard host thread (its
// rank's owner) and read only after the pool joins.
unsafe impl<R: Send> Sync for ResultCell<R> {}

/// Drive all ranks of `world` to completion on the calling thread and
/// return their results in rank order. Panics in any rank propagate.
/// Crash-stopped ranks would come back `None`; use
/// [`run_event_loop_partial`] for worlds that schedule crashes.
pub(crate) fn run_event_loop<R, F>(world: Arc<World>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    run_event_loop_partial(world, f)
        .into_iter()
        .map(|r| r.expect("rank finished without a result"))
        .collect()
}

/// [`run_event_loop`] tolerating crash-stopped ranks: their slots come
/// back `None`, survivors `Some`.
pub(crate) fn run_event_loop_partial<R, F>(world: Arc<World>, f: F) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    let nprocs = world.nprocs();
    let stack_bytes = stack_bytes_from_env();
    let results: Vec<ResultCell<R>> = (0..nprocs).map(|_| ResultCell(UnsafeCell::new(None))).collect();
    // SAFETY: shard_main's contract — `results` outlives the call, and
    // ranks 0..nprocs are driven to completion (or unwound) inside it.
    let leftover = unsafe { shard_main(world, 0, 0, nprocs, None, &f, &results, stack_bytes) };
    if let Some(p) = leftover {
        drop(results);
        resume_unwind(p);
    }
    results.into_iter().map(|c| c.0.into_inner()).collect()
}

/// [`run_pool_partial`] for crash-free worlds.
pub(crate) fn run_pool<R, F>(world: Arc<World>, shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    run_pool_partial(world, shards, None, f)
        .into_iter()
        .map(|r| r.expect("rank finished without a result"))
        .collect()
}

/// Drive `world` on a sharded pool of `shards` host threads (clamped to
/// `1..=nprocs`; shard 0 runs on the calling thread) and return per-rank
/// results, `None` for crash-stopped ranks. Bit-identical to the
/// sequential [`run_event_loop_partial`] regardless of shard count or
/// host-thread interleaving. `jitter` — `(seed, max_ns)` — staggers the
/// spawned shard threads' startup pseudo-randomly, a determinism-harness
/// hook that widens the interleavings an OS scheduler would explore.
pub(crate) fn run_pool_partial<R, F>(
    world: Arc<World>,
    shards: usize,
    jitter: Option<(u64, u64)>,
    f: F,
) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    let nprocs = world.nprocs();
    let k = shards.max(1).min(nprocs);
    let stack_bytes = stack_bytes_from_env();
    let base = nprocs / k;
    let extra = nprocs % k;
    let starts: Vec<usize> = (0..=k).map(|s| s * base + s.min(extra)).collect();
    let results: Vec<ResultCell<R>> = (0..nprocs).map(|_| ResultCell(UnsafeCell::new(None))).collect();
    let shared = Arc::new(ShardShared {
        base,
        extra,
        gate: Mutex::new(Gate {
            // Pre-seeded so the argmin is right even before a late-
            // starting shard's first gate entry (jitter must not be able
            // to reorder anything).
            mins: (0..k).map(|s| Some(Key::new(0, starts[s], WAKE_ENTRY))).collect(),
            inboxes: (0..k).map(|_| Vec::new()).collect(),
            running: None,
            parked: vec![None; nprocs],
            live: nprocs,
            crashed: 0,
            unwinding: false,
            deadlock: None,
            panic_payload: None,
        }),
        cvs: (0..k).map(|_| Condvar::new()).collect(),
        fiber_switches: AtomicU64::new(0),
        heap_pushes: AtomicU64::new(0),
    });
    let pool_done = AtomicBool::new(false);
    let join_err = std::thread::scope(|s| {
        if jitter.is_some() {
            // The jitter harness also hammers every shard condvar with
            // unrequested notifies for the whole run: `Condvar::wait`
            // permits spurious wakeups, but the OS produces them too
            // rarely to test against — this makes every wait see them
            // routinely, so a dispatch path that trusts a wakeup (instead
            // of re-checking the gate's running fence) fails in the
            // determinism suite instead of once a year in production.
            let shared = &shared;
            let pool_done = &pool_done;
            s.spawn(move || {
                while !pool_done.load(Ordering::Relaxed) {
                    for c in &shared.cvs {
                        c.notify_all();
                    }
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
            });
        }
        let handles: Vec<_> = (1..k)
            .map(|shard| {
                let world = Arc::clone(&world);
                let shared = Arc::clone(&shared);
                let f = &f;
                let results = &results[..];
                let (lo, hi) = (starts[shard], starts[shard + 1]);
                s.spawn(move || {
                    if let Some((seed, max_ns)) = jitter {
                        jitter_sleep(seed, shard, max_ns);
                    }
                    // SAFETY: this shard exclusively owns ranks lo..hi and
                    // their result cells; the scope keeps `results`/`f`
                    // alive past every fiber.
                    let p = unsafe {
                        shard_main(world, shard, lo, hi - lo, Some(shared), f, results, stack_bytes)
                    };
                    debug_assert!(p.is_none(), "pool shards surface panics via the gate");
                })
            })
            .collect();
        // Shard 0 runs on the calling thread, like the sequential loop.
        // SAFETY: as above, for ranks 0..starts[1].
        let p = unsafe {
            shard_main(
                Arc::clone(&world),
                0,
                0,
                starts[1],
                Some(Arc::clone(&shared)),
                &f,
                &results,
                stack_bytes,
            )
        };
        debug_assert!(p.is_none(), "pool shards surface panics via the gate");
        // Collect join failures instead of panicking on the first one:
        // a shard thread that died outside the pool protocol (e.g. on a
        // gate poisoned by an earlier panic) must not mask the original
        // rank panic or deadlock diagnostics recorded in the gate.
        let mut join_err: Option<Box<dyn Any + Send>> = None;
        for h in handles {
            if let Err(e) = h.join() {
                join_err.get_or_insert(e);
            }
        }
        pool_done.store(true, Ordering::Relaxed);
        join_err
    });
    // A thread that panicked while holding the gate poisons it; the
    // diagnostics inside are still the best report available.
    let mut g = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(d) = g.deadlock.take() {
        drop(g);
        panic!("flexio-sim event loop deadlock: {d}");
    }
    if let Some(p) = g.panic_payload.take() {
        drop(g);
        drop(results);
        resume_unwind(p);
    }
    drop(g);
    if let Some(e) = join_err {
        drop(results);
        resume_unwind(e);
    }
    LAST_RUN.with(|c| {
        c.set(SchedCounters {
            fiber_switches: shared.fiber_switches.load(Ordering::Relaxed),
            heap_pushes: shared.heap_pushes.load(Ordering::Relaxed),
        })
    });
    results.into_iter().map(|c| c.0.into_inner()).collect()
}

/// Deterministic per-shard startup stagger (splitmix64 of `seed ^ shard`):
/// perturbs host scheduling without perturbing the simulation.
fn jitter_sleep(seed: u64, shard: usize, max_ns: u64) {
    let mut x = seed ^ (shard as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    std::thread::sleep(std::time::Duration::from_nanos(x % max_ns.max(1)));
}

/// Build one shard's scheduler (fiber slots for ranks `lo..lo+count`) at a
/// stable address, run the matching driver, and clean up thread-local
/// state. Returns any leftover panic payload (solo driver only; the pool
/// surfaces panics through the gate).
///
/// # Safety
/// `results` must cover the full world, outlive the call, and have each
/// cell written by at most this shard (ranks `lo..lo+count`). The caller
/// must be prepared for a panic (solo deadlock / stack-canary failure).
#[allow(clippy::too_many_arguments)]
unsafe fn shard_main<R, F>(
    world: Arc<World>,
    shard: usize,
    lo: usize,
    count: usize,
    shared: Option<Arc<ShardShared>>,
    f: &F,
    results: &[ResultCell<R>],
    stack_bytes: usize,
) -> Option<Box<dyn Any + Send>>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    // Fresh per-rank flatten caches, like the fresh host threads the pool
    // spawns (shard 0 and the solo driver reuse the caller's thread, so
    // reset explicitly; per-rank scoping keeps hit/miss counts identical
    // across shard layouts).
    flexio_types::flatten::reset_flatten_cache();
    assert!(world.nprocs() <= 1 << (64 - KIND_BITS), "a world holds at most 2^24 ranks");
    let mut el = Sched {
        world: Arc::as_ptr(&world),
        nprocs: world.nprocs(),
        shard,
        lo,
        stack_bytes,
        current: lo,
        live: count,
        unwinding: false,
        panic_payload: None,
        ready: BinaryHeap::with_capacity(count),
        waiting: vec![None; count],
        park_seq: vec![0; count],
        timed_out: vec![false; count],
        crashed: 0,
        crashed_delta: 0,
        finished_delta: 0,
        dirty: Vec::new(),
        handoff: (0..count).map(|_| None).collect(),
        slots: Vec::with_capacity(count),
        stacks: StackArena::new(count, stack_bytes),
        host_ctx: Context::null(),
        shared,
        counters: SchedCounters::default(),
    };
    for li in 0..count {
        el.slots.push(FiberSlot {
            stack: el.stacks.stack(li),
            ctx: Context::null(),
            payload: Box::new(Payload {
                run: None,
                final_ctx: (std::ptr::null_mut(), std::ptr::null()),
            }),
            done: false,
            in_round: false,
        });
    }
    // From here on `el` must not move: fibers hold raw pointers into it.
    let el_ptr: *mut Sched = &mut el;
    for li in 0..count {
        let r = lo + li;
        let world = Arc::clone(&world);
        let res_ptr = results[r].0.get();
        let body = move || {
            // SAFETY: this closure only ever runs on this shard's host
            // thread, inside the `shard_main` frame that owns `el`.
            let should_run = unsafe { !(*el_ptr).unwinding };
            if should_run {
                let reap_world = Arc::clone(&world);
                let rank = Rank::new(world, r);
                match catch_unwind(AssertUnwindSafe(|| f(&rank))) {
                    // SAFETY: res_ptr is this rank's exclusive slot.
                    Ok(v) => unsafe { *res_ptr = Some(v) },
                    Err(p) => unsafe {
                        let el = &mut *el_ptr;
                        if p.is::<crate::world::CrashStop>() {
                            // Crash-stop: the rank is gone, the world goes
                            // on. Reap its mailbox, park state, and any
                            // pending handoff so no scheduler structure —
                            // deadlock reports included — ever lists it
                            // again. Its result slot stays `None`.
                            el.crashed += 1;
                            el.crashed_delta += 1;
                            el.waiting[li] = None;
                            el.handoff[li] = None;
                            if el.shared.is_some() {
                                el.dirty.push(r);
                            }
                            reap_world.reap_rank(r);
                        } else if !p.is::<ForcedUnwind>() && el.panic_payload.is_none() {
                            el.panic_payload = Some(p);
                        }
                    },
                }
            }
            // SAFETY: exclusive access (owning host thread, no switch).
            unsafe {
                let el = &mut *el_ptr;
                el.slots[li].done = true;
                el.live -= 1;
                el.finished_delta += 1;
            }
        };
        // Erase the borrow of `f`/`results`: the fibers are all driven to
        // completion (or force-unwound) before this frame returns, so the
        // 'static lifetime is never actually relied upon past it.
        let body: Box<dyn FnOnce()> = Box::new(body);
        let body: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(body) };
        let slot = &mut el.slots[li];
        slot.payload.run = Some(body);
        slot.payload.final_ctx = (&mut slot.ctx as *mut Context, &el.host_ctx as *const Context);
        slot.ctx = prepare(&slot.stack, &mut *slot.payload as *mut Payload);
        el.push_ready(Key::new(0, r, WAKE_ENTRY));
    }

    // Nested `run` calls (a rank driving an inner world) save and restore
    // the outer scheduler around their own.
    let prev_active = ACTIVE.with(|a| a.replace(el_ptr));
    if el.shared.is_some() {
        // SAFETY: el is pinned for the drive; fibers are local.
        unsafe { drive_gated(el_ptr) };
    } else if let Err(diag) = unsafe { drive_solo(el_ptr) } {
        ACTIVE.with(|a| a.set(prev_active));
        flexio_types::flatten::set_flatten_scope(0);
        flexio_types::flatten::reset_flatten_cache();
        panic!("flexio-sim event loop deadlock: {diag}");
    }
    ACTIVE.with(|a| a.set(prev_active));
    // Leave the host thread's flatten cache as cold as we found our own:
    // scope 0 restored for direct (non-simulated) callers.
    flexio_types::flatten::set_flatten_scope(0);
    flexio_types::flatten::reset_flatten_cache();
    match &el.shared {
        // Statistics only: the pool reads the sums after joining.
        Some(sh) => {
            sh.fiber_switches.fetch_add(el.counters.fiber_switches, Ordering::Relaxed);
            sh.heap_pushes.fetch_add(el.counters.heap_pushes, Ordering::Relaxed);
        }
        None => LAST_RUN.with(|c| c.set(el.counters)),
    }
    el.panic_payload.take()
}

/// Run the segment a popped key of rank `r` stands for — the one hook
/// both drivers dispatch through. A rank asleep in a dense round has its
/// cursor advanced right here, on the scheduler's stack
/// ([`crate::rank::step_round`], the function its fiber entered the
/// round through): what the fiber would have done between this wake and
/// its next park — take the message, send the next step's, look for the
/// one after — minus the two stack switches around it. Only when the
/// cursor has taken its last step, or the rank is not in a round at all,
/// is the fiber switched to. Returns whether the rank's stack canary is
/// intact — read only after the fiber ran: nothing else can have touched
/// it, and its cache line is as cold as any in the world.
///
/// # Safety
/// `el_ptr` is the pinned scheduler of the calling thread, no borrow of
/// it is live, and `r` is a live rank of it that is not parked.
unsafe fn run_segment(el_ptr: *mut Sched, r: usize) -> bool {
    // SAFETY (here and below): scoped borrows on the owning thread that
    // end before anything that re-borrows the scheduler runs.
    let (world, li, woke) = unsafe {
        let el = &mut *el_ptr;
        let li = r - el.lo;
        el.current = r;
        let woke = el.slots[li]
            .in_round
            .then(|| el.handoff[li].take().expect("a round's wake carries its message's time").avail_at);
        (el.world, li, woke)
    };
    // SAFETY: `shard_main` holds the world for the whole drive.
    let world = unsafe { &*world };
    if let Some(avail_at) = woke {
        if !crate::rank::step_round(world, r, Some(avail_at)) {
            return true;
        }
        unsafe { (&mut (*el_ptr).slots)[li].in_round = false };
    }
    debug_assert!(
        world.cursor(r).as_ref().is_none_or(crate::rank::Cursor::is_done),
        "rank {r} resumed with a half-stepped round"
    );
    let (host, fctx) = unsafe {
        let el = &mut *el_ptr;
        el.counters.fiber_switches += 1;
        (&mut el.host_ctx as *mut Context, &el.slots[li].ctx as *const Context)
    };
    flexio_types::flatten::set_flatten_scope(r as u64);
    // SAFETY: fctx is a live suspended (or fresh) fiber context.
    unsafe { switch_stacks(host, fctx) };
    unsafe { (&(*el_ptr).slots)[li].stack.canary_ok() }
}

/// The sequential driver: repeatedly pop the lowest key of the one global
/// heap and run that segment. Returns the deadlock diagnostics (fibers
/// already unwound) instead of panicking so `shard_main` can clean up
/// thread-locals first.
unsafe fn drive_solo(el_ptr: *mut Sched) -> Result<(), String> {
    loop {
        // SAFETY (this block and below): all Sched access happens on this
        // thread in scopes that end before any context switch.
        let next = unsafe {
            let el = &mut *el_ptr;
            if el.live == 0 {
                break;
            }
            el.ready.pop()
        };
        let Some((_clock, r, kind)) = next.map(|Reverse(k)| k.parts()) else {
            // Live ranks but nothing runnable: every one of them is parked
            // on a receive no one will ever send. Report and unwind.
            let diag = unsafe {
                let el = &*el_ptr;
                deadlock_message(&el.waiting, el.live, el.nprocs, el.crashed)
            };
            unsafe { force_unwind_local(el_ptr) };
            return Err(diag);
        };
        // Scoped borrow; must end before the segment runs.
        {
            let el = unsafe { &mut *el_ptr };
            if el.slots[r].done {
                continue;
            }
            if kind != WAKE_ENTRY {
                // A park timer. It fires only if the rank is still in the
                // very park that set it (same generation); a handoff that
                // beat the deadline — or any later park, a dense round's
                // included — makes it stale.
                match el.waiting[r] {
                    Some(w) if w.gen == kind => {
                        el.waiting[r] = None;
                        el.timed_out[r] = true;
                    }
                    _ => continue,
                }
            } else {
                debug_assert!(el.waiting[r].is_none(), "wake entry for a parked rank");
            }
        }
        // SAFETY: rank `r` is live and the popped key is its to run.
        let canary_ok = unsafe { run_segment(el_ptr, r) };
        let need_unwind = unsafe {
            let el = &mut *el_ptr;
            assert!(
                canary_ok,
                "rank {r} overflowed its {}-byte fiber stack (raise FLEXIO_SIM_STACK_KB)",
                el.stack_bytes
            );
            el.panic_payload.is_some() && !el.unwinding
        };
        if need_unwind {
            // SAFETY: all fibers are parked; `el` outlives them.
            unsafe { force_unwind_local(el_ptr) };
        }
    }
    Ok(())
}

/// The pool driver for one shard: drain the inbox, publish the local
/// heap's head at the gate, and dispatch only while holding the global
/// minimum — the exact key the sequential loop would pop next. Everything
/// segment-local (park bookkeeping, handoffs, crash reaping) happens
/// lock-free between gate visits and is folded back in at baton release.
unsafe fn drive_gated(el_ptr: *mut Sched) {
    // SAFETY: el_ptr is pinned by shard_main for the whole drive; every
    // deref in here happens on the owning host thread in scopes that end
    // before a context switch or a condvar wait.
    let sh = unsafe { Arc::clone((*el_ptr).shared.as_ref().expect("gated drive without a pool")) };
    let me = unsafe { (*el_ptr).shard };
    let mut g = sh.gate.lock().unwrap();
    loop {
        // Fold the last segment's effects into the gate: republish park
        // mirrors, live/crash counts, and any rank panic.
        {
            let el = unsafe { &mut *el_ptr };
            for &r in &el.dirty {
                g.parked[r] = el.waiting[r - el.lo];
            }
            el.dirty.clear();
            g.live -= el.finished_delta;
            el.finished_delta = 0;
            g.crashed += el.crashed_delta;
            el.crashed_delta = 0;
            if let Some(p) = el.panic_payload.take() {
                if g.panic_payload.is_none() {
                    g.panic_payload = Some(p);
                }
                if !g.unwinding {
                    g.unwinding = true;
                    for c in &sh.cvs {
                        c.notify_all();
                    }
                }
            }
        }
        if g.unwinding {
            // Teardown: every shard unwinds its own fibers (destructors
            // run), then reports any destructor panic and leaves.
            drop(g);
            unsafe { force_unwind_local(el_ptr) };
            let p = unsafe { (*el_ptr).panic_payload.take() };
            if let Some(p) = p {
                let mut g = sh.gate.lock().unwrap();
                if g.panic_payload.is_none() {
                    g.panic_payload = Some(p);
                }
            }
            return;
        }
        // Complete pending cross-shard handoffs: the sender already
        // consumed the park mirror; finish the local half (exactly what
        // the sequential direct handoff would have done) before
        // publishing, so the published min includes the wakes.
        {
            let el = unsafe { &mut *el_ptr };
            for d in g.inboxes[me].drain(..) {
                let li = d.dst - el.lo;
                debug_assert!(el.waiting[li].is_some(), "inbox delivery for an unparked rank");
                el.waiting[li] = None;
                el.handoff[li] = Some(d.msg);
                el.push_ready(Key::new(d.clock, d.dst, WAKE_ENTRY));
            }
            g.mins[me] = el.ready.peek().map(|&Reverse(k)| k);
        }
        if g.live == 0 {
            for c in &sh.cvs {
                c.notify_all();
            }
            return;
        }
        if let Some(owner) = g.running {
            // A segment is in flight on another shard: we were woken
            // spuriously, or by a cross-shard delivery that lowered our
            // published min below the runner's fenced key. Winning the
            // argmin now would dispatch concurrently with it; wait for
            // the runner to re-lock, clear `running`, and re-elect.
            debug_assert_ne!(owner, me, "gate re-entered while marked running");
            g = sh.cvs[me].wait(g).unwrap();
            continue;
        }
        match global_argmin(&g.mins) {
            None => {
                // Every shard idle with live ranks remaining: global
                // deadlock. All mirrors are synced (every shard publishes
                // before waiting), so the report is complete.
                if g.deadlock.is_none() {
                    let nprocs = unsafe { (*el_ptr).nprocs };
                    g.deadlock = Some(deadlock_message(&g.parked, g.live, nprocs, g.crashed));
                }
                g.unwinding = true;
                for c in &sh.cvs {
                    c.notify_all();
                }
                continue;
            }
            Some(s) if s != me => {
                // Hand the baton towards the holder of the global min and
                // sleep; re-evaluate on every wake (spurious or not).
                sh.cvs[s].notify_one();
                g = sh.cvs[me].wait(g).unwrap();
                continue;
            }
            Some(_) => {}
        }
        // Our turn: the head of our heap is the global minimum — the same
        // key the sequential loop would pop now. `g.running` fences every
        // other shard while the segment is in flight; `g.mins[me]`
        // deliberately keeps the executing key so re-election after the
        // release still sees it if it remains the minimum.
        let (_clock, r, kind) = unsafe { (*el_ptr).ready.pop().expect("published min vanished").0.parts() };
        {
            let el = unsafe { &mut *el_ptr };
            let li = r - el.lo;
            if el.slots[li].done {
                continue; // stale entry; republish and re-elect
            }
            if kind != WAKE_ENTRY {
                match el.waiting[li] {
                    Some(w) if w.gen == kind => {
                        el.waiting[li] = None;
                        el.timed_out[li] = true;
                        el.dirty.push(r);
                    }
                    _ => continue, // stale timer generation
                }
            } else {
                debug_assert!(el.waiting[li].is_none(), "wake entry for a parked rank");
            }
        }
        g.running = Some(me);
        drop(g); // user code must not run under the gate
        // SAFETY: rank `r` is live and the popped key is its to run.
        let canary_ok = unsafe { run_segment(el_ptr, r) };
        if !canary_ok {
            // Only the overflowed stack is unsafe to unwind. Retire its
            // slot so the forced unwind skips it, surface the failure
            // through the pool protocol, then unwind this shard's other
            // fibers normally (their destructors run, like the peers').
            let msg = unsafe {
                let el = &mut *el_ptr;
                el.slots[r - el.lo].done = true;
                format!(
                    "rank {r} overflowed its {}-byte fiber stack (raise FLEXIO_SIM_STACK_KB)",
                    el.stack_bytes
                )
            };
            {
                let mut g = sh.gate.lock().unwrap();
                g.running = None;
                if g.panic_payload.is_none() {
                    g.panic_payload = Some(Box::new(msg));
                }
                g.unwinding = true;
                for c in &sh.cvs {
                    c.notify_all();
                }
            }
            unsafe { force_unwind_local(el_ptr) };
            if let Some(p) = unsafe { (*el_ptr).panic_payload.take() } {
                let mut g = sh.gate.lock().unwrap();
                if g.panic_payload.is_none() {
                    g.panic_payload = Some(p);
                }
            }
            return;
        }
        g = sh.gate.lock().unwrap();
        g.running = None;
    }
}

/// Human-readable summary of who is stuck waiting on what. `waiting` is
/// indexed by global rank id (the solo driver owns every rank; the pool
/// passes the gate's park mirror).
fn deadlock_message(waiting: &[Option<ParkedRecv>], live: usize, nprocs: usize, crashed: usize) -> String {
    let mut parked: Vec<String> = waiting
        .iter()
        .enumerate()
        .filter_map(|(r, w)| {
            w.map(|w| {
                let what = crate::rank::describe_tag(w.tag);
                format!("rank {r} (clock {} ns) <- recv(src={}, {what})", w.clock, w.src)
            })
        })
        .collect();
    let shown = parked.len().min(8);
    let elided = parked.len() - shown;
    parked.truncate(shown);
    let mut s = format!("{live} of {nprocs} ranks parked with no message in flight: ");
    s.push_str(&parked.join("; "));
    if elided > 0 {
        s.push_str(&format!("; … and {elided} more"));
    }
    if crashed > 0 {
        // Dead ranks are reaped at crash time, so they never appear in
        // the parked list above — only this tally mentions them.
        s.push_str(&format!(" ({crashed} rank(s) crash-stopped earlier)"));
    }
    s
}

#[cfg(test)]
mod tests {
    use crate::cost::CostModel;
    use crate::world::{run_crashable_on, run_on, Backend};
    use crate::Phase;

    /// A workload exercising every park point: p2p, barrier, bcast,
    /// allgatherv, alltoallv, exchange, gatherv/scatterv, overlap windows.
    fn mixed_workload(r: &crate::rank::Rank) -> (u64, crate::rank::Stats, Vec<u8>) {
        let p = r.nprocs();
        let next = (r.rank() + 1) % p;
        let prev = (r.rank() + p - 1) % p;
        r.send(next, 1, &[r.rank() as u8; 32]);
        let got = r.recv(prev, 1);
        r.charge_pairs(got.len() as u64);
        r.barrier();
        let seed = r.bcast(0, if r.rank() == 0 { vec![7; 16] } else { vec![] });
        let all = r.allgatherv(&[r.rank() as u8, seed[0]]);
        let blocks: Vec<Vec<u8>> = (0..p).map(|d| vec![(r.rank() * p + d) as u8; 5]).collect();
        let x = r.alltoallv(blocks);
        let w = r.overlap_begin(r.now() + 10_000, Phase::Io);
        r.charge_memcpy(4096);
        r.overlap_complete(w);
        let g = r.gatherv(0, &x[prev]);
        let s = r.scatterv(0, if r.rank() == 0 { g } else { Vec::new() });
        let mut img: Vec<u8> = s;
        img.extend(all.into_iter().flatten());
        (r.now(), r.stats(), img)
    }

    #[test]
    fn event_loop_matches_sharded_bit_identically() {
        for p in [1, 2, 5, 8] {
            let ev1 = run_on(Backend::EventLoop, p, CostModel::default(), mixed_workload);
            let ev2 = run_on(Backend::EventLoop, p, CostModel::default(), mixed_workload);
            assert_eq!(ev1, ev2, "event loop must be deterministic (p={p})");
            for k in [1, 2, 3] {
                let sh = run_on(Backend::Sharded(k), p, CostModel::default(), mixed_workload);
                assert_eq!(ev1, sh, "sharded pool must match the event loop (p={p}, k={k})");
            }
        }
    }

    #[test]
    fn large_world_completes() {
        // O(p log p) traffic only (dissemination barrier + neighbour ring):
        // the O(p^2) collectives at this scale live in the release-mode
        // scale smoke test, not tier-1.
        let p = 2048;
        let out = run_on(Backend::EventLoop, p, CostModel::default(), |r| {
            r.send((r.rank() + 1) % p, 3, &(r.rank() as u64).to_le_bytes());
            let got = r.recv((r.rank() + p - 1) % p, 3);
            r.barrier();
            u64::from_le_bytes(got.try_into().unwrap())
        });
        for (r, &g) in out.iter().enumerate() {
            assert_eq!(g, ((r + p - 1) % p) as u64);
        }
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let got = std::panic::catch_unwind(|| {
            run_on(Backend::EventLoop, 2, CostModel::free(), |r| {
                // Both ranks receive a message nobody sends.
                let _ = r.recv((r.rank() + 1) % 2, 9);
            })
        });
        let err = got.expect_err("deadlocked world must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains("deadlock"), "unexpected message: {msg}");
        assert!(msg.contains("tag=9"), "diagnostics should name the tag: {msg}");
    }

    #[test]
    fn deadlock_reports_match_across_drivers() {
        let report = |backend, body: fn(&crate::rank::Rank)| {
            let got = std::panic::catch_unwind(|| run_on(backend, 4, CostModel::default(), body));
            let err = got.expect_err("deadlocked world must panic");
            err.downcast_ref::<String>().expect("panic carries a String").clone()
        };
        let p2p: fn(&crate::rank::Rank) = |r| {
            let _ = r.recv((r.rank() + 1) % 4, 9);
        };
        // Three ranks asleep in a ring that the fourth never joins.
        let round: fn(&crate::rank::Rank) = |r| {
            if r.rank() == 3 {
                let _ = r.recv(3, 9);
            } else {
                r.allgatherv(&[r.rank() as u8]);
                r.barrier();
            }
        };
        for body in [p2p, round] {
            let solo = report(Backend::EventLoop, body);
            for k in [1, 2, 3] {
                assert_eq!(solo, report(Backend::Sharded(k), body), "deadlock diagnostics diverge at k={k}");
            }
        }
        // The text of commit 6c2ce6c, where a rank parked in a round
        // stood on its own fiber stack.
        assert_eq!(
            report(Backend::EventLoop, round),
            "flexio-sim event loop deadlock: 4 of 4 ranks parked with no message in flight: \
             rank 0 (clock 4000 ns) <- recv(src=3, collective #0 allgatherv step 0); \
             rank 1 (clock 72010 ns) <- recv(src=0, collective #0 allgatherv step 1); \
             rank 2 (clock 140020 ns) <- recv(src=1, collective #0 allgatherv step 2); \
             rank 3 (clock 0 ns) <- recv(src=3, tag=9)"
        );
    }

    #[test]
    fn rank_panic_propagates_and_unwinds_peers() {
        for backend in [Backend::EventLoop, Backend::Sharded(2)] {
            let got = std::panic::catch_unwind(|| {
                run_on(backend, 4, CostModel::free(), |r| {
                    if r.rank() == 2 {
                        panic!("boom from rank 2");
                    }
                    // Peers park forever; they must be force-unwound, not leaked.
                    let _ = r.recv((r.rank() + 1) % 4, 1);
                })
            });
            let err = got.expect_err("rank panic must propagate");
            let msg = err.downcast_ref::<&str>().expect("original payload propagates");
            assert_eq!(*msg, "boom from rank 2");
        }
    }

    #[test]
    fn drops_run_on_abandoned_stacks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        for backend in [Backend::EventLoop, Backend::Sharded(2)] {
            DROPS.store(0, Ordering::SeqCst);
            let _ = std::panic::catch_unwind(|| {
                run_on(backend, 3, CostModel::free(), |r| {
                    let _probe = Probe;
                    // Ranks 0 and 1 run first (lower ids at clock 0) and park
                    // with a live Probe on their fiber stacks; then rank 2
                    // panics and the scheduler must unwind the parked two.
                    if r.rank() == 2 {
                        panic!("teardown");
                    }
                    let _ = r.recv(r.rank(), 5); // parks forever
                })
            });
            assert_eq!(
                DROPS.load(Ordering::SeqCst),
                3,
                "every rank's locals must be dropped, including parked fibers ({backend:?})"
            );
            // The same with a hundred peers asleep in an alltoallv, their
            // cursors stepped by the scheduler as far as they go without
            // the last rank's blocks: that rank waits a virtual
            // millisecond on a timer, then panics instead of entering.
            DROPS.store(0, Ordering::SeqCst);
            let got = std::panic::catch_unwind(|| {
                run_on(backend, 101, CostModel::default(), |r| {
                    let _probe = Probe;
                    if r.rank() == 100 {
                        let _ = r.recv_timeout(100, 5, 1_000_000);
                        panic!("teardown in a round");
                    }
                    r.alltoallv(vec![vec![r.rank() as u8]; 101]);
                })
            });
            let err = got.expect_err("rank panic must propagate");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"teardown in a round"), "the original payload");
            assert_eq!(DROPS.load(Ordering::SeqCst), 101, "sleeping fibers must unwind too ({backend:?})");
        }
    }

    #[test]
    fn nested_worlds_inside_a_fiber() {
        let out = run_on(Backend::EventLoop, 3, CostModel::free(), |r| {
            // Each rank drives its own inner world from fiber context.
            let inner = run_on(Backend::EventLoop, 2, CostModel::free(), |ir| {
                ir.allreduce_sum(ir.rank() as u64 + 1)
            });
            r.allreduce_sum(inner[0])
        });
        assert_eq!(out, vec![9, 9, 9]);
    }

    #[test]
    fn nested_worlds_inside_a_sharded_pool() {
        // Outer pool fibers each drive an inner world — including an inner
        // *pool*, whose shard 0 runs on the outer fiber's stack.
        let out = run_on(Backend::Sharded(2), 3, CostModel::free(), |r| {
            let inner = run_on(Backend::Sharded(2), 2, CostModel::free(), |ir| {
                ir.allreduce_sum(ir.rank() as u64 + 1)
            });
            r.allreduce_sum(inner[0])
        });
        assert_eq!(out, vec![9, 9, 9]);
    }

    #[test]
    fn crash_stop_survivors_complete() {
        // Rank 2 crashes at its first checkpoint; survivors re-form the
        // world as a subgroup and finish a collective. Crashed slot None.
        for backend in [Backend::EventLoop, Backend::Sharded(3)] {
            let out = run_crashable_on(backend, 4, CostModel::free(), &[(2, 0)], |r| {
                r.maybe_crash();
                let comm = r.subgroup(&[0, 1, 3]);
                comm.allreduce_sum(r.rank() as u64)
            });
            assert!(out[2].is_none(), "crashed rank must not produce a result");
            for (i, v) in out.iter().enumerate() {
                if i != 2 {
                    assert_eq!(*v, Some(4), "survivor {i} must complete the collective");
                }
            }
        }
    }

    #[test]
    fn crashed_rank_runs_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let out = crate::world::run_crashable(2, CostModel::free(), &[(1, 0)], |r| {
            let _probe = Probe;
            r.maybe_crash();
            r.rank()
        });
        assert_eq!(out, vec![Some(0), None]);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2, "crash unwind must drop locals");
    }

    #[test]
    fn recv_timeout_is_deterministic() {
        // Nothing ever arrives: the watchdog fires at exactly the
        // deadline, twice in a row — under both drivers.
        for backend in [Backend::EventLoop, Backend::Sharded(2)] {
            for _ in 0..2 {
                let out = run_crashable_on(backend, 2, CostModel::free(), &[(1, 0)], |r| {
                    r.maybe_crash();
                    let got = r.recv_timeout(1, 5, 12_345);
                    (got.is_none(), r.now())
                });
                assert_eq!(out[0], Some((true, 12_345)));
            }
        }
    }

    #[test]
    fn recv_timeout_delivers_before_deadline() {
        let out = crate::world::run_crashable(2, CostModel::free(), &[], |r| {
            if r.rank() == 1 {
                r.send(0, 5, b"hb");
                0
            } else {
                r.recv_timeout(1, 5, 1_000_000).expect("must arrive in time").len()
            }
        });
        assert_eq!(out[0], Some(2));
    }

    #[test]
    fn stale_park_timer_is_skipped() {
        // Rank 0's first timed park is satisfied long before its deadline;
        // the leftover timer entry must not disturb the second, untimed
        // park (generation check). With two shards the satisfying send is
        // a cross-shard inbox delivery.
        for backend in [Backend::EventLoop, Backend::Sharded(2)] {
            let out = run_crashable_on(backend, 2, CostModel::default(), &[], |r| {
                if r.rank() == 1 {
                    r.send(0, 1, b"fast");
                    r.advance(50_000_000); // well past rank 0's first deadline
                    r.send(0, 2, b"late");
                    Vec::new()
                } else {
                    let a = r.recv_timeout(1, 1, r.now() + 10_000_000).expect("fast msg");
                    let b = r.recv(1, 2);
                    [a, b].concat()
                }
            });
            assert_eq!(out[0].as_deref(), Some(b"fastlate".as_slice()));
            // The same timer left behind by a rank that is asleep in a
            // dense round when it pops (its peer enters 50 virtual ms
            // late): the round's park is a later generation, so the
            // timer is skipped — not taken for the wake that steps the
            // sleeper's cursor.
            let out = run_crashable_on(backend, 2, CostModel::default(), &[], |r| {
                if r.rank() == 1 {
                    r.send(0, 1, b"fast");
                    r.advance(50_000_000);
                } else {
                    r.recv_timeout(1, 1, r.now() + 10_000_000).expect("fast msg");
                }
                let got = r.alltoallv(vec![vec![r.rank() as u8; 3]; 2]);
                r.barrier();
                (got, r.now())
            });
            let late = out[1].as_ref().expect("no crash scheduled").1;
            assert!(late > 50_000_000);
            for (rank, o) in out.iter().enumerate() {
                let (got, now) = o.as_ref().expect("no crash scheduled");
                assert_eq!(got, &vec![vec![0u8; 3], vec![1u8; 3]], "rank {rank}");
                assert!(*now >= 50_000_000, "rank {rank} left the round before its peer entered");
            }
        }
    }

    #[test]
    fn deadlock_report_never_lists_crashed_ranks() {
        let got = std::panic::catch_unwind(|| {
            crate::world::run_crashable(3, CostModel::free(), &[(1, 0)], |r| {
                r.maybe_crash();
                // Ranks 0 and 2 wait on the dead rank forever: deadlock.
                let _ = r.recv(1, 9);
            })
        });
        let err = got.expect_err("deadlocked world must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains("deadlock"), "unexpected message: {msg}");
        assert!(msg.contains("crash-stopped"), "report should tally crashes: {msg}");
        assert!(
            !msg.contains("rank 1 ("),
            "dead ranks must be reaped out of the parked list: {msg}"
        );
    }

    #[test]
    fn messages_to_dead_ranks_are_dropped() {
        // The survivor eagerly sends to the dead rank; nothing leaks, the
        // world still terminates cleanly.
        for backend in [Backend::EventLoop, Backend::Sharded(2)] {
            let out = run_crashable_on(backend, 2, CostModel::free(), &[(1, 0)], |r| {
                if r.rank() == 0 {
                    r.recv_timeout(1, 7, 1_000); // let rank 1 die first
                    for _ in 0..4 {
                        r.send(1, 3, &[0; 64]);
                    }
                } else {
                    r.maybe_crash();
                }
                r.rank()
            });
            assert_eq!(out, vec![Some(0), None]);
        }
    }

    #[test]
    fn shards_env_parse_contract() {
        // from_env honours FLEXIO_SIM_SHARDS; don't mutate the process env
        // here (tests run threaded) — just check the parse contract on
        // whatever the harness set: unset/0/1 mean the sequential loop,
        // n >= 2 means an n-shard pool.
        match Backend::from_env() {
            Backend::EventLoop => {}
            Backend::Sharded(k) => assert!(k >= 2, "from_env only pools at 2+ shards"),
        }
    }

    #[test]
    fn shards_beyond_ranks_clamp() {
        // More shards than ranks: the pool clamps to one rank per shard.
        let out = run_on(Backend::Sharded(16), 3, CostModel::default(), mixed_workload);
        let ev = run_on(Backend::EventLoop, 3, CostModel::default(), mixed_workload);
        assert_eq!(out, ev);
    }
}
