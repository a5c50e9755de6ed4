//! The fiber rank runtime: every rank of a world runs as a cooperatively-
//! scheduled fiber over virtual time, all of them driven by the one host
//! thread that called [`crate::run`].
//!
//! Ranks are stackful fibers ([`crate::fiber`]) parked on their one
//! blocking primitive — a receive that found nothing waiting for its
//! `(src, tag)` ([`Segment::take`]); every collective is sends and
//! receives. A park has one outcome: a delivery hands the rank its
//! message and pushes its wake, or the park's own timer fires with
//! nothing handed. The scheduler always resumes the runnable rank with
//! the **lowest virtual clock**, rank id as tie-break, so host execution
//! order is a pure function of the workload: no OS wakeup races,
//! bit-identical clocks and counters on every run.
//!
//! Why lowest-clock-first matters: message payloads and per-rank charges
//! never depend on host order (per-`(src, tag)` queues are single-producer
//! FIFO), but operations against shared stateful resources — PFS OSTs
//! whose booking calendars never move a booked request, seeded fault
//! draws — observe the *order* in which rank segments execute.
//! Lowest-clock-first pins that order down to a pure function of the
//! workload, which is what turns "deterministic except for
//! device-queueing races" into "deterministic".
//!
//! One owner, one thread: the scheduler of a world's one drive owns
//! everything its ranks leave for each other — the ready heap, the fiber
//! slots, the shared cells, the mailbox and one record per rank
//! (`world::Peer`: park entry and generation, handed message, dead flag).
//! Between a pop of the ready heap and the next exactly one segment runs,
//! and nobody else touches any of it. A segment proves what it is once, with
//! a [`Segment`] token, and reaches all of it through the token's
//! pointer to this scheduler. There is no second driver (DESIGN.md
//! "Rank runtime", "Why there is no pool").
//!
//! Error handling: a panic in any rank force-unwinds every other live
//! fiber (their park points re-raise a private `ForcedUnwind` panic, so
//! destructors on fiber stacks run) and then propagates the original
//! payload from `run`. A world where every live rank is parked with no
//! matching message in flight is reported as a deadlock.

use crate::fiber::{prepare, switch_stacks, Context, FiberStack, Payload, StackArena};
use crate::rank::Rank;
use crate::world::{Msg, Peer, QueueMap, SchedCounters, SharedCells, World, LAST_RUN};
use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

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

/// A ready-heap key: `(virtual clock, rank id, kind)`, ordered in that
/// order. Packed into one integer because every pop compares its way
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

struct FiberSlot {
    stack: FiberStack,
    /// Saved context while the fiber is suspended (initially the fresh
    /// image from `fiber::prepare`).
    ctx: Context,
    /// Boxed so its address is stable for the initial register image.
    payload: Box<Payload>,
    done: bool,
}

/// The scheduler of one world, owned by the [`run_event_loop_partial`]
/// frame that drives it, and with it everything the world's ranks leave
/// for each other at run time. Both vectors are indexed by rank id.
struct Sched {
    /// Identity of the world this scheduler drives (nested `run` calls
    /// swap the active scheduler; the pointer check keeps a foreign
    /// world's primitives from parking on the wrong one).
    world: *const World,
    stack_bytes: usize,
    current: usize,
    /// Ranks still live (not finished, not crashed).
    live: usize,
    unwinding: bool,
    panic_payload: Option<Box<dyn Any + Send>>,
    /// Runnable ranks and pending park timers, ordered by `(virtual time,
    /// rank id)` ascending. The third element distinguishes wake entries
    /// (`WAKE_ENTRY`) from timer entries (the park's generation); at an
    /// equal `(time, rank)` the timer pops first and is discarded as
    /// stale if the handoff already cleared the park.
    ready: BinaryHeap<Reverse<Key>>,
    /// Each rank's record: park entry and generation, handed message,
    /// dead flag.
    peers: Vec<Peer>,
    /// Every delivered message no rank has taken yet.
    mailbox: QueueMap,
    /// The world's "compute once, share" cells.
    shared: SharedCells,
    slots: Vec<FiberSlot>,
    /// The memory behind every slot's stack.
    stacks: StackArena,
    host_ctx: Context,
    counters: SchedCounters,
}

std::thread_local! {
    /// The scheduler currently executing on this thread (null outside a
    /// `run` frame).
    static ACTIVE: Cell<*mut Sched> = const { Cell::new(std::ptr::null_mut()) };
}

/// The fiber stack size `FLEXIO_SIM_STACK_KB` asks for, in bytes: unset
/// means the default, anything but a decimal KiB count is refused — a
/// typo that fell back to the default would turn `verify.sh`'s small-
/// stack leg into a second run of the default with a green result.
fn stack_bytes(raw: Option<&str>) -> usize {
    let Some(v) = raw else { return DEFAULT_STACK_BYTES };
    v.parse::<usize>()
        .ok()
        .and_then(|kb| kb.checked_mul(1024))
        .unwrap_or_else(|| panic!("FLEXIO_SIM_STACK_KB must be a decimal KiB count, got {v:?}"))
}

/// The scheduler driving `world`, if it is this thread's active one: the
/// one ownership test, behind [`segment`].
fn active(world: &World) -> Option<*mut Sched> {
    let el = ACTIVE.with(|a| a.get());
    // SAFETY: a non-null ACTIVE points at the Sched owned by the run
    // frame further up this same thread's (host) stack.
    (!el.is_null() && std::ptr::eq(unsafe { (*el).world }, world)).then_some(el)
}

/// Proof that the code holding it is a segment of the scheduler driving
/// `world` — a rank's fiber — on the one thread that does. Everything
/// that scheduler owns (records, mailbox, shared cells, ready heap) is
/// reached through the token's pointer to it, in `Segment::sched`, and
/// in no other way. Segments run one at a time, the forced unwind of a
/// teardown included (it resumes one fiber after another), so whoever
/// holds a token is the only code touching any of it; a token held
/// across a park is as good after the resume, when its holder is the
/// running segment again. It never leaves the crate, holds a raw
/// pointer (so it is neither `Send` nor `Sync`), and is made in two
/// places: [`segment`], which tests [`active`], and the drive itself.
#[derive(Clone, Copy)]
pub(crate) struct Segment<'w> {
    world: &'w World,
    el: *mut Sched,
}

/// The token of the segment calling: every communication entry point of
/// [`Rank`] starts here, once, whatever it goes on to touch.
pub(crate) fn segment(world: &World) -> Segment<'_> {
    let el = active(world)
        .expect("communication outside the rank runtime (ranks only run inside flexio_sim::run)");
    Segment { world, el }
}

impl<'w> Segment<'w> {
    /// The world this is a segment of.
    pub(crate) fn world(self) -> &'w World {
        self.world
    }

    /// The scheduler driving this segment's world: the one path from a
    /// token to the runtime's state.
    fn sched(self) -> &'w mut Sched {
        // SAFETY: the token proves that the caller is a segment of the
        // drive that owns `*el`, on the thread that drives it (`segment`
        // checked it, once, when the segment's entry point asked for the
        // token), and segments run one at a time. No caller uses what it
        // got from here after a park, a fiber switch or its next call.
        unsafe { &mut *self.el }
    }

    /// `rank`'s record.
    pub(crate) fn peer(self, rank: usize) -> &'w mut Peer {
        &mut self.sched().peers[rank]
    }

    /// The world's undelivered messages.
    pub(crate) fn mailbox(self) -> &'w mut QueueMap {
        &mut self.sched().mailbox
    }

    /// The world's shared cells.
    pub(crate) fn shared_cells(self) -> &'w mut SharedCells {
        &mut self.sched().shared
    }

    /// Mark `dst`, whose park a delivery has just ended by handing it its
    /// message, runnable at `clock`, its park-time clock.
    pub(crate) fn wake(self, dst: usize, clock: u64) {
        self.sched().push_ready(Key::new(clock, dst, WAKE_ENTRY));
    }

    /// Park the current rank until a message for `(src, tag)` is handed
    /// to it, or — when `deadline` (absolute virtual ns) is given — until
    /// that much virtual time passes with no delivery, and return the
    /// message, or `None` for the deadline. Called by `Segment::take`
    /// after finding the queue empty; `now` is the rank's virtual clock,
    /// which becomes its wake-up priority. The deadline is a heap timer
    /// entry ordered with every other wake-up, so timeouts are as
    /// deterministic as deliveries.
    pub(crate) fn park_for_recv(
        self,
        dst: usize,
        src: usize,
        tag: u64,
        now: u64,
        deadline: Option<u64>,
    ) -> Option<Msg> {
        if self.sched().unwinding {
            // A destructor receiving during forced unwind: re-raise
            // rather than parking a fiber nobody will ever wake.
            panic_any(ForcedUnwind);
        }
        debug_assert_eq!(self.sched().current, dst, "a rank may only take from its own mailbox");
        let gen = self.peer(dst).park(src, tag, now);
        if let Some(d) = deadline {
            assert!(gen < WAKE_ENTRY, "rank {dst} parked 2^{KIND_BITS} times");
            self.sched().push_ready(Key::new(d.max(now), dst, gen));
        }
        let el = self.sched();
        let (my, host) = (&mut el.slots[dst].ctx as *mut Context, &el.host_ctx as *const Context);
        // SAFETY: host_ctx holds the scheduler context that switched us in.
        unsafe { switch_stacks(my, host) };
        if self.sched().unwinding {
            panic_any(ForcedUnwind);
        }
        // A park has one outcome. Only two things resume a parked rank:
        // the wake entry `deliver` pushes after it sets `handed`, and the
        // park's own timer, which fires only while the rank is still in
        // the park that set it (`Peer::time_out`) and hands nothing; a
        // teardown's resume panicked above. Nothing can be waiting in the
        // mailbox under the `(src, tag)` of the park that just ended
        // either: `take` looked before parking, and every delivery there
        // since was handed off. So `None` is the deadline, never a
        // spurious resume to look again after.
        self.peer(dst).handed.take()
    }
}

impl Sched {
    fn push_ready(&mut self, key: Key) {
        self.counters.heap_pushes += 1;
        self.ready.push(Reverse(key));
    }
}

/// Resume every live fiber so it unwinds (running destructors) and marks
/// itself done. Park points re-raise `ForcedUnwind`; never-started
/// fibers skip their body. Requires ACTIVE to still point at `el`.
unsafe fn force_unwind(el: *mut Sched) {
    let count = unsafe {
        (*el).unwinding = true;
        (*el).slots.len()
    };
    for r in 0..count {
        // Scoped borrow: must end before the switch hands control to a
        // fiber that will re-borrow the scheduler from its own park point.
        let (host, fctx) = {
            // SAFETY: caller guarantees `el` outlives every fiber.
            let el = unsafe { &mut *el };
            if el.slots[r].done {
                continue;
            }
            el.current = r;
            (&mut el.host_ctx as *mut Context, &el.slots[r].ctx as *const Context)
        };
        // SAFETY: fctx is a live suspended fiber (not done).
        unsafe { switch_stacks(host, fctx) };
        // SAFETY: host thread again; the fiber is parked or done.
        debug_assert!(unsafe { (&(*el).slots)[r].done }, "forced unwind left slot {r} live");
    }
}

/// Drive all ranks of `world` to completion on the calling thread — the
/// one way a world is ever driven — and return their results in rank
/// order: `Some` for ranks that finished, `None` for crash-stopped ones.
/// Panics in any rank propagate.
pub(crate) fn run_event_loop_partial<R, F>(world: Arc<World>, f: F) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    let nprocs = world.nprocs();
    assert!(nprocs <= 1 << (64 - KIND_BITS), "a world holds at most 2^24 ranks");
    let stack_kb = std::env::var_os("FLEXIO_SIM_STACK_KB");
    let stack_bytes = stack_bytes(stack_kb.as_deref().map(|v| v.to_string_lossy()).as_deref());
    // One result cell per rank, written by that rank's fiber body and
    // read once every fiber is done.
    let results: Vec<UnsafeCell<Option<R>>> = (0..nprocs).map(|_| UnsafeCell::new(None)).collect();
    let mut el = Sched {
        world: Arc::as_ptr(&world),
        stack_bytes,
        current: 0,
        live: nprocs,
        unwinding: false,
        panic_payload: None,
        ready: BinaryHeap::with_capacity(nprocs),
        peers: (0..nprocs).map(|_| Peer::default()).collect(),
        mailbox: QueueMap::default(),
        shared: SharedCells::default(),
        slots: Vec::with_capacity(nprocs),
        stacks: StackArena::new(nprocs, stack_bytes),
        host_ctx: Context::null(),
        counters: SchedCounters::default(),
    };
    for r in 0..nprocs {
        el.slots.push(FiberSlot {
            stack: el.stacks.stack(r),
            ctx: Context::null(),
            payload: Box::new(Payload {
                run: None,
                final_ctx: (std::ptr::null_mut(), std::ptr::null()),
            }),
            done: false,
        });
    }
    // From here on `el` must not move: fibers hold raw pointers into it.
    let el_ptr: *mut Sched = &mut el;
    for (r, result) in results.iter().enumerate() {
        let world = Arc::clone(&world);
        let res_ptr = result.get();
        let f = &f;
        let body = move || {
            // SAFETY: this closure only ever runs on the driving thread,
            // inside this frame, which owns `el`.
            let should_run = unsafe { !(*el_ptr).unwinding };
            if should_run {
                let reap_world = Arc::clone(&world);
                let rank = Rank::new(world, r);
                match catch_unwind(AssertUnwindSafe(|| f(&rank))) {
                    // SAFETY: res_ptr is this rank's exclusive slot.
                    Ok(v) => unsafe { *res_ptr = Some(v) },
                    // Crash-stop: the rank is gone, the world goes on.
                    // Reset its record so no scheduler structure —
                    // deadlock reports included — ever lists it again.
                    // Its result slot stays `None`.
                    Err(p) if p.is::<crate::world::CrashStop>() => {
                        segment(&reap_world).reap_rank(r)
                    }
                    Err(p) => unsafe {
                        let el = &mut *el_ptr;
                        if !p.is::<ForcedUnwind>() && el.panic_payload.is_none() {
                            el.panic_payload = Some(p);
                        }
                    },
                }
            }
            // SAFETY: exclusive access (the driving thread, no switch).
            unsafe {
                let el = &mut *el_ptr;
                el.slots[r].done = true;
                el.live -= 1;
            }
        };
        // Erase the borrow of `f`/`results`: the fibers are all driven to
        // completion (or force-unwound) before this frame returns, so the
        // 'static lifetime is never actually relied upon past it.
        let body: Box<dyn FnOnce()> = Box::new(body);
        let body: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(body) };
        let slot = &mut el.slots[r];
        slot.payload.run = Some(body);
        slot.payload.final_ctx = (&mut slot.ctx as *mut Context, &el.host_ctx as *const Context);
        slot.ctx = prepare(&slot.stack, &mut *slot.payload as *mut Payload);
        el.push_ready(Key::new(0, r, WAKE_ENTRY));
    }

    // Nested `run` calls (a rank driving an inner world) save and restore
    // the outer scheduler around their own.
    let prev_active = ACTIVE.with(|a| a.replace(el_ptr));
    // SAFETY: `el` is pinned until this frame returns, no borrow of it is
    // live, and it is this thread's active scheduler, driving `world`:
    // the drive is the segments' own segment. A stack-canary failure
    // panics out of the drive, which the caller must be prepared for.
    let seg = Segment { world: &world, el: el_ptr };
    let outcome = unsafe { drive_solo(seg) };
    // Every rank has finished: a collective message still in a mailbox is
    // a block its receiver does not list, in every profile (a world torn
    // down by a panic or a deadlock leaves messages behind by the way).
    let untaken =
        if outcome.is_ok() && el.panic_payload.is_none() { seg.untaken_collective() } else { None };
    ACTIVE.with(|a| a.set(prev_active));
    if let Err(diag) = outcome {
        panic!("flexio-sim event loop deadlock: {diag}");
    }
    LAST_RUN.with(|c| c.set(el.counters));
    if let Some(p) = el.panic_payload.take() {
        drop(results);
        resume_unwind(p);
    }
    if let Some((rank, src, tag)) = untaken {
        panic!(
            "rank {rank} ended the world with a message from rank {src} it never took ({}): \
             a collective's block its receiver does not list",
            crate::rank::describe_tag(tag)
        );
    }
    results.into_iter().map(UnsafeCell::into_inner).collect()
}

/// Switch to rank `r`'s fiber for the segment a popped key of it stands
/// for, and return whether its stack canary is intact — read only after
/// the fiber ran: nothing else can have touched it, and its cache line is
/// as cold as any in the world.
///
/// # Safety
/// `el_ptr` is the drive's pinned scheduler, the calling thread's active
/// one, no borrow of it is live, and `r` is a live rank of it that is not
/// parked.
unsafe fn run_segment(el_ptr: *mut Sched, r: usize) -> bool {
    // SAFETY (here and below): scoped borrows on the driving thread that
    // end before the fiber runs.
    let (host, fctx) = unsafe {
        let el = &mut *el_ptr;
        el.current = r;
        el.counters.fiber_switches += 1;
        (&mut el.host_ctx as *mut Context, &el.slots[r].ctx as *const Context)
    };
    // SAFETY: fctx is a live suspended (or fresh) fiber context.
    unsafe { switch_stacks(host, fctx) };
    unsafe { (&(*el_ptr).slots)[r].stack.canary_ok() }
}

/// The driver: repeatedly pop the lowest key of the heap and run that
/// segment. Returns the deadlock diagnostics (fibers already unwound)
/// instead of panicking so the caller can restore the thread's active
/// scheduler first.
///
/// # Safety
/// `seg` holds the pinned scheduler of the world it names, which is the
/// calling thread's active one, and no borrow of it is live.
unsafe fn drive_solo(seg: Segment<'_>) -> Result<(), String> {
    // Every borrow of the scheduler below ends before a segment runs.
    loop {
        let el = seg.sched();
        if el.live == 0 {
            break;
        }
        let Some((_clock, r, kind)) = el.ready.pop().map(|Reverse(k)| k.parts()) else {
            // Live ranks but nothing runnable: every one of them is parked
            // on a receive no one will ever send. Report and unwind.
            let diag = deadlock_message(seg, el.live);
            unsafe { force_unwind(seg.el) };
            return Err(diag);
        };
        if el.slots[r].done {
            continue;
        }
        if kind == WAKE_ENTRY {
            debug_assert!(el.peers[r].parked().is_none(), "wake entry for a parked rank");
        } else if !el.peers[r].time_out(kind) {
            // A stale park timer: the park that set it has ended.
            continue;
        }
        // SAFETY: rank `r` is live and the popped key is its to run.
        let canary_ok = unsafe { run_segment(seg.el, r) };
        let el = seg.sched();
        assert!(
            canary_ok,
            "rank {r} overflowed its {}-byte fiber stack (raise FLEXIO_SIM_STACK_KB)",
            el.stack_bytes
        );
        if el.panic_payload.is_some() && !el.unwinding {
            // SAFETY: all fibers are parked; `el` outlives them.
            unsafe { force_unwind(seg.el) };
        }
    }
    Ok(())
}

/// Human-readable summary of who is stuck waiting on what.
fn deadlock_message(seg: Segment<'_>, live: usize) -> String {
    let nprocs = seg.world().nprocs();
    let crashed = (0..nprocs).filter(|&r| seg.is_dead(r)).count();
    let mut parked: Vec<String> = (0..nprocs)
        .filter_map(|r| {
            seg.peer(r).parked().map(|w| {
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
    use super::stack_bytes;
    use crate::cost::CostModel;
    use crate::world::{run, run_crashable};
    use crate::Phase;

    /// A workload exercising every park point: p2p, barrier, allgatherv,
    /// alltoallv, exchange (one to many and many to one), overlap windows.
    fn mixed_workload(r: &crate::rank::Rank) -> (u64, crate::rank::Stats, Vec<u8>) {
        let p = r.nprocs();
        let next = (r.rank() + 1) % p;
        let prev = (r.rank() + p - 1) % p;
        r.send(next, 1, &[r.rank() as u8; 32]);
        let got = r.recv(prev, 1);
        r.charge_pairs(got.len() as u64);
        r.barrier();
        let everyone: Vec<usize> = if r.rank() == 0 { (0..p).collect() } else { Vec::new() };
        let seeds = everyone.iter().map(|&d| (d, vec![7; 16])).collect();
        let seed = r.exchange(seeds, &[0]).pop().expect("rank 0's seed").1;
        let all = r.allgatherv(&[r.rank() as u8, seed[0]]);
        let blocks: Vec<Vec<u8>> = (0..p).map(|d| vec![(r.rank() * p + d) as u8; 5]).collect();
        let x = r.alltoallv(blocks);
        let w = r.overlap_begin(r.now() + 10_000, Phase::Io);
        r.charge_memcpy(4096);
        r.overlap_complete(w);
        let g = r.exchange(vec![(0, x[prev].clone())], &everyone);
        let mut img: Vec<u8> = g.into_iter().flat_map(|(_, b)| b).collect();
        img.extend(all.into_iter().flatten());
        (r.now(), r.stats(), img)
    }

    #[test]
    fn runs_are_bit_identical() {
        for p in [1, 2, 5, 8] {
            let a = run(p, CostModel::default(), mixed_workload);
            let b = run(p, CostModel::default(), mixed_workload);
            assert_eq!(a, b, "the event loop must be deterministic (p={p})");
        }
    }

    #[test]
    fn stack_kb_parse_contract() {
        assert_eq!(stack_bytes(None), super::DEFAULT_STACK_BYTES);
        assert_eq!(stack_bytes(Some("64")), 64 << 10);
        for typo in ["64k", "", "-1"] {
            let err = std::panic::catch_unwind(|| stack_bytes(Some(typo)))
                .expect_err("a mistyped stack size must not fall back to the default");
            let msg = err.downcast_ref::<String>().expect("panic carries a String");
            assert!(
                msg.contains("FLEXIO_SIM_STACK_KB") && msg.contains(&format!("{typo:?}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn large_world_completes() {
        // O(p log p) traffic only (dissemination barrier + neighbour ring):
        // the O(p^2) collectives at this scale live in the release-mode
        // scale smoke test, not tier-1.
        let p = 2048;
        let out = run(p, CostModel::default(), |r| {
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
            run(2, CostModel::free(), |r| {
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
    fn deadlock_report_keeps_the_parked_fiber_text() {
        // Three ranks parked in an allgatherv that the fourth never joins.
        let got = std::panic::catch_unwind(|| {
            run(4, CostModel::default(), |r| {
                if r.rank() == 3 {
                    let _ = r.recv(3, 9);
                } else {
                    r.allgatherv(&[r.rank() as u8]);
                    r.barrier();
                }
            })
        });
        let err = got.expect_err("deadlocked world must panic");
        // Each parked rank names the collective and the step it waits at,
        // with the clock it parked at: rank 0
        // waits at step 0 for rank 3; rank 1 has its step-0 message and
        // waits at step 1 for rank 3 (two back); rank 2 waits at step 1
        // for rank 0, which never got as far as sending it.
        assert_eq!(
            err.downcast_ref::<String>().expect("panic carries a String"),
            "flexio-sim event loop deadlock: 4 of 4 ranks parked with no message in flight: \
             rank 0 (clock 4000 ns) <- recv(src=3, collective #0 allgatherv step 0); \
             rank 1 (clock 72010 ns) <- recv(src=3, collective #0 allgatherv step 1); \
             rank 2 (clock 72010 ns) <- recv(src=0, collective #0 allgatherv step 1); \
             rank 3 (clock 0 ns) <- recv(src=3, tag=9)"
        );
    }

    #[test]
    fn rank_panic_propagates_and_unwinds_peers() {
        let got = std::panic::catch_unwind(|| {
            run(4, CostModel::free(), |r| {
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
        DROPS.store(0, Ordering::SeqCst);
        let _ = std::panic::catch_unwind(|| {
            run(3, CostModel::free(), |r| {
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
            "every rank's locals must be dropped, including parked fibers"
        );
        // The same with a hundred peers parked in an alltoallv, each as
        // far as it goes without the last rank's blocks: that rank waits
        // a virtual millisecond on a timer, then panics instead of
        // entering.
        DROPS.store(0, Ordering::SeqCst);
        let got = std::panic::catch_unwind(|| {
            run(101, CostModel::default(), |r| {
                let _probe = Probe;
                if r.rank() == 100 {
                    let _ = r.recv_timeout(100, 5, 1_000_000);
                    panic!("teardown in a round");
                }
                r.alltoallv(vec![vec![r.rank() as u8]; 101]);
            })
        });
        let err = got.expect_err("rank panic must propagate");
        assert_eq!(
            err.downcast_ref::<&str>(),
            Some(&"teardown in a round"),
            "the original payload"
        );
        assert_eq!(DROPS.load(Ordering::SeqCst), 101, "parked fibers must unwind too");
    }

    /// The fiber-stack blocks of the world whose rank calls.
    fn my_worlds_blocks() -> Vec<std::ops::Range<usize>> {
        let el = super::ACTIVE.with(|a| a.get());
        // SAFETY: called from a rank, so `el` is its world's live scheduler.
        unsafe { (*el).stacks.blocks().collect() }
    }

    /// Overwrite the calling rank's stack canary, as an overflow would.
    fn overflow_my_stack() {
        let el = super::ACTIVE.with(|a| a.get());
        // SAFETY: as in `my_worlds_blocks`.
        unsafe { (&(*el).slots)[(*el).current].stack.clobber_canary() }
    }

    /// Blocks mapped by `f`, run on this thread.
    fn blocks_mapped_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = crate::stack_blocks_mapped();
        let out = f();
        (crate::stack_blocks_mapped() - before, out)
    }

    #[test]
    fn a_second_world_reuses_the_first_worlds_stack_blocks() {
        // A thread of its own, so no earlier world left blocks behind.
        std::thread::spawn(|| {
            let world =
                |p: usize| move || run(p, CostModel::free(), |_| my_worlds_blocks()).swap_remove(0);
            let (first, a) = blocks_mapped_by(world(512));
            assert!(
                first > 1 && first == a.len() as u64,
                "512 stacks take several blocks, got {first}"
            );
            let (second, b) = blocks_mapped_by(world(512));
            assert_eq!(second, 0, "the second world maps no block");
            assert_eq!(a, b, "and takes the first world's blocks, in order");
            // A world twice as large maps only what the first did not keep.
            let (larger, c) = blocks_mapped_by(world(1024));
            assert_eq!(larger, (c.len() - a.len()) as u64);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_nested_world_never_takes_a_block_its_outer_world_holds() {
        std::thread::spawn(|| {
            // Leave several blocks behind for the worlds below.
            run(300, CostModel::free(), |_| ());
            let (mapped, out) = blocks_mapped_by(|| {
                run(3, CostModel::free(), |_| {
                    let outer = my_worlds_blocks();
                    let inner = run(2, CostModel::free(), |_| my_worlds_blocks());
                    (outer, inner[0].clone())
                })
            });
            assert_eq!(mapped, 0, "kept blocks serve both");
            for (outer, inner) in out {
                for b in &inner {
                    assert!(
                        outer.iter().all(|o| o.end <= b.start || b.end <= o.start),
                        "{b:?} in {outer:?}"
                    );
                }
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn an_overflow_is_caught_on_a_reused_stack() {
        std::thread::spawn(|| {
            let world = |overflow: bool| {
                run(4, CostModel::free(), |r| {
                    if overflow && r.rank() == 2 {
                        overflow_my_stack();
                    }
                })
            };
            world(false);
            let (mapped, got) = blocks_mapped_by(|| std::panic::catch_unwind(|| world(true)));
            assert_eq!(mapped, 0, "the overflowing world runs on the first world's block");
            let err = got.expect_err("an overwritten canary must panic");
            let msg = err.downcast_ref::<String>().expect("panic carries a String");
            assert!(msg.starts_with("rank 2 overflowed its"), "{msg}");
            // The block goes back with the canary down; taking it re-arms it.
            world(false);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_worlds_inside_a_fiber() {
        let out = run(3, CostModel::free(), |r| {
            // Each rank drives its own inner world from fiber context.
            let inner = run(2, CostModel::free(), |ir| ir.allreduce_sum(ir.rank() as u64 + 1));
            r.allreduce_sum(inner[0])
        });
        assert_eq!(out, vec![9, 9, 9]);
    }

    #[test]
    fn crash_stop_survivors_complete() {
        // Rank 2 crashes at its first checkpoint; survivors re-form the
        // world as a subgroup and finish a collective. Crashed slot None.
        let out = run_crashable(4, CostModel::free(), &[(2, 0)], |r| {
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
        let out = run_crashable(2, CostModel::free(), &[(1, 0)], |r| {
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
        // deadline, twice in a row.
        for _ in 0..2 {
            let out = run_crashable(2, CostModel::free(), &[(1, 0)], |r| {
                r.maybe_crash();
                let got = r.recv_timeout(1, 5, 12_345);
                (got.is_none(), r.now())
            });
            assert_eq!(out[0], Some((true, 12_345)));
        }
    }

    #[test]
    fn recv_timeout_delivers_before_deadline() {
        let out = run_crashable(2, CostModel::free(), &[], |r| {
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
    fn a_message_that_misses_its_deadline_waits_for_the_next_receive() {
        // Rank 1 sends only after rank 0's timed park has ended, so the
        // message is not lost with the park: the next receive gets it.
        let out = run(2, CostModel::free(), |r| {
            if r.rank() == 1 {
                r.recv(0, 6);
                r.send(0, 5, b"late");
                return Vec::new();
            }
            let timed = r.recv_timeout(1, 5, 1_000_000);
            assert_eq!((timed, r.now()), (None, 1_000_000));
            r.send(1, 6, b"go");
            r.recv(1, 5)
        });
        assert_eq!(out[0], b"late");
    }

    #[test]
    fn stale_park_timer_is_skipped() {
        // Rank 0's first timed park is satisfied long before its deadline;
        // the leftover timer entry must not disturb the second, untimed
        // park (generation check).
        let out = run_crashable(2, CostModel::default(), &[], |r| {
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
        // The same timer left behind by a rank that is parked in an
        // alltoallv when it pops (its peer enters 50 virtual ms late):
        // that park is a later generation, so the timer is skipped —
        // not taken for the wake of the collective's receive.
        let out = run_crashable(2, CostModel::default(), &[], |r| {
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

    #[test]
    fn deadlock_report_never_lists_crashed_ranks() {
        let got = std::panic::catch_unwind(|| {
            run_crashable(3, CostModel::free(), &[(1, 0)], |r| {
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
        let out = run_crashable(2, CostModel::free(), &[(1, 0)], |r| {
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
