//! Host-capacity scaling: ranks simulated per wall-clock second.
//!
//! Unlike every other experiment, this one measures **wall time**, not
//! virtual time: virtual results are bit-identical run to run, so the
//! only thing that moves is how fast the host can turn the crank. Its
//! rows are therefore not golden; `--check` asserts the part of them
//! that is deterministic.

use crate::report::{row, Report};
use crate::worlds::hpio;
use crate::Args;
use flexio_core::engine::schedule::derivation_window_walks;
use flexio_core::{Engine, Hints};
use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_pfs::{Pfs, PfsConfig};
use flexio_sim::{last_run_counters, run, stack_blocks_mapped, CostModel, SchedCounters};
use flexio_workload::{FileWorld, Timing};
use std::time::{Duration, Instant};

/// Host time is noisy where virtual time is not: every wall-clock cell
/// is the fastest of this many runs.
const BEST_OF: usize = 3;

fn best_wall<T: Ord>(f: impl Fn() -> T) -> T {
    (0..BEST_OF).map(|_| f()).min().unwrap()
}

/// One fine-grained collective write at `nprocs` ranks under `engine`: host wall time
/// for the whole world (spawn, open, write, close, join), the messages it
/// sent and the offset/length pairs its ranks were charged. The
/// scheduler's counters for the world are [`last_run_counters`]
/// afterwards (a function of the workload, the same on every repetition).
fn collective_write(engine: Engine, nprocs: usize) -> (Duration, u64, u64) {
    let pfs = Pfs::new(PfsConfig::default());
    let spec = HpioSpec { region_count: 16, nprocs, ..HpioSpec::fig4(8) };
    let hints = Hints {
        cb_nodes: Some((nprocs / 2).max(1)),
        cb_buffer_size: 512,
        engine,
        ..Hints::default()
    };
    // No barrier: the world's own messages and switches are what `--check` pins.
    let untimed = FileWorld::new(&pfs, "host_scale", &hints, Timing::Untimed);
    let t0 = Instant::now();
    let s = hpio(untimed, spec, TypeStyle::Succinct, false);
    (t0.elapsed(), s.sum(|s| s.msgs_sent), s.sum(|s| s.pairs_processed))
}

/// Time one world on the host.
fn timed_world<R: Send>(
    nprocs: usize,
    body: impl Fn(&flexio_sim::Rank) -> R + Sync,
) -> (Duration, Vec<R>) {
    let t0 = Instant::now();
    let out = run(nprocs, CostModel::default(), body);
    (t0.elapsed(), out)
}

/// Spawn/join only: empty rank bodies. Isolates world setup/teardown.
fn spawn_join(nprocs: usize) -> Duration {
    timed_world(nprocs, |_rank| {}).0
}

/// 64-step neighbour ping-pong: every receive parks (the partner's send
/// happens strictly after), so this isolates the per-message
/// park/deliver/wake cost with no I/O-path work at all.
fn ping_pong(nprocs: usize) -> Duration {
    let world = timed_world(nprocs, |rank| {
        let p = rank.nprocs();
        for step in 0..64u64 {
            if rank.rank() % 2 == 0 {
                rank.send((rank.rank() + 1) % p, step, &[1u8; 8]);
                rank.recv((rank.rank() + 1) % p, step);
            } else {
                rank.recv((rank.rank() + p - 1) % p, step);
                rank.send((rank.rank() + p - 1) % p, step, &[1u8; 8]);
            }
        }
    });
    world.0
}

/// The p² floor: four dense `alltoallv` calls of empty blocks, `4 · p ·
/// (p − 1)` messages through the mailbox that carry nothing, so wall time
/// per message is what every message costs the runtime — send, hand-off
/// match or mailbox entry, take or park, fiber switch, heap push and pop
/// — and the world's spawn/join is under a hundredth of it. (An
/// `exchange` of empty lists sends nothing at all; the benchmark's
/// `sim.alltoallv_us` probe sends an 8-byte block to every peer and is
/// bound by its 262 144 allocations.)
fn round_empty(nprocs: usize) -> (Duration, u64) {
    let (wall, msgs) = timed_world(nprocs, |rank| {
        for _ in 0..4 {
            rank.alltoallv(vec![Vec::new(); rank.nprocs()]);
        }
        rank.stats().msgs_sent
    });
    (wall, msgs.iter().sum())
}

fn ms(wall: Duration) -> f64 {
    wall.as_secs_f64() * 1e3
}

/// Host ns per simulated message: the wall divided by the messages. It
/// grows with the world because messages are not what the main family's
/// wall is made of (57 552 at 1024 ranks, 4.7× the 256-rank world's, for
/// 8–10× the wall; see E-host for what the wall is).
fn ns_per_msg(wall: Duration, msgs: u64) -> f64 {
    wall.as_secs_f64() * 1e9 / msgs.max(1) as f64
}

/// What the 256-, 512- and 1024-rank flexible worlds and the 512-rank
/// ROMIO world cost their scheduler, and the pairs their ranks are
/// charged: `(engine, nprocs, msgs, counters, pairs)`. All are functions
/// of the workload alone; a change that moves one has changed the work
/// per world and has to say so here. Last moved by the log-step
/// `allgatherv`: the world's one metadata allgather is ⌈log2 p⌉ messages a rank instead
/// of a ring's p − 1 (658 944 → 595 712 and 2 630 144 → 2 373 120
/// messages; heap pushes 241 253 → 241 333 and 978 573 → 977 867 as the
/// wakes of the shorter round fall differently; fiber switches unchanged).
/// Charging sub-page direct writes with an aligned start their RMW page
/// read moved the heap pushes once more, 241 333 → 241 331 and 977 867 →
/// 977 864: the worlds' 8-byte regions are such writes. Then the
/// alltoallw exchange stopped sending a message per peer pair and sends
/// only the blocks that exist: 595 712 → 12 328 and 2 373 120 → 26 720
/// messages, and with the empty blocks gone the wakes of their parked
/// steps go too (heap pushes 241 331 → 2 263 and 977 864 → 3 901). Last,
/// the collectives became sends and receives on the mailbox, each rank
/// stepping its own on its fiber: every wake is now a switch into the
/// woken fiber, where the scheduler used to step a parked round without
/// one, so fiber switches equal heap pushes (1 693 → 2 263 and 2 856 →
/// 3 901); messages and heap pushes did not move.
///
/// `pairs` is the offset/length pairs charged to the world's ranks,
/// summed: almost all of it the flexible engine's schedule derivation,
/// charged pair by pair. The 512-rank world is `fine-512`'s shape (512
/// clients, 16 regions of 8 B each, 256 aggregators, 512 B buffer
/// cycles), so it pins that derivation's charges. The derivation that
/// walked every `(client, aggregator, cycle)` cell measured the same.
///
/// Sharing one table per `allgatherv` round, whose step messages carry
/// only their byte counts, and digesting the schedule key's wires once
/// per world moved no constant: the same messages of the same sizes park
/// and wake the same ranks, and the pairs are charged as before.
///
/// The 1024-rank world's constants were taken from a run of d09b645, the
/// commit before the derivation charged its empty cells in closed form (the
/// cursor kept between walks, within-tile skips counted by a search over
/// segment ends); that change moved none of the three worlds' numbers.
///
/// The fourth world is the ROMIO baseline at `fine-512`'s shape (512
/// ranks, 256 aggregators, 512 B buffer cycles). Its constants
/// were taken from a run of 5d71e89, the commit before the engines' cycle
/// drivers took one trait per direction and ROMIO one window splitter:
/// they pin that ROMIO's messages, wakes and charged pairs did not move.
///
/// The OST booking calendar (DESIGN "OST booking calendar") moved two
/// worlds' fiber switches and heap pushes: the 1024-rank flexible world's
/// from 11 815 to 11 803, the ROMIO world's from 104 322 to 104 324. A
/// request booked after a later arrival now finishes in an idle gap, so
/// ranks leave their I/O at other virtual times and a few receives park
/// that did not, or the other way round. No message count or pair moved,
/// and the 256- and 512-rank flexible worlds did not move at all.
///
/// Clipping a collective write's sieve pre-read at the file size its ranks
/// agreed on (DESIGN "Who moves a byte") moved the same two: the 1024-rank
/// flexible world's from 11 803 to 11 791 and the ROMIO world's from
/// 104 324 to 104 442. Every world writes a fresh file, so its aggregators'
/// pre-reads cost nothing now and they leave their I/O earlier, and
/// receives park and wake at other points. No message count or pair
/// moved, and the 256- and 512-rank flexible worlds did not move at all.
///
/// Letting `auto` write pipelines go past the stripe-width bound (DESIGN
/// "Depth selection") moved all four: the flexible worlds' from 2 263,
/// 3 901 and 11 791 to 2 513, 4 012 and 12 130, the ROMIO world's from
/// 104 442 to 104 191. Half the ranks aggregate over one stripe, so the
/// bound held every aggregator at depth 2; deeper, an aggregator leaves
/// its write cycles at other virtual times and receives park and wake at
/// other points. No message count or pair moved.
///
/// Deleting the `alltoallw` exchange flavour these worlds asked for moved
/// the flexible ones' from 2 513, 4 012 and 12 130 to 2 346, 3 880 and
/// 11 390: sends posted in aggregator order rather than MPICH's scattered
/// one park fewer receives. No message or pair moved, nor the ROMIO world.
const CHECK: [(Engine, usize, u64, SchedCounters, u64); 4] = [
    (Engine::Flexible, 256, 12_328, counters(2_346, 2_346), 491_520),
    (Engine::Flexible, 512, 26_720, counters(3_880, 3_880), 1_949_696),
    (Engine::Flexible, 1024, 57_552, counters(11_390, 11_390), 7_766_016),
    (Engine::Romio, 512, 292_848, counters(104_191, 104_191), 25_600),
];

/// Window walks the 512-rank flexible world's schedule derivation makes:
/// one per `(client, aggregator, cycle)` cell it walks. At 134 113 while
/// every cell after a client's first byte was walked, empty ones included;
/// charging the empty cells between two of a client's bytes by the run
/// left the walks of the cells that hold a piece or reach past such a
/// run. Host work alone: no pair moved.
const CHECK_WALKS_512: u64 = 15_073;

/// Fiber-stack blocks two back-to-back 512-rank flexible worlds map on a
/// fresh thread: 512 stacks of the default 1 MiB are nine 64 MiB blocks,
/// and the second world takes the blocks the first gave back.
const CHECK_BLOCKS_512: [u64; 2] = [9, 0];

const fn counters(fiber_switches: u64, heap_pushes: u64) -> SchedCounters {
    SchedCounters { fiber_switches, heap_pushes }
}

/// The main family is a fig4-style non-contiguous collective write,
/// deliberately fine-grained (16 regions x 8 B per rank, 512 B collective
/// buffer, `cb_nodes` = nprocs/2) so that host work
/// per rank, not simulated data volume, is the wall. Weak scaling: each
/// rank's data is constant, the world grows, and what every rank reads
/// of the others grows with it. As measured (E-host: each part's host
/// time without the time its ranks spent parked), at 1024 ranks about
/// two fifths of the wall are the buffer cycles' exchange and file I/O,
/// a fifth the schedule derivation (one closed-form skip per `(client,
/// aggregator)` pair, nprocs²/2 of them, and a walk per cell that holds
/// a piece), and most of the rest spawn, open and close and the
/// scheduler between segments. The metadata allgather and the schedule
/// key are a few percent together: the round shares one table and the
/// key's wires are digested once per world, where every rank used to
/// hold every block and digest every wire (a third of the wall).
///
/// Two more isolate the runtime-overhead floor: spawn/join and a 64-step
/// ping-pong at 64 ranks, and at 512 dense `alltoallv` calls of empty
/// blocks: the p² floor, the mailbox's cost per message and nothing
/// else.
///
/// `--nprocs N` restricts the main family to one row, `--full` extends
/// it to 4096 ranks, `--check` runs one 256-, one 512- and one 1024-rank
/// flexible world and one 512-rank ROMIO world and asserts the
/// scheduler's deterministic work per world and the pairs its ranks are
/// charged exactly.
pub(crate) fn host(args: &Args, r: &mut Report) {
    if args.check {
        for (engine, nprocs, want_msgs, want, want_pairs) in CHECK {
            let walks_before = derivation_window_walks();
            let (wall, msgs, pairs) = collective_write(engine, nprocs);
            let walks = derivation_window_walks() - walks_before;
            let c = last_run_counters();
            r.note(&format!(
                "check {engine:?} @{nprocs} ranks: {:.0} ms, {msgs} msgs, {} fiber switches, \
                 {} heap pushes, {pairs} pairs, {walks} window walks",
                ms(wall),
                c.fiber_switches,
                c.heap_pushes
            ));
            let moved = "the scheduler's work per world moved";
            assert_eq!((msgs, c), (want_msgs, want), "{moved}: {engine:?} at {nprocs} ranks");
            let charges = "the charged pairs moved";
            assert_eq!(pairs, want_pairs, "{charges}: {engine:?} at {nprocs} ranks");
            if (engine, nprocs) == (Engine::Flexible, 512) {
                assert_eq!(walks, CHECK_WALKS_512, "the derivation's window walks moved");
            }
        }
        // On a thread of its own, so no world before it left blocks behind.
        let blocks = std::thread::spawn(|| {
            CHECK_BLOCKS_512.map(|_| {
                let before = stack_blocks_mapped();
                collective_write(Engine::Flexible, 512);
                stack_blocks_mapped() - before
            })
        });
        let blocks = blocks.join().expect("the stack-block worlds ran");
        r.note(&format!("check Flexible @512 ranks twice: {blocks:?} fiber-stack blocks mapped"));
        assert_eq!(blocks, CHECK_BLOCKS_512, "the fiber-stack blocks a repeated world maps moved");
        return;
    }

    r.note("fine-grained fig4 write: 16 regions x 8 B per rank, cb 512 B,");
    r.note("cb_nodes = nprocs/2 (weak scaling)");
    r.section("nprocs,wall_ms:1,ranks_per_wall_sec:1,msgs,host_ns_per_msg:0,switches,heap_pushes");
    let sweep: &[usize] = if args.full { &[16, 64, 256, 1024, 4096] } else { &[16, 64, 256, 1024] };
    for &nprocs in args.nprocs.as_ref().map_or(sweep, std::slice::from_ref) {
        let (wall, msgs, _) = best_wall(|| collective_write(Engine::Flexible, nprocs));
        let c = last_run_counters();
        let per_sec = nprocs as f64 / wall.as_secs_f64();
        row!(r;
            nprocs, ms(wall), per_sec, msgs, ns_per_msg(wall, msgs),
            c.fiber_switches, c.heap_pushes,
        );
    }

    r.heading("runtime-overhead floor @64 ranks (no I/O-path work)");
    r.section("microbench,wall_ms:2");
    row!(r; "spawn-join", ms(best_wall(|| spawn_join(64))));
    row!(r; "ping-pong", ms(best_wall(|| ping_pong(64))));

    r.heading("p^2 floor @512 ranks (four alltoallv of empty blocks through the mailbox)");
    r.section("microbench,wall_ms:2,msgs,host_ns_per_msg:1");
    let (wall, msgs) = best_wall(|| round_empty(512));
    row!(r; "round-empty", ms(wall), msgs, ns_per_msg(wall, msgs));
}
