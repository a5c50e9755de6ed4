//! Host-capacity scaling: ranks simulated per wall-clock second on the
//! event loop (ISSUE 7 tentpole measurement; the sharded pool's columns
//! went with the pool in ISSUE 18 — its final table closes
//! `results/host_scale.txt`).
//!
//! Unlike every fig/ablation harness, this one measures **wall time**, not
//! virtual time: virtual results are bit-identical run to run, so the
//! only thing that moves is how fast the host can turn the crank.
//!
//! The main table runs a fig4-style non-contiguous collective write,
//! deliberately fine-grained (16 regions x 8 B per rank, 512 B collective
//! buffer, dense alltoallw exchange) so that host-runtime overhead —
//! park/wake and message dispatch — dominates wall time rather than
//! simulated data volume. Weak scaling: per-rank work is constant, the
//! world grows. A second section isolates the runtime-overhead floor
//! with two microbenchmarks at 64 ranks — spawn/join (empty rank bodies)
//! and a 64-step ping-pong (park-per-message chains) — and one at 512:
//! an `alltoallv` of empty blocks, the dense round's step loop and
//! nothing else, in host ns per message. See EXPERIMENTS.md E-host.
//!
//! Flags: the shared `--best-of N` (best wall time of N, default 3) and
//! `--nprocs N` (restrict the main table to one row), `--full` (extend
//! the sweep to 4096 ranks), `--check` (CI sanity: one 256-rank and one
//! 512-rank world, asserts the scheduler's deterministic work per world
//! — messages, fiber switches, heap pushes — exactly, prints one line
//! each, exits).

use flexio_bench::Scale;
use flexio_core::{ExchangeMode, Hints, MpiFile};
use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_pfs::{Pfs, PfsConfig};
use flexio_sim::{last_run_counters, run, Backend, CostModel, SchedCounters};
use flexio_types::Datatype;
use std::time::{Duration, Instant};

/// One fine-grained collective write at `nprocs` ranks; returns host
/// wall time for the whole world (spawn, open, write, close, join) and
/// the messages the world sent. The scheduler's counters for the world
/// are [`last_run_counters`] afterwards (they are a function of the
/// workload, the same on every repetition).
fn collective_write(nprocs: usize) -> (Duration, u64) {
    let pfs = Pfs::new(PfsConfig::default());
    let spec = HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs,
    };
    let hints = Hints {
        cb_nodes: Some((nprocs / 2).max(1)),
        cb_buffer_size: 512,
        exchange: ExchangeMode::Alltoallw,
        ..Hints::default()
    };
    let t0 = Instant::now();
    let msgs = run(nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs, "host_scale", hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let buf = spec.make_buffer(rank.rank());
        f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
        f.close().unwrap();
        rank.stats().msgs_sent
    });
    (t0.elapsed(), msgs.iter().sum())
}

/// Spawn/join only: empty rank bodies. Isolates world setup/teardown.
fn spawn_join(nprocs: usize) -> Duration {
    let t0 = Instant::now();
    run(nprocs, CostModel::default(), |_rank| {});
    t0.elapsed()
}

/// 64-step neighbour ping-pong: every receive parks (the partner's send
/// happens strictly after), so this isolates the per-message
/// park/deliver/wake cost with no I/O-path work at all.
fn ping_pong(nprocs: usize) -> Duration {
    let t0 = Instant::now();
    run(nprocs, CostModel::default(), |rank| {
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
    t0.elapsed()
}

/// Four `alltoallv` rounds of empty blocks: `4 · p · (p − 1)` messages
/// that allocate nothing and carry nothing, so wall time per message is
/// the round's step loop — send, hand-off match or board slot, take or
/// park, heap push and pop — and the world's spawn/join is under a
/// hundredth of it. (The benchmark's `sim.alltoallv_us` probe sends an
/// 8-byte block to every peer and is bound by its 262 144 allocations.)
fn round_empty(nprocs: usize) -> (Duration, u64) {
    let t0 = Instant::now();
    let msgs = run(nprocs, CostModel::default(), |rank| {
        for _ in 0..4 {
            rank.alltoallv_sparse(Vec::new(), &[]);
        }
        rank.stats().msgs_sent
    });
    (t0.elapsed(), msgs.iter().sum())
}

fn best_wall<T: Ord>(n: usize, f: impl Fn() -> T) -> T {
    (0..n.max(1)).map(|_| f()).min().unwrap()
}

/// Host ns per simulated message: the per-message trajectory the
/// superlinear rows are made of (messages grow as nprocs², see E-host).
fn ns_per_msg(wall: Duration, msgs: u64) -> f64 {
    wall.as_secs_f64() * 1e9 / msgs.max(1) as f64
}

fn ranks_per_sec(nprocs: usize, wall: Duration) -> f64 {
    nprocs as f64 / wall.as_secs_f64()
}

/// What the 256- and the 512-rank world cost their scheduler
/// (`results/host_scale.txt`, PR 16 block): `(nprocs, msgs, counters)`.
/// All three are functions of the workload alone; a change that moves
/// one has changed the scheduler's work per world and has to say so here.
const CHECK: [(usize, u64, SchedCounters); 2] = [
    (256, 658_944, SchedCounters { fiber_switches: 3_581, heap_pushes: 241_253 }),
    (512, 2_630_144, SchedCounters { fiber_switches: 7_165, heap_pushes: 978_573 }),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args();
    let full = args.iter().any(|a| a == "--full");
    let check = args.iter().any(|a| a == "--check");
    assert!(
        Backend::event_loop_supported(),
        "host_scale needs the fiber rank runtime (x86_64 only)"
    );

    if check {
        for (nprocs, want_msgs, want) in CHECK {
            let (wall, msgs) = collective_write(nprocs);
            let c = last_run_counters();
            println!(
                "check @{nprocs} ranks: {:.0} ms, {msgs} msgs, {} fiber switches, {} heap pushes",
                wall.as_secs_f64() * 1e3,
                c.fiber_switches,
                c.heap_pushes
            );
            assert_eq!((msgs, c), (want_msgs, want), "the scheduler's work per {nprocs}-rank world moved");
        }
        return;
    }

    let rows: Vec<usize> = match scale.nprocs {
        Some(n) => vec![n],
        None if full => vec![16, 64, 256, 1024, 4096],
        None => vec![16, 64, 256, 1024],
    };

    println!("# Host-capacity scaling — ranks simulated per wall-second");
    println!("# {}", scale.describe());
    println!("# fine-grained fig4 write: 16 regions x 8 B per rank, cb 512 B,");
    println!("# alltoallw exchange, cb_nodes = nprocs/2 (weak scaling)");
    println!("# columns: nprocs,wall_ms,ranks_per_wall_sec,msgs,host_ns_per_msg,switches,heap_pushes");
    for &nprocs in &rows {
        let (wall, msgs) = best_wall(scale.best_of, || collective_write(nprocs));
        let c = last_run_counters();
        println!(
            "{nprocs},{:.1},{:.1},{msgs},{:.0},{},{}",
            wall.as_secs_f64() * 1e3,
            ranks_per_sec(nprocs, wall),
            ns_per_msg(wall, msgs),
            c.fiber_switches,
            c.heap_pushes,
        );
    }

    println!("\n# Runtime-overhead floor @64 ranks (no I/O-path work)");
    println!("# columns: microbench,wall_ms");
    for (name, f) in [("spawn-join", spawn_join as fn(usize) -> Duration), ("ping-pong", ping_pong)] {
        println!("{name},{:.2}", best_wall(scale.best_of, || f(64)).as_secs_f64() * 1e3);
    }

    println!("\n# Dense-round floor @512 ranks (four alltoallv of empty blocks)");
    println!("# columns: microbench,wall_ms,msgs,host_ns_per_msg");
    let (wall, msgs) = best_wall(scale.best_of, || round_empty(512));
    println!("round-empty,{:.2},{msgs},{:.1}", wall.as_secs_f64() * 1e3, ns_per_msg(wall, msgs));
}
