//! Host-capacity scaling: ranks simulated per wall-clock second, the
//! sequential event loop vs the sharded host-thread pool (ISSUE 7/10
//! tentpole measurement).
//!
//! Unlike every fig/ablation harness, this one measures **wall time**, not
//! virtual time: the workload is identical on every backend and all of
//! them produce bit-identical virtual results, so the only thing that
//! differs is how fast the host can turn the crank.
//!
//! The main table runs a fig4-style non-contiguous collective write,
//! deliberately fine-grained (16 regions x 8 B per rank, 512 B collective
//! buffer, dense alltoallw exchange) so that host-runtime overhead —
//! park/wake, message dispatch, and under the pool the min-gate baton —
//! dominates wall time rather than simulated data volume, which every
//! backend processes identically. Weak scaling: per-rank work is constant,
//! the world grows. A second section isolates the runtime-overhead floor
//! with two microbenchmarks at 64 ranks: spawn/join (empty rank bodies)
//! and a 64-step ping-pong (park-per-message chains).
//!
//! Read the shard columns with the pool's design in mind: dispatch is
//! serialized on the global minimum key (zero model lookahead), so shards
//! parallelize scheduler state, not rank execution — on a single-core
//! host the baton hand-off is pure overhead and the ratio column reads
//! below 1.0. The `avail_cores` line records what the host could have
//! offered. See EXPERIMENTS.md E-host for the honest ceiling discussion.
//!
//! Flags: the shared `--best-of N` (best wall time of N, default 3) and
//! `--nprocs N` (restrict the main table to one row), `--full` (extend
//! the sweep to 4096 ranks and add the 7-shard column), `--check` (CI
//! sanity: one 256-rank run sequential and at 4 shards, asserts the pool
//! stays within a livelock-guard bound of sequential, prints one line,
//! exits).

use flexio_bench::Scale;
use flexio_core::{ExchangeMode, Hints, MpiFile};
use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_pfs::{Pfs, PfsConfig};
use flexio_sim::{last_run_counters, run_on, Backend, CostModel};
use flexio_types::Datatype;
use std::time::{Duration, Instant};

/// One fine-grained collective write at `nprocs` ranks on `backend`;
/// returns host wall time for the whole world (spawn, open, write,
/// close, join) and the messages the world sent. The scheduler's
/// counters for the world are [`last_run_counters`] afterwards (they are
/// a function of the workload, the same on every repetition).
fn collective_write(backend: Backend, nprocs: usize) -> (Duration, u64) {
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
    let msgs = run_on(backend, nprocs, CostModel::default(), move |rank| {
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

/// Spawn/join only: empty rank bodies. Isolates world setup/teardown —
/// for the pool that is fiber-slot setup plus shard-thread spawn.
fn spawn_join(backend: Backend, nprocs: usize) -> Duration {
    let t0 = Instant::now();
    run_on(backend, nprocs, CostModel::default(), |_rank| {});
    t0.elapsed()
}

/// 64-step neighbour ping-pong: every receive parks (the partner's send
/// happens strictly after), so this isolates the per-message
/// park/deliver/wake cost with no I/O-path work at all. Neighbour pairs
/// straddle shard boundaries, so under the pool this is also the worst
/// case for cross-shard inbox traffic.
fn ping_pong(backend: Backend, nprocs: usize) -> Duration {
    let t0 = Instant::now();
    run_on(backend, nprocs, CostModel::default(), |rank| {
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args();
    let full = args.iter().any(|a| a == "--full");
    let check = args.iter().any(|a| a == "--check");
    assert!(
        Backend::event_loop_supported(),
        "host_scale needs the fiber rank runtime (x86_64 only)"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    if check {
        // CI sanity: the pool must complete, agree with sequential, and
        // stay within a generous livelock-guard bound of it (a baton bug
        // that spins or serializes pathologically blows straight past
        // 50x; honest single-core gate overhead sits well under it).
        let (el, _) = collective_write(Backend::EventLoop, 256);
        let (sh, _) = collective_write(Backend::Sharded(4), 256);
        println!(
            "check @256 ranks: event-loop {:.0} ms, 4 shards {:.0} ms, ratio {:.2}x ({cores} core(s))",
            el.as_secs_f64() * 1e3,
            sh.as_secs_f64() * 1e3,
            el.as_secs_f64() / sh.as_secs_f64()
        );
        assert!(
            sh < el * 50,
            "4-shard pool fell outside the livelock-guard bound at 256 ranks"
        );
        return;
    }

    let rows: Vec<usize> = match scale.nprocs {
        Some(n) => vec![n],
        None if full => vec![16, 64, 256, 1024, 4096],
        None => vec![16, 64, 256, 1024],
    };
    let shard_cols: &[usize] = if full { &[2, 4, 7] } else { &[2, 4] };

    println!("# Host-capacity scaling — ranks simulated per wall-second");
    println!("# {}", scale.describe());
    println!("# avail_cores: {cores}");
    println!("# fine-grained fig4 write: 16 regions x 8 B per rank, cb 512 B,");
    println!("# alltoallw exchange, cb_nodes = nprocs/2 (weak scaling)");
    println!(
        "# columns: nprocs,backend,wall_ms,ranks_per_wall_sec,ratio_vs_event_loop,msgs,host_ns_per_msg,switches,heap_pushes"
    );
    for &nprocs in &rows {
        let (el, msgs) = best_wall(scale.best_of, || collective_write(Backend::EventLoop, nprocs));
        let c = last_run_counters();
        println!(
            "{nprocs},event-loop,{:.1},{:.1},1.00,{msgs},{:.0},{},{}",
            el.as_secs_f64() * 1e3,
            ranks_per_sec(nprocs, el),
            ns_per_msg(el, msgs),
            c.fiber_switches,
            c.heap_pushes,
        );
        for &k in shard_cols {
            let (sh, msgs) =
                best_wall(scale.best_of, || collective_write(Backend::Sharded(k), nprocs));
            let c = last_run_counters();
            println!(
                "{nprocs},shards-{k},{:.1},{:.1},{:.2},{msgs},{:.0},{},{}",
                sh.as_secs_f64() * 1e3,
                ranks_per_sec(nprocs, sh),
                el.as_secs_f64() / sh.as_secs_f64(),
                ns_per_msg(sh, msgs),
                c.fiber_switches,
                c.heap_pushes,
            );
        }
    }

    println!("\n# Runtime-overhead floor @64 ranks (no I/O-path work)");
    println!("# columns: microbench,event_loop_ms,shards2_ms,shards4_ms");
    for (name, f) in [
        ("spawn-join", spawn_join as fn(Backend, usize) -> Duration),
        ("ping-pong", ping_pong),
    ] {
        let el = best_wall(scale.best_of, || f(Backend::EventLoop, 64));
        let s2 = best_wall(scale.best_of, || f(Backend::Sharded(2), 64));
        let s4 = best_wall(scale.best_of, || f(Backend::Sharded(4), 64));
        println!(
            "{name},{:.2},{:.2},{:.2}",
            el.as_secs_f64() * 1e3,
            s2.as_secs_f64() * 1e3,
            s4.as_secs_f64() * 1e3,
        );
    }
}
