//! Per-layer metrics: counters read off the traced pair, and stand-alone
//! probes that replay the workload's own inputs into each layer's public
//! functions (no engine in between), so that a layer's host cost has a
//! number of its own.
//!
//! Probe costs are host time per unit of work (piece, run, segment,
//! request, message); each probe repeats until [`MIN_PROBE`] has passed
//! and reports the mean. Counts come from `Stats`/`PfsStats` and repeat
//! exactly.

use crate::runner::RepOut;
use crate::trace::Tracer;
use crate::workloads::{Call, Inputs, Op, Phase};
use crate::Metrics;
use flexio_core::engine::common::group_by_window;
use flexio_core::engine::{merge_pieces, ClientStream};
use flexio_core::{
    AssignCtx, ClientAccess, EvenAar, Hints, MpiFile, PersistentBlockCyclic, RealmAssigner,
};
use flexio_io::{read_scattered_nb, resolve, write_gathered_nb};
use flexio_pfs::{LockTable, Pfs, StatsSnapshot};
use flexio_sim::{run_on, Backend, CostModel, Phase as SimPhase, Rank, Stats};
use flexio_types::flatten::reset_flatten_cache;
use flexio_types::{flatten_shared, pack, Datatype, FileView, MemLayout};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long one probe keeps repeating.
const MIN_PROBE: Duration = Duration::from_millis(100);

/// Buffer cycles the `core`/`io` probes walk.
const MAX_WINDOWS: u64 = 64;

fn all_stats(rep: &RepOut) -> impl Iterator<Item = &Stats> {
    rep.phases.iter().flat_map(|p| &p.stats)
}

/// Slowest rank's ns in `phase`, summed over the repetition's worlds.
fn phase_max(rep: &RepOut, phase: SimPhase) -> f64 {
    rep.phases
        .iter()
        .map(|p| {
            p.stats
                .iter()
                .map(|s| s.phase_ns[phase as usize])
                .max()
                .unwrap_or(0)
        })
        .sum::<u64>() as f64
}

fn pfs_counters(s: &StatsSnapshot, suffix: &str, m: &mut Metrics) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut put = |name: &str, v: f64| m.put(&format!("pfs.{name}{suffix}"), v);
    put("ost_requests", s.ost_requests as f64);
    put("seeks", s.seeks as f64);
    put("seek_ratio", ratio(s.seeks, s.ost_requests));
    put("bytes_written", s.bytes_written as f64);
    put("bytes_read", s.bytes_read as f64);
    put("rmw_page_reads", s.rmw_page_reads as f64);
    put("lock_grants", s.lock_grants as f64);
    put("lock_revocations", s.lock_revocations as f64);
    put("revocation_ratio", ratio(s.lock_revocations, s.lock_grants));
    put("flush_bytes", s.flush_bytes as f64);
    put("cache_fills", s.cache_fills as f64);
    put("nb_inflight_peak", s.nb_inflight_peak as f64);
    put("faults_injected", s.faults_injected as f64);
    put("straggler_ns", s.straggler_ns as f64);
}

/// The counters of the traced pair and the host spans of rank 0.
pub fn counters(inputs: &Inputs, flex: &RepOut, romio: &RepOut, tracer: &Tracer, m: &mut Metrics) {
    let sum = |f: fn(&Stats) -> u64| all_stats(flex).map(f).sum::<u64>() as f64;
    m.put("types.flatten_cache_hits", sum(|s| s.flatten_cache_hits));
    m.put(
        "types.flatten_cache_misses",
        sum(|s| s.flatten_cache_misses),
    );
    m.put("sim.msgs_sent", sum(|s| s.msgs_sent));
    m.put("sim.bytes_sent", sum(|s| s.bytes_sent));

    pfs_counters(&flex.pfs, "", m);
    pfs_counters(&romio.pfs, ".romio", m);

    let page = inputs.pfs.page_size;
    let moved = flex.pfs.bytes_written + flex.pfs.bytes_read + flex.pfs.rmw_page_reads * page;
    let useful: u64 = inputs.phases.iter().map(Phase::bytes).sum();
    m.put("io.sieve_amplification", moved as f64 / useful as f64);
    m.put("io.retries", sum(|s| s.io_retries));

    for (rep, suffix) in [(flex, ""), (romio, ".romio")] {
        m.put(
            &format!("core.compute_ns_max{suffix}"),
            phase_max(rep, SimPhase::Compute),
        );
        m.put(
            &format!("core.comm_ns_max{suffix}"),
            phase_max(rep, SimPhase::Comm),
        );
        m.put(
            &format!("core.io_ns_max{suffix}"),
            phase_max(rep, SimPhase::Io),
        );
    }
    m.put("core.pairs_total", sum(|s| s.pairs_processed));
    m.put("core.memcpy_bytes", sum(|s| s.memcpy_bytes));
    m.put("core.bytes_copied", sum(|s| s.bytes_copied));
    m.put("core.schedule_cache_hits", sum(|s| s.schedule_cache_hits));
    m.put(
        "core.schedule_cache_misses",
        sum(|s| s.schedule_cache_misses),
    );
    m.put(
        "core.schedule_cache_patches",
        sum(|s| s.schedule_cache_patches),
    );
    m.put("core.overlap_saved_ns", sum(|s| s.overlap_saved_ns));
    m.put(
        "core.derive_overlap_saved_ns",
        sum(|s| s.derive_overlap_saved_ns),
    );
    m.put(
        "core.pipeline_depth_max",
        all_stats(flex)
            .map(|s| s.pipeline_depth_used)
            .max()
            .unwrap_or(0) as f64,
    );
    m.put("core.degraded_cycles", sum(|s| s.degraded_cycles));
    m.put("core.realms_rebalanced", sum(|s| s.realms_rebalanced));

    // Rank 0 parks inside a collective call until the world has done that
    // call's work, so its host span covers the whole world. The first call
    // of a file derives the schedule; later calls of the same world replay
    // it (timestep) or, in a new world, derive again (scan).
    let calls = tracer.durations_ns(
        "traced-flexible",
        &["core::MpiFile::write_all_at", "core::MpiFile::read_all_at"],
    );
    let first = calls.first().copied().unwrap_or(0) as f64 / 1e6;
    let rest = &calls[calls.len().min(1)..];
    let steady = if rest.is_empty() {
        first
    } else {
        rest.iter().sum::<u64>() as f64 / rest.len() as f64 / 1e6
    };
    m.put("core.call_host_ms_first", first);
    m.put("core.call_host_ms_steady", steady);

    m.put("workload.gen_ms", inputs.gen_ms);
    m.put("workload.oracle_ms", inputs.oracle_ms);
    let populate: u64 = flex
        .phases
        .iter()
        .zip(&inputs.phases)
        .filter(|(_, p)| !p.counted)
        .map(|(o, _)| o.clocks.iter().copied().max().unwrap_or(0))
        .sum();
    m.put("workload.populate_virtual_ms", populate as f64 / 1e6);
}

/// Repeat `f` (which returns the units of work it did) until
/// [`MIN_PROBE`] has passed; host ns per unit, recorded as one span.
fn ns_per_unit(tr: &mut Tracer, name: &str, mut f: impl FnMut() -> u64) -> f64 {
    tr.span(name, |_| {
        let start = Instant::now();
        let mut units = 0;
        loop {
            units += f();
            let elapsed = start.elapsed();
            if elapsed >= MIN_PROBE {
                return elapsed.as_nanos() as f64 / units.max(1) as f64;
            }
        }
    })
}

/// One rank's access in the form the layers take it.
struct Access<'a> {
    call: &'a Call,
    client: ClientAccess,
    mem: MemLayout,
}

fn accesses(phase: &Phase) -> Vec<Access<'_>> {
    phase
        .calls
        .iter()
        .map(|calls| {
            let call = &calls[0];
            let (disp, ftype) = call
                .view
                .as_ref()
                .expect("a phase's first call sets the view");
            let view = FileView::new(*disp, flatten_shared(ftype).0, 1)
                .expect("generated views are valid");
            Access {
                call,
                client: ClientAccess {
                    view,
                    data_start: call.offset_etypes,
                    data_len: call.data_len(),
                },
                mem: MemLayout::new(flatten_shared(&call.memtype).0, call.mem_count),
            }
        })
        .collect()
}

fn types_probes(write: &Phase, acc: &[Access<'_>], tr: &mut Tracer, m: &mut Metrics) {
    let types = || {
        acc.iter()
            .flat_map(|a| [&a.call.view.as_ref().expect("view").1, &a.call.memtype])
    };
    m.put(
        "types.flat_segs",
        types()
            .map(|t| flatten_shared(t).0.segs.len())
            .sum::<usize>() as f64,
    );
    let ns = ns_per_unit(tr, "types::flatten_shared[cold]", || {
        reset_flatten_cache();
        for t in types() {
            black_box(flatten_shared(t));
        }
        1
    });
    m.put("types.flatten_us", ns / 1e3);

    let ns = ns_per_unit(tr, "types::ViewCursor::take", || {
        let mut pieces = 0;
        for a in acc {
            let mut cur = a.client.view.cursor(a.client.data_start);
            let mut left = a.client.data_len;
            while left > 0 {
                left -= black_box(cur.take(left)).len;
                pieces += 1;
            }
        }
        pieces
    });
    m.put("types.cursor_ns_per_piece", ns);

    // Memory-side probes need bytes behind the layout: the write data.
    let ns = ns_per_unit(tr, "types::MemLayout::runs", || {
        let mut runs = 0;
        for (a, calls) in acc.iter().zip(&write.calls) {
            runs += black_box(a.mem.runs(&calls[0].data, 0, a.mem.total())).count() as u64;
        }
        runs
    });
    m.put("types.runs_ns_per_run", ns);

    let ns_per_byte = ns_per_unit(tr, "types::pack", || {
        let mut bytes = 0;
        for calls in &write.calls {
            let call = &calls[0];
            bytes += black_box(pack(
                &flatten_shared(&call.memtype).0,
                call.mem_count,
                &call.data,
            ))
            .len();
        }
        bytes as u64
    });
    // A host memory copy through the layout, not a modelled transfer.
    m.put("types.pack_mbps", 1e3 / ns_per_byte);
}

fn world_ns(n: usize, body: impl Fn(&Rank) + Sync) -> f64 {
    let t = Instant::now();
    run_on(Backend::EventLoop, n, CostModel::default(), |rank| {
        body(rank)
    });
    t.elapsed().as_nanos() as f64
}

/// Mean host ns of a world running `body`, beyond an empty world's.
fn world_beyond_spawn(
    tr: &mut Tracer,
    name: &str,
    n: usize,
    spawn_ns: f64,
    body: impl Fn(&Rank) + Sync,
) -> f64 {
    (ns_per_unit(tr, name, || {
        black_box(world_ns(n, &body));
        1
    }) - spawn_ns)
        .max(0.0)
}

/// `sim` at the workload's world size; returns the spawn/join cost.
fn sim_probes(n: usize, tr: &mut Tracer, m: &mut Metrics) -> f64 {
    let spawn_ns = ns_per_unit(tr, "sim::run_on[empty]", || {
        black_box(world_ns(n, |_| {}));
        1
    });
    m.put("sim.spawn_join_us", spawn_ns / 1e3);

    // 64-step neighbour ping-pong: every receive parks.
    const STEPS: u64 = 64;
    let ns = world_beyond_spawn(tr, "sim::send+recv[ping-pong]", n, spawn_ns, |rank| {
        let (r, p) = (rank.rank(), rank.nprocs());
        // An odd world's last rank has no partner.
        if p % 2 == 1 && r == p - 1 {
            return;
        }
        for step in 0..STEPS {
            if r % 2 == 0 {
                rank.send(r + 1, step, &[1u8; 8]);
                rank.recv(r + 1, step);
            } else {
                rank.recv(r - 1, step);
                rank.send(r - 1, step, &[1u8; 8]);
            }
        }
    });
    m.put("sim.msg_ns", ns / (STEPS * (n as u64 / 2 * 2)) as f64);

    // Collectives with 8-byte blocks, a few per world so that spawn cost
    // does not dominate small worlds.
    let per_world = (16_384 / (n * n)).max(1) as u64;
    let ns = world_beyond_spawn(tr, "sim::Rank::alltoallv", n, spawn_ns, |rank| {
        for _ in 0..per_world {
            black_box(rank.alltoallv(vec![vec![0u8; 8]; rank.nprocs()]));
        }
    });
    m.put("sim.alltoallv_us", ns / per_world as f64 / 1e3);
    let ns = world_beyond_spawn(tr, "sim::Rank::allgatherv", n, spawn_ns, |rank| {
        for _ in 0..per_world {
            black_box(rank.allgatherv(&[0u8; 8]));
        }
    });
    m.put("sim.allgatherv_us", ns / per_world as f64 / 1e3);
    let ns = world_beyond_spawn(tr, "sim::Rank::barrier", n, spawn_ns, |rank| {
        for _ in 0..64 {
            rank.barrier();
        }
    });
    m.put("sim.barrier_us", ns / 64.0 / 1e3);
    spawn_ns
}

/// Replay the aggregate range `[lo, hi)` from one client in cb-sized
/// vectored requests: the file system's cost with no engine above it.
fn pfs_probes(
    inputs: &Inputs,
    lo: u64,
    hi: u64,
    counted_reads: bool,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let cb = inputs.hints.cb_buffer_size as u64;
    let chunk = vec![0x5au8; cb.min(hi - lo) as usize];
    let mut sink = vec![0u8; chunk.len()];
    let mut replay = |write: bool, tr: &mut Tracer| {
        let name = if write {
            "pfs::FileHandle::pwritev_nb"
        } else {
            "pfs::FileHandle::preadv_nb"
        };
        let mut virtual_mbps = 0.0;
        let ns_per_req = ns_per_unit(tr, name, || {
            let pfs = Pfs::new(inputs.pfs);
            let h = pfs.open("probe", 0);
            let mut t = 0;
            let mut off = lo;
            while off < hi {
                let n = (cb.min(hi - off)) as usize;
                let op = if write {
                    h.pwritev_nb(t, off, &[&chunk[..n]])
                } else {
                    h.preadv_nb(t, off, &mut [&mut sink[..n]])
                };
                t = op.done_at();
                off += n as u64;
            }
            t = h.close(t).expect("no fault plan installed");
            virtual_mbps = (hi - lo) as f64 / (t as f64 / 1e9) / 1e6;
            pfs.stats().ost_requests
        });
        (ns_per_req, virtual_mbps)
    };
    let (write_ns, write_mbps) = replay(true, tr);
    let (read_ns, read_mbps) = replay(false, tr);
    m.put("pfs.write_ns_per_req", write_ns);
    m.put("pfs.read_ns_per_req", read_ns);
    // The direction the workload's counted phases move data in.
    m.put(
        "pfs.direct_virtual_mbps",
        if counted_reads { read_mbps } else { write_mbps },
    );

    // Lock traffic shaped like the collective's: aggregator `k mod A`
    // takes chunk `k`; the second pass is shifted by one aggregator, so
    // every acquire revokes.
    let aggs = inputs.phases[0].aggs as u64;
    let chunk_len = cb.max(inputs.pfs.page_size);
    let n_chunks = (hi - lo).div_ceil(chunk_len).min(4096);
    let ns = ns_per_unit(tr, "pfs::LockTable::acquire", || {
        let mut table = LockTable::new(inputs.pfs.lock_expansion);
        for pass in 0..2 {
            for k in 0..n_chunks {
                let start = lo + k * chunk_len;
                black_box(table.acquire(((k + pass) % aggs) as usize, start, start + chunk_len));
            }
        }
        2 * n_chunks
    });
    m.put("pfs.lock_acquire_ns", ns);
}

/// `core`'s per-cycle derivation and `io`'s buffer-to-file step over the
/// first [`MAX_WINDOWS`] collective-buffer windows of the access.
fn cycle_probes(
    inputs: &Inputs,
    acc: &[Access<'_>],
    lo: u64,
    hi: u64,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let cb = inputs.hints.cb_buffer_size as u64;
    let n_win = (hi - lo).div_ceil(cb).min(MAX_WINDOWS);
    let window = |w: u64| [(lo + w * cb, cb.min(hi - (lo + w * cb)))];

    let mut per_window = Vec::new();
    let ns = ns_per_unit(tr, "core::ClientStream::take_window", || {
        let mut streams: Vec<ClientStream> = acc
            .iter()
            .map(|a| ClientStream::new(a.client.clone()))
            .collect();
        per_window = (0..n_win)
            .map(|w| {
                let win = window(w);
                streams
                    .iter_mut()
                    .enumerate()
                    .map(|(c, s)| (c, s.take_window(&win).0))
                    .filter(|(_, pieces)| !pieces.is_empty())
                    .collect::<Vec<_>>()
            })
            .collect();
        per_window
            .iter()
            .flatten()
            .map(|(_, p)| p.len() as u64)
            .sum()
    });
    m.put("core.take_window_ns_per_piece", ns);

    let mut seg_lists = Vec::new();
    let ns = ns_per_unit(tr, "core::merge_pieces+group_by_window", || {
        seg_lists = per_window
            .iter()
            .enumerate()
            .map(|(w, per_client)| {
                let (entries, segs) = merge_pieces(per_client);
                black_box(group_by_window(&segs, &window(w as u64)));
                black_box(entries);
                segs
            })
            .collect();
        per_window
            .iter()
            .flatten()
            .map(|(_, p)| p.len() as u64)
            .sum()
    });
    m.put("core.merge_ns_per_piece", ns);

    let extent = acc[0].client.view.ftype().extent;
    let method = inputs.hints.io_method;
    let ns = ns_per_unit(tr, "io::resolve", || {
        for segs in &seg_lists {
            black_box(resolve(&method, segs, extent));
        }
        seg_lists.len() as u64
    });
    m.put("io.resolve_ns", ns);

    let data = vec![0xa5u8; cb as usize];
    let n_segs = seg_lists.iter().map(|s| s.len() as u64).sum::<u64>();
    let ns = ns_per_unit(tr, "io::write_gathered_nb", || {
        let h = Pfs::new(inputs.pfs).open("probe", 0);
        let mut t = 0;
        for segs in &seg_lists {
            let mut rest = &data[..];
            let runs: Vec<&[u8]> = segs
                .iter()
                .map(|&(_, len)| {
                    let (run, tail) = rest.split_at(len as usize);
                    rest = tail;
                    run
                })
                .collect();
            t = write_gathered_nb(&h, t, segs, &runs, &method, extent).done_at();
        }
        n_segs
    });
    m.put("io.write_gathered_ns_per_seg", ns);

    let mut sink = vec![0u8; cb as usize];
    let ns = ns_per_unit(tr, "io::read_scattered_nb", || {
        let h = Pfs::new(inputs.pfs).open("probe", 0);
        let mut t = 0;
        for segs in &seg_lists {
            let mut rest = &mut sink[..];
            let mut dests: Vec<&mut [u8]> = segs
                .iter()
                .map(|&(_, len)| {
                    let (run, tail) = std::mem::take(&mut rest).split_at_mut(len as usize);
                    rest = tail;
                    run
                })
                .collect();
            t = read_scattered_nb(&h, t, segs, &mut dests, &method, extent).done_at();
        }
        n_segs
    });
    m.put("io.read_scattered_ns_per_seg", ns);
}

fn core_world_probes(
    inputs: &Inputs,
    acc: &[Access<'_>],
    lo: u64,
    hi: u64,
    spawn_ns: f64,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let phase = &inputs.phases[0];
    let clients: Vec<ClientAccess> = acc.iter().map(|a| a.client.clone()).collect();
    let ctx = AssignCtx {
        aar: (lo, hi),
        n_aggregators: phase.aggs,
        alignment: inputs.hints.fr_alignment,
        clients: &clients,
    };
    // The assigner the flexible engine picks for these hints.
    let assigner: &dyn RealmAssigner = if inputs.hints.persistent_file_realms {
        &PersistentBlockCyclic
    } else {
        &EvenAar
    };
    let ns = ns_per_unit(tr, "core::RealmAssigner::assign", || {
        black_box(assigner.assign(&ctx));
        1
    });
    m.put("core.realm_assign_us", ns / 1e3);

    let hints = Hints {
        cb_nodes: Some(phase.aggs),
        ..inputs.hints.clone()
    };
    let ns = ns_per_unit(tr, "core::MpiFile::open+set_view+close", || {
        let pfs = Pfs::new(inputs.pfs);
        black_box(world_ns(phase.nprocs, |rank| {
            let (disp, ftype) = phase.calls[rank.rank()][0].view.as_ref().expect("view");
            let mut f = MpiFile::open(rank, &pfs, "probe", hints.clone()).expect("valid hints");
            f.set_view(*disp, &Datatype::bytes(1), ftype)
                .expect("valid view");
            f.close().expect("no fault plan installed");
        }));
        1
    });
    m.put("core.open_us", (ns - spawn_ns).max(0.0) / 1e3);
}

/// Run every stand-alone probe on `inputs`.
pub fn run(inputs: &Inputs, tr: &mut Tracer, m: &mut Metrics) {
    tr.set_request("probes");
    // Probe the direction the workload is about: the first counted phase.
    let write = inputs
        .phases
        .iter()
        .find(|p| p.op == Op::Write)
        .expect("every workload writes");
    let main = inputs
        .phases
        .iter()
        .find(|p| p.counted)
        .expect("a counted phase");
    let acc = accesses(main);
    let (lo, hi) = acc
        .iter()
        .filter_map(|a| a.client.file_range())
        .fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));

    tr.span("probes", |tr| {
        tr.span("types", |tr| types_probes(write, &accesses(write), tr, m));
        let spawn_ns = tr.span("sim", |tr| sim_probes(main.nprocs, tr, m));
        tr.span("pfs", |tr| {
            pfs_probes(inputs, lo, hi, main.op == Op::Read, tr, m)
        });
        tr.span("core+io cycles", |tr| {
            cycle_probes(inputs, &acc, lo, hi, tr, m)
        });
        tr.span("core worlds", |tr| {
            core_world_probes(inputs, &acc, lo, hi, spawn_ns, tr, m)
        });
    });
}
