//! The new flexible two-phase collective I/O engine (§4–§5).
//!
//! Differences from the original ROMIO code path (`engine::romio`):
//!
//! * **Metadata**: ships each client's *flattened filetype* (`D` pairs)
//!   once via allgather, instead of the fully flattened access (`M`
//!   pairs). Aggregators re-derive every client's offset/length stream
//!   themselves — O(M) work per aggregator, and the client walks its own
//!   stream once per aggregator (O(MA) with enumerated filetypes, far less
//!   with succinct ones thanks to whole-datatype skipping).
//! * **File realms are datatype streams** ([`crate::realm::FileRealm`]):
//!   any assigner can be plugged in; persistent file realms and boundary
//!   alignment are hints, not code forks.
//! * **The collective buffer is separate** from any sieve buffer: each
//!   buffer cycle hands one non-contiguous request per realm chunk — the
//!   received payloads' runs, as delivered — to `flexio-io`, which may
//!   choose a different method every cycle (§5.1). A sieved chunk is
//!   charged the one copy into its sieve buffer, here.
//! * **Data exchange** (§5.4): sparse non-blocking point-to-point, one
//!   message per client↔aggregator pair with data in the cycle.
//!
//! The buffer cycles themselves run on the shared N-deep pipeline core
//! (`engine::pipeline`): this module contributes one driver
//! whose user buffer picks the direction's two halves, the drive loops
//! own the depth.

use crate::engine::common::{group_by_window, merge_pieces, retry_io, verdict};
use crate::engine::pipeline::{
    self, CapPolicy, CycleDriver, ReadDriver, StragglerVerdict, WriteDriver,
};
use crate::engine::recovery::crash_boundary;
use crate::engine::schedule::{self, ExchangeSchedule};
use crate::error::{IoError, Result};
use crate::hints::Hints;
use crate::meta::ClientAccess;
use crate::realm::{FileRealm, RealmSet};
use flexio_io::{read_scattered_nb, resolve, write_gathered_nb, IoMethod, Resolved};
use flexio_pfs::{FileHandle, IoCompletion, LockKind};
use flexio_sim::{OverlapWindow, Phase, Rank};
use flexio_types::{FlatType, MemLayout, Piece, Seg};
use std::sync::Arc;

/// Direction + user buffer for one collective call.
pub enum DataBuf<'a> {
    /// Collective write: data flows user buffer → file.
    Write(&'a [u8]),
    /// Collective read: data flows file → user buffer.
    Read(&'a mut [u8]),
}

/// Run one collective read/write with the flexible engine. Must be called
/// by every rank of the world (standard collective semantics); ranks with
/// `my.data_len == 0` still participate in the exchanges.
///
/// `sched_cache` is the file's schedule slot: the last call's exchange
/// schedule, or nothing after `open`, `set_view` and `set_hints`. When the
/// digest of this call's inputs matches, the entire derivation — metadata
/// parsing, realm assignment, window walks, stream intersection — is
/// skipped and the slot's schedule is replayed against the fresh user
/// buffer, charging only [`schedule::PROBE_PAIRS`]. A miss derives the
/// schedule once per world (`ExchangeSchedule::shared`) into the slot,
/// the cycles run from there, and every rank is charged the pairs of its
/// own share of it, where a derivation has always charged them.
#[allow(clippy::too_many_arguments)] // two call sites: MpiFile::run_engine, recovery::run
pub fn run(
    rank: &Rank,
    handle: &FileHandle,
    my: &ClientAccess,
    mem: &MemLayout,
    buf: &mut DataBuf<'_>,
    hints: &Hints,
    pfr_state: &mut Option<Arc<RealmSet>>,
    sched_cache: &mut Option<ExchangeSchedule>,
) -> Result<()> {
    // Crash machinery arms only in a crashable world: every rank of it
    // is crashable, so the per-cycle boundary checks (and their
    // heartbeats) run collectively or not at all, and worlds that cannot
    // crash stay charge-identical.
    let watchdog = rank.crashable().then(|| hints.watchdog_us.saturating_mul(1000));

    // ---- metadata exchange: flattened filetypes (D pairs each) ----------
    // Each rank stamps the file size it sees on entry, and a write's sieve
    // pre-reads are charged below the largest (DESIGN "A collective
    // write's pre-read stops at the agreed size").
    rank.charge_pairs(my.view.d() as u64);
    let wires = rank.allgatherv_stamped(&my.to_wire(), handle.size());

    // ---- schedule-cache probe -------------------------------------------
    // Every rank sees the same wires and (by MPI collective semantics) the
    // same hints, so every rank reaches the same hit/miss verdict and the
    // replayed communication pattern stays globally consistent. The wires
    // are digested once for the world, not once a rank.
    let key = schedule::shared_key(rank, &wires, hints);
    let hit = sched_cache.as_ref().is_some_and(|s| s.key == key);
    let layout = *handle.pfs().config();
    rank.tally(|s| if hit { s.schedule_cache_hits += 1 } else { s.schedule_cache_misses += 1 });
    let sched = if hit {
        rank.charge_pairs(schedule::PROBE_PAIRS);
        sched_cache.as_ref().expect("hit implies a cached schedule")
    } else {
        &*sched_cache.insert(ExchangeSchedule::shared(rank, &wires, key, hints, pfr_state, &layout))
    };
    // The derivation is the world's, so every rank fails here alike,
    // before any byte moves.
    if let Some(broken) = sched.bad_realms() {
        return Err(IoError::BadHints(broken));
    }

    // ---- buffer cycles ----------------------------------------------------
    // A miss charges the derivation's pairs where the work falls — parse
    // before the loop, window/stream work at the top of each cycle — so
    // every send and file request sees the clock a fresh derivation
    // reaches it at. A hit skips all of it.
    //
    // With a deep (≥ 3) or auto pipeline, a miss instead charges cycle 0's
    // derivation up front and lets the rest — pure local computation over
    // already-exchanged metadata — proceed as an overlap window behind the
    // first cycle's exchange. Same pair counts, earlier first send.
    let n_agg = sched.agg_ranks().len();
    let policy = CapPolicy::resolve(hints, handle.pfs().config().n_osts, n_agg);
    let derive_overlap = !hit && policy.allows_derive_overlap() && sched.n_cycles() > 1;
    let mut derive_win: Option<OverlapWindow> = None;
    if !hit {
        if derive_overlap {
            rank.charge_pairs(sched.parse_pairs() + sched.cycle(0).pairs());
            let rest: u64 = sched.cycles().skip(1).map(|c| c.pairs()).sum();
            if rest > 0 {
                rank.tally(|s| s.pairs_processed += rest);
                derive_win = Some(
                    rank.overlap_begin(rank.now() + rank.cost().pairs_ns(rest), Phase::Compute),
                );
            }
        } else {
            rank.charge_pairs(sched.parse_pairs());
        }
    }
    let charge_cycles = !hit && !derive_overlap;
    let watch = Some(sched.agg_ranks());
    let outcome = match buf {
        DataBuf::Write(user) => {
            let user = &**user;
            let handle = &handle.clipped_at(wires.stamps().max().unwrap_or(0));
            let mut flex =
                Flex { rank, handle, my, mem, user, hints, sched, charge_cycles, watchdog };
            pipeline::drive_write(rank, handle, &mut flex, policy, watch, derive_win)
        }
        DataBuf::Read(user) => {
            let user = &mut **user;
            let mut flex =
                Flex { rank, handle, my, mem, user, hints, sched, charge_cycles, watchdog };
            pipeline::drive_read(rank, handle, &mut flex, policy, watch, derive_win)
        }
    };

    // A crash-aborted drive returns before any further collective could
    // hang on the dead peers: the straggler machinery and the error
    // agreement both assume every member answers. The dead set is already
    // agreed (two-round detection), so this error is collective too.
    if let Some(dead) = outcome.dead {
        return Err(IoError::RanksFailed(dead));
    }

    // ---- graceful degradation -------------------------------------------
    // Every rank ran the same straggler detector over the same allgathered
    // durations, so the rebalance decision is already collective. Shrink
    // the straggling aggregator's persistent realms so later calls steer
    // work to its healthy peers. The cached schedule replays the old
    // ownership (realms are not part of the schedule key), so it is
    // patched in place against the new realms — re-derived through the
    // world-shared path under the new set's fingerprint: the wires are
    // already parsed, only the window cuts and piece streams move, so the
    // patch charges the cycle walks but not the parse — and the next
    // identical call still probes as a hit instead of paying a full miss.
    if let Some(v) = &outcome.straggler {
        if hints.persistent_file_realms && n_agg >= 2 {
            if let Some(new_realms) =
                pfr_state.as_deref().and_then(|set| rebalance_realms(&set.realms, v, hints))
            {
                *pfr_state = Some(Arc::new(RealmSet::new(new_realms)));
                rank.tally(|s| s.realms_rebalanced += 1);
                let patched =
                    ExchangeSchedule::shared(rank, &wires, key, hints, pfr_state, &layout);
                let cycle_pairs: u64 = patched.cycles().map(|c| c.pairs()).sum();
                rank.charge_pairs(cycle_pairs);
                *sched_cache = Some(patched);
                rank.tally(|s| s.schedule_cache_patches += 1);
            }
        }
    }

    verdict(rank, handle, outcome.err)
}

/// Rebuild the persistent block-cyclic realms with the straggler's
/// per-period share shrunk *proportionally to its measured slowdown* and
/// the freed bytes split across every healthy peer, weighted by peer
/// speed (inverse smoothed I/O time). One detection therefore suffices:
/// the straggler keeps `share · avg/mv` bytes — what its slow storage can
/// finish in a healthy peer's cycle time — instead of halving toward that
/// point over several detection cycles, and no single helper inherits the
/// whole handoff.
///
/// The realm *period* is unchanged, so the realms still tile the whole
/// file and stay pairwise disjoint; only the ownership split inside each
/// period moves. Deterministic given the same inputs (the verdict is
/// folded from allgathered durations, identical everywhere), so every
/// rank rebuilds identical realms without communicating. `None` when
/// nothing meaningful can move (non-tiled realms, or the straggler's
/// share is already at the floor of one alignment unit).
fn rebalance_realms(
    old: &[FileRealm],
    verdict: &StragglerVerdict,
    hints: &Hints,
) -> Option<Vec<FileRealm>> {
    let straggler = verdict.straggler;
    let mut shares: Vec<Vec<(u64, u64)>> = Vec::with_capacity(old.len());
    let mut period = 0u64;
    for r in old {
        let (segs, p) = r.tile()?;
        if period == 0 {
            period = p;
        } else if period != p {
            return None; // custom assigner with mismatched tilings
        }
        shares.push(segs);
    }
    let mv = verdict.loads.iter().find(|&&(i, _)| i == straggler)?.1;
    let helpers: Vec<(usize, u64)> = verdict
        .loads
        .iter()
        .copied()
        .filter(|&(i, _)| i != straggler && i < shares.len())
        .collect();
    if helpers.is_empty() || mv == 0 {
        return None;
    }
    let avg = helpers.iter().map(|&(_, v)| v).sum::<u64>() / helpers.len() as u64;
    if avg == 0 {
        return None;
    }
    let total: u64 = shares[straggler].iter().map(|&(_, l)| l).sum();
    let al = hints.fr_alignment.unwrap_or(1);
    // Keep the fraction the slowdown ratio says the straggler can finish
    // in a peer's cycle time, aligned down when a boundary alignment is
    // hinted, floored at one alignment unit so the realm never empties.
    let keep = ((total as u128 * avg as u128 / mv as u128) as u64 / al * al).max(al);
    if keep >= total {
        return None;
    }
    // Trim the straggler's runs from the back (every rank pops the same
    // sorted list, so the donation is identical everywhere).
    let donation = total - keep;
    let mut freed = donation;
    let mut donated: Vec<(u64, u64)> = Vec::new();
    while freed > 0 {
        let (o, l) = shares[straggler].pop().expect("freed < total implies runs remain");
        if l <= freed {
            donated.push((o, l));
            freed -= l;
        } else {
            shares[straggler].push((o, l - freed));
            donated.push((o + l - freed, freed));
            freed = 0;
        }
    }
    donated.sort_unstable();
    // Per-helper donation targets, proportional to speed (inverse
    // smoothed I/O time), aligned down; the rounding tail goes to the
    // fastest helper (lowest load, lowest index on ties).
    let inv: Vec<u128> = helpers.iter().map(|&(_, v)| (1u128 << 32) / v.max(1) as u128).collect();
    let inv_sum: u128 = inv.iter().sum();
    let mut targets: Vec<u64> =
        inv.iter().map(|&w| (donation as u128 * w / inv_sum) as u64 / al * al).collect();
    let assigned: u64 = targets.iter().sum();
    let fastest = helpers
        .iter()
        .enumerate()
        .min_by_key(|&(_, &(i, v))| (v, i))
        .map(|(k, _)| k)
        .expect("helpers is nonempty");
    targets[fastest] += donation - assigned;
    // Carve the donated runs into consecutive per-helper chunks.
    let (mut run, mut run_pos) = (0usize, 0u64);
    for (k, &(h, _)) in helpers.iter().enumerate() {
        let mut want = targets[k];
        while want > 0 {
            let (o, l) = donated[run];
            let take = (l - run_pos).min(want);
            shares[h].push((o + run_pos, take));
            run_pos += take;
            want -= take;
            if run_pos == l {
                run += 1;
                run_pos = 0;
            }
        }
        shares[h].sort_unstable();
    }
    // `from_segs` merges the runs the handoff made adjacent.
    let realm = |segs: Vec<(u64, u64)>| {
        let segs = segs.into_iter().map(|(o, l)| Seg::new(o as i64, l)).collect();
        FileRealm::tiled(Arc::new(FlatType::from_segs(segs, 0, period)), 0)
    };
    Some(shares.into_iter().map(realm).collect())
}

/// The maximal `(data_pos, len)` ranges of `pieces`: pieces that continue
/// each other in the client's data space (a contiguous memory type under a
/// fine-grained filetype) share one memory-layout lookup.
fn data_ranges(pieces: &[Piece]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let first = pieces.get(i)?;
        let mut end = first.data_pos + first.len;
        i += 1;
        while let Some(p) = pieces.get(i).filter(|p| p.data_pos == end) {
            end += p.len;
            i += 1;
        }
        Some((first.data_pos, end - first.data_pos))
    })
}

/// Build this rank's outgoing payload for one aggregator.
///
/// The payload models an iovec run list borrowed straight off the
/// flattened memory view ([`MemLayout::runs`]) and handed to the NIC — no
/// pack copy is modeled, so nothing is charged and nothing enters the
/// [`flexio_sim::Stats::bytes_copied`] ledger (the `Vec` built below is
/// the simulator's wire representation).
fn pack_payload(my: &ClientAccess, mem: &MemLayout, user: &[u8], pieces: &[Piece]) -> Vec<u8> {
    let total: u64 = pieces.iter().map(|p| p.len).sum();
    let mut payload = Vec::with_capacity(total as usize);
    for (start, len) in data_ranges(pieces) {
        for run in mem.runs(user, start - my.data_start, len) {
            payload.extend_from_slice(run.bytes);
        }
    }
    payload
}

/// Sieve method covering a whole segment group in one chunk: one RMW
/// read and one write-back for the group's span. The issue halves use
/// this for sieve-resolved groups — the staging is span-sized either way
/// (ROMIO's integrated RMW holds the same span), and a single round trip
/// replaces serialized sieve-buffer-sized chunks.
fn span_wide_sieve(group: &[(u64, u64)]) -> IoMethod {
    let span = group.last().unwrap().0 + group.last().unwrap().1 - group[0].0;
    IoMethod::DataSieve { buffer: span as usize }
}

/// The kind of lock request an aggregator makes for a realm chunk. A
/// persistent realm set is the engine's promise to come back to the same
/// chunks call after call (§5.2), so its chunks are locked *ahead*: the
/// grant is the chunk, and no peer's first request finds it grown over
/// its own realm. A per-call realm has no future to lock ahead for and
/// asks like any plain access. (Always asking ahead was measured and
/// rejected — DESIGN "Lock requests: ordinary and ahead".)
fn realm_lock_kind(hints: &Hints) -> LockKind {
    if hints.persistent_file_realms {
        LockKind::Ahead
    } else {
        LockKind::Ordinary
    }
}

/// Estimate the period of an aggregated segment group: the average
/// distance between consecutive segment starts. For the paper's regular
/// workloads this equals the datatype extent, which §6.3 found to be the
/// right metric for conditional data sieving; unlike the raw filetype
/// extent it stays meaningful when many clients' filetypes interleave
/// densely at the aggregator.
fn group_period(group: &[(u64, u64)]) -> u64 {
    match group {
        [] => 0,
        [only] => only.1,
        _ => {
            let span = group.last().unwrap().0 + group.last().unwrap().1 - group[0].0;
            span / group.len() as u64
        }
    }
}

/// One write cycle's collective buffer, ready for the file: the received
/// payloads held as delivered, never assembled into one.
struct WriteStage {
    /// Sorted, merged file segments of this aggregator's window slice.
    segs: Vec<(u64, u64)>,
    /// The received payloads, in ascending client order.
    bufs: Vec<Vec<u8>>,
    /// The run plan mapping the file-order segment stream onto
    /// `(payload index, offset, len)` slices of `bufs`, one per plan
    /// entry. The issue half hands these slices to the scatter-gather PFS
    /// entry points.
    runs: Vec<(usize, usize, usize)>,
}

/// One collective call's cycle driver over the (possibly cached) exchange
/// schedule. The user buffer says the direction: `&[u8]` drives writes
/// ([`WriteDriver`]), `&mut [u8]` reads ([`ReadDriver`]).
struct Flex<'a, U> {
    rank: &'a Rank,
    handle: &'a FileHandle,
    my: &'a ClientAccess,
    mem: &'a MemLayout,
    user: U,
    hints: &'a Hints,
    sched: &'a ExchangeSchedule,
    charge_cycles: bool,
    /// The crash watchdog in ns; `Some` only in a crashable world.
    watchdog: Option<u64>,
}

impl<U> Flex<'_, U> {
    /// The issue half's file loop, in either direction: one request per
    /// realm chunk of cycle `i`'s window — sieving must never span a realm
    /// boundary, the gap would belong to another aggregator. `segs` are
    /// the cycle's merged segments and `runs` their bytes, one run per
    /// plan entry in file order; merged segments end on entry boundaries,
    /// so every group covers whole runs, which `io` moves. Every chunk is
    /// issued even after an exhausted one, so all data that *can* move
    /// does, and the error agreement sees one deterministic first fault.
    fn issue_chunks<R: AsRef<[u8]>>(
        &self,
        i: usize,
        segs: &[(u64, u64)],
        runs: &mut [R],
        mut io: impl FnMut(u64, &[(u64, u64)], &mut [R], &IoMethod, u64) -> IoCompletion,
    ) -> IoCompletion {
        let (rank, handle, hints) = (self.rank, self.handle, self.hints);
        let window = self.sched.cycle(i).my_window();
        let t0 = rank.now();
        let (mut t, mut err, mut ei) = (t0, None, 0);
        for (wi, group) in group_by_window(segs, window) {
            let glen: u64 = group.iter().map(|(_, l)| l).sum();
            let period = group_period(&group);
            // Lock the whole realm chunk (as ROMIO locks the sieve
            // extent). Under persistent file realms the chunk is asked for
            // ahead, so a stripe-aligned chunk is granted once and never
            // cancelled by a peer locking its own (tests/realm_locks.rs,
            // `fig7_shape_pfr_plus_alignment_minimizes_lock_traffic`).
            t = handle.lock_range(t, window[wi].0, window[wi].1, realm_lock_kind(hints));
            let (mut ej, mut got) = (ei, 0u64);
            while got < glen {
                got += runs[ej].as_ref().len() as u64;
                ej += 1;
            }
            let sieved =
                matches!(resolve(&hints.io_method, &group, period), Resolved::DataSieve(_));
            let method = if sieved {
                // Double buffering (§5.1/§6.2): sieving beneath the
                // collective buffer copies once, between the runs and the
                // sieve buffer — a copy of the model's; the host hands the
                // runs down as they are. The chunk is widened to the whole
                // group span — one RMW read and one write-back per realm
                // chunk on writes, one read on reads — the span-sized
                // staging ROMIO's integrated RMW pass uses, instead of
                // serialized sieve-buffer-sized round trips.
                rank.charge_memcpy(glen);
                rank.tally(|s| s.bytes_copied += glen);
                span_wide_sieve(&group)
            } else {
                hints.io_method
            };
            let (nt, e) = retry_io(rank, hints, t, |at| {
                io(at, &group, &mut runs[ei..ej], &method, period).into_result()
            });
            t = nt;
            err = err.or(e);
            ei = ej;
        }
        IoCompletion::span(t0, t).or_error(err)
    }
}

impl<U> CycleDriver for Flex<'_, U> {
    fn n_cycles(&self) -> usize {
        self.sched.n_cycles()
    }

    fn boundary(&mut self, _i: usize) -> Option<Vec<usize>> {
        self.watchdog.and_then(|w| crash_boundary(self.rank, w))
    }

    fn begin_cycle(&mut self, i: usize) {
        if self.charge_cycles {
            self.rank.charge_pairs(self.sched.cycle(i).pairs());
        }
    }
}

impl WriteDriver for Flex<'_, &[u8]> {
    type Stage = WriteStage;

    /// Clients send their pieces, aggregators plan the collective buffer
    /// in file order. Pure data movement — the file is not touched, so the
    /// pipelined driver can run this while the previous cycle's I/O is
    /// still in flight.
    fn exchange(&mut self, i: usize) -> Option<WriteStage> {
        let cyc = self.sched.cycle(i);
        let agg_ranks = self.sched.agg_ranks();
        // Sends: client -> aggregators.
        let sends: Vec<(usize, Vec<u8>)> = cyc
            .my_pieces()
            .map(|(a, pieces)| (agg_ranks[a], pack_payload(self.my, self.mem, self.user, pieces)))
            .collect();
        // Clients with data in my window, ascending; `received` keeps this
        // order, so a client's payload is found by its position here.
        let agg_pieces: Vec<(usize, &[Piece])> = cyc.agg_pieces().collect();
        let recv_from: Vec<usize> = agg_pieces.iter().map(|&(c, _)| c).collect();
        let received = self.rank.exchange(sends, &recv_from);
        if agg_pieces.is_empty() {
            return None; // nothing owned this cycle (or not an aggregator)
        }

        // Record where each byte of the file-order stream lives instead of
        // moving it. Within one client, entry order equals the client's own
        // pack order, so a per-client sequential cursor walks each payload
        // exactly once.
        let (entries, segs) = merge_pieces(&agg_pieces);
        let mut consumed = vec![0usize; received.len()];
        let mut runs = Vec::with_capacity(entries.len());
        for &(_off, client, _piece, len) in &entries {
            let ri = recv_from.binary_search(&client).expect("payload for client missing");
            runs.push((ri, consumed[ri], len as usize));
            consumed[ri] += len as usize;
        }
        let bufs: Vec<Vec<u8>> = received.into_iter().map(|(_, b)| b).collect();
        Some(WriteStage { segs, bufs, runs })
    }

    /// Commit the stage's runs to the file with nonblocking requests,
    /// retrying transient faults per realm chunk.
    fn issue(&mut self, i: usize, stage: WriteStage) -> IoCompletion {
        let mut runs: Vec<&[u8]> =
            stage.runs.iter().map(|&(bi, off, len)| &stage.bufs[bi][off..off + len]).collect();
        self.issue_chunks(i, &stage.segs, &mut runs, |at, group, runs, method, period| {
            write_gathered_nb(self.handle, at, group, runs, method, period)
        })
    }
}

/// One read cycle's collective buffer, read from the file and awaiting
/// distribution: per-client payload buffers, in ascending client order,
/// filled directly by the scattered read — ready to send without a
/// slicing pass.
type ReadStage = Vec<(usize, Vec<u8>)>;

impl ReadDriver for Flex<'_, &mut [u8]> {
    type Stage = ReadStage;

    /// An aggregator with data this cycle reads its window slice into
    /// per-client payloads with nonblocking requests.
    fn issue(&mut self, i: usize) -> Option<(IoCompletion, ReadStage)> {
        // Clients with data in my window, ascending.
        let agg_pieces: Vec<(usize, &[Piece])> = self.sched.cycle(i).agg_pieces().collect();
        if agg_pieces.is_empty() {
            return None;
        }
        let (entries, segs) = merge_pieces(&agg_pieces);
        // Scattered reads land straight in per-client payload buffers, so
        // the distribute half can send them as-is.
        let mut bufs: ReadStage = agg_pieces
            .iter()
            .map(|&(c, pieces)| (c, vec![0u8; pieces.iter().map(|p| p.len as usize).sum()]))
            .collect();
        // Dest runs in entry order: each entry gets the next `len` bytes of
        // its client's buffer (within a client, entry order equals the
        // client's own piece order). `rem[i]` is the unfilled tail of the
        // `i`-th client's buffer.
        let mut rem: Vec<&mut [u8]> = bufs.iter_mut().map(|(_, b)| b.as_mut_slice()).collect();
        let mut dests: Vec<&mut [u8]> = Vec::with_capacity(entries.len());
        for &(_off, client, _piece, len) in &entries {
            let i = agg_pieces
                .binary_search_by_key(&client, |&(c, _)| c)
                .expect("client buffer missing");
            let (head, tail) = std::mem::take(&mut rem[i]).split_at_mut(len as usize);
            dests.push(head);
            rem[i] = tail;
        }
        let io = self.issue_chunks(i, &segs, &mut dests, |at, group, dests, method, period| {
            read_scattered_nb(self.handle, at, group, dests, method, period)
        });
        drop((rem, dests));
        Some((io, bufs))
    }

    /// The aggregator sends its per-client payloads, everyone exchanges,
    /// clients scatter into the user buffer.
    fn distribute(&mut self, i: usize, stage: Option<ReadStage>) {
        let cyc = self.sched.cycle(i);
        let agg_ranks = self.sched.agg_ranks();
        // Client: receive from every aggregator whose window holds my data.
        let recv_from: Vec<usize> = cyc.my_pieces().map(|(a, _)| agg_ranks[a]).collect();
        let received = self.rank.exchange(stage.unwrap_or_default(), &recv_from);
        // Scatter into the user buffer; `received` is in `my_pieces` order.
        for ((a, pieces), (src, payload)) in cyc.my_pieces().zip(&received) {
            debug_assert_eq!(*src, agg_ranks[a], "payloads out of aggregator order");
            // The receive models an iovec run list borrowed off the
            // flattened view, landing bytes in user memory directly:
            // nothing is charged.
            let mut pos = 0usize;
            for p in pieces {
                let bytes = &payload[pos..pos + p.len as usize];
                self.mem.scatter(self.user, p.data_pos - self.my.data_start, bytes);
                pos += p.len as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::PipelineDepth;

    /// Build tiled realms: one run of `len` bytes per aggregator inside a
    /// shared period, like the persistent block-cyclic assigner produces.
    fn tiled_realms(runs: &[(u64, u64)], period: u64) -> Vec<FileRealm> {
        runs.iter()
            .map(|&(o, l)| {
                let pattern = FlatType::from_segs(vec![Seg::new(o as i64, l)], 0, period);
                FileRealm::tiled(Arc::new(pattern), 0)
            })
            .collect()
    }

    /// A rebalanced set meets the contract every derivation checks.
    fn assert_meets_contract(realms: &[FileRealm], period: u64) {
        let broken = crate::realm::broken_rule(realms, realms.len(), (0, period));
        assert_eq!(broken, None, "rebalanced realms break the realm contract");
    }

    fn share_bytes(realms: &[FileRealm]) -> Vec<u64> {
        realms.iter().map(|r| r.tile().expect("tiled").0.iter().map(|&(_, l)| l).sum()).collect()
    }

    #[test]
    fn rebalance_splits_proportionally_across_all_helpers() {
        // Aggregator 0 straggles at 8x; helpers 1 and 2 are equally fast.
        // The straggler must shrink to ~1/8 of its share in ONE step and
        // BOTH helpers must gain, splitting the donation evenly.
        let old = tiled_realms(&[(0, 8192), (8192, 8192), (16384, 8192)], 24576);
        let verdict =
            StragglerVerdict { straggler: 0, loads: vec![(0, 8000), (1, 1000), (2, 1000)] };
        let hints = Hints { fr_alignment: Some(1024), ..Hints::default() };
        let new = rebalance_realms(&old, &verdict, &hints).expect("must rebalance");
        assert_meets_contract(&new, 24576);
        let shares = share_bytes(&new);
        assert_eq!(shares.iter().sum::<u64>(), 24576, "realms must still tile the period");
        assert_eq!(shares[0], 1024, "straggler keeps share*avg/mv aligned down");
        let donated = 8192 - 1024;
        assert!(shares[1] > 8192 && shares[2] > 8192, "both helpers must gain: {shares:?}");
        assert_eq!(shares[1] + shares[2], 2 * 8192 + donated);
        // Equal speeds -> the split is as even as alignment allows.
        assert!(shares[1].abs_diff(shares[2]) <= 1024, "skewed split: {shares:?}");
    }

    #[test]
    fn rebalance_weighs_helpers_by_speed() {
        // Helper 1 is 3x slower than helper 2: helper 2 must absorb ~3x
        // the donated bytes.
        let old = tiled_realms(&[(0, 8192), (8192, 8192), (16384, 8192)], 24576);
        let verdict =
            StragglerVerdict { straggler: 0, loads: vec![(0, 24000), (1, 3000), (2, 1000)] };
        let hints = Hints { fr_alignment: None, ..Hints::default() };
        let new = rebalance_realms(&old, &verdict, &hints).expect("must rebalance");
        assert_meets_contract(&new, 24576);
        let shares = share_bytes(&new);
        assert_eq!(shares.iter().sum::<u64>(), 24576);
        let (gain1, gain2) = (shares[1] - 8192, shares[2] - 8192);
        assert!(gain2 > 2 * gain1, "fast helper must take the bulk: {shares:?}");
        assert!(gain1 > 0, "slow helper must still take a proportional slice");
    }

    #[test]
    fn rebalance_declines_when_nothing_can_move() {
        let old = tiled_realms(&[(0, 1024), (1024, 8192)], 9216);
        // Straggler already at one alignment unit: keep == total.
        let verdict = StragglerVerdict { straggler: 0, loads: vec![(0, 9000), (1, 1000)] };
        let hints = Hints { fr_alignment: Some(1024), ..Hints::default() };
        assert!(rebalance_realms(&old, &verdict, &hints).is_none());
        // Zero helper average (no samples worth comparing) declines too.
        let verdict = StragglerVerdict { straggler: 1, loads: vec![(0, 0), (1, 9000)] };
        assert!(rebalance_realms(&old, &verdict, &hints).is_none());
    }

    #[test]
    fn data_ranges_merge_only_what_continues() {
        let piece = |file_off, data_pos, len| Piece { file_off, data_pos, len };
        // 0..8 continues into 8..12; 20 starts a new range; an empty list
        // has none. File offsets play no part.
        let pieces = [piece(100, 0, 8), piece(300, 8, 4), piece(200, 20, 4), piece(900, 24, 1)];
        assert_eq!(data_ranges(&pieces).collect::<Vec<_>>(), vec![(0, 12), (20, 5)]);
        assert_eq!(data_ranges(&[]).count(), 0);
    }

    #[test]
    fn depth_hint_is_engine_agnostic() {
        // CapPolicy is shared machinery now; double-check the resolution
        // the engines rely on (depth d -> cap d-1).
        let h = Hints { pipeline_depth: PipelineDepth::Fixed(3), ..Hints::default() };
        assert_eq!(CapPolicy::resolve(&h, 4, 1), CapPolicy::Fixed(2));
    }
}
