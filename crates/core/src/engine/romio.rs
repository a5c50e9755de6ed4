//! Faithful re-implementation of the *original* ROMIO two-phase code path,
//! used as the paper's baseline ("old+vector" in Fig. 4).
//!
//! Characteristics (§5.3):
//! * each client **flattens its entire access** into `M` offset/length
//!   pairs up front and ships each aggregator its relevant sub-list — the
//!   metadata volume is O(M), but processing is O(M) too. The lists go as
//!   `ADIOI_Calc_others_req` sends them: one count per peer through
//!   [`Rank::alltoall`] (Bruck, ⌈log2 p⌉ steps), then a list only where
//!   the count is non-zero, through [`Rank::exchange`];
//! * file realms are always the even aggregate-access-region split —
//!   no alignment, no persistence, no pluggable assigners;
//! * data sieving is **integrated**: the collective buffer *is* the sieve
//!   buffer, so there is one less copy than the flexible engine, but the
//!   buffer-to-file method cannot be changed, and gap data lives in the
//!   collective buffer.
//!
//! The buffer cycles run on the shared pipeline core
//! (`engine::pipeline`), so `Hints::pipeline_depth` means the
//! same thing here as under the flexible engine — depth 1 charges exactly
//! like a serial loop (`tests/engine_pipeline_parity.rs`), deeper pipelines
//! overlap each cycle's *final* buffer-to-file request with the next
//! cycle's exchange. A write cycle's sieving *read* stays blocking at any
//! depth: it is the read half of a read-modify-write, and the payloads
//! can only be placed after it lands.

use crate::engine::common::{retry_io, verdict};
use crate::engine::flexible::DataBuf;
use crate::engine::pipeline::{self, CapPolicy, CycleDriver, ReadDriver, WriteDriver};
use crate::error::Result;
use crate::hints::{aggregator_ranks, Hints};
use crate::meta::ClientAccess;
use flexio_pfs::{FileHandle, IoCompletion};
use flexio_sim::{Phase, Rank};
use flexio_types::{MemLayout, Piece};

/// The wire form of `(offset, length)` pairs — the metadata lists and
/// the two scalar rounds alike: 16 little-endian bytes a pair.
fn encode_pairs(pairs: impl ExactSizeIterator<Item = (u64, u64)>) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 16);
    for (off, len) in pairs {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    out
}

/// The pairs [`encode_pairs`] wrote.
fn decode_pairs(buf: &[u8]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    buf.chunks_exact(16).map(move |c| (word(&c[..8]), word(&c[8..])))
}

/// A file-ordered extent the [`WindowSplitter`] cuts: a client's
/// [`Piece`] or an aggregator's received `(offset, length)` request.
trait Extent: Copy {
    fn off(&self) -> u64;
    fn size(&self) -> u64;
    /// The first `n` bytes (`0 < n < size`) and the rest.
    fn split(self, n: u64) -> (Self, Self);
}

impl Extent for Piece {
    fn off(&self) -> u64 {
        self.file_off
    }
    fn size(&self) -> u64 {
        self.len
    }
    fn split(self, n: u64) -> (Piece, Piece) {
        let (file_off, data_pos) = (self.file_off + n, self.data_pos + n);
        (Piece { len: n, ..self }, Piece { file_off, data_pos, len: self.len - n })
    }
}

impl Extent for (u64, u64) {
    fn off(&self) -> u64 {
        self.0
    }
    fn size(&self) -> u64 {
        self.1
    }
    fn split(self, n: u64) -> ((u64, u64), (u64, u64)) {
        ((self.0, n), (self.0 + n, self.1 - n))
    }
}

/// Cuts one file-ordered list into consecutive windows: each
/// [`take`](Self::take) returns the extents not yet taken that start below
/// the window's end, splitting the one that crosses it and carrying its
/// tail into the next window.
struct WindowSplitter<'l, E> {
    list: &'l [E],
    next: usize,
    tail: Option<E>,
}

impl<'l, E: Extent> WindowSplitter<'l, E> {
    fn new(list: &'l [E]) -> Self {
        WindowSplitter { list, next: 0, tail: None }
    }

    fn take(&mut self, win_end: u64) -> Vec<E> {
        let mut out = Vec::new();
        while let Some(e) = self.tail.or_else(|| self.list.get(self.next).copied()) {
            if e.off() >= win_end {
                break;
            }
            if self.tail.take().is_none() {
                self.next += 1;
            }
            if e.size() <= win_end - e.off() {
                out.push(e);
            } else {
                let (head, rest) = e.split(win_end - e.off());
                out.push(head);
                self.tail = Some(rest);
                break;
            }
        }
        out
    }
}

/// One precomputed buffer cycle: this rank's pieces per aggregator
/// (client role) and each client's requests inside my window (aggregator
/// role). Deriving them up front rather than cycle by cycle charges
/// nothing extra — the cursor walks are not charged (their pair
/// processing is paid when the lists are built and decoded) — and lets the
/// pipelined drive loop prefetch future cycles' reads.
struct RomioCycle {
    my_cycle: Vec<Vec<Piece>>,
    agg_cycle: Vec<Vec<(u64, u64)>>,
}

/// Run one collective read/write with the original ROMIO algorithm.
#[allow(clippy::too_many_lines)]
pub fn run(
    rank: &Rank,
    handle: &FileHandle,
    my: &ClientAccess,
    mem: &MemLayout,
    buf: DataBuf<'_>,
    hints: &Hints,
) -> Result<()> {
    let nprocs = rank.nprocs();

    // ---- flatten the ENTIRE access into M offset/length pairs ------------
    let mut all_pieces: Vec<Piece> = Vec::new();
    if my.data_len > 0 {
        let mut cur = my.view.cursor(my.data_start);
        let end = my.data_end();
        while cur.data_pos() < end {
            all_pieces.push(cur.take(end - cur.data_pos()));
        }
        rank.charge_pairs(cur.evaluated());
    }
    let m = all_pieces.len() as u64;

    // ---- aggregate access region (scalar allgather) -----------------------
    // Each rank stamps the file size it sees on entry, and a write's
    // sieving reads are charged below the largest (DESIGN "A collective
    // write's pre-read stops at the agreed size").
    let range = my.file_range().unwrap_or((u64::MAX, 0));
    let ranges = rank.allgatherv_stamped(&encode_pairs(std::iter::once(range)), handle.size());
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for (a, b) in ranges.iter().flat_map(decode_pairs) {
        if b > 0 {
            lo = lo.min(a);
            hi = hi.max(b);
        }
    }
    if hi <= lo {
        return Ok(());
    }

    // ---- even AAR realms; ship each aggregator its pair sub-list ----------
    // The old code's realms are always the unaligned even split of the
    // aggregate access region: boundaries are a closed formula.
    let n_agg = hints.aggregators(nprocs);
    let agg_ranks = aggregator_ranks(n_agg, nprocs);
    let len_aar = hi - lo;
    let bounds: Vec<u64> = (0..=n_agg as u64).map(|i| lo + len_aar * i / n_agg as u64).collect();

    // Partition my pieces by realm (splitting boundary-crossers), O(M).
    let mut per_agg: Vec<Vec<Piece>> = vec![Vec::new(); n_agg];
    for p in &all_pieces {
        let mut off = p.file_off;
        let mut data = p.data_pos;
        let mut len = p.len;
        while len > 0 {
            let a = bounds[1..n_agg].partition_point(|&b| b <= off);
            let realm_end = bounds[a + 1];
            let take = len.min(realm_end - off);
            per_agg[a].push(Piece { file_off: off, data_pos: data, len: take });
            off += take;
            data += take;
            len -= take;
        }
    }
    rank.charge_pairs(m);

    // Send every aggregator its offset/length list (O(M) metadata bytes),
    // as `ADIOI_Calc_others_req` does: one count per peer through the
    // count `alltoall`, then a list only where the count is non-zero.
    let mut counts = vec![0u64; nprocs];
    let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
    for (a, list) in per_agg.iter().enumerate() {
        if !list.is_empty() {
            counts[agg_ranks[a]] = list.len() as u64;
            sends.push((agg_ranks[a], encode_pairs(list.iter().map(|p| (p.file_off, p.len)))));
        }
    }
    let wire: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
    let counts_in = rank.alltoall(&wire);
    let recv_from: Vec<usize> =
        (0..nprocs).filter(|&c| counts_in[8 * c..8 * c + 8] != [0; 8]).collect();
    let lists_in = rank.exchange(sends, &recv_from);

    // Aggregator: decode everyone's requests for my realm.
    let my_agg_idx = agg_ranks.iter().position(|&r| r == rank.rank());
    let mut others: Vec<Vec<(u64, u64)>> = Vec::new();
    let (mut st, mut en) = (u64::MAX, 0u64);
    if my_agg_idx.is_some() {
        others = vec![Vec::new(); nprocs];
        for (c, list) in &lists_in {
            others[*c] = decode_pairs(list).collect();
        }
        let m_recv: u64 = others.iter().map(|l| l.len() as u64).sum();
        rank.charge_pairs(m_recv);
        for l in &others {
            if let Some(&(o, _)) = l.first() {
                st = st.min(o);
            }
            if let Some(&(o, len)) = l.last() {
                en = en.max(o + len);
            }
        }
    }

    // Everyone learns each aggregator's actual data bounds.
    let all_bounds = rank.allgatherv(&encode_pairs(std::iter::once((st, en))));
    let agg_bounds: Vec<(u64, u64)> =
        agg_ranks.iter().flat_map(|&ar| decode_pairs(&all_bounds[ar])).collect();

    let cb = hints.cb_buffer_size as u64;
    let ntimes = agg_bounds
        .iter()
        .map(|&(s, e)| if e > s { (e - s).div_ceil(cb) } else { 0 })
        .max()
        .unwrap_or(0);

    // ---- precompute every cycle's piece lists ------------------------------
    // Client side: one splitter per aggregator over my lists. Aggregator
    // side: one per client over the received lists.
    let mut cli: Vec<WindowSplitter<Piece>> =
        per_agg.iter().map(|l| WindowSplitter::new(l)).collect();
    let mut agg: Vec<WindowSplitter<(u64, u64)>> =
        others.iter().map(|l| WindowSplitter::new(l)).collect();
    let mut cycles: Vec<RomioCycle> = Vec::with_capacity(ntimes as usize);
    for t in 0..ntimes {
        // Window end per aggregator, in file space (the old code cycles
        // over the realm's file extent, not its data stream); `None` once
        // the realm is exhausted.
        let win_ends: Vec<Option<u64>> = agg_bounds
            .iter()
            .map(|&(s, e)| {
                if e <= s {
                    return None;
                }
                let w1 = (s + (t + 1) * cb).min(e);
                (s + t * cb < w1).then_some(w1)
            })
            .collect();
        // Client: pieces to each aggregator this cycle.
        let my_cycle: Vec<Vec<Piece>> = win_ends
            .iter()
            .zip(&mut cli)
            .map(|(w, split)| w.map_or_else(Vec::new, |w1| split.take(w1)))
            .collect();
        // Aggregator: requests from each client this cycle.
        let mut agg_cycle: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nprocs];
        if let Some(w1) = my_agg_idx.and_then(|ai| win_ends[ai]) {
            for (c, split) in agg.iter_mut().enumerate() {
                agg_cycle[c] = split.take(w1);
            }
        }
        cycles.push(RomioCycle { my_cycle, agg_cycle });
    }

    // ---- buffer cycles on the shared pipeline ------------------------------
    // No straggler watch (ROMIO has no realms to rebalance) and no
    // derive-overlap (the flattening cost was all charged up front), so
    // those slots stay empty; the depth semantics are exactly the
    // flexible engine's.
    let policy = CapPolicy::resolve(hints, handle.pfs().config().n_osts, agg_ranks.len());
    let (agg_ranks, cycles) = (&agg_ranks[..], &cycles[..]);
    let outcome = match buf {
        DataBuf::Write(user) => {
            let handle = &handle.clipped_at(ranges.max_stamp());
            let mut romio = Romio { rank, handle, my, mem, user, hints, agg_ranks, cycles };
            pipeline::drive_write(rank, handle, &mut romio, policy, None, None)
        }
        DataBuf::Read(user) => {
            let mut romio = Romio { rank, handle, my, mem, user, hints, agg_ranks, cycles };
            pipeline::drive_read(rank, handle, &mut romio, policy, None, None)
        }
    };
    verdict(rank, handle, outcome.err)
}

/// Spanning range of one cycle's requests at this aggregator:
/// `(blo, span, holes)`, or `None` when the cycle holds no data here.
fn cycle_span(agg_cycle: &[Vec<(u64, u64)>]) -> Option<(u64, u64, bool)> {
    let mut blo = u64::MAX;
    let mut bhi = 0u64;
    let mut covered = 0u64;
    for l in agg_cycle {
        for &(o, len) in l {
            blo = blo.min(o);
            bhi = bhi.max(o + len);
            covered += len;
        }
    }
    if blo == u64::MAX {
        return None;
    }
    Some((blo, bhi - blo, covered < bhi - blo))
}

/// One collective call's ROMIO cycle driver over the precomputed cycle
/// lists. The user buffer says the direction: `&[u8]` drives writes
/// ([`WriteDriver`]), `&mut [u8]` reads ([`ReadDriver`]).
struct Romio<'a, U> {
    rank: &'a Rank,
    handle: &'a FileHandle,
    my: &'a ClientAccess,
    mem: &'a MemLayout,
    user: U,
    hints: &'a Hints,
    agg_ranks: &'a [usize],
    cycles: &'a [RomioCycle],
}

impl<U> CycleDriver for Romio<'_, U> {
    fn n_cycles(&self) -> usize {
        self.cycles.len()
    }
}

/// One write cycle's exchanged payloads, awaiting the integrated
/// sieve-and-commit. The received buffers ARE the stage: placement into
/// the collective buffer needs the sieving read first, so it happens in
/// the issue half.
struct RomioWriteStage {
    /// Spanning range start of this cycle's requests.
    blo: u64,
    /// Spanning range length — the collective/sieve buffer size.
    span: u64,
    /// Whether the requests leave gaps (forcing the sieving read).
    holes: bool,
    received: Vec<(usize, Vec<u8>)>,
}

impl WriteDriver for Romio<'_, &[u8]> {
    type Stage = RomioWriteStage;

    fn exchange(&mut self, i: usize) -> Option<RomioWriteStage> {
        let RomioCycle { my_cycle, agg_cycle } = &self.cycles[i];
        // Client -> aggregator payloads (non-blocking exchange, as the old
        // code does). The send models an iovec run list borrowed off the
        // flattened view, so the `Vec` below is only the wire
        // representation — nothing charged, nothing in the ledger.
        let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
        for (a, pieces) in my_cycle.iter().enumerate() {
            if pieces.is_empty() {
                continue;
            }
            let total: u64 = pieces.iter().map(|p| p.len).sum();
            let mut payload = vec![0u8; total as usize];
            let mut pos = 0usize;
            for p in pieces {
                self.mem.gather(
                    self.user,
                    p.data_pos - self.my.data_start,
                    &mut payload[pos..pos + p.len as usize],
                );
                pos += p.len as usize;
            }
            sends.push((self.agg_ranks[a], payload));
        }
        let recv_from: Vec<usize> =
            agg_cycle.iter().enumerate().filter(|(_, l)| !l.is_empty()).map(|(c, _)| c).collect();
        let received = self.rank.exchange(sends, &recv_from);
        // Spanning range of this cycle's requests (pure arithmetic over
        // already-charged pairs); none where nothing was received.
        let (blo, span, holes) = cycle_span(agg_cycle)?;
        Some(RomioWriteStage { blo, span, holes, received })
    }

    /// Read the span if it has holes, place, write. The read half of the
    /// read-modify-write blocks at ANY pipeline depth: payloads cannot be
    /// placed over gap data that has not arrived. Only the commit write
    /// overlaps.
    fn issue(&mut self, i: usize, stage: RomioWriteStage) -> IoCompletion {
        let (rank, handle, hints) = (self.rank, self.handle, self.hints);
        let agg_cycle = &self.cycles[i].agg_cycle;
        let (t0, (t, err)) = if !stage.holes {
            // The requests tile the spanning range exactly, so the
            // collective buffer adds nothing: sort the received payloads'
            // request runs by file offset and commit them as one gathered
            // write, with no placement copy. With holes the buffer IS the
            // sieve buffer and the placement below stays (the
            // read-modify-write needs contiguous bytes).
            let mut plan: Vec<(u64, usize, usize, usize)> = Vec::new();
            for (ri, (src, _)) in stage.received.iter().enumerate() {
                let mut pos = 0usize;
                for &(o, len) in &agg_cycle[*src] {
                    plan.push((o, ri, pos, len as usize));
                    pos += len as usize;
                }
            }
            plan.sort_unstable_by_key(|r| r.0);
            let slices: Vec<&[u8]> = plan
                .iter()
                .map(|&(_, ri, pos, len)| &stage.received[ri].1[pos..pos + len])
                .collect();
            let t0 = rank.now();
            (t0, retry_io(rank, hints, t0, |at| handle.pwritev_nb(at, stage.blo, &slices).wait(at)))
        } else {
            // Integrated sieve: single buffer spanning [blo, blo+span).
            let mut cbuf = vec![0u8; stage.span as usize];
            let rt0 = rank.now();
            let (nt, read_err) =
                retry_io(rank, hints, rt0, |at| handle.read(at, stage.blo, &mut cbuf));
            rank.advance_to(nt);
            rank.note_phase(Phase::Io, nt - rt0);
            // Place every client's payload directly into the collective
            // buffer (this IS the sieve buffer: one copy total).
            let mut total_placed = 0u64;
            for (src, payload) in &stage.received {
                let mut pos = 0usize;
                for &(o, len) in &agg_cycle[*src] {
                    cbuf[(o - stage.blo) as usize..(o - stage.blo + len) as usize]
                        .copy_from_slice(&payload[pos..pos + len as usize]);
                    pos += len as usize;
                    total_placed += len;
                }
            }
            rank.charge_memcpy(total_placed);
            rank.tally(|s| s.bytes_copied += total_placed);
            let t0 = rank.now();
            let (t, write_err) = retry_io(rank, hints, t0, |at| handle.write(at, stage.blo, &cbuf));
            (t0, (t, read_err.or(write_err)))
        };
        IoCompletion::span(t0, t).or_error(err)
    }
}

/// One read cycle's collective buffer, read from the file and awaiting
/// slicing + distribution.
struct RomioReadStage {
    blo: u64,
    cbuf: Vec<u8>,
}

impl ReadDriver for Romio<'_, &mut [u8]> {
    type Stage = RomioReadStage;

    /// One sieving read of the cycle's spanning range.
    fn issue(&mut self, i: usize) -> Option<(IoCompletion, RomioReadStage)> {
        let (blo, span, _) = cycle_span(&self.cycles[i].agg_cycle)?;
        let mut cbuf = vec![0u8; span as usize];
        let t0 = self.rank.now();
        let (t, e) = retry_io(self.rank, self.hints, t0, |at| self.handle.read(at, blo, &mut cbuf));
        Some((IoCompletion::span(t0, t).or_error(e), RomioReadStage { blo, cbuf }))
    }

    /// Slice the collective buffer per client, exchange, scatter.
    fn distribute(&mut self, i: usize, stage: Option<RomioReadStage>) {
        let RomioCycle { my_cycle, agg_cycle } = &self.cycles[i];
        // Aggregator: slice the collective buffer per client. The buffer
        // persists in the stage, so each client's send models an iovec
        // run list pointing straight into it — the slicing pass below is
        // wire representation only, not a charged copy.
        let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
        if let Some(stage) = stage {
            for (c, l) in agg_cycle.iter().enumerate() {
                if l.is_empty() {
                    continue;
                }
                let mut payload = Vec::with_capacity(l.iter().map(|&(_, n)| n as usize).sum());
                for &(o, len) in l {
                    payload.extend_from_slice(
                        &stage.cbuf[(o - stage.blo) as usize..(o - stage.blo + len) as usize],
                    );
                }
                sends.push((c, payload));
            }
        }
        let mine: Vec<(usize, &Vec<Piece>)> =
            my_cycle.iter().enumerate().filter(|(_, p)| !p.is_empty()).collect();
        let recv_from: Vec<usize> = mine.iter().map(|&(a, _)| self.agg_ranks[a]).collect();
        // The receives come back in `recv_from` order, ascending
        // aggregator, so each pairs with its pieces by position.
        let received = self.rank.exchange(sends, &recv_from);
        for ((_, pieces), (_, payload)) in mine.iter().zip(&received) {
            // Received into the user buffer's runs directly: no charge.
            let mut pos = 0usize;
            for p in pieces.iter() {
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

    fn piece(file_off: u64, data_pos: u64, len: u64) -> Piece {
        Piece { file_off, data_pos, len }
    }

    #[test]
    fn a_piece_crossing_one_window_end_is_split_there() {
        let list = [piece(0, 0, 4), piece(6, 4, 6), piece(20, 10, 2)];
        let mut split = WindowSplitter::new(&list);
        assert_eq!(split.take(8), vec![piece(0, 0, 4), piece(6, 4, 2)]);
        // The tail keeps its data position; the next piece follows it.
        assert_eq!(split.take(16), vec![piece(8, 6, 4)]);
        assert_eq!(split.take(24), vec![piece(20, 10, 2)]);
        assert_eq!(split.take(32), vec![]);
    }

    #[test]
    fn a_request_crossing_two_window_ends_is_cut_into_three() {
        let list = [(2u64, 20u64), (30, 1)];
        let mut split = WindowSplitter::new(&list);
        assert_eq!(split.take(8), vec![(2, 6)]);
        assert_eq!(split.take(16), vec![(8, 8)]);
        assert_eq!(split.take(24), vec![(16, 6)]);
        assert_eq!(split.take(32), vec![(30, 1)]);
    }

    #[test]
    fn a_tail_waits_through_a_window_that_takes_nothing() {
        // A window ending at or below the carried tail takes nothing and
        // keeps the tail for the next one.
        let list = [piece(4, 0, 8)];
        let mut split = WindowSplitter::new(&list);
        assert_eq!(split.take(6), vec![piece(4, 0, 2)]);
        assert_eq!(split.take(6), vec![]);
        assert_eq!(split.take(12), vec![piece(6, 2, 6)]);
        assert_eq!(split.take(u64::MAX), vec![]);
    }

    #[test]
    fn an_empty_list_yields_empty_windows() {
        let mut split = WindowSplitter::<(u64, u64)>::new(&[]);
        assert_eq!(split.take(0), vec![]);
        assert_eq!(split.take(u64::MAX), vec![]);
    }
}
