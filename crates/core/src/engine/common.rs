//! Machinery shared by both two-phase engines.

use crate::error::IoError;
use crate::meta::ClientAccess;
use flexio_pfs::{FileHandle, PfsError, PfsErrorKind};
use flexio_sim::Rank;
use flexio_types::{CursorPos, Piece, ViewCursor};
use std::sync::Arc;

/// Integer exponential moving average with α = 1/4: `None` seeds with the
/// first sample, after which each update moves a quarter of the way to the
/// new value. Used to smooth per-cycle I/O and exchange durations so one
/// outlier cycle (a straggling OST, a cold lock) doesn't whipsaw the
/// pipeline depth or the straggler detector.
pub fn ewma(prev: Option<u64>, x: u64) -> u64 {
    match prev {
        None => x,
        Some(e) => (3 * e + x) / 4,
    }
}

/// Drive one idempotent file-system request through the retry loop:
/// reissue a transiently failed request up to `hints.io_retries` times,
/// each attempt preceded by an exponentially doubling backoff charged in
/// virtual time (`hints.retry_backoff_us << attempt`). The fault model
/// guarantees requests move their data even when the request itself fails
/// (server committed, reply lost), so a reissue only re-pays the virtual
/// window. `op` takes the attempt's start time and returns the completion
/// time or a fault stamped with the would-be completion time. Returns the
/// final clock and the last error if every attempt failed.
pub fn retry_io(
    rank: &Rank,
    hints: &crate::hints::Hints,
    start: u64,
    mut op: impl FnMut(u64) -> Result<u64, PfsError>,
) -> (u64, Option<PfsError>) {
    let mut t = start;
    let mut attempt = 0u32;
    loop {
        match op(t) {
            Ok(done) => return (done, None),
            Err(e) if attempt >= hints.io_retries => return (e.at, Some(e)),
            Err(e) => {
                let backoff = hints
                    .retry_backoff_us
                    .saturating_mul(1000)
                    .saturating_mul(1u64 << attempt.min(32));
                t = e.at.saturating_add(backoff);
                rank.tally(|s| s.io_retries += 1);
                attempt += 1;
            }
        }
    }
}

/// Collectively agree on the outcome of a collective call after retries
/// are exhausted. Every rank contributes its local verdict (`None` =
/// success); every rank returns the *same* `Option<PfsError>` — the
/// lowest-ranked reporter's error wins, stamped with that reporter's
/// failure time — so a faulted collective can never hang some ranks or
/// split the world between `Ok` and `Err`.
///
/// Two `allreduce_min` rounds: the first elects the winning error (success
/// encodes as `u64::MAX`, an error as `rank << 32 | ost << 8 | kind`, so
/// the minimum is a concrete reporter), the second carries the winner's
/// failure timestamp.
pub fn agree_error(rank: &Rank, local: Option<PfsError>) -> Option<PfsError> {
    let kind_code = |k: PfsErrorKind| match k {
        PfsErrorKind::TransientOst => 1u64,
        PfsErrorKind::TornWrite => 2u64,
    };
    let mine = match &local {
        Some(e) => {
            ((rank.rank() as u64) << 32) | ((e.ost as u64 & 0xff_ffff) << 8) | kind_code(e.kind)
        }
        None => u64::MAX,
    };
    let winner = rank.allreduce_min(mine);
    if winner == u64::MAX {
        return None;
    }
    let at_vote = if mine == winner {
        local.expect("winning encoding implies a local error").at
    } else {
        u64::MAX
    };
    let at = rank.allreduce_min(at_vote);
    let kind = match winner & 0xff {
        1 => PfsErrorKind::TransientOst,
        2 => PfsErrorKind::TornWrite,
        c => unreachable!("unknown agreed fault kind code {c}"),
    };
    Some(PfsError { kind, ost: ((winner >> 8) & 0xff_ffff) as usize, at })
}

/// The verdict that ends both engines' calls. It is gated on the fault
/// plan's presence: without one no request can fail, so no agreement
/// round is charged (fault-free runs stay charge-identical); with one
/// every rank sees the same plan, so all ranks [`agree_error`] together
/// and return the same verdict.
pub(crate) fn verdict(
    rank: &Rank,
    handle: &FileHandle,
    err: Option<PfsError>,
) -> crate::error::Result<()> {
    if handle.pfs().fault_plan().is_none() {
        debug_assert!(err.is_none(), "a fault was reported without a fault plan");
        return Ok(());
    }
    agree_error(rank, err).map_or(Ok(()), |e| Err(IoError::Transient(e)))
}

/// Append to `out` the pieces of a client's access that fall inside the
/// window `win` (sorted disjoint file segments); nothing is allocated for
/// an empty intersection. `cur` is the stream's cursor, standing before
/// `data_end`, which clips to the client's access length. Returns the
/// data position the cursor stops at.
fn intersect_window(
    cur: &mut ViewCursor<'_>,
    data_end: u64,
    win: &[(u64, u64)],
    out: &mut Vec<Piece>,
) -> u64 {
    let mut pos = cur.data_pos();
    for &(ws, wlen) in win {
        cur.advance_to_file(ws);
        pos = cur.data_pos();
        while pos < data_end {
            let Some(p) = cur.take_below(ws + wlen, data_end - pos) else { break };
            out.push(p);
            pos += p.len;
        }
        if pos >= data_end {
            break;
        }
    }
    pos
}

/// A cursor wrapper over the reconstructed view of a client, so
/// aggregators can walk other ranks' filetypes (§5.3: "the aggregator must
/// calculate them itself"). A derivation opens one stream per client and
/// rewinds it (`ClientStream::rewind`) for each aggregator.
///
/// The stream keeps its cursor's position between walks, so a walk
/// resumes where the last one left off with no seek. A window that holds
/// none of the stream's bytes costs the host one closed-form
/// [`ViewCursor::advance_to_file`](flexio_types::ViewCursor::advance_to_file)
/// per window segment and is charged exactly what walking it pair by
/// pair would charge.
pub struct ClientStream {
    access: Arc<ClientAccess>,
    /// Data position reached.
    data_pos: u64,
    /// The cursor's position at `data_pos`, exactly as a cursor seeking
    /// `data_pos` would stand.
    pos: CursorPos,
    /// File offset of data byte `data_pos`, `u64::MAX` once the access is
    /// exhausted: a window ending at or below it holds nothing of the
    /// stream, and walking it charges nothing.
    next_off: u64,
    /// `pos` and `next_off` at the access's first data byte, computed once.
    first: (CursorPos, u64),
}

impl ClientStream {
    /// Start a stream at the client's first data byte.
    pub fn new(access: impl Into<Arc<ClientAccess>>) -> Self {
        let access = access.into();
        let data_pos = access.data_start;
        let cur = access.view.cursor(data_pos);
        let first = (cur.pos(), if access.data_len == 0 { u64::MAX } else { cur.file_off() });
        ClientStream { access, data_pos, pos: first.0, next_off: first.1, first }
    }

    /// Back to the client's first data byte, as [`ClientStream::new`]
    /// left it.
    pub(crate) fn rewind(&mut self) {
        self.data_pos = self.access.data_start;
        (self.pos, self.next_off) = self.first;
    }

    /// File offset of the stream's next data byte (`u64::MAX` once the
    /// access is exhausted). [`ClientStream::take_window_into`] over a
    /// window that ends at or below it charges 0, appends nothing and
    /// leaves the stream where it was.
    pub(crate) fn next_off(&self) -> u64 {
        self.next_off
    }

    /// Pieces of this client inside `win`; returns (pieces, pairs_charged).
    pub fn take_window(&mut self, win: &[(u64, u64)]) -> (Vec<Piece>, u64) {
        let mut pieces = Vec::new();
        let charged = self.take_window_into(win, &mut pieces);
        (pieces, charged)
    }

    /// [`ClientStream::take_window`] appending the pieces to `out`;
    /// returns the pairs charged.
    pub fn take_window_into(&mut self, win: &[(u64, u64)], out: &mut Vec<Piece>) -> u64 {
        let data_end = self.access.data_end();
        if win.is_empty() || self.access.data_len == 0 || self.data_pos >= data_end {
            return 0;
        }
        let mut cur = self.access.view.cursor_at(self.pos);
        let from = out.len();
        let reached = intersect_window(&mut cur, data_end, win, out);
        self.data_pos = match out[from..].last() {
            Some(last) => last.data_pos + last.len,
            // The cursor advanced past the window even with no data there.
            None => reached.min(data_end),
        };
        if self.data_pos >= data_end {
            self.next_off = u64::MAX;
        } else if reached == self.data_pos {
            self.pos = cur.pos();
            self.next_off = cur.file_off();
        } else {
            // A later segment of the window moved the cursor past the last
            // piece; the stream resumes after the piece, where a cursor
            // seeking it stands.
            let resumed = self.access.view.cursor(self.data_pos);
            self.pos = resumed.pos();
            self.next_off = resumed.file_off();
        }
        cur.evaluated()
    }

    /// What [`ClientStream::take_window_into`] would do with a window
    /// starting at `start`, past the stream's next byte, if the window
    /// holds none of the stream's bytes: `None` if `start` is one of them.
    /// The walk's closed-form skip is piecewise constant in the window's
    /// start, so one answer covers every window that starts in `[start,
    /// run.until)` and ends at or below `run.next`: the stream's next byte
    /// from `start` on, `u64::MAX` once the access is exhausted (past its
    /// end only the first segment's skip is charged, whatever the window's
    /// end). Each such walk charges `run.charge` and appends nothing.
    pub(crate) fn empty_run(&self, start: u64) -> Option<EmptyRun> {
        debug_assert!(start > self.next_off, "a window at or below the stream's next byte");
        let view = &self.access.view;
        let mut cur = view.cursor_at(self.pos);
        cur.advance_to_file(start);
        let extent = view.ftype().extent;
        // The skip charges a pair per segment end passed in the target
        // tile and one for a tile jump: it changes at the next segment end,
        // or where the next tile begins if `start` lies in a trailing gap.
        let start_tile = view.disp() + (start - view.disp()) / extent * extent;
        let until = if cur.tile_start() > start_tile { cur.tile_start() } else { cur.seg_end() };
        let charge = cur.evaluated();
        if cur.data_pos() >= self.access.data_end() {
            Some(EmptyRun { charge, until, next: u64::MAX })
        } else if cur.file_off() == start {
            None
        } else {
            Some(EmptyRun { charge, until: until.min(cur.file_off()), next: cur.file_off() })
        }
    }
}

/// A run of window starts whose walks hold nothing of a stream and are
/// charged alike ([`ClientStream::empty_run`]).
pub(crate) struct EmptyRun {
    /// Pairs each such walk charges.
    pub charge: u64,
    /// Window starts below this share the charge.
    pub until: u64,
    /// Windows ending at or below this hold none of the stream's bytes.
    pub next: u64,
}

/// One assembly-plan entry: `(file_off, client, piece_idx, len)`.
pub type PlanEntry = (u64, usize, usize, u64);

/// Merge per-client piece lists into a file-ordered plan: returns
/// `(entries, segs)` where entries are sorted by file offset and `segs`
/// are the merged `(off, len)` runs.
pub fn merge_pieces<P: AsRef<[Piece]>>(
    per_client: &[(usize, P)],
) -> (Vec<PlanEntry>, Vec<(u64, u64)>) {
    let mut entries: Vec<(u64, usize, usize, u64)> =
        Vec::with_capacity(per_client.iter().map(|(_, p)| p.as_ref().len()).sum());
    for (client, pieces) in per_client {
        for (i, p) in pieces.as_ref().iter().enumerate() {
            entries.push((p.file_off, *client, i, p.len));
        }
    }
    // Each client's pieces arrive in file order, so this is a merge of a
    // few presorted runs — what the stable sort is fast at. Entries are
    // distinct, so stability itself changes nothing.
    entries.sort();
    let mut segs: Vec<(u64, u64)> = Vec::with_capacity(entries.len());
    for &(off, _, _, len) in &entries {
        match segs.last_mut() {
            Some(last) if last.0 + last.1 == off => last.1 += len,
            _ => segs.push((off, len)),
        }
    }
    (entries, segs)
}

/// Split file-ordered data segments into groups, one per realm window
/// segment. Data sieving must never span a realm boundary: the gap bytes
/// between two realm chunks belong to *other* aggregators, and writing
/// them back from a sieve buffer would race with their owners. Each group
/// is safe to sieve because every byte in its bounding box is owned by
/// this aggregator's realm chunk.
pub fn group_by_window(
    segs: &[(u64, u64)],
    window: &[(u64, u64)],
) -> Vec<(usize, Vec<(u64, u64)>)> {
    let mut groups: Vec<(usize, Vec<(u64, u64)>)> = Vec::new();
    let mut wi = 0usize;
    let mut current: Vec<(u64, u64)> = Vec::new();
    for &(off, len) in segs {
        while wi < window.len() && window[wi].0 + window[wi].1 <= off {
            if !current.is_empty() {
                groups.push((wi, std::mem::take(&mut current)));
            }
            wi += 1;
        }
        debug_assert!(
            wi < window.len() && off >= window[wi].0 && off + len <= window[wi].0 + window[wi].1,
            "data segment ({off},{len}) outside realm window"
        );
        current.push((off, len));
    }
    if !current.is_empty() {
        groups.push((wi, current));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_types::{flatten, Datatype, FileView};
    use std::sync::Arc;

    fn access(disp: u64, block: u64, extent: u64, start: u64, len: u64) -> ClientAccess {
        let dt = Datatype::resized(0, extent, Datatype::bytes(block));
        ClientAccess {
            view: FileView::new(disp, Arc::new(flatten(&dt)), 1).unwrap(),
            data_start: start,
            data_len: len,
        }
    }

    #[test]
    fn intersect_single_window() {
        // 4 data / 4 gap, disp 0; window [0, 10)
        let (pieces, _) = ClientStream::new(access(0, 4, 8, 0, 100)).take_window(&[(0, 10)]);
        assert_eq!(
            pieces,
            vec![
                Piece { file_off: 0, data_pos: 0, len: 4 },
                Piece { file_off: 8, data_pos: 4, len: 2 },
            ]
        );
    }

    #[test]
    fn intersect_respects_data_end() {
        let (pieces, _) = ClientStream::new(access(0, 4, 8, 0, 5)).take_window(&[(0, 100)]);
        let total: u64 = pieces.iter().map(|p| p.len).sum();
        assert_eq!(total, 5);
        assert_eq!(pieces.last().unwrap().file_off, 8);
    }

    #[test]
    fn intersect_multi_segment_window() {
        let (pieces, _) =
            ClientStream::new(access(0, 4, 8, 0, 100)).take_window(&[(0, 4), (16, 4)]);
        assert_eq!(
            pieces,
            vec![
                Piece { file_off: 0, data_pos: 0, len: 4 },
                Piece { file_off: 16, data_pos: 8, len: 4 },
            ]
        );
    }

    #[test]
    fn client_stream_monotonic_windows() {
        let a = access(0, 4, 8, 0, 100);
        let mut s = ClientStream::new(a);
        let (p1, c1) = s.take_window(&[(0, 8)]);
        assert_eq!(p1.len(), 1);
        assert!(c1 > 0);
        let (p2, _) = s.take_window(&[(8, 8)]);
        assert_eq!(p2, vec![Piece { file_off: 8, data_pos: 4, len: 4 }]);
        let (p3, _) = s.take_window(&[(16, 16)]);
        let total: u64 = p3.iter().map(|p| p.len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn client_stream_empty_access() {
        let a = access(0, 4, 8, 0, 0);
        let mut s = ClientStream::new(a);
        let (p, c) = s.take_window(&[(0, 100)]);
        assert!(p.is_empty());
        assert_eq!(c, 0);
    }

    #[test]
    fn client_stream_offset_start() {
        // data_start 6 -> begins mid-second-block (file 10).
        let a = access(0, 4, 8, 6, 10);
        let mut s = ClientStream::new(a);
        let (p, _) = s.take_window(&[(0, 100)]);
        assert_eq!(p[0], Piece { file_off: 10, data_pos: 6, len: 2 });
        let total: u64 = p.iter().map(|x| x.len).sum();
        assert_eq!(total, 10);
    }

    /// A window ending at or below the stream's next byte charges 0, yields
    /// nothing, and leaves the stream as a stream that never saw it.
    fn assert_skippable(s: &mut ClientStream, fresh: &mut ClientStream, win: &[(u64, u64)]) {
        let end = win.last().map_or(0, |&(o, l)| o + l);
        assert!(end <= s.next_off(), "window {win:?} reaches past the next byte {}", s.next_off());
        assert_eq!(s.take_window(win), (Vec::new(), 0), "window {win:?}");
        assert_eq!(s.next_off(), fresh.next_off());
        assert_eq!(s.take_window(&[(0, 1000)]), fresh.take_window(&[(0, 1000)]));
    }

    #[test]
    fn a_window_at_or_below_the_next_byte_is_a_walk_that_does_nothing() {
        // 4 data / 4 gap from file 0; the stream starts at data 2 (file 2).
        let a = Arc::new(access(0, 4, 8, 2, 40));
        let at = |wins: &[&[(u64, u64)]]| {
            let mut s = ClientStream::new(Arc::clone(&a));
            for w in wins {
                s.take_window(w);
            }
            s
        };
        assert_eq!(at(&[]).next_off(), 2);
        assert_skippable(&mut at(&[]), &mut at(&[]), &[(0, 2)]);
        // A piece cut by the window's end: the next byte is the cut.
        let cut: &[(u64, u64)] = &[(0, 10)];
        assert_eq!(at(&[cut]).next_off(), 10);
        assert_skippable(&mut at(&[cut]), &mut at(&[cut]), &[(3, 2), (9, 1)]);
        // A piece that ends its region: the next byte is across the gap,
        // taken from the walk's cursor, so a window inside the gap skips.
        let whole: &[(u64, u64)] = &[(0, 4)];
        assert_eq!(at(&[whole]).next_off(), 8);
        assert_skippable(&mut at(&[whole]), &mut at(&[whole]), &[(4, 4)]);
        // A later window segment moved the cursor past the last piece: the
        // stream still resumes right after the piece.
        let past: &[(u64, u64)] = &[(0, 3), (21, 2)];
        let (pieces, _) = at(&[]).take_window(past);
        assert_eq!(pieces, vec![Piece { file_off: 2, data_pos: 2, len: 1 }]);
        assert_eq!(at(&[past]).next_off(), 3);
        assert_skippable(&mut at(&[past]), &mut at(&[past]), &[(1, 2)]);
        // A window with nothing of the stream still moves it (and charges).
        let dry: &[(u64, u64)] = &[(4, 4), (12, 4)];
        let mut s = at(&[]);
        let (pieces, charged) = s.take_window(dry);
        assert!(pieces.is_empty() && charged > 0);
        assert_eq!(s.next_off(), 16);
        assert_skippable(&mut at(&[dry]), &mut at(&[dry]), &[(15, 1)]);
        // Exhausted: every window is skippable.
        let all: &[(u64, u64)] = &[(0, 1 << 20)];
        assert_eq!(at(&[all]).next_off(), u64::MAX);
        assert_eq!(at(&[all]).take_window(&[(0, u64::MAX / 2)]), (Vec::new(), 0));
        assert_eq!(ClientStream::new(access(0, 4, 8, 2, 0)).next_off(), u64::MAX);
    }

    #[test]
    fn a_rewound_stream_is_a_new_stream() {
        let a = Arc::new(access(5, 3, 7, 4, 30));
        let windows: [&[(u64, u64)]; 4] =
            [&[(0, 12)], &[(12, 2), (20, 9)], &[(29, 1)], &[(30, 100)]];
        let mut s = ClientStream::new(Arc::clone(&a));
        for w in &windows[..3] {
            s.take_window(w);
        }
        s.rewind();
        let mut fresh = ClientStream::new(a);
        assert_eq!(s.next_off(), fresh.next_off());
        for w in windows {
            assert_eq!(s.take_window(w), fresh.take_window(w), "window {w:?}");
            assert_eq!(s.next_off(), fresh.next_off());
        }
    }

    #[test]
    fn group_by_window_splits_at_realm_chunks() {
        let window = [(0u64, 100u64), (300, 100), (600, 50)];
        let segs = [(10u64, 20u64), (50, 10), (310, 5), (620, 10)];
        let groups = group_by_window(&segs, &window);
        assert_eq!(
            groups,
            vec![(0, vec![(10, 20), (50, 10)]), (1, vec![(310, 5)]), (2, vec![(620, 10)])]
        );
    }

    #[test]
    fn group_by_window_single_chunk() {
        let window = [(0u64, 1000u64)];
        let segs = [(10u64, 20u64), (500, 10)];
        assert_eq!(group_by_window(&segs, &window), vec![(0, vec![(10, 20), (500, 10)])]);
    }

    #[test]
    fn group_by_window_skips_empty_chunks() {
        let window = [(0u64, 10u64), (20, 10), (40, 10)];
        let segs = [(42u64, 3u64)];
        assert_eq!(group_by_window(&segs, &window), vec![(2, vec![(42, 3)])]);
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        assert_eq!(ewma(None, 100), 100);
        assert_eq!(ewma(Some(100), 100), 100);
        assert_eq!(ewma(Some(100), 200), 125);
        assert_eq!(ewma(Some(200), 0), 150);
        assert_eq!(ewma(Some(0), 0), 0);
    }

    #[test]
    fn agree_error_unanimous_success() {
        let outcomes =
            flexio_sim::run(4, flexio_sim::CostModel::default(), |rank| agree_error(rank, None));
        assert!(outcomes.iter().all(|o| o.is_none()));
    }

    #[test]
    fn agree_error_lowest_rank_wins_everywhere() {
        let outcomes = flexio_sim::run(4, flexio_sim::CostModel::default(), |rank| {
            // Ranks 1 and 3 fail locally with different errors; all four
            // must agree on rank 1's.
            let local = match rank.rank() {
                1 => Some(PfsError { kind: PfsErrorKind::TransientOst, ost: 5, at: 777 }),
                3 => Some(PfsError { kind: PfsErrorKind::TransientOst, ost: 9, at: 111 }),
                _ => None,
            };
            agree_error(rank, local)
        });
        let expect = PfsError { kind: PfsErrorKind::TransientOst, ost: 5, at: 777 };
        assert!(outcomes.iter().all(|o| *o == Some(expect)), "{outcomes:?}");
    }

    #[test]
    fn agree_error_round_trips_torn_write_kind() {
        let outcomes = flexio_sim::run(3, flexio_sim::CostModel::default(), |rank| {
            let local = (rank.rank() == 2).then_some(PfsError {
                kind: PfsErrorKind::TornWrite,
                ost: 3,
                at: 42,
            });
            agree_error(rank, local)
        });
        let expect = PfsError { kind: PfsErrorKind::TornWrite, ost: 3, at: 42 };
        assert!(outcomes.iter().all(|o| *o == Some(expect)), "{outcomes:?}");
    }

    #[test]
    fn merge_pieces_sorts_and_merges() {
        let per_client = vec![
            (0usize, vec![Piece { file_off: 8, data_pos: 0, len: 4 }]),
            (
                1usize,
                vec![
                    Piece { file_off: 0, data_pos: 0, len: 4 },
                    Piece { file_off: 12, data_pos: 4, len: 4 },
                ],
            ),
        ];
        let (entries, segs) = merge_pieces(&per_client);
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[1].0, 8);
        assert_eq!(entries[2].0, 12);
        assert_eq!(segs, vec![(0, 4), (8, 8)]);
    }
}
