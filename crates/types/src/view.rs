//! File views and streaming cursors over tiled datatypes.
//!
//! A [`FileView`] is the MPI `MPI_File_set_view` abstraction: a flattened
//! filetype tiled forever from a byte displacement (Fig. 1 of the paper).
//! Accessible bytes form a *data space*: data byte `d` of the view maps to a
//! unique, increasing file offset.
//!
//! [`ViewCursor`] streams `(file_offset, data_pos, len)` pieces in file
//! order and supports the paper's "skip full datatypes" optimization
//! (§6.2): advancing to a target file offset skips whole filetype instances
//! in O(1) but must *scan* offset/length pairs within an instance, counting
//! each pair it evaluates. A succinct filetype (small `D`, many tiles) skips
//! cheaply; a filetype that enumerates the entire access (`D = M`, one tile)
//! is charged a linear scan — exactly the `new+struct` vs `new+vector`
//! asymmetry of Fig. 4. The charge is the scan's; the host counts the
//! pairs with a search over the segment ends instead of visiting them.

use crate::flatten::FlatType;
use std::sync::Arc;

/// Errors from view construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// Filetype has no data bytes.
    EmptyFiletype,
    /// Filetype displacements must be monotonically non-decreasing.
    NotMonotonic,
    /// Filetype typemap has a negative displacement.
    NegativeDispl,
    /// Filetype extent is smaller than its upper bound: tiles would overlap.
    OverlappingTiles,
    /// Filetype size is not a multiple of the etype size.
    EtypeMismatch,
    /// Zero etype size.
    ZeroEtype,
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViewError::EmptyFiletype => "filetype has zero size",
            ViewError::NotMonotonic => "filetype displacements are not monotonic",
            ViewError::NegativeDispl => "filetype has a negative displacement",
            ViewError::OverlappingTiles => "filetype extent smaller than upper bound",
            ViewError::EtypeMismatch => "filetype size is not a multiple of etype size",
            ViewError::ZeroEtype => "etype size is zero",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ViewError {}

/// A file view: flattened filetype tiled forever from `disp`.
#[derive(Debug, Clone)]
pub struct FileView {
    disp: u64,
    ftype: Arc<FlatType>,
    etype_size: u64,
}

impl FileView {
    /// Construct a view. Enforces the MPI filetype rules: non-negative
    /// monotonic displacements, non-zero size, size a multiple of the etype
    /// size, and extent ≥ upper bound so tiles never overlap.
    pub fn new(disp: u64, ftype: Arc<FlatType>, etype_size: u64) -> Result<Self, ViewError> {
        if etype_size == 0 {
            return Err(ViewError::ZeroEtype);
        }
        if ftype.size == 0 {
            return Err(ViewError::EmptyFiletype);
        }
        if !ftype.monotonic {
            return Err(ViewError::NotMonotonic);
        }
        if ftype.segs.first().map(|s| s.off < 0).unwrap_or(false) {
            return Err(ViewError::NegativeDispl);
        }
        let ub = ftype.segs.last().map(|s| s.end()).unwrap_or(0);
        if (ftype.extent as i64) < ub {
            return Err(ViewError::OverlappingTiles);
        }
        if !ftype.size.is_multiple_of(etype_size) {
            return Err(ViewError::EtypeMismatch);
        }
        Ok(FileView { disp, ftype, etype_size })
    }

    /// A fully contiguous byte view starting at `disp`.
    pub fn contiguous(disp: u64) -> Self {
        FileView { disp, ftype: Arc::new(FlatType::contiguous_bytes(1 << 40)), etype_size: 1 }
    }

    /// View displacement in bytes.
    pub fn disp(&self) -> u64 {
        self.disp
    }

    /// The flattened filetype.
    pub fn ftype(&self) -> &Arc<FlatType> {
        &self.ftype
    }

    /// Etype size in bytes.
    pub fn etype_size(&self) -> u64 {
        self.etype_size
    }

    /// `D`: offset/length pairs per filetype instance.
    pub fn d(&self) -> usize {
        self.ftype.segs.len()
    }

    /// True if the view is an unbroken byte stream (no holes between data).
    pub fn is_contiguous(&self) -> bool {
        self.ftype.contiguous && self.ftype.size == self.ftype.extent
    }

    /// File offset of data byte `d`.
    pub fn data_to_file(&self, d: u64) -> u64 {
        let tile = d / self.ftype.size;
        let within = d % self.ftype.size;
        let (_, rel) = self.ftype.data_to_displ(within);
        self.disp + tile * self.ftype.extent + rel as u64
    }

    /// Smallest data position whose file offset is ≥ `off` (O(log D)).
    pub fn file_to_data_lower(&self, off: u64) -> u64 {
        if off <= self.disp {
            return 0;
        }
        let rel = off - self.disp;
        let tile = rel / self.ftype.extent;
        let within = (rel % self.ftype.extent) as i64;
        let base = tile * self.ftype.size;
        // First segment whose end is > within.
        let i = self.ftype.segs.partition_point(|s| s.end() <= within);
        if i == self.ftype.segs.len() {
            // `off` lands in the trailing gap: next data is the next tile.
            return base + self.ftype.size;
        }
        let s = self.ftype.segs[i];
        if within <= s.off {
            base + self.ftype.prefix[i]
        } else {
            base + self.ftype.prefix[i] + (within - s.off) as u64
        }
    }

    /// Exclusive end file offset of an access covering data bytes
    /// `[0, nbytes)` starting at data position `start`.
    pub fn access_range(&self, start: u64, nbytes: u64) -> (u64, u64) {
        assert!(nbytes > 0);
        let first = self.data_to_file(start);
        let last = self.data_to_file(start + nbytes - 1);
        (first, last + 1)
    }

    /// Make a cursor positioned at data byte `pos`.
    pub fn cursor(&self, pos: u64) -> ViewCursor<'_> {
        let mut c = ViewCursor { view: self, tile: 0, seg: 0, within: 0, evaluated: 0 };
        c.seek_data(pos);
        c
    }

    /// Make a cursor standing where `pos` says, with nothing evaluated:
    /// no seek, so nothing to divide or search. `pos` must come from
    /// [`ViewCursor::pos`] on a cursor over this view.
    #[inline]
    pub fn cursor_at(&self, pos: CursorPos) -> ViewCursor<'_> {
        debug_assert!(pos.seg < self.ftype.segs.len(), "position of another view");
        ViewCursor { view: self, tile: pos.tile, seg: pos.seg, within: pos.within, evaluated: 0 }
    }
}

/// Where a [`ViewCursor`] stands, without the borrow of its view: kept
/// between walks, it lets a cursor resume ([`FileView::cursor_at`])
/// instead of seeking again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorPos {
    tile: u64,
    seg: usize,
    within: u64,
}

/// One streamed piece of an access: a contiguous file run plus the data
/// position it corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Absolute file offset.
    pub file_off: u64,
    /// Position in the view's data space.
    pub data_pos: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Streaming cursor over a [`FileView`]'s data space, in file order.
#[derive(Debug, Clone)]
pub struct ViewCursor<'a> {
    view: &'a FileView,
    tile: u64,
    seg: usize,
    /// Bytes consumed within the current segment.
    within: u64,
    /// Offset/length pairs examined so far (the paper's processing cost).
    evaluated: u64,
}

impl<'a> ViewCursor<'a> {
    fn ft(&self) -> &FlatType {
        &self.view.ftype
    }

    /// Current data position.
    #[inline]
    pub fn data_pos(&self) -> u64 {
        self.tile * self.ft().size + self.ft().prefix[self.seg] + self.within
    }

    /// File offset of the next data byte.
    #[inline]
    pub fn file_off(&self) -> u64 {
        let s = self.ft().segs[self.seg];
        self.view.disp + self.tile * self.ft().extent + (s.off as u64) + self.within
    }

    /// File offset one past the end of the cursor's current segment.
    #[inline]
    pub fn seg_end(&self) -> u64 {
        self.tile_start() + self.ft().segs[self.seg].end() as u64
    }

    /// File offset of the cursor's filetype instance (its tile).
    #[inline]
    pub fn tile_start(&self) -> u64 {
        self.view.disp + self.tile * self.ft().extent
    }

    /// Where the cursor stands.
    #[inline]
    pub fn pos(&self) -> CursorPos {
        CursorPos { tile: self.tile, seg: self.seg, within: self.within }
    }

    /// Number of offset/length pairs evaluated by this cursor so far.
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Reposition at data byte `pos` (O(log D); charges one evaluation).
    pub fn seek_data(&mut self, pos: u64) {
        let ft = &self.view.ftype;
        let tile = pos / ft.size;
        let within_tile = pos % ft.size;
        let (seg, within) = if within_tile == 0 {
            (0, 0)
        } else {
            let (i, _) = ft.data_to_displ(within_tile);
            (i, within_tile - ft.prefix[i])
        };
        self.tile = tile;
        self.seg = seg;
        self.within = within;
        self.evaluated += 1;
    }

    /// Consume up to `max` bytes from the current segment and return the
    /// piece. Pieces never span segments, so repeated calls yield the
    /// natural contiguous runs of the view.
    #[inline]
    pub fn take(&mut self, max: u64) -> Piece {
        debug_assert!(max > 0);
        if self.within == 0 {
            self.evaluated += 1;
        }
        let piece = Piece {
            file_off: self.file_off(),
            data_pos: self.data_pos(),
            len: max.min(self.ft().segs[self.seg].len - self.within),
        };
        self.within += piece.len;
        if self.within == self.ft().segs[self.seg].len {
            self.seg += 1;
            self.within = 0;
            if self.seg == self.ft().segs.len() {
                self.seg = 0;
                self.tile += 1;
            }
        }
        piece
    }

    /// Advance (monotonically) until the next data byte has file offset
    /// ≥ `off`. Whole filetype instances are skipped in O(1) ("skip full
    /// datatypes", one pair); within an instance every pair passed over is
    /// charged in [`ViewCursor::evaluated`], as ROMIO's linear scan of the
    /// flattened representation would examine it: the segments, from the
    /// cursor's own on, that end at or below `off`. The host counts them
    /// with one search over the segment ends, so the charge stays a pair
    /// per segment examined while the host cost is O(log D).
    #[inline]
    pub fn advance_to_file(&mut self, off: u64) {
        if self.file_off() >= off {
            return;
        }
        let ft = &self.view.ftype;
        // O(1) whole-tile skip: jump to the tile containing off. The cursor
        // is behind off, so it is in that tile or an earlier one.
        let target_tile = (off - self.view.disp) / ft.extent;
        if target_tile > self.tile {
            self.tile = target_tile;
            self.seg = 0;
            self.within = 0;
            self.evaluated += 1;
        }
        let within_tile = (off - self.view.disp - self.tile * ft.extent) as i64;
        // Segment ends ascend (monotonic, non-empty segments), so the ones
        // ending at or below off are a prefix of those left in the tile.
        let passed = ft.segs[self.seg..].partition_point(|s| s.end() <= within_tile);
        self.evaluated += passed as u64;
        if passed > 0 {
            self.seg += passed;
            self.within = 0;
        }
        if self.seg == ft.segs.len() {
            // off is in the trailing gap: the next tile's first byte is
            // past it.
            self.seg = 0;
            self.tile += 1;
        } else {
            let into = within_tile - ft.segs[self.seg].off;
            self.within = self.within.max(into.max(0) as u64);
        }
    }

    /// Yield the next piece whose file offset is `< file_end`, at most
    /// `max` bytes. Returns `None` when the next data byte is at or past
    /// `file_end`. The piece is clipped to `file_end`.
    #[inline]
    pub fn take_below(&mut self, file_end: u64, max: u64) -> Option<Piece> {
        let fo = self.file_off();
        if fo >= file_end {
            return None;
        }
        let room = file_end - fo;
        Some(self.take(max.min(room)))
    }
}

/// A memory buffer layout: `count` instances of a flattened memory type
/// tiled at its extent. Unlike file views, memory types may be
/// non-monotonic; mapping is always done through data positions.
#[derive(Debug, Clone)]
pub struct MemLayout {
    flat: Arc<FlatType>,
    count: u64,
}

impl MemLayout {
    /// Layout of `count` instances of `flat`.
    pub fn new(flat: Arc<FlatType>, count: u64) -> Self {
        assert!(flat.size > 0 || count == 0, "empty memory type with nonzero count");
        MemLayout { flat, count }
    }

    /// Contiguous layout of `n` bytes.
    pub fn contiguous(n: u64) -> Self {
        MemLayout { flat: Arc::new(FlatType::contiguous_bytes(n)), count: 1 }
    }

    /// Total data bytes described.
    pub fn total(&self) -> u64 {
        self.count * self.flat.size
    }

    /// Minimum buffer length in bytes needed to hold the layout.
    pub fn span(&self) -> u64 {
        if self.count == 0 || self.flat.size == 0 {
            return 0;
        }
        let ub = self.flat.segs.iter().map(|s| s.end()).max().unwrap_or(0);
        ((self.count - 1) * self.flat.extent) + ub.max(0) as u64
    }

    fn for_each_run(&self, data_start: u64, len: u64, mut f: impl FnMut(u64, u64, u64)) {
        // f(buffer_offset, data_pos, run_len)
        for (buf_off, d, run) in self.run_offsets(data_start, len) {
            f(buf_off, d, run);
        }
    }

    /// Iterate the `(buffer_offset, data_pos, run_len)` segment runs
    /// covering `len` data bytes from data position `data_start` — the
    /// flattened view's decomposition of the range into maximal
    /// contiguous buffer stretches, without touching any bytes.
    pub fn run_offsets(&self, data_start: u64, len: u64) -> RunOffsets {
        assert!(data_start + len <= self.total(), "data range outside layout");
        RunOffsets { flat: Arc::clone(&self.flat), d: data_start, remaining: len }
    }

    /// Iterate borrowed segment runs of `buf` covering `len` data bytes
    /// from `data_start`: each item is a maximal contiguous `&[u8]` slice
    /// of the user buffer tagged with its data position. This is the
    /// zero-copy gather — an iovec-style run list straight off the
    /// flattened view, no intermediate packed `Vec<u8>`. The runs borrow
    /// `buf` immutably and never overlap in data space; callers pair them
    /// with file offsets from the file view's pieces.
    pub fn runs<'a>(&self, buf: &'a [u8], data_start: u64, len: u64) -> MemRuns<'a> {
        MemRuns { offsets: self.run_offsets(data_start, len), buf }
    }

    /// Copy `len` data bytes starting at data position `data_start` out of
    /// `buf` into `out` (gather, for sends from user memory).
    pub fn gather(&self, buf: &[u8], data_start: u64, out: &mut [u8]) {
        let len = out.len() as u64;
        let mut o = 0usize;
        self.for_each_run(data_start, len, |buf_off, _d, run| {
            out[o..o + run as usize]
                .copy_from_slice(&buf[buf_off as usize..(buf_off + run) as usize]);
            o += run as usize;
        });
    }

    /// Copy `src` into the buffer at data position `data_start` (scatter,
    /// for receives into user memory).
    pub fn scatter(&self, buf: &mut [u8], data_start: u64, src: &[u8]) {
        let len = src.len() as u64;
        let mut o = 0usize;
        self.for_each_run(data_start, len, |buf_off, _d, run| {
            buf[buf_off as usize..(buf_off + run) as usize]
                .copy_from_slice(&src[o..o + run as usize]);
            o += run as usize;
        });
    }
}

/// Iterator over the `(buffer_offset, data_pos, run_len)` runs of a
/// [`MemLayout`] range (see [`MemLayout::run_offsets`]).
#[derive(Debug, Clone)]
pub struct RunOffsets {
    flat: Arc<FlatType>,
    d: u64,
    remaining: u64,
}

impl Iterator for RunOffsets {
    type Item = (u64, u64, u64);

    fn next(&mut self) -> Option<(u64, u64, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let tile = self.d / self.flat.size;
        let within = self.d % self.flat.size;
        let (i, rel) = self.flat.data_to_displ(within);
        let seg_room = self.flat.segs[i].len - (within - self.flat.prefix[i]);
        let run = seg_room.min(self.remaining);
        let buf_off = (tile * self.flat.extent) as i64 + rel;
        debug_assert!(buf_off >= 0, "memory layout with negative buffer offset");
        let item = (buf_off as u64, self.d, run);
        self.d += run;
        self.remaining -= run;
        Some(item)
    }
}

/// One borrowed segment run of user memory (see [`MemLayout::runs`]).
#[derive(Debug, Clone, Copy)]
pub struct MemRun<'a> {
    /// Data position (packed-stream offset) of the run's first byte.
    pub data_pos: u64,
    /// The run's bytes, borrowed straight from the user buffer.
    pub bytes: &'a [u8],
}

/// Iterator over borrowed segment runs of a user buffer (see
/// [`MemLayout::runs`]).
#[derive(Debug, Clone)]
pub struct MemRuns<'a> {
    offsets: RunOffsets,
    buf: &'a [u8],
}

impl<'a> Iterator for MemRuns<'a> {
    type Item = MemRun<'a>;

    fn next(&mut self) -> Option<MemRun<'a>> {
        let (buf_off, data_pos, run) = self.offsets.next()?;
        Some(MemRun { data_pos, bytes: &self.buf[buf_off as usize..(buf_off + run) as usize] })
    }
}

/// Pack `count` instances of a (flattened) datatype from `buf` into a
/// contiguous byte vector — `MPI_Pack` for our byte-oriented types.
pub fn pack(flat: &Arc<FlatType>, count: u64, buf: &[u8]) -> Vec<u8> {
    let m = MemLayout::new(Arc::clone(flat), count);
    let mut out = vec![0u8; m.total() as usize];
    m.gather(buf, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;
    use crate::flatten::flatten;

    fn view(disp: u64, dt: &Datatype) -> FileView {
        FileView::new(disp, Arc::new(flatten(dt)), 1).unwrap()
    }

    #[test]
    fn view_rejects_bad_filetypes() {
        let nonmono = Datatype::indexed(vec![(2, 1), (0, 1)], Datatype::bytes(4));
        assert_eq!(
            FileView::new(0, Arc::new(flatten(&nonmono)), 1).unwrap_err(),
            ViewError::NotMonotonic
        );
        let empty = Datatype::bytes(0);
        assert_eq!(
            FileView::new(0, Arc::new(flatten(&empty)), 1).unwrap_err(),
            ViewError::EmptyFiletype
        );
        let overlap = Datatype::resized(0, 2, Datatype::bytes(4));
        assert_eq!(
            FileView::new(0, Arc::new(flatten(&overlap)), 1).unwrap_err(),
            ViewError::OverlappingTiles
        );
        let ok = Datatype::bytes(4);
        assert_eq!(
            FileView::new(0, Arc::new(flatten(&ok)), 3).unwrap_err(),
            ViewError::EtypeMismatch
        );
    }

    #[test]
    fn data_to_file_tiles() {
        // filetype: 4 data, 4 gap (extent 8), disp 100
        let dt = Datatype::resized(0, 8, Datatype::bytes(4));
        let v = view(100, &dt);
        assert_eq!(v.data_to_file(0), 100);
        assert_eq!(v.data_to_file(3), 103);
        assert_eq!(v.data_to_file(4), 108);
        assert_eq!(v.data_to_file(9), 117);
    }

    #[test]
    fn file_to_data_lower_inverse() {
        let dt = Datatype::vector(2, 1, 2, Datatype::bytes(4)); // x...x... wait: blocks at 0 and 8, len 4; extent 12
        let v = view(10, &dt);
        assert_eq!(v.file_to_data_lower(0), 0);
        assert_eq!(v.file_to_data_lower(10), 0);
        assert_eq!(v.file_to_data_lower(12), 2);
        assert_eq!(v.file_to_data_lower(14), 4); // gap [14,18) -> next data at 18 = data 4
        assert_eq!(v.file_to_data_lower(18), 4);
        assert_eq!(v.file_to_data_lower(22), 8); // start of next tile
    }

    #[test]
    fn file_to_data_roundtrip_many() {
        let dt = Datatype::vector(3, 2, 5, Datatype::bytes(2));
        let v = view(7, &dt);
        for d in 0..200u64 {
            let off = v.data_to_file(d);
            assert_eq!(v.file_to_data_lower(off), d, "data byte {d} at off {off}");
        }
    }

    #[test]
    fn runs_reassemble_to_gather() {
        // 3 segs per tile (lens 2, at buffer displs 0, 5, 9), 4 tiles:
        // the borrowed runs concatenated must equal the packed gather,
        // from any starting data position and length.
        let dt = Datatype::indexed(vec![(0, 2), (5, 2), (9, 2)], Datatype::bytes(1));
        let flat = Arc::new(flatten(&dt));
        let m = MemLayout::new(Arc::clone(&flat), 4);
        let buf: Vec<u8> = (0..m.span()).map(|i| (i % 251) as u8).collect();
        for start in 0..m.total() {
            for len in 0..=(m.total() - start) {
                let mut want = vec![0u8; len as usize];
                m.gather(&buf, start, &mut want);
                let mut got = Vec::new();
                let mut d = start;
                for run in m.runs(&buf, start, len) {
                    assert_eq!(run.data_pos, d, "runs must be dense in data space");
                    d += run.bytes.len() as u64;
                    got.extend_from_slice(run.bytes);
                }
                assert_eq!(got, want, "start {start} len {len}");
            }
        }
    }

    #[test]
    fn run_offsets_are_maximal_and_bounded() {
        let dt = Datatype::resized(0, 8, Datatype::bytes(4));
        let flat = Arc::new(flatten(&dt));
        let m = MemLayout::new(flat, 3);
        let runs: Vec<_> = m.run_offsets(2, 8).collect();
        // 2 bytes left in tile 0's segment, the full 4 of tile 1, 2 of
        // tile 2 — each run maximal within its segment.
        assert_eq!(runs, vec![(2, 2, 2), (8, 4, 4), (16, 8, 2)]);
        assert_eq!(m.run_offsets(0, 0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "data range outside layout")]
    fn run_offsets_reject_out_of_range() {
        let m = MemLayout::contiguous(4);
        let _ = m.run_offsets(2, 3);
    }

    #[test]
    fn run_offsets_zero_count_and_boundary_edges() {
        // A zero-count layout is fully degenerate: no span, no data, no
        // runs, and gather/scatter accept the empty slices that implies.
        let flat = Arc::new(flatten(&Datatype::bytes(4)));
        let empty = MemLayout::new(Arc::clone(&flat), 0);
        assert_eq!(empty.span(), 0);
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.run_offsets(0, 0).count(), 0);
        empty.gather(&[], 0, &mut []);
        empty.scatter(&mut [], 0, &[]);
        // Zero-length ranges are fine anywhere in [0, total] — including
        // the exclusive end — and the final byte is reachable alone.
        let m = MemLayout::new(flat, 3);
        assert_eq!(m.run_offsets(12, 0).count(), 0);
        assert_eq!(m.run_offsets(11, 1).collect::<Vec<_>>(), vec![(11, 11, 1)]);
    }

    #[test]
    fn single_byte_segments_yield_single_byte_runs() {
        // 1-byte segments with holes: every run is exactly one byte and
        // the borrowed runs still reassemble to the packed gather.
        let dt = Datatype::indexed(vec![(0, 1), (3, 1), (6, 1)], Datatype::bytes(1));
        let m = MemLayout::new(Arc::new(flatten(&dt)), 2);
        let runs: Vec<_> = m.run_offsets(0, m.total()).collect();
        assert_eq!(runs.len(), m.total() as usize);
        assert!(runs.iter().all(|&(_, _, len)| len == 1));
        let buf: Vec<u8> = (0..m.span()).map(|i| i as u8).collect();
        let mut want = vec![0u8; m.total() as usize];
        m.gather(&buf, 0, &mut want);
        let got: Vec<u8> = m.runs(&buf, 0, m.total()).flat_map(|r| r.bytes.to_vec()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn runs_split_at_tile_boundaries_even_when_buffer_contiguous() {
        // A contiguous type tiled at its own size: the mapping is the
        // identity, but runs are emitted per tile — callers own any
        // cross-tile coalescing (the zero-copy path's iovec builder does).
        let m = MemLayout::new(Arc::new(flatten(&Datatype::bytes(4))), 3);
        let runs: Vec<_> = m.run_offsets(0, 12).collect();
        assert_eq!(runs, vec![(0, 0, 4), (4, 4, 4), (8, 8, 4)]);
    }

    #[test]
    fn runs_cover_non_monotonic_memory_types() {
        // Memory types may place later data at earlier buffer offsets
        // (file views reject that; memory layouts must not). Runs follow
        // data order and still reassemble to the packed gather.
        let dt = Datatype::indexed(vec![(4, 2), (0, 2)], Datatype::bytes(1));
        let m = MemLayout::new(Arc::new(flatten(&dt)), 2);
        let buf: Vec<u8> = (10..10 + m.span() as u8).collect();
        let runs: Vec<_> = m.run_offsets(0, m.total()).collect();
        // Data order within each tile: the displ-4 segment first.
        assert_eq!(runs[0].0, 4, "first run must sit at buffer offset 4");
        assert_eq!(runs[1].0, 0, "second run wraps back to buffer offset 0");
        let mut want = vec![0u8; m.total() as usize];
        m.gather(&buf, 0, &mut want);
        let got: Vec<u8> = m.runs(&buf, 0, m.total()).flat_map(|r| r.bytes.to_vec()).collect();
        assert_eq!(got, want);
        // Scatter is gather's inverse on the touched bytes.
        let mut back = vec![0u8; m.span() as usize];
        m.scatter(&mut back, 0, &want);
        let mut expect = vec![0u8; m.span() as usize];
        for (buf_off, _, len) in m.run_offsets(0, m.total()) {
            let (o, l) = (buf_off as usize, len as usize);
            expect[o..o + l].copy_from_slice(&buf[o..o + l]);
        }
        assert_eq!(back, expect);
    }

    #[test]
    fn cursor_streams_pieces() {
        let dt = Datatype::resized(0, 8, Datatype::bytes(4));
        let v = view(0, &dt);
        let mut c = v.cursor(0);
        assert_eq!(c.take(100), Piece { file_off: 0, data_pos: 0, len: 4 });
        assert_eq!(c.take(2), Piece { file_off: 8, data_pos: 4, len: 2 });
        assert_eq!(c.take(100), Piece { file_off: 10, data_pos: 6, len: 2 });
        assert_eq!(c.take(1), Piece { file_off: 16, data_pos: 8, len: 1 });
    }

    #[test]
    fn cursor_seek_mid_segment() {
        let dt = Datatype::resized(0, 8, Datatype::bytes(4));
        let v = view(0, &dt);
        let mut c = v.cursor(6);
        assert_eq!(c.data_pos(), 6);
        assert_eq!(c.file_off(), 10);
        assert_eq!(c.take(100).len, 2);
    }

    #[test]
    fn advance_to_file_skips_tiles_cheaply() {
        // Succinct: 1 seg/tile, 1000 tiles to skip -> O(1) evals.
        let dt = Datatype::resized(0, 192, Datatype::bytes(64));
        let v = view(0, &dt);
        let mut c = v.cursor(0);
        c.advance_to_file(192 * 1000);
        let e_succinct = c.evaluated();
        assert!(e_succinct < 8, "tile skip should be O(1), got {e_succinct}");
        assert_eq!(c.file_off(), 192 * 1000);

        // Enumerated: 1000 segs in one tile -> linear scan.
        let enumerated = Datatype::vector(1000, 1, 3, Datatype::bytes(64));
        let v2 = view(0, &enumerated);
        let mut c2 = v2.cursor(0);
        c2.advance_to_file(192 * 999);
        assert!(c2.evaluated() > 900, "enumerated type must scan, got {}", c2.evaluated());
        assert_eq!(c2.file_off(), 192 * 999);
    }

    #[test]
    fn advance_to_file_lands_mid_segment() {
        let dt = Datatype::resized(0, 8, Datatype::bytes(4));
        let v = view(0, &dt);
        let mut c = v.cursor(0);
        c.advance_to_file(10);
        assert_eq!(c.file_off(), 10);
        assert_eq!(c.data_pos(), 6);
    }

    #[test]
    fn advance_to_file_gap_lands_next_segment() {
        let dt = Datatype::resized(0, 8, Datatype::bytes(4));
        let v = view(0, &dt);
        let mut c = v.cursor(0);
        c.advance_to_file(5); // inside the gap [4,8)
        assert_eq!(c.file_off(), 8);
        assert_eq!(c.data_pos(), 4);
    }

    #[test]
    fn take_below_clips() {
        let dt = Datatype::resized(0, 8, Datatype::bytes(4));
        let v = view(0, &dt);
        let mut c = v.cursor(0);
        let p = c.take_below(2, 100).unwrap();
        assert_eq!(p.len, 2);
        let p = c.take_below(3, 100).unwrap();
        assert_eq!(p.len, 1);
        let p = c.take_below(100, 100).unwrap(); // finish first segment
        assert_eq!((p.file_off, p.len), (3, 1));
        assert!(c.take_below(8, 100).is_none()); // next data at 8
        let p = c.take_below(9, 100).unwrap();
        assert_eq!((p.file_off, p.len), (8, 1));
    }

    #[test]
    fn contiguous_view() {
        let v = FileView::contiguous(50);
        assert!(v.is_contiguous());
        assert_eq!(v.data_to_file(10), 60);
        assert_eq!(v.file_to_data_lower(60), 10);
    }

    #[test]
    fn access_range() {
        let dt = Datatype::resized(0, 8, Datatype::bytes(4));
        let v = view(100, &dt);
        assert_eq!(v.access_range(0, 4), (100, 104));
        assert_eq!(v.access_range(0, 5), (100, 109));
        assert_eq!(v.access_range(2, 4), (102, 110));
    }

    #[test]
    fn memlayout_gather_scatter_contig() {
        let m = MemLayout::contiguous(8);
        let buf = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut out = [0u8; 4];
        m.gather(&buf, 2, &mut out);
        assert_eq!(out, [3, 4, 5, 6]);
        let mut buf2 = [0u8; 8];
        m.scatter(&mut buf2, 3, &[9, 9]);
        assert_eq!(buf2, [0, 0, 0, 9, 9, 0, 0, 0]);
    }

    #[test]
    fn memlayout_noncontig() {
        // memtype: x..x (4 data bytes at 0..2 and 3..5? no: segs (0,2),(3,2)), extent 5
        let dt = Datatype::hindexed(vec![(0, 2), (3, 2)], Datatype::bytes(1));
        let flat = Arc::new(flatten(&dt));
        let m = MemLayout::new(flat, 2);
        assert_eq!(m.total(), 8);
        assert_eq!(m.span(), 10);
        let buf: Vec<u8> = (0..10).collect();
        let mut out = [0u8; 8];
        m.gather(&buf, 0, &mut out);
        assert_eq!(out, [0, 1, 3, 4, 5, 6, 8, 9]);
        let mut buf2 = vec![0u8; 10];
        m.scatter(&mut buf2, 0, &[10, 11, 12, 13, 14, 15, 16, 17]);
        assert_eq!(buf2, vec![10, 11, 0, 12, 13, 14, 15, 0, 16, 17]);
    }

    #[test]
    fn memlayout_nonmonotonic_ok() {
        // memory type visiting bytes out of order: (4,2) then (0,2)
        let dt = Datatype::hindexed(vec![(4, 2), (0, 2)], Datatype::bytes(1));
        let flat = Arc::new(flatten(&dt));
        let m = MemLayout::new(flat, 1);
        let buf = [0u8, 1, 2, 3, 4, 5];
        let mut out = [0u8; 4];
        m.gather(&buf, 0, &mut out);
        assert_eq!(out, [4, 5, 0, 1]);
    }

    #[test]
    fn pack_gathers_instances_in_type_order() {
        let dt = Datatype::hindexed(vec![(1, 3), (6, 2)], Datatype::bytes(1));
        let flat = Arc::new(flatten(&dt));
        let src: Vec<u8> = (0..20).collect();
        let packed = pack(&flat, 2, &src);
        // extent = 7 (lb 1, ub 8): instance 1 starts at byte 7.
        assert_eq!(packed, vec![1, 2, 3, 6, 7, 8, 9, 10, 13, 14]);
    }

    #[test]
    fn memlayout_gather_partial_ranges() {
        let dt = Datatype::hindexed(vec![(0, 2), (3, 2)], Datatype::bytes(1));
        let flat = Arc::new(flatten(&dt));
        let m = MemLayout::new(flat, 2);
        let buf: Vec<u8> = (0..10).collect();
        let mut out = [0u8; 3];
        m.gather(&buf, 3, &mut out);
        assert_eq!(out, [4, 5, 6]);
    }
}
