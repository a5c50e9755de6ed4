//! # flexio-hpio — the HPIO benchmark and the paper's evaluation workloads
//!
//! HPIO (Ching et al., IPDPS 2006) generates *regular* access patterns
//! characterized by a region size, region count, and region spacing, with
//! independent contiguity choices for memory and file. It doubles as a
//! verification tool: every byte is a deterministic stamp of (rank, index).
//!
//! This crate provides:
//! * [`HpioSpec`] — the Fig. 4/Fig. 5 workload generator, including the
//!   two ways of describing the same file pattern that Fig. 4 compares:
//!   a *succinct* one-region filetype tiled by the view
//!   ([`TypeStyle::Succinct`], the paper's "struct" type) and a filetype
//!   that *enumerates* every region ([`TypeStyle::Enumerated`], the
//!   paper's "vector" type);
//! * [`TimeStepSpec`] — the Fig. 6 time-step pattern driving the
//!   persistent-file-realm experiment (Fig. 7): multi-element data points
//!   with all time slices of a point kept together, one collective write
//!   per time step.

#![warn(missing_docs)]

use flexio_types::{Datatype, Dt};

/// Fill `out` with a stamp sequence: `first`, then each byte `step` more
/// than the last modulo `modulus` (`step < modulus`). The sequence repeats
/// every `modulus` bytes, so one period is computed — a conditional
/// subtract per byte, no division — and the rest is doubled in.
fn fill_stamps(out: &mut [u8], first: u8, step: u8, modulus: u8) {
    let period = out.len().min(modulus as usize);
    let mut v = first as u16;
    for b in &mut out[..period] {
        *b = v as u8;
        v += step as u16;
        if v >= modulus as u16 {
            v -= modulus as u16;
        }
    }
    // `filled` stays a multiple of the period, so a prefix continues it.
    let mut filled = period;
    while filled < out.len() {
        let take = filled.min(out.len() - filled);
        out.copy_within(..take, filled);
        filled += take;
    }
}

/// Where `content[off..]` first differs from `want`, as `(index into
/// want, expected, got)`; bytes past the end of `content` count as zeros.
/// Compares by slice and walks bytes only to report the mismatch.
fn first_mismatch(content: &[u8], off: usize, want: &[u8]) -> Option<(usize, u8, u8)> {
    if content.get(off..off + want.len()) == Some(want) {
        return None;
    }
    want.iter().enumerate().find_map(|(b, &w)| {
        let got = content.get(off + b).copied().unwrap_or(0);
        (got != w).then_some((b, w, got))
    })
}

/// How the filetype describes the (identical) access pattern — the Fig. 4
/// "struct vs vector" axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeStyle {
    /// One region per filetype instance, tiled implicitly by the file
    /// view. `D = 1`: processing can skip whole datatypes.
    Succinct,
    /// A single filetype instance enumerating every region. `D = region
    /// count`: processing must scan every offset/length pair.
    Enumerated,
}

/// An HPIO workload: `region_count` regions of `region_size` bytes per
/// process, separated by `region_spacing`, interleaved across `nprocs`
/// processes round-robin (the classic non-contiguous scientific pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpioSpec {
    /// Bytes per region.
    pub region_size: u64,
    /// Regions per process.
    pub region_count: u64,
    /// Gap between one process's region and the next process's, bytes.
    pub region_spacing: u64,
    /// Non-contiguous in memory? (Adds `region_spacing` gaps between the
    /// regions in the user buffer.)
    pub mem_noncontig: bool,
    /// Non-contiguous in file? (false = each process gets one contiguous
    /// range of the file.)
    pub file_noncontig: bool,
    /// World size.
    pub nprocs: usize,
}

impl HpioSpec {
    /// The paper's Fig. 4 configuration: non-contiguous in memory and
    /// file, 4096 regions, 128-byte spacing, 64 processes.
    pub fn fig4(region_size: u64) -> Self {
        HpioSpec {
            region_size,
            region_count: 4096,
            region_spacing: 128,
            mem_noncontig: true,
            file_noncontig: true,
            nprocs: 64,
        }
    }

    /// Data bytes written per process.
    pub fn bytes_per_proc(&self) -> u64 {
        self.region_size * self.region_count
    }

    /// Aggregate data bytes across all processes.
    pub fn aggregate_bytes(&self) -> u64 {
        self.bytes_per_proc() * self.nprocs as u64
    }

    /// File-space slot size of one (region + spacing) unit.
    pub fn unit(&self) -> u64 {
        self.region_size + self.region_spacing
    }

    /// Per-rank view displacement and filetype. The same access pattern
    /// regardless of `style`; only its description differs.
    pub fn file_view(&self, rank: usize, style: TypeStyle) -> (u64, Dt) {
        assert!(rank < self.nprocs);
        if !self.file_noncontig {
            // Contiguous per-process range.
            let disp = rank as u64 * self.bytes_per_proc();
            return (disp, Datatype::bytes(self.region_size));
        }
        let stride = self.unit() * self.nprocs as u64;
        let disp = rank as u64 * self.unit();
        let region = Datatype::bytes(self.region_size);
        let ftype = match style {
            TypeStyle::Succinct => Datatype::resized(0, stride, region),
            TypeStyle::Enumerated => Datatype::hvector(self.region_count, 1, stride as i64, region),
        };
        (disp, ftype)
    }

    /// Memory type describing one region in the user buffer.
    pub fn mem_type(&self) -> Dt {
        let region = Datatype::bytes(self.region_size);
        if self.mem_noncontig {
            Datatype::resized(0, self.unit(), region)
        } else {
            region
        }
    }

    /// Number of memtype instances for the full access.
    pub fn mem_count(&self) -> u64 {
        self.region_count
    }

    /// Bytes the user buffer must span.
    pub fn buffer_span(&self) -> u64 {
        if self.mem_noncontig {
            (self.region_count - 1) * self.unit() + self.region_size
        } else {
            self.bytes_per_proc()
        }
    }

    /// Deterministic stamp for data byte `idx` of `rank`.
    pub fn stamp(&self, rank: usize, idx: u64) -> u8 {
        ((rank as u64 * 131 + idx * 7 + 13) % 251) as u8
    }

    /// Build the user buffer with stamps at the data positions.
    pub fn make_buffer(&self, rank: usize) -> Vec<u8> {
        let mut buf = vec![0u8; self.buffer_span() as usize];
        let rs = self.region_size;
        for i in 0..self.region_count {
            let pos = if self.mem_noncontig { i * self.unit() } else { i * rs } as usize;
            fill_stamps(&mut buf[pos..pos + rs as usize], self.stamp(rank, i * rs), 7, 251);
        }
        buf
    }

    /// File offset of data byte `idx` of `rank`.
    pub fn file_offset(&self, rank: usize, idx: u64) -> u64 {
        let region = idx / self.region_size;
        let within = idx % self.region_size;
        if self.file_noncontig {
            rank as u64 * self.unit() + region * self.unit() * self.nprocs as u64 + within
        } else {
            rank as u64 * self.bytes_per_proc() + region * self.region_size + within
        }
    }

    /// Verify the full file image against the stamps; returns the first
    /// mismatch as `(rank, idx, expected, got)`. Bytes past the end of
    /// `content` count as zeros.
    pub fn verify(&self, content: &[u8]) -> Result<(), (usize, u64, u8, u8)> {
        let rs = self.region_size;
        if rs == 0 {
            return Ok(());
        }
        // A region is contiguous in the file: one offset and one compare.
        let mut want = vec![0u8; rs as usize];
        for rank in 0..self.nprocs {
            for i in 0..self.region_count {
                let off = self.file_offset(rank, i * rs) as usize;
                fill_stamps(&mut want, self.stamp(rank, i * rs), 7, 251);
                if let Some((b, w, got)) = first_mismatch(content, off, &want) {
                    return Err((rank, i * rs + b as u64, w, got));
                }
            }
        }
        Ok(())
    }
}

/// The Fig. 6 pattern: `points` multi-element data points; each point
/// holds `steps` time slices back to back; a slice holds `elems_per_point`
/// elements of `elem_size` bytes. One collective write per time step;
/// element `e` of every slice belongs to process `e mod nprocs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeStepSpec {
    /// Bytes per element (paper: 32).
    pub elem_size: u64,
    /// Elements per data point per time slice (paper: 100).
    pub elems_per_point: u64,
    /// Number of data points (paper: 2048).
    pub points: u64,
    /// Number of time steps (paper: 32).
    pub steps: u64,
    /// World size.
    pub nprocs: usize,
}

impl TimeStepSpec {
    /// The paper's Fig. 7 configuration for a given client count.
    pub fn fig7(nprocs: usize) -> Self {
        TimeStepSpec { elem_size: 32, elems_per_point: 100, points: 2048, steps: 32, nprocs }
    }

    /// Bytes of one time slice of one data point.
    pub fn slice_bytes(&self) -> u64 {
        self.elems_per_point * self.elem_size
    }

    /// Bytes of one whole data point (all time slices).
    pub fn point_bytes(&self) -> u64 {
        self.slice_bytes() * self.steps
    }

    /// Total file size.
    pub fn file_bytes(&self) -> u64 {
        self.point_bytes() * self.points
    }

    /// Aggregate bytes written per collective call (one time step).
    pub fn bytes_per_step(&self) -> u64 {
        self.slice_bytes() * self.points
    }

    /// Elements this rank owns in each slice.
    pub fn elems_of(&self, rank: usize) -> u64 {
        let p = self.nprocs as u64;
        let r = rank as u64;
        if r >= self.elems_per_point {
            0
        } else {
            (self.elems_per_point - r).div_ceil(p)
        }
    }

    /// Per-rank view (displacement, filetype) for time step `t`: this
    /// rank's elements of slice `t` in every data point. Succinct: one
    /// point per filetype instance.
    pub fn file_view(&self, rank: usize, t: u64) -> (u64, Dt) {
        assert!(rank < self.nprocs && t < self.steps);
        let n = self.elems_of(rank);
        let elem = Datatype::bytes(self.elem_size);
        // Elements of this rank within one slice, strided by nprocs.
        let in_slice = Datatype::vector(n.max(1), 1, self.nprocs as i64, elem);
        let per_point = Datatype::resized(0, self.point_bytes(), in_slice);
        let disp = t * self.slice_bytes() + rank as u64 * self.elem_size;
        (disp, per_point)
    }

    /// Bytes this rank writes per time step.
    pub fn bytes_per_rank_step(&self, rank: usize) -> u64 {
        self.elems_of(rank) * self.elem_size * self.points
    }

    /// Deterministic stamp for (rank, step, data byte index).
    pub fn stamp(&self, rank: usize, step: u64, idx: u64) -> u8 {
        ((rank as u64 * 37 + step * 101 + idx * 3 + 7) % 249) as u8
    }

    /// Build this rank's (contiguous) buffer for time step `t`.
    pub fn make_buffer(&self, rank: usize, t: u64) -> Vec<u8> {
        let mut buf = vec![0u8; self.bytes_per_rank_step(rank) as usize];
        fill_stamps(&mut buf, self.stamp(rank, t, 0), 3, 249);
        buf
    }

    /// File offset of data byte `idx` of `rank` at step `t`.
    pub fn file_offset(&self, rank: usize, t: u64, idx: u64) -> u64 {
        let per_elem = self.elem_size;
        let elem_i = idx / per_elem; // which owned element (global ordinal)
        let within = idx % per_elem;
        let n = self.elems_of(rank);
        let point = elem_i / n;
        let k = elem_i % n; // k-th owned element within the slice
        point * self.point_bytes()
            + t * self.slice_bytes()
            + (rank as u64 + k * self.nprocs as u64) * per_elem
            + within
    }

    /// Verify the final file against all steps' stamps; returns the first
    /// mismatch as `(rank, step, idx, expected, got)`. Bytes past the end
    /// of `content` count as zeros.
    pub fn verify(&self, content: &[u8]) -> Result<(), (usize, u64, u64, u8, u8)> {
        let es = self.elem_size;
        // An element is contiguous in the file: one offset and one compare.
        let mut want = vec![0u8; es as usize];
        for rank in 0..self.nprocs {
            let elems = self.bytes_per_rank_step(rank).checked_div(es).unwrap_or(0);
            for t in 0..self.steps {
                for e in 0..elems {
                    let off = self.file_offset(rank, t, e * es) as usize;
                    fill_stamps(&mut want, self.stamp(rank, t, e * es), 3, 249);
                    if let Some((b, w, got)) = first_mismatch(content, off, &want) {
                        return Err((rank, t, e * es + b as u64, w, got));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_types::flatten;

    fn small() -> HpioSpec {
        HpioSpec {
            region_size: 8,
            region_count: 5,
            region_spacing: 4,
            mem_noncontig: true,
            file_noncontig: true,
            nprocs: 3,
        }
    }

    #[test]
    fn sizes() {
        let s = small();
        assert_eq!(s.bytes_per_proc(), 40);
        assert_eq!(s.aggregate_bytes(), 120);
        assert_eq!(s.unit(), 12);
        assert_eq!(s.buffer_span(), 4 * 12 + 8);
    }

    #[test]
    fn styles_describe_same_pattern() {
        let s = small();
        for rank in 0..3 {
            let (d1, t1) = s.file_view(rank, TypeStyle::Succinct);
            let (d2, t2) = s.file_view(rank, TypeStyle::Enumerated);
            assert_eq!(d1, d2);
            // Enumerate both: succinct tiled region_count times must equal
            // the enumerated instance.
            let f1 = flatten(&t1);
            let f2 = flatten(&t2);
            assert_eq!(f1.d(), 1);
            assert_eq!(f2.d(), s.region_count as usize);
            let mut tiled = Vec::new();
            for i in 0..s.region_count {
                for seg in &f1.segs {
                    tiled.push((seg.off + (i * f1.extent) as i64, seg.len));
                }
            }
            let enumerated: Vec<(i64, u64)> = f2.segs.iter().map(|x| (x.off, x.len)).collect();
            assert_eq!(tiled, enumerated, "rank {rank}");
        }
    }

    #[test]
    fn file_offsets_interleave() {
        let s = small();
        // Region 0: rank 0 at 0, rank 1 at 12, rank 2 at 24; region 1 at 36...
        assert_eq!(s.file_offset(0, 0), 0);
        assert_eq!(s.file_offset(1, 0), 12);
        assert_eq!(s.file_offset(2, 0), 24);
        assert_eq!(s.file_offset(0, 8), 36);
        assert_eq!(s.file_offset(0, 7), 7);
    }

    #[test]
    fn file_contig_offsets() {
        let s = HpioSpec { file_noncontig: false, ..small() };
        assert_eq!(s.file_offset(0, 0), 0);
        assert_eq!(s.file_offset(0, 39), 39);
        assert_eq!(s.file_offset(1, 0), 40);
    }

    #[test]
    fn buffer_stamps_where_expected() {
        let s = small();
        let buf = s.make_buffer(1);
        assert_eq!(buf[0], s.stamp(1, 0));
        assert_eq!(buf[7], s.stamp(1, 7));
        assert_eq!(buf[8], 0); // spacing gap
        assert_eq!(buf[12], s.stamp(1, 8));
    }

    #[test]
    fn verify_catches_corruption() {
        let s = small();
        // Build a correct image manually.
        let total = s.unit() * s.nprocs as u64 * s.region_count;
        let mut img = vec![0u8; total as usize];
        for r in 0..s.nprocs {
            for idx in 0..s.bytes_per_proc() {
                img[s.file_offset(r, idx) as usize] = s.stamp(r, idx);
            }
        }
        assert!(s.verify(&img).is_ok());
        img[12] ^= 0xFF;
        let err = s.verify(&img).unwrap_err();
        assert_eq!(err.0, 1); // rank 1's first region starts at 12
    }

    // ---- the per-byte definitions the fast oracles must equal ------------

    fn hpio_buffer_ref(s: &HpioSpec, rank: usize) -> Vec<u8> {
        let mut buf = vec![0u8; s.buffer_span() as usize];
        for i in 0..s.region_count {
            for b in 0..s.region_size {
                let idx = i * s.region_size + b;
                let pos = if s.mem_noncontig { i * s.unit() + b } else { idx };
                buf[pos as usize] = s.stamp(rank, idx);
            }
        }
        buf
    }

    fn hpio_verify_ref(s: &HpioSpec, content: &[u8]) -> Result<(), (usize, u64, u8, u8)> {
        for rank in 0..s.nprocs {
            for idx in 0..s.bytes_per_proc() {
                let off = s.file_offset(rank, idx) as usize;
                let want = s.stamp(rank, idx);
                let got = content.get(off).copied().unwrap_or(0);
                if got != want {
                    return Err((rank, idx, want, got));
                }
            }
        }
        Ok(())
    }

    fn timestep_buffer_ref(s: &TimeStepSpec, rank: usize, t: u64) -> Vec<u8> {
        (0..s.bytes_per_rank_step(rank)).map(|i| s.stamp(rank, t, i)).collect()
    }

    fn timestep_verify_ref(
        s: &TimeStepSpec,
        content: &[u8],
    ) -> Result<(), (usize, u64, u64, u8, u8)> {
        for rank in 0..s.nprocs {
            for t in 0..s.steps {
                for idx in 0..s.bytes_per_rank_step(rank) {
                    let off = s.file_offset(rank, t, idx) as usize;
                    let want = s.stamp(rank, t, idx);
                    let got = content.get(off).copied().unwrap_or(0);
                    if got != want {
                        return Err((rank, t, idx, want, got));
                    }
                }
            }
        }
        Ok(())
    }

    /// Images on which the oracles must agree: the correct one (accepted),
    /// a flipped byte near the start, in the middle and at the very end, a
    /// zeroed byte, a short image and an empty one.
    fn damaged(img: &[u8]) -> Vec<Vec<u8>> {
        let mut out = vec![img.to_vec()];
        for at in [1, img.len() / 2, img.len() - 1] {
            let mut bad = img.to_vec();
            bad[at] ^= 0x5A;
            out.push(bad);
        }
        out.push(img[..img.len() * 2 / 3].to_vec());
        out.push(Vec::new());
        out
    }

    #[test]
    fn hpio_fast_oracles_equal_the_per_byte_definition() {
        // Region sizes around the stamp period (251) and the page size.
        for region_size in [1, 8, 250, 251, 252, 4096] {
            for (mem_noncontig, file_noncontig) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let s = HpioSpec {
                    region_size,
                    region_count: 3,
                    region_spacing: 5,
                    mem_noncontig,
                    file_noncontig,
                    nprocs: 3,
                };
                let mut img = vec![0u8; (s.unit() * s.nprocs as u64 * s.region_count) as usize];
                for rank in 0..s.nprocs {
                    let buf = s.make_buffer(rank);
                    assert_eq!(buf, hpio_buffer_ref(&s, rank), "{s:?} rank {rank}");
                    for idx in 0..s.bytes_per_proc() {
                        img[s.file_offset(rank, idx) as usize] = s.stamp(rank, idx);
                    }
                }
                // Trim to the last data byte so that a short image is short
                // of data, not of padding.
                let end = img.iter().rposition(|&b| b != 0).unwrap() + 1;
                for (k, image) in damaged(&img[..end]).iter().enumerate() {
                    assert_eq!(s.verify(image), hpio_verify_ref(&s, image), "{s:?} image {k}");
                    // The last byte is data, and an empty image holds none.
                    assert!(s.verify(image).is_ok() || k > 0);
                    assert!(s.verify(image).is_err() || !matches!(k, 3 | 5), "{s:?} image {k}");
                }
                assert_eq!(s.verify(&img), Ok(()));
            }
        }
    }

    #[test]
    fn timestep_fast_oracles_equal_the_per_byte_definition() {
        let base =
            TimeStepSpec { elem_size: 8, elems_per_point: 7, points: 3, steps: 2, nprocs: 3 };
        for s in [
            base,
            TimeStepSpec { elem_size: 1, ..base },
            TimeStepSpec { elem_size: 252, ..base },
            TimeStepSpec { elem_size: 4096, points: 1, ..base },
            // more_procs_than_elements: ranks 3 and 4 own nothing.
            TimeStepSpec { elem_size: 4, elems_per_point: 3, points: 2, steps: 1, nprocs: 5 },
        ] {
            let mut img = vec![0u8; s.file_bytes() as usize];
            for rank in 0..s.nprocs {
                for t in 0..s.steps {
                    let buf = s.make_buffer(rank, t);
                    assert_eq!(buf, timestep_buffer_ref(&s, rank, t), "{s:?} rank {rank} step {t}");
                    for (idx, &b) in buf.iter().enumerate() {
                        img[s.file_offset(rank, t, idx as u64) as usize] = b;
                    }
                }
            }
            for (k, image) in damaged(&img).iter().enumerate() {
                assert_eq!(s.verify(image), timestep_verify_ref(&s, image), "{s:?} image {k}");
                // Every byte of the file is some rank's data.
                assert_eq!(s.verify(image).is_ok(), k == 0, "{s:?} image {k}");
            }
            assert_eq!(s.verify(&img), Ok(()));
        }
    }

    #[test]
    fn timestep_sizes() {
        let t = TimeStepSpec::fig7(16);
        assert_eq!(t.slice_bytes(), 3200);
        assert_eq!(t.point_bytes(), 102_400);
        assert_eq!(t.bytes_per_step(), 6_553_600); // the paper's 6.5 MB
        assert_eq!(t.file_bytes(), 209_715_200);
    }

    #[test]
    fn timestep_element_division() {
        let t = TimeStepSpec::fig7(16);
        let total: u64 = (0..16).map(|r| t.elems_of(r)).sum();
        assert_eq!(total, 100);
        // 100 elems over 16 procs: ranks 0..3 get 7, ranks 4..15 get 6.
        assert_eq!(t.elems_of(0), 7);
        assert_eq!(t.elems_of(3), 7);
        assert_eq!(t.elems_of(4), 6);
        assert_eq!(t.elems_of(15), 6);
    }

    #[test]
    fn timestep_offsets_disjoint_and_in_slice() {
        let t = TimeStepSpec { elem_size: 4, elems_per_point: 10, points: 3, steps: 2, nprocs: 4 };
        let mut seen = std::collections::HashSet::new();
        for rank in 0..4 {
            for step in 0..2 {
                for idx in 0..t.bytes_per_rank_step(rank) {
                    let off = t.file_offset(rank, step, idx);
                    assert!(off < t.file_bytes());
                    assert!(seen.insert(off), "offset {off} written twice");
                    // The offset must lie inside slice `step` of its point.
                    let within_point = off % t.point_bytes();
                    assert_eq!(within_point / t.slice_bytes(), step);
                }
            }
        }
        // Complete coverage: every byte written exactly once.
        assert_eq!(seen.len() as u64, t.file_bytes());
    }

    #[test]
    fn timestep_view_matches_offsets() {
        use flexio_types::FileView;
        use std::sync::Arc;
        let t = TimeStepSpec { elem_size: 4, elems_per_point: 10, points: 3, steps: 2, nprocs: 4 };
        for rank in 0..4 {
            for step in 0..2 {
                let (disp, ft) = t.file_view(rank, step);
                let view = FileView::new(disp, Arc::new(flatten(&ft)), 1).unwrap();
                for idx in 0..t.bytes_per_rank_step(rank) {
                    assert_eq!(
                        view.data_to_file(idx),
                        t.file_offset(rank, step, idx),
                        "rank {rank} step {step} idx {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_procs_than_elements() {
        let t = TimeStepSpec { elem_size: 4, elems_per_point: 3, points: 2, steps: 1, nprocs: 5 };
        assert_eq!(t.elems_of(3), 0);
        assert_eq!(t.elems_of(4), 0);
        assert_eq!(t.bytes_per_rank_step(4), 0);
        let total: u64 = (0..5).map(|r| t.bytes_per_rank_step(r)).sum();
        assert_eq!(total, t.bytes_per_step());
    }
}
