//! Flattening datatypes into offset/length segment lists.
//!
//! A [`FlatType`] is the "flattened datatype" of the paper's §5.3 / Fig. 3:
//! the `D` offset/length pairs of **one instance** of a datatype, together
//! with its extent so instances can be tiled without enumerating them. This
//! is the representation the flexible collective I/O engine ships between
//! clients and aggregators (instead of the fully flattened access of `M`
//! pairs the original ROMIO code ships).

use crate::datatype::Datatype;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// One contiguous byte segment of a typemap, relative to the instance origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    /// Byte displacement from the instance origin (may be negative).
    pub off: i64,
    /// Length in bytes; always > 0 in a normalized `FlatType`.
    pub len: u64,
}

impl Seg {
    /// Construct a segment.
    pub fn new(off: i64, len: u64) -> Self {
        Seg { off, len }
    }

    /// Exclusive end offset.
    pub fn end(&self) -> i64 {
        self.off + self.len as i64
    }
}

/// A flattened datatype: ordered segments of one instance plus tiling info.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatType {
    /// Segments in typemap order. Adjacent order-neighbours are merged;
    /// zero-length segments are dropped.
    pub segs: Vec<Seg>,
    /// Lower bound of the typemap in bytes.
    pub lb: i64,
    /// Extent in bytes (tiling stride for consecutive instances).
    pub extent: u64,
    /// Total data bytes (sum of segment lengths).
    pub size: u64,
    /// True if segment offsets are monotonically non-decreasing (required
    /// of filetypes by the MPI standard).
    pub monotonic: bool,
    /// True if the instance is a single gap-free run.
    pub contiguous: bool,
    /// Prefix sums of segment lengths: `prefix[i]` = data bytes before
    /// segment `i`. Length = `segs.len() + 1`; last entry equals `size`.
    pub prefix: Vec<u64>,
}

impl FlatType {
    /// The flattened type with these segments, in typemap order, tiled
    /// every `extent` bytes from lower bound `lb`: empty segments are
    /// dropped, order-adjacent runs merged, and the derived fields
    /// (`size`, `monotonic`, `contiguous`, `prefix`) computed.
    pub fn from_segs(mut segs: Vec<Seg>, lb: i64, extent: u64) -> Self {
        // Drop empties, merge order-adjacent contiguous runs.
        segs.retain(|s| s.len > 0);
        let mut merged: Vec<Seg> = Vec::with_capacity(segs.len());
        for s in segs {
            match merged.last_mut() {
                Some(last) if last.end() == s.off => last.len += s.len,
                _ => merged.push(s),
            }
        }
        let size: u64 = merged.iter().map(|s| s.len).sum();
        let monotonic = merged.windows(2).all(|w| w[0].end() <= w[1].off);
        let contiguous = merged.len() <= 1;
        let mut prefix = Vec::with_capacity(merged.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for s in &merged {
            acc += s.len;
            prefix.push(acc);
        }
        FlatType { segs: merged, lb, extent, size, monotonic, contiguous, prefix }
    }

    /// A single contiguous run of `len` bytes at displacement 0.
    pub fn contiguous_bytes(len: u64) -> Self {
        FlatType::from_segs(vec![Seg::new(0, len)], 0, len)
    }

    /// Map a data position (0 ≤ `d` < `size`) within one instance to the
    /// byte displacement from the instance origin. Returns the containing
    /// segment index and absolute displacement.
    pub fn data_to_displ(&self, d: u64) -> (usize, i64) {
        debug_assert!(d < self.size);
        // partition_point: first i with prefix[i] > d, minus one.
        let i = self.prefix.partition_point(|&p| p <= d) - 1;
        (i, self.segs[i].off + (d - self.prefix[i]) as i64)
    }

    /// Number of segments (`D` in the paper).
    pub fn d(&self) -> usize {
        self.segs.len()
    }

    /// Serialize to a compact wire format (for metadata exchange).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.segs.len() * 16);
        out.extend_from_slice(&(self.segs.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.lb.to_le_bytes());
        out.extend_from_slice(&self.extent.to_le_bytes());
        for s in &self.segs {
            out.extend_from_slice(&s.off.to_le_bytes());
            out.extend_from_slice(&s.len.to_le_bytes());
        }
        out
    }

    /// Deserialize from [`FlatType::to_wire`] output.
    pub fn from_wire(buf: &[u8]) -> Self {
        let rd_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let rd_i64 = |b: &[u8]| i64::from_le_bytes(b.try_into().unwrap());
        let n = rd_u64(&buf[0..8]) as usize;
        let lb = rd_i64(&buf[8..16]);
        let extent = rd_u64(&buf[16..24]);
        let mut segs = Vec::with_capacity(n);
        for i in 0..n {
            let base = 24 + i * 16;
            segs.push(Seg::new(rd_i64(&buf[base..base + 8]), rd_u64(&buf[base + 8..base + 16])));
        }
        FlatType::from_segs(segs, lb, extent)
    }
}

/// Flatten one instance of `dt` into a [`FlatType`].
///
/// Cost is proportional to the number of leaf segments (with a fast path
/// for contiguous children, so `contiguous(1<<30, bytes(1))` is O(1)).
pub fn flatten(dt: &Datatype) -> FlatType {
    let mut segs = Vec::new();
    emit(dt, 0, &mut segs);
    let (lb, ub) = dt.bounds();
    FlatType::from_segs(segs, lb, (ub - lb).max(0) as u64)
}

/// Cap on cached flattenings; reaching it clears the cache rather than
/// evicting, keeping the common steady-state (a handful of types reused
/// across many collective calls) cheap and the worst case bounded.
const FLATTEN_CACHE_CAP: usize = 256;

/// Content-addressed flatten memo: like [`flatten`], but returning a shared
/// `Arc<FlatType>` so repeated `set_view`/`write_all` calls with an equal
/// `Datatype` reuse one flattening instead of re-walking the type tree and
/// cloning segment vectors (ROMIO keeps a flattened-datatype cache for the
/// same reason).
///
/// Keyed by structural equality, so two independently built but identical
/// trees hit. Whoever owns one decides what a hit means: an open file owns
/// the one whose hits and misses it charges.
#[derive(Debug, Default)]
pub struct FlattenCache {
    map: HashMap<Datatype, Arc<FlatType>>,
}

impl FlattenCache {
    /// The shared flattening of `dt`, and whether it was a cache hit.
    pub fn get(&mut self, dt: &Datatype) -> (Arc<FlatType>, bool) {
        if let Some(f) = self.map.get(dt) {
            return (Arc::clone(f), true);
        }
        if self.map.len() >= FLATTEN_CACHE_CAP {
            self.map.clear();
        }
        let f = Arc::new(flatten(dt));
        self.map.insert(dt.clone(), Arc::clone(&f));
        (f, false)
    }
}

std::thread_local! {
    static SHARED: RefCell<FlattenCache> = RefCell::new(FlattenCache::default());
}

/// Drop every flattening [`flatten_shared`] holds on the current thread.
pub fn reset_flatten_cache() {
    SHARED.with(|c| c.borrow_mut().map.clear());
}

/// [`FlattenCache::get`] on the current thread's one shared cache, for
/// host-side callers that charge nothing for a flattening.
pub fn flatten_shared(dt: &Datatype) -> (Arc<FlatType>, bool) {
    SHARED.with(|c| c.borrow_mut().get(dt))
}

/// Append the segments of `count` children tiled at `child_extent` from
/// byte `base`, using a pre-flattened child.
fn emit_block(child_flat: &FlatType, child_extent: u64, base: i64, count: u64, out: &mut Vec<Seg>) {
    if count == 0 || child_flat.size == 0 {
        return;
    }
    // Fast path: child instances are contiguous and gap-free, so the whole
    // block is one run.
    if child_flat.contiguous && child_flat.size == child_extent {
        let off = base + child_flat.segs[0].off;
        out.push(Seg::new(off, child_flat.size * count));
        return;
    }
    for k in 0..count {
        let shift = base + (k * child_extent) as i64;
        for s in &child_flat.segs {
            out.push(Seg::new(shift + s.off, s.len));
        }
    }
}

fn emit(dt: &Datatype, base: i64, out: &mut Vec<Seg>) {
    match dt {
        Datatype::Bytes(n) => {
            if *n > 0 {
                out.push(Seg::new(base, *n));
            }
        }
        Datatype::Contiguous { count, child } => {
            let cf = flatten(child);
            emit_block(&cf, child.extent(), base, *count, out);
        }
        Datatype::Vector { count, blocklen, stride, child } => {
            let cf = flatten(child);
            let ext = child.extent();
            for k in 0..*count {
                let b = base + k as i64 * stride * ext as i64;
                emit_block(&cf, ext, b, *blocklen, out);
            }
        }
        Datatype::Hvector { count, blocklen, stride, child } => {
            let cf = flatten(child);
            let ext = child.extent();
            for k in 0..*count {
                emit_block(&cf, ext, base + k as i64 * stride, *blocklen, out);
            }
        }
        Datatype::Indexed { blocks, child } => {
            let cf = flatten(child);
            let ext = child.extent();
            for (d, bl) in blocks {
                emit_block(&cf, ext, base + d * ext as i64, *bl, out);
            }
        }
        Datatype::Hindexed { blocks, child } => {
            let cf = flatten(child);
            let ext = child.extent();
            for (d, bl) in blocks {
                emit_block(&cf, ext, base + d, *bl, out);
            }
        }
        Datatype::Struct { fields } => {
            for (d, c, ch) in fields {
                let cf = flatten(ch);
                emit_block(&cf, ch.extent(), base + d, *c, out);
            }
        }
        Datatype::Resized { child, .. } => emit(child, base, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{Datatype, Dt};

    fn segs(dt: &Dt) -> Vec<(i64, u64)> {
        flatten(dt).segs.iter().map(|s| (s.off, s.len)).collect()
    }

    #[test]
    fn flatten_bytes() {
        assert_eq!(segs(&Datatype::bytes(8)), vec![(0, 8)]);
        assert_eq!(segs(&Datatype::bytes(0)), vec![]);
    }

    #[test]
    fn flatten_contiguous_merges() {
        let t = Datatype::contiguous(1 << 30, Datatype::bytes(1));
        let f = flatten(&t);
        assert_eq!(f.segs, vec![Seg::new(0, 1 << 30)]);
        assert!(f.contiguous);
    }

    #[test]
    fn flatten_vector() {
        let t = Datatype::vector(3, 2, 4, Datatype::bytes(4));
        assert_eq!(segs(&t), vec![(0, 8), (16, 8), (32, 8)]);
        let f = flatten(&t);
        assert_eq!(f.size, 24);
        assert_eq!(f.extent, 40);
        assert!(f.monotonic);
        assert!(!f.contiguous);
    }

    #[test]
    fn flatten_vector_unit_stride_merges() {
        let t = Datatype::vector(3, 2, 2, Datatype::bytes(4));
        assert_eq!(segs(&t), vec![(0, 24)]);
    }

    #[test]
    fn flatten_hvector_gap() {
        let t = Datatype::hvector(2, 1, 10, Datatype::bytes(4));
        assert_eq!(segs(&t), vec![(0, 4), (10, 4)]);
    }

    #[test]
    fn flatten_struct_fig3() {
        // Fig. 3: vector count=2 stride=2 blocklen=1 of 1-byte elements
        // -> offsets [0,2], lens [1,1]
        let t = Datatype::vector(2, 1, 2, Datatype::bytes(1));
        assert_eq!(segs(&t), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn flatten_nonmonotonic_indexed() {
        let t = Datatype::indexed(vec![(2, 1), (0, 1)], Datatype::bytes(4));
        let f = flatten(&t);
        assert_eq!(f.segs, vec![Seg::new(8, 4), Seg::new(0, 4)]);
        assert!(!f.monotonic);
    }

    #[test]
    fn flatten_resized_keeps_extent() {
        let t = Datatype::resized(0, 192, Datatype::bytes(64));
        let f = flatten(&t);
        assert_eq!(f.segs, vec![Seg::new(0, 64)]);
        assert_eq!(f.extent, 192);
        assert!(!f.contiguous || f.size != f.extent);
    }

    #[test]
    fn prefix_and_data_to_displ() {
        let t = Datatype::vector(3, 1, 3, Datatype::bytes(4));
        let f = flatten(&t);
        assert_eq!(f.prefix, vec![0, 4, 8, 12]);
        assert_eq!(f.data_to_displ(0), (0, 0));
        assert_eq!(f.data_to_displ(3), (0, 3));
        assert_eq!(f.data_to_displ(4), (1, 12));
        assert_eq!(f.data_to_displ(11), (2, 27));
    }

    #[test]
    fn wire_roundtrip() {
        let t = Datatype::vector(5, 2, 3, Datatype::bytes(4));
        let f = flatten(&t);
        let w = f.to_wire();
        let g = FlatType::from_wire(&w);
        assert_eq!(f, g);
    }

    #[test]
    fn struct_field_counts_tile() {
        let t = Datatype::structure(vec![(0, 3, Datatype::resized(0, 8, Datatype::bytes(4)))]);
        assert_eq!(segs(&t), vec![(0, 4), (8, 4), (16, 4)]);
    }

    #[test]
    fn nested_noncontig_in_noncontig() {
        let inner = Datatype::vector(2, 1, 2, Datatype::bytes(1)); // x.x. extent 3
        assert_eq!(inner.extent(), 3);
        let outer = Datatype::vector(2, 1, 2, inner); // stride 6 bytes
        assert_eq!(segs(&outer), vec![(0, 1), (2, 1), (6, 1), (8, 1)]);
    }

    #[test]
    fn size_matches_flat_sum() {
        let t = Datatype::structure(vec![
            (3, 2, Datatype::vector(2, 2, 3, Datatype::bytes(2))),
            (100, 1, Datatype::bytes(10)),
        ]);
        let f = flatten(&t);
        assert_eq!(f.size, t.size());
    }

    #[test]
    fn shared_flatten_hits_on_equal_types() {
        // Structurally equal but independently constructed trees share one
        // flattening.
        let a = Datatype::vector(907, 2, 5, Datatype::bytes(3));
        let b = Datatype::vector(907, 2, 5, Datatype::bytes(3));
        let (fa, _) = flatten_shared(&a);
        let (fb, hit_b) = flatten_shared(&b);
        assert!(hit_b, "equal type must hit the cache");
        assert!(std::sync::Arc::ptr_eq(&fa, &fb), "hit must share the Arc");
        assert_eq!(*fa, flatten(&a));
        // A different type misses.
        let c = Datatype::vector(907, 2, 6, Datatype::bytes(3));
        let (fc, hit_c) = flatten_shared(&c);
        assert!(!hit_c);
        assert_eq!(*fc, flatten(&c));
    }

    #[test]
    fn shared_flatten_cap_resets_not_breaks() {
        let mut cache = super::FlattenCache::default();
        for i in 0..(super::FLATTEN_CACHE_CAP as u64 + 50) {
            let t = Datatype::contiguous(i + 1, Datatype::bytes(1));
            let (f, hit) = cache.get(&t);
            assert!(!hit);
            assert_eq!(f.size, i + 1);
            assert!(cache.map.len() <= super::FLATTEN_CACHE_CAP);
        }
    }
}
