//! # flexio-io — independent I/O methods over the parallel file system
//!
//! These are the "optimizations beneath collective I/O" of the paper's
//! §5.1/§6.3: ways of moving a byte stream — handed over as an iovec-style
//! run list, never packed — to/from a sorted list of non-contiguous file
//! segments.
//!
//! * [`IoMethod::Naive`] — list I/O: one file-system call per contiguous
//!   segment. Pays per-request overhead per segment (and page RMW for
//!   unaligned segments), but touches only useful bytes.
//! * [`IoMethod::DataSieve`] — read the covering extent into a sieve
//!   buffer, patch (write case) or extract (read case), and write the whole
//!   chunk back. Few large sequential requests, but moves gap bytes too.
//! * [`IoMethod::Conditional`] — the paper's conditional data sieving:
//!   choose between the two by the datatype extent (crossover ≈ 16 KiB in
//!   §6.3), with a contiguous fast path when segments form one run.
//!
//! Because the flexible collective engine funnels every buffer cycle
//! through this one interface, the method can differ per cycle — the "more
//! code paths with less code" point of §5.1.

#![warn(missing_docs)]

use flexio_pfs::{FileHandle, IoCompletion, RunCursor, RunCursorMut};
use std::borrow::Cow;

/// How to move data between memory and non-contiguous file space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMethod {
    /// One file-system call per contiguous segment (list I/O).
    Naive,
    /// Data sieving with the given sieve-buffer size in bytes.
    DataSieve {
        /// Sieve buffer size in bytes (ROMIO default: 512 KiB).
        buffer: usize,
    },
    /// Pick [`IoMethod::Naive`] when the access pattern's datatype extent
    /// is at least `extent_threshold`, otherwise sieve (§6.3).
    Conditional {
        /// Datatype-extent crossover in bytes (paper: ≈ 16 KiB).
        extent_threshold: u64,
        /// Sieve buffer size used when sieving is chosen.
        sieve_buffer: usize,
    },
}

impl Default for IoMethod {
    fn default() -> Self {
        IoMethod::Conditional { extent_threshold: 16 << 10, sieve_buffer: 512 << 10 }
    }
}

/// The concrete method picked after conditional resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    /// Single contiguous run: one plain call.
    Contiguous,
    /// Per-segment calls.
    Naive,
    /// Sieve with this buffer size.
    DataSieve(usize),
}

/// Resolve a method against an access: `segs` are sorted non-overlapping
/// `(offset, len)` pairs; `pattern_extent` is the datatype extent of the
/// pattern that produced them (the conditional's selection metric).
pub fn resolve(method: &IoMethod, segs: &[(u64, u64)], pattern_extent: u64) -> Resolved {
    let contiguous = match segs {
        [] | [_] => true,
        _ => segs.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0),
    };
    if contiguous {
        return Resolved::Contiguous;
    }
    match *method {
        IoMethod::Naive => Resolved::Naive,
        IoMethod::DataSieve { buffer } => Resolved::DataSieve(buffer),
        IoMethod::Conditional { extent_threshold, sieve_buffer } => {
            if pattern_extent >= extent_threshold {
                Resolved::Naive
            } else {
                Resolved::DataSieve(sieve_buffer)
            }
        }
    }
}

fn total_len(segs: &[(u64, u64)]) -> u64 {
    segs.iter().map(|(_, l)| l).sum()
}

/// The caller's contract: the run list is exactly as long as the segments
/// — checked in every profile, because without the check a longer source
/// list writes past the last segment (another aggregator's realm) or
/// drops its tail, and a longer destination list is left partly unfilled,
/// all without an error. The segment list's shape is internal and O(n)
/// to check: debug builds only.
fn check_segs(segs: &[(u64, u64)], run_bytes: usize) {
    let seg_bytes = total_len(segs);
    assert!(
        seg_bytes == run_bytes as u64,
        "segments cover {seg_bytes} bytes but the run list holds {run_bytes}"
    );
    debug_assert!(
        segs.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
        "segments must be sorted and non-overlapping"
    );
    debug_assert!(segs.iter().all(|(_, l)| *l > 0), "zero-length segment");
}

/// One request of a chain: charged for the span `[off, off+len)`, moving
/// the bytes of its segments.
type Request<'a> = (u64, u64, Cow<'a, [(u64, u64)]>);

/// The chain of requests a resolved method issues, in file order: a
/// contiguous access is one request over its span, list I/O one request
/// per segment, data sieving one per sieve chunk ([`sieve_chunks`]).
fn requests(segs: &[(u64, u64)], how: Resolved) -> Box<dyn Iterator<Item = Request<'_>> + '_> {
    match how {
        Resolved::Contiguous => Box::new(
            segs.first().map(|&(off, _)| (off, total_len(segs), Cow::Borrowed(segs))).into_iter(),
        ),
        Resolved::Naive => {
            Box::new(segs.iter().map(|s| (s.0, s.1, Cow::Borrowed(std::slice::from_ref(s)))))
        }
        Resolved::DataSieve(buffer) => {
            Box::new(sieve_chunks(segs, buffer).map(|(off, len, c)| (off, len, Cow::Owned(c))))
        }
    }
}

/// Write the file segments from an iovec-style run list (`runs`,
/// concatenating to the segments' bytes — exactly as many; a mismatch
/// panics), so callers hand over borrowed user-buffer or received-payload
/// slices as they are; a packed stream is a run list of one. Segment
/// boundaries and run boundaries cut the same byte stream independently
/// — neither needs to nest in the other.
///
/// The resolved method is a chain of requests — one over a contiguous
/// access's span, one per segment (list I/O) or one per sieve chunk —
/// that goes down one after the other through [`FileHandle::write_span`],
/// each with the sub-runs of its segments as they are: a request whose
/// segments leave gaps in its span (a sieve chunk) is a read-modify-write,
/// every other one a plain write.
/// The data is committed immediately; the returned completion spans the
/// chain and carries the first fault any request reported — a faulted
/// request still charges its window, so the rest are issued. Whether a
/// copy is *charged* is the caller's model: the engines charge a sieved
/// group's double-buffer copy themselves.
pub fn write_gathered_nb(
    h: &FileHandle,
    now: u64,
    segs: &[(u64, u64)],
    runs: &[&[u8]],
    method: &IoMethod,
    pattern_extent: u64,
) -> IoCompletion {
    check_segs(segs, runs.iter().map(|r| r.len()).sum());
    let (mut t, mut err) = (now, None);
    let mut cursor = RunCursor::new(runs);
    let mut sub: Vec<&[u8]> = Vec::new();
    for (off, len, req) in requests(segs, resolve(method, segs, pattern_extent)) {
        let data = total_len(&req);
        sub.clear();
        let mut left = data as usize;
        while left > 0 {
            let run = cursor.next_slice(left).expect("source runs exhausted");
            left -= run.len();
            sub.push(run);
        }
        let c = h.write_span(t, off, len, &req, &sub, data == len);
        t = c.done_at();
        err = err.or(c.error());
    }
    IoCompletion::span(now, t).or_error(err)
}

/// Read the file segments straight into the caller's run list (`dests`,
/// filled in stream order, exactly as long as the segments; a mismatch
/// panics) — [`write_gathered_nb`]'s twin, over
/// [`FileHandle::read_span`]. `dests` is filled immediately, whatever
/// the completion reports; a sieve chunk is charged as one read of the
/// chunk and delivers only its segments' bytes.
pub fn read_scattered_nb(
    h: &FileHandle,
    now: u64,
    segs: &[(u64, u64)],
    dests: &mut [&mut [u8]],
    method: &IoMethod,
    pattern_extent: u64,
) -> IoCompletion {
    check_segs(segs, dests.iter().map(|d| d.len()).sum());
    let (mut t, mut err) = (now, None);
    let mut cursor = RunCursorMut::new(dests);
    let mut sub: Vec<&mut [u8]> = Vec::new();
    for (off, len, req) in requests(segs, resolve(method, segs, pattern_extent)) {
        sub.clear();
        let mut left = total_len(&req) as usize;
        while left > 0 {
            let run = cursor.next_slice(left).expect("dest runs exhausted");
            left -= run.len();
            sub.push(run);
        }
        let c = h.read_span(t, off, len, &req, &mut sub);
        t = c.done_at();
        err = err.or(c.error());
    }
    IoCompletion::span(now, t).or_error(err)
}

/// The sieve chunks of `segs` under a sieve buffer of `buffer` bytes, in
/// file order: `(chunk start, chunk length, segments clipped to the
/// chunk)`. A chunk starts at a segment start — empty sieve windows are
/// not read or written (as in ADIOI), so distant segment groups do not
/// drag the whole gap through the sieve buffer — and a segment longer than
/// the buffer continues into the next chunk.
fn sieve_chunks(
    segs: &[(u64, u64)],
    buffer: usize,
) -> impl Iterator<Item = (u64, u64, Vec<(u64, u64)>)> + '_ {
    let buffer = buffer.max(1) as u64;
    let end = segs.last().map_or(0, |&(off, len)| off + len);
    let mut chunk_start = segs.first().map_or(0, |s| s.0);
    let mut si = 0usize;
    std::iter::from_fn(move || {
        if chunk_start >= end {
            return None;
        }
        let chunk_end = (chunk_start + buffer).min(end);
        let mut clipped: Vec<(u64, u64)> = Vec::new();
        while si < segs.len() && segs[si].0 < chunk_end {
            let (off, len) = segs[si];
            let lo = off.max(chunk_start);
            let hi = (off + len).min(chunk_end);
            clipped.push((lo, hi - lo));
            if off + len > chunk_end {
                break; // segment continues into the next chunk
            }
            si += 1;
        }
        let item = (chunk_start, chunk_end - chunk_start, clipped);
        chunk_start = match segs.get(si) {
            Some(&(off, _)) => off.max(chunk_end),
            None => end,
        };
        Some(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_pfs::{Pfs, PfsConfig, PfsCostModel, PfsError};
    use std::sync::Arc;

    fn pfs() -> Arc<Pfs> {
        Pfs::new(PfsConfig::test_tiny())
    }

    fn timed_pfs() -> Arc<Pfs> {
        Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() })
    }

    fn strided_segs(start: u64, n: u64, len: u64, stride: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (start + i * stride, len)).collect()
    }

    /// A packed stream is a run list of one: the blocking form most
    /// tests want.
    fn write_one(
        h: &FileHandle,
        now: u64,
        segs: &[(u64, u64)],
        data: &[u8],
        method: &IoMethod,
        pattern_extent: u64,
    ) -> Result<u64, PfsError> {
        write_gathered_nb(h, now, segs, &[data], method, pattern_extent).into_result()
    }

    fn read_one(
        h: &FileHandle,
        now: u64,
        segs: &[(u64, u64)],
        out: &mut [u8],
        method: &IoMethod,
        pattern_extent: u64,
    ) -> Result<u64, PfsError> {
        read_scattered_nb(h, now, segs, &mut [out], method, pattern_extent).into_result()
    }

    fn packed_for(segs: &[(u64, u64)]) -> Vec<u8> {
        (0..total_len(segs)).map(|i| (i % 241 + 1) as u8).collect()
    }

    fn readback(pfs: &Arc<Pfs>, segs: &[(u64, u64)]) -> Vec<u8> {
        let h = pfs.open("f", 99);
        let mut out = Vec::new();
        for &(off, len) in segs {
            let mut buf = vec![0u8; len as usize];
            let _ = h.read(0, off, &mut buf); // data lands even if a fault is injected
            out.extend(buf);
        }
        out
    }

    #[test]
    fn resolve_contiguous_fast_path() {
        let segs = [(0u64, 10u64), (10, 20), (30, 5)];
        assert_eq!(resolve(&IoMethod::Naive, &segs, 1 << 20), Resolved::Contiguous);
        assert_eq!(resolve(&IoMethod::Naive, &[], 0), Resolved::Contiguous);
    }

    #[test]
    fn resolve_conditional_threshold() {
        let segs = [(0u64, 4u64), (100, 4)];
        let m = IoMethod::Conditional { extent_threshold: 1000, sieve_buffer: 64 };
        assert_eq!(resolve(&m, &segs, 999), Resolved::DataSieve(64));
        assert_eq!(resolve(&m, &segs, 1000), Resolved::Naive);
    }

    #[test]
    fn naive_write_roundtrip() {
        let pfs = pfs();
        let h = pfs.open("f", 0);
        let segs = strided_segs(5, 10, 7, 23);
        let data = packed_for(&segs);
        write_one(&h, 0, &segs, &data, &IoMethod::Naive, 0).unwrap();
        assert_eq!(readback(&pfs, &segs), data);
    }

    #[test]
    fn sieve_write_roundtrip() {
        let pfs = pfs();
        let h = pfs.open("f", 0);
        let segs = strided_segs(5, 10, 7, 23);
        let data = packed_for(&segs);
        write_one(&h, 0, &segs, &data, &IoMethod::DataSieve { buffer: 64 }, 0).unwrap();
        assert_eq!(readback(&pfs, &segs), data);
    }

    #[test]
    fn sieve_write_preserves_gap_data() {
        let pfs = pfs();
        let h = pfs.open("f", 0);
        // Pre-fill the file with 9s.
        h.write(0, 0, &vec![9u8; 300]).unwrap();
        let segs = strided_segs(10, 5, 4, 20);
        let data = packed_for(&segs);
        write_one(&h, 0, &segs, &data, &IoMethod::DataSieve { buffer: 32 }, 0).unwrap();
        assert_eq!(readback(&pfs, &segs), data);
        // Gap bytes untouched.
        let mut gap = [0u8; 4];
        h.read(0, 14, &mut gap).unwrap();
        assert_eq!(gap, [9u8; 4]);
    }

    #[test]
    fn sieve_segment_spanning_chunks() {
        let pfs = pfs();
        let h = pfs.open("f", 0);
        // One 100-byte segment with a 10-byte sieve buffer.
        let segs = vec![(3u64, 100u64), (200, 8)];
        let data = packed_for(&segs);
        write_one(&h, 0, &segs, &data, &IoMethod::DataSieve { buffer: 10 }, 0).unwrap();
        assert_eq!(readback(&pfs, &segs), data);
    }

    #[test]
    fn reads_match_writes_all_methods() {
        for method in [
            IoMethod::Naive,
            IoMethod::DataSieve { buffer: 48 },
            IoMethod::Conditional { extent_threshold: 10, sieve_buffer: 48 },
            IoMethod::Conditional { extent_threshold: 1 << 30, sieve_buffer: 48 },
        ] {
            let pfs = pfs();
            let h = pfs.open("f", 0);
            let segs = strided_segs(11, 9, 6, 31);
            let data = packed_for(&segs);
            write_one(&h, 0, &segs, &data, &IoMethod::Naive, 0).unwrap();
            let mut out = vec![0u8; data.len()];
            read_one(&h, 0, &segs, &mut out, &method, 100).unwrap();
            assert_eq!(out, data, "method {method:?}");
        }
    }

    #[test]
    fn naive_issues_more_requests_than_sieve() {
        let pfs_a = timed_pfs();
        let h = pfs_a.open("f", 0);
        let segs = strided_segs(0, 16, 4, 16);
        let data = packed_for(&segs);
        write_one(&h, 0, &segs, &data, &IoMethod::Naive, 0).unwrap();
        let naive_reqs = pfs_a.stats().ost_requests;

        let pfs_b = timed_pfs();
        let h = pfs_b.open("f", 0);
        write_one(&h, 0, &segs, &data, &IoMethod::DataSieve { buffer: 1 << 20 }, 0).unwrap();
        let sieve_reqs = pfs_b.stats().ost_requests;
        assert!(naive_reqs > sieve_reqs, "naive {naive_reqs} should exceed sieve {sieve_reqs}");
    }

    #[test]
    fn sieve_moves_more_bytes_than_naive() {
        let segs = strided_segs(0, 16, 4, 64); // 6% useful
        let data = packed_for(&segs);

        let pfs_a = timed_pfs();
        let h = pfs_a.open("f", 0);
        write_one(&h, 0, &segs, &data, &IoMethod::Naive, 0).unwrap();
        let naive_bytes = pfs_a.stats().bytes_written;

        let pfs_b = timed_pfs();
        let h = pfs_b.open("f", 0);
        write_one(&h, 0, &segs, &data, &IoMethod::DataSieve { buffer: 1 << 20 }, 0).unwrap();
        let sieve_bytes = pfs_b.stats().bytes_written;
        assert!(sieve_bytes > naive_bytes * 5, "sieve {sieve_bytes} vs naive {naive_bytes}");
    }

    #[test]
    fn fully_covered_chunk_skips_preread() {
        // Two sieve chunks, each filled by its one segment: a covered chunk
        // is a plain write, never a read-modify-write.
        let pfs = timed_pfs();
        let h = pfs.open("f", 0);
        let segs = vec![(0u64, 64u64), (100, 4)];
        let data = packed_for(&segs);
        let t = write_one(&h, 0, &segs, &data, &IoMethod::DataSieve { buffer: 64 }, 0).unwrap();
        assert!(t > 0);
        assert_eq!(pfs.stats().bytes_read, 0, "covered chunk must skip pre-read");
    }

    #[test]
    fn write_empty_segments_noop() {
        let pfs = pfs();
        let h = pfs.open("f", 0);
        let t = write_one(&h, 5, &[], &[], &IoMethod::Naive, 0).unwrap();
        assert_eq!(t, 5);
        assert_eq!(h.size(), 0);
    }

    #[test]
    fn sieve_skips_large_gaps() {
        // Two segment groups separated by a gap far larger than the sieve
        // buffer: the gap must not be read or written.
        let pfs = timed_pfs();
        let h = pfs.open("f", 0);
        h.write(0, 0, &vec![9u8; 4000]).unwrap(); // pre-fill so gaps hold data
        let before = pfs.stats().bytes_read;
        let segs = vec![(0u64, 4u64), (8, 4), (3000, 4), (3008, 4)];
        let data = packed_for(&segs);
        write_one(&h, 0, &segs, &data, &IoMethod::DataSieve { buffer: 64 }, 0).unwrap();
        let read = pfs.stats().bytes_read - before;
        assert!(read < 100, "sieve read {read} bytes; it must skip the 3 KB gap");
        assert_eq!(readback(&pfs, &segs), data);
        // Gap data intact.
        let mut gap = [0u8; 4];
        h.read(0, 100, &mut gap).unwrap();
        assert_eq!(gap, [9u8; 4]);
    }

    #[test]
    fn concurrent_sieve_writers_never_clobber() {
        // Two threads sieve-write interleaved segments of the same region
        // concurrently, many rounds. Without atomic RMW, one thread's
        // write-back of stale gap bytes erases the other's data.
        for round in 0..50 {
            let pfs = pfs();
            let h0 = pfs.open("f", 0);
            let h1 = pfs.open("f", 1);
            // Interleaved 8-byte segments over 512 bytes: rank 0 even
            // slots, rank 1 odd slots.
            let segs0: Vec<(u64, u64)> = (0..32).map(|i| (i * 16, 8u64)).collect();
            let segs1: Vec<(u64, u64)> = (0..32).map(|i| (i * 16 + 8, 8u64)).collect();
            let d0 = vec![1u8; 32 * 8];
            let d1 = vec![2u8; 32 * 8];
            std::thread::scope(|s| {
                s.spawn(|| {
                    write_one(&h0, 0, &segs0, &d0, &IoMethod::DataSieve { buffer: 96 }, 0).unwrap()
                });
                s.spawn(|| {
                    write_one(&h1, 0, &segs1, &d1, &IoMethod::DataSieve { buffer: 96 }, 0).unwrap()
                });
            });
            let mut img = vec![0u8; 512];
            pfs.open("f", 9).read(0, 0, &mut img).unwrap();
            for (i, &b) in img.iter().enumerate() {
                let want = if (i / 8) % 2 == 0 { 1 } else { 2 };
                assert_eq!(b, want, "round {round}: byte {i} clobbered");
            }
        }
    }

    #[test]
    fn completion_reports_its_window_and_wait_clamps() {
        for method in [IoMethod::Naive, IoMethod::DataSieve { buffer: 48 }, IoMethod::default()] {
            let pfs = timed_pfs();
            let h = pfs.open("f", 0);
            let segs = strided_segs(11, 9, 6, 31);
            let data = packed_for(&segs);
            let c = write_gathered_nb(&h, 700, &segs, &[&data], &method, 100);
            assert_eq!(c.issued_at(), 700);
            assert!(c.done_at() > 700, "method {method:?}");
            assert_eq!(c.duration(), c.done_at() - 700);
            assert_eq!(c.into_result(), Ok(c.done_at()));
            // The read sees the committed data without waiting on the
            // write's completion handle first.
            let mut out = vec![0u8; data.len()];
            let r = read_scattered_nb(&h, c.done_at(), &segs, &mut [&mut out], &method, 100);
            assert_eq!(out, data);
            assert_eq!(readback(&pfs, &segs), data);
            // wait() clamps in both directions.
            assert_eq!(r.wait(0).unwrap(), r.done_at());
            assert_eq!(r.wait(r.done_at() + 3).unwrap(), r.done_at() + 3);
        }
    }

    /// Split `data` into runs at pseudo-odd boundaries so run cuts and
    /// segment cuts never line up by accident.
    fn odd_runs(data: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut step = 3usize;
        while pos < data.len() {
            let take = step.min(data.len() - pos);
            out.push(&data[pos..pos + take]);
            pos += take;
            step = step % 7 + 3; // 3,6,4,7,3,...
        }
        out
    }

    #[test]
    fn gathered_write_matches_packed_in_time_and_bytes() {
        for method in [IoMethod::Naive, IoMethod::DataSieve { buffer: 48 }, IoMethod::default()] {
            let pfs_a = timed_pfs();
            let pfs_b = timed_pfs();
            let ha = pfs_a.open("f", 0);
            let hb = pfs_b.open("f", 0);
            let segs = strided_segs(11, 9, 6, 31);
            let data = packed_for(&segs);
            let packed = write_gathered_nb(&ha, 700, &segs, &[&data], &method, 100);
            let runs = odd_runs(&data);
            let gathered = write_gathered_nb(&hb, 700, &segs, &runs, &method, 100);
            assert_eq!(gathered.done_at(), packed.done_at(), "method {method:?}");
            // Compare stats before readback: reading from another client
            // revokes the writer's cached pages and the flush traffic
            // would skew whichever side is read first.
            assert_eq!(
                pfs_a.stats().bytes_written,
                pfs_b.stats().bytes_written,
                "method {method:?}"
            );
            assert_eq!(
                pfs_a.stats().ost_requests,
                pfs_b.stats().ost_requests,
                "method {method:?} request count"
            );
            assert_eq!(readback(&pfs_b, &segs), data, "method {method:?}");
            assert_eq!(readback(&pfs_a, &segs), data, "method {method:?}");
        }
    }

    #[test]
    fn scattered_read_matches_packed_in_time_and_bytes() {
        for method in [IoMethod::Naive, IoMethod::DataSieve { buffer: 48 }, IoMethod::default()] {
            // Twin filesystems: a read books OST time and warms
            // the client cache, so running both reads against one PFS
            // would make the second strictly cheaper.
            let pfs_a = timed_pfs();
            let pfs_b = timed_pfs();
            let ha = pfs_a.open("f", 0);
            let hb = pfs_b.open("f", 0);
            let segs = strided_segs(11, 9, 6, 31);
            let data = packed_for(&segs);
            let ta = write_one(&ha, 0, &segs, &data, &IoMethod::Naive, 100).unwrap();
            let tb = write_one(&hb, 0, &segs, &data, &IoMethod::Naive, 100).unwrap();
            assert_eq!(ta, tb);
            let t = ta;
            let mut packed_out = vec![0u8; data.len()];
            let packed = read_scattered_nb(&ha, t, &segs, &mut [&mut packed_out], &method, 100);
            // Scatter into unevenly sized destination runs (incl. empties).
            let mut bufs: Vec<Vec<u8>> = Vec::new();
            let mut remaining = data.len();
            let mut step = 5usize;
            while remaining > 0 {
                let take = step.min(remaining);
                bufs.push(vec![0u8; take]);
                bufs.push(Vec::new()); // empty runs must be skipped cleanly
                remaining -= take;
                step = step % 6 + 2;
            }
            let mut dests: Vec<&mut [u8]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            let scattered = read_scattered_nb(&hb, t, &segs, &mut dests, &method, 100);
            assert_eq!(scattered.done_at(), packed.done_at(), "method {method:?}");
            let got: Vec<u8> = bufs.concat();
            assert_eq!(got, data, "method {method:?}");
            assert_eq!(packed_out, data);
        }
    }

    #[test]
    fn gathered_empty_runs_and_segments_noop() {
        let pfs = pfs();
        let h = pfs.open("f", 0);
        let c = write_gathered_nb(&h, 5, &[], &[], &IoMethod::Naive, 0);
        assert_eq!((c.issued_at(), c.done_at()), (5, 5));
        let r = read_scattered_nb(&h, 7, &[], &mut [], &IoMethod::Naive, 0);
        assert_eq!((r.issued_at(), r.done_at()), (7, 7));
        assert_eq!(h.size(), 0);
    }

    // The length contract holds in every profile: each of these returned
    // no error from a release build before it was an `assert!`.

    #[test]
    #[should_panic(expected = "segments cover 4 bytes but the run list holds 8")]
    fn run_list_longer_than_one_segment_panics() {
        // Contiguous arm: all 8 bytes used to reach the file, 4 of them
        // past the segment.
        let pfs = pfs();
        let h = pfs.open("f", 0);
        let _ = write_gathered_nb(&h, 0, &[(0, 4)], &[&[7u8; 8]], &IoMethod::Naive, 0);
    }

    #[test]
    #[should_panic(expected = "segments cover 8 bytes but the run list holds 12")]
    fn run_list_longer_than_the_segments_panics() {
        // Naive arm: the last 4 bytes used to be dropped.
        let pfs = pfs();
        let h = pfs.open("f", 0);
        let _ = write_gathered_nb(&h, 0, &[(0, 4), (100, 4)], &[&[7u8; 12]], &IoMethod::Naive, 0);
    }

    #[test]
    #[should_panic(expected = "segments cover 8 bytes but the run list holds 12")]
    fn dest_list_longer_than_the_segments_panics() {
        // The destination's tail used to be left unfilled.
        let pfs = pfs();
        let h = pfs.open("f", 0);
        let mut out = [0u8; 12];
        let _ = read_scattered_nb(&h, 0, &[(0, 4), (100, 4)], &mut [&mut out], &IoMethod::Naive, 0);
    }

    #[test]
    #[should_panic(expected = "segments cover 8 bytes but the run list holds 5")]
    fn run_list_shorter_than_the_segments_panics() {
        let pfs = pfs();
        let h = pfs.open("f", 0);
        let _ = write_gathered_nb(&h, 0, &[(0, 4), (100, 4)], &[&[7u8; 5]], &IoMethod::Naive, 0);
    }

    #[test]
    fn completion_span_and_merge() {
        // A naive write's completion spans its chain of per-segment
        // requests, issued one after the other: from `now` to the last
        // one's completion, exactly as if issued by hand.
        let segs = strided_segs(5, 4, 7, 23);
        let data = packed_for(&segs);
        let chained = timed_pfs();
        let c = write_gathered_nb(&chained.open("f", 0), 300, &segs, &[&data], &IoMethod::Naive, 0);
        let by_hand = timed_pfs();
        let h = by_hand.open("f", 0);
        let mut t = 300;
        for (&(off, len), run) in segs.iter().zip(data.chunks(7)) {
            t = h.write_span(t, off, len, &[(off, len)], &[run], true).done_at();
        }
        assert_eq!((c.issued_at(), c.done_at(), c.duration()), (300, t, t - 300));
        assert_eq!(chained.stats(), by_hand.stats());
    }

    #[test]
    fn faulted_packed_write_lands_data_and_charges_full_window() {
        use flexio_pfs::FaultPlan;
        for method in [IoMethod::Naive, IoMethod::DataSieve { buffer: 48 }] {
            let clean = timed_pfs();
            let faulty = Pfs::with_faults(
                PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
                FaultPlan::transient(3, 1.0),
            );
            let hc = clean.open("f", 0);
            let hf = faulty.open("f", 0);
            let segs = strided_segs(5, 10, 7, 23);
            let data = packed_for(&segs);
            let t_clean = write_one(&hc, 0, &segs, &data, &method, 0).unwrap();
            let e = write_one(&hf, 0, &segs, &data, &method, 0).unwrap_err();
            // Every request is still issued and charged, so the fault is
            // stamped with the fault-free completion time.
            assert_eq!(e.at, t_clean, "method {method:?}");
            // ...and the data landed anyway: retries are idempotent.
            assert_eq!(readback(&faulty, &segs), data, "method {method:?}");
        }
    }

    #[test]
    fn nb_completion_carries_fault_to_wait() {
        use flexio_pfs::FaultPlan;
        let pfs = Pfs::with_faults(PfsConfig::test_tiny(), FaultPlan::transient(3, 1.0));
        let h = pfs.open("f", 0);
        let segs = strided_segs(0, 4, 8, 32);
        let data = packed_for(&segs);
        let c = write_gathered_nb(&h, 10, &segs, &[&data], &IoMethod::Naive, 1 << 20);
        let e = c.error().expect("full-rate plan must fault");
        assert_eq!(e.at, c.done_at());
        let late = c.done_at() + 100;
        assert_eq!(c.wait(late).unwrap_err().at, late, "wait stamps the caller's clock");
        // A fault recorded into a window is restamped with its end; a
        // clean span does not invent one.
        assert_eq!(IoCompletion::span(0, 5).or_error(c.error()).error().map(|e| e.at), Some(5));
        assert!(IoCompletion::span(0, 5).error().is_none());
    }

    #[test]
    fn sieve_chunks_start_at_data_and_clip_segments() {
        let segs = [(0u64, 10u64), (10, 10), (30, 10), (500, 25)];
        let chunks: Vec<_> = sieve_chunks(&segs, 16).collect();
        assert_eq!(
            chunks,
            vec![
                (0, 16, vec![(0, 10), (10, 6)]), // covered: 16 of 16
                (16, 16, vec![(16, 4), (30, 2)]),
                (32, 16, vec![(32, 8)]),
                (500, 16, vec![(500, 16)]), // the gap before it is skipped
                (516, 9, vec![(516, 9)]),
            ]
        );
        assert_eq!(sieve_chunks(&[], 16).count(), 0);
    }
}
