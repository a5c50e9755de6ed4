//! Client-side write-back page cache.
//!
//! Pages are cached only under held locks; the [`crate::fs`] layer flushes
//! and invalidates a client's pages when its lock is revoked, which is what
//! makes the cache coherent — and what makes lock ping-pong expensive. In a
//! write-only workload with persistent file realms every byte has a single
//! writer, so locks are never revoked and dirty pages accumulate cheaply
//! (§6.4's "usefulness of an incoherent client-side cache").

use std::collections::HashMap;

/// One cached page.
#[derive(Debug, Clone)]
struct Page {
    data: Box<[u8]>,
    dirty: bool,
}

/// A page-granular write-back cache for one (client, file) pair.
#[derive(Debug, Default)]
pub struct ClientCache {
    pages: HashMap<u64, Page>,
    page_size: u64,
}

/// A contiguous dirty run ready to be written back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyRun {
    /// Absolute file offset of the run start (page aligned).
    pub off: u64,
    /// The bytes to write.
    pub data: Vec<u8>,
}

impl ClientCache {
    /// New cache with the given page size.
    pub fn new(page_size: u64) -> Self {
        ClientCache { pages: HashMap::new(), page_size }
    }

    /// Is the page containing `off` cached?
    pub fn has_page(&self, page_idx: u64) -> bool {
        self.pages.contains_key(&page_idx)
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no pages are cached.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Insert a clean page fetched from the server.
    pub fn fill(&mut self, page_idx: u64, data: Vec<u8>) {
        debug_assert_eq!(data.len() as u64, self.page_size);
        self.pages.entry(page_idx).or_insert(Page { data: data.into_boxed_slice(), dirty: false });
    }

    /// Page indices in `[off, off+len)` that are *not* cached (and would
    /// need filling before a partial write or a read).
    pub fn missing_pages(&self, off: u64, len: u64) -> Vec<u64> {
        if len == 0 {
            return Vec::new();
        }
        let first = off / self.page_size;
        let last = (off + len - 1) / self.page_size;
        (first..=last).filter(|p| !self.pages.contains_key(p)).collect()
    }

    /// Write `data` at `off` into the cache, marking pages dirty. Pages
    /// that are fully overwritten are created on demand; partially
    /// overwritten pages must already be cached (fill them first via
    /// [`ClientCache::missing_pages`] + [`ClientCache::fill`]).
    pub fn write(&mut self, off: u64, data: &[u8]) {
        self.write_pieces(off, data.len() as u64, std::iter::once((off, data)));
    }

    /// Mark every page of `[off, off+len)` dirty and copy `pieces` —
    /// ascending, non-overlapping `(absolute offset, bytes)` runs inside
    /// the range — to where they land; bytes of the range no piece covers
    /// keep what their page holds. One page lookup per page, however many
    /// pieces fall in it. A page the range covers whole is created on
    /// demand (the caller's pieces must then cover it, or it reads as
    /// zeros); a partially covered page must already be cached.
    pub fn write_pieces<'a>(
        &mut self,
        off: u64,
        len: u64,
        mut pieces: impl Iterator<Item = (u64, &'a [u8])>,
    ) {
        if len == 0 {
            return;
        }
        let ps = self.page_size;
        let end = off + len;
        // The piece (or the rest of one) that starts at or past the page
        // being filled.
        let mut pending = pieces.next();
        for page_idx in off / ps..=(end - 1) / ps {
            let (p_start, p_end) = (page_idx * ps, (page_idx + 1) * ps);
            let page = self.pages.entry(page_idx).or_insert_with(|| {
                debug_assert!(
                    off <= p_start && end >= p_end,
                    "partial write to uncached page {page_idx}; fill it first"
                );
                Page { data: vec![0u8; ps as usize].into_boxed_slice(), dirty: false }
            });
            page.dirty = true;
            while let Some((at, bytes)) = pending {
                debug_assert!(
                    at >= p_start && at + bytes.len() as u64 <= end,
                    "piece outside range"
                );
                if at >= p_end {
                    break;
                }
                let n = ((p_end - at) as usize).min(bytes.len());
                let in_page = (at - p_start) as usize;
                page.data[in_page..in_page + n].copy_from_slice(&bytes[..n]);
                pending = if n < bytes.len() {
                    Some((at + n as u64, &bytes[n..]))
                } else {
                    pieces.next()
                };
            }
        }
        debug_assert!(pending.is_none(), "piece past the end of the range");
    }

    /// Read `buf.len()` bytes at `off`. Every page must be cached (fill
    /// misses first).
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        let ps = self.page_size;
        let mut pos = 0u64;
        let len = buf.len() as u64;
        while pos < len {
            let abs = off + pos;
            let page_idx = abs / ps;
            let in_page = abs % ps;
            let n = (ps - in_page).min(len - pos);
            let page = self.pages.get(&page_idx).expect("read of uncached page; fill first");
            buf[pos as usize..(pos + n) as usize]
                .copy_from_slice(&page.data[in_page as usize..(in_page + n) as usize]);
            pos += n;
        }
    }

    /// Collect dirty pages intersecting `[start, end)` as coalesced runs,
    /// marking them clean. Runs are page-aligned and sorted.
    pub fn take_dirty(&mut self, start: u64, end: u64) -> Vec<DirtyRun> {
        let ps = self.page_size;
        let mut idxs: Vec<u64> = self
            .pages
            .iter()
            .filter(|(idx, p)| {
                let p_start = **idx * ps;
                p.dirty && p_start < end && p_start + ps > start
            })
            .map(|(idx, _)| *idx)
            .collect();
        idxs.sort_unstable();
        let mut runs: Vec<DirtyRun> = Vec::new();
        for idx in idxs {
            let page = self.pages.get_mut(&idx).unwrap();
            page.dirty = false;
            let bytes = page.data.to_vec();
            match runs.last_mut() {
                Some(r) if r.off + r.data.len() as u64 == idx * ps => r.data.extend(bytes),
                _ => runs.push(DirtyRun { off: idx * ps, data: bytes }),
            }
        }
        runs
    }

    /// Collect *all* dirty pages as coalesced runs, marking them clean.
    pub fn take_all_dirty(&mut self) -> Vec<DirtyRun> {
        self.take_dirty(0, u64::MAX)
    }

    /// Drop (invalidate) every page intersecting `[start, end)`. Dirty
    /// pages must have been flushed first.
    pub fn invalidate(&mut self, start: u64, end: u64) {
        let ps = self.page_size;
        self.pages.retain(|idx, p| {
            let p_start = idx * ps;
            let inside = p_start < end && p_start + ps > start;
            debug_assert!(!(inside && p.dirty), "invalidating dirty page {idx}");
            !inside
        });
    }

    /// Count of dirty pages.
    pub fn dirty_pages(&self) -> usize {
        self.pages.values().filter(|p| p.dirty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_page_write_then_read() {
        let mut c = ClientCache::new(16);
        c.write(16, &[7u8; 16]);
        let mut buf = [0u8; 16];
        c.read(16, &mut buf);
        assert_eq!(buf, [7u8; 16]);
        assert_eq!(c.dirty_pages(), 1);
    }

    #[test]
    fn write_spanning_pages() {
        let mut c = ClientCache::new(16);
        c.write(0, &[1u8; 48]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dirty_pages(), 3);
        let mut buf = [0u8; 48];
        c.read(0, &mut buf);
        assert_eq!(buf, [1u8; 48]);
    }

    #[test]
    fn partial_write_requires_fill() {
        let mut c = ClientCache::new(16);
        assert_eq!(c.missing_pages(4, 8), vec![0]);
        c.fill(0, vec![9u8; 16]);
        c.write(4, &[1, 2, 3]);
        let mut buf = [0u8; 16];
        c.read(0, &mut buf);
        assert_eq!(&buf[..8], &[9, 9, 9, 9, 1, 2, 3, 9]);
    }

    #[test]
    fn take_dirty_coalesces() {
        let mut c = ClientCache::new(16);
        c.write(0, &[1u8; 16]);
        c.write(16, &[2u8; 16]);
        c.write(64, &[3u8; 16]);
        let runs = c.take_all_dirty();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].off, 0);
        assert_eq!(runs[0].data.len(), 32);
        assert_eq!(runs[1].off, 64);
        assert_eq!(c.dirty_pages(), 0);
        // Pages remain cached (clean) after flush.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn take_dirty_range_limited() {
        let mut c = ClientCache::new(16);
        c.write(0, &[1u8; 16]);
        c.write(32, &[2u8; 16]);
        let runs = c.take_dirty(0, 16);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].off, 0);
        assert_eq!(c.dirty_pages(), 1);
    }

    #[test]
    fn invalidate_drops_clean_pages() {
        let mut c = ClientCache::new(16);
        c.write(0, &[1u8; 32]);
        let _ = c.take_all_dirty();
        c.invalidate(0, 16);
        assert_eq!(c.len(), 1);
        assert!(!c.has_page(0));
        assert!(c.has_page(1));
    }

    #[test]
    fn missing_pages_reports_gaps() {
        let mut c = ClientCache::new(16);
        c.fill(1, vec![0u8; 16]);
        assert_eq!(c.missing_pages(0, 64), vec![0, 2, 3]);
        assert_eq!(c.missing_pages(16, 16), Vec::<u64>::new());
        assert_eq!(c.missing_pages(0, 0), Vec::<u64>::new());
    }
}
