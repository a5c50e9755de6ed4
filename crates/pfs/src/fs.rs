//! The striped file system: OST timing, data storage, lock/cache coherence.
//!
//! Data is stored exactly (a growable byte image per file) so correctness
//! is always byte-accurate; *time* is modelled per OST with per-request,
//! seek, per-byte and page read-modify-write charges. All operations take
//! the caller's virtual `now` and return the virtual completion time — the
//! sim rank advances its own clock with the result.

use crate::cache::ClientCache;
use crate::config::PfsConfig;
use crate::fault::{FaultInjector, FaultPlan, PfsError, PfsErrorKind};
use crate::lock::{LockKind, LockTable};
use std::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global file-system counters (all monotonically increasing but
/// `nb_inflight_peak`, a high-water mark). This struct is the store: the
/// file system keeps one and [`Pfs::stats`] hands out a copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// OST requests issued.
    pub ost_requests: u64,
    /// Requests that paid the seek charge.
    pub seeks: u64,
    /// Payload bytes written (excluding RMW page reads).
    pub bytes_written: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Page reads forced by unaligned write edges.
    pub rmw_page_reads: u64,
    /// Lock grants (excluding already-held fast paths).
    pub lock_grants: u64,
    /// Lock revocations.
    pub lock_revocations: u64,
    /// Bytes flushed from client caches (revocation + explicit flush).
    pub flush_bytes: u64,
    /// Page fills into client caches.
    pub cache_fills: u64,
    /// High-water mark of nonblocking ops outstanding on any one handle
    /// (see [`FileHandle::nb_issued`]) — how deep callers actually queue
    /// the nb API, e.g. the collective engine's pipeline depth.
    pub nb_inflight_peak: u64,
    /// Transient OST request errors injected by the fault plan.
    pub faults_injected: u64,
    /// Torn writes injected by the fault plan (prefix persisted).
    pub torn_writes: u64,
    /// Extra service ns charged by straggler-OST windows.
    pub straggler_ns: u64,
}

/// A tally is arithmetic on the counters; one that panicked left them
/// half-updated.
const POISONED: &str = "a tally panicked while holding the file-system counters";

struct OstState {
    clock: u64,
    /// Last byte-end serviced per file, for seek detection.
    last_end: HashMap<u64, u64>,
}

/// Lock table + client caches for one file, under a single mutex so that
/// revocation (which flushes a *victim's* pages) is atomic with respect to
/// the victim's own cache operations.
struct Coherency {
    table: LockTable,
    caches: HashMap<usize, ClientCache>,
}

/// One file: exact byte image, logical size, coherence state.
pub struct FileObj {
    id: u64,
    content: RwLock<Vec<u8>>,
    size: AtomicU64,
    coherency: Mutex<Coherency>,
    /// Serializes whole read-modify-write cycles (data sieving) against
    /// other clients' writes — the fcntl byte-range lock ROMIO takes
    /// around sieving writes. Plain reads/writes hold it briefly; a sieve
    /// chunk commit holds it across its read + patch + write.
    serial: Mutex<()>,
}

impl FileObj {
    /// Logical file size (highest byte ever written + 1).
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::SeqCst)
    }
}

/// The shared file system.
pub struct Pfs {
    cfg: PfsConfig,
    osts: Vec<Mutex<OstState>>,
    files: Mutex<HashMap<String, Arc<FileObj>>>,
    next_id: AtomicU64,
    /// The counters. A leaf lock: held only inside [`Pfs::tally`], which
    /// takes no other.
    stats: Mutex<StatsSnapshot>,
    /// Installed fault injector; `None` (the default) is the fault-free
    /// fast path, charge-identical to a file system built before fault
    /// injection existed.
    fault: Option<FaultInjector>,
}

impl Pfs {
    /// Create a fault-free file system with the given configuration.
    pub fn new(cfg: PfsConfig) -> Arc<Pfs> {
        Self::build(cfg, None)
    }

    /// Create a file system with a seeded fault plan installed.
    pub fn with_faults(cfg: PfsConfig, plan: FaultPlan) -> Arc<Pfs> {
        let inj = FaultInjector::new(plan, cfg.n_osts);
        Self::build(cfg, Some(inj))
    }

    fn build(cfg: PfsConfig, fault: Option<FaultInjector>) -> Arc<Pfs> {
        cfg.validate();
        Arc::new(Pfs {
            cfg,
            osts: (0..cfg.n_osts)
                .map(|_| Mutex::new(OstState { clock: 0, last_end: HashMap::new() }))
                .collect(),
            files: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stats: Mutex::default(),
            fault,
        })
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| f.plan())
    }

    /// The configuration.
    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }

    /// Open (creating if needed) `path` on behalf of `client`.
    pub fn open(self: &Arc<Self>, path: &str, client: usize) -> FileHandle {
        let file = {
            let mut files = self.files.lock().unwrap();
            Arc::clone(files.entry(path.to_string()).or_insert_with(|| {
                Arc::new(FileObj {
                    id: self.next_id.fetch_add(1, Ordering::SeqCst),
                    content: RwLock::new(Vec::new()),
                    size: AtomicU64::new(0),
                    coherency: Mutex::new(Coherency {
                        table: LockTable::new(self.cfg.lock_expansion),
                        caches: HashMap::new(),
                    }),
                    serial: Mutex::new(()),
                })
            }))
        };
        FileHandle { pfs: Arc::clone(self), file, client, nb_inflight: Arc::new(AtomicU64::new(0)) }
    }

    /// Delete a file (for test isolation).
    pub fn unlink(&self, path: &str) {
        self.files.lock().unwrap().remove(path);
    }

    /// Snapshot of the global counters.
    pub fn stats(&self) -> StatsSnapshot {
        *self.stats.lock().expect(POISONED)
    }

    /// Update the counters: the one write path to them.
    fn tally(&self, f: impl FnOnce(&mut StatsSnapshot)) {
        f(&mut self.stats.lock().expect(POISONED));
    }

    /// Time one OST chunk (a request confined to a single stripe) and
    /// update that OST's pipeline clock. Returns the completion time at
    /// the client, or the injected fault detected at that time. A failed
    /// request still occupies the server for its full service time (the
    /// OST did the work and lost the reply, or failed at commit), so OST
    /// clocks advance identically either way.
    fn ost_chunk(
        &self,
        file: &FileObj,
        now: u64,
        off: u64,
        len: u64,
        is_write: bool,
        rmw_pages: u64,
    ) -> Result<u64, PfsError> {
        let c = &self.cfg.cost;
        let ost_idx = self.cfg.ost_of(off);
        let send_bytes = if is_write { len } else { 0 };
        let arrival = now + c.net_ns + (send_bytes as f64 * c.net_ns_per_byte) as u64;
        let span = self.cfg.page_ceil(off + len) - self.cfg.page_floor(off);
        let mut ost = self.osts[ost_idx].lock().unwrap();
        let start = ost.clock.max(arrival);
        let last = ost.last_end.get(&file.id).copied();
        let seek = if last == Some(self.cfg.page_floor(off)) { 0 } else { c.seek_ns };
        let rmw_ns = (rmw_pages * self.cfg.page_size) as f64 * c.ns_per_byte;
        let dur = c.request_ns + seek + (span as f64 * c.ns_per_byte) as u64 + rmw_ns as u64;
        ost.clock = start + dur;
        ost.last_end.insert(file.id, self.cfg.page_ceil(off + len));
        let done = ost.clock;
        drop(ost);
        self.tally(|s| {
            s.ost_requests += 1;
            s.seeks += u64::from(seek > 0);
            s.rmw_page_reads += rmw_pages;
        });
        let recv_bytes = if is_write { 0 } else { len };
        let mut client_done = done + c.net_ns + (recv_bytes as f64 * c.net_ns_per_byte) as u64;
        if let Some(inj) = &self.fault {
            // A straggler window models elevated per-request latency at a
            // degraded target (RAID rebuild, congested OSS reply path):
            // the requester waits multiplier x the service time, but the
            // target's internal pipeline is not occupied for the extra
            // span, so requests from *different* aggregators still
            // overlap. That overlap is precisely what realm rebalancing
            // exploits to route around a straggler.
            let extra = inj.straggler_extra(ost_idx, start, dur);
            if extra > 0 {
                self.tally(|s| s.straggler_ns += extra);
                client_done += extra;
            }
        }
        if let Some(inj) = &self.fault {
            if inj.roll_transient(ost_idx) {
                self.tally(|s| s.faults_injected += 1);
                return Err(PfsError {
                    kind: PfsErrorKind::TransientOst,
                    ost: ost_idx,
                    at: client_done,
                });
            }
        }
        Ok(client_done)
    }

    /// RMW page reads needed for a direct write of `[off, off+len)`: each
    /// distinct page an unaligned edge falls in, once, if it already
    /// contains file data. A write inside one page has one such page,
    /// whichever of its edges is unaligned.
    fn rmw_pages_for(&self, file: &FileObj, off: u64, len: u64) -> u64 {
        let size = file.size();
        let end = off + len;
        let ps = self.cfg.page_size;
        let head = (!off.is_multiple_of(ps)).then(|| self.cfg.page_floor(off));
        let tail = (!end.is_multiple_of(ps)).then(|| self.cfg.page_floor(end));
        let holds_data = |page: Option<u64>| page.is_some_and(|p| p < size);
        u64::from(holds_data(head)) + u64::from(tail != head && holds_data(tail))
    }

    /// Issue a raw (uncached) I/O spanning stripes; returns completion or
    /// the first injected fault. Every stripe chunk is issued regardless —
    /// the op's data and server-side time are fully committed either way,
    /// so a retry of the whole op is idempotent — and a returned error
    /// carries the op's would-be completion time in [`PfsError::at`].
    fn raw_io(
        &self,
        file: &FileObj,
        now: u64,
        off: u64,
        len: u64,
        is_write: bool,
    ) -> Result<u64, PfsError> {
        if len == 0 {
            return Ok(now);
        }
        let mut finish = now;
        let mut err: Option<PfsError> = None;
        let mut pos = off;
        let end = off + len;
        while pos < end {
            let stripe_end = (pos / self.cfg.stripe_size + 1) * self.cfg.stripe_size;
            let chunk_end = end.min(stripe_end);
            let rmw = if is_write { self.rmw_pages_for(file, pos, chunk_end - pos) } else { 0 };
            match self.ost_chunk(file, now, pos, chunk_end - pos, is_write, rmw) {
                Ok(t) => finish = finish.max(t),
                Err(e) => {
                    finish = finish.max(e.at);
                    err.get_or_insert(e);
                }
            }
            pos = chunk_end;
        }
        self.tally(|s| if is_write { s.bytes_written += len } else { s.bytes_read += len });
        match err {
            Some(e) => Err(PfsError { at: finish, ..e }),
            None => Ok(finish),
        }
    }

    /// [`Pfs::raw_io`] for internal coherence traffic (lock-revocation
    /// victim flushes): the lock manager retries transient errors
    /// internally, so only the time matters to the caller.
    fn raw_io_infallible(&self, file: &FileObj, now: u64, off: u64, len: u64, is_write: bool) -> u64 {
        match self.raw_io(file, now, off, len, is_write) {
            Ok(t) => t,
            Err(e) => e.at,
        }
    }

    fn store(&self, file: &FileObj, off: u64, data: &[u8]) {
        self.store_pieces(file, off, data.len() as u64, std::iter::once((off, data)));
    }

    /// Grow the image to `off + len`, raise the file size to it, and copy
    /// `pieces` (inside that range) to where they land. Zero bytes store
    /// nothing and raise nothing.
    fn store_pieces<'a>(
        &self,
        file: &FileObj,
        off: u64,
        len: u64,
        pieces: impl Iterator<Item = (u64, &'a [u8])>,
    ) {
        if len == 0 {
            return;
        }
        let end = (off + len) as usize;
        let mut content = file.content.write().unwrap();
        if content.len() < end {
            content.resize(end, 0);
        }
        for (at, bytes) in pieces {
            content[at as usize..at as usize + bytes.len()].copy_from_slice(bytes);
        }
        drop(content);
        file.size.fetch_max(end as u64, Ordering::SeqCst);
    }

    /// Fill each `(offset, destination)` piece from the image; bytes past
    /// its end read as zeros.
    fn load<'a>(&self, file: &FileObj, pieces: impl Iterator<Item = (u64, &'a mut [u8])>) {
        let content = file.content.read().unwrap();
        for (at, buf) in pieces {
            let at = (at as usize).min(content.len());
            let have = (content.len() - at).min(buf.len());
            buf[..have].copy_from_slice(&content[at..at + have]);
            buf[have..].fill(0);
        }
    }
}

/// The bytes a data operation moves, as opposed to the span it is charged
/// for: `runs` concatenate to the bytes of `segs` (sorted, disjoint
/// `(offset, len)` file segments inside the span). Segment boundaries and
/// run boundaries cut the same stream independently; the iterator yields
/// the `(offset, bytes)` pieces no boundary of either kind divides,
/// ascending.
struct Pieces<'a> {
    segs: std::slice::Iter<'a, (u64, u64)>,
    /// Unconsumed rest of the current segment.
    seg: (u64, u64),
    runs: std::slice::Iter<'a, &'a [u8]>,
    /// Unconsumed rest of the current run.
    run: &'a [u8],
}

/// The shape [`Pieces`] relies on. That the run list is exactly as long
/// as the segments is the caller's contract, checked in every profile: a
/// mismatch would move fewer bytes than either side names, without an
/// error. That every segment lies inside `[off, off+len)` is internal
/// shape, checked in debug builds.
fn check_shape(off: u64, len: u64, segs: &[(u64, u64)], run_bytes: u64) {
    let seg_bytes: u64 = segs.iter().map(|s| s.1).sum();
    assert!(
        seg_bytes == run_bytes,
        "segments cover {seg_bytes} bytes but the run list holds {run_bytes}"
    );
    debug_assert!(
        segs.iter().all(|&(so, sl)| so >= off && so + sl <= off + len),
        "segment outside span"
    );
}

fn pieces<'a>(segs: &'a [(u64, u64)], runs: &'a [&'a [u8]]) -> Pieces<'a> {
    Pieces { segs: segs.iter(), seg: (0, 0), runs: runs.iter(), run: &[] }
}

impl<'a> Iterator for Pieces<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while self.seg.1 == 0 {
            self.seg = *self.segs.next()?;
        }
        while self.run.is_empty() {
            self.run = self.runs.next()?;
        }
        let (at, left) = self.seg;
        let n = left.min(self.run.len() as u64);
        let (head, rest) = self.run.split_at(n as usize);
        self.run = rest;
        self.seg = (at + n, left - n);
        Some((at, head))
    }
}

/// [`Pieces`] over destination runs: the read direction.
struct PiecesMut<'a, 'b> {
    segs: std::slice::Iter<'a, (u64, u64)>,
    seg: (u64, u64),
    dests: std::slice::IterMut<'a, &'b mut [u8]>,
    dest: &'a mut [u8],
}

fn pieces_mut<'a, 'b>(segs: &'a [(u64, u64)], dests: &'a mut [&'b mut [u8]]) -> PiecesMut<'a, 'b> {
    PiecesMut { segs: segs.iter(), seg: (0, 0), dests: dests.iter_mut(), dest: &mut [] }
}

impl<'a> Iterator for PiecesMut<'a, '_> {
    type Item = (u64, &'a mut [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while self.seg.1 == 0 {
            self.seg = *self.segs.next()?;
        }
        while self.dest.is_empty() {
            self.dest = self.dests.next()?;
        }
        let (at, left) = self.seg;
        let n = left.min(self.dest.len() as u64);
        let (head, rest) = std::mem::take(&mut self.dest).split_at_mut(n as usize);
        self.dest = rest;
        self.seg = (at + n, left - n);
        Some((at, head))
    }
}

/// A nonblocking PFS operation in flight. The data movement has already
/// happened (file contents are byte-exact the moment the op is issued —
/// this is a virtual-time model, not a concurrency model); only the op's
/// *time* — and, under fault injection, its *outcome* — is pending. The
/// handle carries the virtual window the op occupies so callers can
/// overlap it with other work and charge `max(windows)` instead of the
/// sum; an injected fault is reported when the op is waited on.
#[must_use = "a nonblocking op must be waited on to charge its virtual time"]
#[derive(Debug, Clone)]
pub struct NbOp {
    issued_at: u64,
    done_at: u64,
    err: Option<PfsError>,
}

impl NbOp {
    fn from_result(issued_at: u64, res: Result<u64, PfsError>) -> NbOp {
        match res {
            Ok(done_at) => NbOp { issued_at, done_at, err: None },
            Err(e) => NbOp { issued_at, done_at: e.at, err: Some(e) },
        }
    }

    /// Virtual time the op was issued at.
    pub fn issued_at(&self) -> u64 {
        self.issued_at
    }

    /// Virtual time the op completes at (successfully or with an error).
    pub fn done_at(&self) -> u64 {
        self.done_at
    }

    /// The op's virtual duration.
    pub fn duration(&self) -> u64 {
        self.done_at.saturating_sub(self.issued_at)
    }

    /// The fault this op will report at completion, if any.
    pub fn error(&self) -> Option<PfsError> {
        self.err
    }

    /// Block until the op completes: the later of `now` and the op's
    /// completion time, or the op's injected fault. Consumes the op, so a
    /// double wait is a compile error rather than a silent double charge.
    pub fn wait(self, now: u64) -> Result<u64, PfsError> {
        match self.err {
            Some(e) => Err(PfsError { at: now.max(e.at), ..e }),
            None => Ok(now.max(self.done_at)),
        }
    }
}

/// RAII tally of one outstanding nonblocking op, handed out by
/// [`FileHandle::nb_issued`]. Dropping it retires the op from the
/// handle's inflight count — including drops on early-exit/error paths
/// that never reach an explicit wait, which used to leak
/// [`StatsSnapshot::nb_inflight_peak`] accounting.
#[derive(Debug)]
pub struct NbGuard {
    inflight: Arc<AtomicU64>,
}

impl Drop for NbGuard {
    fn drop(&mut self) {
        let prev = self.inflight.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "NbGuard dropped with zero inflight");
    }
}

/// A per-client handle to an open file.
pub struct FileHandle {
    pfs: Arc<Pfs>,
    file: Arc<FileObj>,
    client: usize,
    /// Nonblocking ops issued on this handle and not yet retired. The data
    /// already landed at issue time, so this bounds nothing — it is pure
    /// telemetry a caller maintains by holding the [`NbGuard`]s from
    /// [`FileHandle::nb_issued`] so queueing depth shows up in
    /// [`StatsSnapshot::nb_inflight_peak`].
    nb_inflight: Arc<AtomicU64>,
}

impl FileHandle {
    /// The client id this handle belongs to.
    pub fn client(&self) -> usize {
        self.client
    }

    /// Logical file size.
    pub fn size(&self) -> u64 {
        self.file.size()
    }

    /// The file system.
    pub fn pfs(&self) -> &Arc<Pfs> {
        &self.pfs
    }

    /// Acquire coherence locks for `[off, off+len)` (stripe-expanded, as
    /// Lustre does), flushing and invalidating conflicting clients' cached
    /// pages. Returns the new virtual time. The kind decides only how far
    /// the grant reaches ([`LockKind`]); a grant of either kind costs the
    /// same.
    fn acquire_locks(&self, now: u64, off: u64, len: u64, kind: LockKind) -> u64 {
        if !self.pfs.cfg.locking || len == 0 {
            return now;
        }
        let ss = self.pfs.cfg.stripe_size;
        let lstart = off / ss * ss;
        let lend = (off + len).div_ceil(ss) * ss;
        let mut t = now;
        let mut coh = self.file.coherency.lock().unwrap();
        let acq = coh.table.request(self.client, lstart, lend, kind);
        if acq.already_held {
            return t;
        }
        self.pfs.tally(|s| {
            s.lock_grants += 1;
            s.lock_revocations += acq.revoked.len() as u64;
        });
        for (victim, s, e) in &acq.revoked {
            t += self.pfs.cfg.cost.lock_revoke_ns;
            if let Some(cache) = coh.caches.get_mut(victim) {
                let runs = cache.take_dirty(*s, *e);
                for run in runs {
                    self.pfs.tally(|s| s.flush_bytes += run.data.len() as u64);
                    let fin = self
                        .pfs
                        .raw_io_infallible(&self.file, t, run.off, run.data.len() as u64, true);
                    self.pfs.store(&self.file, run.off, &run.data);
                    t = t.max(fin);
                }
                cache.invalidate(*s, *e);
            }
        }
        t += self.pfs.cfg.cost.lock_grant_ns;
        if let Some(inj) = &self.pfs.fault {
            t += inj.lock_stall();
        }
        t
    }

    /// Explicitly acquire coherence locks covering `[off, off+len)`, as
    /// ROMIO does around a data-sieving read-modify-write. Subsequent
    /// reads/writes inside the range find the lock already held. A caller
    /// that will come back to the same extent call after call asks
    /// [`LockKind::Ahead`], so that the grant is the (stripe-rounded)
    /// extent and nothing more; one that will not asks
    /// [`LockKind::Ordinary`], which is what a plain read or write asks.
    /// Returns the virtual completion time (a no-op without locking). Lock
    /// traffic is retried internally and never surfaces a fault, but the
    /// signature is fallible for uniformity with the data path.
    pub fn lock_range(
        &self,
        now: u64,
        off: u64,
        len: u64,
        kind: LockKind,
    ) -> Result<u64, PfsError> {
        Ok(self.acquire_locks(now, off, len, kind))
    }

    /// Write `data` at `off`, starting at virtual time `now`; returns the
    /// completion time. Under fault injection a transient OST error is
    /// returned instead; the data still lands (the server committed it and
    /// lost the reply), so retrying the same write is idempotent, and
    /// [`PfsError::at`] carries the failed op's completion time so the
    /// caller's clock advances identically either way.
    pub fn write(&self, now: u64, off: u64, data: &[u8]) -> Result<u64, PfsError> {
        let len = data.len() as u64;
        let _serial = self.file.serial.lock().unwrap();
        self.write_charged(now, off, len, &[(off, len)], &[data])
    }

    /// The one write body: **charge** a write of the span `[off, off+len)`
    /// — locks, partial-page cache fills, OST time, the fault draws: a
    /// function of `(off, len)` and the file's state, never of a buffer —
    /// and **move** only the bytes of `segs`, taken from `runs` (see
    /// [`Pieces`]). A plain write passes the span as its one segment; a
    /// sieve commit passes the segments it patches, and the gap bytes of
    /// the span, which the model writes back, stay where they already are.
    /// The caller holds the file's RMW lock.
    fn write_charged(
        &self,
        now: u64,
        off: u64,
        len: u64,
        segs: &[(u64, u64)],
        runs: &[&[u8]],
    ) -> Result<u64, PfsError> {
        check_shape(off, len, segs, runs.iter().map(|r| r.len() as u64).sum());
        if len == 0 {
            return Ok(now);
        }
        let mut t = self.acquire_locks(now, off, len, LockKind::Ordinary);
        if self.pfs.cfg.client_cache {
            let mut coh = self.file.coherency.lock().unwrap();
            let ps = self.pfs.cfg.page_size;
            let size_before = self.file.size();
            let cache = coh
                .caches
                .entry(self.client)
                .or_insert_with(|| ClientCache::new(ps));
            // Fill partially-overwritten pages that hold existing data.
            let end = off + len;
            let mut fills: Vec<u64> = Vec::new();
            if !off.is_multiple_of(ps) || !end.is_multiple_of(ps) {
                for page in cache.missing_pages(off, len) {
                    let p_start = page * ps;
                    let p_covered = off <= p_start && end >= p_start + ps;
                    if !p_covered && p_start < size_before {
                        fills.push(page);
                    }
                }
            }
            let mut err: Option<PfsError> = None;
            for page in fills {
                let p_start = page * ps;
                let fin = match self.pfs.raw_io(&self.file, t, p_start, ps, false) {
                    Ok(fin) => fin,
                    Err(e) => {
                        err.get_or_insert(e);
                        e.at
                    }
                };
                let mut buf = vec![0u8; ps as usize];
                self.pfs.load(&self.file, std::iter::once((p_start, &mut buf[..])));
                cache.fill(page, buf);
                self.pfs.tally(|s| s.cache_fills += 1);
                t = t.max(fin);
            }
            // Zero-fill pages that are partial but beyond EOF.
            for page in cache.missing_pages(off, len) {
                let p_start = page * ps;
                let p_covered = off <= p_start && end >= p_start + ps;
                if !p_covered {
                    cache.fill(page, vec![0u8; ps as usize]);
                }
            }
            // Every page of the span goes dirty, gap-only ones included:
            // the model wrote the whole span into the cache.
            cache.write_pieces(off, len, pieces(segs, runs));
            t += (len as f64 * self.pfs.cfg.cost.cache_copy_ns_per_byte) as u64;
            self.file.size.fetch_max(end, Ordering::SeqCst);
            match err {
                Some(e) => Err(PfsError { at: t, ..e }),
                None => Ok(t),
            }
        } else {
            let res = self.pfs.raw_io(&self.file, t, off, len, true);
            // Torn-write injection applies to the direct (uncached) write
            // path only — the path durable collective data and epoch
            // headers take. Cached writes land in volatile client memory
            // where tearing has no durable meaning (coherence flushes are
            // lock-manager traffic, retried internally). On a tear the OST
            // persisted a deterministically drawn prefix and failed the
            // request: a full rewrite of the same range is the idempotent
            // heal. The OST index reported is the request's first stripe
            // chunk.
            if let Some(inj) = &self.pfs.fault {
                let ost = self.pfs.cfg.ost_of(off);
                if let Some(frac) = inj.roll_torn(ost) {
                    let keep = (len as f64 * frac) as u64;
                    let torn = pieces(segs, runs)
                        .take_while(|&(at, _)| at < off + keep)
                        .map(|(at, b)| (at, &b[..b.len().min((off + keep - at) as usize)]));
                    self.pfs.store_pieces(&self.file, off, keep, torn);
                    self.pfs.tally(|s| s.torn_writes += 1);
                    let at = match &res {
                        Ok(fin) => t.max(*fin),
                        Err(e) => t.max(e.at),
                    };
                    return Err(PfsError { kind: PfsErrorKind::TornWrite, ost, at });
                }
            }
            self.pfs.store_pieces(&self.file, off, len, pieces(segs, runs));
            res.map(|fin| t.max(fin))
        }
    }

    /// Read into `buf` at `off`, starting at virtual time `now`; returns
    /// the completion time. Reads beyond EOF yield zeros. Under fault
    /// injection a transient OST error is returned instead; `buf` is
    /// still filled correctly (the contents are exact, the *request*
    /// failed), so retrying is idempotent.
    pub fn read(&self, now: u64, off: u64, buf: &mut [u8]) -> Result<u64, PfsError> {
        let len = buf.len() as u64;
        let _serial = self.file.serial.lock().unwrap();
        self.read_charged(now, off, len, &[(off, len)], &mut [buf])
    }

    /// The one read body, [`FileHandle::write_charged`]'s twin: charge a
    /// read of the span `[off, off+len)` (with a client cache, filling its
    /// missing pages) and deliver only the bytes of `segs`, into `dests`.
    /// No segments is a charge alone — a sieve commit's pre-read, whose
    /// bytes the commit would only write back. The caller holds the file's
    /// RMW lock.
    fn read_charged(
        &self,
        now: u64,
        off: u64,
        len: u64,
        segs: &[(u64, u64)],
        dests: &mut [&mut [u8]],
    ) -> Result<u64, PfsError> {
        check_shape(off, len, segs, dests.iter().map(|d| d.len() as u64).sum());
        if len == 0 {
            return Ok(now);
        }
        let mut t = self.acquire_locks(now, off, len, LockKind::Ordinary);
        if self.pfs.cfg.client_cache {
            let mut coh = self.file.coherency.lock().unwrap();
            let ps = self.pfs.cfg.page_size;
            let cache = coh
                .caches
                .entry(self.client)
                .or_insert_with(|| ClientCache::new(ps));
            let missing = cache.missing_pages(off, len);
            let mut err: Option<PfsError> = None;
            // Fetch missing pages as coalesced runs.
            let mut i = 0;
            while i < missing.len() {
                let mut j = i;
                while j + 1 < missing.len() && missing[j + 1] == missing[j] + 1 {
                    j += 1;
                }
                let run_off = missing[i] * ps;
                let run_len = (missing[j] + 1) * ps - run_off;
                let fin = match self.pfs.raw_io(&self.file, t, run_off, run_len, false) {
                    Ok(fin) => fin,
                    Err(e) => {
                        err.get_or_insert(e);
                        e.at
                    }
                };
                t = t.max(fin);
                for page in missing[i]..=missing[j] {
                    let mut data = vec![0u8; ps as usize];
                    self.pfs.load(&self.file, std::iter::once((page * ps, &mut data[..])));
                    cache.fill(page, data);
                    self.pfs.tally(|s| s.cache_fills += 1);
                }
                i = j + 1;
            }
            for (at, dst) in pieces_mut(segs, dests) {
                cache.read(at, dst);
            }
            t += (len as f64 * self.pfs.cfg.cost.cache_copy_ns_per_byte) as u64;
            match err {
                Some(e) => Err(PfsError { at: t, ..e }),
                None => Ok(t),
            }
        } else {
            let res = self.pfs.raw_io(&self.file, t, off, len, false);
            self.pfs.load(&self.file, pieces_mut(segs, dests));
            res.map(|fin| t.max(fin))
        }
    }

    /// Atomic data-sieving chunk commit (read-modify-write): read
    /// `[off, off+len)`, overlay the caller's segments, and write the
    /// whole range back — all while holding the file's RMW lock, so no
    /// other client's write can interleave between the pre-read and the
    /// write-back (ROMIO wraps sieving writes in an fcntl lock for exactly
    /// this reason). `segs` are sorted absolute `(offset, len)` runs
    /// inside the chunk, `runs` a run list concatenating to their bytes
    /// (cut anywhere, empty runs allowed). When `covered` the pre-read is
    /// skipped.
    ///
    /// The pre-read and the write-back are *charged* for the whole chunk;
    /// the host moves only the segments' bytes, because the gap bytes the
    /// pre-read would fetch are the bytes the write-back would store.
    pub fn sieve_chunk_write(
        &self,
        now: u64,
        off: u64,
        len: u64,
        segs: &[(u64, u64)],
        runs: &[&[u8]],
        covered: bool,
    ) -> Result<u64, PfsError> {
        let _serial = self.file.serial.lock().unwrap();
        let mut t = now;
        let mut err: Option<PfsError> = None;
        if !covered {
            t = match self.read_charged(t, off, len, &[], &mut []) {
                Ok(t) => t,
                Err(e) => {
                    err = Some(e);
                    e.at
                }
            };
        }
        match self.write_charged(t, off, len, segs, runs) {
            Ok(t) => match err {
                Some(e) => Err(PfsError { at: t, ..e }),
                None => Ok(t),
            },
            Err(e) => Err(PfsError { at: e.at, ..err.unwrap_or(e) }),
        }
    }

    /// Data-sieving chunk read: one request for `[off, off+len)`, of
    /// which only the bytes of `segs` (sorted absolute `(offset, len)`
    /// runs inside the chunk) are delivered, into `dests` (a run list
    /// their bytes fill in order, cut anywhere). Charged exactly like a
    /// [`FileHandle::read`] of the chunk.
    pub fn sieve_chunk_read(
        &self,
        now: u64,
        off: u64,
        len: u64,
        segs: &[(u64, u64)],
        dests: &mut [&mut [u8]],
    ) -> Result<u64, PfsError> {
        let _serial = self.file.serial.lock().unwrap();
        self.read_charged(now, off, len, segs, dests)
    }

    /// Record that one more nonblocking op is outstanding on this handle
    /// (call when queueing an [`NbOp`]/completion for later waiting, not
    /// when waiting immediately); feeds [`StatsSnapshot::nb_inflight_peak`].
    /// The returned guard retires the op when dropped — hold it while the
    /// op is queued, drop it when the op is waited on (or when an error
    /// path abandons the queue; the drop keeps the count honest either
    /// way).
    pub fn nb_issued(&self) -> NbGuard {
        let depth = self.nb_inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.pfs.tally(|s| s.nb_inflight_peak = s.nb_inflight_peak.max(depth));
        NbGuard { inflight: Arc::clone(&self.nb_inflight) }
    }

    /// Nonblocking ops currently outstanding on this handle.
    pub fn nb_inflight(&self) -> u64 {
        self.nb_inflight.load(Ordering::SeqCst)
    }

    /// Nonblocking gathered write: issues the write of the concatenation
    /// of `bufs` at `off` at `now` as one request and returns a completion
    /// handle instead of blocking the caller's clock until `done_at`. The
    /// PFS client ships an iovec run list, so callers holding scattered
    /// source runs (borrowed user-buffer or received-payload slices) need
    /// no intermediate packed copy, and none is made here: each run is
    /// stored where it lands, at issue time. Charged exactly like a
    /// [`FileHandle::write`] of the same span; an injected fault is carried
    /// in the handle and reported by [`NbOp::wait`]. A single buffer is a
    /// run list of one.
    pub fn pwritev_nb(&self, now: u64, off: u64, bufs: &[&[u8]]) -> NbOp {
        let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        let _serial = self.file.serial.lock().unwrap();
        NbOp::from_result(now, self.write_charged(now, off, total, &[(off, total)], bufs))
    }

    /// Nonblocking scattered read: one request for the span starting at
    /// `off`, issued at `now` and delivered straight into the caller's run
    /// list (`dests` filled in order at issue time, each from where its
    /// bytes live); the returned handle carries the virtual completion
    /// time and any injected fault. The read-side iovec twin of
    /// [`FileHandle::pwritev_nb`], charged exactly like a
    /// [`FileHandle::read`] of the same span.
    pub fn preadv_nb(&self, now: u64, off: u64, dests: &mut [&mut [u8]]) -> NbOp {
        let total: u64 = dests.iter().map(|d| d.len() as u64).sum();
        let _serial = self.file.serial.lock().unwrap();
        NbOp::from_result(now, self.read_charged(now, off, total, &[(off, total)], dests))
    }

    /// Truncate or extend the file to exactly `size` bytes. Shrinking
    /// discards content and invalidates every client's cached pages beyond
    /// the new end; extending is a metadata-only operation (reads of the
    /// new region return zeros).
    pub fn set_size(&self, now: u64, size: u64) -> u64 {
        let _serial = self.file.serial.lock().unwrap();
        let mut coh = self.file.coherency.lock().unwrap();
        let old = self.file.size();
        if size < old {
            let mut content = self.file.content.write().unwrap();
            content.truncate(size as usize);
            for cache in coh.caches.values_mut() {
                // Dirty pages past the new end are discarded, not flushed.
                let _ = cache.take_dirty(size, u64::MAX);
                cache.invalidate(size, u64::MAX);
            }
        }
        drop(coh);
        self.file.size.store(size, Ordering::SeqCst);
        now + self.pfs.cfg.cost.request_ns
    }

    /// Preallocate storage up to `size` bytes (never shrinks). Charged as
    /// one OST pass over the newly allocated span.
    pub fn preallocate(&self, now: u64, size: u64) -> u64 {
        let old = self.file.size();
        if size <= old {
            return now + self.pfs.cfg.cost.request_ns;
        }
        self.file.size.fetch_max(size, Ordering::SeqCst);
        {
            let mut content = self.file.content.write().unwrap();
            if content.len() < size as usize {
                content.resize(size as usize, 0);
            }
        }
        // Allocation cost: one request per stripe in the new span.
        let c = &self.pfs.cfg.cost;
        let stripes = (size - old).div_ceil(self.pfs.cfg.stripe_size);
        now + c.request_ns * stripes.max(1)
    }

    /// Flush this client's dirty pages to storage; returns completion
    /// time. Data always lands even when a transient fault is reported
    /// (so a failed flush cannot lose dirty pages); the error tells the
    /// caller the *request* outcome.
    pub fn flush(&self, now: u64) -> Result<u64, PfsError> {
        let mut t = now;
        if !self.pfs.cfg.client_cache {
            return Ok(t);
        }
        let mut err: Option<PfsError> = None;
        let mut coh = self.file.coherency.lock().unwrap();
        if let Some(cache) = coh.caches.get_mut(&self.client) {
            for run in cache.take_all_dirty() {
                self.pfs.tally(|s| s.flush_bytes += run.data.len() as u64);
                let fin = match self.pfs.raw_io(&self.file, t, run.off, run.data.len() as u64, true)
                {
                    Ok(fin) => fin,
                    Err(e) => {
                        err.get_or_insert(e);
                        e.at
                    }
                };
                self.pfs.store(&self.file, run.off, &run.data);
                t = t.max(fin);
            }
        }
        match err {
            Some(e) => Err(PfsError { at: t, ..e }),
            None => Ok(t),
        }
    }

    /// Flush, invalidate the cache, and release this client's locks.
    pub fn close(&self, now: u64) -> Result<u64, PfsError> {
        let res = self.flush(now);
        let mut coh = self.file.coherency.lock().unwrap();
        if let Some(cache) = coh.caches.get_mut(&self.client) {
            cache.invalidate(0, u64::MAX);
        }
        coh.table.release_all(self.client);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PfsCostModel;

    fn tiny() -> Arc<Pfs> {
        Pfs::new(PfsConfig::test_tiny())
    }

    #[test]
    fn write_read_roundtrip() {
        let pfs = tiny();
        let h = pfs.open("f", 0);
        let data: Vec<u8> = (0..200).map(|i| (i % 256) as u8).collect();
        h.write(0, 13, &data).unwrap();
        let mut buf = vec![0u8; 200];
        h.read(0, 13, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(h.size(), 213);
    }

    #[test]
    fn read_beyond_eof_zeros() {
        let pfs = tiny();
        let h = pfs.open("f", 0);
        h.write(0, 0, &[1, 2, 3]).unwrap();
        let mut buf = [9u8; 6];
        h.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 0, 0, 0]);
        // Entirely past EOF.
        let mut buf = [9u8; 4];
        h.read(0, 10, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn single_run_vectored_ops_match_the_split_form() {
        // One run or two, a gathered write and a scattered read cost and
        // move exactly the same.
        let data: Vec<u8> = (0..200u8).collect();
        let run = |split: usize| {
            let pfs = tiny();
            let h = pfs.open("f", 0);
            let srcs: Vec<&[u8]> =
                [&data[..split], &data[split..]].into_iter().filter(|r| !r.is_empty()).collect();
            let w = h.pwritev_nb(0, 7, &srcs);
            let mut back = vec![0u8; data.len()];
            let (a, b) = back.split_at_mut(split);
            let mut dests: Vec<&mut [u8]> = [a, b].into_iter().filter(|d| !d.is_empty()).collect();
            let r = h.preadv_nb(w.done_at(), 7, &mut dests);
            drop(dests);
            (w.done_at(), r.done_at(), back, pfs.stats())
        };
        assert_eq!(run(0), run(60));
        assert_eq!(run(0).2, data);
    }

    #[test]
    fn two_handles_share_file() {
        let pfs = tiny();
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        a.write(0, 0, b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn unlink_resets() {
        let pfs = tiny();
        let a = pfs.open("f", 0);
        a.write(0, 0, b"x").unwrap();
        pfs.unlink("f");
        let b = pfs.open("f", 0);
        assert_eq!(b.size(), 0);
    }

    #[test]
    fn striped_write_hits_multiple_osts() {
        let pfs = Pfs::new(PfsConfig {
            cost: PfsCostModel::default(),
            ..PfsConfig::test_tiny()
        });
        let h = pfs.open("f", 0);
        // stripe=64: a 200-byte write spans 4 chunks
        h.write(0, 0, &[7u8; 200]).unwrap();
        assert_eq!(pfs.stats().ost_requests, 4);
        let mut buf = vec![0u8; 200];
        h.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 200]);
    }

    #[test]
    fn sequential_access_avoids_seeks() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let h = pfs.open("f", 0);
        let mut t = 0;
        for i in 0..10u64 {
            t = h.write(t, i * 16, &[0u8; 16]).unwrap();
        }
        // First write seeks, the rest are sequential.
        assert_eq!(pfs.stats().seeks, 1);
        // Now a discontiguous write.
        h.write(t, 1000, &[0u8; 16]).unwrap();
        assert_eq!(pfs.stats().seeks, 2);
    }

    #[test]
    fn unaligned_write_pays_rmw() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let h = pfs.open("f", 0);
        // Pre-extend the file so pages exist.
        h.write(0, 0, &vec![0u8; 256]).unwrap();
        let before = pfs.stats().rmw_page_reads;
        h.write(0, 5, &[1u8; 6]).unwrap(); // one partial page
        assert_eq!(pfs.stats().rmw_page_reads - before, 1);
        h.write(0, 16, &[1u8; 4]).unwrap(); // aligned start, end inside its first page
        assert_eq!(pfs.stats().rmw_page_reads - before, 2);
        h.write(0, 5, &[1u8; 30]).unwrap(); // two partial edges
        assert_eq!(pfs.stats().rmw_page_reads - before, 4);
        h.write(0, 16, &[1u8; 32]).unwrap(); // fully aligned
        assert_eq!(pfs.stats().rmw_page_reads - before, 4);
    }

    #[test]
    fn fresh_file_extension_no_rmw() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let h = pfs.open("f", 0);
        h.write(0, 5, &[1u8; 6]).unwrap(); // unaligned but beyond EOF
        assert_eq!(pfs.stats().rmw_page_reads, 0);
    }

    #[test]
    fn io_advances_time() {
        let pfs = Pfs::new(PfsConfig {
            cost: PfsCostModel::default(),
            ..PfsConfig::test_tiny()
        });
        let h = pfs.open("f", 0);
        let t = h.write(1000, 0, &[0u8; 32]).unwrap();
        assert!(t > 1000 + 50_000, "write too fast: {t}");
    }

    #[test]
    fn ost_pipeline_serializes() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let h = pfs.open("f", 0);
        let t1 = h.write(0, 0, &[0u8; 16]).unwrap();
        // Second request issued at time 0 on another handle must queue
        // behind the first on the same OST.
        let h2 = pfs.open("f", 1);
        let t2 = h2.write(0, 16, &[0u8; 16]).unwrap();
        assert!(t2 > t1, "second op did not queue: {t2} vs {t1}");
    }

    // ---- locking & caching ------------------------------------------------

    fn locking_cfg(cache: bool) -> PfsConfig {
        PfsConfig {
            n_osts: 2,
            stripe_size: 64,
            page_size: 16,
            locking: true,
            lock_expansion: false,
            client_cache: cache,
            cost: PfsCostModel::default(),
        }
    }

    #[test]
    fn nb_ops_carry_blocking_window() {
        let pfs = Pfs::new(PfsConfig {
            cost: PfsCostModel::default(),
            ..PfsConfig::test_tiny()
        });
        let h = pfs.open("f", 0);
        let op = h.pwritev_nb(1000, 0, &[&[7u8; 64]]);
        assert_eq!(op.issued_at(), 1000);
        assert!(op.done_at() > 1000);
        assert_eq!(op.duration(), op.done_at() - 1000);
        // Data is visible before the op is waited on.
        let mut buf = [0u8; 64];
        let r = h.preadv_nb(op.done_at(), 0, &mut [&mut buf]);
        assert_eq!(buf, [7u8; 64]);
        // wait() is max(now, done_at) in both directions; it consumes the
        // op (double-wait is a compile error), so probe via a clone.
        let done = r.done_at();
        assert_eq!(r.clone().wait(0).unwrap(), done);
        assert_eq!(r.wait(done + 5).unwrap(), done + 5);
    }

    #[test]
    fn nb_matches_blocking_times() {
        // Same op sequence on two identically-configured file systems: the
        // nonblocking variants must report the exact completion times the
        // blocking calls return.
        let mk = || {
            Pfs::new(PfsConfig {
                cost: PfsCostModel::default(),
                ..PfsConfig::test_tiny()
            })
        };
        let (pa, pb) = (mk(), mk());
        let (a, b) = (pa.open("f", 0), pb.open("f", 0));
        let t1 = a.write(500, 3, &[1u8; 100]).unwrap();
        let o1 = b.pwritev_nb(500, 3, &[&[1u8; 100]]);
        assert_eq!(t1, o1.done_at());
        let mut ba = [0u8; 100];
        let mut bb = [0u8; 100];
        let t2 = a.read(t1, 3, &mut ba).unwrap();
        let o2 = b.preadv_nb(o1.done_at(), 3, &mut [&mut bb]);
        assert_eq!(t2, o2.done_at());
        assert_eq!(ba, bb);
    }

    #[test]
    fn empty_vectored_ops_touch_nothing() {
        // No bytes, no request: `size`, the lock table, the cache and every
        // counter stay put, whether the run list is empty or all-empty.
        for cache in [false, true] {
            let pfs = Pfs::new(locking_cfg(cache));
            let h = pfs.open("f", 0);
            assert_eq!(h.pwritev_nb(7, 40, &[]).wait(0), Ok(7));
            assert_eq!(h.pwritev_nb(7, 40, &[&[], &[]]).wait(0), Ok(7));
            assert_eq!(h.preadv_nb(9, 40, &mut []).wait(0), Ok(9));
            assert_eq!(h.preadv_nb(9, 40, &mut [&mut [], &mut []]).wait(0), Ok(9));
            assert_eq!(h.sieve_chunk_write(5, 40, 0, &[], &[], false), Ok(5));
            assert_eq!(h.size(), 0);
            assert_eq!(pfs.stats(), StatsSnapshot::default());
            let coh = h.file.coherency.lock().unwrap();
            assert!(coh.caches.is_empty(), "an empty op created a client cache");
            drop(coh);
            // A second client still gets the stripe without a revocation.
            pfs.open("f", 1).write(0, 40, &[1u8; 8]).unwrap();
            assert_eq!(pfs.stats().lock_revocations, 0);
        }
    }

    #[test]
    #[should_panic(expected = "segments cover 8 bytes but the run list holds 12")]
    fn sieve_chunk_write_rejects_a_run_list_longer_than_its_segments() {
        let h = tiny().open("f", 0);
        let _ = h.sieve_chunk_write(0, 0, 104, &[(0, 4), (100, 4)], &[&[7u8; 12]], false);
    }

    #[test]
    #[should_panic(expected = "segments cover 8 bytes but the run list holds 12")]
    fn sieve_chunk_read_rejects_a_dest_list_longer_than_its_segments() {
        let h = tiny().open("f", 0);
        let mut out = [0u8; 12];
        let _ = h.sieve_chunk_read(0, 0, 104, &[(0, 4), (100, 4)], &mut [&mut out]);
    }

    #[test]
    fn nb_inflight_tracks_peak_per_handle() {
        let pfs = tiny();
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        assert_eq!(pfs.stats().nb_inflight_peak, 0);
        let ops: Vec<(NbOp, NbGuard)> = (0..3)
            .map(|i| {
                let op = a.pwritev_nb(0, i * 64, &[&[1u8; 64]]);
                (op, a.nb_issued())
            })
            .collect();
        assert_eq!(a.nb_inflight(), 3);
        // A second handle's queue is independent.
        let _op = b.pwritev_nb(0, 512, &[&[2u8; 64]]);
        let bg = b.nb_issued();
        assert_eq!(b.nb_inflight(), 1);
        drop(bg);
        for (op, guard) in ops {
            let _ = op.wait(0).unwrap();
            drop(guard);
        }
        assert_eq!(a.nb_inflight(), 0);
        assert_eq!(pfs.stats().nb_inflight_peak, 3, "peak is the deepest single-handle queue");
    }

    #[test]
    fn nb_guard_drop_retires_without_wait() {
        // Early-exit paths that abandon queued ops (e.g. an engine error
        // return) must not leak the inflight count: dropping the guards —
        // without ever waiting on the ops — retires them.
        let pfs = tiny();
        let a = pfs.open("f", 0);
        let guards: Vec<NbGuard> = (0..4)
            .map(|i| {
                let _op = a.pwritev_nb(0, i * 64, &[&[1u8; 64]]);
                a.nb_issued()
            })
            .collect();
        assert_eq!(a.nb_inflight(), 4);
        drop(guards); // simulate bailing out of the pipeline early
        assert_eq!(a.nb_inflight(), 0, "guard drop must retire the counter");
        assert_eq!(pfs.stats().nb_inflight_peak, 4, "peak still records the high-water mark");
        // A later queue ramp starts from zero, not from the leaked base.
        let g = a.nb_issued();
        assert_eq!(a.nb_inflight(), 1);
        drop(g);
    }

    // ---- fault injection --------------------------------------------------

    #[test]
    fn disabled_faults_charge_identical() {
        // A Pfs without a fault plan and one with an all-zero plan must
        // produce identical completion times and counters (the fault-free
        // fast path is the charge-identity contract).
        let mk_plain = || Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
        let mk_noop = || {
            Pfs::with_faults(
                PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
                FaultPlan::default(),
            )
        };
        let (pa, pb) = (mk_plain(), mk_noop());
        assert!(pa.fault_plan().is_none());
        assert!(pb.fault_plan().is_some());
        let (a, b) = (pa.open("f", 0), pb.open("f", 0));
        let mut ta = 0;
        let mut tb = 0;
        for i in 0..6u64 {
            ta = a.write(ta, i * 100, &[i as u8; 90]).unwrap();
            tb = b.write(tb, i * 100, &[i as u8; 90]).unwrap();
        }
        let mut ba = [0u8; 300];
        let mut bb = [0u8; 300];
        ta = a.read(ta, 50, &mut ba).unwrap();
        tb = b.read(tb, 50, &mut bb).unwrap();
        assert_eq!(ta, tb, "a no-op plan must not perturb time");
        assert_eq!(ba, bb);
        assert_eq!(pa.stats(), pb.stats());
        assert_eq!(pb.stats().faults_injected, 0);
        assert_eq!(pb.stats().straggler_ns, 0);
    }

    #[test]
    fn transient_fault_reported_but_data_lands() {
        let pfs = Pfs::with_faults(
            PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
            FaultPlan::transient(11, 1.0),
        );
        let h = pfs.open("f", 0);
        let err = h.write(0, 0, &[3u8; 32]).unwrap_err();
        assert_eq!(err.kind, crate::fault::PfsErrorKind::TransientOst);
        assert!(err.at > 0, "error carries the op's completion time");
        assert!(pfs.stats().faults_injected >= 1);
        // The data landed anyway: a retry is idempotent and a reader (on a
        // fault-free mirror decision path) sees the bytes.
        let mut buf = [0u8; 32];
        let res = h.read(err.at, 0, &mut buf);
        assert_eq!(buf, [3u8; 32]);
        assert!(res.is_err(), "rate-1.0 plan fails reads too");
    }

    #[test]
    fn nb_op_carries_fault_to_wait() {
        let pfs = Pfs::with_faults(
            PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
            FaultPlan::transient(5, 1.0),
        );
        let h = pfs.open("f", 0);
        let op = h.pwritev_nb(100, 0, &[&[9u8; 16]]);
        assert!(op.error().is_some(), "error known at issue in virtual time");
        let done = op.done_at();
        let err = op.wait(0).unwrap_err();
        assert_eq!(err.at, done, "wait surfaces the fault at completion time");
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let pfs = Pfs::with_faults(
            PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
            FaultPlan { seed: 9, torn_rate: 1.0, ..FaultPlan::default() },
        );
        let h = pfs.open("f", 0);
        let data: Vec<u8> = (1..=40).collect();
        let err = h.write(0, 0, &data).unwrap_err();
        assert_eq!(err.kind, crate::fault::PfsErrorKind::TornWrite);
        assert!(err.at > 0, "error carries the op's completion time");
        assert_eq!(pfs.stats().torn_writes, 1);
        // Only a strict prefix landed: file size tells us how much.
        let keep = h.size() as usize;
        assert!(keep < data.len(), "a torn write must not persist fully");
        let mut buf = vec![0u8; data.len()];
        // Reads don't tear; rate-1.0 torn plans leave reads fault-free.
        h.read(err.at, 0, &mut buf).unwrap();
        assert_eq!(&buf[..keep], &data[..keep]);
        assert_eq!(&buf[keep..], &vec![0u8; data.len() - keep][..], "suffix must be unwritten");
    }

    #[test]
    fn torn_write_heals_on_retry() {
        // With a sub-1.0 rate the torn stream is deterministic per request
        // index, so retrying the identical write eventually persists it in
        // full — the idempotent-heal contract the engine retry loop needs.
        let pfs = Pfs::with_faults(
            PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
            FaultPlan { seed: 3, torn_rate: 0.5, ..FaultPlan::default() },
        );
        let h = pfs.open("f", 0);
        let data: Vec<u8> = (0..100u32).map(|i| (i % 251) as u8 + 1).collect();
        let mut t = 0u64;
        let mut tears = 0;
        let healed = (0..20).any(|_| match h.write(t, 0, &data) {
            Ok(fin) => {
                t = fin;
                true
            }
            Err(e) => {
                assert_eq!(e.kind, crate::fault::PfsErrorKind::TornWrite);
                tears += 1;
                t = e.at;
                false
            }
        });
        assert!(healed, "20 retries at rate 0.5 should heal (seeded, deterministic)");
        let mut buf = vec![0u8; data.len()];
        h.read(t, 0, &mut buf).unwrap();
        assert_eq!(buf, data, "full rewrite must heal the tear");
        assert_eq!(pfs.stats().torn_writes, tears);
    }

    #[test]
    fn straggler_slows_only_its_ost_and_window() {
        let cfg = PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() };
        // stripe 64, 4 OSTs: offset 0 → OST 0, offset 64 → OST 1.
        let plain = Pfs::new(cfg);
        let slow = Pfs::with_faults(
            cfg,
            FaultPlan {
                stragglers: vec![crate::fault::StragglerSpec {
                    ost: 0,
                    multiplier: 4.0,
                    from_ns: 0,
                    until_ns: u64::MAX,
                }],
                ..FaultPlan::default()
            },
        );
        let (hp, hs) = (plain.open("f", 0), slow.open("f", 0));
        let tp0 = hp.write(0, 0, &[1u8; 64]).unwrap();
        let ts0 = hs.write(0, 0, &[1u8; 64]).unwrap();
        assert!(ts0 > tp0, "straggler OST must be slower: {ts0} vs {tp0}");
        assert!(slow.stats().straggler_ns > 0);
        let extra = slow.stats().straggler_ns;
        // OST 1 is unaffected: same service time on both file systems.
        let tp1 = hp.write(tp0, 64, &[2u8; 64]).unwrap();
        let ts1 = hs.write(ts0, 64, &[2u8; 64]).unwrap();
        assert_eq!(tp1 - tp0, ts1 - ts0, "other OSTs must be unaffected");
        assert_eq!(slow.stats().straggler_ns, extra);
    }

    #[test]
    fn lock_stall_charged_on_grant() {
        let mk = |stall| {
            let pfs = if stall > 0 {
                Pfs::with_faults(
                    locking_cfg(false),
                    FaultPlan { lock_stall_ns: stall, ..FaultPlan::default() },
                )
            } else {
                Pfs::new(locking_cfg(false))
            };
            let h = pfs.open("f", 0);
            h.write(0, 0, &[1u8; 16]).unwrap()
        };
        let base = mk(0);
        let stalled = mk(10_000);
        assert_eq!(stalled, base + 10_000, "stall charged once per grant");
    }

    #[test]
    fn set_size_truncates_and_extends() {
        let pfs = tiny();
        let h = pfs.open("f", 0);
        h.write(0, 0, &[7u8; 100]).unwrap();
        h.set_size(0, 40);
        assert_eq!(h.size(), 40);
        let mut buf = [9u8; 60];
        h.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf[..40], &[7u8; 40]);
        assert_eq!(&buf[40..], &[0u8; 20], "truncated region must read zero");
        h.set_size(0, 200);
        assert_eq!(h.size(), 200);
    }

    #[test]
    fn truncate_discards_cached_dirty_pages() {
        let pfs = Pfs::new(locking_cfg(true));
        let h = pfs.open("f", 0);
        h.write(0, 0, &[5u8; 64]).unwrap(); // cached dirty
        h.set_size(0, 16);
        h.flush(0).unwrap();
        let g = pfs.open("f", 1);
        let mut buf = [1u8; 64];
        g.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf[..16], &[5u8; 16]);
        assert_eq!(&buf[16..], &[0u8; 48], "dirty pages past EOF must not resurrect");
    }

    #[test]
    fn preallocate_extends_without_shrinking() {
        let pfs = tiny();
        let h = pfs.open("f", 0);
        h.write(0, 0, &[3u8; 32]).unwrap();
        h.preallocate(0, 512);
        assert_eq!(h.size(), 512);
        h.preallocate(0, 100); // never shrinks
        assert_eq!(h.size(), 512);
        let mut buf = [9u8; 8];
        h.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 8]);
    }

    #[test]
    fn lock_reacquire_free() {
        let pfs = Pfs::new(locking_cfg(false));
        let h = pfs.open("f", 0);
        h.write(0, 0, &[0u8; 64]).unwrap();
        assert_eq!(pfs.stats().lock_grants, 1);
        h.write(0, 0, &[0u8; 64]).unwrap();
        assert_eq!(pfs.stats().lock_grants, 1, "covered reacquire must be free");
    }

    #[test]
    fn conflicting_clients_revoke() {
        let pfs = Pfs::new(locking_cfg(false));
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        a.write(0, 0, &[1u8; 32]).unwrap();
        b.write(0, 32, &[2u8; 32]).unwrap(); // same stripe -> conflict
        assert_eq!(pfs.stats().lock_revocations, 1);
        // Different stripes -> no new conflict.
        let before = pfs.stats().lock_revocations;
        a.write(0, 64, &[1u8; 16]).unwrap();
        assert_eq!(pfs.stats().lock_revocations, before);
    }

    #[test]
    fn cached_write_read_roundtrip() {
        let pfs = Pfs::new(locking_cfg(true));
        let h = pfs.open("f", 0);
        let data: Vec<u8> = (0..100u32).map(|i| (i % 251) as u8).collect();
        h.write(0, 7, &data).unwrap();
        let mut buf = vec![0u8; 100];
        h.read(0, 7, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn cached_writes_defer_ost_io() {
        let pfs = Pfs::new(locking_cfg(true));
        let h = pfs.open("f", 0);
        h.write(0, 0, &[1u8; 64]).unwrap(); // page-aligned, fresh file: no OST traffic
        assert_eq!(pfs.stats().ost_requests, 0);
        let t = h.flush(0).unwrap();
        assert!(pfs.stats().ost_requests > 0);
        assert!(t > 0);
        assert_eq!(pfs.stats().flush_bytes, 64);
    }

    #[test]
    fn revocation_flushes_victim_cache() {
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        a.write(0, 0, &[5u8; 32]).unwrap(); // cached dirty in a
        // b reads the same stripe: revokes a's lock, forcing the flush.
        let mut buf = [0u8; 32];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 32]);
        assert_eq!(pfs.stats().lock_revocations, 1);
        assert_eq!(pfs.stats().flush_bytes, 32);
    }

    #[test]
    fn close_flushes_and_releases() {
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        a.write(0, 0, &[3u8; 16]).unwrap();
        a.close(0).unwrap();
        // Data persisted.
        let b = pfs.open("f", 1);
        let mut buf = [0u8; 16];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 16]);
        // No revocation needed: a's locks were released.
        assert_eq!(pfs.stats().lock_revocations, 0);
    }

    #[test]
    fn cached_partial_page_fill_reads_existing_data() {
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        a.write(0, 0, &[9u8; 64]).unwrap();
        a.close(0).unwrap();
        let before = pfs.stats().cache_fills;
        let b = pfs.open("f", 1);
        b.write(0, 4, &[1u8; 4]).unwrap(); // partial page over existing data
        assert_eq!(pfs.stats().cache_fills - before, 1);
        let mut buf = [0u8; 16];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf[..8], &[9, 9, 9, 9, 1, 1, 1, 1]);
    }

    #[test]
    fn pfr_style_repeat_writes_no_lock_traffic() {
        // Two clients each repeatedly writing their own stripe-aligned
        // region: one grant each, zero revocations — the PFR+align regime.
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        for step in 0..10u64 {
            a.write(step, 0, &[1u8; 64]).unwrap();
            b.write(step, 64, &[2u8; 64]).unwrap();
        }
        assert_eq!(pfs.stats().lock_grants, 2);
        assert_eq!(pfs.stats().lock_revocations, 0);
    }

    #[test]
    fn shifting_regions_cause_lock_ping_pong() {
        // The no-PFR, no-alignment regime: each step the two clients'
        // regions shift so they land on each other's previous stripes.
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        for step in 0..6u64 {
            let base = step * 32; // shifts across the 64-byte stripes
            a.write(step, base, &[1u8; 64]).unwrap();
            b.write(step, base + 64, &[2u8; 64]).unwrap();
        }
        assert!(
            pfs.stats().lock_revocations >= 5,
            "expected ping-pong, got {} revocations",
            pfs.stats().lock_revocations
        );
    }

    // ---- lock requests: ordinary and ahead --------------------------------

    #[test]
    fn an_ahead_conflict_costs_the_victim_what_an_ordinary_one_does() {
        // Client 0 holds dirty cached pages under an expanded `[0, ∞)`;
        // client 1 asks for the second stripe, once per kind. Either way
        // the whole lock is cancelled: same completion time, same counters,
        // the victim's dirty bytes on the OSTs and its pages gone.
        let run = |kind: LockKind| {
            let pfs = Pfs::new(PfsConfig { lock_expansion: true, ..locking_cfg(true) });
            let a = pfs.open("f", 0);
            let b = pfs.open("f", 1);
            let t = a.write(0, 8, &[5u8; 40]).unwrap(); // pages 0..3 dirty, nothing on an OST
            assert_eq!(pfs.stats().ost_requests, 0);
            let t = b.lock_range(t, 64, 64, kind).unwrap();
            {
                let coh = a.file.coherency.lock().unwrap();
                assert!(coh.caches[&0].is_empty(), "{kind:?}: victim pages survived");
                assert!(!coh.table.holds(0, 0, 1), "{kind:?}: victim lock survived");
                assert!(coh.table.holds(1, 64, 128) && !coh.table.holds(1, 63, 129));
            }
            let mut image = vec![0u8; 48];
            pfs.load(&a.file, std::iter::once((0, image.as_mut_slice())));
            assert_eq!(image[8..48], [5u8; 40], "{kind:?}: victim's dirty bytes were not flushed");
            (t, pfs.stats())
        };
        let (t_ahead, ahead) = run(LockKind::Ahead);
        let (t_plain, plain) = run(LockKind::Ordinary);
        assert_eq!((ahead.lock_grants, ahead.lock_revocations), (2, 1));
        assert_eq!(ahead.flush_bytes, 48, "three whole pages flushed");
        assert_eq!(t_ahead, t_plain);
        assert_eq!(ahead, plain);
    }

    #[test]
    fn an_ahead_grant_keeps_a_neighbours_first_request_from_cancelling_it() {
        // Two clients, one stripe each, locked before they write — the
        // shape of two aggregators' realm chunks. Asked ordinarily, the
        // first arrival is granted `[0, ∞)` and the second cancels it,
        // flushing what it cached; asked ahead, neither touches the other.
        let traffic = |kind: LockKind| {
            let pfs = Pfs::new(PfsConfig { lock_expansion: true, ..locking_cfg(true) });
            let (a, b) = (pfs.open("f", 0), pfs.open("f", 1));
            for step in 0..4u64 {
                let t = a.lock_range(step, 0, 64, kind).unwrap();
                a.write(t, 0, &[1u8; 64]).unwrap();
                let t = b.lock_range(step, 64, 64, kind).unwrap();
                b.write(t, 64, &[2u8; 64]).unwrap();
            }
            let s = pfs.stats();
            (s.lock_grants, s.lock_revocations, s.flush_bytes)
        };
        assert_eq!(traffic(LockKind::Ahead), (2, 0, 0));
        assert_eq!(traffic(LockKind::Ordinary), (3, 1, 64));
    }

    #[test]
    fn with_expansion_off_both_kinds_charge_the_same() {
        // `locking_cfg` is a precise table: a random mix of explicit lock
        // requests, writes and reads by three clients must cost the same to
        // the nanosecond and the counter whichever kind the requests are.
        use crate::fault::test_draw as draw;
        for seed in 0..8u64 {
            let mk = || {
                let pfs = Pfs::new(locking_cfg(true));
                let hs: Vec<FileHandle> = (0..3).map(|c| pfs.open("f", c)).collect();
                (pfs, hs)
            };
            let ((pa, ha), (pb, hb)) = (mk(), mk());
            let (mut ta, mut tb) = (0u64, 0u64);
            for i in 0..300u64 {
                let c = draw(seed, 4 * i, 3) as usize;
                let off = draw(seed, 4 * i + 1, 512);
                let len = 1 + draw(seed, 4 * i + 2, 96);
                match draw(seed, 4 * i + 3, 3) {
                    0 => {
                        ta = ha[c].lock_range(ta, off, len, LockKind::Ahead).unwrap();
                        tb = hb[c].lock_range(tb, off, len, LockKind::Ordinary).unwrap();
                    }
                    1 => {
                        let data = vec![i as u8; len as usize];
                        ta = ha[c].write(ta, off, &data).unwrap();
                        tb = hb[c].write(tb, off, &data).unwrap();
                    }
                    _ => {
                        let (mut ba, mut bb) = (vec![0u8; len as usize], vec![0u8; len as usize]);
                        ta = ha[c].read(ta, off, &mut ba).unwrap();
                        tb = hb[c].read(tb, off, &mut bb).unwrap();
                        assert_eq!(ba, bb, "seed {seed} op {i}");
                    }
                }
                assert_eq!(ta, tb, "seed {seed} op {i}");
                assert_eq!(pa.stats(), pb.stats(), "seed {seed} op {i}");
            }
            assert!(pa.stats().lock_revocations > 0, "seed {seed}: never conflicted");
        }
    }
}
