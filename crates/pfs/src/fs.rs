//! The striped file system: OST timing, data storage, lock/cache coherence.
//!
//! Data is stored exactly (a growable byte image per file) so correctness
//! is always byte-accurate; *time* is modelled per OST with per-request,
//! seek, per-byte and page read-modify-write charges. All operations take
//! the caller's virtual `now` and return the virtual completion time — the
//! sim rank advances its own clock with the result.

use crate::cache::{ClientCache, DirtyRun};
use crate::calendar::Calendar;
use crate::config::PfsConfig;
use crate::fault::{FaultInjector, FaultPlan, PfsError, PfsErrorKind};
use crate::lock::{LockKind, LockTable};
use crate::log::{OstKind, OstLog, OstRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

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
    /// Deepest queue of nonblocking ops any caller reported holding on one
    /// handle (see [`FileHandle::note_queued`]) — how deep callers actually
    /// queue the nb API, e.g. the collective engine's pipeline depth.
    pub nb_inflight_peak: u64,
    /// Transient OST request errors injected by the fault plan.
    pub faults_injected: u64,
    /// Torn writes injected by the fault plan (prefix persisted).
    pub torn_writes: u64,
    /// Extra service ns charged by straggler OSTs.
    pub straggler_ns: u64,
}

/// A tally is arithmetic on the counters; one that panicked left them
/// half-updated.
const POISONED: &str = "a tally panicked while holding the file-system counters";

struct OstState {
    /// The current world's bookings.
    calendar: Calendar,
    /// Last page end booked per file, in booking order: the seek model's
    /// answer for a request booked before every booking of the world.
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
    /// Logical file size (highest byte ever written + 1). It only grows:
    /// every store raises it with a `fetch_max`, and nothing truncates, so
    /// no client cache holds a page past the end.
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
    /// The newest world that entered ([`Pfs::enter_world`]); 0 before any.
    world: AtomicU64,
    /// Every request the OSTs served, if built while logging was on
    /// ([`crate::log`]).
    log: Option<Arc<OstLog>>,
}

impl Pfs {
    /// Create a fault-free file system with the given configuration.
    pub fn new(cfg: PfsConfig) -> Arc<Pfs> {
        Self::build(cfg, None, crate::log::new_log())
    }

    /// Create a file system with a seeded fault plan installed.
    pub fn with_faults(cfg: PfsConfig, plan: FaultPlan) -> Arc<Pfs> {
        let inj = FaultInjector::new(plan, cfg.n_osts);
        Self::build(cfg, Some(inj), crate::log::new_log())
    }

    fn build(cfg: PfsConfig, fault: Option<FaultInjector>, log: Option<Arc<OstLog>>) -> Arc<Pfs> {
        cfg.validate();
        Arc::new(Pfs {
            cfg,
            osts: (0..cfg.n_osts)
                .map(|_| {
                    Mutex::new(OstState { calendar: Calendar::default(), last_end: HashMap::new() })
                })
                .collect(),
            files: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stats: Mutex::default(),
            fault,
            world: AtomicU64::new(0),
            log,
        })
    }

    /// A world with id `world` starts using the file system. Virtual time
    /// belongs to a world — every world's ranks start at 0 — so a world
    /// newer than any seen before starts on idle OSTs: every OST's
    /// calendar is cleared, and neither an earlier world's work nor set-up
    /// done outside any world on a bare [`FileHandle`] is queued ahead of
    /// it.
    /// The same or an older id changes nothing, so every rank of a world
    /// may enter, and enter again. Everything else a Lustre client would
    /// keep persists: each OST's seek position, locks, client caches and
    /// the fault draws. Ids come from `flexio_sim::World::id`; the
    /// collective open is the one caller.
    pub fn enter_world(&self, world: u64) {
        if self.world.fetch_max(world, Ordering::SeqCst) < world {
            for ost in &self.osts {
                ost.lock().unwrap().calendar.clear();
            }
        }
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
        FileHandle { pfs: Arc::clone(self), file, client, clip: u64::MAX }
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
    /// book it in that OST's calendar: it starts in the first idle gap
    /// after its arrival that holds it, and pays the seek unless the
    /// booking just before that gap left the OST at its first page (the
    /// per-file `last_end` when no booking precedes it). Returns the
    /// completion time at the client, or the injected fault detected at
    /// that time. A failed request still occupies the server for its full
    /// service time (the OST did the work and lost the reply, or failed
    /// at commit), so the calendars are the same either way. `client` is
    /// for the service log alone.
    #[allow(clippy::too_many_arguments)]
    fn ost_chunk(
        &self,
        file: &FileObj,
        client: usize,
        kind: OstKind,
        now: u64,
        off: u64,
        len: u64,
        rmw_pages: u64,
    ) -> Result<u64, PfsError> {
        let c = &self.cfg.cost;
        let is_write = kind.is_write();
        let ost_idx = self.cfg.ost_of(off);
        let send_bytes = if is_write { len } else { 0 };
        let arrival = now + c.net_ns + (send_bytes as f64 * c.net_ns_per_byte) as u64;
        let (first_page, end_page) = (self.cfg.page_floor(off), self.cfg.page_ceil(off + len));
        let rmw_ns = (rmw_pages * self.cfg.page_size) as f64 * c.ns_per_byte;
        let base =
            c.request_ns + ((end_page - first_page) as f64 * c.ns_per_byte) as u64 + rmw_ns as u64;
        let mut ost = self.osts[ost_idx].lock().unwrap();
        let OstState { calendar, last_end } = &mut *ost;
        let mut seek = 0;
        let (start, dur) = calendar.book(arrival, (file.id, end_page), |before| {
            let contiguous = match before {
                Some(tail) => tail == (file.id, first_page),
                None => last_end.get(&file.id) == Some(&first_page),
            };
            seek = if contiguous { 0 } else { c.seek_ns };
            base + seek
        });
        last_end.insert(file.id, end_page);
        let done = start + dur;
        if let Some(log) = &self.log {
            // Under the OST's lock, so that per OST the log is in booking
            // order.
            let world = self.world.load(Ordering::SeqCst);
            log.push(OstRecord {
                world,
                ost: ost_idx,
                rank: client,
                arrival,
                start,
                done,
                bytes: len,
                kind,
            });
        }
        drop(ost);
        self.tally(|s| {
            s.ost_requests += 1;
            s.seeks += u64::from(seek > 0);
            s.rmw_page_reads += rmw_pages;
        });
        let recv_bytes = if is_write { 0 } else { len };
        let mut client_done = done + c.net_ns + (recv_bytes as f64 * c.net_ns_per_byte) as u64;
        if let Some(inj) = &self.fault {
            // A straggler OST models elevated per-request latency at a
            // degraded target (RAID rebuild, congested OSS reply path):
            // the requester waits multiplier x the service time, but the
            // target's internal pipeline is not occupied for the extra
            // span, so requests from *different* aggregators still
            // overlap. That overlap is precisely what realm rebalancing
            // exploits to route around a straggler.
            let extra = inj.straggler_extra(ost_idx, dur);
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
    /// `client` is for the service log alone.
    fn raw_io(
        &self,
        file: &FileObj,
        client: usize,
        kind: OstKind,
        now: u64,
        off: u64,
        len: u64,
    ) -> Result<u64, PfsError> {
        let is_write = kind.is_write();
        if len == 0 {
            return Ok(now);
        }
        let (mut finish, mut err) = (now, None);
        let mut pos = off;
        let end = off + len;
        while pos < end {
            let stripe_end = (pos / self.cfg.stripe_size + 1) * self.cfg.stripe_size;
            let chunk_end = end.min(stripe_end);
            let rmw = if is_write { self.rmw_pages_for(file, pos, chunk_end - pos) } else { 0 };
            let res = self.ost_chunk(file, client, kind, now, pos, chunk_end - pos, rmw);
            finish = finish.max(keep_first(&mut err, res));
            pos = chunk_end;
        }
        self.tally(|s| if is_write { s.bytes_written += len } else { s.bytes_read += len });
        err.map_or(Ok(finish), |e| Err(PfsError { at: finish, ..e }))
    }

    /// Write a client cache's dirty runs back, one request after another
    /// from `now`, storing only the bytes below the file's size: the rest
    /// of a page past the end holds no file bytes, and storing it would
    /// raise the size to the page boundary. The data lands even when a
    /// request faults. Returns the completion time and the first fault.
    /// `client` issued the write-back (for the service log).
    fn write_back(
        &self,
        file: &FileObj,
        client: usize,
        now: u64,
        runs: Vec<DirtyRun>,
    ) -> (u64, Option<PfsError>) {
        let (mut t, mut err) = (now, None);
        for run in runs {
            let len = run.data.len() as u64;
            self.tally(|s| s.flush_bytes += len);
            t = t.max(keep_first(
                &mut err,
                self.raw_io(file, client, OstKind::Flush, t, run.off, len),
            ));
            let keep = file.size().saturating_sub(run.off).min(len);
            let kept = &run.data[..keep as usize];
            self.store_pieces(file, run.off, keep, std::iter::once((run.off, kept)));
        }
        (t, err)
    }

    /// Fill `page` of `cache` from the image, as an OST read delivers it;
    /// `fetched` counts it in [`StatsSnapshot::cache_fills`].
    fn fill_page(&self, file: &FileObj, cache: &mut ClientCache, page: u64, fetched: bool) {
        let ps = self.cfg.page_size;
        let mut buf = vec![0u8; ps as usize];
        self.load(file, u64::MAX, std::iter::once((page * ps, &mut buf[..])));
        cache.fill(page, buf);
        self.tally(|s| s.cache_fills += u64::from(fetched));
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
    /// its end, or at or past `clip`, read as zeros.
    fn load<'a>(
        &self,
        file: &FileObj,
        clip: u64,
        pieces: impl Iterator<Item = (u64, &'a mut [u8])>,
    ) {
        let image = file.content.read().unwrap();
        let content = &image[..image.len().min(usize::try_from(clip).unwrap_or(usize::MAX))];
        for (at, buf) in pieces {
            let at = (at as usize).min(content.len());
            let have = (content.len() - at).min(buf.len());
            buf[..have].copy_from_slice(&content[at..at + have]);
            buf[have..].fill(0);
        }
    }
}

/// Fold one request's result into `err`, which keeps a sequence's first
/// fault, and return the request's completion time — a fault's own `at`.
fn keep_first(err: &mut Option<PfsError>, res: Result<u64, PfsError>) -> u64 {
    res.unwrap_or_else(|e| {
        err.get_or_insert(e);
        e.at
    })
}

/// A position in a run list — an iovec-style list of byte slices read as
/// one stream, cut anywhere, empty runs allowed. Its one step hands out
/// the stream's next slice of at most `n` bytes, cut from the current run
/// without a copy or an allocation, so that segments (or sieve chunks)
/// and runs can cut the same stream independently. [`RunCursorMut`] is
/// the same over destination runs.
pub struct RunCursor<'a> {
    runs: std::slice::Iter<'a, &'a [u8]>,
    /// Unconsumed rest of the current run.
    cur: &'a [u8],
}

impl<'a> RunCursor<'a> {
    /// A cursor at the start of `runs`.
    pub fn new(runs: &'a [&'a [u8]]) -> Self {
        RunCursor { runs: runs.iter(), cur: &[] }
    }

    /// The stream's next slice of at most `n > 0` bytes; `None` once the
    /// runs are exhausted.
    pub fn next_slice(&mut self, n: usize) -> Option<&'a [u8]> {
        while self.cur.is_empty() {
            self.cur = self.runs.next()?;
        }
        let (head, tail) = self.cur.split_at(self.cur.len().min(n));
        self.cur = tail;
        Some(head)
    }
}

/// [`RunCursor`] over a destination run list: the read direction.
pub struct RunCursorMut<'a, 'b> {
    runs: std::slice::IterMut<'a, &'b mut [u8]>,
    cur: &'a mut [u8],
}

impl<'a, 'b> RunCursorMut<'a, 'b> {
    /// A cursor at the start of `runs`.
    pub fn new(runs: &'a mut [&'b mut [u8]]) -> Self {
        RunCursorMut { runs: runs.iter_mut(), cur: &mut [] }
    }

    /// The stream's next slice of at most `n > 0` bytes; `None` once the
    /// runs are exhausted.
    pub fn next_slice(&mut self, n: usize) -> Option<&'a mut [u8]> {
        while self.cur.is_empty() {
            self.cur = self.runs.next()?;
        }
        let cur = std::mem::take(&mut self.cur);
        let (head, tail) = cur.split_at_mut(cur.len().min(n));
        self.cur = tail;
        Some(head)
    }
}

/// The shape [`pieces`] relies on. That the run list is exactly as long
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

/// The bytes a data request moves, as opposed to the span it is charged
/// for: `runs` concatenate to the bytes of `segs` (sorted, disjoint
/// `(offset, len)` file segments inside the span). Yields, ascending, the
/// `(offset, bytes)` pieces no boundary of either kind divides.
fn pieces<'a>(
    segs: &'a [(u64, u64)],
    runs: &'a [&'a [u8]],
) -> impl Iterator<Item = (u64, &'a [u8])> {
    let (mut segs, mut seg, mut runs) = (segs.iter(), (0, 0), RunCursor::new(runs));
    std::iter::from_fn(move || {
        while seg.1 == 0 {
            seg = *segs.next()?;
        }
        let bytes = runs.next_slice(seg.1 as usize)?;
        let at = seg.0;
        seg = (at + bytes.len() as u64, seg.1 - bytes.len() as u64);
        Some((at, bytes))
    })
}

/// [`pieces`] over destination runs: the read direction.
fn pieces_mut<'a, 'b>(
    segs: &'a [(u64, u64)],
    dests: &'a mut [&'b mut [u8]],
) -> impl Iterator<Item = (u64, &'a mut [u8])> + use<'a, 'b> {
    let (mut segs, mut seg, mut dests) = (segs.iter(), (0, 0), RunCursorMut::new(dests));
    std::iter::from_fn(move || {
        while seg.1 == 0 {
            seg = *segs.next()?;
        }
        let bytes = dests.next_slice(seg.1 as usize)?;
        let at = seg.0;
        seg = (at + bytes.len() as u64, seg.1 - bytes.len() as u64);
        Some((at, bytes))
    })
}

/// The outcome of a data request — or of a chain of them, or of a window
/// an engine composes from several: the virtual window `[issued_at,
/// done_at)` it occupies and the first fault any part of it reported,
/// stamped with `done_at`. The data movement has already happened (file
/// contents are byte-exact the moment a request is issued — this is a
/// virtual-time model, not a concurrency model); only the window is
/// pending, so a caller can overlap it with other work and charge
/// `max(windows)` instead of the sum, or block on it at once with
/// [`IoCompletion::into_result`]. A faulted request still spans its full
/// window: it was issued and its data landed, so a retry is idempotent.
#[must_use = "an issued I/O must be waited on to charge its virtual time"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    issued_at: u64,
    done_at: u64,
    err: Option<PfsError>,
}

impl IoCompletion {
    /// A fault-free completion spanning `[issued_at, done_at)`.
    pub fn span(issued_at: u64, done_at: u64) -> IoCompletion {
        debug_assert!(done_at >= issued_at, "completion must not end before it starts");
        IoCompletion { issued_at, done_at, err: None }
    }

    /// A request's completion from its blocking result: a fault ends the
    /// window at its own `at`.
    fn of(issued_at: u64, res: Result<u64, PfsError>) -> IoCompletion {
        match res {
            Ok(done_at) => IoCompletion::span(issued_at, done_at),
            Err(e) => IoCompletion::span(issued_at, e.at).or_error(Some(e)),
        }
    }

    /// Virtual time the operation was issued at.
    pub fn issued_at(&self) -> u64 {
        self.issued_at
    }

    /// Virtual time the operation completes at (successfully or not).
    pub fn done_at(&self) -> u64 {
        self.done_at
    }

    /// The operation's virtual duration.
    pub fn duration(&self) -> u64 {
        self.done_at.saturating_sub(self.issued_at)
    }

    /// The first fault any part of the operation reported, if any, stamped
    /// with its completion time.
    pub fn error(&self) -> Option<PfsError> {
        self.err
    }

    /// Block until completion: the later of `now` and `done_at`, or the
    /// operation's fault stamped at that moment.
    pub fn wait(&self, now: u64) -> Result<u64, PfsError> {
        let done = now.max(self.done_at);
        match self.err {
            Some(e) => Err(PfsError { at: done, ..e }),
            None => Ok(done),
        }
    }

    /// Record a fault observed while composing this window (a faulted
    /// request of a chain, a retry-exhausted one) unless an earlier fault
    /// is already carried; the fault is restamped to the window's
    /// completion time like any other.
    pub fn or_error(self, err: Option<PfsError>) -> IoCompletion {
        let err = self.err.or(err).map(|e| PfsError { at: self.done_at, ..e });
        IoCompletion { err, ..self }
    }

    /// Split into the completion time and any fault — for callers that
    /// charge the window regardless of outcome.
    pub fn into_result(self) -> Result<u64, PfsError> {
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.done_at),
        }
    }
}

/// A per-client handle to an open file.
pub struct FileHandle {
    pfs: Arc<Pfs>,
    file: Arc<FileObj>,
    client: usize,
    /// Reads through this handle are charged below this offset only
    /// ([`FileHandle::clipped_at`]); `u64::MAX` on a handle from
    /// [`Pfs::open`].
    clip: u64,
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

    /// This handle, with its reads charged below `eof` only, as a read
    /// past the end of a file returns short on a real file system. A
    /// collective write passes its sieve pre-reads through one, at the
    /// file size its ranks agreed on when the call began: no byte of a
    /// pre-read span at or past that size was written before the
    /// write-back. A direct read charges OST time for `[off, eof)` alone
    /// and delivers zeros from `eof` on; a client cache fills its missing
    /// pages that start at or past `eof` from the image without a request
    /// (a page the span shares with another client's bytes keeps them).
    /// Writes, locks and everything else are the handle's own.
    pub fn clipped_at(&self, eof: u64) -> FileHandle {
        FileHandle {
            pfs: Arc::clone(&self.pfs),
            file: Arc::clone(&self.file),
            client: self.client,
            clip: eof,
        }
    }

    /// The file system.
    pub fn pfs(&self) -> &Arc<Pfs> {
        &self.pfs
    }

    /// Acquire coherence locks for `[off, off+len)` (stripe-expanded, as
    /// Lustre does), flushing and invalidating conflicting clients' cached
    /// pages; returns the new virtual time (`now` without locking). Every
    /// read and write asks [`LockKind::Ordinary`] for its span; a caller
    /// that locks ahead of its accesses — as ROMIO does around a
    /// data-sieving read-modify-write — finds them already held. One that
    /// will come back to the same extent call after call asks
    /// [`LockKind::Ahead`], so that the grant is the (stripe-rounded)
    /// extent and nothing more. A grant of either kind costs the same.
    /// Lock traffic is retried internally and never surfaces a fault.
    pub fn lock_range(&self, now: u64, off: u64, len: u64, kind: LockKind) -> u64 {
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
                // The lock manager retries its own traffic: only the time
                // reaches the requester, never the fault.
                t = self.pfs.write_back(&self.file, self.client, t, cache.take_dirty(*s, *e)).0;
                cache.invalidate(*s, *e);
            }
        }
        t + self.pfs.cfg.cost.lock_grant_ns
    }

    /// Write `data` at `off`, starting at virtual time `now`; returns the
    /// completion time. Under fault injection a transient OST error is
    /// returned instead; the data still lands (the server committed it and
    /// lost the reply), so retrying the same write is idempotent, and
    /// [`PfsError::at`] carries the failed op's completion time so the
    /// caller's clock advances identically either way.
    pub fn write(&self, now: u64, off: u64, data: &[u8]) -> Result<u64, PfsError> {
        self.pwritev_nb(now, off, &[data]).into_result()
    }

    /// The one write body: **charge** a write of the span `[off, off+len)`
    /// — locks, partial-page cache fills, OST time, the fault draws: a
    /// function of `(off, len)` and the file's state, never of a buffer —
    /// and **move** only the bytes of `segs`, taken from `runs` (see
    /// [`pieces`]). A plain write passes the span as its one segment; a
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
        let mut t = self.lock_range(now, off, len, LockKind::Ordinary);
        if self.pfs.cfg.client_cache {
            let mut coh = self.file.coherency.lock().unwrap();
            let ps = self.pfs.cfg.page_size;
            let size_before = self.file.size();
            let cache = coh.caches.entry(self.client).or_insert_with(|| ClientCache::new(ps));
            // A partially overwritten page is filled from the store when
            // it holds existing data, with zeros (and no request) past EOF.
            let end = off + len;
            let mut err = None;
            for page in cache.missing_pages(off, len) {
                let p_start = page * ps;
                if off <= p_start && end >= p_start + ps {
                    continue; // overwritten whole
                }
                if p_start < size_before {
                    let res =
                        self.pfs.raw_io(&self.file, self.client, OstKind::Fill, t, p_start, ps);
                    t = t.max(keep_first(&mut err, res));
                    self.pfs.fill_page(&self.file, cache, page, true);
                } else {
                    cache.fill(page, vec![0u8; ps as usize]);
                }
            }
            // Every page of the span goes dirty, gap-only ones included:
            // the model wrote the whole span into the cache.
            cache.write_pieces(off, len, pieces(segs, runs));
            t += (len as f64 * self.pfs.cfg.cost.cache_copy_ns_per_byte) as u64;
            self.file.size.fetch_max(end, Ordering::SeqCst);
            err.map_or(Ok(t), |e| Err(PfsError { at: t, ..e }))
        } else {
            let res = self.pfs.raw_io(&self.file, self.client, OstKind::Write, t, off, len);
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
        self.preadv_nb(now, off, &mut [buf]).into_result()
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
        let mut t = self.lock_range(now, off, len, LockKind::Ordinary);
        if self.pfs.cfg.client_cache {
            let mut coh = self.file.coherency.lock().unwrap();
            let ps = self.pfs.cfg.page_size;
            let cache = coh.caches.entry(self.client).or_insert_with(|| ClientCache::new(ps));
            let mut err = None;
            // Fetch missing pages as coalesced runs. One that starts at or
            // past the clip costs no request and is no fill; it is filled
            // from the image all the same: it holds no byte of a pre-read
            // span's gaps, but another client's bytes may share the page,
            // and a write-back stores whole pages.
            let missing = cache.missing_pages(off, len);
            let (fetch, past) = missing.split_at(missing.partition_point(|&p| p * ps < self.clip));
            for run in fetch.chunk_by(|a, b| b - a == 1) {
                let (first, pages) = (run[0], run.len() as u64);
                let res = self.pfs.raw_io(
                    &self.file,
                    self.client,
                    OstKind::Fill,
                    t,
                    first * ps,
                    pages * ps,
                );
                t = t.max(keep_first(&mut err, res));
                for &page in run {
                    self.pfs.fill_page(&self.file, cache, page, true);
                }
            }
            for &page in past {
                self.pfs.fill_page(&self.file, cache, page, false);
            }
            for (at, dst) in pieces_mut(segs, dests) {
                cache.read(at, dst);
            }
            t += (len as f64 * self.pfs.cfg.cost.cache_copy_ns_per_byte) as u64;
            err.map_or(Ok(t), |e| Err(PfsError { at: t, ..e }))
        } else {
            let kind = if segs.is_empty() { OstKind::PreRead } else { OstKind::Read };
            let charged = len.min(self.clip.saturating_sub(off));
            let res = self.pfs.raw_io(&self.file, self.client, kind, t, off, charged);
            self.pfs.load(&self.file, self.clip, pieces_mut(segs, dests));
            res.map(|fin| t.max(fin))
        }
    }

    /// The one write request: charge a write of the span `[off, off+len)`
    /// and move only the bytes of `segs` — sorted, disjoint `(offset, len)`
    /// segments inside the span — taken from `runs`, a run list
    /// concatenating to their bytes (cut anywhere, empty runs allowed).
    /// Unless `covered` (the segments fill the span) the span is read
    /// first: a data-sieving read-modify-write, under the file's RMW lock
    /// across the pre-read and the write-back, so no other client's write
    /// can interleave (ROMIO wraps sieving writes in an fcntl lock for
    /// exactly this reason). Both are *charged* for the whole span; the
    /// host moves only the segments' bytes, because the gap bytes the
    /// pre-read would fetch are the bytes the write-back would store.
    pub fn write_span(
        &self,
        now: u64,
        off: u64,
        len: u64,
        segs: &[(u64, u64)],
        runs: &[&[u8]],
        covered: bool,
    ) -> IoCompletion {
        let _serial = self.file.serial.lock().unwrap();
        let pre = if covered {
            IoCompletion::span(now, now)
        } else {
            IoCompletion::of(now, self.read_charged(now, off, len, &[], &mut []))
        };
        let t = pre.done_at();
        let write = IoCompletion::of(t, self.write_charged(t, off, len, segs, runs));
        IoCompletion::span(now, write.done_at()).or_error(pre.error().or(write.error()))
    }

    /// The one read request, [`FileHandle::write_span`]'s twin: charge a
    /// read of the span `[off, off+len)` and deliver only the bytes of
    /// `segs` (sorted, disjoint segments inside the span) into `dests`, a
    /// run list their bytes fill in order, cut anywhere.
    pub fn read_span(
        &self,
        now: u64,
        off: u64,
        len: u64,
        segs: &[(u64, u64)],
        dests: &mut [&mut [u8]],
    ) -> IoCompletion {
        let _serial = self.file.serial.lock().unwrap();
        IoCompletion::of(now, self.read_charged(now, off, len, segs, dests))
    }

    /// Report that the caller now holds `depth` nonblocking ops of this
    /// handle queued for a later wait (call right after queueing one, not
    /// when waiting immediately); raises
    /// [`StatsSnapshot::nb_inflight_peak`]. The data already landed at
    /// issue time, so this bounds nothing — the queue is the caller's, and
    /// so is its count.
    pub fn note_queued(&self, depth: usize) {
        self.pfs.tally(|s| s.nb_inflight_peak = s.nb_inflight_peak.max(depth as u64));
    }

    /// Nonblocking gathered write: the write of the concatenation of
    /// `bufs` at `off`, issued at `now` as one request — a
    /// [`FileHandle::write_span`] whose one segment is the span. Each run
    /// is stored where it lands, at issue time; no packed copy is made. A
    /// single buffer is a run list of one.
    pub fn pwritev_nb(&self, now: u64, off: u64, bufs: &[&[u8]]) -> IoCompletion {
        let len = bufs.iter().map(|b| b.len() as u64).sum();
        self.write_span(now, off, len, &[(off, len)], bufs, true)
    }

    /// Nonblocking scattered read: one request for the span starting at
    /// `off`, issued at `now` and delivered straight into the caller's run
    /// list — a [`FileHandle::read_span`] whose one segment is the span.
    pub fn preadv_nb(&self, now: u64, off: u64, dests: &mut [&mut [u8]]) -> IoCompletion {
        let len = dests.iter().map(|d| d.len() as u64).sum();
        self.read_span(now, off, len, &[(off, len)], dests)
    }

    /// Flush this client's dirty pages to storage; returns completion
    /// time. Data always lands even when a transient fault is reported
    /// (so a failed flush cannot lose dirty pages); the error tells the
    /// caller the *request* outcome.
    pub fn flush(&self, now: u64) -> Result<u64, PfsError> {
        let mut coh = self.file.coherency.lock().unwrap();
        let Some(cache) = coh.caches.get_mut(&self.client) else {
            return Ok(now); // nothing cached, or no client cache at all
        };
        let (t, err) = self.pfs.write_back(&self.file, self.client, now, cache.take_all_dirty());
        err.map_or(Ok(t), |e| Err(PfsError { at: t, ..e }))
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
    fn only_a_newer_world_finds_the_osts_idle() {
        let pfs = Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
        let h = pfs.open("f", 0);
        let data = vec![7u8; 64];
        let busy = h.write(0, 0, &data).unwrap();
        // The same request at time 0 queues behind the first one until a
        // newer world enters; an equal or older world leaves the calendars.
        let again = || h.write(0, 0, &data).unwrap();
        pfs.enter_world(5);
        let fresh = again();
        assert_eq!(fresh, busy, "a newer world starts on idle OSTs");
        for older_or_equal in [5, 3] {
            pfs.enter_world(older_or_equal);
            assert!(again() > fresh, "world {older_or_equal} cleared the OST calendars");
        }
        pfs.enter_world(6);
        assert_eq!(again(), busy);
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
    fn striped_write_hits_multiple_osts() {
        let pfs = Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
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
        let pfs = Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
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

    #[test]
    fn a_late_booked_early_arrival_is_served_in_the_idle_gap() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        pfs.open("f", 0).write(1_000_000, 0, &[0u8; 16]).unwrap();
        // Booked second, but it arrives long before the first one and the
        // OST is idle until then: it does not queue behind it.
        let early = pfs.open("f", 1).write(0, 4096, &[0u8; 16]).unwrap();
        assert!(early < 1_000_000, "the early arrival queued behind the late one: done at {early}");
    }

    /// The same traffic on a file system with a service log and on one
    /// without: every completion time and counter agrees, and the log
    /// holds one record per OST request, each served at or after it
    /// arrived, of the kind that issued it.
    #[test]
    fn the_service_log_records_and_charges_nothing() {
        for cache in [false, true] {
            let traffic = |pfs: &Arc<Pfs>| {
                pfs.enter_world(1);
                let (a, b) = (pfs.open("f", 0), pfs.open("f", 1));
                let mut times = vec![a.write(0, 0, &[1u8; 200]).unwrap()];
                times.push(b.write(5, 60, &[2u8; 30]).unwrap());
                let mut back = [0u8; 40];
                times.push(
                    a.write_span(7, 10, 40, &[(10, 8), (40, 10)], &[&[3u8; 18]], false).done_at(),
                );
                times.push(a.read(9, 20, &mut back).unwrap());
                times.push(b.flush(11).unwrap());
                times.push(a.close(13).unwrap());
                times
            };
            let plain = Pfs::build(locking_cfg(cache), None, None);
            let log = Arc::new(OstLog::default());
            let logged = Pfs::build(locking_cfg(cache), None, Some(Arc::clone(&log)));
            assert_eq!(traffic(&plain), traffic(&logged));
            assert_eq!(plain.stats(), logged.stats());
            let log = log.records();
            assert_eq!(log.len() as u64, logged.stats().ost_requests);
            assert!(log.iter().all(|r| r.world == 1 && r.arrival <= r.start && r.start < r.done));
            let kinds: Vec<OstKind> = log.iter().map(|r| r.kind).collect();
            let want: &[OstKind] = if cache {
                &[OstKind::Fill, OstKind::Flush]
            } else {
                &[OstKind::Write, OstKind::PreRead, OstKind::Read]
            };
            assert!(want.iter().all(|k| kinds.contains(k)), "{cache}: {kinds:?}");
        }
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
        let pfs = Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
        let h = pfs.open("f", 0);
        let op = h.pwritev_nb(1000, 0, &[&[7u8; 64]]);
        assert_eq!(op.issued_at(), 1000);
        assert!(op.done_at() > 1000);
        assert_eq!(op.duration(), op.done_at() - 1000);
        // Data is visible before the op is waited on.
        let mut buf = [0u8; 64];
        let r = h.preadv_nb(op.done_at(), 0, &mut [&mut buf]);
        assert_eq!(buf, [7u8; 64]);
        // wait() is max(now, done_at) in both directions.
        let done = r.done_at();
        assert_eq!(r.wait(0).unwrap(), done);
        assert_eq!(r.wait(done + 5).unwrap(), done + 5);
    }

    #[test]
    fn nb_matches_blocking_times() {
        // Same op sequence on two identically-configured file systems: the
        // nonblocking variants must report the exact completion times the
        // blocking calls return.
        let mk = || Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
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
            assert_eq!(h.write_span(5, 40, 0, &[], &[], false).wait(0), Ok(5));
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
        let _ = h.write_span(0, 0, 104, &[(0, 4), (100, 4)], &[&[7u8; 12]], false);
    }

    #[test]
    #[should_panic(expected = "segments cover 8 bytes but the run list holds 12")]
    fn sieve_chunk_read_rejects_a_dest_list_longer_than_its_segments() {
        let h = tiny().open("f", 0);
        let mut out = [0u8; 12];
        let _ = h.read_span(0, 0, 104, &[(0, 4), (100, 4)], &mut [&mut out]);
    }

    #[test]
    fn nb_inflight_tracks_peak_per_handle() {
        let pfs = tiny();
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        assert_eq!(pfs.stats().nb_inflight_peak, 0);
        let mut queue = Vec::new();
        for i in 0..3 {
            queue.push(a.pwritev_nb(0, i * 64, &[&[1u8; 64]]));
            a.note_queued(queue.len());
        }
        // Another handle's shallower queue leaves the peak where it is.
        let op = b.pwritev_nb(0, 512, &[&[2u8; 64]]);
        b.note_queued(1);
        let _ = op.wait(0).unwrap();
        for op in queue {
            let _ = op.wait(0).unwrap();
        }
        assert_eq!(pfs.stats().nb_inflight_peak, 3, "peak is the deepest single-handle queue");
        // A later, shallower ramp keeps the high-water mark.
        a.note_queued(1);
        assert_eq!(pfs.stats().nb_inflight_peak, 3);
    }

    // ---- fault injection --------------------------------------------------

    #[test]
    fn disabled_faults_charge_identical() {
        // A Pfs without a fault plan and one with an all-zero plan must
        // produce identical completion times and counters (the fault-free
        // fast path is the charge-identity contract).
        let mk_plain =
            || Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
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
                stragglers: vec![crate::fault::StragglerSpec { ost: 0, multiplier: 4.0 }],
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
    fn write_back_stores_only_the_bytes_below_the_size() {
        // A 100-byte cached write ends inside its seventh 16-byte page.
        // Written back by a flush or by a revocation, the page is charged
        // whole, but the file ends where the write did.
        let pfs = Pfs::new(locking_cfg(true));
        let h = pfs.open("f", 0);
        h.write(0, 0, &[5u8; 100]).unwrap();
        h.flush(0).unwrap();
        assert_eq!(pfs.stats().flush_bytes, 112);
        assert_eq!(h.size(), 100, "a flush must not round the size up to a page");
        h.write(0, 100, &[6u8; 3]).unwrap();
        let mut buf = [0u8; 3];
        pfs.open("f", 1).read(0, 100, &mut buf).unwrap(); // revokes, flushes
        assert_eq!(buf, [6u8; 3]);
        assert_eq!(pfs.stats().lock_revocations, 1);
        assert_eq!(h.size(), 103, "a revocation flush must not round the size up either");
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
    fn a_faulted_write_back_lands_and_is_counted() {
        // Every OST request faults. A flush reports its fault, stamped at
        // the end of its write-back, yet counts and stores the run; a
        // revocation writes the victim's run back the same way, and the
        // requester sees only its own request's fault.
        let pfs = Pfs::with_faults(locking_cfg(true), FaultPlan::transient(3, 1.0));
        let a = pfs.open("f", 0);
        a.write(0, 0, &[5u8; 32]).unwrap(); // whole pages: cached, no request
        let err = a.flush(1000).unwrap_err();
        assert_eq!(err.kind, PfsErrorKind::TransientOst);
        assert_eq!(err.at, 91_137, "one 32-byte write-back request after 1 000");
        assert_eq!(pfs.stats().flush_bytes, 32);
        assert_eq!(a.file.content.read().unwrap()[..], [5u8; 32]);
        a.write(err.at, 32, &[6u8; 16]).unwrap(); // the lock is still held
        let b = pfs.open("f", 1);
        let mut buf = [0u8; 16];
        let err = b.read(err.at, 32, &mut buf).unwrap_err();
        assert_eq!(err.kind, PfsErrorKind::TransientOst);
        assert_eq!(err.at, 1_901_281);
        assert_eq!(buf, [6u8; 16], "the victim's run reached the file first");
        assert_eq!(pfs.stats().lock_revocations, 1);
        assert_eq!(pfs.stats().flush_bytes, 48);
        assert_eq!(a.file.content.read().unwrap()[32..], [6u8; 16]);
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
            let t = b.lock_range(t, 64, 64, kind);
            {
                let coh = a.file.coherency.lock().unwrap();
                assert!(coh.caches[&0].is_empty(), "{kind:?}: victim pages survived");
                assert!(!coh.table.holds(0, 0, 1), "{kind:?}: victim lock survived");
                assert!(coh.table.holds(1, 64, 128) && !coh.table.holds(1, 63, 129));
            }
            let mut image = vec![0u8; 48];
            pfs.load(&a.file, u64::MAX, std::iter::once((0, image.as_mut_slice())));
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
                let t = a.lock_range(step, 0, 64, kind);
                a.write(t, 0, &[1u8; 64]).unwrap();
                let t = b.lock_range(step, 64, 64, kind);
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
                        ta = ha[c].lock_range(ta, off, len, LockKind::Ahead);
                        tb = hb[c].lock_range(tb, off, len, LockKind::Ordinary);
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
