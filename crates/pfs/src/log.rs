//! The OST service log: every request each OST served, for whom and when,
//! and what it tells about the order they were served in.
//!
//! A file system keeps a log only if it was built after a call to
//! [`log_ost_service`], or with `FLEXIO_OST_LOG=1` in the environment; off,
//! booking a request costs one branch on an `Option`. The log only records:
//! a file system charges the same with it as without (`bench <exp>
//! --ost-log` prints the golden rows unchanged).
//!
//! Requests are booked in host call order, not arrival order, and an OST
//! serves each in the first idle gap after its arrival that holds it
//! ([`crate::calendar`]), so the log's order is not service order: a
//! request booked late may have been served first. [`inversions`] orders
//! each OST's records by start and measures the difference against the
//! Lamport total order on arrival: the virtual arrival time, then the
//! rank, as a logical clock breaks ties by process id.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What an OST request moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OstKind {
    /// A read the caller asked for.
    Read,
    /// A write the caller asked for.
    Write,
    /// A data-sieving read-modify-write's pre-read of its span.
    PreRead,
    /// Pages read into a client cache.
    Fill,
    /// Dirty cache pages written back (a flush, a close or a revocation).
    Flush,
}

impl OstKind {
    /// Whether the request carries its bytes to the OST.
    pub fn is_write(self) -> bool {
        matches!(self, OstKind::Write | OstKind::Flush)
    }
}

/// One request one OST served (a request is confined to a stripe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OstRecord {
    /// The newest world that had entered the file system when it was
    /// booked ([`crate::Pfs::enter_world`]); 0 before any.
    pub world: u64,
    /// The OST.
    pub ost: usize,
    /// The client whose call issued it; a revocation's flush is the
    /// requester's.
    pub rank: usize,
    /// Virtual ns it reached the OST.
    pub arrival: u64,
    /// Virtual ns the OST started on it: its arrival, or the end of the
    /// booked service it waited behind. Booking order is not start order:
    /// a request booked later may start earlier, in a gap.
    pub start: u64,
    /// Virtual ns the OST was done with it.
    pub done: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// What it moved.
    pub kind: OstKind,
}

/// One file system's log: its records in booking order. Per OST that is
/// not service order; sort by [`OstRecord::start`] for that.
#[derive(Debug, Default)]
pub struct OstLog {
    records: Mutex<Vec<OstRecord>>,
}

impl OstLog {
    pub(crate) fn push(&self, record: OstRecord) {
        self.records.lock().expect("the log is a leaf lock").push(record);
    }

    /// A copy of the records so far.
    pub fn records(&self) -> Vec<OstRecord> {
        self.records.lock().expect("the log is a leaf lock").clone()
    }
}

static LOGGING: AtomicBool = AtomicBool::new(false);
/// Logs of the file systems built while logging was on, not yet taken.
static BUILT: Mutex<Vec<Arc<OstLog>>> = Mutex::new(Vec::new());

/// Give every file system built from now on a service log.
pub fn log_ost_service() {
    LOGGING.store(true, Ordering::SeqCst);
}

/// The log a file system built now gets: one, registered for
/// [`take_ost_logs`], if logging is on (`bench --ost-log`, or the
/// environment, which puts whole test binaries under the log).
pub(crate) fn new_log() -> Option<Arc<OstLog>> {
    static ENV: OnceLock<bool> = OnceLock::new();
    let env = *ENV.get_or_init(|| std::env::var_os("FLEXIO_OST_LOG").is_some_and(|v| v == "1"));
    if !(env || LOGGING.load(Ordering::SeqCst)) {
        return None;
    }
    let log = Arc::new(OstLog::default());
    BUILT.lock().expect("the registry is a leaf lock").push(Arc::clone(&log));
    Some(log)
}

/// The logs of the file systems built since the last call, in build order.
pub fn take_ost_logs() -> Vec<Arc<OstLog>> {
    std::mem::take(&mut *BUILT.lock().expect("the registry is a leaf lock"))
}

/// The records of `log` that an OST served before a request of the same
/// world that arrived earlier — earlier by arrival, then by rank — as
/// indices into `log`, ascending. Each (world, OST)'s records are taken in
/// service order: by start, then by booking order. While such a record was
/// served, the earlier arrival had already arrived and was waiting.
pub fn inversions(log: &[OstRecord]) -> Vec<usize> {
    let key = |r: &OstRecord| (r.arrival, r.rank);
    let mut served: Vec<usize> = (0..log.len()).collect();
    served.sort_by_key(|&i| (log[i].start, i));
    // The least key served after each record at its world's OST.
    let mut least_later: std::collections::HashMap<(u64, usize), (u64, usize)> = Default::default();
    let mut out = Vec::new();
    for &i in served.iter().rev() {
        let r = &log[i];
        let later = least_later.entry((r.world, r.ost)).or_insert((u64::MAX, usize::MAX));
        if *later < key(r) {
            out.push(i);
        }
        *later = (*later).min(key(r));
    }
    out.sort_unstable();
    out
}

/// What one OST did in one world of a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OstService {
    /// The world: its place among the log's worlds, in order of first
    /// record.
    pub world: usize,
    /// The OST.
    pub ost: usize,
    /// Requests served.
    pub requests: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Σ (done − start): virtual ns the OST was busy.
    pub busy_ns: u64,
    /// Σ (start − arrival): virtual ns requests queued.
    pub wait_ns: u64,
    /// Requests served before an earlier arrival ([`inversions`]).
    pub inversions: u64,
    /// Σ (done − start) over those: virtual ns earlier arrivals waited
    /// behind later ones.
    pub inverted_ns: u64,
}

/// Every (world, OST) pair of `log` that served a request, in world then
/// OST order.
pub fn service(log: &[OstRecord]) -> Vec<OstService> {
    let mut worlds: Vec<u64> = Vec::new();
    let mut by: std::collections::BTreeMap<(usize, usize), OstService> = Default::default();
    let mut inverted = inversions(log).into_iter().peekable();
    for (i, r) in log.iter().enumerate() {
        let world = worlds.iter().position(|&w| w == r.world).unwrap_or_else(|| {
            worlds.push(r.world);
            worlds.len() - 1
        });
        let s = by.entry((world, r.ost)).or_insert(OstService {
            world,
            ost: r.ost,
            ..OstService::default()
        });
        let busy = r.done - r.start;
        s.requests += 1;
        s.bytes += r.bytes;
        s.busy_ns += busy;
        s.wait_ns += r.start - r.arrival;
        if inverted.next_if_eq(&i).is_some() {
            s.inversions += 1;
            s.inverted_ns += busy;
        }
    }
    by.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ost: usize, rank: usize, arrival: u64, start: u64, done: u64) -> OstRecord {
        OstRecord { world: 1, ost, rank, arrival, start, done, bytes: 10, kind: OstKind::Write }
    }

    #[test]
    fn a_request_served_before_an_earlier_arrival_is_an_inversion() {
        let log = [
            rec(0, 3, 50, 50, 80),  // served first, but rank 1 arrived at 40
            rec(0, 1, 40, 80, 100), // waited 40 ns, 30 of them behind rank 3
            rec(1, 2, 60, 60, 70),  // another OST: its own order
            rec(0, 0, 100, 100, 110),
            rec(1, 0, 60, 70, 90), // same arrival, lower rank: rank 2 jumped it
        ];
        assert_eq!(inversions(&log), [0, 2]);
        let s = service(&log);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s[0],
            OstService {
                world: 0,
                ost: 0,
                requests: 3,
                bytes: 30,
                busy_ns: 30 + 20 + 10,
                wait_ns: 40,
                inversions: 1,
                inverted_ns: 30
            }
        );
        assert_eq!((s[1].ost, s[1].inversions, s[1].inverted_ns, s[1].wait_ns), (1, 1, 10, 10));
    }

    #[test]
    fn a_gap_filling_request_booked_after_a_later_arrival_is_no_inversion() {
        // In log order rank 1 comes before rank 2, which arrived earlier;
        // in service order it does not.
        let log = [
            rec(0, 1, 100, 100, 110), // booked first
            rec(0, 2, 0, 0, 10),      // booked second, served first, in the gap before it
            rec(0, 0, 105, 110, 120), // waited behind rank 1, which arrived first
        ];
        assert!(inversions(&log).is_empty());
        let s = service(&log);
        assert_eq!((s[0].requests, s[0].wait_ns, s[0].inversions, s[0].inverted_ns), (3, 5, 0, 0));
    }

    #[test]
    fn worlds_are_ordered_apart() {
        // A later world's request that arrives at 0 jumps nothing of the
        // world before it.
        let mut log = [rec(0, 0, 500, 500, 600), rec(0, 0, 0, 0, 10)];
        log[1].world = 2;
        assert!(inversions(&log).is_empty());
        assert_eq!(service(&log).iter().map(|s| s.world).collect::<Vec<_>>(), [0, 1]);
    }
}
