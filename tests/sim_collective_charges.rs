//! Charge-and-order fixture for `flexio-sim`'s dense collectives.
//!
//! `tests/fixtures/sim_collective_charges.txt` was written by this file
//! (`FLEXIO_REGEN_FIXTURE=1`, the convention of `shared_derivation.rs`)
//! run on the last commit whose `alltoallv`/`allgatherv`/`barrier` moved
//! every message through the tag-addressed mailbox (PR 14's tree; there
//! `alltoallv_sparse` was `flexible.rs::dense_exchange` — place the send
//! list into one block per rank, run the dense `alltoallv`, pick the
//! blocks of `recv_from` out of the result — and the harvest called
//! exactly that). The slot-addressed boards that replaced the
//! mailbox for those rounds must not move a single charge **or the host
//! order in which ranks run**: the PFS ratchets observe execution order,
//! so a rank that leaves a collective earlier on the host than it used to
//! is a behaviour change even when every clock agrees.
//!
//! One world per size runs six collectives back to back (so boards are
//! pooled, reused and run ahead of) and records, per rank and collective:
//! exit clock, cumulative `msgs_sent` / `bytes_sent` / `phase_ns`, the
//! index at which the rank left the collective in host order (a shared
//! counter), and a digest of what it received. The same text must come
//! out of the event loop, of the sharded pool at 2, 4 and 7 shards, and
//! of whatever `FLEXIO_SIM_SHARDS` selects (the `--thorough` sweep).
//!
//! Regenerate only when a change is *meant* to move virtual time.

use flexio::sim::{run_on, Backend, CostModel, Rank};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

const FIXTURE: &str = "tests/fixtures/sim_collective_charges.txt";
const WORLDS: [usize; 6] = [1, 2, 3, 8, 65, 130];
const CASES: [&str; 6] = [
    "alltoallv-dense-mixed",
    "alltoallv-all-empty",
    "alltoallv-dense-skewed",
    "alltoallv-sparse",
    "allgatherv-mixed",
    "barrier-skewed",
];

fn fnv(h: u64, data: &[u8]) -> u64 {
    data.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Length of the block `src` sends `dst` in `case`: about a third are
/// empty, the rest run up to ~200 bytes.
fn mixed_len(case: usize, src: usize, dst: usize) -> usize {
    let x = (src * 31 + dst * 17 + case * 7) % 23;
    if x.is_multiple_of(3) {
        0
    } else {
        x * 9
    }
}

fn block(case: usize, src: usize, dst: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (case * 131 + src * 29 + dst * 7 + i) as u8).collect()
}

/// Uneven entry clocks: up to 0.6 virtual ms apart, not monotone in rank.
fn skew(rank: &Rank, salt: usize) {
    rank.advance(((rank.rank() * 7919 + salt) % 13) as u64 * 50_000);
}

/// The sparse case's geometry: every fourth rank is an "aggregator";
/// `src` has data for aggregator `a` unless `(src + a) % 3 == 0`.
fn sends_to(src: usize, a: usize) -> bool {
    a.is_multiple_of(4) && !(src + a).is_multiple_of(3)
}

/// One rank's pass through the six collectives; one record per case.
fn rank_body(rank: &Rank, order: &[AtomicUsize]) -> Vec<String> {
    let (me, p) = (rank.rank(), rank.nprocs());
    let mut recs = Vec::new();
    let mut record = |case: usize, digest: u64| {
        let at = order[case].fetch_add(1, Ordering::SeqCst);
        let s = rank.stats();
        recs.push(format!(
            "{me} {} {} {} {}/{}/{} {at} {:08x}",
            rank.now(),
            s.msgs_sent,
            s.bytes_sent,
            s.phase_ns[0],
            s.phase_ns[1],
            s.phase_ns[2],
            digest as u32 ^ (digest >> 32) as u32,
        ));
    };
    let digest_blocks = |blocks: &[Vec<u8>]| {
        blocks.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| fnv(fnv(h, &[b.len() as u8]), b))
    };
    let dense = |case: usize| -> Vec<Vec<u8>> {
        (0..p).map(|d| block(case, me, d, mixed_len(case, me, d))).collect()
    };

    let got = rank.alltoallv(dense(0));
    for (src, b) in got.iter().enumerate() {
        assert_eq!(b, &block(0, src, me, mixed_len(0, src, me)), "case 0: block {src}->{me}");
    }
    record(0, digest_blocks(&got));

    let got = rank.alltoallv(vec![Vec::new(); p]);
    assert!(got.iter().all(Vec::is_empty));
    record(1, digest_blocks(&got));

    skew(rank, 2);
    let got = rank.alltoallv(dense(2));
    for (src, b) in got.iter().enumerate() {
        assert_eq!(b, &block(2, src, me, mixed_len(2, src, me)), "case 2: block {src}->{me}");
    }
    record(2, digest_blocks(&got));

    let sends: Vec<(usize, Vec<u8>)> = (0..p)
        .filter(|&a| sends_to(me, a))
        .map(|a| (a, block(3, me, a, 1 + (me + a) % 40)))
        .collect();
    let recv_from: Vec<usize> = (0..p).filter(|&s| sends_to(s, me)).collect();
    let got = rank.alltoallv_sparse(sends, &recv_from);
    assert_eq!(got.len(), recv_from.len());
    for ((src, b), &want) in got.iter().zip(&recv_from) {
        assert_eq!(*src, want);
        assert_eq!(b, &block(3, want, me, 1 + (want + me) % 40), "case 3: block {want}->{me}");
    }
    let payloads: Vec<Vec<u8>> = got.into_iter().map(|(_, b)| b).collect();
    record(3, digest_blocks(&payloads));

    let got = rank.allgatherv(&block(4, me, 0, (me * 37 % 11) * 9));
    for (src, b) in got.iter().enumerate() {
        assert_eq!(b, &block(4, src, 0, (src * 37 % 11) * 9), "case 4: block of {src}");
    }
    record(4, digest_blocks(&got));

    skew(rank, 5);
    rank.barrier();
    record(5, 0);
    recs
}

/// The fixture text for one backend: `[p=N case]` headers, then one line
/// per rank: `rank clock msgs bytes compute/comm/io order digest`.
fn harvest(backend: Backend) -> String {
    let mut out = String::new();
    for p in WORLDS {
        let order: Vec<AtomicUsize> = CASES.iter().map(|_| AtomicUsize::new(0)).collect();
        let per_rank = run_on(backend, p, CostModel::default(), |rank| rank_body(rank, &order));
        for (case, name) in CASES.iter().enumerate() {
            writeln!(out, "[p={p} {name}]").unwrap();
            for recs in &per_rank {
                writeln!(out, "{}", recs[case]).unwrap();
            }
        }
    }
    out
}

#[test]
fn collectives_reproduce_the_parent_commit_fixture() {
    let got = harvest(Backend::EventLoop);
    if std::env::var_os("FLEXIO_REGEN_FIXTURE").is_some() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("fixture missing (FLEXIO_REGEN_FIXTURE=1)");
    let compare = |got: &str, backend: Backend| {
        let mut header = "";
        for (g, w) in got.lines().zip(want.lines()) {
            if w.starts_with('[') {
                header = w;
            }
            assert_eq!(
                g, w,
                "{backend:?}, first differing line under {header} \
                 (rank clock msgs bytes compute/comm/io host-order digest)"
            );
        }
        assert_eq!(got.lines().count(), want.lines().count(), "{backend:?}");
    };
    compare(&got, Backend::EventLoop);
    for backend in [Backend::Sharded(2), Backend::Sharded(4), Backend::Sharded(7), Backend::from_env()] {
        compare(&harvest(backend), backend);
    }
}
