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
//! counter), and a digest of what it received.
//!
//! The 257- and 512-rank worlds and the two sections after them were
//! harvested on commit 6c2ce6c, the last one whose ranks stepped through
//! a round on their own fibers, for the change that has the scheduler
//! step a sleeping rank's round cursor instead: `[interleaved p=8]` runs
//! rounds on a 5-of-8 subgroup while the other three ranks exchange
//! point-to-point messages at clocks that fall between the round's
//! wakes (one counter orders every record of both groups, so a round
//! whose wakes were released in one go, ahead of the heap entries that
//! used to pop between them, shows as a changed index); `[back-to-back
//! p=9]` has one rank enter each round a virtual millisecond late, run
//! through it on messages already waiting, and deliver into the next
//! round while its peers are still parked in this one.
//!
//! Regenerate only when a change is *meant* to move virtual time.

use flexio::sim::{run, CostModel, Rank};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

const FIXTURE: &str = "tests/fixtures/sim_collective_charges.txt";
const WORLDS: [usize; 8] = [1, 2, 3, 8, 65, 130, 257, 512];
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

/// One record: `rank [label] clock msgs bytes compute/comm/io order digest`.
fn record_line(rank: &Rank, label: &str, at: usize, digest: u64) -> String {
    let s = rank.stats();
    format!(
        "{} {label}{} {} {} {}/{}/{} {at} {:08x}",
        rank.rank(),
        rank.now(),
        s.msgs_sent,
        s.bytes_sent,
        s.phase_ns[0],
        s.phase_ns[1],
        s.phase_ns[2],
        digest as u32 ^ (digest >> 32) as u32,
    )
}

fn digest_blocks(blocks: &[Vec<u8>]) -> u64 {
    blocks.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| fnv(fnv(h, &[b.len() as u8]), b))
}

/// One rank's pass through the six collectives; one record per case.
fn rank_body(rank: &Rank, order: &[AtomicUsize]) -> Vec<String> {
    let (me, p) = (rank.rank(), rank.nprocs());
    let mut recs = Vec::new();
    let mut record = |case: usize, digest: u64| {
        let at = order[case].fetch_add(1, Ordering::SeqCst);
        recs.push(record_line(rank, "", at, digest));
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

/// The four dense rounds over `comm`, one record each (labelled `pass`
/// and the collective), `late` deciding who enters which round late.
fn four_rounds(
    rank: &Rank,
    comm: &Rank,
    pass: usize,
    order: &AtomicUsize,
    recs: &mut Vec<String>,
    late: impl Fn(usize),
) {
    let (me, p) = (comm.rank(), comm.nprocs());
    let mut record = |what: &str, digest: u64| {
        let at = order.fetch_add(1, Ordering::SeqCst);
        recs.push(record_line(rank, &format!("{pass}.{what} "), at, digest));
    };
    let case = 10 + pass;
    late(0);
    let got = comm.alltoallv((0..p).map(|d| block(case, me, d, mixed_len(case, me, d))).collect());
    for (src, b) in got.iter().enumerate() {
        assert_eq!(b, &block(case, src, me, mixed_len(case, src, me)), "pass {pass}: block {src}->{me}");
    }
    record("alltoallv", digest_blocks(&got));
    late(1);
    let got = comm.allgatherv(&block(case, me, 0, (me * 37 % 11) * 9));
    for (src, b) in got.iter().enumerate() {
        assert_eq!(b, &block(case, src, 0, (src * 37 % 11) * 9), "pass {pass}: block of {src}");
    }
    record("allgatherv", digest_blocks(&got));
    late(2);
    comm.barrier();
    record("barrier", 0);
    late(3);
    // Everyone has data for the first and the last rank only.
    let ends: Vec<usize> = if p == 1 { vec![0] } else { vec![0, p - 1] };
    let sends = ends.iter().map(|&d| (d, block(case, me, d, 1 + (me + d) % 40))).collect();
    let all: Vec<usize> = (0..p).collect();
    let recv_from: &[usize] = if ends.contains(&me) { &all } else { &[] };
    let got = comm.alltoallv_sparse(sends, recv_from);
    for (src, b) in &got {
        assert_eq!(b, &block(case, *src, me, 1 + (src + me) % 40), "pass {pass}: sparse {src}->{me}");
    }
    let payloads: Vec<Vec<u8>> = got.into_iter().map(|(_, b)| b).collect();
    record("sparse", digest_blocks(&payloads));
}

const ROUND_MEMBERS: [usize; 5] = [0, 2, 3, 5, 7];
const P2P_MEMBERS: [usize; 3] = [1, 4, 6];

/// Five of eight ranks run dense rounds over their subgroup; the other
/// three pass messages round a ring of their own (and `exchange` over
/// their subgroup every third turn) at clocks a few tens of virtual
/// microseconds apart, so their heap entries pop between the wakes of a
/// round in progress.
fn interleaved_body(rank: &Rank, order: &AtomicUsize) -> Vec<String> {
    let me = rank.rank();
    let mut recs = Vec::new();
    if ROUND_MEMBERS.contains(&me) {
        let comm = rank.subgroup(&ROUND_MEMBERS);
        for pass in 0..3 {
            four_rounds(rank, &comm, pass, order, &mut recs, |at| {
                if at % 2 == 0 {
                    skew(rank, pass + at)
                }
            });
        }
        return recs;
    }
    let comm = rank.subgroup(&P2P_MEMBERS);
    let g = comm.rank();
    let (next, prev) = ((g + 1) % 3, (g + 2) % 3);
    for turn in 0..40 {
        let mut record = |what: &str, digest: u64| {
            let at = order.fetch_add(1, Ordering::SeqCst);
            recs.push(record_line(rank, &format!("{turn}.{what} "), at, digest));
        };
        rank.advance(((me * 31 + turn * 17) % 7) as u64 * 15_000);
        rank.send(P2P_MEMBERS[next], turn as u64, &block(20, me, turn, 1 + turn % 9));
        let got = rank.recv(P2P_MEMBERS[prev], turn as u64);
        assert_eq!(got, block(20, P2P_MEMBERS[prev], turn, 1 + turn % 9));
        record("p2p", fnv(0xcbf2_9ce4_8422_2325, &got));
        if turn % 3 == 2 {
            let got = comm.exchange(vec![(next, block(21, g, turn, 5))], &[prev]);
            assert_eq!(got, vec![(prev, block(21, prev, turn, 5))]);
            record("exchange", fnv(0xcbf2_9ce4_8422_2325, &got[0].1));
        }
    }
    recs
}

/// Rounds back to back with one rank a virtual millisecond late into
/// each: it finds its messages waiting, goes through the round without
/// parking much and is delivering into the next while its peers are
/// still parked in this one.
fn back_to_back_body(rank: &Rank, order: &AtomicUsize) -> Vec<String> {
    let (me, p) = (rank.rank(), rank.nprocs());
    let mut recs = Vec::new();
    for pass in 0..4 {
        four_rounds(rank, rank, pass, order, &mut recs, |at| {
            if me == (pass * 4 + at) * 2 % p {
                rank.advance(1_000_000)
            }
        });
    }
    recs
}

/// The fixture text: `[p=N case]` headers, then one line per rank: `rank
/// clock msgs bytes compute/comm/io order digest`; then the two mixed
/// sections, one line per record, labelled.
fn harvest() -> String {
    let mut out = String::new();
    for p in WORLDS {
        let order: Vec<AtomicUsize> = CASES.iter().map(|_| AtomicUsize::new(0)).collect();
        let per_rank = run(p, CostModel::default(), |rank| rank_body(rank, &order));
        for (case, name) in CASES.iter().enumerate() {
            writeln!(out, "[p={p} {name}]").unwrap();
            for recs in &per_rank {
                writeln!(out, "{}", recs[case]).unwrap();
            }
        }
    }
    type Body = fn(&Rank, &AtomicUsize) -> Vec<String>;
    let mixed: [(&str, usize, Body); 2] =
        [("interleaved", 8, interleaved_body), ("back-to-back", 9, back_to_back_body)];
    for (name, p, body) in mixed {
        let order = AtomicUsize::new(0);
        let per_rank = run(p, CostModel::default(), |rank| body(rank, &order));
        writeln!(out, "[{name} p={p}]").unwrap();
        for line in per_rank.iter().flatten() {
            writeln!(out, "{line}").unwrap();
        }
    }
    out
}

#[test]
fn collectives_reproduce_the_parent_commit_fixture() {
    let got = harvest();
    if std::env::var_os("FLEXIO_REGEN_FIXTURE").is_some() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("fixture missing (FLEXIO_REGEN_FIXTURE=1)");
    let mut header = "";
    for (g, w) in got.lines().zip(want.lines()) {
        if w.starts_with('[') {
            header = w;
        }
        assert_eq!(
            g, w,
            "first differing line under {header} \
             (rank clock msgs bytes compute/comm/io host-order digest)"
        );
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
