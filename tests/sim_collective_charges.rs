//! Charge-and-order fixture for `flexio-sim`'s collectives.
//!
//! `tests/fixtures/sim_collective_charges.txt` pins, per rank and
//! collective: the exit clock, cumulative `msgs_sent` / `bytes_sent` /
//! `phase_ns`, the index at which the rank left the collective in host
//! order (one shared counter), and a digest of what it received. A
//! change to how the runtime moves messages must move neither a charge
//! **nor the host order in which ranks run**: the OST calendars observe
//! execution order, so a rank that leaves a collective earlier on the
//! host is a behaviour change even when every clock agrees.
//!
//! The worlds:
//! - one per size, 1 to 512 ranks, runs the six cases of `CASES` back to
//!   back from uneven entry clocks;
//! - `[interleaved p=8]`: collectives on a 5-of-8 subgroup while the
//!   other three ranks pass point-to-point messages at clocks that fall
//!   between the collectives' wakes;
//! - `[back-to-back p=9]`: one rank enters each collective a virtual
//!   millisecond late, runs through it on messages already waiting, and
//!   sends into the next while its peers still wait in this one;
//! - `[late-entrant p=130]` and `[… p=512]`: a rank sits out 50 virtual
//!   ms on a timer — late on the host, not only in virtual time — before
//!   a scattered `exchange` and before an `allgatherv`;
//! - `[crash-mid-round p=24]`: the first rank to leave a collective
//!   crash-stops while its peers are still in it; the survivors time out
//!   on it and run on over a subgroup;
//! - `[two-communicators p=64]`: row and column collectives of an 8 × 8
//!   grid alternating, a straggler holding its row in one while the
//!   columns send it the next; the rows' `allgatherv` rounds, run at
//!   once under one round key, keep eight tables apart.
//!
//! The fixture has moved on purpose twice, and was regenerated each time:
//! when the `allgatherv` became Bruck's log-step round, and when
//! `alltoallw` became MPICH's scattered isend/irecv over the listed
//! blocks. When `alltoallw` was deleted, its cases came to run `exchange`
//! over the same blocks posted in the same scattered order
//! ([`scattered`]): every clock, count, digest and host-order index stayed
//! as it was, and only the cases' label changed, `alltoallw` →
//! `exchange-scattered`. Regenerate only when a change is *meant* to move
//! virtual time.

use flexio::sim::{run, run_crashable, CostModel, GatherTable, Rank};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const FIXTURE: &str = "tests/fixtures/sim_collective_charges.txt";
const WORLDS: [usize; 8] = [1, 2, 3, 8, 65, 130, 257, 512];
const CASES: [&str; 6] = [
    "alltoallv-dense-mixed",
    "alltoallv-all-empty",
    "alltoallv-dense-skewed",
    "exchange-scattered",
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

/// The `exchange-scattered` case's geometry: every fourth rank is an
/// "aggregator";
/// `src` has data for aggregator `a` unless `(src + a) % 3 == 0`.
fn sends_to(src: usize, a: usize) -> bool {
    a.is_multiple_of(4) && !(src + a).is_multiple_of(3)
}

/// `sends`, ascending by destination, in MPICH's scattered `alltoallw`
/// order: to `me − 1`, `me − 2`, … wrapping round, so the ranks do not
/// all start on the same destination.
fn scattered(me: usize, mut sends: Vec<(usize, Vec<u8>)>) -> Vec<(usize, Vec<u8>)> {
    let below = sends.partition_point(|s| s.0 < me);
    sends[..below].reverse();
    sends[below..].reverse();
    sends
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

fn digest_blocks(blocks: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let digest = |h, b: &[u8]| fnv(fnv(h, &[b.len() as u8]), b);
    blocks.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| digest(h, b.as_ref()))
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
    let got = rank.exchange(scattered(me, sends), &recv_from);
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

/// Four collectives over `comm`, one record each (labelled `pass` and
/// the collective), `late` deciding who enters which one late.
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
        assert_eq!(
            b,
            &block(case, src, me, mixed_len(case, src, me)),
            "pass {pass}: block {src}->{me}"
        );
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
    let got = comm.exchange(scattered(me, sends), recv_from);
    for (src, b) in &got {
        assert_eq!(
            b,
            &block(case, *src, me, 1 + (src + me) % 40),
            "pass {pass}: exchange {src}->{me}"
        );
    }
    let payloads: Vec<Vec<u8>> = got.into_iter().map(|(_, b)| b).collect();
    record("exchange-scattered", digest_blocks(&payloads));
}

const ROUND_MEMBERS: [usize; 5] = [0, 2, 3, 5, 7];
const P2P_MEMBERS: [usize; 3] = [1, 4, 6];

/// Five of eight ranks run collectives over their subgroup; the other
/// three pass messages round a ring of their own (and `exchange` over
/// their subgroup every third turn) at clocks a few tens of virtual
/// microseconds apart, so their heap entries pop between the wakes of a
/// collective in progress.
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

/// Collectives back to back with one rank a virtual millisecond late
/// into each: it finds its messages waiting, goes through the collective
/// without parking much and is sending into the next while its peers are
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

/// The scattered `exchange` of case 3's geometry and an `allgatherv`,
/// three times over. In passes 1 and 2 one rank sits out 50 virtual ms on
/// a timer before each of the two: a park, so it is late on the host and
/// not only in virtual time — by the time it enters, every peer has run
/// until it is stuck on this rank's messages.
fn late_entrant_body(rank: &Rank, order: &AtomicUsize) -> Vec<String> {
    let (me, p) = (rank.rank(), rank.nprocs());
    let mut recs = Vec::new();
    let sit_out = |who: usize| {
        if me == who {
            assert_eq!(rank.recv_timeout(me, 7, rank.now() + 50_000_000), None);
        }
    };
    for pass in 0..3 {
        let mut record = |what: &str, digest: u64| {
            let at = order.fetch_add(1, Ordering::SeqCst);
            recs.push(record_line(rank, &format!("{pass}.{what} "), at, digest));
        };
        let case = 30 + pass;
        if pass > 0 {
            // Multiples of four: the late rank is an aggregator, so
            // blocks with bytes in them wait for it too.
            sit_out((pass * p / 3) & !3);
        }
        let sends: Vec<(usize, Vec<u8>)> = (0..p)
            .filter(|&a| sends_to(me, a))
            .map(|a| (a, block(case, me, a, 1 + (me + a) % 40)))
            .collect();
        let recv_from: Vec<usize> = (0..p).filter(|&s| sends_to(s, me)).collect();
        let got = rank.exchange(scattered(me, sends), &recv_from);
        for ((src, b), &want) in got.iter().zip(&recv_from) {
            assert_eq!(*src, want);
            assert_eq!(
                b,
                &block(case, want, me, 1 + (want + me) % 40),
                "pass {pass}: block {want}->{me}"
            );
        }
        let payloads: Vec<Vec<u8>> = got.into_iter().map(|(_, b)| b).collect();
        record("exchange-scattered", digest_blocks(&payloads));
        if pass > 0 {
            sit_out(p - pass * p / 5);
        }
        let got = rank.allgatherv(&block(case, me, 0, (me * 37 % 11) * 9));
        for (src, b) in got.iter().enumerate() {
            assert_eq!(b, &block(case, src, 0, (src * 37 % 11) * 9), "pass {pass}: block of {src}");
        }
        record("allgatherv", digest_blocks(&got));
    }
    recs
}

/// Who dies in `[crash-mid-round p=24]` (at its first checkpoint), and
/// who enters the round before that checkpoint a virtual millisecond
/// late. The victim is the first rank to leave that round on the host
/// (asserted below), so every peer is still inside it when it goes.
const CRASH_VICTIM: usize = 6;
const CRASH_LATE: usize = 12;

/// A world `alltoallv`, a crash checkpoint, a heartbeat round that finds
/// the victim gone (the sends to it fall on the floor, the receive from
/// it times out), and the four rounds again over the survivors.
fn crash_mid_round_body(rank: &Rank, order: &AtomicUsize) -> Vec<String> {
    let (me, p) = (rank.rank(), rank.nprocs());
    let mut recs = Vec::new();
    if me == CRASH_LATE {
        rank.advance(1_000_000);
    }
    let got = rank.alltoallv((0..p).map(|d| block(40, me, d, mixed_len(40, me, d))).collect());
    for (src, b) in got.iter().enumerate() {
        assert_eq!(b, &block(40, src, me, mixed_len(40, src, me)), "block {src}->{me}");
    }
    let at = order.fetch_add(1, Ordering::SeqCst);
    assert_eq!(at == 0, me == CRASH_VICTIM, "rank {me} left the round at {at}");
    recs.push(record_line(rank, "alltoallv ", at, digest_blocks(&got)));
    rank.maybe_crash();
    for peer in (0..p).filter(|&r| r != me) {
        rank.send(peer, 77, &[me as u8]);
    }
    let deadline = rank.now() + 5_000_000;
    let alive: Vec<usize> = (0..p)
        .filter(|&r| r == me || rank.recv_timeout(r, 77, deadline) == Some(vec![r as u8]))
        .collect();
    assert_eq!(alive, (0..p).filter(|&r| r != CRASH_VICTIM).collect::<Vec<_>>());
    let at = order.fetch_add(1, Ordering::SeqCst);
    recs.push(record_line(rank, "detect ", at, alive.len() as u64));
    let comm = rank.subgroup(&alive);
    four_rounds(rank, &comm, 0, order, &mut recs, |at| {
        if at % 2 == 1 {
            skew(rank, at)
        }
    });
    recs
}

/// The row `allgatherv` tables of `[two-communicators p=64]`, `(pass, row,
/// table)` for every rank, kept until the world has ended.
static ROW_TABLES: Mutex<Vec<(usize, usize, Arc<GatherTable>)>> = Mutex::new(Vec::new());

/// The eight rows run each pass's `allgatherv` at once under one round
/// key: each row's members must have shared one table, and no two rows
/// one.
fn check_row_tables() {
    let tables = std::mem::take(&mut *ROW_TABLES.lock().unwrap());
    assert_eq!(tables.len(), 2 * 64);
    for (pass, row, table) in &tables {
        for (other_pass, other_row, other) in &tables {
            let same = (pass, row) == (other_pass, other_row);
            assert_eq!(
                Arc::ptr_eq(table, other),
                same,
                "pass {pass} row {row}, pass {other_pass} row {other_row}"
            );
        }
    }
}

/// An 8 × 8 grid whose rows and columns are communicators: every pass
/// runs a row `alltoallv`, a column `alltoallv`, a row `allgatherv` and a
/// column `barrier`, entered at uneven clocks and with one rank a
/// virtual millisecond late into the row `alltoallv` — its row stays in
/// that one while the other rows finish theirs and send it the column
/// `alltoallv`'s messages, so its members hold messages of two
/// collectives at once.
fn two_communicators_body(rank: &Rank, order: &AtomicUsize) -> Vec<String> {
    let me = rank.rank();
    let (row, col) = (me / 8, me % 8);
    let rows = rank.subgroup(&(0..8).map(|c| row * 8 + c).collect::<Vec<_>>());
    let cols = rank.subgroup(&(0..8).map(|r| r * 8 + col).collect::<Vec<_>>());
    let mut recs = Vec::new();
    for pass in 0..2 {
        let mut record = |what: &str, digest: u64| {
            let at = order.fetch_add(1, Ordering::SeqCst);
            recs.push(record_line(rank, &format!("{pass}.{what} "), at, digest));
        };
        let case = 50 + pass;
        skew(rank, pass);
        if me == (pass * 27 + 21) % 64 {
            rank.advance(1_000_000);
        }
        for (what, comm) in [("row", &rows), ("col", &cols)] {
            let (g, n) = (comm.rank(), comm.nprocs());
            let got =
                comm.alltoallv((0..n).map(|d| block(case, g, d, mixed_len(case, g, d))).collect());
            for (src, b) in got.iter().enumerate() {
                assert_eq!(
                    b,
                    &block(case, src, g, mixed_len(case, src, g)),
                    "pass {pass} {what}: {src}->{g}"
                );
            }
            record(&format!("{what}-alltoallv"), digest_blocks(&got));
        }
        let table = rows.allgatherv_shared(&block(case, col, 0, (me * 37 % 11) * 9));
        for (src, b) in table.iter().enumerate() {
            assert_eq!(
                b,
                block(case, src, 0, ((row * 8 + src) * 37 % 11) * 9),
                "pass {pass}: block of {src}"
            );
        }
        record("row-allgatherv", digest_blocks(table.iter()));
        ROW_TABLES.lock().unwrap().push((pass, row, table));
        skew(rank, pass + 3);
        cols.barrier();
        record("col-barrier", 0);
    }
    recs
}

/// The fixture text: `[p=N case]` headers, then one line per rank: `rank
/// clock msgs bytes compute/comm/io order digest`; then the two mixed
/// sections and the four after them, one line per record, labelled.
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
    let mixed: [(&str, usize, Body); 6] = [
        ("interleaved", 8, interleaved_body),
        ("back-to-back", 9, back_to_back_body),
        ("late-entrant", 130, late_entrant_body),
        ("late-entrant", 512, late_entrant_body),
        ("crash-mid-round", 24, crash_mid_round_body),
        ("two-communicators", 64, two_communicators_body),
    ];
    for (name, p, body) in mixed {
        let order = AtomicUsize::new(0);
        let crashes: &[(usize, u64)] =
            if name == "crash-mid-round" { &[(CRASH_VICTIM, 0)] } else { &[] };
        // A crash-stopped rank has no records.
        let per_rank = run_crashable(p, CostModel::default(), crashes, |rank| body(rank, &order));
        writeln!(out, "[{name} p={p}]").unwrap();
        for line in per_rank.iter().flatten().flatten() {
            writeln!(out, "{line}").unwrap();
        }
    }
    check_row_tables();
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
