//! The host data path against a charge fixture harvested from the commit
//! before it stopped materialising joined, packed and sieve-chunk buffers.
//!
//! `tests/fixtures/data_path_charges.txt` was written by this very file
//! (`FLEXIO_REGEN_FIXTURE=1`, public API only) run on commit 98c15ec, whose
//! `flexio-pfs`/`-io` performed every modelled copy on the host as well. A
//! charge depends on `(off, len)`, never on a buffer, so moving the bytes
//! run-wise must leave every clock, counter and image byte where it was:
//! the fixture records, for four data-path shapes × both engines, every
//! rank's final clock and a digest of its full
//! [`Stats`], the file system's [`StatsSnapshot`] and a hash of the file
//! image. (98c15ec also had a packed staging path; the fixture's `zc=on`
//! label says these blocks are its run path's, and the packed twins it
//! carried until the path was deleted are tabulated in EXPERIMENTS
//! "Packed staging vs runs".)
//!
//! Two of the sixteen blocks are younger: `[timestep | Flexible …]`, both
//! exchange modes, were harvested on the tree that made the flexible
//! engine lock a persistent realm's chunks *ahead* (DESIGN "Lock requests:
//! ordinary and ahead") — 23/27 grants and 10/12 revocations became 13 and
//! 0, and with them the flushes, refills and clocks; their image hash did
//! not move.
//!
//! Then all sixteen were regenerated once more, on purpose, when the
//! `allgatherv` became Bruck's log-step round (DESIGN "Virtual-time
//! model"): every block's clocks and message counts moved, and in twelve
//! the file system's counters too — arrival order at the OSTs and the lock
//! manager (seeks, ordinary grants and revocations, which request draws a
//! fault). No image hash moved: the round changed when bytes arrive, never
//! which.
//!
//! The four `[… | Flexible zc=on Alltoallw]` blocks were regenerated
//! again when `alltoallw` became MPICH's scattered isend/irecv over the
//! blocks that exist instead of a pairwise round with a message per
//! peer: their clocks, message counts and file-system counters moved.
//! The twelve other blocks — ROMIO, which runs no `alltoallw`, and the
//! non-blocking exchange — and every image hash came out byte-identical.
//!
//! The four `[scan | …]` blocks' `w1` and `w2` lines were regenerated
//! when each world came to start on idle OSTs (DESIGN "Virtual-time
//! model"): the sweep and the re-read no longer queue behind the write
//! world's and the `read_file` probe's OST tails, so every rank's clock
//! fell by 6.1–8.1 ms (the `Stats` digests moved with the phase times).
//! Their message, copy and retry counts, the file system's counters and
//! the image hashes did not move, and neither did the twelve other
//! blocks, which run one world each.
//!
//! Fourteen blocks were regenerated when each OST came to keep a booking
//! calendar instead of a single clock (DESIGN "OST booking calendar"): a
//! request booked after a later arrival now starts in the idle gap before
//! it. Every rank clock that moved fell, the slowest rank's by 2.1–18.2 %.
//! The file system's counters moved in eight of them (seeks are judged
//! against the calendar predecessor; the ROMIO `timestep` blocks' lock
//! traffic reorders: 34 revocations became 33). The two `[timestep |
//! Flexible …]` blocks, which ask for their locks ahead, and every image
//! hash came out byte-identical.
//!
//! All sixteen were regenerated when a collective write's sieve pre-read
//! came to be charged only below the file size its ranks agreed on at
//! the start of the call (DESIGN "A collective write's pre-read stops at
//! the agreed size"). Every block writes a fresh file at least once. The
//! `bulk` and `torn` blocks pre-read nothing now (`bulk`: 2 162 176
//! bytes read → 0, 26 OST requests → 13), and their slowest ranks end
//! 28–52 % earlier. `timestep`'s flexible blocks fall 11.5 %, its ROMIO
//! blocks 2.3 % (their lock traffic reorders: 33 revocations become 36).
//! `scan`'s write world falls 30–42 %; its read worlds move both ways
//! (−11.6 % to +6.3 %), because the fault draws of a stream that books
//! fewer requests land on other requests (faults injected 7–9 → 5). The
//! `bulk` block's check that its pre-read runs became a check that it
//! is clipped to nothing. No image hash moved.
//!
//! The eight `… Alltoallw]` blocks went with the `alltoallw` exchange
//! flavour: the four ROMIO ones were line-for-line copies of their
//! `Nonblocking` twins (ROMIO never ran the flavour), and the four
//! flexible ones ran a path that no longer exists. The eight left, whose
//! labels still name the exchange they ran, passed unregenerated.
//!
//! The four ROMIO blocks were regenerated when ROMIO's offset lists
//! stopped going through the dense `alltoallv`: a count `alltoall` (four
//! Bruck steps at 16 ranks, its two rotations charged as 256 B of
//! copies a call), then a list only to an aggregator the rank has data
//! for. `bulk`'s slowest rank ends 6.7 % earlier (11 487 144 → 10 855 464
//! ns); the others' lock and cache traffic and fault draws reorder
//! (`timestep`: 36 revocations become 35). The four flexible blocks and
//! every image hash came out byte-identical.
//!
//! Regenerate only when a change is *meant* to move virtual time.

use flexio::core::{Engine, Hints, MpiFile};
use flexio::hpio::{HpioSpec, TimeStepSpec, TypeStyle};
use flexio::io::IoMethod;
use flexio::pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel, StatsSnapshot};
use flexio::sim::{run, CostModel, Rank, Stats};
use flexio::types::Datatype;
use flexio::workload::read_file;
use std::fmt::Write as _;
use std::sync::Arc;

const FIXTURE: &str = "tests/fixtures/data_path_charges.txt";
const PATH: &str = "dp";

/// The axis every shape is run under: the engine.
#[derive(Clone, Copy)]
struct Axes {
    engine: Engine,
}

impl Axes {
    fn all() -> [Axes; 2] {
        [Engine::Flexible, Engine::Romio].map(|engine| Axes { engine })
    }

    /// The block's label; `zc=on Nonblocking` names the run path and the
    /// exchange the blocks were harvested under, the only ones left.
    fn label(&self) -> String {
        format!("{:?} zc=on Nonblocking", self.engine)
    }

    fn hints(&self, rest: Hints) -> Hints {
        Hints { engine: self.engine, ..rest }
    }
}

fn fnv(data: &[u8]) -> u64 {
    data.iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One world on the sequential event loop; every rank returns its final
/// clock and counters (after `close`: the close-time flush is part of the
/// cached shapes' contract).
fn world(nprocs: usize, body: impl Fn(&Rank) + Sync) -> Vec<(u64, Stats)> {
    run(nprocs, CostModel::default(), |rank| {
        body(rank);
        (rank.now(), rank.stats())
    })
}

/// One fixture block: the image hash, the file system's counters, then a
/// line per rank and world.
fn block(
    name: &str,
    axes: Axes,
    pfs: &Arc<Pfs>,
    worlds: &[Vec<(u64, Stats)>],
) -> (String, StatsSnapshot) {
    // Snapshot before the image probe, which issues OST requests itself.
    let snap = pfs.stats();
    let mut out = String::new();
    writeln!(out, "[{name} | {}] image {:016x}", axes.label(), fnv(&read_file(pfs, PATH))).unwrap();
    writeln!(out, "{snap:?}").unwrap();
    for (w, per_rank) in worlds.iter().enumerate() {
        for (r, (clock, stats)) in per_rank.iter().enumerate() {
            writeln!(
                out,
                "w{w} r{r} {clock} msgs {} memcpy {} copied {} retries {} {:016x}",
                stats.msgs_sent,
                stats.memcpy_bytes,
                stats.bytes_copied,
                stats.io_retries,
                fnv(format!("{stats:?}").as_bytes())
            )
            .unwrap();
        }
    }
    (out, snap)
}

/// `bulk-64`'s shape at 16 ranks: 4 KiB regions 128 bytes apart, interleaved
/// across ranks, on the default file system (locks, no client cache) — the
/// flexible engine's uncached span-wide sieve, ROMIO's integrated RMW.
fn bulk(axes: Axes) -> String {
    let spec = HpioSpec {
        region_size: 4096,
        region_count: 32,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 16,
    };
    let pfs = Pfs::new(PfsConfig::default());
    let hints =
        axes.hints(Hints { cb_nodes: Some(4), cb_buffer_size: 256 << 10, ..Hints::default() });
    let per_rank = world(spec.nprocs, |rank| {
        let mut f = MpiFile::open(rank, &pfs, PATH, hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let data = spec.make_buffer(rank.rank());
        f.write_all(&data, &spec.mem_type(), spec.mem_count()).unwrap();
        f.close().unwrap();
    });
    let (out, snap) = block("bulk", axes, &pfs, &[per_rank]);
    assert_eq!(spec.verify(&read_file(&pfs, PATH)), Ok(()), "bulk | {}", axes.label());
    // A fresh file: the sieve pre-read below the agreed size is nothing
    // (`tests/agreed_size.rs` counts one that is not).
    assert_eq!(snap.bytes_read, 0, "bulk | {}: the sieve pre-read is clipped", axes.label());
    out
}

/// `timestep-locks-64`'s shape at 16 ranks and 4 steps: locks, lock
/// expansion and a client cache under a sieve buffer smaller than a realm,
/// persistent stripe-aligned realms — the cached chunk commit, with
/// partial-page fills, dirty gap pages and (on the ROMIO side, whose
/// realms move every step) revocation flushes.
fn timestep(axes: Axes) -> String {
    let spec =
        TimeStepSpec { elem_size: 32, elems_per_point: 100, points: 96, steps: 4, nprocs: 16 };
    let stripe = 64 << 10;
    let pfs = Pfs::new(PfsConfig {
        stripe_size: stripe,
        page_size: 4096,
        locking: true,
        lock_expansion: true,
        client_cache: true,
        ..PfsConfig::default()
    });
    let hints = axes.hints(Hints {
        cb_nodes: Some(8),
        cb_buffer_size: 96 << 10,
        persistent_file_realms: true,
        fr_alignment: Some(stripe),
        io_method: IoMethod::DataSieve { buffer: 24 << 10 },
        ..Hints::default()
    });
    let per_rank = world(spec.nprocs, |rank| {
        let mut f = MpiFile::open(rank, &pfs, PATH, hints.clone()).unwrap();
        for step in 0..spec.steps {
            let (disp, ftype) = spec.file_view(rank.rank(), step);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let data = spec.make_buffer(rank.rank(), step);
            f.write_all(&data, &Datatype::bytes(data.len() as u64), 1).unwrap();
        }
        f.close().unwrap();
    });
    let (out, snap) = block("timestep", axes, &pfs, &[per_rank]);
    assert_eq!(spec.verify(&read_file(&pfs, PATH)), Ok(()), "timestep | {}", axes.label());
    assert!(snap.cache_fills > 0 && snap.flush_bytes > 0, "timestep | {}", axes.label());
    match axes.engine {
        Engine::Romio => {
            assert!(snap.lock_revocations > 0, "timestep | {}: no revocation storm", axes.label())
        }
        // Persistent stripe-aligned realms, locked ahead: nobody's grant
        // ever reaches a peer's realm.
        Engine::Flexible => {
            assert_eq!(
                snap.lock_revocations,
                0,
                "timestep | {}: a realm lock was lost",
                axes.label()
            )
        }
    }
    out
}

/// The spec and file system of the two faulted shapes: 1 KiB regions 64
/// bytes apart (sieved at the aggregators), 4 KiB stripes so that a fault
/// plan sees several hundred OST requests.
fn faulted_parts() -> (HpioSpec, PfsConfig) {
    let spec = HpioSpec {
        region_size: 1024,
        region_count: 24,
        region_spacing: 64,
        mem_noncontig: false,
        file_noncontig: true,
        nprocs: 16,
    };
    let cfg = PfsConfig {
        n_osts: 8,
        stripe_size: 4096,
        page_size: 1024,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    (spec, cfg)
}

fn faulted_hints(axes: Axes) -> Hints {
    axes.hints(Hints {
        cb_nodes: Some(4),
        cb_buffer_size: 32 << 10,
        persistent_file_realms: true,
        io_retries: 12,
        retry_backoff_us: 20,
        ..Hints::default()
    })
}

/// The faulted shapes' write world.
fn faulted_write(spec: HpioSpec, pfs: &Arc<Pfs>, hints: &Hints) -> Vec<(u64, Stats)> {
    world(spec.nprocs, |rank| {
        let mut f = MpiFile::open(rank, pfs, PATH, hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let data = spec.make_buffer(rank.rank());
        f.write_all(&data, &spec.mem_type(), spec.mem_count()).unwrap();
        let _ = f.close();
    })
}

/// `scan-read-faulted-64`'s shape: 16 writers, then a world of 12 readers
/// sweeping contiguous partitions (the contiguous read path) and a world
/// of 16 reading back through the writers' views (the sieved read path),
/// all under 1 % transient faults with retries.
fn scan(axes: Axes) -> String {
    let (spec, cfg) = faulted_parts();
    let pfs = Pfs::with_faults(cfg, FaultPlan::transient(3, 0.01));
    let hints = faulted_hints(axes);
    let wrote = faulted_write(spec, &pfs, &hints);
    let image = read_file(&pfs, PATH);
    assert_eq!(spec.verify(&image), Ok(()), "scan | {}", axes.label());

    let readers = 12usize;
    let share = (image.len() as u64).div_ceil(readers as u64);
    let swept = world(readers, |rank| {
        let mut f = MpiFile::open(rank, &pfs, PATH, hints.clone()).unwrap();
        let r = rank.rank() as u64;
        f.set_view(r * share, &Datatype::bytes(1), &Datatype::bytes(share)).unwrap();
        // The tail rank's partition crosses EOF and must see zeros there.
        let mut back = vec![0xAAu8; share as usize];
        f.read_all(&mut back, &Datatype::bytes(share), 1).unwrap();
        let lo = ((r * share) as usize).min(image.len());
        let hi = (((r + 1) * share) as usize).min(image.len());
        assert_eq!(&back[..hi - lo], &image[lo..hi], "rank {r}: partition differs");
        assert!(back[hi - lo..].iter().all(|&b| b == 0), "rank {r}: bytes past EOF");
        let _ = f.close();
    });
    let reread = world(spec.nprocs, |rank| {
        let mut f = MpiFile::open(rank, &pfs, PATH, hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let want = spec.make_buffer(rank.rank());
        let mut back = vec![0u8; want.len()];
        f.read_all(&mut back, &spec.mem_type(), spec.mem_count()).unwrap();
        assert_eq!(back, want, "rank {}: read-back differs", rank.rank());
        let _ = f.close();
    });
    let worlds = [wrote, swept, reread];
    let (out, snap) = block("scan", axes, &pfs, &worlds);
    let retries: u64 = worlds.iter().flatten().map(|(_, s)| s.io_retries).sum();
    assert!(snap.faults_injected > 0 && retries > 0, "scan | {}: no fault drawn", axes.label());
    out
}

/// The scan's write under a torn-write plan: three in ten direct writes
/// persist only a prefix and fail; the retry loop's full rewrite heals them.
fn torn(axes: Axes) -> String {
    let (spec, cfg) = faulted_parts();
    let pfs = Pfs::with_faults(cfg, FaultPlan { seed: 9, torn_rate: 0.3, ..FaultPlan::default() });
    let wrote = faulted_write(spec, &pfs, &faulted_hints(axes));
    let (out, snap) = block("torn", axes, &pfs, &[wrote]);
    assert_eq!(spec.verify(&read_file(&pfs, PATH)), Ok(()), "torn | {}", axes.label());
    assert!(snap.torn_writes > 0, "torn | {}: no write tore", axes.label());
    out
}

#[test]
fn data_path_reproduces_the_parent_commit_fixture() {
    let mut got = String::new();
    for shape in [bulk, timestep, scan, torn] {
        for axes in Axes::all() {
            got.push_str(&shape(axes));
        }
    }
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
        assert_eq!(g, w, "first differing fixture line, in block {header}");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
