//! The simulated worlds the experiments share: one HPIO collective call,
//! and a run of collective writes through one open file.

use flexio_core::{Hints, IoError, MpiFile};
use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_pfs::{Pfs, PfsConfig};
use flexio_sim::{run, CostModel, Stats};
use flexio_types::Datatype;
use flexio_workload::step_data;
use std::sync::Arc;

/// Convert (bytes, virtual ns) into MB/s.
pub(crate) fn mbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / (ns as f64 / 1e9) / 1e6
}

/// Fill `path` with `bytes` of existing data, so that unaligned writes
/// pay read-modify-write as on a pre-existing Lustre file.
pub(crate) fn presize(pfs: &Arc<Pfs>, path: &str, bytes: u64) {
    let h = pfs.open(path, usize::MAX - 1);
    let chunk = vec![0xAAu8; 4 << 20];
    let mut off = 0u64;
    while off < bytes {
        let n = chunk.len().min((bytes - off) as usize);
        h.write(0, off, &chunk[..n]).unwrap();
        off += n as u64;
    }
}

/// A PFS with Lustre-style expanding locks and client write-back caches.
pub(crate) fn locking_pfs(stripe: u64) -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        stripe_size: stripe,
        page_size: 4096,
        locking: true,
        lock_expansion: true,
        client_cache: true,
        ..PfsConfig::default()
    })
}

/// How [`hpio_call`] runs its one collective call.
#[derive(Clone, Copy)]
pub(crate) enum How {
    /// A write entered from a barrier, so that [`Sample::ns`] is the call
    /// alone.
    TimedWrite,
    /// The same for a read, every byte read checked against the
    /// pattern's stamps.
    TimedRead,
    /// A write with no barrier, on the given cost model: for worlds whose
    /// own message and scheduler counts are the measurement, and for
    /// populating a file.
    UntimedWrite(CostModel),
}

/// What one world measured.
pub(crate) struct Sample {
    /// The slowest rank's virtual ns inside the collective call
    /// (open, view and close excluded).
    pub ns: u64,
    /// Every rank's counters after its close, in rank order.
    pub stats: Vec<Stats>,
}

impl Sample {
    /// A counter summed over the ranks.
    pub fn sum(&self, f: impl Fn(&Stats) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }
}

/// One HPIO collective call on a fresh world: open, set the view, one
/// `write_all`/`read_all`, close.
pub(crate) fn hpio_call(
    pfs: &Arc<Pfs>,
    path: &str,
    spec: HpioSpec,
    style: TypeStyle,
    hints: &Hints,
    how: How,
) -> Sample {
    let cost = if let How::UntimedWrite(cost) = how { cost } else { CostModel::default() };
    let out = run(spec.nprocs, cost, |rank| {
        let mut f = MpiFile::open(rank, pfs, path, hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), style);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let want = spec.make_buffer(rank.rank());
        if !matches!(how, How::UntimedWrite(_)) {
            rank.barrier();
        }
        let t0 = rank.now();
        let elapsed = if let How::TimedRead = how {
            let mut buf = vec![0u8; spec.buffer_span() as usize];
            f.read_all(&mut buf, &spec.mem_type(), spec.mem_count()).unwrap();
            let elapsed = rank.now() - t0;
            let stride = if spec.mem_noncontig { spec.unit() } else { spec.region_size };
            for i in 0..spec.region_count {
                let at = (i * stride) as usize..(i * stride + spec.region_size) as usize;
                assert_eq!(buf[at.clone()], want[at], "read verify failed");
            }
            elapsed
        } else {
            f.write_all(&want, &spec.mem_type(), spec.mem_count()).unwrap();
            rank.now() - t0
        };
        f.close().unwrap();
        (elapsed, rank.stats())
    });
    Sample {
        ns: out.iter().map(|(ns, _)| *ns).max().unwrap_or(0),
        stats: out.into_iter().map(|(_, s)| s).collect(),
    }
}

/// A run of collective writes through one open file (the Fig. 6
/// time-step pattern and the checkpoint-overwrite ablations).
pub(crate) struct StepRun<'a> {
    pub pfs: &'a Arc<Pfs>,
    pub path: &'a str,
    pub nprocs: usize,
    pub steps: u64,
    pub hints: &'a Hints,
    /// Time every step on its own — a barrier before it and a
    /// slowest-rank reduction after it — instead of the whole run.
    pub time_each_step: bool,
    /// `(file, rank, step)`: what the rank does to its open file before
    /// that step's write — set a view, or drop the cached schedule.
    pub before_step: &'a (dyn Fn(&mut MpiFile<'_>, usize, u64) + Sync),
    /// `(rank, step)` → the bytes that step writes.
    pub data: &'a (dyn Fn(usize, u64) -> Vec<u8> + Sync),
}

/// What a [`StepRun`] measured.
pub(crate) struct StepSample {
    /// The slowest rank's virtual ns per step, or one entry for the whole
    /// run without `time_each_step`.
    pub ns: Vec<u64>,
    /// Offset/length pairs processed per step, summed over ranks.
    pub pairs: Vec<u64>,
    /// The first collective error (the same on every rank), if any.
    pub err: Option<IoError>,
    /// Every rank's counters after its close, in rank order.
    pub stats: Vec<Stats>,
}

impl StepSample {
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// A counter summed over the ranks.
    pub fn sum(&self, f: impl Fn(&Stats) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }
}

/// `steps` timed collective writes of the tiled interleave: rank `r` owns
/// the `block`-byte tile at `r * block` of every `nprocs * block` stripe
/// (one fixed view, the restart-file pattern) and overwrites `reps` tiles
/// with fresh [`step_data`] each step. `each_step` runs on the open file
/// before every step's write, after the view is set.
pub(crate) fn tiled_steps(
    pfs: &Arc<Pfs>,
    path: &str,
    (nprocs, block, reps, steps): (usize, u64, u64, u64),
    hints: &Hints,
    each_step: &(dyn Fn(&mut MpiFile<'_>) + Sync),
) -> StepSample {
    let stripe = nprocs as u64 * block;
    StepRun {
        pfs,
        path,
        nprocs,
        steps,
        hints,
        time_each_step: true,
        before_step: &|f, rank, step| {
            if step == 0 {
                let tile = Datatype::resized(0, stripe, Datatype::bytes(block));
                f.set_view(rank as u64 * block, &Datatype::bytes(1), &tile).unwrap();
            }
            each_step(f);
        },
        data: &|rank, step| step_data(rank, step, (reps * block) as usize),
    }
    .run()
}

impl StepRun<'_> {
    pub fn run(&self) -> StepSample {
        let out = run(self.nprocs, CostModel::default(), |rank| {
            let mut f = MpiFile::open(rank, self.pfs, self.path, self.hints.clone()).unwrap();
            let (mut ns, mut pairs, mut err) = (Vec::new(), Vec::new(), None);
            if !self.time_each_step {
                rank.barrier();
            }
            let start = rank.now();
            for step in 0..self.steps {
                (self.before_step)(&mut f, rank.rank(), step);
                let data = (self.data)(rank.rank(), step);
                let n = data.len() as u64;
                if self.time_each_step {
                    rank.barrier();
                }
                let (p0, t0) = (rank.stats().pairs_processed, rank.now());
                let res = f.write_all(&data, &Datatype::bytes(n.max(1)), (n > 0) as u64);
                if self.time_each_step {
                    ns.push(rank.allreduce_max(rank.now() - t0));
                }
                pairs.push(rank.stats().pairs_processed - p0);
                err = err.or(res.err());
            }
            let whole = rank.now() - start;
            if let Err(e) = f.close() {
                assert!(err.is_some(), "close failed after clean writes: {e}");
            }
            if !self.time_each_step {
                ns.push(rank.allreduce_max(whole));
            }
            (ns, pairs, err, rank.stats())
        });
        let steps = self.steps as usize;
        StepSample {
            ns: out[0].0.clone(),
            pairs: (0..steps).map(|s| out.iter().map(|o| o.1[s]).sum()).collect(),
            err: out[0].2.clone(),
            stats: out.into_iter().map(|o| o.3).collect(),
        }
    }
}
