//! The one executor of collective file worlds, and the spec runner on it.
//!
//! [`FileWorld::run`] runs a world on one file of a shared [`Pfs`]: every
//! rank opens it, sets an optional view, makes its collective calls one
//! at a time and closes. The bench experiments, [`run_tiled`](crate::run_tiled)
//! and [`run_spec`] only build calls for it, so the timing ([`Timing`])
//! and the run invariants ([`check_invariants`]) are written once.
//!
//! [`run_spec`] runs a [`WorkloadSpec`] as one world per phase — phases
//! may have *different* rank counts (restart W→R, scans) — on one shared
//! [`Pfs`], so phase `k+1` opens exactly what phase `k` wrote. The engine
//! and fault axis are the run's [`RunConfig`], not the spec's.

use crate::spec::{PhaseOp, PhaseSpec, WorkloadSpec};
use crate::tiled::read_file;
use flexio_core::{Engine, Hints, IoError, MpiFile};
use flexio_pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel};
use flexio_sim::{run, CostModel, Stats};
use flexio_types::{Datatype, Dt};
use std::sync::Arc;

/// How [`FileWorld::run`] times its calls. Its barriers and reductions move
/// later requests in the OST queues: a timing is part of a world's charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// No barrier and no reduction: the world sends only its own messages.
    Untimed,
    /// One barrier after the view set at open, then the whole span.
    Whole,
    /// A barrier before each call and an `allreduce_max` of its time after.
    EachCall,
}

/// A file view over byte etypes: displacement and filetype.
pub type View = (u64, Dt);

/// What one call moves.
pub enum Io {
    /// Write these bytes.
    Write(Vec<u8>),
    /// Read into a fresh buffer of this many bytes.
    Read(usize),
}

/// One rank's collective call, and what it sets on the file first.
pub struct Call {
    /// A view to set first: inside a [`Timing::Whole`] span, outside the call's time.
    pub view: Option<View>,
    /// Hints to set first, which drops the cached exchange schedule.
    pub hints: Option<Hints>,
    /// The bytes to write or the length to read.
    pub io: Io,
    /// Memory datatype of one count.
    pub memtype: Dt,
    /// Memtype instances.
    pub count: u64,
    /// Etype offset into the view.
    pub offset: u64,
}

impl Call {
    /// `io` as `count` instances of `memtype`, at the view's origin.
    pub fn new(io: Io, memtype: Dt, count: u64) -> Call {
        Call { view: None, hints: None, io, memtype, count, offset: 0 }
    }

    /// `io` as one contiguous block at the view's origin.
    pub fn contiguous(io: Io) -> Call {
        let n = match &io {
            Io::Write(data) => data.len() as u64,
            Io::Read(len) => *len as u64,
        };
        Call::new(io, Datatype::bytes(n.max(1)), (n > 0) as u64)
    }
}

/// Where and how a world of collective calls runs; what its ranks do is
/// [`FileWorld::run`]'s arguments.
pub struct FileWorld<'a> {
    /// The file system the file lives on.
    pub pfs: &'a Arc<Pfs>,
    /// The file.
    pub path: &'a str,
    /// The hints every rank opens the file with.
    pub hints: &'a Hints,
    /// The world's cost model.
    pub cost: CostModel,
    /// How the calls are timed.
    pub timing: Timing,
}

impl<'a> FileWorld<'a> {
    /// A world on `path` of `pfs` under `hints` and the default cost model.
    pub fn new(pfs: &'a Arc<Pfs>, path: &'a str, hints: &'a Hints, timing: Timing) -> Self {
        FileWorld { pfs, path, hints, cost: CostModel::default(), timing }
    }

    /// Run a world of `nprocs` ranks. Every rank opens the file, sets
    /// `open_view(rank)` if there is one — before any entry barrier and
    /// outside every timed span — makes `call(rank, i)` for each `i` in
    /// `0..calls`, building each call just before it makes it, and closes.
    /// Clocks and counters are taken after the close; the result has
    /// passed [`check_invariants`].
    pub fn run(
        &self,
        nprocs: usize,
        calls: u64,
        open_view: impl Fn(usize) -> Option<View> + Sync,
        call: impl Fn(usize, u64) -> Call + Sync,
    ) -> PhaseResult {
        let ranks = run(nprocs, self.cost, |rank| {
            let set_view = |f: &mut MpiFile<'_>, (disp, ftype): View| {
                f.set_view(disp, &Datatype::bytes(1), &ftype).expect("a valid view");
            };
            let mut f = MpiFile::open(rank, self.pfs, self.path, self.hints.clone())
                .expect("hints valid for the world");
            if let Some(view) = open_view(rank.rank()) {
                set_view(&mut f, view);
            }
            if self.timing == Timing::Whole {
                rank.barrier();
            }
            let start = rank.now();
            let (mut outcomes, mut back, mut timed) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..calls {
                let c = call(rank.rank(), i);
                if let Some(view) = c.view {
                    set_view(&mut f, view);
                }
                if let Some(hints) = c.hints {
                    f.set_hints(hints).expect("hints valid for the world");
                }
                if self.timing == Timing::EachCall {
                    rank.barrier();
                }
                let (p0, t0) = (rank.stats().pairs_processed, rank.now());
                outcomes.push(match c.io {
                    Io::Write(data) => f.write_all_at(c.offset, &data, &c.memtype, c.count),
                    Io::Read(len) => {
                        let mut buf = vec![0u8; len];
                        let res = f.read_all_at(c.offset, &mut buf, &c.memtype, c.count);
                        back.append(&mut buf);
                        res
                    }
                });
                let ns = rank.now() - t0;
                if self.timing == Timing::EachCall {
                    rank.allreduce_max(ns);
                }
                timed.push((ns, rank.stats().pairs_processed - p0));
            }
            let span = rank.now() - start;
            let close = f.close();
            (rank.now(), rank.stats(), outcomes, back, timed, span, close)
        });
        let n = calls as usize;
        let mut res =
            PhaseResult { call_ns: vec![0; n], call_pairs: vec![0; n], ..PhaseResult::default() };
        for (clock, stats, outcomes, back, timed, span, close) in ranks {
            for (i, (ns, pairs)) in timed.into_iter().enumerate() {
                res.call_ns[i] = res.call_ns[i].max(ns);
                res.call_pairs[i] += pairs;
            }
            res.span_ns = res.span_ns.max(span);
            res.clocks.push(clock);
            res.stats.push(stats);
            res.outcomes.push(outcomes);
            res.read_backs.push(back);
            res.close.push(close);
        }
        check_invariants(&res, self.path);
        res
    }
}

/// Everything one world produced, rank-indexed unless said otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseResult {
    /// The slowest rank's virtual ns in each call.
    pub call_ns: Vec<u64>,
    /// Offset/length pairs each call processed, summed over the ranks.
    pub call_pairs: Vec<u64>,
    /// The slowest rank's ns from the view set at open to the end of its last call.
    pub span_ns: u64,
    /// Final virtual clock per rank.
    pub clocks: Vec<u64>,
    /// Per-rank counters.
    pub stats: Vec<Stats>,
    /// Per-rank collective outcomes, one per call.
    pub outcomes: Vec<Vec<Result<(), IoError>>>,
    /// Per-rank bytes read, every read call's buffer in call order.
    pub read_backs: Vec<Vec<u8>>,
    /// Per-rank close outcomes (the flush has no retry loop: ranks may differ).
    pub close: Vec<Result<(), IoError>>,
}

impl PhaseResult {
    /// A counter summed over the ranks.
    pub fn sum(&self, f: impl Fn(&Stats) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }

    /// The first failed call's error (every rank agrees on it), if any.
    pub fn err(&self) -> Option<&IoError> {
        self.outcomes.first()?.iter().find_map(|o| o.as_ref().err())
    }
}

/// The axes a spec is run under (everything the spec itself leaves open).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Collective engine.
    pub engine: Engine,
    /// Inject the spec's transient-fault plan.
    pub faulted: bool,
}

/// A full run: the final file image plus every phase's results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Raw bytes of the shared file after the last phase.
    pub image: Vec<u8>,
    /// Reported file size (may exceed the oracle image only by zeros).
    pub file_size: u64,
    /// Per-phase results, in spec order.
    pub phases: Vec<PhaseResult>,
}

impl WorkloadSpec {
    /// The hints `phase` runs under with `engine`.
    pub fn hints(&self, phase: &PhaseSpec, engine: Engine) -> Hints {
        Hints {
            engine,
            cb_nodes: Some(phase.aggs),
            cb_buffer_size: self.cb,
            exchange: self.exchange,
            persistent_file_realms: self.pfr,
            pipeline_depth: self.depth,
            io_retries: 12,
            retry_backoff_us: 20,
            ..Hints::default()
        }
    }
}

/// Run every phase of `spec` under `cfg` on a fresh PFS.
pub fn run_spec(spec: &WorkloadSpec, cfg: RunConfig) -> RunOutcome {
    let pfs_cfg = PfsConfig {
        n_osts: spec.pfs.n_osts,
        stripe_size: spec.pfs.stripe,
        page_size: spec.pfs.page,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    let pfs = if cfg.faulted {
        Pfs::with_faults(pfs_cfg, FaultPlan::transient(spec.fault_seed, spec.fault_rate))
    } else {
        Pfs::new(pfs_cfg)
    };
    let phases =
        spec.phases.iter().map(|ph| run_phase(&pfs, ph, &spec.hints(ph, cfg.engine))).collect();
    let image = read_file(&pfs, "workload");
    let file_size = pfs.open("workload", usize::MAX - 1).size();
    RunOutcome { image, file_size, phases }
}

/// Run `phase` of a spec on `pfs` under `hints`, untimed, on the file
/// `workload`: each rank's view is set at open, and each write step
/// carries the rank's fresh step buffer.
pub fn run_phase(pfs: &Arc<Pfs>, phase: &PhaseSpec, hints: &Hints) -> PhaseResult {
    let calls = if phase.op == PhaseOp::Write { phase.steps } else { 1 };
    FileWorld::new(pfs, "workload", hints, Timing::Untimed).run(
        phase.nprocs,
        calls,
        |r| Some((phase.plans[r].disp, phase.plans[r].filetype.clone())),
        |r, step| {
            let p = &phase.plans[r];
            let io = match phase.op {
                PhaseOp::Write => Io::Write(p.step_buffer(step)),
                PhaseOp::Read => Io::Read(p.buf_len()),
            };
            Call { offset: p.offset_etypes, ..Call::new(io, p.memtype.clone(), p.mem_count) }
        },
    )
}

/// Assert the uniform run invariants on every rank of one world: phase-
/// time buckets sum to the rank's clock, the copy ledger never exceeds
/// charged memcpy traffic, and collective outcomes agree across the world
/// call by call.
pub fn check_invariants(ph: &PhaseResult, label: &str) {
    for (r, st) in ph.stats.iter().enumerate() {
        let buckets: u64 = st.phase_ns.iter().sum();
        assert_eq!(buckets, ph.clocks[r], "{label}: rank {r}: phase buckets must sum to the clock");
        let (copied, charged) = (st.bytes_copied, st.memcpy_bytes);
        assert!(
            copied <= charged,
            "{label}: rank {r}: copy ledger {copied} exceeds memcpy {charged}"
        );
    }
    for (call, first) in ph.outcomes.first().into_iter().flatten().enumerate() {
        for (r, o) in ph.outcomes.iter().enumerate() {
            let agree = o[call].is_ok() == first.is_ok();
            assert!(agree, "{label}: call {call}: rank {r} broke collective agreement");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{eq_padded, Oracle};
    use crate::spec::checkpoint_spec;

    #[test]
    fn checkpoint_roundtrip_matches_oracle() {
        let spec = checkpoint_spec(11, 3, 8, 2, 2);
        let cfg = RunConfig { engine: Engine::Flexible, faulted: false };
        let out = run_spec(&spec, cfg);
        let o = Oracle::from_spec(&spec);
        assert!(eq_padded(&out.image, o.image()), "image diverged from oracle");
        for ph in &out.phases {
            check_invariants(ph, "checkpoint");
        }
        let read = &out.phases[1];
        for (r, plan) in spec.phases[1].plans.iter().enumerate() {
            assert_eq!(read.read_backs[r], o.expected_read(plan), "rank {r} read-back");
        }
    }
}
