//! Materialize a [`WorkloadSpec`] against a simulated PFS.
//!
//! One simulated world per phase — phases may have *different* rank
//! counts (restart W→R, scans) — all sharing one [`Pfs`] instance, so the
//! file written by phase `k` is exactly what phase `k+1` opens. The
//! engine and fault axis are the run's [`RunConfig`], not the spec's: the
//! differential fuzz suite runs one spec under several configs and
//! compares.

use crate::spec::{PhaseOp, WorkloadSpec};
use crate::tiled::read_file;
use flexio_core::{Engine, Hints, IoError, MpiFile};
use flexio_pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel};
use flexio_sim::{run, CostModel, Stats};
use flexio_types::Datatype;
use std::sync::Arc;

/// The axes a spec is run under (everything the spec itself leaves open).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Collective engine.
    pub engine: Engine,
    /// Inject the spec's transient-fault plan.
    pub faulted: bool,
}

/// Everything one phase produced, rank-indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseResult {
    /// Final virtual clock per rank.
    pub clocks: Vec<u64>,
    /// Per-rank counters.
    pub stats: Vec<Stats>,
    /// Per-rank collective outcomes, one per step.
    pub outcomes: Vec<Vec<Result<(), IoError>>>,
    /// Per-rank read buffers (empty for write phases).
    pub read_backs: Vec<Vec<u8>>,
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
    let mut phases = Vec::with_capacity(spec.phases.len());
    for phase in &spec.phases {
        let hints = Hints {
            engine: cfg.engine,
            cb_nodes: Some(phase.aggs),
            cb_buffer_size: spec.cb,
            exchange: spec.exchange,
            persistent_file_realms: spec.pfr,
            pipeline_depth: spec.depth,
            io_retries: 12,
            retry_backoff_us: 20,
            ..Hints::default()
        };
        let inner = Arc::clone(&pfs);
        let ph = phase.clone();
        let per_rank = run(phase.nprocs, CostModel::default(), move |rank| {
            let plan = &ph.plans[rank.rank()];
            let mut f = MpiFile::open(rank, &inner, "workload", hints.clone())
                .expect("hints validated by construction");
            f.set_view(plan.disp, &Datatype::bytes(1), &plan.filetype)
                .expect("plan filetype must be a valid view");
            let mut outcomes = Vec::new();
            let mut back = Vec::new();
            match ph.op {
                PhaseOp::Write => {
                    for s in 0..ph.steps {
                        let buf = plan.step_buffer(s);
                        outcomes.push(f.write_all_at(
                            plan.offset_etypes,
                            &buf,
                            &plan.memtype,
                            plan.mem_count,
                        ));
                    }
                }
                PhaseOp::Read => {
                    back = vec![0u8; plan.buf_len()];
                    outcomes.push(f.read_all_at(
                        plan.offset_etypes,
                        &mut back,
                        &plan.memtype,
                        plan.mem_count,
                    ));
                }
            }
            let _ = f.close();
            (rank.now(), rank.stats(), outcomes, back)
        });
        let mut res = PhaseResult {
            clocks: Vec::new(),
            stats: Vec::new(),
            outcomes: Vec::new(),
            read_backs: Vec::new(),
        };
        for (now, stats, outcomes, back) in per_rank {
            res.clocks.push(now);
            res.stats.push(stats);
            res.outcomes.push(outcomes);
            res.read_backs.push(back);
        }
        phases.push(res);
    }
    let image = read_file(&pfs, "workload");
    let file_size = pfs.open("workload", usize::MAX - 1).size();
    RunOutcome { image, file_size, phases }
}

/// Assert the uniform run invariants on every rank of every phase:
/// phase-time buckets sum to the rank's clock, the copy ledger never
/// exceeds charged memcpy traffic, and collective outcomes agree across
/// the world step by step.
pub fn check_invariants(out: &RunOutcome, label: &str) {
    for (pi, ph) in out.phases.iter().enumerate() {
        for (r, st) in ph.stats.iter().enumerate() {
            assert_eq!(
                st.phase_ns.iter().sum::<u64>(),
                ph.clocks[r],
                "{label}: phase {pi} rank {r}: phase buckets must sum to the clock"
            );
            assert!(
                st.bytes_copied <= st.memcpy_bytes,
                "{label}: phase {pi} rank {r}: copy ledger {} exceeds charged memcpy {}",
                st.bytes_copied,
                st.memcpy_bytes
            );
        }
        for step in 0..ph.outcomes[0].len() {
            let ok0 = ph.outcomes[0][step].is_ok();
            for (r, o) in ph.outcomes.iter().enumerate() {
                assert_eq!(
                    o[step].is_ok(),
                    ok0,
                    "{label}: phase {pi} step {step}: rank {r} broke collective agreement"
                );
            }
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
        check_invariants(&out, "checkpoint");
        let read = &out.phases[1];
        for (r, plan) in spec.phases[1].plans.iter().enumerate() {
            assert_eq!(read.read_backs[r], o.expected_read(plan), "rank {r} read-back");
        }
    }
}
