//! Random scenario generation on the property harness's PRNG.
//!
//! Every draw is `lo + next_u64() % faces`, so the harness's greedy case
//! shrinking — which right-shifts raw draws toward zero — lands every
//! parameter near its floor: fewer ranks, smaller blocks, shorter runs.
//! A shrunk `cc <seed> s<level>` regression line therefore replays a
//! *simpler* member of the same family, not an unrelated case.

use crate::spec::{
    checkpoint_spec, many_task_spec, mixed_subarray_spec, read_scan_spec, restart_spec, PfsShape,
    PhaseOp, PhaseSpec, RankPlan, ScenarioKind, WorkloadSpec,
};
use flexio_core::PipelineDepth;
use flexio_sim::XorShift64Star;
use flexio_types::Datatype;

/// One draw in `[lo, lo + faces)`; shrunk generators land near `lo`.
pub fn range(rng: &mut XorShift64Star, lo: u64, faces: u64) -> u64 {
    lo + rng.next_u64() % faces
}

/// One coin flip (both faces stay reachable at every shrink level).
pub fn coin(rng: &mut XorShift64Star) -> bool {
    rng.next_u64() % 2 == 1
}

/// Mixed irregular views: a byte unit is chopped into small chunks,
/// chunks are dealt randomly across ranks (some ranks may end up empty),
/// and each rank's filetype is the indexed selection of its chunks,
/// resized to the unit so the per-rank tiles interleave without
/// conflicting. Memory is either packed or a single-byte strided type.
pub fn mixed_irregular_spec(rng: &mut XorShift64Star, seed: u64, nprocs: usize) -> WorkloadSpec {
    let nchunks = nprocs + range(rng, 0, 16) as usize;
    let mut assign: Vec<Vec<(i64, u64)>> = vec![Vec::new(); nprocs];
    let mut off = 0u64;
    for _ in 0..nchunks {
        let len = range(rng, 1, 8);
        assign[(rng.next_u64() as usize) % nprocs].push((off as i64, len));
        off += len;
    }
    let unit = off + range(rng, 0, 16);
    let reps = range(rng, 1, 4);
    let strided_mem = coin(rng);
    let pad = range(rng, 2, 3);
    let plans: Vec<RankPlan> = (0..nprocs)
        .map(|r| {
            if assign[r].is_empty() {
                return RankPlan::empty();
            }
            let per_tile: u64 = assign[r].iter().map(|&(_, l)| l).sum();
            let total = per_tile * reps;
            let filetype = Datatype::resized(
                0,
                unit,
                Datatype::indexed(assign[r].clone(), Datatype::bytes(1)),
            );
            let (memtype, mem_count) = if strided_mem {
                (Datatype::resized(0, pad, Datatype::bytes(1)), total)
            } else {
                (Datatype::bytes(total), 1)
            };
            RankPlan {
                disp: 0,
                filetype,
                memtype,
                mem_count,
                offset_etypes: 0,
                data_seed: seed ^ ((r as u64) << 32),
            }
        })
        .collect();
    WorkloadSpec::new(
        ScenarioKind::Mixed,
        vec![
            PhaseSpec::new(PhaseOp::Write, 1, plans.clone()),
            PhaseSpec::new(PhaseOp::Read, 1, plans),
        ],
    )
}

/// Draw one complete [`WorkloadSpec`]: a family, its shape parameters,
/// then the shared knobs (PFS geometry, hints, per-phase aggregator
/// counts, fault plan).
pub fn generate(rng: &mut XorShift64Star) -> WorkloadSpec {
    let kind = ScenarioKind::ALL[(rng.next_u64() % 5) as usize];
    let seed = rng.next_u64();
    let mut spec = match kind {
        ScenarioKind::Checkpoint => {
            let nprocs = range(rng, 2, 6) as usize;
            let block = 8 * range(rng, 1, 8);
            let reps = range(rng, 1, 12);
            let epochs = range(rng, 1, 3);
            checkpoint_spec(seed, nprocs, block, reps, epochs)
        }
        ScenarioKind::Restart => {
            let writers = range(rng, 2, 6) as usize;
            let mut readers = range(rng, 1, 8) as usize;
            if readers == writers {
                readers = if readers > 1 { readers - 1 } else { readers + 1 };
            }
            let es = range(rng, 1, 4);
            let elems = range(rng, 1, 700);
            let extra = if coin(rng) { range(rng, 0, elems + 1) } else { 0 };
            restart_spec(seed, writers, readers, elems, es, extra)
        }
        ScenarioKind::ManyTask => {
            let tasks = range(rng, 2, 7) as usize;
            let region = 4 * range(rng, 1, 32);
            let reps = range(rng, 1, 6);
            let gap = range(rng, 0, 128);
            let epochs = range(rng, 1, 2);
            many_task_spec(seed, tasks, region, reps, gap, epochs)
        }
        ScenarioKind::ReadScan => {
            let writers = range(rng, 2, 6) as usize;
            let readers = range(rng, 1, 8) as usize;
            let block = 8 * range(rng, 1, 8);
            let reps = range(rng, 1, 8);
            let scans = range(rng, 2, 3);
            read_scan_spec(seed, writers, readers, block, reps, scans)
        }
        ScenarioKind::Mixed => {
            if coin(rng) {
                let pr = range(rng, 1, 3) as usize;
                let pc = range(rng, 1, 3) as usize;
                let tr = range(rng, 1, 6);
                let tc = range(rng, 1, 9);
                let readers = range(rng, 1, 8) as usize;
                mixed_subarray_spec(seed, pr, pc, tr, tc, readers)
            } else {
                let nprocs = range(rng, 2, 5) as usize;
                mixed_irregular_spec(rng, seed, nprocs)
            }
        }
    };
    spec.pfs = PfsShape {
        n_osts: range(rng, 1, 4) as usize,
        stripe: [128, 256, 512, 1024][(rng.next_u64() % 4) as usize],
        page: [16, 32, 64][(rng.next_u64() % 3) as usize],
    };
    spec.cb = [128, 256, 512, 1024, 4096][(rng.next_u64() % 5) as usize];
    let _ = coin(rng); // once the exchange flavour's; drawn so a seed keeps its spec
    spec.pfr = coin(rng);
    spec.depth = match rng.next_u64() % 6 {
        0..=3 => PipelineDepth::Fixed(1 + (rng.next_u64() % 5) as u32),
        _ => PipelineDepth::Auto,
    };
    for i in 0..spec.phases.len() {
        let n = spec.phases[i].nprocs;
        spec.phases[i].aggs = 1 + (rng.next_u64() as usize) % n;
    }
    spec.fault_seed = rng.next_u64();
    spec.fault_rate = (rng.next_u64() % 41) as f64 / 1000.0;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&mut XorShift64Star::new(99));
        let b = generate(&mut XorShift64Star::new(99));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn all_families_reachable() {
        let mut rng = XorShift64Star::new(0x00F1_E810);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            seen.insert(generate(&mut rng).kind);
        }
        assert_eq!(seen.len(), ScenarioKind::ALL.len(), "missing families: saw {seen:?}");
    }

    #[test]
    fn shrunk_specs_are_smaller_members_of_the_family() {
        // Individual draws can tie, but in aggregate the fully-shrunk
        // generator must produce far smaller cases than the raw one.
        let (mut full_bytes, mut tiny_bytes) = (0u64, 0u64);
        for seed in 1..40u64 {
            full_bytes += generate(&mut XorShift64Star::new(seed)).bytes_written();
            tiny_bytes +=
                generate(&mut XorShift64Star::with_shrink(seed, flexio_sim::prng::MAX_SHRINK))
                    .bytes_written();
        }
        assert!(
            tiny_bytes * 4 < full_bytes,
            "shrunk specs are not smaller: {tiny_bytes} vs {full_bytes}"
        );
    }

    #[test]
    fn aggs_stay_within_world() {
        let mut rng = XorShift64Star::new(5);
        for _ in 0..40 {
            let s = generate(&mut rng);
            for p in &s.phases {
                assert!(p.aggs >= 1 && p.aggs <= p.nprocs);
                assert_eq!(p.plans.len(), p.nprocs);
            }
        }
    }
}
