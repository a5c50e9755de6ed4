//! Typed workload specifications and the deterministic scenario builders.
//!
//! A [`WorkloadSpec`] is data, not code: phases with per-rank
//! [`RankPlan`]s (displacement, filetype, memtype, count, seed), hint
//! knobs, PFS geometry, and a fault plan. Everything downstream — the
//! [runner](crate::runner), the [oracle](crate::oracle), the bench bin —
//! consumes the same spec, so a scenario is described exactly once.

use flexio_core::{ExchangeMode, PipelineDepth};
use flexio_sim::XorShift64Star;
use flexio_types::{flatten_shared, subarray, Datatype, Dt, MemLayout};

/// The five scenario families (Zhang et al.'s loosely-coupled shapes plus
/// a randomized mixed-view family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScenarioKind {
    /// N-to-1 shared-file checkpoint: every rank owns an interleaved tile
    /// of one file, overwritten each epoch, then read back.
    Checkpoint,
    /// N-to-N restart with shifted rank counts: W ranks write a contiguous
    /// block partition, R ≠ W ranks read it back — possibly past the last
    /// writer's extent.
    Restart,
    /// Many-task independent-region writes: each task owns a disjoint
    /// contiguous region separated by holes.
    ManyTask,
    /// Read-heavy analysis scans: one checkpoint write, then repeated
    /// contiguous partition scans at small shifted offsets.
    ReadScan,
    /// Randomized mixed views: 2D subarray tiles or irregular indexed
    /// chunk assignments, with optionally strided memory types.
    Mixed,
}

impl ScenarioKind {
    /// Every family, in generator draw order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Checkpoint,
        ScenarioKind::Restart,
        ScenarioKind::ManyTask,
        ScenarioKind::ReadScan,
        ScenarioKind::Mixed,
    ];

    /// Stable lower-case name, the `scenario` column of `bench scenario`.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Checkpoint => "checkpoint",
            ScenarioKind::Restart => "restart",
            ScenarioKind::ManyTask => "many-task",
            ScenarioKind::ReadScan => "read-scan",
            ScenarioKind::Mixed => "mixed",
        }
    }
}

/// Direction of one collective phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOp {
    /// `steps` collective writes (each step gets fresh seeded data).
    Write,
    /// One collective read into a zeroed buffer.
    Read,
}

/// Per-rank materialization for one phase: where the rank's view starts,
/// what it looks like, and how the rank's memory is shaped.
#[derive(Debug, Clone)]
pub struct RankPlan {
    /// View displacement in bytes (`MPI_File_set_view` disp).
    pub disp: u64,
    /// Filetype; the etype is always one byte.
    pub filetype: Dt,
    /// Memory datatype of one count.
    pub memtype: Dt,
    /// Memtype instances per collective call (0 = participate empty).
    pub mem_count: u64,
    /// Etype (= byte) offset of the collective call into the view.
    pub offset_etypes: u64,
    /// Seed for this rank's data; combined with the step number so every
    /// write step carries distinct bytes.
    pub data_seed: u64,
}

impl RankPlan {
    /// A rank that participates in the collective but moves no data
    /// (trailing ranks of an uneven partition).
    pub fn empty() -> RankPlan {
        RankPlan {
            disp: 0,
            filetype: Datatype::bytes(1),
            memtype: Datatype::bytes(1),
            mem_count: 0,
            offset_etypes: 0,
            data_seed: 0,
        }
    }

    /// Data bytes this rank moves per collective call.
    pub fn total_bytes(&self) -> u64 {
        self.memtype.size() * self.mem_count
    }

    /// The memory layout of one collective call's buffer.
    pub fn mem_layout(&self) -> MemLayout {
        MemLayout::new(flatten_shared(&self.memtype).0, self.mem_count)
    }

    /// Buffer length in bytes (the memtype span, holes included).
    pub fn buf_len(&self) -> usize {
        self.mem_layout().span() as usize
    }

    /// The seeded buffer this rank writes in `step` (holes are filled
    /// too — only the layout's runs reach the file).
    pub fn step_buffer(&self, step: u64) -> Vec<u8> {
        let mut buf = vec![0u8; self.buf_len()];
        let mut rng =
            XorShift64Star::new(self.data_seed ^ (step + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.fill_bytes(&mut buf);
        buf
    }
}

/// One collective phase: a world of `nprocs` ranks issuing `steps`
/// identical-shape collective calls.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Write or read.
    pub op: PhaseOp,
    /// World size for this phase (phases of one spec may differ — that is
    /// the restart scenario's point).
    pub nprocs: usize,
    /// Collective calls in this phase (reads always use 1).
    pub steps: u64,
    /// `cb_nodes` for this phase (≤ `nprocs`).
    pub aggs: usize,
    /// One plan per rank (`plans.len() == nprocs`).
    pub plans: Vec<RankPlan>,
}

impl PhaseSpec {
    pub(crate) fn new(op: PhaseOp, steps: u64, plans: Vec<RankPlan>) -> PhaseSpec {
        let nprocs = plans.len();
        PhaseSpec { op, nprocs, steps, aggs: nprocs.div_ceil(2), plans }
    }
}

/// PFS geometry for a spec.
#[derive(Debug, Clone, Copy)]
pub struct PfsShape {
    /// Object storage targets.
    pub n_osts: usize,
    /// Stripe size in bytes.
    pub stripe: u64,
    /// Sieve/lock page size in bytes.
    pub page: u64,
}

impl Default for PfsShape {
    fn default() -> Self {
        PfsShape { n_osts: 4, stripe: 512, page: 64 }
    }
}

/// A complete scenario: phases plus every knob needed to run them.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which family this spec belongs to.
    pub kind: ScenarioKind,
    /// PFS geometry.
    pub pfs: PfsShape,
    /// `cb_buffer_size` in bytes.
    pub cb: usize,
    /// Aggregator exchange mode.
    pub exchange: ExchangeMode,
    /// Persistent file realms.
    pub pfr: bool,
    /// Pipeline depth.
    pub depth: PipelineDepth,
    /// Seed for the transient-fault plan (faulted axis only).
    pub fault_seed: u64,
    /// Transient-fault rate in `[0, 1)` (faulted axis only).
    pub fault_rate: f64,
    /// The phases, run in order against one shared PFS.
    pub phases: Vec<PhaseSpec>,
}

impl WorkloadSpec {
    pub(crate) fn new(kind: ScenarioKind, phases: Vec<PhaseSpec>) -> WorkloadSpec {
        WorkloadSpec {
            kind,
            pfs: PfsShape::default(),
            cb: 1024,
            exchange: ExchangeMode::default(),
            pfr: false,
            depth: PipelineDepth::default(),
            fault_seed: 1,
            fault_rate: 0.01,
            phases,
        }
    }

    /// Total data bytes written across all write phases and steps.
    pub fn bytes_written(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.op == PhaseOp::Write)
            .map(|p| p.steps * p.plans.iter().map(RankPlan::total_bytes).sum::<u64>())
            .sum()
    }
}

/// Interleaved-tile plans: rank `r` of `nprocs` owns the `block`-byte tile
/// at `r*block` of every `nprocs*block` stripe, `reps` tiles per call.
pub(crate) fn tile_plans(seed: u64, nprocs: usize, block: u64, reps: u64) -> Vec<RankPlan> {
    (0..nprocs)
        .map(|r| RankPlan {
            disp: r as u64 * block,
            filetype: Datatype::resized(0, nprocs as u64 * block, Datatype::bytes(block)),
            memtype: Datatype::bytes(reps * block),
            mem_count: 1,
            offset_etypes: 0,
            data_seed: seed ^ ((r as u64) << 32),
        })
        .collect()
}

/// Contiguous ceil-partition of `elems` `es`-byte elements over `nprocs`
/// ranks; trailing ranks of an uneven split participate empty.
pub(crate) fn partition_plans(seed: u64, nprocs: usize, elems: u64, es: u64) -> Vec<RankPlan> {
    let per = elems.div_ceil(nprocs as u64).max(1);
    (0..nprocs)
        .map(|r| {
            let start = (r as u64 * per).min(elems);
            let len = per.min(elems - start);
            if len == 0 {
                RankPlan::empty()
            } else {
                RankPlan {
                    disp: start * es,
                    filetype: Datatype::bytes(len * es),
                    memtype: Datatype::bytes(len * es),
                    mem_count: 1,
                    offset_etypes: 0,
                    data_seed: seed ^ ((r as u64) << 32),
                }
            }
        })
        .collect()
}

/// N-to-1 shared-file checkpoint: `nprocs` ranks interleave `block`-byte
/// tiles (`reps` per call), overwrite the file for `epochs` epochs, then
/// collectively read it back.
pub fn checkpoint_spec(
    seed: u64,
    nprocs: usize,
    block: u64,
    reps: u64,
    epochs: u64,
) -> WorkloadSpec {
    let plans = tile_plans(seed, nprocs, block, reps);
    WorkloadSpec::new(
        ScenarioKind::Checkpoint,
        vec![
            PhaseSpec::new(PhaseOp::Write, epochs, plans.clone()),
            PhaseSpec::new(PhaseOp::Read, 1, plans),
        ],
    )
}

/// N-to-N restart with shifted rank counts: `writers` ranks write a
/// contiguous partition of `elems` `es`-byte elements; `readers` ranks
/// (usually ≠ `writers`) read back a partition of `elems + extra`
/// elements — `extra > 0` reads past the last writer's extent and must
/// see zeros.
pub fn restart_spec(
    seed: u64,
    writers: usize,
    readers: usize,
    elems: u64,
    es: u64,
    extra: u64,
) -> WorkloadSpec {
    WorkloadSpec::new(
        ScenarioKind::Restart,
        vec![
            PhaseSpec::new(PhaseOp::Write, 1, partition_plans(seed, writers, elems, es)),
            PhaseSpec::new(PhaseOp::Read, 1, partition_plans(seed, readers, elems + extra, es)),
        ],
    )
}

/// Many-task independent regions: each of `tasks` ranks owns a private
/// contiguous region of `reps * region` bytes, regions separated by
/// `gap`-byte holes, overwritten for `epochs` epochs then read back.
pub fn many_task_spec(
    seed: u64,
    tasks: usize,
    region: u64,
    reps: u64,
    gap: u64,
    epochs: u64,
) -> WorkloadSpec {
    let seg = reps * region + gap;
    let plans: Vec<RankPlan> = (0..tasks)
        .map(|r| RankPlan {
            disp: r as u64 * seg,
            filetype: Datatype::bytes(region),
            memtype: Datatype::bytes(reps * region),
            mem_count: 1,
            offset_etypes: 0,
            data_seed: seed ^ ((r as u64) << 32),
        })
        .collect();
    WorkloadSpec::new(
        ScenarioKind::ManyTask,
        vec![
            PhaseSpec::new(PhaseOp::Write, epochs, plans.clone()),
            PhaseSpec::new(PhaseOp::Read, 1, plans),
        ],
    )
}

/// Read-heavy analysis scans: `writers` ranks checkpoint one tiled image,
/// then `scans` read phases of `readers` ranks each sweep a contiguous
/// partition, scan `s` shifted `s` bytes into the stream (the tail rank's
/// final scan crosses EOF and must see zeros).
pub fn read_scan_spec(
    seed: u64,
    writers: usize,
    readers: usize,
    block: u64,
    reps: u64,
    scans: u64,
) -> WorkloadSpec {
    let mut phases =
        vec![PhaseSpec::new(PhaseOp::Write, 1, tile_plans(seed, writers, block, reps))];
    let total = writers as u64 * block * reps;
    for s in 0..scans {
        let mut plans = partition_plans(0, readers, total, 1);
        for plan in &mut plans {
            if plan.mem_count > 0 {
                plan.offset_etypes = s;
            }
        }
        phases.push(PhaseSpec::new(PhaseOp::Read, 1, plans));
    }
    WorkloadSpec::new(ScenarioKind::ReadScan, phases)
}

/// Mixed 2D-subarray views: a `pr × pc` process grid writes `tr × tc`
/// tiles of a `(pr*tr) × (pc*tc)` byte array; `readers` ranks read back
/// row stripes of the same array.
pub fn mixed_subarray_spec(
    seed: u64,
    pr: usize,
    pc: usize,
    tr: u64,
    tc: u64,
    readers: usize,
) -> WorkloadSpec {
    let rows = pr as u64 * tr;
    let cols = pc as u64 * tc;
    let write_plans: Vec<RankPlan> = (0..pr * pc)
        .map(|k| {
            let i = (k / pc) as u64;
            let j = (k % pc) as u64;
            RankPlan {
                disp: 0,
                filetype: subarray(&[rows, cols], &[tr, tc], &[i * tr, j * tc], 1),
                memtype: Datatype::bytes(tr * tc),
                mem_count: 1,
                offset_etypes: 0,
                data_seed: seed ^ ((k as u64) << 32),
            }
        })
        .collect();
    let h = rows.div_ceil(readers as u64).max(1);
    let read_plans: Vec<RankPlan> = (0..readers)
        .map(|r| {
            let r0 = (r as u64 * h).min(rows);
            let hh = h.min(rows - r0);
            if hh == 0 {
                RankPlan::empty()
            } else {
                RankPlan {
                    disp: 0,
                    filetype: subarray(&[rows, cols], &[hh, cols], &[r0, 0], 1),
                    memtype: Datatype::bytes(hh * cols),
                    mem_count: 1,
                    offset_etypes: 0,
                    data_seed: 0,
                }
            }
        })
        .collect();
    WorkloadSpec::new(
        ScenarioKind::Mixed,
        vec![
            PhaseSpec::new(PhaseOp::Write, 1, write_plans),
            PhaseSpec::new(PhaseOp::Read, 1, read_plans),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_roundtrip() {
        let names: std::collections::BTreeSet<_> = ScenarioKind::ALL.map(ScenarioKind::name).into();
        assert_eq!(names.len(), ScenarioKind::ALL.len(), "family names must be distinct");
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = RankPlan::empty();
        assert_eq!(p.total_bytes(), 0);
        assert_eq!(p.buf_len(), 0);
        assert!(p.step_buffer(0).is_empty());
    }

    #[test]
    fn step_buffers_differ_by_step_and_rank() {
        let s = checkpoint_spec(7, 2, 16, 2, 2);
        let p0 = &s.phases[0].plans[0];
        let p1 = &s.phases[0].plans[1];
        assert_ne!(p0.step_buffer(0), p0.step_buffer(1));
        assert_ne!(p0.step_buffer(0), p1.step_buffer(0));
        assert_eq!(p0.step_buffer(1), p0.step_buffer(1));
    }

    #[test]
    fn restart_partition_covers_elems_without_overlap() {
        let s = restart_spec(1, 3, 5, 10, 4, 7);
        let w = &s.phases[0];
        let total: u64 = w.plans.iter().map(RankPlan::total_bytes).sum();
        assert_eq!(total, 10 * 4);
        let r = &s.phases[1];
        assert_eq!(r.nprocs, 5);
        let rtotal: u64 = r.plans.iter().map(RankPlan::total_bytes).sum();
        assert_eq!(rtotal, 17 * 4);
        // A split with more ranks than elements leaves trailing ranks
        // participating empty.
        let tiny = restart_spec(1, 3, 6, 4, 4, 0);
        assert!(tiny.phases[1].plans.iter().filter(|p| p.mem_count == 0).count() >= 2);
    }

    #[test]
    fn read_scan_shifts_offsets() {
        let s = read_scan_spec(1, 2, 3, 8, 2, 3);
        assert_eq!(s.phases.len(), 4);
        assert_eq!(s.phases[2].plans[0].offset_etypes, 1);
        assert_eq!(s.phases[3].plans[0].offset_etypes, 2);
    }

    #[test]
    fn subarray_tiles_cover_the_array_once() {
        let s = mixed_subarray_spec(1, 2, 2, 3, 4, 3);
        let w = &s.phases[0];
        assert_eq!(w.nprocs, 4);
        let total: u64 = w.plans.iter().map(RankPlan::total_bytes).sum();
        assert_eq!(total, 6 * 8);
    }
}
