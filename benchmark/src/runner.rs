//! One repetition: every phase of a workload under one engine, on a fresh
//! file system, on the sequential event loop.

use crate::trace::{now_ns, RawSpan, Tracer};
use crate::workloads::{hash_bytes, Inputs, Op, Phase, Produced};
use flexio_core::{Engine, Hints, MpiFile};
use flexio_pfs::{Pfs, StatsSnapshot};
use flexio_sim::{run_on, Backend, CostModel, Rank, Stats};
use flexio_types::Datatype;
use std::sync::Arc;
use std::time::Instant;

/// The file every workload writes.
const PATH: &str = "flexbench";

/// What one phase's world returned.
pub struct PhaseOut {
    /// Final virtual clock per rank (after `close`).
    pub clocks: Vec<u64>,
    pub stats: Vec<Stats>,
    /// Ranks whose phase buckets did not sum to their clock.
    pub unbalanced: Vec<usize>,
    /// Rank x collective-call outcomes.
    pub ops: u64,
    /// `Err` outcomes among them.
    pub failed: u64,
    /// Hash over every rank's read-backs, rank order (0 for writes).
    pub read_hash: u64,
}

/// What one repetition produced.
pub struct RepOut {
    pub phases: Vec<PhaseOut>,
    /// Host ns inside `run_on`, summed over phases: spawn, open,
    /// set_view, collective calls, close, join.
    pub host_wall_ns: u64,
    pub pfs: StatsSnapshot,
    pub image: Vec<u8>,
}

impl RepOut {
    /// Slowest rank's virtual ns, summed over the phases that count.
    pub fn virtual_ns(&self, inputs: &Inputs) -> u64 {
        self.phases
            .iter()
            .zip(&inputs.phases)
            .filter(|(_, p)| p.counted)
            .map(|(o, _)| o.clocks.iter().copied().max().unwrap_or(0))
            .sum()
    }

    pub fn ops(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The oracle's view of this repetition.
    pub fn verify(&self, inputs: &Inputs) -> Result<(), String> {
        let read_hashes: Vec<u64> = self.phases.iter().map(|p| p.read_hash).collect();
        (inputs.verify)(&Produced {
            image: &self.image,
            read_hashes: &read_hashes,
        })
    }

    /// Hash of the image and the read-backs: equal to a verified
    /// repetition's fingerprint means equal bytes.
    pub fn fingerprint(&self) -> u64 {
        // Trailing zeros are not content (page-granular sieve writes may
        // extend the file); strip them so both engines fingerprint alike.
        let end = self
            .image
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        self.phases
            .iter()
            .fold(hash_bytes(0, &self.image[..end]), |h, p| {
                hash_bytes(h, &p.read_hash.to_le_bytes())
            })
    }

    /// `check_invariants`-style checks on every rank of every phase.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (pi, ph) in self.phases.iter().enumerate() {
            if let Some(r) = ph.unbalanced.first() {
                return Err(format!(
                    "phase {pi} rank {r}: phase buckets do not sum to the clock"
                ));
            }
            for (r, st) in ph.stats.iter().enumerate() {
                if st.bytes_copied > st.memcpy_bytes {
                    return Err(format!(
                        "phase {pi} rank {r}: copy ledger exceeds charged memcpy"
                    ));
                }
            }
        }
        Ok(())
    }
}

struct RankOut {
    clock: u64,
    stats: Stats,
    balanced: bool,
    ops: u64,
    failed: u64,
    read_back: Vec<u8>,
    spans: Vec<RawSpan>,
}

/// Time `f` into `spans` when this rank is the traced one.
fn spanned<T>(spans: Option<&mut Vec<RawSpan>>, name: &str, f: impl FnOnce() -> T) -> T {
    let Some(spans) = spans else { return f() };
    let start_ns = now_ns();
    let out = f();
    spans.push(RawSpan {
        name: name.to_string(),
        start_ns,
        end_ns: now_ns(),
    });
    out
}

fn rank_body(rank: &Rank, pfs: &Arc<Pfs>, phase: &Phase, hints: &Hints, traced: bool) -> RankOut {
    let calls = &phase.calls[rank.rank()];
    let mut spans = Vec::new();
    let mut spy = (traced && rank.rank() == 0).then_some(&mut spans);
    let mut f = spanned(spy.as_deref_mut(), "core::MpiFile::open", || {
        MpiFile::open(rank, pfs, PATH, hints.clone()).expect("hints are valid by construction")
    });
    let read_len = if phase.op == Op::Read {
        calls.iter().map(|c| c.buf_len).sum()
    } else {
        0
    };
    let mut read_back = vec![0u8; read_len];
    let mut read_pos = 0;
    let mut failed = 0;
    for call in calls {
        if let Some((disp, ftype)) = &call.view {
            spanned(spy.as_deref_mut(), "core::MpiFile::set_view", || {
                f.set_view(*disp, &Datatype::bytes(1), ftype)
                    .expect("generated views are valid")
            });
        }
        let outcome = match phase.op {
            Op::Write => spanned(spy.as_deref_mut(), "core::MpiFile::write_all_at", || {
                f.write_all_at(
                    call.offset_etypes,
                    &call.data,
                    &call.memtype,
                    call.mem_count,
                )
            }),
            Op::Read => {
                let dst = &mut read_back[read_pos..read_pos + call.buf_len];
                read_pos += call.buf_len;
                spanned(spy.as_deref_mut(), "core::MpiFile::read_all_at", || {
                    f.read_all_at(call.offset_etypes, dst, &call.memtype, call.mem_count)
                })
            }
        };
        failed += outcome.is_err() as u64;
    }
    // Checked before `close`: the flush of a client cache advances the
    // clock without attributing the time to a phase bucket.
    let balanced = rank.stats().phase_ns.iter().sum::<u64>() == rank.now();
    failed += spanned(spy, "core::MpiFile::close", || f.close()).is_err() as u64;
    RankOut {
        clock: rank.now(),
        stats: rank.stats(),
        balanced,
        // `close` is a collective outcome too.
        ops: calls.len() as u64 + 1,
        failed,
        read_back,
        spans,
    }
}

/// Run every phase of `inputs` under `engine`. `tracer` records the
/// spans when it is on.
pub fn run_rep(inputs: &Inputs, engine: Engine, tracer: &mut Tracer) -> RepOut {
    let pfs = match &inputs.fault {
        Some(plan) => Pfs::with_faults(inputs.pfs, plan.clone()),
        None => Pfs::new(inputs.pfs),
    };
    let traced = tracer.is_on();
    let mut host_wall_ns = 0;
    let mut phases = Vec::with_capacity(inputs.phases.len());
    for phase in &inputs.phases {
        let hints = Hints {
            engine,
            cb_nodes: Some(phase.aggs),
            ..inputs.hints.clone()
        };
        let t = Instant::now();
        let per_rank = tracer.span(&format!("sim::run_on[{}]", phase.name), |tr| {
            let mut per_rank = run_on(
                Backend::EventLoop,
                phase.nprocs,
                CostModel::default(),
                |rank| rank_body(rank, &pfs, phase, &hints, traced),
            );
            tr.attach(std::mem::take(&mut per_rank[0].spans));
            per_rank
        });
        host_wall_ns += t.elapsed().as_nanos() as u64;

        let mut out = PhaseOut {
            clocks: Vec::with_capacity(phase.nprocs),
            stats: Vec::with_capacity(phase.nprocs),
            unbalanced: Vec::new(),
            ops: 0,
            failed: 0,
            read_hash: 0,
        };
        for (i, r) in per_rank.into_iter().enumerate() {
            if !r.balanced {
                out.unbalanced.push(i);
            }
            out.clocks.push(r.clock);
            out.stats.push(r.stats);
            out.ops += r.ops;
            out.failed += r.failed;
            if phase.op == Op::Read {
                out.read_hash = hash_bytes(out.read_hash, &r.read_back);
            }
        }
        phases.push(out);
    }
    // Snapshot before the image probe, which issues OST requests itself.
    let stats = pfs.stats();
    let image = flexio_workload::read_file(&pfs, PATH);
    RepOut {
        phases,
        host_wall_ns,
        pfs: stats,
        image,
    }
}
