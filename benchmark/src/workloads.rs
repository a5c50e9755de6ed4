//! The four workloads: inputs generated from `--seed`, and their oracles.
//!
//! Every workload is a list of [`Phase`]s (one simulated world each, all
//! sharing one file system), each rank issuing a list of collective
//! [`Call`]s. The library crates receive only these generated specs and
//! buffers, never the seed.
//!
//! `--seed 0` is the canonical configuration. A non-zero seed changes the
//! inputs without changing the amount of work or the order of events:
//!
//! * the two HPIO workloads place their array behind a file header of
//!   `8 * (seed mod 512)` bytes, so realm, stripe and page alignment move
//!   (virtual time moves by under 0.5 %);
//! * the time-step workload ignores the seed. Its virtual time is chaotic
//!   in its geometry: an 8-byte header or one more data point reorders
//!   the lock revocations and moves it by 10 % (298 vs 264 MB/s), and
//!   preallocating the file changes what the sieve reads (219 MB/s);
//! * the scan draws its data from the seed and jitters the retry backoff
//!   (`20 + seed mod 8` us). Its fault plan is fixed: a seeded plan moves
//!   virtual time by 10 % with the number of faults it happens to draw.
//!
//! Geometry that scales the work (region counts, spacing, elements per
//! point) is fixed, because a seed that changed the byte or message count
//! by a few percent would show up as noise in the host-time metrics.

use flexio_core::{ExchangeMode, Hints};
use flexio_hpio::{HpioSpec, TimeStepSpec, TypeStyle};
use flexio_io::IoMethod;
use flexio_pfs::{FaultPlan, PfsConfig, PfsCostModel};
use flexio_types::{Datatype, Dt};
use flexio_workload::{eq_padded, read_scan_spec, Oracle, PhaseOp};
use std::time::Instant;

/// Direction of a phase's collective calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Write,
    Read,
}

/// One collective call of one rank.
pub struct Call {
    /// `Some((disp, filetype))` to `set_view` before the call.
    pub view: Option<(u64, Dt)>,
    pub memtype: Dt,
    pub mem_count: u64,
    pub offset_etypes: u64,
    /// The data to write (empty for reads).
    pub data: Vec<u8>,
    /// Bytes the user buffer spans (the read buffer's length).
    pub buf_len: usize,
}

impl Call {
    pub fn data_len(&self) -> u64 {
        self.memtype.size() * self.mem_count
    }
}

/// One simulated world.
pub struct Phase {
    pub name: &'static str,
    pub op: Op,
    pub nprocs: usize,
    pub aggs: usize,
    /// Whether this phase's virtual time and bytes enter `virtual_mbps`.
    pub counted: bool,
    /// `calls[rank]` = that rank's calls, in order; same length on all ranks.
    pub calls: Vec<Vec<Call>>,
}

impl Phase {
    /// Data bytes all ranks move in this phase.
    pub fn bytes(&self) -> u64 {
        self.calls.iter().flatten().map(Call::data_len).sum()
    }
}

/// What a repetition produced, as far as the oracle needs it.
pub struct Produced<'a> {
    pub image: &'a [u8],
    /// Hash of each phase's read-backs (0 for write phases).
    pub read_hashes: &'a [u64],
}

type Verify = Box<dyn Fn(&Produced<'_>) -> Result<(), String>>;

/// A workload instance for one seed.
pub struct Inputs {
    pub phases: Vec<Phase>,
    pub pfs: PfsConfig,
    pub fault: Option<FaultPlan>,
    /// Hints for the flexible engine; the ROMIO repetition uses the same
    /// hints with `engine` switched (ROMIO ignores the realm hints).
    pub hints: Hints,
    /// Full byte verification against the workload's oracle.
    pub verify: Verify,
    /// Host ms spent generating specs, plans and buffers.
    pub gen_ms: f64,
    /// Host ms spent building the oracle.
    pub oracle_ms: f64,
}

impl Inputs {
    /// Bytes of the phases that count toward `virtual_mbps`.
    pub fn useful_bytes(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.counted)
            .map(Phase::bytes)
            .sum()
    }
}

/// Word-wise multiply-rotate hash: cheap enough to fingerprint a 64 MiB
/// image on every timed repetition.
pub fn hash_bytes(mut h: u64, data: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(K).rotate_left(29);
    }
    (h ^ data.len() as u64).wrapping_mul(K)
}

fn header_bytes(seed: u64) -> u64 {
    8 * (seed % 512)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn after_header(image: &[u8], header: u64) -> Result<&[u8], String> {
    image
        .get(header as usize..)
        .ok_or_else(|| format!("image shorter than its {header}-byte header"))
}

fn hpio(spec: HpioSpec, header: u64, aggs: usize, hints: Hints) -> Inputs {
    let t = Instant::now();
    let calls = (0..spec.nprocs)
        .map(|r| {
            let (disp, ftype) = spec.file_view(r, TypeStyle::Succinct);
            let data = spec.make_buffer(r);
            vec![Call {
                view: Some((header + disp, ftype)),
                memtype: spec.mem_type(),
                mem_count: spec.mem_count(),
                offset_etypes: 0,
                buf_len: data.len(),
                data,
            }]
        })
        .collect();
    let gen_ms = ms_since(t);
    Inputs {
        phases: vec![Phase {
            name: "write",
            op: Op::Write,
            nprocs: spec.nprocs,
            aggs,
            counted: true,
            calls,
        }],
        pfs: PfsConfig::default(),
        fault: None,
        hints,
        verify: Box::new(move |p| {
            spec.verify(after_header(p.image, header)?)
                .map_err(|(rank, idx, want, got)| {
                    format!("rank {rank} byte {idx}: want {want}, got {got}")
                })
        }),
        gen_ms,
        oracle_ms: 0.0,
    }
}

/// `host_scale`'s superlinear case: 64 KiB of data, all cost in `sim`
/// park/wake/mailbox traffic and `core` derive/exchange.
fn fine_512(seed: u64) -> Inputs {
    let spec = HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 512,
    };
    let hints = Hints {
        cb_buffer_size: 512,
        exchange: ExchangeMode::Alltoallw,
        ..Hints::default()
    };
    hpio(spec, header_bytes(seed), 256, hints)
}

/// 64 MiB through the data path: `types` runs/cursor, `io` vectored ops,
/// `pfs` OST service, memcpy; few messages.
fn bulk_64(seed: u64) -> Inputs {
    let spec = HpioSpec {
        region_size: 4096,
        region_count: 256,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 64,
    };
    hpio(spec, header_bytes(seed), 8, Hints::default())
}

/// Fig. 7's best combination (PFRs + stripe-aligned realms) over the
/// Fig. 6 time-step pattern with locks, lock expansion and client cache.
fn timestep_locks_64() -> Inputs {
    let spec = TimeStepSpec {
        elem_size: 32,
        elems_per_point: 100,
        points: 2048,
        steps: 8,
        nprocs: 64,
    };
    let stripe = 2 << 20;
    let t = Instant::now();
    let calls = (0..spec.nprocs)
        .map(|r| {
            (0..spec.steps)
                .map(|step| {
                    let (disp, ftype) = spec.file_view(r, step);
                    let data = spec.make_buffer(r, step);
                    let n = data.len() as u64;
                    Call {
                        view: Some((disp, ftype)),
                        memtype: Datatype::bytes(n.max(1)),
                        mem_count: (n > 0) as u64,
                        offset_etypes: 0,
                        buf_len: data.len(),
                        data,
                    }
                })
                .collect()
        })
        .collect();
    let gen_ms = ms_since(t);
    Inputs {
        phases: vec![Phase {
            name: "timesteps",
            op: Op::Write,
            nprocs: spec.nprocs,
            aggs: 32,
            counted: true,
            calls,
        }],
        pfs: PfsConfig {
            stripe_size: stripe,
            page_size: 4096,
            locking: true,
            lock_expansion: true,
            client_cache: true,
            ..PfsConfig::default()
        },
        fault: None,
        hints: Hints {
            persistent_file_realms: true,
            fr_alignment: Some(stripe),
            io_method: IoMethod::DataSieve { buffer: 512 << 10 },
            ..Hints::default()
        },
        verify: Box::new(move |p| {
            spec.verify(p.image)
                .map_err(|(rank, step, idx, want, got)| {
                    format!("rank {rank} step {step} byte {idx}: want {want}, got {got}")
                })
        }),
        gen_ms,
        oracle_ms: 0.0,
    }
}

/// Reads beside writes, W != R, transient faults and retries: the read
/// direction of `core`/`io`/`pfs`. Mirrors `flexio_workload::run_spec`'s
/// file system and hints for the faulted axis.
fn scan_read_faulted_64(seed: u64) -> Inputs {
    let t = Instant::now();
    let spec = read_scan_spec(0x5CA4 + seed, 64, 48, 256 << 10, 4, 4);
    let phases: Vec<Phase> = spec
        .phases
        .iter()
        .map(|ph| {
            let op = if ph.op == PhaseOp::Write {
                Op::Write
            } else {
                Op::Read
            };
            Phase {
                name: if op == Op::Write { "populate" } else { "scan" },
                op,
                nprocs: ph.nprocs,
                aggs: ph.aggs,
                counted: op == Op::Read,
                calls: ph
                    .plans
                    .iter()
                    .map(|plan| {
                        vec![Call {
                            view: Some((plan.disp, plan.filetype.clone())),
                            memtype: plan.memtype.clone(),
                            mem_count: plan.mem_count,
                            offset_etypes: plan.offset_etypes,
                            data: match op {
                                Op::Write => plan.step_buffer(0),
                                Op::Read => Vec::new(),
                            },
                            buf_len: plan.buf_len(),
                        }]
                    })
                    .collect(),
            }
        })
        .collect();
    let gen_ms = ms_since(t);

    let t = Instant::now();
    let oracle = Oracle::from_spec(&spec);
    let want_reads: Vec<u64> = spec
        .phases
        .iter()
        .map(|ph| match ph.op {
            PhaseOp::Write => 0,
            PhaseOp::Read => ph
                .plans
                .iter()
                .fold(0, |h, plan| hash_bytes(h, &oracle.expected_read(plan))),
        })
        .collect();
    let oracle_ms = ms_since(t);

    Inputs {
        phases,
        pfs: PfsConfig {
            n_osts: 8,
            stripe_size: 1 << 20,
            page_size: 4096,
            locking: false,
            lock_expansion: false,
            client_cache: false,
            cost: PfsCostModel::default(),
        },
        // Plan 3 draws the expected four faults in either engine, and the
        // retries' delay trips the flexible engine's straggler rebalance.
        fault: Some(FaultPlan::transient(3, 0.01)),
        hints: Hints {
            cb_buffer_size: 4 << 20,
            persistent_file_realms: true,
            io_retries: 12,
            retry_backoff_us: 20 + seed % 8,
            ..Hints::default()
        },
        verify: Box::new(move |p| {
            if !eq_padded(p.image, oracle.image()) {
                return Err("file image differs from the oracle image".into());
            }
            match (0..want_reads.len()).find(|&i| p.read_hashes[i] != want_reads[i]) {
                Some(i) => Err(format!("phase {i}: read-backs differ from the oracle's")),
                None => Ok(()),
            }
        }),
        gen_ms,
        oracle_ms,
    }
}

/// Build the named workload's inputs from `seed`.
pub fn build(workload: &str, seed: u64) -> Option<Inputs> {
    Some(match workload {
        "fine-512" => fine_512(seed),
        "bulk-64" => bulk_64(seed),
        "timestep-locks-64" => timestep_locks_64(),
        "scan-read-faulted-64" => scan_read_faulted_64(seed),
        _ => return None,
    })
}
