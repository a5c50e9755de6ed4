//! What the experiments' worlds share: the file systems they run on, and
//! HPIO's world as calls for the one executor
//! ([`FileWorld`](flexio_workload::FileWorld)).

use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_pfs::{Pfs, PfsConfig};
use flexio_workload::{Call, FileWorld, Io, PhaseResult};
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

/// One HPIO collective call per rank in `world`: the view set at open,
/// then one `write_all` of the rank's stamped buffer or, with `read`, one
/// `read_all`, whose bytes are checked against the stamps after the
/// world ends. Every call and close must succeed.
pub(crate) fn hpio(world: FileWorld, spec: HpioSpec, style: TypeStyle, read: bool) -> PhaseResult {
    let s = world.run(
        spec.nprocs,
        1,
        |r| Some(spec.file_view(r, style)),
        |r, _| {
            let len = spec.buffer_span() as usize;
            let io = if read { Io::Read(len) } else { Io::Write(spec.make_buffer(r)) };
            Call::new(io, spec.mem_type(), spec.mem_count())
        },
    );
    assert!(s.err().is_none() && s.close.iter().all(Result::is_ok), "HPIO world failed");
    let stride = if spec.mem_noncontig { spec.unit() } else { spec.region_size };
    for (r, back) in s.read_backs.iter().enumerate().filter(|_| read) {
        let want = spec.make_buffer(r);
        for i in 0..spec.region_count {
            let at = (i * stride) as usize..(i * stride + spec.region_size) as usize;
            assert_eq!(back[at.clone()], want[at], "read verify failed");
        }
    }
    s
}
