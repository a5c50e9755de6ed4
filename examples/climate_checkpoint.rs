//! Climate-style checkpointing: the paper's Fig. 6 pattern. A fixed grid
//! of multi-variable data points is written one time step at a time, with
//! all time slices of a point kept together in the file — the layout a
//! higher-level library such as NetCDF would generate. Persistent file
//! realms plus stripe-aligned realm boundaries keep the Lustre-like lock
//! manager quiet across the whole run (§6.4).
//!
//! Run with: `cargo run --release --example climate_checkpoint`

use flexio::core::{Hints, MpiFile};
use flexio::hpio::TimeStepSpec;
use flexio::io::IoMethod;
use flexio::pfs::{Pfs, PfsConfig};
use flexio::sim::{run, CostModel};
use flexio::types::Datatype;

fn main() {
    let spec = TimeStepSpec {
        elem_size: 32,        // one variable = 32 bytes
        elems_per_point: 100, // 100 variables per grid point
        points: 512,          // grid points
        steps: 16,            // time steps (one collective write each)
        nprocs: 16,
    };
    let stripe = 512 << 10;
    let pfs = Pfs::new(PfsConfig {
        stripe_size: stripe,
        page_size: 4096,
        locking: true,
        lock_expansion: true,
        client_cache: true, // write-back caching: the PFR win
        ..PfsConfig::default()
    });

    let pfs2 = pfs.clone();
    let times = run(spec.nprocs, CostModel::default(), move |rank| {
        let hints = Hints {
            persistent_file_realms: true,
            fr_alignment: Some(stripe),
            cb_nodes: Some(spec.nprocs / 2), // half the clients aggregate
            io_method: IoMethod::DataSieve { buffer: 512 << 10 },
            ..Hints::default()
        };
        let mut f = MpiFile::open(rank, &pfs2, "climate.nc", hints).unwrap();
        let t0 = rank.now();
        for t in 0..spec.steps {
            let (disp, ftype) = spec.file_view(rank.rank(), t);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let buf = spec.make_buffer(rank.rank(), t);
            let n = buf.len() as u64;
            f.write_all(&buf, &Datatype::bytes(n.max(1)), (n > 0) as u64).unwrap();
        }
        let elapsed = rank.now() - t0;
        f.close().unwrap();
        rank.allreduce_max(elapsed)
    });

    // Verify every byte of every time step against the stamps.
    let h = pfs.open("climate.nc", usize::MAX - 1);
    let mut img = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut img).unwrap();
    spec.verify(&img).expect("file verification");

    let total = spec.bytes_per_step() * spec.steps;
    println!(
        "wrote {} time steps x {:.2} MiB in {:.1} ms (virtual)",
        spec.steps,
        spec.bytes_per_step() as f64 / (1 << 20) as f64,
        times[0] as f64 / 1e6
    );
    println!("aggregate bandwidth: {:.2} MB/s", total as f64 / (times[0] as f64 / 1e9) / 1e6);
    let s = pfs.stats();
    println!(
        "lock traffic: {} grants, {} revocations (persistent aligned realms keep this flat)",
        s.lock_grants, s.lock_revocations
    );
    println!("verification: OK ({} bytes)", img.len());
}
