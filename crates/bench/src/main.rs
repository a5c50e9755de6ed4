//! `bench <exp> [--paper] [--nprocs N] [--engine romio|flexible|both]` —
//! see [`flexio_bench`].

fn main() -> std::process::ExitCode {
    flexio_bench::run_cli(&std::env::args().skip(1).collect::<Vec<_>>())
}
