//! A scheduled crash-stop is an outcome of the world, not a failure of
//! the program: it must unwind the rank without reaching the panic hook
//! (no `thread … panicked at rank.rs` report per crash), while a real
//! panic in a rank body still does. The hook is process-global, so this
//! is the only test in its binary.

use flexio_sim::{run, run_crashable, CostModel};
use std::panic::{catch_unwind, set_hook, take_hook};
use std::sync::atomic::{AtomicUsize, Ordering};

static REPORTS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn crash_stop_skips_the_panic_hook_and_a_real_panic_does_not() {
    let default_hook = take_hook();
    set_hook(Box::new(|_| {
        REPORTS.fetch_add(1, Ordering::SeqCst);
    }));

    let out = run_crashable(4, CostModel::free(), &[(2, 0)], |r| {
        r.maybe_crash();
        let comm = r.subgroup(&[0, 1, 3]);
        comm.allreduce_sum(r.rank() as u64)
    });
    let crash_reports = REPORTS.load(Ordering::SeqCst);

    let real = catch_unwind(|| {
        run(2, CostModel::free(), |r| assert_ne!(r.rank(), 1, "rank 1 fails for real"))
    });
    let real_reports = REPORTS.load(Ordering::SeqCst) - crash_reports;
    set_hook(default_hook);

    assert_eq!(out, vec![Some(4), Some(4), None, Some(4)]);
    assert_eq!(crash_reports, 0, "a scheduled crash-stop reported itself as a panic");
    assert!(real.is_err(), "a panicking rank must fail the world");
    assert!(real_reports >= 1, "a real panic in a rank body must reach the panic hook");
}
