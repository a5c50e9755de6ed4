//! MPI_Info-style hint parsing: accepts the ROMIO hint names real
//! applications already set, so configurations can be expressed as
//! `(key, value)` string pairs (e.g. read from a job script).
//!
//! Recognized keys:
//!
//! | key | effect |
//! |---|---|
//! | `cb_nodes` | number of I/O aggregators |
//! | `cb_buffer_size` | collective buffer bytes per cycle |
//! | `ind_wr_buffer_size` / `ind_rd_buffer_size` | data-sieve buffer bytes (one buffer serves both directions) |
//! | `romio_ds_write` / `romio_ds_read` | `enable` = always sieve, `disable` = naive, `automatic` = conditional (one setting serves both directions) |
//! | `ds_extent_threshold` | conditional crossover bytes (flexio extension) |
//! | `striping_unit` | file-realm alignment bytes (the paper's new hint) |
//! | `flexio_pfr` | `enable` persistent file realms (the paper's PFR switch) |
//! | `flexio_engine` | `flexible` or `romio` |
//! | `flexio_exchange` | `nonblocking` or `alltoallw` |
//! | `flexio_pipeline_depth` | `auto` or a positive integer: buffer cycles in flight at once (flexio extension, default auto; `1` = the strictly serial engine, `2` = classic double buffering) |
//! | `flexio_io_retries` | retries per failed file-system request before the collective agrees on an error (flexio extension, default 4, max 32) |
//! | `flexio_retry_backoff_us` | base microseconds of the first retry backoff, doubling per retry, charged in virtual time (flexio extension, default 100) |
//! | `flexio_crash_recovery` | `enable`/`disable` surviving crash-stopped ranks: agree on the dead set, re-elect aggregators over survivors, replay the interrupted call (flexio extension, default disable; disabled, a crash terminates the collective with a collectively agreed error) |
//! | `flexio_watchdog_us` | failure-detection watchdog in virtual microseconds: heartbeat wait at collective boundaries before suspecting a peer dead (flexio extension, default 200000; must exceed per-cycle clock skew) |
//!
//! Accepted and ignored: `romio_cb_write` / `romio_cb_read`. Every
//! `*_all` call runs two-phase collective buffering under the engine
//! `flexio_engine` names; there is no independent-I/O fallback for these
//! keys to select, so any value leaves the hints as they are.
//!
//! Unknown keys are ignored, as MPI requires.

use crate::error::{IoError, Result};
use crate::hints::{Engine, ExchangeMode, Hints, PipelineDepth};
use flexio_io::IoMethod;

/// Apply `(key, value)` info pairs on top of `base` hints.
pub fn hints_from_info(base: Hints, info: &[(&str, &str)]) -> Result<Hints> {
    let mut h = base;
    // Track sieve-buffer/threshold updates so ordering doesn't matter.
    let mut sieve_buffer: Option<usize> = None;
    let mut threshold: Option<u64> = None;
    let mut ds_mode: Option<&str> = None;
    for &(key, value) in info {
        match key {
            "cb_nodes" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| IoError::BadHints("cb_nodes must be an integer"))?;
                h.cb_nodes = Some(n);
            }
            "cb_buffer_size" => {
                h.cb_buffer_size = value
                    .parse()
                    .map_err(|_| IoError::BadHints("cb_buffer_size must be an integer"))?;
            }
            "ind_wr_buffer_size" | "ind_rd_buffer_size" => {
                sieve_buffer = Some(
                    value
                        .parse()
                        .map_err(|_| IoError::BadHints("sieve buffer must be an integer"))?,
                );
            }
            "romio_ds_write" | "romio_ds_read" => {
                ds_mode = Some(match value {
                    "enable" | "disable" | "automatic" => value,
                    _ => return Err(IoError::BadHints("romio_ds_* takes enable/disable/automatic")),
                });
            }
            "ds_extent_threshold" => {
                threshold = Some(
                    value
                        .parse()
                        .map_err(|_| IoError::BadHints("ds_extent_threshold must be an integer"))?,
                );
            }
            "striping_unit" => {
                let a: u64 = value
                    .parse()
                    .map_err(|_| IoError::BadHints("striping_unit must be an integer"))?;
                h.fr_alignment = Some(a);
            }
            "flexio_pfr" => {
                h.persistent_file_realms = match value {
                    "enable" | "true" => true,
                    "disable" | "false" => false,
                    _ => return Err(IoError::BadHints("flexio_pfr takes enable/disable")),
                };
            }
            "flexio_engine" => {
                h.engine = match value {
                    "flexible" | "new" => Engine::Flexible,
                    "romio" | "old" => Engine::Romio,
                    _ => return Err(IoError::BadHints("flexio_engine takes flexible/romio")),
                };
            }
            "flexio_exchange" => {
                h.exchange = match value {
                    "nonblocking" => ExchangeMode::Nonblocking,
                    "alltoallw" => ExchangeMode::Alltoallw,
                    _ => return Err(IoError::BadHints("flexio_exchange takes nonblocking/alltoallw")),
                };
            }
            "flexio_pipeline_depth" => {
                h.pipeline_depth = match value {
                    "auto" => PipelineDepth::Auto,
                    _ => PipelineDepth::Fixed(value.parse().map_err(|_| {
                        IoError::BadHints("flexio_pipeline_depth takes auto or a positive integer")
                    })?),
                };
            }
            "flexio_crash_recovery" => {
                h.crash_recovery = match value {
                    "enable" | "true" => true,
                    "disable" | "false" => false,
                    _ => {
                        return Err(IoError::BadHints("flexio_crash_recovery takes enable/disable"))
                    }
                };
            }
            "flexio_watchdog_us" => {
                h.watchdog_us = value
                    .parse()
                    .map_err(|_| IoError::BadHints("flexio_watchdog_us must be an integer"))?;
            }
            "flexio_io_retries" => {
                h.io_retries = value
                    .parse()
                    .map_err(|_| IoError::BadHints("flexio_io_retries must be an integer"))?;
            }
            "flexio_retry_backoff_us" => {
                h.retry_backoff_us = value.parse().map_err(|_| {
                    IoError::BadHints("flexio_retry_backoff_us must be an integer")
                })?;
            }
            _ => {} // unknown hints are ignored per the MPI standard
        }
    }
    // Resolve the data-sieving method from the pieces collected.
    let cur_buffer = match h.io_method {
        IoMethod::DataSieve { buffer } => buffer,
        IoMethod::Conditional { sieve_buffer, .. } => sieve_buffer,
        IoMethod::Naive => 512 << 10,
    };
    let cur_threshold = match h.io_method {
        IoMethod::Conditional { extent_threshold, .. } => extent_threshold,
        _ => 16 << 10,
    };
    let buffer = sieve_buffer.unwrap_or(cur_buffer);
    let extent_threshold = threshold.unwrap_or(cur_threshold);
    h.io_method = match ds_mode {
        Some("enable") => IoMethod::DataSieve { buffer },
        Some("disable") => IoMethod::Naive,
        Some("automatic") => IoMethod::Conditional { extent_threshold, sieve_buffer: buffer },
        Some(_) => unreachable!(),
        None => match h.io_method {
            IoMethod::DataSieve { .. } => IoMethod::DataSieve { buffer },
            IoMethod::Naive => IoMethod::Naive,
            IoMethod::Conditional { .. } => {
                IoMethod::Conditional { extent_threshold, sieve_buffer: buffer }
            }
        },
    };
    h.validate()?;
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_romio_hints() {
        let h = hints_from_info(
            Hints::default(),
            &[
                ("cb_nodes", "8"),
                ("cb_buffer_size", "1048576"),
                ("striping_unit", "2097152"),
                ("romio_ds_write", "automatic"),
                ("ind_wr_buffer_size", "262144"),
            ],
        )
        .unwrap();
        assert_eq!(h.cb_nodes, Some(8));
        assert_eq!(h.cb_buffer_size, 1 << 20);
        assert_eq!(h.fr_alignment, Some(2 << 20));
        assert_eq!(
            h.io_method,
            IoMethod::Conditional { extent_threshold: 16 << 10, sieve_buffer: 256 << 10 }
        );
    }

    #[test]
    fn pfr_and_engine_switches() {
        let h = hints_from_info(
            Hints::default(),
            &[("flexio_pfr", "enable"), ("flexio_engine", "romio"), ("flexio_exchange", "alltoallw")],
        )
        .unwrap();
        assert!(h.persistent_file_realms);
        assert_eq!(h.engine, Engine::Romio);
        assert_eq!(h.exchange, ExchangeMode::Alltoallw);
    }

    #[test]
    fn pipeline_depth_key() {
        assert_eq!(Hints::default().pipeline_depth, PipelineDepth::Auto);
        let h = hints_from_info(Hints::default(), &[("flexio_pipeline_depth", "4")]).unwrap();
        assert_eq!(h.pipeline_depth, PipelineDepth::Fixed(4));
        let h = hints_from_info(h, &[("flexio_pipeline_depth", "auto")]).unwrap();
        assert_eq!(h.pipeline_depth, PipelineDepth::Auto);
        // Non-numeric values other than "auto" are descriptive errors, and
        // 0 is caught by Hints::validate at the end of parsing.
        assert!(hints_from_info(Hints::default(), &[("flexio_pipeline_depth", "fast")]).is_err());
        assert!(hints_from_info(Hints::default(), &[("flexio_pipeline_depth", "0")]).is_err());
    }

    #[test]
    fn retry_keys() {
        assert_eq!(Hints::default().io_retries, 4);
        assert_eq!(Hints::default().retry_backoff_us, 100);
        let h = hints_from_info(
            Hints::default(),
            &[("flexio_io_retries", "7"), ("flexio_retry_backoff_us", "250")],
        )
        .unwrap();
        assert_eq!(h.io_retries, 7);
        assert_eq!(h.retry_backoff_us, 250);
        let h = hints_from_info(h, &[("flexio_io_retries", "0")]).unwrap();
        assert_eq!(h.io_retries, 0);
        assert!(hints_from_info(Hints::default(), &[("flexio_io_retries", "lots")]).is_err());
        assert!(hints_from_info(Hints::default(), &[("flexio_retry_backoff_us", "-1")]).is_err());
        // Hints::validate bounds the doubling backoff at the end of parsing.
        assert!(hints_from_info(Hints::default(), &[("flexio_io_retries", "33")]).is_err());
    }

    #[test]
    fn crash_recovery_keys() {
        assert!(!Hints::default().crash_recovery);
        let h = hints_from_info(
            Hints::default(),
            &[("flexio_crash_recovery", "enable"), ("flexio_watchdog_us", "5000")],
        )
        .unwrap();
        assert!(h.crash_recovery);
        assert_eq!(h.watchdog_us, 5000);
        let h = hints_from_info(h, &[("flexio_crash_recovery", "disable")]).unwrap();
        assert!(!h.crash_recovery);
        assert!(hints_from_info(Hints::default(), &[("flexio_crash_recovery", "maybe")]).is_err());
        assert!(hints_from_info(Hints::default(), &[("flexio_watchdog_us", "soon")]).is_err());
        // Zero watchdog is caught by Hints::validate at the end of parsing.
        assert!(hints_from_info(Hints::default(), &[("flexio_watchdog_us", "0")]).is_err());
    }

    #[test]
    fn ds_enable_disable() {
        let h = hints_from_info(Hints::default(), &[("romio_ds_write", "enable")]).unwrap();
        assert!(matches!(h.io_method, IoMethod::DataSieve { .. }));
        let h = hints_from_info(Hints::default(), &[("romio_ds_write", "disable")]).unwrap();
        assert_eq!(h.io_method, IoMethod::Naive);
    }

    #[test]
    fn order_independent_sieve_settings() {
        let a = hints_from_info(
            Hints::default(),
            &[("ind_wr_buffer_size", "1024"), ("romio_ds_write", "enable")],
        )
        .unwrap();
        let b = hints_from_info(
            Hints::default(),
            &[("romio_ds_write", "enable"), ("ind_wr_buffer_size", "1024")],
        )
        .unwrap();
        assert_eq!(a.io_method, b.io_method);
        assert_eq!(a.io_method, IoMethod::DataSieve { buffer: 1024 });
    }

    #[test]
    fn unknown_keys_ignored() {
        let h = hints_from_info(Hints::default(), &[("some_vendor_hint", "whatever")]).unwrap();
        assert_eq!(h.cb_buffer_size, Hints::default().cb_buffer_size);
    }

    #[test]
    fn bad_values_rejected() {
        assert!(hints_from_info(Hints::default(), &[("cb_nodes", "many")]).is_err());
        assert!(hints_from_info(Hints::default(), &[("romio_ds_write", "sometimes")]).is_err());
        assert!(hints_from_info(Hints::default(), &[("cb_buffer_size", "0")]).is_err());
        assert!(hints_from_info(Hints::default(), &[("striping_unit", "0")]).is_err());
        // A zero sieve buffer would cut independent I/O into 1-byte
        // read-modify-write chunks; without sieving it is unused.
        for key in ["ind_wr_buffer_size", "ind_rd_buffer_size"] {
            for ds in ["enable", "automatic"] {
                let r = hints_from_info(Hints::default(), &[(key, "0"), ("romio_ds_write", ds)]);
                assert!(matches!(r, Err(IoError::BadHints(m)) if m.contains("sieve buffer")));
            }
            let naive = [(key, "0"), ("romio_ds_write", "disable")];
            assert_eq!(hints_from_info(Hints::default(), &naive).unwrap().io_method, IoMethod::Naive);
        }
        for io_method in [
            IoMethod::DataSieve { buffer: 0 },
            IoMethod::Conditional { extent_threshold: 16 << 10, sieve_buffer: 0 },
        ] {
            assert!(Hints { io_method, ..Hints::default() }.validate().is_err());
        }
    }

    #[test]
    fn malformed_numbers_are_errors_not_panics() {
        // Every numeric key turns a parse failure into a descriptive
        // BadHints error: non-numeric, negative, and unit-suffixed forms.
        for (key, val) in [
            ("cb_buffer_size", "big"),
            ("cb_buffer_size", "-4"),
            ("cb_buffer_size", "64k"),
            ("cb_nodes", "-1"),
            ("cb_nodes", "3.5"),
            ("ind_wr_buffer_size", "1e6"),
            ("ind_rd_buffer_size", ""),
            ("ds_extent_threshold", "16K"),
            ("striping_unit", "2MB"),
            ("flexio_io_retries", "∞"),
            ("flexio_retry_backoff_us", "100us"),
            ("flexio_pipeline_depth", "-2"),
        ] {
            let r = hints_from_info(Hints::default(), &[(key, val)]);
            assert!(
                matches!(r, Err(IoError::BadHints(_))),
                "{key}={val}: expected BadHints, got {r:?}"
            );
        }
        // Bad enum-ish values likewise.
        assert!(hints_from_info(Hints::default(), &[("flexio_engine", "turbo")]).is_err());
        assert!(hints_from_info(Hints::default(), &[("flexio_pfr", "on")]).is_err());
        assert!(hints_from_info(Hints::default(), &[("flexio_exchange", "rdma")]).is_err());
    }

    #[test]
    fn unknown_flexio_prefixed_keys_are_ignored_too() {
        // The ignore-unknown rule is namespace-blind: a newer writer's
        // flexio_* hints must not break an older reader, nor an older
        // writer's retired ones (the packed staging path, the on/off
        // twin of `flexio_pipeline_depth`, the ROMIO sieve prefetch and
        // the schedule-cache switch) a newer reader — whatever their
        // values.
        let h = hints_from_info(
            Hints::default(),
            &[
                ("flexio_future_knob", "whatever"),
                ("flexio_zero_copy", "disable"),
                ("flexio_double_buffer", "maybe"),
                ("flexio_sieve_prefetch", "enable"),
                ("flexio_schedule_cache", "disable"),
                ("cb_nodes", "3"),
            ],
        )
        .unwrap();
        assert_eq!(h.cb_nodes, Some(3));
        assert_eq!(h.cb_buffer_size, Hints::default().cb_buffer_size);
        assert_eq!(h.pipeline_depth, Hints::default().pipeline_depth);
        let h = hints_from_info(Hints::default(), &[("flexio_schedule_cache", "disable")]).unwrap();
        assert_eq!(format!("{h:?}"), format!("{:?}", Hints::default()));
    }

    #[test]
    fn romio_cb_keys_are_accepted_and_ignored() {
        // Every `*_all` call is collective buffered; the keys select
        // nothing, whatever their value.
        for (key, value) in [("romio_cb_write", "disable"), ("romio_cb_read", "enable")] {
            let h = hints_from_info(Hints::default(), &[(key, value)]).unwrap();
            assert_eq!(format!("{h:?}"), format!("{:?}", Hints::default()), "{key}={value}");
        }
    }

    #[test]
    fn rejected_info_applies_nothing() {
        // An error mid-list must not half-apply: callers keep their old
        // hints object, and the returned Result carries no partial state.
        let r = hints_from_info(Hints::default(), &[("cb_nodes", "3"), ("cb_buffer_size", "x")]);
        assert!(r.is_err());
    }
}
