//! A minimal data-parallel map for corpus-scale driving of the analyzers.
//!
//! The experiment harness and benches analyze hundreds of generated
//! programs that are completely independent of each other, so corpus loops
//! are embarrassingly parallel. The build environment has no network access
//! to crates.io, so instead of `rayon` this module provides the primitives
//! the drivers need — an order-preserving [`par_map`] over
//! [`std::thread::scope`] plus its fault-isolated variant
//! [`par_map_isolated`] — behind the same call shape, chunking the input
//! into one contiguous slice per worker.
//!
//! Each worker runs whole analyses and owns all of its mutable state; in
//! particular every sparse 0CFA run builds its own
//! `cpsdfa_core::DeltaNodes` store, so stores stay single-threaded and
//! lock-free by construction: a store is created, filled and dropped
//! inside one run, and only the finished result (whose sets are
//! `Arc`-shared) crosses back to the caller.
//!
//! [`par_map_isolated`] adds per-item panic isolation (`catch_unwind`, so
//! one poisoned program no longer aborts a corpus sweep) and cooperative
//! cancellation via a shared [`AtomicBool`] — the same flag
//! `cpsdfa_core::govern::CancelToken::as_flag` exposes, kept as a plain
//! std type in these signatures so callers can drive a sweep without
//! constructing a token.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// The worker count used by [`par_map`]: the `CPSDFA_WORKERS` environment
/// variable if set to a parseable integer (clamped to at least 1, so `0`
/// means "sequential", not "panic"), otherwise the available hardware
/// parallelism, or 1 if neither can be determined. The experiment harness
/// records this value in its report header and trace output so runs on
/// different machines stay comparable.
///
/// This is a re-export shim over [`cpsdfa_core::worker_count`] — the
/// single parsing point for the knob, shared with the service's worker
/// pool, so the corpus driver and the daemon can never disagree about what
/// the variable means.
pub fn worker_count() -> usize {
    cpsdfa_core::worker_count()
}

/// The fate of one input item under [`par_map_isolated`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParOutcome<R> {
    /// The worker finished the item.
    Done(R),
    /// The worker panicked on this item; the payload (stringified) is kept
    /// and every *other* item is unaffected.
    Panicked(String),
    /// The sweep was cancelled before this item started.
    Skipped,
}

impl<R> ParOutcome<R> {
    /// The result, if the item completed.
    pub fn done(self) -> Option<R> {
        match self {
            ParOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the item completed.
    pub fn is_done(&self) -> bool {
        matches!(self, ParOutcome::Done(_))
    }
}

/// Partial results of a fault-isolated sweep: one [`ParOutcome`] per input
/// item in input order, plus summary counts and the explicit
/// `interrupted` marker callers use to log a `harness.cancelled` counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParReport<R> {
    /// One outcome per input item, input order preserved.
    pub results: Vec<ParOutcome<R>>,
    /// How many items completed.
    pub completed: usize,
    /// How many items panicked.
    pub panicked: usize,
    /// Whether the sweep was cut short by the cancellation flag (some
    /// items are [`ParOutcome::Skipped`]).
    pub interrupted: bool,
}

impl<R> ParReport<R> {
    /// Consumes the report, yielding the completed results in input order
    /// (panicked and skipped items are dropped).
    pub fn into_done(self) -> Vec<R> {
        self.results
            .into_iter()
            .filter_map(ParOutcome::done)
            .collect()
    }
}

/// Renders a caught panic payload (the common `&str` / `String` cases)
/// for [`ParOutcome::Panicked`].
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Applies `f` to every element of `items` across [`worker_count`] scoped
/// threads, preserving input order in the result. Falls back to a plain
/// sequential map for trivially small inputs, so calls are cheap to leave
/// unconditional.
///
/// `f` must be `Sync` (shared by reference across workers) and is handed
/// `&T`; results are returned by value.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let report = par_map_isolated(items, None, f);
    report
        .results
        .into_iter()
        .map(|outcome| match outcome {
            ParOutcome::Done(r) => r,
            ParOutcome::Panicked(msg) => panic!("par_map worker panicked: {msg}"),
            ParOutcome::Skipped => unreachable!("no cancel flag, nothing skipped"),
        })
        .collect()
}

/// The fault-isolated sweep: like [`par_map`] but each item runs under
/// `catch_unwind` (a panic poisons only that item's slot) and workers
/// check `cancel` between items, marking everything not yet started as
/// [`ParOutcome::Skipped`] when it trips. Already-running items finish —
/// cancellation is cooperative, never preemptive — so every `Done` result
/// in the report is a complete, trustworthy answer.
pub fn par_map_isolated<T, R, F>(items: &[T], cancel: Option<&AtomicBool>, f: F) -> ParReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_isolated_in(items, worker_count(), cancel, f)
}

/// [`par_map_isolated`] with an explicit worker count (tests pin it to 1
/// to make cancellation order deterministic).
fn par_map_isolated_in<T, R, F>(
    items: &[T],
    workers: usize,
    cancel: Option<&AtomicBool>,
    f: F,
) -> ParReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    let mut slots: Vec<Option<ParOutcome<R>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let run_one = |item: &T| -> ParOutcome<R> {
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(r) => ParOutcome::Done(r),
            Err(payload) => ParOutcome::Panicked(payload_string(payload.as_ref())),
        }
    };
    let cancelled = |flag: Option<&AtomicBool>| flag.is_some_and(|c| c.load(Ordering::Acquire));
    if workers <= 1 {
        for (slot, item) in slots.iter_mut().zip(items) {
            if cancelled(cancel) {
                break;
            }
            *slot = Some(run_one(item));
        }
    } else {
        let chunk = items.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let run_one = &run_one;
            for (chunk_slots, chunk_items) in slots.chunks_mut(chunk).zip(items.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, item) in chunk_slots.iter_mut().zip(chunk_items) {
                        if cancelled(cancel) {
                            break;
                        }
                        *slot = Some(run_one(item));
                    }
                });
            }
        });
    }
    let results: Vec<ParOutcome<R>> = slots
        .into_iter()
        .map(|s| s.unwrap_or(ParOutcome::Skipped))
        .collect();
    let completed = results.iter().filter(|o| o.is_done()).count();
    let panicked = results
        .iter()
        .filter(|o| matches!(o, ParOutcome::Panicked(_)))
        .count();
    let interrupted = results.iter().any(|o| matches!(o, ParOutcome::Skipped));
    ParReport {
        results,
        completed,
        panicked,
        interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_and_covers_every_item() {
        let items: Vec<u64> = (0..997).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out.len(), items.len());
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(par_map::<u8, u8, _>(&[], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_count_honors_the_env_override() {
        // Set/remove the variable in one test only: the test harness runs
        // tests concurrently, and `worker_count` reads the environment, so
        // sibling tests must not touch CPSDFA_WORKERS.
        std::env::set_var("CPSDFA_WORKERS", "3");
        assert_eq!(worker_count(), 3);
        std::env::set_var("CPSDFA_WORKERS", "0");
        assert_eq!(worker_count(), 1, "zero clamps to sequential");
        std::env::set_var("CPSDFA_WORKERS", "not-a-number");
        let fallback = worker_count();
        assert!(fallback >= 1, "unparseable values fall back");
        std::env::remove_var("CPSDFA_WORKERS");
        assert!(worker_count() >= 1);
    }

    #[test]
    fn runs_real_analyses_per_worker() {
        // Each worker builds its own programs and (inside zero_cfa) its own
        // set pool; results must match the sequential run exactly.
        let sizes: Vec<usize> = (1..=8).collect();
        let par: Vec<usize> = par_map(&sizes, |&n| {
            let p = cpsdfa_anf::AnfProgram::from_term(&crate::families::dispatch(n));
            p.lambda_labels().len()
        });
        assert_eq!(par, sizes);
    }

    #[test]
    fn isolated_sweep_survives_one_poisoned_item() {
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u32> = (0..64).collect();
        let report = par_map_isolated(&items, None, |&x| {
            assert_ne!(x, 7, "poisoned item");
            x * 10
        });
        std::panic::set_hook(quiet);
        assert_eq!(report.completed, 63);
        assert_eq!(report.panicked, 1);
        assert!(!report.interrupted);
        for (i, outcome) in report.results.iter().enumerate() {
            if i == 7 {
                let ParOutcome::Panicked(msg) = outcome else {
                    panic!("item 7 should have panicked, got {outcome:?}");
                };
                assert!(msg.contains("poisoned item"), "payload kept: {msg}");
            } else {
                assert_eq!(*outcome, ParOutcome::Done(i as u32 * 10));
            }
        }
    }

    #[test]
    fn pre_cancelled_sweep_skips_everything() {
        let cancel = AtomicBool::new(true);
        let touched = AtomicUsize::new(0);
        let items: Vec<u32> = (0..32).collect();
        let report = par_map_isolated(&items, Some(&cancel), |&x| {
            touched.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(touched.load(Ordering::Relaxed), 0);
        assert_eq!(report.completed, 0);
        assert!(report.interrupted);
        assert!(report.results.iter().all(|o| *o == ParOutcome::Skipped));
        assert_eq!(report.into_done(), Vec::<u32>::new());
    }

    #[test]
    fn mid_sweep_cancel_returns_partial_results() {
        // One worker makes the order deterministic: cancel fires while the
        // third item runs, the prefix survives, and every later item is
        // skipped with the explicit marker.
        let cancel = AtomicBool::new(false);
        let items: Vec<u32> = (0..16).collect();
        let report = par_map_isolated_in(&items, 1, Some(&cancel), |&x| {
            if x == 2 {
                cancel.store(true, Ordering::Release);
            }
            x + 100
        });
        assert!(report.interrupted, "sweep was cut short");
        assert_eq!(report.completed, 3, "in-flight item 2 finishes");
        assert_eq!(report.results[2], ParOutcome::Done(102));
        assert!(report.results[3..]
            .iter()
            .all(|o| *o == ParOutcome::Skipped));
        assert_eq!(report.into_done(), vec![100, 101, 102]);
    }
}
