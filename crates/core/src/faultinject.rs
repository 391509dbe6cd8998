//! Deterministic, seed-driven fault injection for the governance layer.
//!
//! Every recovery path in [`govern`](crate::govern) — budget trips,
//! deadline expiry, isolated panics, cross-thread cancellation — is dead
//! code until something actually fails, and organic failures are rare and
//! unrepeatable. A [`FaultPlan`] makes them cheap and reproducible: it is
//! wired into [`RunGuard::charge`](crate::govern::RunGuard::charge) (the
//! shim every solver firing and interpreter goal passes through) and fires
//! **exactly once**, at a pre-chosen firing number, with a pre-chosen
//! [`FaultKind`]. Plans are either constructed explicitly or derived from a
//! seed with a splitmix64 step, so a corpus sweep can inject a different
//! but fully reproducible fault into every program.

use crate::budget::AnalysisError;
use crate::govern::CancelToken;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What an armed [`FaultPlan`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Report [`AnalysisError::BudgetExhausted`] as if the goal budget had
    /// just run out.
    TripBudget,
    /// Report [`AnalysisError::DeadlineExceeded`] as if the wall clock had
    /// passed the deadline mid-run.
    ExpireDeadline,
    /// Panic inside the solver step / interpreter goal, exercising the
    /// `catch_unwind` isolation in the ladder.
    Panic,
    /// Trip the guard's [`CancelToken`] (as a cancelling thread would) and
    /// report [`AnalysisError::Cancelled`].
    Cancel,
}

impl FaultKind {
    /// The kinds a [`DegradationLadder`](crate::govern::DegradationLadder)
    /// recovers from by falling to a coarser rung — everything except
    /// [`Cancel`](FaultKind::Cancel), which aborts the whole request.
    pub const RECOVERABLE: [FaultKind; 3] = [
        FaultKind::TripBudget,
        FaultKind::ExpireDeadline,
        FaultKind::Panic,
    ];

    /// All four kinds.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::TripBudget,
        FaultKind::ExpireDeadline,
        FaultKind::Panic,
        FaultKind::Cancel,
    ];
}

/// The panic message used by [`FaultKind::Panic`]; tests and panic hooks
/// match on it to tell injected panics from real ones.
pub const INJECTED_PANIC: &str = "faultinject: injected panic";

/// A one-shot fault scheduled at a specific cumulative firing count.
///
/// The plan is interior-mutable ([`Cell`]) so the guard can poke it through
/// a shared reference on the hot path; it is single-threaded by
/// construction, like the guard's charge counters (cancellation is the one
/// cross-thread channel, and it goes through the atomic [`CancelToken`]).
/// Cloning a plan copies its armed/fired state at that moment, so a
/// [`GovernPolicy`](crate::govern::GovernPolicy) holding an un-fired plan
/// hands every run derived from it a fresh, armed copy.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    kind: FaultKind,
    at_firing: u64,
    fired: Cell<bool>,
}

impl FaultPlan {
    /// A plan that performs `kind` at the `at_firing`-th cumulative charge
    /// (firings are 1-based; `at_firing = 0` fires on the first charge).
    pub fn new(kind: FaultKind, at_firing: u64) -> Self {
        FaultPlan {
            kind,
            at_firing,
            fired: Cell::new(false),
        }
    }

    /// A reproducible plan derived from `seed`: a splitmix64 step picks the
    /// kind from all four and a firing in `1..=max_firing`.
    pub fn from_seed(seed: u64, max_firing: u64) -> Self {
        let r = splitmix64(seed);
        let kind = FaultKind::ALL[(r % 4) as usize];
        FaultPlan::new(kind, 1 + splitmix64(r) % max_firing.max(1))
    }

    /// [`from_seed`](FaultPlan::from_seed) restricted to the
    /// [recoverable](FaultKind::RECOVERABLE) kinds — the differential
    /// property tests use this so the ladder is always expected to answer.
    pub fn from_seed_recoverable(seed: u64, max_firing: u64) -> Self {
        let r = splitmix64(seed);
        let kind = FaultKind::RECOVERABLE[(r % 3) as usize];
        FaultPlan::new(kind, 1 + splitmix64(r) % max_firing.max(1))
    }

    /// The scheduled fault kind.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The cumulative firing count the fault is scheduled at.
    pub fn at_firing(&self) -> u64 {
        self.at_firing
    }

    /// Whether the fault has already fired (plans are one-shot).
    pub fn has_fired(&self) -> bool {
        self.fired.get()
    }

    /// The guard's shim hook: called with the cumulative charge count on
    /// every [`RunGuard::charge`](crate::govern::RunGuard::charge). A plan
    /// that is due and un-fired performs its fault — returning the
    /// corresponding error, panicking, or tripping `cancel` — and disarms
    /// itself, so a ladder's fallback rung re-runs clean.
    ///
    /// # Panics
    ///
    /// [`FaultKind::Panic`] plans panic with [`INJECTED_PANIC`].
    pub fn poke(
        &self,
        firing: u64,
        budget: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<(), AnalysisError> {
        if self.fired.get() || firing < self.at_firing {
            return Ok(());
        }
        self.fired.set(true);
        match self.kind {
            FaultKind::TripBudget => Err(AnalysisError::BudgetExhausted { budget }),
            FaultKind::ExpireDeadline => Err(AnalysisError::DeadlineExceeded),
            FaultKind::Panic => panic!("{INJECTED_PANIC} at firing {firing}"),
            FaultKind::Cancel => {
                if let Some(token) = cancel {
                    token.cancel();
                }
                Err(AnalysisError::Cancelled)
            }
        }
    }
}

/// What a [`PersistFaultPlan`] does to the next scheduled persisted-cache
/// write — the disk-side counterpart of [`FaultKind`], modelling the
/// failure classes a crash-safe store must survive (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistFault {
    /// The process "dies" after writing the temp file but before the
    /// atomic rename: the entry is never committed, only a stray `.tmp`
    /// file remains for recovery to sweep up.
    KillBeforeRename,
    /// The committed file loses its tail (torn write / truncated volume):
    /// the length-prefixed framing no longer covers the payload.
    TruncateTail,
    /// One bit of the committed payload flips (media corruption): the
    /// FNV-128 checksum no longer matches.
    BitFlip,
    /// The entry is committed under a key whose digest does not match its
    /// own source text (a keying bug, or an entry surviving a key
    /// schema change): recovery's re-digest check must drop it as stale.
    StaleKey,
}

impl PersistFault {
    /// All four persistence fault kinds, for exhaustive chaos sweeps.
    pub const ALL: [PersistFault; 4] = [
        PersistFault::KillBeforeRename,
        PersistFault::TruncateTail,
        PersistFault::BitFlip,
        PersistFault::StaleKey,
    ];

    /// The trace / chaos-report name.
    pub fn as_str(self) -> &'static str {
        match self {
            PersistFault::KillBeforeRename => "kill_before_rename",
            PersistFault::TruncateTail => "truncate_tail",
            PersistFault::BitFlip => "bit_flip",
            PersistFault::StaleKey => "stale_key",
        }
    }
}

/// A one-shot persistence fault scheduled at a specific cumulative store
/// count.
///
/// Unlike [`FaultPlan`], which lives on a single solver thread, this plan
/// is shared (behind an `Arc`) by every service worker that spills entries
/// to disk, so its armed/fired state is atomic: exactly one store across
/// all workers takes the fault, no matter how commits interleave.
#[derive(Debug)]
pub struct PersistFaultPlan {
    kind: PersistFault,
    at_store: u64,
    seen: AtomicU64,
    fired: AtomicBool,
}

impl PersistFaultPlan {
    /// A plan that injects `kind` into the `at_store`-th persisted write
    /// (1-based; `at_store = 0` fires on the first write).
    pub fn new(kind: PersistFault, at_store: u64) -> Self {
        PersistFaultPlan {
            kind,
            at_store: at_store.max(1),
            seen: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        }
    }

    /// A reproducible plan derived from `seed`: one splitmix64 step picks
    /// the kind, another the store number in `1..=max_store`.
    pub fn from_seed(seed: u64, max_store: u64) -> Self {
        let r = splitmix64(seed);
        let kind = PersistFault::ALL[(r % 4) as usize];
        PersistFaultPlan::new(kind, 1 + splitmix64(r) % max_store.max(1))
    }

    /// The scheduled fault kind.
    pub fn kind(&self) -> PersistFault {
        self.kind
    }

    /// The cumulative store count the fault is scheduled at.
    pub fn at_store(&self) -> u64 {
        self.at_store
    }

    /// Whether the fault has already been taken (plans are one-shot).
    pub fn has_fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// The store-path hook: counts this write and, when it is the
    /// scheduled one and the plan has not fired yet, returns the fault the
    /// writer must inject. The swap makes the one-shot race-free: exactly
    /// one caller ever sees `Some`.
    pub fn poke(&self) -> Option<PersistFault> {
        let n = self.seen.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= self.at_store && !self.fired.swap(true, Ordering::SeqCst) {
            Some(self.kind)
        } else {
            None
        }
    }
}

/// One splitmix64 step — the standard 64-bit seed scrambler; enough
/// structure-free mixing for fault schedules without pulling in a RNG
/// crate dependency on the library path.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_at_the_scheduled_firing() {
        let plan = FaultPlan::new(FaultKind::TripBudget, 3);
        assert!(plan.poke(1, 10, None).is_ok());
        assert!(plan.poke(2, 10, None).is_ok());
        assert_eq!(
            plan.poke(3, 10, None),
            Err(AnalysisError::BudgetExhausted { budget: 10 })
        );
        assert!(plan.has_fired());
        // One-shot: later firings pass clean, so a fallback rung recovers.
        assert!(plan.poke(4, 10, None).is_ok());
    }

    #[test]
    fn cancel_fault_trips_the_token() {
        let token = CancelToken::new();
        let plan = FaultPlan::new(FaultKind::Cancel, 1);
        assert_eq!(
            plan.poke(1, 10, Some(&token)),
            Err(AnalysisError::Cancelled)
        );
        assert!(token.is_cancelled());
    }

    #[test]
    fn panic_fault_panics_with_the_marker() {
        let plan = FaultPlan::new(FaultKind::Panic, 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.poke(1, 10, None);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains(INJECTED_PANIC));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed, 100);
            let b = FaultPlan::from_seed(seed, 100);
            assert_eq!((a.kind(), a.at_firing()), (b.kind(), b.at_firing()));
            assert!((1..=100).contains(&a.at_firing()));
            kinds.insert(format!("{:?}", a.kind()));
            let r = FaultPlan::from_seed_recoverable(seed, 100);
            assert_ne!(r.kind(), FaultKind::Cancel);
        }
        assert_eq!(kinds.len(), 4, "64 seeds should cover all four kinds");
    }

    #[test]
    fn persist_plan_fires_exactly_once_across_threads() {
        let plan = std::sync::Arc::new(PersistFaultPlan::new(PersistFault::BitFlip, 5));
        let hits: usize = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let plan = std::sync::Arc::clone(&plan);
                    s.spawn(move || (0..10).filter(|_| plan.poke().is_some()).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(hits, 1, "exactly one store takes the fault");
        assert!(plan.has_fired());
    }

    #[test]
    fn seeded_persist_plans_are_deterministic_and_cover_all_kinds() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            let a = PersistFaultPlan::from_seed(seed, 20);
            let b = PersistFaultPlan::from_seed(seed, 20);
            assert_eq!((a.kind(), a.at_store()), (b.kind(), b.at_store()));
            assert!((1..=20).contains(&a.at_store()));
            kinds.insert(a.kind().as_str());
        }
        assert_eq!(kinds.len(), 4, "64 seeds should cover all four kinds");
    }
}
