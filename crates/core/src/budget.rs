//! Analysis budgets and errors.
//!
//! The terminating analyzers of §4.4 cannot loop on pure Λ programs, but the
//! §6.2 `loop` extension makes the semantic-CPS analysis genuinely
//! non-computable, and the duplication of continuations makes CPS-style
//! analyses exponentially expensive. A goal budget turns both phenomena
//! into an observable, testable [`AnalysisError::BudgetExhausted`] instead
//! of a hang.

use std::error::Error;
use std::fmt;

/// A bound on the number of analysis goals (abstract-interpreter rule
/// instantiations) a run may expand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisBudget {
    max_goals: u64,
}

impl AnalysisBudget {
    /// A budget of `max_goals` goals.
    pub fn new(max_goals: u64) -> Self {
        AnalysisBudget { max_goals }
    }

    /// The maximum number of goals.
    pub fn max_goals(&self) -> u64 {
        self.max_goals
    }

    /// Checks the `goals` counter against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::BudgetExhausted`] once `goals` exceeds the
    /// budget.
    pub fn check(&self, goals: u64) -> Result<(), AnalysisError> {
        if goals > self.max_goals {
            Err(AnalysisError::BudgetExhausted {
                budget: self.max_goals,
            })
        } else {
            Ok(())
        }
    }
}

impl Default for AnalysisBudget {
    /// 10⁷ goals: far beyond any paper example, small enough that the
    /// exponential workloads of §6.2 fail fast.
    fn default() -> Self {
        AnalysisBudget::new(10_000_000)
    }
}

/// Errors produced by the abstract analyzers and the resource-governance
/// layer ([`govern`](crate::govern)).
///
/// Marked `#[non_exhaustive]`: the governed driver grows new failure modes
/// over time (the jump from one variant to five is exactly such a growth),
/// so downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The goal budget ran out — for pure Λ programs this signals an
    /// exponential blow-up; with the `loop` extension it is the expected
    /// outcome of the non-computable semantic-CPS analysis (§6.2).
    BudgetExhausted {
        /// The exhausted budget.
        budget: u64,
    },
    /// The wall-clock [`Deadline`](crate::govern::Deadline) of the
    /// governing [`RunGuard`](crate::govern::RunGuard) passed mid-run.
    DeadlineExceeded,
    /// The arena/set-pool footprint crossed the guard's memory ceiling.
    MemoryExhausted {
        /// The configured ceiling, in bytes.
        limit_bytes: u64,
    },
    /// A [`CancelToken`](crate::govern::CancelToken) was tripped — by
    /// another thread, a supervising driver, or an injected fault.
    Cancelled,
    /// A ladder rung panicked and the panic was isolated
    /// ([`catch_unwind`](std::panic::catch_unwind)) instead of aborting the
    /// whole run.
    WorkerPanicked {
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// A first-order analysis (`mfp.flat`) was asked of a program that
    /// has no first-order control-flow graph.
    NotFirstOrder {
        /// Why the program is out of scope, as
        /// [`CfgError`](crate::mfp::CfgError) renders it.
        detail: String,
    },
}

impl AnalysisError {
    /// `true` for the errors a
    /// [`DegradationLadder`](crate::govern::DegradationLadder) may answer
    /// by retrying at a coarser rung: resource exhaustion and isolated
    /// panics. [`Cancelled`](AnalysisError::Cancelled) is an explicit stop
    /// request and is never retried.
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, AnalysisError::Cancelled)
    }

    /// The short machine-readable name of the resource (or failure) behind
    /// this error, as used in `govern.*` trace events and the
    /// [`DegradationReport`](crate::govern::DegradationReport).
    pub fn resource(&self) -> &'static str {
        match self {
            AnalysisError::BudgetExhausted { .. } => "budget",
            AnalysisError::DeadlineExceeded => "deadline",
            AnalysisError::MemoryExhausted { .. } => "memory",
            AnalysisError::Cancelled => "cancel",
            AnalysisError::WorkerPanicked { .. } => "panic",
            AnalysisError::NotFirstOrder { .. } => "not-first-order",
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::BudgetExhausted { budget } => {
                write!(f, "analysis exceeded its budget of {budget} goals")
            }
            AnalysisError::DeadlineExceeded => {
                write!(f, "analysis exceeded its wall-clock deadline")
            }
            AnalysisError::MemoryExhausted { limit_bytes } => {
                write!(
                    f,
                    "analysis exceeded its memory ceiling of {limit_bytes} bytes"
                )
            }
            AnalysisError::Cancelled => write!(f, "analysis was cancelled"),
            AnalysisError::WorkerPanicked { payload } => {
                write!(f, "analysis worker panicked: {payload}")
            }
            AnalysisError::NotFirstOrder { detail } => f.write_str(detail),
        }
    }
}

impl Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_boundary_is_inclusive() {
        let b = AnalysisBudget::new(10);
        assert!(b.check(10).is_ok());
        assert_eq!(
            b.check(11),
            Err(AnalysisError::BudgetExhausted { budget: 10 })
        );
    }

    #[test]
    fn default_budget_is_large() {
        assert!(AnalysisBudget::default().max_goals() >= 1_000_000);
    }

    #[test]
    fn error_displays() {
        let e = AnalysisError::BudgetExhausted { budget: 7 };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn governance_errors_display() {
        assert!(AnalysisError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        let m = AnalysisError::MemoryExhausted { limit_bytes: 4096 };
        assert!(m.to_string().contains("4096"));
        assert!(AnalysisError::Cancelled.to_string().contains("cancelled"));
        let p = AnalysisError::WorkerPanicked {
            payload: "index out of bounds".to_owned(),
        };
        assert!(p.to_string().contains("index out of bounds"));
    }

    #[test]
    fn errors_implement_error() {
        fn takes_error(_: &dyn Error) {}
        takes_error(&AnalysisError::DeadlineExceeded);
        takes_error(&AnalysisError::Cancelled);
    }

    #[test]
    fn only_cancellation_is_unrecoverable() {
        assert!(AnalysisError::BudgetExhausted { budget: 1 }.is_recoverable());
        assert!(AnalysisError::DeadlineExceeded.is_recoverable());
        assert!(AnalysisError::MemoryExhausted { limit_bytes: 1 }.is_recoverable());
        assert!(AnalysisError::WorkerPanicked {
            payload: String::new()
        }
        .is_recoverable());
        assert!(!AnalysisError::Cancelled.is_recoverable());
    }

    #[test]
    fn resource_names_are_stable() {
        // The names feed `govern.trip.*` trace events; renaming one breaks
        // recorded JSONL artifacts.
        assert_eq!(
            AnalysisError::BudgetExhausted { budget: 1 }.resource(),
            "budget"
        );
        assert_eq!(AnalysisError::DeadlineExceeded.resource(), "deadline");
        assert_eq!(
            AnalysisError::MemoryExhausted { limit_bytes: 1 }.resource(),
            "memory"
        );
        assert_eq!(AnalysisError::Cancelled.resource(), "cancel");
        assert_eq!(
            AnalysisError::WorkerPanicked {
                payload: String::new()
            }
            .resource(),
            "panic"
        );
        assert_eq!(
            AnalysisError::NotFirstOrder {
                detail: String::new()
            }
            .resource(),
            "not-first-order"
        );
    }
}
