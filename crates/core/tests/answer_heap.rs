//! Heap bound on committed answers: a cached CFA answer must hold no more
//! than 1.5× the `approx_bytes` the cache's eviction charges for it, so a
//! byte ceiling on charges stays a ceiling (within that factor) on heap.
//!
//! A counting global allocator tracks live heap bytes (requested sizes,
//! not allocator size classes), and an answer's heap is what dropping its
//! `CachedFixpoint` frees. This file holds a single test, so no other test
//! thread allocates while a drop is measured.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{AnalysisKind, CachedFixpoint};
use cpsdfa_core::govern::{governed, GovernPolicy, Lowered};
use cpsdfa_core::trace::NoopSink;
use cpsdfa_workloads::families;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes that dropping `fixpoint` frees.
fn heap_of(fixpoint: CachedFixpoint) -> u64 {
    let before = LIVE.load(Ordering::Relaxed);
    drop(fixpoint);
    (before - LIVE.load(Ordering::Relaxed)) as u64
}

#[test]
fn cached_answers_hold_at_most_one_and_a_half_times_their_charge() {
    const BOUND: f64 = 1.5;
    let kinds = [
        AnalysisKind::CfaSrc,
        AnalysisKind::CfaCps,
        AnalysisKind::CfaPushdown,
    ];
    let mut worst = (0.0f64, String::new());
    println!(
        "{:<22} {:<13} {:>9} {:>9} {:>6}",
        "program", "kind", "heap", "charged", "ratio"
    );
    for n in [16, 104, 192] {
        for (family, term) in [
            ("dispatch", families::dispatch(n)),
            ("polyvariant", families::polyvariant(n)),
            ("repeated_calls", families::repeated_calls(n)),
        ] {
            let lowered = Lowered::new(AnfProgram::from_term(&term));
            for kind in kinds {
                let answer = governed(kind, &lowered, &GovernPolicy::new(), &mut NoopSink)
                    .unwrap_or_else(|e| panic!("{family}({n}) {}: {e}", kind.as_str()));
                assert!(!answer.report.degraded(), "{family}({n}) {}", kind.as_str());
                let fixpoint = CachedFixpoint::new(answer.value, answer.report);
                let charged = fixpoint.approx_bytes;
                let heap = heap_of(fixpoint);
                let ratio = heap as f64 / charged as f64;
                let name = format!("{family}({n})");
                println!(
                    "{name:<22} {:<13} {heap:>9} {charged:>9} {ratio:>6.2}",
                    kind.as_str()
                );
                if ratio > worst.0 {
                    worst = (ratio, format!("{name} {}", kind.as_str()));
                }
            }
        }
    }
    println!("worst: {:.2} ({})", worst.0, worst.1);
    assert!(
        worst.0 <= BOUND,
        "{} holds {:.2}x its approx_bytes charge (bound {BOUND}x)",
        worst.1,
        worst.0
    );
}
