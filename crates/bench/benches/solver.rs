//! Solver cost: the sparse worklist engine (hash-consed set pool,
//! dependency-driven firing) on its three fixpoints — source 0CFA, CPS
//! 0CFA, and MFP — on the families ladder at three sizes each.
//!
//! With `--trace <path>` the bench additionally performs one instrumented
//! run per sparse cell and appends its solver counters plus wall time to
//! `<path>` as JSONL trace events (`solver.<bench>.<family>-<size>.*`), so
//! CI smoke runs leave a machine-readable artifact behind.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cfa::{zero_cfa, zero_cfa_cps, zero_cfa_cps_instrumented, zero_cfa_instrumented};
use cpsdfa_core::domain::Flat;
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::trace::{JsonlSink, TraceSink};
use cpsdfa_cps::CpsProgram;
use cpsdfa_workloads::families;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

type Family = (&'static str, fn(usize) -> cpsdfa_syntax::Term);

const LADDER: [Family; 3] = [
    ("cond-chain", families::cond_chain),
    ("dispatch", families::dispatch),
    ("repeated_calls", families::repeated_calls),
];
const SIZES: [usize; 3] = [8, 32, 128];

fn bench_solver(c: &mut Criterion) {
    let trace_path = c.trace_path().map(str::to_owned);

    let mut group = c.benchmark_group("solver");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));

    for (family, build) in LADDER {
        for size in SIZES {
            let prog = AnfProgram::from_term(&build(size));
            let cps = CpsProgram::from_anf(&prog);
            let id = format!("{family}-{size}");
            group.bench_with_input(BenchmarkId::new("0cfa-sparse", &id), &prog, |b, p| {
                b.iter(|| black_box(zero_cfa(p).unwrap().iterations))
            });
            group.bench_with_input(BenchmarkId::new("0cfa-cps-sparse", &id), &cps, |b, p| {
                b.iter(|| black_box(zero_cfa_cps(p).unwrap().iterations))
            });
        }
    }

    // MFP needs the first-order fragment: the diamond chain is the ladder's
    // first-order member.
    for size in SIZES {
        let prog = AnfProgram::from_term(&families::diamond_chain(size));
        let cfg = Cfg::from_first_order(&prog).unwrap();
        let init = cfg.initial_env::<Flat>(&prog);
        let id = format!("diamond-{size}");
        group.bench_with_input(BenchmarkId::new("mfp-sparse", &id), &cfg, |b, g| {
            b.iter(|| black_box(g.solve_mfp::<Flat>(init.clone()).unwrap().vars.len()))
        });
    }
    group.finish();

    if let Some(path) = trace_path {
        write_trace(&path);
        println!("solver: wrote JSONL trace events to {path}");
    }
}

/// One instrumented pass over the same cells the bench timed, appending
/// solver counters and a single-run wall time per sparse cell.
fn write_trace(path: &str) {
    let mut sink = JsonlSink::create(path).expect("create --trace output file");
    for (family, build) in LADDER {
        for size in SIZES {
            let prog = AnfProgram::from_term(&build(size));
            let cps = CpsProgram::from_anf(&prog);
            let id = format!("{family}-{size}");

            let t0 = Instant::now();
            let (_, stats) = zero_cfa_instrumented(&prog).unwrap();
            sink.time_ns(
                &format!("solver.0cfa-sparse.{id}.wall"),
                t0.elapsed().as_nanos() as u64,
            );
            stats.emit_into(&mut sink, &format!("solver.0cfa-sparse.{id}"));

            let t0 = Instant::now();
            let (_, stats) = zero_cfa_cps_instrumented(&cps).unwrap();
            sink.time_ns(
                &format!("solver.0cfa-cps-sparse.{id}.wall"),
                t0.elapsed().as_nanos() as u64,
            );
            stats.emit_into(&mut sink, &format!("solver.0cfa-cps-sparse.{id}"));
        }
    }
    for size in SIZES {
        let prog = AnfProgram::from_term(&families::diamond_chain(size));
        let cfg = Cfg::from_first_order(&prog).unwrap();
        let init = cfg.initial_env::<Flat>(&prog);
        let id = format!("diamond-{size}");
        let t0 = Instant::now();
        let (_, stats) = cfg.solve_mfp_instrumented::<Flat>(init).unwrap();
        sink.time_ns(
            &format!("solver.mfp-sparse.{id}.wall"),
            t0.elapsed().as_nanos() as u64,
        );
        stats.emit_into(&mut sink, &format!("solver.mfp-sparse.{id}"));
    }
    sink.flush().expect("flush --trace output file");
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
