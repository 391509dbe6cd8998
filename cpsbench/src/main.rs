//! `cpsbench` — drives the real `cpsdfad` over its pipes and reports
//! end-to-end metrics, or (with `--trace 1`) replays the same stream in
//! process and reports per-layer metrics. See `README.md`.
//!
//! ```text
//! cpsbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs N]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.

mod check;
mod client;
mod replay;
mod run;
mod stats;
mod stream;
mod trace;

use run::{Env, Outcome};
use std::process::ExitCode;
use stream::Workload;

/// One reported metric: its unit and (end-to-end only) the share of the
/// parent's median by which it may worsen before a change counts as a
/// regression. `BENCHMARK.json` records the same units and bounds.
struct Spec {
    name: &'static str,
    unit: &'static str,
    bound: Option<f64>,
}

const fn spec(name: &'static str, unit: &'static str, bound: Option<f64>) -> Spec {
    Spec { name, unit, bound }
}

const END_TO_END: [Spec; 6] = [
    spec("rps", "req/s", Some(0.25)),
    spec("lat_p50_us", "us", Some(0.25)),
    spec("lat_p90_us", "us", Some(0.25)),
    spec("setup_s", "s", Some(0.25)),
    spec("peak_rss_mb", "MiB", Some(0.10)),
    spec("cpu_us_per_req", "us", Some(0.25)),
];

const PER_LAYER: [Spec; 35] = [
    spec("proto.decode_us", "us/req", None),
    spec("proto.encode_us", "us/req", None),
    spec("arena.parse_us", "us/req", None),
    spec("cache.digest_us", "us/req", None),
    spec("cache.lookup_us", "us/req", None),
    spec("cache.answer_digest_us", "us/req", None),
    spec("cache.insert_us", "us/req", None),
    spec("lower.to_term_us", "us/req", None),
    spec("lower.anf_us", "us/req", None),
    spec("lower.cps_us", "us/req", None),
    spec("solve.us", "us/req", None),
    spec("warm.us", "us/req", None),
    spec("certify.us", "us/req", None),
    spec("persist.store_us", "us/req", None),
    spec("service.wait_us_p50", "us", None),
    spec("service.wait_us_p99", "us", None),
    spec("service.latency_us_p50", "us", None),
    spec("arena.nodes_added_per_req", "count", None),
    spec("cache.hit_ratio", "ratio", None),
    spec("cache.evictions", "count", None),
    spec("cache.bytes", "bytes", None),
    spec("lower.labels_per_req", "count", None),
    spec("solve.charged_per_req", "count", None),
    spec("solve.ns_per_charge", "ns", None),
    spec("solve.degraded_ratio", "ratio", None),
    spec("warm.fired_per_req", "count", None),
    spec("warm.answer_ratio", "ratio", None),
    spec("warm.cold_ratio", "ratio", None),
    spec("certify.ok", "count", None),
    spec("certify.fail", "count", None),
    spec("persist.bytes_per_store", "bytes", None),
    spec("persist.recover_ms", "ms/start", None),
    spec("persist.recovered", "count", None),
    spec("replay.unattributed_frac", "ratio", None),
    spec("trace.span_ns", "ns/span", None),
];

const USAGE: &str = "usage: cpsbench [--workload cold-miss|hot-hit|watch-edits|persist-restart] \
                     [--seed N] [--seconds S] [--trace 0|1] [--runs N]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        runs: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads =
                    vec![Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?];
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".to_owned());
                }
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// The daemon sits next to this executable; runs write below the build
/// directory that holds both.
fn env() -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate cpsbench: {e}"))?;
    let dir = exe.parent().ok_or("cpsbench has no parent directory")?;
    let daemon = dir.join("cpsdfad");
    if !daemon.is_file() {
        return Err(format!(
            "{} not found; build it with `cargo build --release -p cpsdfa-service --bin cpsdfad`",
            daemon.display()
        ));
    }
    let work = dir.join("cpsbench-work");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    Ok(Env { daemon, work })
}

fn spec_of(name: &str) -> &'static Spec {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric {name} has no spec"))
}

/// Each run's value of metric `name`.
fn values(outcomes: &[Outcome], name: &str) -> Vec<f64> {
    outcomes
        .iter()
        .filter_map(|o| o.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = match env() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cpsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "cpsbench: seed {}, {} s per run, {} run(s), trace {}, hw_threads {hw_threads}",
        args.seed,
        args.seconds,
        args.runs,
        u8::from(args.trace)
    );

    // (workload, per-run outcomes)
    let mut results: Vec<(Workload, Vec<Outcome>)> = Vec::new();
    for &w in &args.workloads {
        let mut outcomes = Vec::new();
        for i in 0..args.runs {
            let outcome = match run::run(&env, w, args.seed, args.seconds, args.trace) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cpsbench: {} run {}: {e}", w.name(), i + 1);
                    return ExitCode::from(2);
                }
            };
            println!("{} run {}/{}:", w.name(), i + 1, args.runs);
            for note in &outcome.notes {
                println!("  # {note}");
            }
            for (name, value) in &outcome.metrics {
                println!("  {name:<28} {value:>14.4} {}", spec_of(name).unit);
            }
            const SHOWN: usize = 20;
            for failure in outcome.gate.failures.iter().take(SHOWN) {
                println!("  FAILED {failure}");
            }
            if outcome.gate.failures.len() > SHOWN {
                println!(
                    "  … and {} more failures",
                    outcome.gate.failures.len() - SHOWN
                );
            }
            outcomes.push(outcome);
        }
        results.push((w, outcomes));
    }

    if args.runs > 1 {
        println!(
            "repeatability ({} runs, seed {}): median [q1, q3] spread",
            args.runs, args.seed
        );
        for (w, outcomes) in &results {
            for (name, _) in &outcomes[0].metrics {
                let values = values(outcomes, name);
                let med = stats::median(&values);
                let (q1, q3) = stats::quartiles(&values);
                let spread = if med == 0.0 {
                    0.0
                } else {
                    (q3 - q1) / med.abs()
                };
                let spec = spec_of(name);
                let flag = match spec.bound {
                    Some(b) if spread > b => format!("  SPREAD > BOUND {b}"),
                    _ => String::new(),
                };
                println!(
                    "  {:<16} {name:<28} {med:>14.4} [{q1:.4}, {q3:.4}] {:.4} {}{flag}",
                    w.name(),
                    spread,
                    spec.unit
                );
            }
        }
    }

    let attempted: u64 = results
        .iter()
        .flat_map(|(_, o)| o)
        .map(|o| o.gate.attempted)
        .sum();
    let failed: u64 = results
        .iter()
        .flat_map(|(_, o)| o)
        .map(|o| o.gate.failed())
        .sum();
    let single = results.len() == 1;
    let mut entries = Vec::new();
    for (w, outcomes) in &results {
        for (name, _) in &outcomes[0].metrics {
            let key = if single {
                (*name).to_owned()
            } else {
                format!("{}/{name}", w.name())
            };
            entries.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                stats::median(&values(outcomes, name)),
                spec_of(name).unit
            ));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        entries.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
