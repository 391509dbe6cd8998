//! `cpsdfad` — the analysis daemon. JSONL requests on stdin, JSONL
//! responses on stdout, optional JSONL trace stream to a file.
//!
//! ```text
//! cpsdfad [--workers N] [--cache-bytes N] [--max-queue N] [--capacity N]
//!         [--budget N] [--deadline-ms N] [--no-cache] [--trace PATH]
//!         [--persist-dir PATH] [--certify N] [--session-ttl-ms N]
//! ```
//!
//! Request lines look like
//! `{"id": 1, "analysis": "cfa.cps", "program": "(let (f (lambda (x) x)) (f 1))"}`
//! (optional fields: `budget`, `request_budget`, `deadline_ms`, and
//! `session` — requests sharing a session id form an edit stream; a step
//! that changed only constants or names reuses the session's previous
//! fixpoint, any other step is solved cold). A `mode` of
//! `seq`, `par` or `par:K` is accepted and ignored: every request runs on
//! the sequential engine, and `stats` counts the `par` ones as
//! `mode_ignored`; any other `mode` is a `bad-request`. Control lines:
//! `{"cmd": "stats"}`, `{"cmd": "health"}`, `{"cmd": "shutdown"}`.
//! Responses correlate by `id` and may complete out of order; a `stats`
//! line is answered after every request before it and the spills those
//! requests queued.
//!
//! `--persist-dir` makes the cache crash-safe: answers spill to a
//! directory of checksummed, atomically-committed entries, recovered (and
//! re-verified) on the next start. One writer thread commits each spill
//! after its answer is sent, so an answer is served before it is durable:
//! a crash loses at most the spills still queued, never a torn or wrong
//! entry. `stats` counts `persist_spilled` and `persist_dropped` (spills
//! refused by a full queue). `health` reports what the start recovered
//! and `recover_ms`, how long that took: recovery validates entries on
//! every hardware thread (`CPSDFA_WORKERS` caps it) before the first
//! request is read. `--certify N` independently re-checks
//! every Nth cached/warm answer against a re-derived constraint system
//! before serving it (1 = certify everything); refuted entries are evicted
//! and recomputed, never served. `--session-ttl-ms` bounds how long an
//! idle watch session keeps its warm-start state (0 = no TTL).

use cpsdfa_core::JsonlSink;
use cpsdfa_service::{AnalysisService, ServiceConfig};
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "cpsdfad: analysis daemon (JSONL on stdin/stdout)\n\
                     flags: --workers N --cache-bytes N --max-queue N --capacity N\n\
                     \x20      --budget N --deadline-ms N --no-cache --trace PATH\n\
                     \x20      --persist-dir PATH --certify N --session-ttl-ms N";

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let result: Result<(), String> = match arg.as_str() {
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|n: usize| config.workers = n.max(1))
                    .map_err(|e| format!("--workers: {e}"))
            }),
            "--cache-bytes" => value("--cache-bytes").and_then(|v| {
                v.parse()
                    .map(|n| config.cache_bytes = n)
                    .map_err(|e| format!("--cache-bytes: {e}"))
            }),
            "--max-queue" => value("--max-queue").and_then(|v| {
                v.parse()
                    .map(|n| config.max_queue = n)
                    .map_err(|e| format!("--max-queue: {e}"))
            }),
            "--capacity" => value("--capacity").and_then(|v| {
                v.parse()
                    .map(|n| config.capacity_charges = n)
                    .map_err(|e| format!("--capacity: {e}"))
            }),
            "--budget" => value("--budget").and_then(|v| {
                v.parse()
                    .map(|n| config.default_budget = n)
                    .map_err(|e| format!("--budget: {e}"))
            }),
            "--deadline-ms" => value("--deadline-ms").and_then(|v| {
                v.parse()
                    .map(|n| config.default_deadline_ms = Some(n))
                    .map_err(|e| format!("--deadline-ms: {e}"))
            }),
            "--no-cache" => {
                config.cache_enabled = false;
                Ok(())
            }
            "--persist-dir" => value("--persist-dir").map(|v| {
                config.persist_dir = Some(v.into());
            }),
            "--certify" => value("--certify").and_then(|v| {
                v.parse()
                    .map(|n| config.certify_sample = n)
                    .map_err(|e| format!("--certify: {e}"))
            }),
            "--session-ttl-ms" => value("--session-ttl-ms").and_then(|v| {
                v.parse()
                    .map(|n: u64| {
                        config.session_ttl = (n > 0).then(|| Duration::from_millis(n));
                    })
                    .map_err(|e| format!("--session-ttl-ms: {e}"))
            }),
            "--trace" => value("--trace").map(|v| trace_path = Some(v)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = result {
            eprintln!("cpsdfad: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let trace = match &trace_path {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => {
                let w: Box<dyn Write + Send> = Box::new(BufWriter::new(f));
                Some(JsonlSink::new(w))
            }
            Err(e) => {
                eprintln!("cpsdfad: cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let service = AnalysisService::new(config);
    let stdin = io::stdin();
    // `Stdout` is `Send` (it locks per write); the explicit lock guard is
    // not, and `serve` serializes writers behind its own mutex anyway.
    match service.serve(stdin.lock(), io::stdout(), trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cpsdfad: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}
