//! Watch-mode session tests: requests sharing a `session` id form an edit
//! stream, and the daemon answers a step that changed only constants or
//! names from the session's previous fixpoint. The acceptance bar is the
//! same as the incremental
//! differential suite's — a warm answer must be bit-identical (same
//! answer digest) to a from-scratch solve of the edited program — plus
//! the service-level facts: warm serves are reported as `warm`, cold
//! fallbacks still answer, and the stats line counts them.

use cpsdfa_core::trace::TraceSink;
use cpsdfa_service::proto::{Response, Served, Status};
use cpsdfa_service::{AnalysisService, ServiceConfig};
use cpsdfa_syntax::build::{let_, num};
use cpsdfa_syntax::Term;
use cpsdfa_workloads::families;
use std::collections::BTreeMap;

/// One worker: batches execute in request order, so the session's edit
/// stream is seen in order and miss-then-warm expectations are
/// deterministic.
fn small_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        capacity_charges: u64::MAX / 2,
        ..ServiceConfig::default()
    }
}

fn request(id: u64, analysis: &str, program: &str) -> String {
    format!(r#"{{"id": {id}, "analysis": "{analysis}", "program": "{program}"}}"#)
}

fn session_request(id: u64, session: u64, analysis: &str, program: &str) -> String {
    format!(
        r#"{{"id": {id}, "session": {session}, "analysis": "{analysis}", "program": "{program}"}}"#
    )
}

fn ok_fields(resp: &Response) -> (&Served, u64, u64) {
    match &resp.status {
        Status::Ok {
            cache,
            answer_digest,
            charged,
            ..
        } => (cache, *answer_digest, *charged),
        other => panic!("expected ok response, got {other:?} (id {})", resp.id),
    }
}

/// The digest a fresh (session-less) service produces for `program`.
fn cold_digest(analysis: &str, program: &str) -> u64 {
    let service = AnalysisService::new(small_config());
    let line = request(99, analysis, program);
    let outcomes = service.run_batch(&[&line]);
    let (cache, digest, _) = ok_fields(&outcomes[0].response);
    assert_eq!(*cache, Served::Miss, "fresh service must solve cold");
    digest
}

#[test]
fn const_edit_answers_warm_and_bit_identical_for_every_cfa_kind() {
    for analysis in ["cfa.src", "cfa.cps", "cfa.pushdown"] {
        let chain = const_chain(families::dispatch(8), 1);
        let service = AnalysisService::new(small_config());
        let lines = [
            session_request(1, 42, analysis, &chain[0]),
            session_request(2, 42, analysis, &chain[1]),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let outcomes = service.run_batch(&refs);
        let (open_cache, _, _) = ok_fields(&outcomes[0].response);
        let (edit_cache, edit_digest, _) = ok_fields(&outcomes[1].response);
        assert_eq!(*open_cache, Served::Miss, "{analysis}: session opens cold");
        assert_eq!(
            *edit_cache,
            Served::Warm,
            "{analysis}: a constant edit must answer warm"
        );
        assert_eq!(
            edit_digest,
            cold_digest(analysis, &chain[1]),
            "{analysis}: warm answer must be bit-identical to from-scratch"
        );
    }
}

#[test]
fn rename_edit_transports_mfp_for_free() {
    let base = families::cond_chain(6).to_string();
    let renamed = base.replace("c3", "w3");
    assert_ne!(base, renamed, "the rename must actually change the text");
    let service = AnalysisService::new(small_config());
    let lines = [
        session_request(1, 7, "mfp.flat", &base),
        session_request(2, 7, "mfp.flat", &renamed),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    let (_, _, _) = ok_fields(&outcomes[0].response);
    let (cache, digest, charged) = ok_fields(&outcomes[1].response);
    assert_eq!(*cache, Served::Warm, "a pure rename transports the summary");
    assert_eq!(charged, 0, "transport fires no constraints");
    assert_eq!(digest, cold_digest("mfp.flat", &renamed));
}

#[test]
fn misaligned_edit_falls_back_to_the_governed_ladder() {
    // Replacing the program wholesale changes its shape: the session must
    // still answer — cold, via the ladder.
    let base = families::dispatch(8).to_string();
    let replaced = families::cond_chain(6).to_string();
    let service = AnalysisService::new(small_config());
    let lines = [
        session_request(1, 3, "cfa.src", &base),
        session_request(2, 3, "cfa.src", &replaced),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    let (cache, digest, _) = ok_fields(&outcomes[1].response);
    assert_eq!(*cache, Served::Miss, "a changed shape solves cold");
    assert_eq!(digest, cold_digest("cfa.src", &replaced));
}

#[test]
fn sessions_chain_warm_across_successive_edits() {
    // Three successive constant edits: every step after the first answers
    // from the *previous step's* fixpoint, not from the session opener.
    let chain = const_chain(families::polyvariant(8), 3);
    let service = AnalysisService::new(small_config());
    let lines: Vec<String> = chain
        .iter()
        .zip(1..)
        .map(|(program, id)| session_request(id, 5, "cfa.cps", program))
        .collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    for (outcome, program) in outcomes.iter().zip(&chain) {
        let id = outcome.response.id;
        let expect = if id == 1 { Served::Miss } else { Served::Warm };
        let (cache, digest, _) = ok_fields(&outcome.response);
        assert_eq!(*cache, expect, "id {id}");
        assert_eq!(digest, cold_digest("cfa.cps", program));
    }
    let stats = service.stats_json();
    assert!(
        stats.contains("\"served_warm\": 3"),
        "stats must count the three warm serves: {stats}"
    );
}

#[test]
fn sessionless_requests_never_touch_the_warm_path() {
    // The same two programs without a session id: the edit is a plain
    // cache miss (different digest), solved by the ladder.
    let base = families::dispatch(6);
    let edited = let_("extra", num(7), base.clone());
    let service = AnalysisService::new(small_config());
    let lines = [
        request(1, "cfa.src", &base.to_string()),
        request(2, "cfa.src", &edited.to_string()),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    let (second, _, _) = ok_fields(&outcomes[1].response);
    assert_eq!(*second, Served::Miss);
    assert!(
        service.stats_json().contains("\"served_warm\": 0"),
        "no session id, no warm serves"
    );
}

#[test]
fn warm_answers_commit_so_a_repeat_request_hits() {
    // After a warm serve, the edited program's fixpoint is resident under
    // its content address: a later session-less request for the same
    // program is an ordinary cache hit.
    let chain = const_chain(families::dispatch(8), 1);
    let service = AnalysisService::new(small_config());
    let lines = [
        session_request(1, 11, "cfa.src", &chain[0]),
        session_request(2, 11, "cfa.src", &chain[1]),
        request(3, "cfa.src", &chain[1]),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    let (warm, warm_digest, _) = ok_fields(&outcomes[1].response);
    let (hit, hit_digest, _) = ok_fields(&outcomes[2].response);
    assert_eq!(*warm, Served::Warm);
    assert_eq!(*hit, Served::Hit, "warm commits under the full key");
    assert_eq!(hit_digest, warm_digest);
}

/// Collects each request's trace counters, keyed by request id (the
/// service wraps a request's events in a `service.req.<id>` span).
#[derive(Default)]
struct PerRequest {
    current: Option<u64>,
    counters: BTreeMap<u64, BTreeMap<String, u64>>,
}

impl PerRequest {
    fn count(&self, id: u64, name: &str) -> u64 {
        self.counters
            .get(&id)
            .and_then(|c| c.get(name))
            .copied()
            .unwrap_or(0)
    }
}

impl TraceSink for PerRequest {
    fn counter(&mut self, name: &str, delta: u64) {
        if let Some(id) = self.current {
            *self
                .counters
                .entry(id)
                .or_default()
                .entry(name.to_owned())
                .or_default() += delta;
        }
    }
    fn gauge(&mut self, _: &str, _: u64) {}
    fn time_ns(&mut self, _: &str, _: u64) {}
    fn span_start(&mut self, name: &str) {
        if let Some(id) = name.strip_prefix("service.req.") {
            self.current = id.parse().ok();
        }
    }
    fn span_end(&mut self, name: &str) {
        if name.starts_with("service.req.") {
            self.current = None;
        }
    }
}

/// `base` under a fresh constant binding, then `steps` edits of that
/// constant: every step keeps the program's shape.
fn const_chain(base: Term, steps: i64) -> Vec<String> {
    (0..=steps)
        .map(|i| let_("extra", num(i), base.clone()).to_string())
        .collect()
}

/// `base` followed by `steps` stacked leaf-binding inserts.
fn insert_chain(base: Term, steps: i64) -> Vec<String> {
    let mut program = base;
    let mut chain = vec![program.to_string()];
    for i in 0..steps {
        program = let_(&*format!("e{i}"), num(i), program);
        chain.push(program.to_string());
    }
    chain
}

#[test]
fn warm_steps_reuse_the_previous_steps_lowered_program() {
    for analysis in ["cfa.src", "cfa.cps", "cfa.pushdown", "mfp.flat"] {
        let chain = if analysis == "mfp.flat" {
            // The MFP warm path transports renames (constant edits solve
            // cold).
            let mut chain = vec![families::cond_chain(6).to_string()];
            for i in 1..=4 {
                let renamed = chain[i - 1].replace(&format!("c{i}"), &format!("w{i}"));
                chain.push(renamed);
            }
            chain
        } else {
            const_chain(families::polyvariant(8), 4)
        };
        let lines: Vec<String> = chain
            .iter()
            .zip(1..)
            .map(|(program, id)| session_request(id, 9, analysis, program))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let service = AnalysisService::new(small_config());
        let mut trace = PerRequest::default();
        let outcomes = service.run_batch_traced(&refs, &mut trace);
        for (outcome, program) in outcomes.iter().zip(&chain) {
            let id = outcome.response.id;
            let (cache, digest, _) = ok_fields(&outcome.response);
            let (expect, reused) = if id == 1 {
                (Served::Miss, 0)
            } else {
                (Served::Warm, 1)
            };
            assert_eq!(*cache, expect, "{analysis} id {id}");
            assert_eq!(
                trace.count(id, "service.lower.reused"),
                reused,
                "{analysis} id {id}: every warm step reuses the memo"
            );
            assert_eq!(digest, cold_digest(analysis, program), "{analysis} id {id}");
        }
    }
}

#[test]
fn a_restarted_daemon_lowers_the_journaled_ancestor_and_still_answers_warm() {
    let dir = std::env::temp_dir().join(format!("cpsdfa-watch-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..small_config()
    };
    let chain = const_chain(families::polyvariant(8), 3);
    let lines: Vec<String> = chain
        .iter()
        .zip(1..)
        .map(|(program, id)| session_request(id, 4, "cfa.cps", program))
        .collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();

    // Uninterrupted: every step after the first answers warm from the memo.
    let steady = AnalysisService::new(ServiceConfig {
        persist_dir: None,
        ..small_config()
    })
    .run_batch(&refs);

    // The same stream with a restart before its third step.
    AnalysisService::new(config()).run_batch(&refs[..2]);
    let mut trace = PerRequest::default();
    let restarted = AnalysisService::new(config()).run_batch_traced(&refs[2..], &mut trace);
    let _ = std::fs::remove_dir_all(&dir);

    for (after, before) in restarted.iter().zip(&steady[2..]) {
        let id = after.response.id;
        let (cache, digest, _) = ok_fields(&after.response);
        assert_eq!(
            *cache,
            Served::Warm,
            "id {id}: the journal keeps the session warm"
        );
        assert_eq!(digest, ok_fields(&before.response).1, "id {id}");
        let reused = trace.count(id, "service.lower.reused");
        if id == 3 {
            assert_eq!(
                reused, 0,
                "the new daemon has no memo: it lowers the journal"
            );
        } else {
            assert_eq!(reused, 1, "id {id}: later steps reuse the memo again");
        }
    }
}

#[test]
fn two_sessions_over_two_workers_match_a_cache_off_run() {
    // Alternating sessions on two workers: a session's consecutive steps
    // land on either worker, so the memo both hits and falls back, and a
    // step may even run before its predecessor. Whatever path each
    // request takes, its answer must be the from-scratch one.
    let a = insert_chain(families::polyvariant(8), 6);
    let b = insert_chain(families::dispatch(8), 6);
    let mut lines = Vec::new();
    for (step, (pa, pb)) in a.iter().zip(&b).enumerate() {
        let id = 2 * step as u64;
        lines.push(session_request(id + 1, 1, "cfa.cps", pa));
        lines.push(session_request(id + 2, 2, "cfa.pushdown", pb));
    }
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let two_workers = ServiceConfig {
        workers: 2,
        ..small_config()
    };
    let served = AnalysisService::new(two_workers.clone()).run_batch(&refs);
    let off = AnalysisService::new(ServiceConfig {
        cache_enabled: false,
        ..two_workers
    })
    .run_batch(&refs);
    for (on, off) in served.iter().zip(&off) {
        assert_eq!(*ok_fields(&off.response).0, Served::Off);
        assert_eq!(
            ok_fields(&on.response).1,
            ok_fields(&off.response).1,
            "id {}",
            on.response.id
        );
    }
}
