//! End-to-end acceptance tests for the analysis service: warm-path
//! bit-identity, admission-control rejections, the degraded-rung caching
//! policy, and the full `serve` loop over in-memory streams.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{AnalysisKind, CachedAnswer};
use cpsdfa_core::cfa::{zero_cfa_cps_instrumented, zero_cfa_instrumented};
use cpsdfa_core::govern::ladder;
use cpsdfa_core::trace::AggSink;
use cpsdfa_cps::CpsProgram;
use cpsdfa_service::proto::{Response, Served, Status};
use cpsdfa_service::{AnalysisService, ServiceConfig};
use cpsdfa_syntax::build::{let_, num};
use cpsdfa_workloads::families;
use std::sync::Arc;

/// One worker: batches execute in request order, so miss-then-hit
/// expectations are deterministic. (The serve-loop test runs a real
/// concurrent pool and asserts scheduling-independent facts instead.)
fn small_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        // One worker means deep backlogs; don't let the capacity rung
        // interfere with tests that aren't about it.
        capacity_charges: u64::MAX / 2,
        ..ServiceConfig::default()
    }
}

fn request(id: u64, analysis: &str, program: &str) -> String {
    format!(r#"{{"id": {id}, "analysis": "{analysis}", "program": "{program}"}}"#)
}

fn ok_fields(resp: &Response) -> (&Served, &'static str, bool, u64) {
    match &resp.status {
        Status::Ok {
            cache,
            rung,
            degraded,
            answer_digest,
            ..
        } => (cache, rung, *degraded, *answer_digest),
        other => panic!("expected ok response, got {other:?} (id {})", resp.id),
    }
}

#[test]
fn warm_repeat_hits_bit_identically_for_all_three_analyses() {
    let service = AnalysisService::new(small_config());
    let higher_order = families::dispatch(16).to_string();
    let first_order = families::diamond_chain(4).to_string();
    let lines: Vec<String> = vec![
        request(10, "cfa.src", &higher_order),
        request(11, "cfa.cps", &higher_order),
        request(12, "mfp.flat", &first_order),
        request(20, "cfa.src", &higher_order),
        request(21, "cfa.cps", &higher_order),
        request(22, "mfp.flat", &first_order),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    assert_eq!(outcomes.len(), 6);
    for (cold, warm) in [(0usize, 3usize), (1, 4), (2, 5)] {
        let (cold_cache, cold_rung, cold_degraded, cold_digest) =
            ok_fields(&outcomes[cold].response);
        let (warm_cache, warm_rung, warm_degraded, warm_digest) =
            ok_fields(&outcomes[warm].response);
        assert_eq!(*cold_cache, Served::Miss, "first sighting solves");
        assert_eq!(*warm_cache, Served::Hit, "repeat must hit");
        assert!(!cold_degraded && !warm_degraded);
        assert_eq!(cold_rung, warm_rung);
        assert_eq!(cold_digest, warm_digest, "hit must be bit-identical");
        // Not just the digest: the whole committed answer mirrors compare
        // equal.
        let a = outcomes[cold].fixpoint.as_ref().expect("answered");
        let b = outcomes[warm].fixpoint.as_ref().expect("answered");
        assert_eq!(a.answer, b.answer);
    }
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.inserts, 3);
}

#[test]
fn the_cache_holds_the_served_fixpoint_not_a_copy() {
    // A miss and a warm answer each commit the very `Arc` they were
    // served from, so the next hit on the same key hands back that
    // pointer, not an equal deep copy.
    let service = AnalysisService::new(small_config());
    let program = families::dispatch(8).to_string();
    // A constant edit: the warm step reuses the session's fixpoint.
    let base = let_("extra", num(1), families::repeated_calls(8));
    let edited = let_("extra", num(7), families::repeated_calls(8));
    let lines = [
        request(1, "cfa.cps", &program),
        request(2, "cfa.cps", &program),
        format!(
            r#"{{"id": 3, "session": 9, "analysis": "cfa.src", "program": "{}"}}"#,
            base
        ),
        format!(
            r#"{{"id": 4, "session": 9, "analysis": "cfa.src", "program": "{}"}}"#,
            edited
        ),
        request(5, "cfa.src", &edited.to_string()),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    let served: Vec<&Served> = outcomes.iter().map(|o| ok_fields(&o.response).0).collect();
    assert_eq!(
        served,
        [
            &Served::Miss,
            &Served::Hit,
            &Served::Miss,
            &Served::Warm,
            &Served::Hit
        ]
    );
    let fixpoint = |i: usize| outcomes[i].fixpoint.as_ref().expect("answered");
    assert!(
        Arc::ptr_eq(fixpoint(0), fixpoint(1)),
        "a hit must serve the Arc the miss committed"
    );
    assert!(
        Arc::ptr_eq(fixpoint(3), fixpoint(4)),
        "a re-probe must serve the Arc the warm answer committed"
    );
    // The committed answer is the solver's own result: variables that
    // converged to one flow set share one `Arc`, not a copy per slot.
    let CachedAnswer::CfaCps(committed) = &fixpoint(0).answer else {
        panic!("expected a cfa.cps answer");
    };
    let distinct: std::collections::BTreeSet<_> = committed.vars.iter().map(Arc::as_ptr).collect();
    assert!(
        distinct.len() < committed.vars.len(),
        "{} distinct sets for {} variables",
        distinct.len(),
        committed.vars.len()
    );
}

#[test]
fn par_mode_is_ignored_and_shares_the_seq_cache_entry() {
    // `"mode": "par:2"` still parses, but names no engine: the request is
    // solved (and keyed) exactly like one without a mode, so the repeat
    // without a mode hits the same entry with the same digest.
    let service = AnalysisService::new(small_config());
    let program = families::dispatch(12).to_string();
    let lines = [
        format!(r#"{{"id": 1, "analysis": "cfa.cps", "program": "{program}", "mode": "par:2"}}"#),
        request(2, "cfa.cps", &program),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    let (first, _, _, d1) = ok_fields(&outcomes[0].response);
    let (second, _, _, d2) = ok_fields(&outcomes[1].response);
    assert_eq!((first, second), (&Served::Miss, &Served::Hit));
    assert_eq!(d1, d2, "the hit serves the par:2 request's answer");
    assert!(
        service.stats_json().contains("\"mode_ignored\": 1"),
        "{}",
        service.stats_json()
    );
}

#[test]
fn cache_off_solves_fresh_but_stays_bit_identical() {
    let on = AnalysisService::new(small_config());
    let off = AnalysisService::new(ServiceConfig {
        cache_enabled: false,
        ..small_config()
    });
    let program = families::cond_chain(12).to_string();
    let lines = [
        request(1, "cfa.cps", &program),
        request(2, "cfa.cps", &program),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let on_out = on.run_batch(&refs);
    let off_out = off.run_batch(&refs);
    let (_, _, _, d_on) = ok_fields(&on_out[1].response);
    let (cache_off, _, _, d_off) = ok_fields(&off_out[1].response);
    assert_eq!(*cache_off, Served::Off);
    assert_eq!(d_on, d_off, "cache on/off answers must be bit-identical");
    assert_eq!(
        on_out[1].fixpoint.as_ref().unwrap().answer,
        off_out[1].fixpoint.as_ref().unwrap().answer
    );
    assert_eq!(off.cache_stats().inserts, 0, "cache off commits nothing");
}

#[test]
fn queue_depth_rung_rejects_before_queuing() {
    let service = AnalysisService::new(ServiceConfig {
        max_queue: 0,
        ..small_config()
    });
    let program = families::cond_chain(4).to_string();
    let line = request(1, "cfa.src", &program);
    let outcomes = service.run_batch(&[&line]);
    match &outcomes[0].response.status {
        Status::Rejected { reason } => assert_eq!(*reason, "queue-full"),
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    assert!(outcomes[0].fixpoint.is_none());
}

#[test]
fn budget_reservation_rung_rejects_over_capacity() {
    let service = AnalysisService::new(ServiceConfig {
        capacity_charges: 10, // far below any worst case
        ..small_config()
    });
    let program = families::cond_chain(4).to_string();
    let line = request(7, "cfa.cps", &program);
    let outcomes = service.run_batch(&[&line]);
    match &outcomes[0].response.status {
        Status::Rejected { reason } => assert_eq!(*reason, "over-capacity"),
        other => panic!("expected over-capacity rejection, got {other:?}"),
    }
    // A request with an explicit whole-request cap that fits is admitted.
    let line = format!(
        r#"{{"id": 8, "analysis": "cfa.cps", "program": "{program}", "request_budget": 9}}"#
    );
    let outcomes = service.run_batch(&[&line]);
    match &outcomes[0].response.status {
        // cond_chain(4) may or may not fit 9 charges — either an answer or
        // an analysis failure is fine; what matters is it was ADMITTED.
        Status::Ok { .. } | Status::Error { .. } => {}
        other => panic!("capped request must pass admission, got {other:?}"),
    }
}

/// Admission reserves one per-rung budget for every rung of a kind's
/// ladder (`govern::ladder`): a capacity of exactly budget × rungs
/// admits the request and one charge less rejects it. A two-charge budget
/// trips every rung, so the ladder the daemon runs must record one attempt
/// per rung — the count admission reserved for.
#[test]
fn admission_reserves_for_every_rung_the_ladder_runs() {
    const BUDGET: u64 = 2;
    let higher_order = families::dispatch(16).to_string();
    let first_order = families::diamond_chain(4).to_string();
    for kind in AnalysisKind::ALL {
        let program = match kind {
            AnalysisKind::MfpFlat => &first_order,
            _ => &higher_order,
        };
        let line = format!(
            r#"{{"id": 1, "analysis": "{}", "program": "{program}", "budget": {BUDGET}}}"#,
            kind.as_str()
        );
        let rungs = ladder(kind).len() as u64;

        let tight = AnalysisService::new(ServiceConfig {
            capacity_charges: BUDGET * rungs - 1,
            ..small_config()
        });
        match &tight.run_batch(&[&line])[0].response.status {
            Status::Rejected { reason } => assert_eq!(*reason, "over-capacity", "{kind:?}"),
            other => panic!("{kind:?}: expected over-capacity, got {other:?}"),
        }

        let exact = AnalysisService::new(ServiceConfig {
            capacity_charges: BUDGET * rungs,
            ..small_config()
        });
        let mut agg = AggSink::new();
        let outcomes = exact.run_batch_traced(&[&line], &mut agg);
        match &outcomes[0].response.status {
            Status::Error { reason, .. } => assert_eq!(*reason, "analysis-failed", "{kind:?}"),
            other => panic!("{kind:?}: every rung should trip, got {other:?}"),
        }
        assert_eq!(agg.counter_value("govern.rungs_tried"), rungs, "{kind:?}");
        assert_eq!(agg.counter_value("govern.trip.budget"), 1, "{kind:?}");
    }
}

#[test]
fn degraded_answers_commit_under_their_rung_and_never_shadow() {
    let p = AnfProgram::from_term(&families::dispatch(64));
    let program = families::dispatch(64).to_string();
    let cps = CpsProgram::from_anf(&p);
    let (_, cps_stats) = zero_cfa_cps_instrumented(&cps).expect("CPS 0CFA completes");
    let (_, src_stats) = zero_cfa_instrumented(&p).expect("source 0CFA completes");
    assert!(
        src_stats.fired < cps_stats.fired,
        "premise: src rung cheaper"
    );

    let service = AnalysisService::new(small_config());
    // Request 1: budget exactly the source rung's cost — the CPS rung
    // trips, the ladder answers (degraded) at cfa.src.
    let starved = format!(
        r#"{{"id": 1, "analysis": "cfa.cps", "program": "{program}", "budget": {}}}"#,
        src_stats.fired
    );
    // Request 2: same program, default budget — must NOT be served the
    // degraded entry.
    let full = request(2, "cfa.cps", &program);
    let outcomes = service.run_batch(&[&starved]);
    let (cache, rung, degraded, _) = ok_fields(&outcomes[0].response);
    assert_eq!(*cache, Served::Miss);
    assert!(degraded, "the CPS rung cannot fit this budget");
    assert_eq!(rung, "cfa.src");

    let outcomes = service.run_batch(&[&full]);
    let (cache, rung, degraded, _) = ok_fields(&outcomes[0].response);
    assert_eq!(
        *cache,
        Served::Miss,
        "a degraded commit must never shadow a full-precision lookup"
    );
    assert!(!degraded);
    assert_eq!(rung, "cfa.cps");

    // And the repeat of the *full* answer now hits at full precision.
    let outcomes = service.run_batch(&[&full]);
    let (cache, rung, _, _) = ok_fields(&outcomes[0].response);
    assert_eq!(*cache, Served::Hit);
    assert_eq!(rung, "cfa.cps");

    // The degraded answer committed under its own kind: a cfa.src request
    // for the program hits it, and it is exactly a fresh cfa.src solve.
    // CI pipes the starved request and this one into the real binary from
    // `data/degrade-requests.jsonl`, which must hold exactly these lines.
    let src = request(3, "cfa.src", &program);
    assert_eq!(
        include_str!("data/degrade-requests.jsonl")
            .lines()
            .collect::<Vec<_>>(),
        [starved.as_str(), src.as_str()]
    );
    let hit = &service.run_batch(&[&src])[0].response;
    let fresh = &AnalysisService::new(ServiceConfig {
        cache_enabled: false,
        ..small_config()
    })
    .run_batch(&[&src])[0]
        .response;
    let counts = |resp: &Response| match resp.status {
        Status::Ok {
            ref cache,
            rung,
            degraded,
            answer_digest,
            iterations,
            ..
        } => (cache.clone(), rung, degraded, answer_digest, iterations),
        ref other => panic!("expected ok, got {other:?}"),
    };
    let (cache, rung, degraded, digest, iterations) = counts(hit);
    assert_eq!((cache, rung, degraded), (Served::Hit, "cfa.src", false));
    let (cache, _, _, fresh_digest, fresh_iterations) = counts(fresh);
    assert_eq!(cache, Served::Off);
    assert_eq!((digest, iterations), (fresh_digest, fresh_iterations));
}

#[test]
fn non_first_order_mfp_requests_error_cleanly() {
    let service = AnalysisService::new(small_config());
    let line = request(3, "mfp.flat", &families::dispatch(8).to_string());
    let outcomes = service.run_batch(&[&line]);
    match &outcomes[0].response.status {
        Status::Error { reason, .. } => assert_eq!(*reason, "not-first-order"),
        other => panic!("expected not-first-order error, got {other:?}"),
    }
}

#[test]
fn batch_traces_carry_request_spans_and_cache_counters() {
    let service = AnalysisService::new(small_config());
    let program = families::cond_chain(8).to_string();
    let lines = [
        request(1, "cfa.src", &program),
        request(2, "cfa.src", &program),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let mut agg = AggSink::new();
    service.run_batch_traced(&refs, &mut agg);
    assert_eq!(agg.counter_value("cache.hit"), 1);
    assert_eq!(agg.counter_value("cache.miss"), 1);
    assert_eq!(agg.counter_value("service.hit"), 1);
    assert_eq!(agg.counter_value("service.solve"), 1);
    assert!(agg.span_agg("service.req.1").is_some());
    assert!(agg.span_agg("service.req.2").is_some());
    assert!(
        agg.counter_value("cfa.src.fired") > 0,
        "the solver's own counters stream through the request trace"
    );
}

#[test]
fn repeats_after_a_hit_skip_the_parse_and_answer_identically() {
    let service = AnalysisService::new(small_config());
    let program = families::dispatch(16).to_string();
    let spaced = format!(" {program} ");
    let mut lines: Vec<String> = (1..=3).map(|id| request(id, "cfa.cps", &program)).collect();
    // A whitespace variant is a different text (the memo misses) of the
    // same program (the cache hits under the same key).
    lines.extend((4..=5).map(|id| request(id, "cfa.cps", &spaced)));
    // A malformed program errors the same way each time and is never
    // stored.
    lines.extend((6..=8).map(|id| request(id, "cfa.cps", "(f ((")));
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let mut agg = AggSink::new();
    let outcomes = service.run_batch_traced(&refs, &mut agg);
    let answered: Vec<(&Served, u64)> = outcomes[..5]
        .iter()
        .map(|o| {
            let (cache, _, _, digest) = ok_fields(&o.response);
            (cache, digest)
        })
        .collect();
    let digest = answered[0].1;
    assert_eq!(
        answered,
        [
            (&Served::Miss, digest),
            (&Served::Hit, digest),
            (&Served::Hit, digest),
            (&Served::Hit, digest),
            (&Served::Hit, digest),
        ]
    );
    for o in &outcomes[5..] {
        match &o.response.status {
            Status::Error { reason, detail } => {
                assert_eq!(*reason, "parse-error");
                assert_eq!(
                    detail,
                    match &outcomes[5].response.status {
                        Status::Error { detail, .. } => detail,
                        other => panic!("{other:?}"),
                    }
                );
            }
            other => panic!("expected parse-error, got {other:?}"),
        }
    }
    // Requests 3 and 5 repeat a text already served as a hit.
    assert_eq!(agg.counter_value("service.parse.reused"), 2);
    assert!(
        service.stats_json().contains("\"parse_reused\": 2}"),
        "{}",
        service.stats_json()
    );
}

#[test]
fn serve_loop_parses_each_line_once_for_control_and_requests() {
    let service = AnalysisService::new(small_config());
    let program = families::cond_chain(8).to_string();
    let req = request(1, "cfa.src", &program);
    // A string `cmd` makes a control line; a non-string one does not, so
    // that line is a request (missing its id here).
    let input = format!(
        "{req}\n{req}\n{req}\n{{\"cmd\": 5}}\n{{\"cmd\": \"nope\"}}\nnot json\n\
         {{\"id\": 2, \"analysis\": \"cfa.src\", \"program\": 5}}\n\
         {{\"cmd\": \"shutdown\"}}\n"
    );
    let mut output: Vec<u8> = Vec::new();
    service
        .serve(input.as_bytes(), &mut output, None)
        .expect("serve loop completes");
    let text = String::from_utf8(output).expect("utf8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 7, "{text}");
    // Every reply, the unknown-`cmd` one included, decodes as a response.
    for line in &lines {
        Response::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
    assert_eq!(count("\"status\": \"ok\""), 3, "{text}");
    assert_eq!(count("unknown cmd nope"), 1, "{text}");
    assert_eq!(count("missing or non-integer \\\"id\\\""), 1, "{text}");
    assert_eq!(count("expected '{', got"), 1, "{text}");
    assert_eq!(count("\\\"program\\\" must be a string"), 1, "{text}");
    // Only the line that is not JSON is a parse error; the valid JSON
    // lines that make no request are bad requests.
    assert_eq!(count("\"reason\": \"parse-error\""), 1, "{text}");
    assert_eq!(count("\"reason\": \"bad-request\""), 3, "{text}");
    // One worker: miss, hit, then a repeat resolved through the memo.
    assert!(service.stats_json().contains("\"parse_reused\": 1}"));
}

#[test]
fn serve_loop_round_trips_requests_stats_and_shutdown() {
    let service = AnalysisService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let program = families::cond_chain(8).to_string();
    let input = format!(
        "{}\n{}\n{{\"cmd\": \"stats\"}}\n{{\"cmd\": \"health\"}}\n{{\"cmd\": \"shutdown\"}}\n",
        request(1, "cfa.cps", &program),
        request(2, "cfa.cps", &program),
    );
    let mut output: Vec<u8> = Vec::new();
    service
        .serve(input.as_bytes(), &mut output, None)
        .expect("serve loop completes");
    let text = String::from_utf8(output).expect("utf8 responses");
    let mut ok = 0;
    let mut saw_stats = false;
    let mut saw_health = false;
    for line in text.lines() {
        if line.contains("\"status\": \"stats\"") {
            saw_stats = true;
            continue;
        }
        if line.contains("\"status\": \"health\"") {
            // No persist directory: nothing was recovered, in no time.
            assert!(line.contains("\"persist\": false"), "{line}");
            assert!(line.contains("\"recover_ms\": 0}"), "{line}");
            saw_health = true;
            continue;
        }
        let resp = Response::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        match resp.status {
            Status::Ok { .. } => ok += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok, 2, "both requests answered before shutdown");
    assert!(saw_stats, "stats control line answered in-stream");
    assert!(saw_health, "health control line answered in-stream");
    // One of the two identical requests hit (the serve loop is
    // concurrent, so which one depends on scheduling; with a shared
    // cache at least one must miss and at most one can hit — and after
    // both, the entry is resident).
    let stats = service.cache_stats();
    assert_eq!(stats.hits + stats.misses, 2);
    assert!(stats.entries >= 1);
}

#[test]
fn stats_line_answers_after_every_earlier_request() {
    let service = AnalysisService::new(ServiceConfig {
        workers: 2,
        capacity_charges: u64::MAX / 2,
        ..ServiceConfig::default()
    });
    // The slowest request first, then a burst of one small program: the
    // burst is answered (mostly as hits) while the first still solves.
    let slow = families::dispatch(48).to_string();
    let small = families::cond_chain(4).to_string();
    let mut input = request(1, "cfa.pushdown", &slow) + "\n";
    for id in 2..=13 {
        input += &(request(id, "cfa.src", &small) + "\n");
    }
    input += "{\"cmd\": \"stats\"}\n";
    let mut output: Vec<u8> = Vec::new();
    service
        .serve(input.as_bytes(), &mut output, None)
        .expect("serve loop completes");
    let text = String::from_utf8(output).expect("utf8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 14, "{text}");
    let (stats, responses) = lines.split_last().unwrap();
    for line in responses {
        let resp = Response::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        assert!(matches!(resp.status, Status::Ok { .. }), "{line}");
    }
    // Nothing ran after the stats line, so it must read the end state.
    assert_eq!(*stats, service.stats_json());
}

#[test]
fn serve_loop_surfaces_input_errors_instead_of_wedging() {
    let service = AnalysisService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let program = families::cond_chain(8).to_string();
    // A valid request, a line of invalid UTF-8, then another valid
    // request. The bad line costs only itself: it is answered with a
    // structured error and the request after it is still served.
    let mut input: Vec<u8> = request(1, "cfa.cps", &program).into_bytes();
    input.push(b'\n');
    input.extend_from_slice(&[0xFF, 0xFE, b'\n']);
    input.extend_from_slice(request(2, "cfa.src", &program).as_bytes());
    input.push(b'\n');
    let mut output: Vec<u8> = Vec::new();
    service
        .serve(&input[..], &mut output, None)
        .expect("invalid UTF-8 on a line is a bad request, not an error");
    let responses = String::from_utf8(output).expect("responses are UTF-8");
    let lines: Vec<&str> = responses.lines().collect();
    assert_eq!(lines.len(), 3, "{responses}");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"reason\": \"bad-request\"") && l.contains("UTF-8")),
        "{responses}"
    );
    for id in [1, 2] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"id\": {id},")) && l.contains("\"status\": \"ok\"")),
            "request {id} must be answered ok: {responses}"
        );
    }

    // A failed read still ends the loop with the error, and the request
    // admitted before it is drained first — a regression here shows up
    // as this test hanging.
    struct Broken;
    impl std::io::Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("stdin went away"))
        }
    }
    let before = service.cache_stats();
    let mut first = request(3, "cfa.cps", &families::cond_chain(9).to_string()).into_bytes();
    first.push(b'\n');
    let input = std::io::BufReader::new(std::io::Read::chain(&first[..], Broken));
    let err = service
        .serve(input, Vec::new(), None)
        .expect_err("a failed read surfaces, not a wedge");
    assert_eq!(err.to_string(), "stdin went away");
    let after = service.cache_stats();
    assert_eq!(after.hits + after.misses, before.hits + before.misses + 1);
}

#[test]
fn malformed_lines_get_error_responses_not_crashes() {
    let service = AnalysisService::new(small_config());
    let lines = [
        "not json at all",
        r#"{"id": 5, "analysis": "cfa.cps"}"#,
        r#"{"id": 6, "analysis": "cfa.cps", "program": "(((("}"#,
        // Valid JSON without an integer id: a bad request, not a parse
        // error, answered under id 0.
        r#"{"cmd": 5}"#,
        r#"{"analysis": "cfa.src", "program": "1"}"#,
    ];
    let outcomes = service.run_batch(&lines);
    for outcome in &outcomes[3..] {
        match &outcome.response.status {
            Status::Error { reason, .. } => {
                assert_eq!(*reason, "bad-request");
                assert_eq!(outcome.response.id, 0);
            }
            other => panic!("expected bad-request, got {other:?}"),
        }
    }
    match &outcomes[0].response.status {
        Status::Error { reason, .. } => assert_eq!(*reason, "parse-error"),
        other => panic!("expected parse-error, got {other:?}"),
    }
    match &outcomes[1].response.status {
        Status::Error { reason, .. } => {
            assert_eq!(*reason, "bad-request");
            assert_eq!(outcomes[1].response.id, 5);
        }
        other => panic!("expected bad-request, got {other:?}"),
    }
    match &outcomes[2].response.status {
        Status::Error { reason, .. } => assert_eq!(*reason, "parse-error"),
        other => panic!("expected program parse-error, got {other:?}"),
    }
}

#[test]
fn pushdown_requests_answer_warm_hit_and_report_zero_false_returns() {
    let service = AnalysisService::new(small_config());
    let program = families::polyvariant(4).to_string();
    let lines = [
        request(30, "cfa.pushdown", &program),
        request(31, "cfa.cps", &program),
        request(32, "cfa.pushdown", &program),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    let (cold_cache, cold_rung, cold_degraded, cold_digest) = ok_fields(&outcomes[0].response);
    assert_eq!(*cold_cache, Served::Miss);
    assert_eq!(cold_rung, "cfa.pushdown");
    assert!(!cold_degraded, "full budget must answer at the top rung");
    let (warm_cache, warm_rung, _, warm_digest) = ok_fields(&outcomes[2].response);
    assert_eq!(*warm_cache, Served::Hit, "repeat pushdown request must hit");
    assert_eq!(warm_rung, "cfa.pushdown");
    assert_eq!(cold_digest, warm_digest, "hit must be bit-identical");
    // The pushdown and 0CFA answers live under distinct keys: the 0CFA
    // request in between neither hits nor shadows the pushdown entry.
    let (cps_cache, cps_rung, _, _) = ok_fields(&outcomes[1].response);
    assert_eq!(*cps_cache, Served::Miss);
    assert_eq!(cps_rung, "cfa.cps");
    // The committed answer is the pushdown representation, and on the
    // polyvariant family it has no spurious return edges (the 0CFA rung
    // on the same program does).
    match &outcomes[0].fixpoint.as_ref().expect("answered").answer {
        CachedAnswer::CfaPushdown(sp) => {
            assert_eq!(sp.false_return_edges(), 0);
        }
        other => panic!("expected a pushdown answer, got {other:?}"),
    }
    match &outcomes[1].fixpoint.as_ref().expect("answered").answer {
        CachedAnswer::CfaCps(sc) => {
            assert!(sc.false_return_edges() > 0);
        }
        other => panic!("expected a cps answer, got {other:?}"),
    }
}

#[test]
fn unknown_analysis_gets_structured_error_naming_every_kind() {
    let service = AnalysisService::new(small_config());
    let line = r#"{"id": 41, "analysis": "cfa.magic", "program": "(add1 1)"}"#;
    let outcomes = service.run_batch(&[line]);
    match &outcomes[0].response.status {
        Status::Error { reason, detail } => {
            assert_eq!(*reason, "bad-request");
            assert!(detail.contains("unknown analysis"), "{detail}");
            for kind in ["cfa.src", "cfa.cps", "cfa.pushdown", "mfp.flat"] {
                assert!(detail.contains(kind), "{kind} missing from {detail}");
            }
        }
        other => panic!("expected bad-request, got {other:?}"),
    }
    assert_eq!(outcomes[0].response.id, 41);
    assert!(outcomes[0].fixpoint.is_none());
}
