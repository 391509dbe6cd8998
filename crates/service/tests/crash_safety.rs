//! Crash-safety and certification e2e tests: the daemon's persisted cache
//! survives a restart (warm hit-rate nonzero), every class of injected
//! persistence fault is detected and healed during recovery, a poisoned
//! entry that passes every checksum is still caught (and recomputed) by
//! serve-path certification, recovery drops an entry whose answer names a
//! non-λ callee, watch sessions journal across restarts and
//! expire on the TTL, and the `health` control line reports the recovery.

use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{ArenaDigests, CacheKey, CachedAnswer, CachedFixpoint};
use cpsdfa_core::faultinject::{PersistFault, PersistFaultPlan};
use cpsdfa_core::govern::DegradationReport;
use cpsdfa_core::{cfa, AbsClo, FlatSet, PersistDir};
use cpsdfa_service::proto::{Response, Served, Status};
use cpsdfa_service::{AnalysisService, ServiceConfig};
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::build::{let_, num};
use cpsdfa_syntax::{Label, Term};
use cpsdfa_workloads::families;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A fresh per-test scratch directory under the system temp dir.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cpsdfa-crash-{}-{tag}-{:x}",
        std::process::id(),
        std::ptr::from_ref(&tag) as usize
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Single worker so batches execute in request order.
fn config(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        capacity_charges: u64::MAX / 2,
        persist_dir: Some(dir.to_path_buf()),
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

fn ok_fields(resp: &Response) -> (&Served, u64) {
    match &resp.status {
        Status::Ok {
            cache,
            answer_digest,
            ..
        } => (cache, *answer_digest),
        other => panic!("expected ok response, got {other:?} (id {})", resp.id),
    }
}

/// The digest a fresh in-memory service produces for `program` — the
/// ground truth every persisted/certified answer must match.
fn cold_digest(analysis: &str, program: &str) -> u64 {
    let service = AnalysisService::new(ServiceConfig {
        workers: 1,
        capacity_charges: u64::MAX / 2,
        ..ServiceConfig::default()
    });
    let line = request(999, analysis, program);
    let outcomes = service.run_batch(&[&line]);
    ok_fields(&outcomes[0].response).1
}

#[test]
fn restart_recovers_the_persisted_cache_and_serves_hits() {
    let dir = tmpdir("restart");
    let programs: Vec<String> = (4..8).map(|n| families::dispatch(n).to_string()).collect();

    // Cold generation: every request is a miss that spills to disk.
    {
        let service = AnalysisService::new(config(&dir));
        for (i, p) in programs.iter().enumerate() {
            let line = request(i as u64, "cfa.cps", p);
            let outcomes = service.run_batch(&[&line]);
            assert_eq!(*ok_fields(&outcomes[0].response).0, Served::Miss);
        }
    }

    // Restart: the recovered cache serves the same programs as hits, and
    // the answers are bit-identical to the pre-restart solves.
    let service = AnalysisService::new(config(&dir));
    let rec = service.recovery().expect("persist dir recovered");
    assert_eq!(rec.recovered, programs.len() as u64, "{rec:?}");
    assert_eq!(rec.dropped(), 0, "{rec:?}");
    assert!(rec.certified > 0, "recovery certifies a sample: {rec:?}");
    for (i, p) in programs.iter().enumerate() {
        let line = request(100 + i as u64, "cfa.cps", p);
        let outcomes = service.run_batch(&[&line]);
        let (cache, digest) = ok_fields(&outcomes[0].response);
        assert_eq!(
            *cache,
            Served::Hit,
            "recovered entry serves without solving"
        );
        assert_eq!(
            digest,
            cold_digest("cfa.cps", p),
            "recovered answer is bit-identical"
        );
    }
    let stats = service.cache_stats();
    assert_eq!(stats.persist_recovered, programs.len() as u64);
    assert_eq!(stats.hits, programs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A program and its edit that changes one constant: the shape every CFA
/// kind answers warm from a session's ancestor.
fn const_edit(base: Term) -> (Term, Term) {
    (
        let_("fresh", num(1), base.clone()),
        let_("fresh", num(7), base),
    )
}

#[test]
fn restarted_daemon_warm_starts_journaled_watch_sessions() {
    let dir = tmpdir("journal");
    let (base, edited) = const_edit(families::dispatch(8));

    {
        let service = AnalysisService::new(config(&dir));
        let line = session_request(1, 42, "cfa.cps", &base.to_string());
        let outcomes = service.run_batch(&[&line]);
        assert_eq!(*ok_fields(&outcomes[0].response).0, Served::Miss);
    }

    // Restart. The edited program was never solved, so a plain request
    // would miss — but the journaled session ancestor makes it warm.
    let service = AnalysisService::new(config(&dir));
    let rec = service.recovery().expect("persist dir recovered");
    assert_eq!(rec.sessions, 1, "session journal recovered: {rec:?}");
    let line = session_request(2, 42, "cfa.cps", &edited.to_string());
    let outcomes = service.run_batch(&[&line]);
    let (cache, digest) = ok_fields(&outcomes[0].response);
    assert_eq!(
        *cache,
        Served::Warm,
        "journaled ancestor warm-starts the edit"
    );
    assert_eq!(digest, cold_digest("cfa.cps", &edited.to_string()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_injected_persistence_fault_is_detected_and_healed_across_restart() {
    for fault in PersistFault::ALL {
        let dir = tmpdir(fault.as_str());
        let programs: Vec<String> = (4..7).map(|n| families::dispatch(n).to_string()).collect();
        {
            let mut cfg = config(&dir);
            // Arm the fault on the second disk commit.
            cfg.persist_faults = Some(Arc::new(PersistFaultPlan::new(fault, 2)));
            let service = AnalysisService::new(cfg);
            for (i, p) in programs.iter().enumerate() {
                let line = request(i as u64, "cfa.src", p);
                let outcomes = service.run_batch(&[&line]);
                // The fault damages the spill, never the served answer.
                let (_, digest) = ok_fields(&outcomes[0].response);
                assert_eq!(digest, cold_digest("cfa.src", p), "{fault:?}");
            }
            assert!(
                service
                    .config()
                    .persist_faults
                    .as_ref()
                    .unwrap()
                    .has_fired(),
                "{fault:?} plan armed but never fired"
            );
        }

        // Restart: recovery must detect the damaged entry (in the counter
        // matching the fault's failure mode), drop it, and re-admit the
        // rest. The dropped program re-solves to the right answer.
        let service = AnalysisService::new(config(&dir));
        let rec = *service.recovery().expect("persist dir recovered");
        match fault {
            PersistFault::KillBeforeRename => {
                assert_eq!(rec.interrupted, 1, "{fault:?}: {rec:?}");
                assert_eq!(rec.dropped(), 0, "{fault:?}: {rec:?}");
            }
            PersistFault::TruncateTail | PersistFault::BitFlip => {
                assert_eq!(rec.corrupt, 1, "{fault:?}: {rec:?}");
            }
            PersistFault::StaleKey => {
                assert_eq!(rec.stale, 1, "{fault:?}: {rec:?}");
            }
        }
        assert_eq!(
            rec.recovered,
            programs.len() as u64 - 1,
            "{fault:?}: all undamaged entries recovered: {rec:?}"
        );
        for (i, p) in programs.iter().enumerate() {
            let line = request(100 + i as u64, "cfa.src", p);
            let outcomes = service.run_batch(&[&line]);
            let (_, digest) = ok_fields(&outcomes[0].response);
            assert_eq!(
                digest,
                cold_digest("cfa.src", p),
                "{fault:?}: healed answer"
            );
        }
        // A second restart sees a clean directory: the damage was deleted.
        let service = AnalysisService::new(config(&dir));
        let rec = service.recovery().expect("persist dir recovered");
        assert_eq!(
            rec.corrupt + rec.stale + rec.interrupted,
            0,
            "{fault:?}: {rec:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn certify_on_hit_evicts_a_poisoned_entry_and_recomputes() {
    let dir = tmpdir("poison");
    let good = families::dispatch(5).to_string();
    let other = families::dispatch(9).to_string();

    // Forge an entry that defeats every syntactic check: keyed and sourced
    // as `good`, so framing, checksum, and the recovery re-digest all
    // pass — but carrying `other`'s fixpoint. Only semantic certification
    // can catch it.
    {
        let persist = PersistDir::open(&dir).unwrap();
        let mut arena = TermArena::new();
        let mut digests = ArenaDigests::new();
        let root = arena.parse(&good).unwrap();
        let digest = digests.term_digest(&arena, root);
        let key = CacheKey::new(cpsdfa_core::AnalysisKind::CfaSrc, digest);
        let wrong = cfa::zero_cfa(&AnfProgram::parse(&other).unwrap()).unwrap();
        let fixpoint =
            CachedFixpoint::new(CachedAnswer::CfaSrc(wrong), DegradationReport::default());
        assert!(persist.store(&key, &good, &fixpoint, None).unwrap());
    }

    // Recover without certification (checksum + digest only): the poison
    // is admitted — exactly the gap serve-path certification closes.
    let mut cfg = config(&dir);
    cfg.recover_certify = 0;
    cfg.certify_sample = 1;
    let service = AnalysisService::new(cfg);
    assert_eq!(service.recovery().unwrap().recovered, 1);

    // The hit is sampled, refuted, evicted from memory and disk, and the
    // request falls through to a fresh solve — the client still gets the
    // right answer.
    let line = request(1, "cfa.src", &good);
    let outcomes = service.run_batch(&[&line]);
    let (cache, digest) = ok_fields(&outcomes[0].response);
    assert_eq!(*cache, Served::Miss, "poisoned hit is never served");
    assert_eq!(digest, cold_digest("cfa.src", &good));
    let stats = service.cache_stats();
    assert_eq!(stats.certify_fail, 1);
    assert!(stats.persist_evicted_bytes > 0, "disk copy evicted too");

    // The healed entry replaced the poison on disk: a restart with full
    // certification recovers one clean entry.
    let mut cfg = config(&dir);
    cfg.recover_certify = usize::MAX;
    let service = AnalysisService::new(cfg);
    let rec = service.recovery().unwrap();
    assert_eq!((rec.recovered, rec.dropped()), (1, 0), "{rec:?}");
    let line = request(2, "cfa.src", &good);
    let outcomes = service.run_batch(&[&line]);
    assert_eq!(*ok_fields(&outcomes[0].response).0, Served::Hit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_drops_an_entry_that_names_a_non_lambda_callee() {
    let dir = tmpdir("bogus");
    let good = families::dispatch(5).to_string();

    // Forge `good`'s own answer, keyed and sourced as `good`, with a label
    // that is no λ of the program next to every real callee. The claim
    // stays closed under every flow edge, so only the comparison against
    // the least model can refute it — and it must do so without following
    // the bogus label into the program's λ table.
    {
        let persist = PersistDir::open(&dir).unwrap();
        let mut arena = TermArena::new();
        let mut digests = ArenaDigests::new();
        let root = arena.parse(&good).unwrap();
        let key = CacheKey::new(
            cpsdfa_core::AnalysisKind::CfaSrc,
            digests.term_digest(&arena, root),
        );
        let prog = AnfProgram::parse(&good).unwrap();
        let lams = prog.lambdas();
        let bogus = (0..prog.label_count())
            .map(Label::new)
            .find(|l| !lams.contains_key(l))
            .unwrap();
        let poison = |set: &FlatSet<AbsClo>| -> FlatSet<AbsClo> {
            let lie = set.iter().any(|c| matches!(c, AbsClo::Lam(_)));
            let bogus = lie.then_some(AbsClo::Lam(bogus));
            set.iter().copied().chain(bogus).collect()
        };
        let mut lie = cfa::zero_cfa(&prog).unwrap();
        for v in lie.vars.iter_mut() {
            *v = poison(v);
        }
        lie.terms = lie.terms.map(poison);
        lie.calls = Arc::new(lie.calls.map(poison));
        let fixpoint = CachedFixpoint::new(CachedAnswer::CfaSrc(lie), DegradationReport::default());
        assert!(persist.store(&key, &good, &fixpoint, None).unwrap());
    }

    // Recovery certifies every entry: the forgery is dropped, not served.
    let mut cfg = config(&dir);
    cfg.recover_certify = usize::MAX;
    let service = AnalysisService::new(cfg);
    let rec = service.recovery().unwrap();
    assert_eq!((rec.recovered, rec.dropped()), (0, 1), "{rec:?}");
    let line = request(1, "cfa.src", &good);
    let outcomes = service.run_batch(&[&line]);
    let (cache, digest) = ok_fields(&outcomes[0].response);
    assert_eq!(*cache, Served::Miss, "the dropped entry is never served");
    assert_eq!(digest, cold_digest("cfa.src", &good));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn certified_hits_and_warm_answers_count_certify_ok() {
    let dir = tmpdir("certok");
    let mut cfg = config(&dir);
    cfg.certify_sample = 1;
    let service = AnalysisService::new(cfg);
    let p = families::dispatch(6).to_string();
    let lines: Vec<String> = vec![
        request(1, "cfa.cps", &p),
        request(2, "cfa.cps", &p),
        request(3, "cfa.cps", &p),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = service.run_batch(&refs);
    assert_eq!(*ok_fields(&outcomes[1].response).0, Served::Hit);
    assert_eq!(*ok_fields(&outcomes[2].response).0, Served::Hit);
    let stats = service.cache_stats();
    assert_eq!(stats.certify_ok, 2, "both hits certified");
    assert_eq!(stats.certify_fail, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_watch_sessions_expire_on_the_ttl() {
    let mut cfg = ServiceConfig {
        workers: 1,
        capacity_charges: u64::MAX / 2,
        ..ServiceConfig::default()
    };
    cfg.session_ttl = Some(Duration::from_millis(20));
    let service = AnalysisService::new(cfg);
    let (base, edited) = const_edit(families::dispatch(8));

    let line = session_request(1, 7, "cfa.cps", &base.to_string());
    service.run_batch(&[&line]);
    std::thread::sleep(Duration::from_millis(60));

    // The ancestor expired, so the edit cannot warm-start — it solves.
    let line = session_request(2, 7, "cfa.cps", &edited.to_string());
    let outcomes = service.run_batch(&[&line]);
    assert_eq!(*ok_fields(&outcomes[0].response).0, Served::Miss);
    assert!(
        service.cache_stats().session_ttl_evictions >= 1,
        "eviction counted: {:?}",
        service.cache_stats()
    );
}

#[test]
fn health_and_stats_control_lines_report_recovery_and_certification() {
    let dir = tmpdir("health");
    {
        let service = AnalysisService::new(config(&dir));
        let line = request(1, "mfp.flat", "(let (a 1) (add1 a))");
        service.run_batch(&[&line]);
    }
    let mut cfg = config(&dir);
    cfg.certify_sample = 1;
    let service = AnalysisService::new(cfg);
    // Complete the request before issuing control lines: the feeder
    // answers `cmd` lines immediately, racing any in-flight request.
    let line = request(2, "mfp.flat", "(let (a 1) (add1 a))");
    service.run_batch(&[&line]);
    let input = "{\"cmd\": \"health\"}\n{\"cmd\": \"stats\"}\n{\"cmd\": \"shutdown\"}\n".to_owned();
    let mut output = Vec::new();
    service
        .serve(input.as_bytes(), &mut output, None)
        .expect("serve loop completes");
    let text = String::from_utf8(output).unwrap();
    let health = text
        .lines()
        .find(|l| l.contains("\"status\": \"health\""))
        .expect("health line answered in-stream");
    assert!(health.contains("\"persist\": true"), "{health}");
    assert!(health.contains("\"recovered_entries\": 1"), "{health}");
    assert!(health.contains("\"workers\": "), "{health}");
    assert!(health.contains("\"queue_depth\": "), "{health}");
    // The recovery's wall-clock time, as the report recorded it.
    let recover_ms = service.recovery().unwrap().recover_ms;
    assert!(
        health.contains(&format!("\"recover_ms\": {recover_ms}}}")),
        "{health}"
    );
    let stats = text
        .lines()
        .find(|l| l.contains("\"status\": \"stats\""))
        .expect("stats line answered in-stream");
    assert!(stats.contains("\"certify_ok\": 1"), "{stats}");
    assert!(stats.contains("\"certify_fail\": 0"), "{stats}");
    assert!(stats.contains("\"persist_recovered\": 1"), "{stats}");
    assert!(stats.contains("\"persist_corrupt\": 0"), "{stats}");
    assert!(stats.contains("\"persist_evicted_bytes\": 0"), "{stats}");
    let _ = std::fs::remove_dir_all(&dir);
}
