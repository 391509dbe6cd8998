//! The traced replay: the daemon's request path re-run in this process,
//! call for call, with a span around every call into a layer.
//!
//! [`Replay::request`] mirrors `cpsdfad`'s per-request work: the feeder's
//! `Request::parse`, the worker's `run_job` + `handle` (parse → digest →
//! probe → (certify) → lower → warm start or ladder → insert → spill), and
//! the writer's `Response::to_json`. The governed ladders are assembled
//! here from the same public rung functions the `governed_*` functions use,
//! so that lowering to CPS is timed apart from solving. Benchmark daemons
//! always run with the cache on and benchmark requests never set `mode`,
//! so the cache-off path and the `Par` engine-retry rungs are not
//! mirrored. A unit test holds the replay's digests and cache
//! dispositions equal to `AnalysisService::run_batch`'s.

use crate::trace::{self_times, span, Tracer};
use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::{
    AnalysisKind, Ancestor, ArenaDigests, CacheKey, CacheStats, CachedAnswer, CachedFixpoint,
    FixpointCache, PersistDir, SendCfa, SendCpsCfa, SendPushdown,
};
use cpsdfa_core::certify::certify_answer;
use cpsdfa_core::domain::Flat;
use cpsdfa_core::govern::{
    CfaAnswer, DegradationLadder, DegradationReport, GovernPolicy, RungAttempt,
};
use cpsdfa_core::incremental::{self, WarmReport, WarmSolve};
use cpsdfa_core::mfp::Cfg;
use cpsdfa_core::trace::TraceSink;
use cpsdfa_core::{cfa, pushdown, AggSink, AnalysisBudget, RunGuard};
use cpsdfa_cps::CpsProgram;
use cpsdfa_service::proto::{BadRequest, Request, Response, Served, Status};
use cpsdfa_service::ServiceConfig;
use cpsdfa_syntax::arena::{TermArena, TermId};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Work counted at the layer boundaries, per replayed request.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub requests: u64,
    pub nodes_added: u64,
    pub lookups: u64,
    pub hits: u64,
    pub labels: u64,
    pub solves: u64,
    pub charged: u64,
    pub degraded: u64,
    pub warm_attempts: u64,
    pub warm_answers: u64,
    pub warm_cold: u64,
    pub fired: u64,
    pub certify_ok: u64,
    pub certify_fail: u64,
    pub stores: u64,
}

/// One single-worker daemon, replayed in process.
pub struct Replay {
    config: ServiceConfig,
    arena: TermArena,
    digests: ArenaDigests,
    cache: FixpointCache,
    persist: Option<PersistDir>,
    certify_seq: u64,
    pub tr: Tracer,
    pub counts: Counts,
    /// Startup recovery: entries re-admitted and wall time.
    pub recovered: u64,
    pub recover_time: Duration,
}

impl Replay {
    /// Mirrors `AnalysisService::new`: recovers the spill directory (when
    /// configured) into the cache before the first request.
    pub fn new(config: ServiceConfig) -> io::Result<Replay> {
        let mut cache = FixpointCache::new(config.cache_bytes);
        cache.set_session_ttl(config.session_ttl);
        let t = Instant::now();
        let (persist, recovered) = match &config.persist_dir {
            Some(dir) => {
                let p = PersistDir::open(dir)?;
                let report = p.recover(&mut cache, config.recover_certify);
                cache.note_recovery(&report);
                (Some(p), report.recovered)
            }
            None => (None, 0),
        };
        Ok(Replay {
            recover_time: t.elapsed(),
            config,
            arena: TermArena::new(),
            digests: ArenaDigests::new(),
            cache,
            persist,
            certify_seq: 0,
            tr: Tracer::new(),
            counts: Counts::default(),
            recovered,
        })
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Replays one request line as the daemon serves it.
    pub fn request(&mut self, id: u64, line: &str) -> Result<Response, BadRequest> {
        self.tr.set_request(id);
        self.counts.requests += 1;
        let root = self.tr.begin("req");
        let parsed = span!(
            self.tr,
            "proto.decode",
            Request::parse(
                line,
                self.config.default_budget,
                self.config.default_deadline_ms,
                self.config.workers,
            )
        );
        let req = match parsed {
            Ok(req) => req,
            Err(bad) => {
                self.tr.end(root);
                return Err(bad);
            }
        };
        let mut agg = AggSink::new();
        agg.gauge("service.queue_wait_us", 0);
        let handle = self.tr.begin("service.handle");
        let response = self.handle(&req, &mut agg);
        self.tr.end(handle);
        span!(
            self.tr,
            "proto.encode",
            std::hint::black_box(response.to_json())
        );
        self.tr.end(root);
        Ok(response)
    }

    fn should_certify(&mut self) -> bool {
        let n = self.config.certify_sample;
        n > 0 && {
            self.certify_seq += 1;
            self.certify_seq.is_multiple_of(n)
        }
    }

    fn policy_for(req: &Request) -> GovernPolicy {
        let mut policy = GovernPolicy::new()
            .with_budget(AnalysisBudget::new(req.budget))
            .with_solver_mode(req.mode);
        if let Some(cap) = req.request_budget {
            policy = policy.with_request_budget(cap);
        }
        if let Some(ms) = req.deadline_ms {
            policy = policy.with_deadline(Duration::from_millis(ms));
        }
        policy
    }

    /// `arena.to_term` then `AnfProgram::from_term`, as the miss and
    /// certify paths do.
    fn lower(&mut self, root: TermId) -> AnfProgram {
        let term = span!(self.tr, "lower.to_term", self.arena.to_term(root));
        let prog = span!(self.tr, "lower.anf", AnfProgram::from_term(&term));
        span!(self.tr, "lower.to_term", drop(term));
        self.counts.labels += u64::from(prog.label_count());
        prog
    }

    fn spill(&mut self, key: &CacheKey, source: &str, fixpoint: &CachedFixpoint) {
        if let Some(persist) = &self.persist {
            span!(self.tr, "persist.store", {
                let _ = persist.store(key, source, fixpoint, None);
            });
            self.counts.stores += 1;
        }
    }

    fn note_session(
        &mut self,
        session: u64,
        req: &Request,
        digest: u128,
        fixpoint: &Arc<CachedFixpoint>,
    ) {
        let ancestor = Ancestor {
            kind: fixpoint.answer.kind(),
            digest,
            source: req.program.clone(),
            fixpoint: Arc::clone(fixpoint),
        };
        if let Some(persist) = &self.persist {
            span!(self.tr, "persist.store", {
                let _ = persist.store_session(session, &ancestor, None);
            });
        }
        span!(
            self.tr,
            "cache.insert",
            self.cache.note_ancestor(session, ancestor)
        );
    }

    fn handle(&mut self, req: &Request, sink: &mut AggSink) -> Response {
        let start = Instant::now();
        let finish = |status: Status| Response {
            id: req.id,
            latency_us: start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            status,
        };

        let nodes = self.arena.num_nodes();
        let root = match span!(self.tr, "arena.parse", self.arena.parse(&req.program)) {
            Ok(root) => root,
            Err(e) => {
                return finish(Status::Error {
                    reason: "parse-error",
                    detail: e.to_string(),
                })
            }
        };
        self.counts.nodes_added += (self.arena.num_nodes() - nodes) as u64;
        let digest = span!(
            self.tr,
            "cache.digest",
            self.digests.term_digest(&self.arena, root)
        );
        let full_key = CacheKey::full(req.kind, req.mode, digest);

        self.counts.lookups += 1;
        if let Some(hit) = span!(self.tr, "cache.lookup", self.cache.lookup(&full_key)) {
            let refuted = self.should_certify() && {
                let prog = self.lower(root);
                match span!(self.tr, "certify", certify_answer(&prog, &hit.answer)) {
                    Ok(_) => {
                        self.cache.note_certify_ok();
                        sink.counter("service.certify.ok", 1);
                        self.counts.certify_ok += 1;
                        false
                    }
                    Err(refutation) => {
                        let disk = self.persist.as_ref().map_or(0, |p| p.remove(&full_key));
                        self.cache.remove(&full_key);
                        self.cache.note_certify_fail(disk);
                        sink.counter("service.certify.fail", 1);
                        sink.counter(&format!("service.certify.refuted.{}", refutation.tag()), 1);
                        self.counts.certify_fail += 1;
                        true
                    }
                }
            };
            if !refuted {
                self.counts.hits += 1;
                sink.counter("service.hit", 1);
                if let Some(session) = req.session {
                    self.note_session(session, req, digest, &hit);
                }
                return finish(Status::Ok {
                    cache: Served::Hit,
                    rung: full_key.rung,
                    degraded: false,
                    answer_digest: hit.answer_digest,
                    iterations: hit.answer.iterations(),
                    charged: 0,
                });
            }
        }

        let prog = self.lower(root);

        'warm: {
            let Some(session) = req.session else {
                break 'warm;
            };
            let Some((answer, warm, charged)) = self.session_warm(req, session, &prog, sink) else {
                break 'warm;
            };
            if self.should_certify() {
                if let Err(refutation) = span!(self.tr, "certify", certify_answer(&prog, &answer)) {
                    self.cache.evict_session(session);
                    self.cache.note_certify_fail(0);
                    if let Some(persist) = &self.persist {
                        persist.remove_session(session);
                    }
                    sink.counter("service.certify.fail", 1);
                    sink.counter(&format!("service.certify.refuted.{}", refutation.tag()), 1);
                    self.counts.certify_fail += 1;
                    break 'warm;
                }
                self.cache.note_certify_ok();
                sink.counter("service.certify.ok", 1);
                self.counts.certify_ok += 1;
            }
            self.counts.warm_answers += 1;
            self.counts.fired += warm.fired;
            sink.counter("service.warm", 1);
            sink.counter("service.warm.fired", warm.fired);
            let report = DegradationReport {
                attempts: vec![RungAttempt {
                    rung: "warm",
                    error: None,
                    charged,
                }],
                resource: None,
                residual_budget: req.budget.saturating_sub(charged),
                elapsed_ns: start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            };
            let fixpoint = span!(
                self.tr,
                "cache.answer_digest",
                Arc::new(CachedFixpoint::new(answer, report))
            );
            span!(
                self.tr,
                "cache.insert",
                self.cache.insert(full_key, (*fixpoint).clone())
            );
            self.spill(&full_key, &req.program, &fixpoint);
            self.note_session(session, req, digest, &fixpoint);
            return finish(Status::Ok {
                cache: Served::Warm,
                rung: full_key.rung,
                degraded: false,
                answer_digest: fixpoint.answer_digest,
                iterations: fixpoint.answer.iterations(),
                charged,
            });
        }

        let policy = Self::policy_for(req);
        let mode = policy.solver_mode();
        let pack_cfa = |answer: CfaAnswer| match answer {
            CfaAnswer::Pushdown(r) => CachedAnswer::CfaPushdown(SendPushdown::from_result(&r)),
            CfaAnswer::Cps(r) => CachedAnswer::CfaCps(SendCpsCfa::from_result(&r)),
            CfaAnswer::Direct(r) => CachedAnswer::CfaSrc(SendCfa::from_result(&r)),
        };
        let src_rung = |g: &RunGuard, mut sink: &mut dyn TraceSink| {
            Ok(CfaAnswer::Direct(
                cfa::zero_cfa_guarded(&prog, g, &mut sink)?.0,
            ))
        };
        let governed = match req.kind {
            AnalysisKind::CfaPushdown => {
                let cps = span!(self.tr, "lower.cps", CpsProgram::from_anf(&prog));
                span!(self.tr, "solve", {
                    let guard = policy.guard();
                    DegradationLadder::new()
                        .rung(
                            "cfa.pushdown",
                            |g: &RunGuard, mut sink: &mut dyn TraceSink| {
                                Ok(CfaAnswer::Pushdown(
                                    pushdown::pushdown_cfa_guarded_mode(&cps, mode, g, &mut sink)?
                                        .0,
                                ))
                            },
                        )
                        .rung("cfa.cps", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
                            Ok(CfaAnswer::Cps(
                                cfa::zero_cfa_cps_guarded_mode(&cps, mode, g, &mut sink)?.0,
                            ))
                        })
                        .rung("cfa.src", src_rung)
                        .run(&guard, sink)
                        .map(|g| (pack_cfa(g.value), g.report))
                })
            }
            AnalysisKind::CfaCps => {
                let cps = span!(self.tr, "lower.cps", CpsProgram::from_anf(&prog));
                span!(self.tr, "solve", {
                    let guard = policy.guard();
                    DegradationLadder::new()
                        .rung("cfa.cps", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
                            Ok(CfaAnswer::Cps(
                                cfa::zero_cfa_cps_guarded_mode(&cps, mode, g, &mut sink)?.0,
                            ))
                        })
                        .rung("cfa.src", src_rung)
                        .run(&guard, sink)
                        .map(|g| (pack_cfa(g.value), g.report))
                })
            }
            AnalysisKind::CfaSrc => span!(self.tr, "solve", {
                let guard = policy.guard();
                DegradationLadder::new()
                    .rung("cfa.src", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
                        Ok(cfa::zero_cfa_guarded_mode(&prog, mode, g, &mut sink)?.0)
                    })
                    .run(&guard, sink)
                    .map(|g| {
                        (
                            CachedAnswer::CfaSrc(SendCfa::from_result(&g.value)),
                            g.report,
                        )
                    })
            }),
            AnalysisKind::MfpFlat => {
                let cfg = match span!(self.tr, "solve", Cfg::from_first_order(&prog)) {
                    Ok(cfg) => cfg,
                    Err(e) => {
                        return finish(Status::Error {
                            reason: "not-first-order",
                            detail: e.to_string(),
                        })
                    }
                };
                span!(self.tr, "solve", {
                    let init = cfg.initial_env::<Flat>(&prog);
                    let guard = policy.guard();
                    DegradationLadder::new()
                        .rung("mfp.flat", |g: &RunGuard, mut sink: &mut dyn TraceSink| {
                            Ok(cfg
                                .solve_mfp_guarded_mode::<Flat>(init.clone(), mode, g, &mut sink)?
                                .0)
                        })
                        .run(&guard, sink)
                        .map(|g| (CachedAnswer::MfpFlat(g.value), g.report))
                })
            }
        };

        let (answer, report) = match governed {
            Ok(pair) => pair,
            Err(e) => {
                sink.counter("service.failed", 1);
                return finish(Status::Error {
                    reason: "analysis-failed",
                    detail: e.to_string(),
                });
            }
        };
        sink.counter("service.solve", 1);
        let degraded = report.degraded();
        let rung = report.answered_by().unwrap_or(req.kind.full_rung());
        let charged: u64 = report.attempts.iter().map(|a| a.charged).sum();
        self.counts.solves += 1;
        self.counts.charged += charged;
        self.counts.degraded += u64::from(degraded);
        let fixpoint = span!(
            self.tr,
            "cache.answer_digest",
            Arc::new(CachedFixpoint::new(answer, report))
        );
        let commit_key = CacheKey::for_rung(req.kind, req.mode, digest, rung);
        span!(
            self.tr,
            "cache.insert",
            self.cache.insert(commit_key, (*fixpoint).clone())
        );
        self.spill(&commit_key, &req.program, &fixpoint);
        if let Some(session) = req.session {
            self.note_session(session, req, digest, &fixpoint);
        }
        finish(Status::Ok {
            cache: Served::Miss,
            rung,
            degraded,
            answer_digest: fixpoint.answer_digest,
            iterations: fixpoint.answer.iterations(),
            charged,
        })
    }

    /// Mirrors the daemon's `session_warm`: the session's remembered
    /// fixpoint seeds an incremental solve of the edited program.
    fn session_warm(
        &mut self,
        req: &Request,
        session: u64,
        prog: &AnfProgram,
        sink: &mut AggSink,
    ) -> Option<(CachedAnswer, WarmReport, u64)> {
        let anc = self.cache.ancestor(session)?;
        if anc.kind != req.kind || anc.fixpoint.answer.kind() != req.kind {
            return None;
        }
        self.counts.warm_attempts += 1;
        let old = span!(self.tr, "lower.anf", AnfProgram::parse(&anc.source)).ok()?;
        let guard = Self::policy_for(req).guard();
        let warm = match &anc.fixpoint.answer {
            CachedAnswer::CfaSrc(prev) => span!(self.tr, "warm", {
                match incremental::zero_cfa_incremental(&old, &prev.to_result(), prog, &guard, sink)
                {
                    Ok(WarmSolve::Warm(result, report)) => {
                        Some((CachedAnswer::CfaSrc(SendCfa::from_result(&result)), report))
                    }
                    _ => None,
                }
            }),
            CachedAnswer::CfaCps(prev) => {
                let old_cps = span!(self.tr, "lower.cps", CpsProgram::from_anf(&old));
                let new_cps = span!(self.tr, "lower.cps", CpsProgram::from_anf(prog));
                span!(self.tr, "warm", {
                    match incremental::zero_cfa_cps_incremental(
                        &old_cps,
                        &prev.to_result(),
                        &new_cps,
                        &guard,
                        sink,
                    ) {
                        Ok(WarmSolve::Warm(result, report)) => Some((
                            CachedAnswer::CfaCps(SendCpsCfa::from_result(&result)),
                            report,
                        )),
                        _ => None,
                    }
                })
            }
            CachedAnswer::CfaPushdown(prev) => {
                let old_cps = span!(self.tr, "lower.cps", CpsProgram::from_anf(&old));
                let new_cps = span!(self.tr, "lower.cps", CpsProgram::from_anf(prog));
                span!(self.tr, "warm", {
                    match incremental::pushdown_cfa_incremental(
                        &old_cps,
                        &prev.to_result(),
                        &new_cps,
                        &guard,
                        sink,
                    ) {
                        Ok(WarmSolve::Warm(result, report)) => Some((
                            CachedAnswer::CfaPushdown(SendPushdown::from_result(&result)),
                            report,
                        )),
                        _ => None,
                    }
                })
            }
            CachedAnswer::MfpFlat(prev) => span!(
                self.tr,
                "warm",
                incremental::solve_mfp_incremental(&old, prev, prog)
                    .map(|(summary, report)| (CachedAnswer::MfpFlat(summary), report))
            ),
        };
        if warm.is_none() {
            self.counts.warm_cold += 1;
        }
        warm.map(|(answer, report)| (answer, report, guard.total_spent()))
    }
}

/// Span names whose self time is reported as `<layer>` per request, in
/// the order the metrics print.
pub const LAYERS: [(&str, &str); 14] = [
    ("proto.decode", "proto.decode_us"),
    ("proto.encode", "proto.encode_us"),
    ("arena.parse", "arena.parse_us"),
    ("cache.digest", "cache.digest_us"),
    ("cache.lookup", "cache.lookup_us"),
    ("cache.answer_digest", "cache.answer_digest_us"),
    ("cache.insert", "cache.insert_us"),
    ("lower.to_term", "lower.to_term_us"),
    ("lower.anf", "lower.anf_us"),
    ("lower.cps", "lower.cps_us"),
    ("solve", "solve.us"),
    ("warm", "warm.us"),
    ("certify", "certify.us"),
    ("persist.store", "persist.store_us"),
];

/// Per-layer totals of a replay, restricted to requests with id ≥
/// `first_id` (earlier requests only rebuild the daemon's state).
pub struct LayerTimes {
    /// Self time per span name, nanoseconds.
    pub self_ns: HashMap<&'static str, u64>,
    /// Per request: the time its handle span spent inside layer spans.
    pub attributed_ns: Vec<u64>,
}

pub fn layer_times(tr: &Tracer, first_id: u64) -> LayerTimes {
    let spans = tr.spans();
    let own = self_times(spans);
    let mut self_ns: HashMap<&'static str, u64> = HashMap::new();
    let mut attributed_ns = Vec::new();
    for (s, t) in spans.iter().zip(&own) {
        if s.req < first_id {
            continue;
        }
        *self_ns.entry(s.name).or_default() += t;
        if s.name == "service.handle" {
            attributed_ns.push((s.end_ns - s.start_ns) - t);
        }
    }
    LayerTimes {
        self_ns,
        attributed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{copy_dir, service_config};
    use crate::stream::{Shape, Stream, Workload};
    use cpsdfa_service::AnalysisService;

    /// Removes a test directory however the test ends.
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn digest_and_disposition(r: &Response) -> (u64, &'static str, &'static str) {
        match &r.status {
            Status::Ok {
                answer_digest,
                cache,
                rung,
                ..
            } => (*answer_digest, cache.as_str(), rung),
            other => panic!("request {} not ok: {other:?}", r.id),
        }
    }

    #[test]
    fn replay_matches_run_batch_on_every_workload() {
        for w in Workload::ALL {
            let set = Stream::untimed_set(w, 1, Shape::SMALL);
            let mut id = 0;
            let mut line = |r: &crate::stream::Req| {
                id += 1;
                r.line(id)
            };
            let set_lines: Vec<String> = set.iter().map(&mut line).collect();
            let mut streams = Stream::clients(w, 1, Shape::SMALL, &set);
            let lanes = streams.len();
            let stream: Vec<String> = (0..200)
                .map(|i| {
                    line(
                        &streams[i % lanes]
                            .next()
                            .expect("client streams are endless"),
                    )
                })
                .collect();

            let tmp = TempDir(std::env::temp_dir().join(format!(
                "cpsbench-replay-{}-{}",
                std::process::id(),
                w.name()
            )));
            let (theirs_dir, mine_dir) = (tmp.0.join("daemon"), tmp.0.join("replay"));
            let mut lines: Vec<&str> = stream.iter().map(String::as_str).collect();
            let persist = w == Workload::PersistRestart;
            if persist {
                let refs: Vec<&str> = set_lines.iter().map(String::as_str).collect();
                AnalysisService::new(service_config(Some(theirs_dir.clone()), 0)).run_batch(&refs);
                copy_dir(&theirs_dir, &mine_dir).unwrap();
            } else if w == Workload::HotHit {
                lines = set_lines.iter().map(String::as_str).chain(lines).collect();
            }
            let certify = w.certify_sample();
            // run_batch admits the whole batch at once; lift admission
            // control, which never changes an answer.
            let service = AnalysisService::new(ServiceConfig {
                capacity_charges: u64::MAX,
                max_queue: usize::MAX,
                ..service_config(persist.then(|| theirs_dir.clone()), certify)
            });
            let mut replay =
                Replay::new(service_config(persist.then(|| mine_dir.clone()), certify)).unwrap();

            let mut seen = std::collections::BTreeMap::<&str, usize>::new();
            for (line, outcome) in lines.iter().zip(service.run_batch(&lines)) {
                let mine = replay.request(outcome.response.id, line).unwrap();
                let theirs = digest_and_disposition(&outcome.response);
                assert_eq!(
                    digest_and_disposition(&mine),
                    theirs,
                    "{}: {line}",
                    w.name()
                );
                *seen.entry(theirs.1).or_default() += 1;
            }
            // The same lookups, inserts, evictions and certifications.
            assert_eq!(replay.cache_stats(), service.cache_stats(), "{}", w.name());
            // Each workload takes the path it exists for.
            match w {
                Workload::ColdMiss => assert_eq!(seen.get("miss"), Some(&lines.len())),
                Workload::HotHit => assert_eq!(seen.get("hit"), Some(&stream.len())),
                Workload::WatchEdits => {
                    assert!(seen.get("warm").is_some_and(|&n| n > 20), "{seen:?}")
                }
                Workload::PersistRestart => {
                    assert!(seen.get("hit").is_some_and(|&n| n > 50), "{seen:?}");
                    assert!(replay.counts.certify_ok > 0 && replay.counts.stores > 0);
                    assert_eq!(replay.recovered, set.len() as u64);
                }
            }
        }
    }
}
