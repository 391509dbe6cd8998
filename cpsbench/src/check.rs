//! The correctness gate. A request fails when it is unanswered or not
//! `ok`, when its answer digest disagrees with another answer for the
//! same (analysis, program), or when an in-process re-solve of a sampled
//! program disagrees with the daemon or fails certification.

use crate::client::Drive;
use cpsdfa_anf::AnfProgram;
use cpsdfa_core::cache::AnalysisKind;
use cpsdfa_core::certify::certify_answer;
use cpsdfa_service::proto::{Served, Status};
use cpsdfa_service::{AnalysisService, ServiceConfig};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Every `SAMPLE_EVERY`th distinct program is re-solved and certified.
const SAMPLE_EVERY: usize = 8;

struct Sample {
    id: u64,
    kind: AnalysisKind,
    program: Arc<str>,
    digest: u64,
}

#[derive(Default)]
pub struct Gate {
    digests: HashMap<(AnalysisKind, Arc<str>), u64>,
    samples: Vec<Sample>,
    first_session: Option<u64>,
    pub attempted: u64,
    failed_ids: BTreeSet<u64>,
    strays: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Records a failure of request `id`.
    pub fn fail(&mut self, id: u64, why: String) {
        self.failed_ids.insert(id);
        self.failures.push(format!("request {id}: {why}"));
    }

    /// Requests that failed at least one check (a stray line counts as
    /// one).
    pub fn failed(&self) -> u64 {
        self.failed_ids.len() as u64 + self.strays
    }

    /// Checks every exchange of `drive` and picks the in-process samples:
    /// every 8th distinct program, and every warm answer of the first
    /// watch session.
    pub fn observe(&mut self, drive: &Drive) {
        for line in &drive.strays {
            self.strays += 1;
            self.failures
                .push(format!("unmatched response line {line:?}"));
        }
        for x in &drive.exchanges {
            self.attempted += 1;
            let Some((_, response)) = &x.answer else {
                self.fail(x.id, "no response".to_owned());
                continue;
            };
            let (digest, cache) = match &response.status {
                Status::Ok {
                    answer_digest,
                    cache,
                    ..
                } => (*answer_digest, cache),
                other => {
                    self.fail(x.id, format!("{} not ok: {other:?}", x.req.kind.as_str()));
                    continue;
                }
            };
            if let Some(session) = x.req.session {
                self.first_session.get_or_insert(session);
            }
            let key = (x.req.kind, Arc::clone(&x.req.program));
            let distinct = self.digests.len();
            let mut sample = false;
            match self.digests.get(&key) {
                Some(&earlier) if earlier != digest => {
                    self.fail(
                        x.id,
                        format!("answer_digest {digest:016x} differs from {earlier:016x} for the same program"),
                    );
                    continue;
                }
                Some(_) => {}
                None => {
                    self.digests.insert(key, digest);
                    sample = distinct.is_multiple_of(SAMPLE_EVERY);
                }
            }
            sample |= *cache == Served::Warm && x.req.session == self.first_session;
            if sample {
                self.samples.push(Sample {
                    id: x.id,
                    kind: x.req.kind,
                    program: Arc::clone(&x.req.program),
                    digest,
                });
            }
        }
    }

    /// Re-solves every sample anew in this process (cache off,
    /// one worker), requires the daemon's digest, and certifies the
    /// answer.
    pub fn verify_in_process(&mut self) {
        let service = AnalysisService::new(ServiceConfig {
            workers: 1,
            cache_enabled: false,
            capacity_charges: u64::MAX,
            ..ServiceConfig::default()
        });
        let samples = std::mem::take(&mut self.samples);
        for chunk in samples.chunks(32) {
            let lines: Vec<String> = chunk
                .iter()
                .map(|s| {
                    crate::stream::Req {
                        kind: s.kind,
                        program: Arc::clone(&s.program),
                        session: None,
                    }
                    .line(s.id)
                })
                .collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            for (s, outcome) in chunk.iter().zip(service.run_batch(&refs)) {
                let (Status::Ok { answer_digest, .. }, Some(fixpoint)) =
                    (&outcome.response.status, &outcome.fixpoint)
                else {
                    self.fail(
                        s.id,
                        format!("in-process re-solve failed: {:?}", outcome.response.status),
                    );
                    continue;
                };
                if *answer_digest != s.digest {
                    self.fail(
                        s.id,
                        format!(
                            "daemon digest {:016x} but in-process re-solve gives {answer_digest:016x}",
                            s.digest
                        ),
                    );
                    continue;
                }
                let certified = AnfProgram::parse(&s.program)
                    .map_err(|e| format!("{e}"))
                    .and_then(|prog| {
                        certify_answer(&prog, &fixpoint.answer).map_err(|r| r.to_string())
                    });
                if let Err(why) = certified {
                    self.fail(s.id, format!("answer fails certification: {why}"));
                }
            }
        }
    }
}
