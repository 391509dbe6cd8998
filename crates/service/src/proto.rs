//! The service wire protocol: JSONL requests in, JSONL responses out.
//!
//! One request per line, one response per line, correlated by `id`
//! (responses may arrive out of order — the worker pool completes
//! whichever request finishes first). Three control lines drive the
//! daemon: `{"cmd": "stats"}` reports the cache/admission counters once
//! every earlier request has been answered, `{"cmd": "health"}` answers
//! at once, and `{"cmd": "shutdown"}` drains the queue and exits.

use crate::json::{self, Scalar};
use cpsdfa_core::cache::AnalysisKind;
use cpsdfa_core::SolverMode;

/// A parsed analysis request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Which fixpoint to run.
    pub kind: AnalysisKind,
    /// The program source (the same s-expression syntax every front end in
    /// the workspace parses).
    pub program: String,
    /// Always [`SolverMode::Seq`]. Kept because `cpsbench/src/replay.rs`
    /// reads it.
    pub mode: SolverMode,
    /// The request named a `par` engine (`"par"` or `"par:K"`), which is
    /// accepted and ignored: every request runs on the one engine.
    pub mode_ignored: bool,
    /// Per-rung goal budget.
    pub budget: u64,
    /// Whole-request cumulative charge cap, if the client set one.
    pub request_budget: Option<u64>,
    /// Wall-clock allowance in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Watch-mode session id, if the client opened one. Requests sharing a
    /// session id are treated as an edit stream: the daemon remembers each
    /// answered fixpoint and warm-starts the next request of the session
    /// from it (PR 9), falling back to the ordinary governed ladder when
    /// the edit is not warm-eligible.
    pub session: Option<u64>,
}

/// Why a line could not even be turned into a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub struct BadRequest {
    /// The id, when one could be recovered from the malformed line.
    pub id: Option<u64>,
    /// The wire reason: `parse-error` when the line is not a JSON object,
    /// `bad-request` when the object's fields do not make a request.
    pub reason: &'static str,
    /// Human-readable reason.
    pub detail: String,
}

impl BadRequest {
    /// A line that is not a JSON object.
    pub fn unparsable(detail: String) -> Self {
        BadRequest {
            id: None,
            reason: "parse-error",
            detail,
        }
    }
}

impl Request {
    /// Parses one request line, filling unspecified knobs from the
    /// defaults: [`json::parse_object`] followed by
    /// [`Request::from_fields`].
    pub fn decode(
        line: &str,
        default_budget: u64,
        default_deadline_ms: Option<u64>,
    ) -> Result<Request, BadRequest> {
        let fields = json::parse_object(line).map_err(BadRequest::unparsable)?;
        Request::from_fields(fields, default_budget, default_deadline_ms)
    }

    /// Builds a request from a parsed line's fields, filling unspecified
    /// knobs from the defaults. A field that is absent is reported
    /// missing; a field (or knob) that is present with the wrong JSON type
    /// is a bad request naming the field; unknown fields are ignored. The
    /// program text is moved out of `fields`, not copied.
    ///
    /// `"mode"` is optional. Besides `"seq"`, it accepts `"par"` and
    /// `"par:K"` (K ≥ 1) and ignores them. Any other value is a bad
    /// request.
    pub fn from_fields(
        mut fields: Vec<(String, Scalar)>,
        default_budget: u64,
        default_deadline_ms: Option<u64>,
    ) -> Result<Request, BadRequest> {
        let id = json::field(&fields, "id")
            .and_then(Scalar::as_u64)
            .ok_or_else(|| BadRequest {
                id: None,
                reason: "bad-request",
                detail: "missing or non-integer \"id\"".to_owned(),
            })?;
        let fail = |detail: String| BadRequest {
            id: Some(id),
            reason: "bad-request",
            detail,
        };
        // A field that is present but mistyped is refused, never defaulted.
        let typed = |name: &str, expected: &str| fail(format!("\"{name}\" must be {expected}"));
        let kind_name = match json::field(&fields, "analysis") {
            None => return Err(fail("missing \"analysis\"".to_owned())),
            Some(v) => v.as_str().ok_or_else(|| typed("analysis", "a string"))?,
        };
        let kind = AnalysisKind::parse(kind_name).ok_or_else(|| {
            // The expected-list is derived from `AnalysisKind::ALL`, so a
            // new kind can never be missing from this message.
            let expected: Vec<&str> = AnalysisKind::ALL.iter().map(|k| k.as_str()).collect();
            fail(format!(
                "unknown analysis {kind_name:?} (expected one of: {})",
                expected.join(", ")
            ))
        })?;
        let program = match fields.iter_mut().find(|(k, _)| k == "program") {
            None => return Err(fail("missing \"program\"".to_owned())),
            Some((_, Scalar::Str(text))) => std::mem::take(text),
            Some(_) => return Err(typed("program", "a string")),
        };
        let uint = |name: &str| match json::field(&fields, name) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| typed(name, "an unsigned integer")),
        };
        let mode = match json::field(&fields, "mode") {
            None => None,
            Some(v) => Some(v.as_str().ok_or_else(|| typed("mode", "a string"))?),
        };
        let mode_ignored = match mode {
            None | Some("seq") => false,
            Some("par") => true,
            Some(m) => match m.strip_prefix("par:").and_then(|k| k.parse::<usize>().ok()) {
                Some(k) if k > 0 => true,
                _ => {
                    return Err(fail(format!(
                        "bad mode {m:?} (expected seq, par, or par:K)"
                    )))
                }
            },
        };
        let budget = uint("budget")?.unwrap_or(default_budget);
        let request_budget = uint("request_budget")?;
        let deadline_ms = uint("deadline_ms")?.or(default_deadline_ms);
        let session = uint("session")?;
        Ok(Request {
            id,
            kind,
            program,
            mode: SolverMode::Seq,
            mode_ignored,
            budget,
            request_budget,
            deadline_ms,
            session,
        })
    }

    /// [`Request::decode`] with a worker-count argument, kept because
    /// `cpsbench/src/replay.rs` calls it.
    pub fn parse(
        line: &str,
        default_budget: u64,
        default_deadline_ms: Option<u64>,
        _default_workers: usize,
    ) -> Result<Request, BadRequest> {
        Request::decode(line, default_budget, default_deadline_ms)
    }
}

/// How a completed request was served.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    /// Answered from the content-addressed cache without touching the
    /// solver.
    Hit,
    /// Solved fresh (and, when caching is on, committed to the cache).
    Miss,
    /// Reused the session's previous fixpoint: the edit changed only
    /// constants or names (only names, for MFP), so nothing was solved.
    /// The answer is bit-identical to a fresh solve (and committed to the
    /// cache under the same key a fresh solve would use).
    Warm,
    /// Solved fresh with the cache disabled.
    Off,
}

impl Served {
    /// The wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Served::Hit => "hit",
            Served::Miss => "miss",
            Served::Warm => "warm",
            Served::Off => "off",
        }
    }
}

/// The outcome payload of a response.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// The request was answered.
    Ok {
        /// Cache disposition.
        cache: Served,
        /// The ladder rung that produced the answer.
        rung: &'static str,
        /// Whether a fallback rung (not the finest) answered.
        degraded: bool,
        /// FNV-1a digest of the answer's canonical form — what clients
        /// compare for bit-identity without shipping whole stores.
        answer_digest: u64,
        /// Fixpoint iterations the producing run performed (0 on MFP).
        iterations: u64,
        /// Charges the request consumed across all rungs (0 on a hit).
        charged: u64,
    },
    /// Admission control refused the request before queuing.
    Rejected {
        /// One of [`Status::REJECT_REASONS`].
        reason: &'static str,
    },
    /// The request was admitted but could not be answered.
    Error {
        /// One of [`Status::ERROR_REASONS`].
        reason: &'static str,
        /// Human-readable specifics.
        detail: String,
    },
}

impl Status {
    /// Every reason a `rejected` response gives.
    pub const REJECT_REASONS: [&'static str; 2] = ["queue-full", "over-capacity"];

    /// Every reason an `error` response gives: `too-deep` means the program
    /// nests deeper than [`MAX_DEPTH`](cpsdfa_syntax::parse::MAX_DEPTH), and
    /// `parse-error` is any other program or line that does not parse.
    pub const ERROR_REASONS: [&'static str; 5] = [
        "parse-error",
        "too-deep",
        "bad-request",
        "not-first-order",
        "analysis-failed",
    ];
}

/// The listed reason equal to `reason`, as the `&'static str` the
/// [`Status`] fields hold.
fn intern(reason: &str, known: &[&'static str]) -> Option<&'static str> {
    known.iter().copied().find(|&r| r == reason)
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id (0 when the line was too malformed to
    /// carry one).
    pub id: u64,
    /// Wall-clock service latency for this request, microseconds
    /// (admission rejections report the admission check's latency).
    pub latency_us: u64,
    /// What happened.
    pub status: Status,
}

impl Response {
    /// Renders the response as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"id\": {}", self.id);
        match &self.status {
            Status::Ok {
                cache,
                rung,
                degraded,
                answer_digest,
                iterations,
                charged,
            } => {
                out.push_str(&format!(
                    ", \"status\": \"ok\", \"cache\": \"{}\", \"rung\": \"{}\", \
                     \"degraded\": {}, \"answer_digest\": \"{:016x}\", \
                     \"iterations\": {}, \"charged\": {}",
                    cache.as_str(),
                    json::escape(rung),
                    degraded,
                    answer_digest,
                    iterations,
                    charged
                ));
            }
            Status::Rejected { reason } => {
                out.push_str(&format!(
                    ", \"status\": \"rejected\", \"reason\": \"{reason}\""
                ));
            }
            Status::Error { reason, detail } => {
                out.push_str(&format!(
                    ", \"status\": \"error\", \"reason\": \"{reason}\", \"detail\": \"{}\"",
                    json::escape(detail)
                ));
            }
        }
        out.push_str(&format!(", \"latency_us\": {}}}", self.latency_us));
        out
    }

    /// Parses a response line back (the inverse of
    /// [`to_json`](Response::to_json)) — used by the smoke test that
    /// replays a recorded session and by clients written against this
    /// crate.
    pub fn parse(line: &str) -> Result<Response, String> {
        let fields = json::parse_object(line)?;
        let get_str = |name: &str| {
            json::field(&fields, name)
                .and_then(Scalar::as_str)
                .ok_or_else(|| format!("missing string field {name:?}"))
        };
        let get_u64 = |name: &str| {
            json::field(&fields, name)
                .and_then(Scalar::as_u64)
                .ok_or_else(|| format!("missing integer field {name:?}"))
        };
        let id = get_u64("id")?;
        let latency_us = get_u64("latency_us")?;
        let status = match get_str("status")? {
            "ok" => Status::Ok {
                cache: match get_str("cache")? {
                    "hit" => Served::Hit,
                    "miss" => Served::Miss,
                    "warm" => Served::Warm,
                    "off" => Served::Off,
                    other => return Err(format!("unknown cache disposition {other:?}")),
                },
                rung: {
                    let rung = get_str("rung")?;
                    AnalysisKind::parse(rung)
                        .map(AnalysisKind::as_str)
                        .ok_or_else(|| format!("unknown rung {rung:?}"))?
                },
                degraded: json::field(&fields, "degraded")
                    .and_then(Scalar::as_bool)
                    .ok_or("missing \"degraded\"")?,
                answer_digest: u64::from_str_radix(get_str("answer_digest")?, 16)
                    .map_err(|e| format!("bad answer_digest: {e}"))?,
                iterations: get_u64("iterations")?,
                charged: get_u64("charged")?,
            },
            "rejected" => {
                let reason = get_str("reason")?;
                Status::Rejected {
                    reason: intern(reason, &Status::REJECT_REASONS)
                        .ok_or_else(|| format!("unknown rejection reason {reason:?}"))?,
                }
            }
            "error" => {
                let reason = get_str("reason")?;
                Status::Error {
                    reason: intern(reason, &Status::ERROR_REASONS)
                        .ok_or_else(|| format!("unknown error reason {reason:?}"))?,
                    detail: get_str("detail")?.to_owned(),
                }
            }
            other => return Err(format!("unknown status {other:?}")),
        };
        Ok(Response {
            id,
            latency_us,
            status,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_defaults_and_overrides() {
        let line = r#"{"id": 3, "analysis": "cfa.cps", "program": "(f 1)"}"#;
        let req = Request::decode(line, 50_000, Some(100)).unwrap();
        assert_eq!(req.id, 3);
        assert_eq!(req.kind, AnalysisKind::CfaCps);
        assert!(!req.mode_ignored);
        assert_eq!(req.budget, 50_000);
        assert_eq!(req.deadline_ms, Some(100));
        let line = r#"{"id": 4, "analysis": "mfp.flat", "program": "1", "mode": "par:2",
                       "budget": 9, "request_budget": 12, "deadline_ms": 5}"#;
        let req = Request::decode(line, 50_000, None).unwrap();
        assert_eq!(req.mode, SolverMode::Seq, "par:K is accepted and ignored");
        assert!(req.mode_ignored);
        assert_eq!(req.budget, 9);
        assert_eq!(req.request_budget, Some(12));
        assert_eq!(req.deadline_ms, Some(5));
    }

    #[test]
    fn bad_requests_carry_the_id_when_recoverable() {
        let err = Request::decode(r#"{"id": 9, "analysis": "nope", "program": "x"}"#, 1, None)
            .unwrap_err();
        assert_eq!(err.id, Some(9));
        assert!(err.detail.contains("unknown analysis"));
        // The expected-kind list in the message is generated from
        // `AnalysisKind::ALL`: every wire name is advertised.
        for k in AnalysisKind::ALL {
            assert!(
                err.detail.contains(k.as_str()),
                "{:?} missing from {:?}",
                k.as_str(),
                err.detail
            );
        }
        let err = Request::decode("not json", 1, None).unwrap_err();
        assert_eq!(err.id, None);
        // Only seq, par and par:K (K ≥ 1) name an engine.
        for mode in ["turbo", "par:0", "par:", "par:x", "SEQ"] {
            let line =
                format!(r#"{{"id": 10, "analysis": "cfa.src", "program": "1", "mode": "{mode}"}}"#);
            let err = Request::decode(&line, 1, None).unwrap_err();
            assert_eq!(err.id, Some(10), "{mode}");
            assert!(err.detail.contains("bad mode"), "{mode}: {}", err.detail);
        }
    }

    #[test]
    fn mistyped_fields_are_bad_requests_naming_the_field() {
        for (field, value) in [
            ("budget", r#""2""#),
            ("budget", "true"),
            ("request_budget", r#""12""#),
            ("deadline_ms", r#""0""#),
            ("session", r#""7""#),
            ("session", "false"),
            ("mode", "2"),
        ] {
            let line = format!(
                r#"{{"id": 12, "analysis": "cfa.src", "program": "1", "{field}": {value}}}"#
            );
            let err = Request::decode(&line, 50_000, None).unwrap_err();
            assert_eq!(err.id, Some(12), "{field}: {value}");
            assert!(
                err.detail.contains(&format!("\"{field}\"")),
                "{field}: {value}: {}",
                err.detail
            );
        }
        // The request's own string fields: a mistyped one is not missing.
        for (line, detail) in [
            (
                r#"{"id": 12, "analysis": "cfa.src", "program": 5}"#,
                r#""program" must be a string"#,
            ),
            (
                r#"{"id": 12, "analysis": true, "program": "1"}"#,
                r#""analysis" must be a string"#,
            ),
            (
                r#"{"id": 12, "analysis": "cfa.src"}"#,
                r#"missing "program""#,
            ),
            (r#"{"id": 12, "program": "1"}"#, r#"missing "analysis""#),
        ] {
            let err = Request::decode(line, 50_000, None).unwrap_err();
            let want = BadRequest {
                id: Some(12),
                reason: "bad-request",
                detail: detail.to_owned(),
            };
            assert_eq!(err, want, "{line}");
        }
        // Unknown fields stay accepted, whatever their type.
        let line = r#"{"id": 13, "analysis": "cfa.src", "program": "1", "hint": "2", "x": 1}"#;
        assert!(Request::decode(line, 50_000, None).is_ok());
    }

    #[test]
    fn pushdown_requests_parse() {
        let line = r#"{"id": 11, "analysis": "cfa.pushdown", "program": "(f 1)", "mode": "par:2"}"#;
        let req = Request::decode(line, 50_000, None).unwrap();
        assert_eq!(req.kind, AnalysisKind::CfaPushdown);
        assert!(req.mode_ignored);
        // The answering rung names survive a response round trip.
        for rung in ["cfa.pushdown", "cfa.cps", "cfa.src"] {
            let resp = Response {
                id: 11,
                latency_us: 7,
                status: Status::Ok {
                    cache: Served::Miss,
                    rung,
                    degraded: rung != "cfa.pushdown",
                    answer_digest: 1,
                    iterations: 2,
                    charged: 3,
                },
            };
            assert_eq!(Response::parse(&resp.to_json()).unwrap(), resp);
        }
    }

    #[test]
    fn a_response_naming_an_unknown_rung_is_a_decode_error() {
        let ok = Response {
            id: 4,
            latency_us: 9,
            status: Status::Ok {
                cache: Served::Miss,
                rung: "cfa.src",
                degraded: false,
                answer_digest: 5,
                iterations: 6,
                charged: 7,
            },
        }
        .to_json();
        assert!(Response::parse(&ok).is_ok());
        for unknown in ["warm", "cfa.kcfa", ""] {
            let line = ok.replace("\"rung\": \"cfa.src\"", &format!("\"rung\": \"{unknown}\""));
            assert_eq!(
                Response::parse(&line),
                Err(format!("unknown rung {unknown:?}")),
                "{line}"
            );
        }
    }

    #[test]
    fn every_rejection_and_error_reason_round_trips() {
        let statuses = Status::REJECT_REASONS
            .iter()
            .map(|&reason| Status::Rejected { reason })
            .chain(Status::ERROR_REASONS.iter().map(|&reason| Status::Error {
                reason,
                detail: format!("{reason} detail"),
            }));
        for status in statuses {
            let resp = Response {
                id: 8,
                latency_us: 2,
                status,
            };
            assert_eq!(Response::parse(&resp.to_json()), Ok(resp.clone()));
        }
        let line =
            r#"{"id": 1, "latency_us": 0, "status": "error", "reason": "nope", "detail": ""}"#;
        assert_eq!(
            Response::parse(line),
            Err("unknown error reason \"nope\"".to_owned())
        );
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response {
                id: 1,
                latency_us: 420,
                status: Status::Ok {
                    cache: Served::Hit,
                    rung: "cfa.cps",
                    degraded: false,
                    answer_digest: 0xdead_beef_0042_1137,
                    iterations: 17,
                    charged: 0,
                },
            },
            Response {
                id: 2,
                latency_us: 3,
                status: Status::Rejected {
                    reason: "queue-full",
                },
            },
            Response {
                id: 3,
                latency_us: 55,
                status: Status::Error {
                    reason: "analysis-failed",
                    detail: "budget exhausted (1000 goals)".to_owned(),
                },
            },
        ] {
            let line = resp.to_json();
            assert_eq!(Response::parse(&line).unwrap(), resp, "line: {line}");
        }
    }
}
