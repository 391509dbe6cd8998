//! Content-addressed fixpoint cache: cross-request reuse of committed
//! analysis answers.
//!
//! The experiment harness (and the `cpsdfa-service` daemon built on this
//! module) re-runs the same three analyses over large program corpora, and
//! real corpora repeat themselves: identical programs recur across
//! requests, and the hash-consed [`TermArena`] already proves how much
//! structure is shared. Before this module every repeat was re-solved from
//! scratch; with it, a repeated request is a lookup.
//!
//! # Content addressing
//!
//! A cache key is `(analysis kind, subtree digest, rung)`:
//!
//! * **kind** — which fixpoint was asked for ([`AnalysisKind`]): source
//!   0CFA, CPS 0CFA, pushdown CFA, or first-order MFP over `Flat`.
//! * **digest** — a structural 128-bit FNV-1a digest of the hash-consed
//!   [`TermArena`] subtree ([`ArenaDigests`]), memoized per [`TermId`]:
//!   because the arena hash-conses, a repeated program parses to the same
//!   `TermId` and its digest is an `O(1)` memo hit. Identifiers are hashed
//!   by *name*, so the digest is stable across arenas and processes. The
//!   byte stream fed to the hash is prefix-free: every variable-length
//!   field (identifier names) is length-prefixed, so no two distinct trees
//!   fold the same bytes, and the 128-bit width keeps even a
//!   million-program corpus far below birthday-collision territory. (FNV
//!   is not cryptographic; a shared deployment that must resist
//!   *adversarially crafted* collisions should front the service with a
//!   keyed MAC of the program text — see DESIGN.md §11.)
//! * **rung** — the [`ladder`](crate::govern::ladder) rung that produced
//!   the answer. Every rung is an analysis kind, so [`CacheKey::new`]
//!   names the kind's own rung, and an answer computed on a *degraded*
//!   rung is inserted under `CacheKey::new(answer.kind(), digest)`: it
//!   serves later requests for that lower kind and can never shadow a
//!   full-precision answer of the requested one — the soundness condition
//!   the differential suite pins down. The session journal's `warm` keys
//!   ([`CacheKey::at_rung`]) are the only other rung.
//!
//! # Eviction accounting
//!
//! Every cached value carries an `approx_bytes` estimate (same spirit as
//! [`DeltaNodes::approx_bytes`](crate::setpool::DeltaNodes::approx_bytes):
//! a cheap, capacity-aware upper-ish bound, not a malloc census). The cache
//! holds a byte ceiling and evicts least-recently-used entries until an
//! insert fits, so cache growth goes through the same memory-governance
//! discipline as live solves. An entry larger than the whole ceiling is
//! rejected outright rather than flushing the cache for one tenant.
//!
//! # Observability
//!
//! [`CacheStats`] counts hits, misses, inserts, evictions, and rejects, and
//! gauges resident bytes/entries. [`CacheStats::emit_into`] flushes them as
//! `cache.*` trace events and [`CacheStats::from_agg`] inverts that, so a
//! JSONL trace reproduces the cache report byte-for-byte
//! ([`render_cache_stats_from_agg`](crate::report::render_cache_stats_from_agg)).

pub mod persist;

pub use persist::{PersistDir, RecoveryReport};

use crate::absval::{AbsClo, AbsKont};
use crate::cfa::{CfaResult, CpsCfaResult, CpsFlow};
use crate::domain::Flat;
use crate::flatset::FlatSet;
use crate::govern::DegradationReport;
use crate::mfp::DfSummary;
use crate::pushdown::{MatchedReturn, PushdownCfaResult};
use crate::solver::SolverMode;
use crate::trace::{AggSink, TraceSink};
use cpsdfa_syntax::arena::{TermArena, TermId, TermNode, ValueId, ValueNode};
use cpsdfa_syntax::fxhash::FxHashMap;
use persist::ByteSink;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// FNV-1a
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `h`.
#[inline]
fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A running 64-bit FNV-1a hash as a [`ByteSink`]: the answer digest is
/// [`persist::put_solution`] written into one of these instead of a
/// payload buffer.
struct Fnv64(u64);

impl ByteSink for Fnv64 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 = fnv_bytes(self.0, bytes);
    }
}

// 128-bit FNV-1a: the structural program digests use the wide variant so
// cache-key collisions across a large corpus stay in birthday-bound
// territory (~2^64 programs for a 50% chance) instead of the ~2^32 a
// 64-bit key would give.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 128-bit FNV-1a over a byte slice, continuing from `h`.
#[inline]
fn fnv128_bytes(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// 128-bit FNV-1a over a `u64`, continuing from `h` (little-endian bytes —
/// a fixed-width field, so no framing is needed).
#[inline]
fn fnv128_u64(h: u128, v: u64) -> u128 {
    fnv128_bytes(h, &v.to_le_bytes())
}

/// Folds a child subtree digest: fixed-width 16 bytes, little-endian.
#[inline]
fn fnv128_child(h: u128, d: u128) -> u128 {
    fnv128_bytes(h, &d.to_le_bytes())
}

/// Folds an identifier name with a length prefix. The prefix makes the
/// overall byte stream prefix-free: without it, a name's bytes would run
/// into whatever follows (e.g. a child digest), and two different
/// name/child splits could fold identical streams.
#[inline]
fn fnv128_name(h: u128, name: &str) -> u128 {
    let h = fnv128_u64(h, name.len() as u64);
    fnv128_bytes(h, name.as_bytes())
}

// ---------------------------------------------------------------------------
// Structural arena digests
// ---------------------------------------------------------------------------

/// Memoized structural digests over a [`TermArena`]. The arena is
/// append-only and hash-consed, so digests are computed once per distinct
/// node id and shared by every request that parses to the same subtree.
#[derive(Debug, Default)]
pub struct ArenaDigests {
    terms: Vec<Option<u128>>,
    values: Vec<Option<u128>>,
}

impl ArenaDigests {
    /// A fresh, empty memo (pair it with exactly one arena).
    pub fn new() -> Self {
        ArenaDigests::default()
    }

    /// The structural digest of term `id`. Identifiers hash by name
    /// (length-prefixed) and node shapes by tag, so the digest is
    /// independent of interner state, arena insertion order, and process,
    /// and the folded byte stream is unambiguous: every node's encoding is
    /// a fixed-arity sequence of fixed-width fields once names carry their
    /// length.
    pub fn term_digest(&mut self, arena: &TermArena, id: TermId) -> u128 {
        if let Some(Some(d)) = self.terms.get(id.index()) {
            return *d;
        }
        let d = match arena.term(id).clone() {
            TermNode::Value(v) => fnv128_child(
                fnv128_bytes(FNV128_OFFSET, b"val"),
                self.value_digest(arena, v),
            ),
            TermNode::App(f, a) => {
                let h = fnv128_bytes(FNV128_OFFSET, b"app");
                let h = fnv128_child(h, self.term_digest(arena, f));
                fnv128_child(h, self.term_digest(arena, a))
            }
            TermNode::Let(x, rhs, body) => {
                let h = fnv128_bytes(FNV128_OFFSET, b"let");
                let h = fnv128_name(h, x.as_str());
                let h = fnv128_child(h, self.term_digest(arena, rhs));
                fnv128_child(h, self.term_digest(arena, body))
            }
            TermNode::If0(c, t, e) => {
                let h = fnv128_bytes(FNV128_OFFSET, b"if0");
                let h = fnv128_child(h, self.term_digest(arena, c));
                let h = fnv128_child(h, self.term_digest(arena, t));
                fnv128_child(h, self.term_digest(arena, e))
            }
            TermNode::Loop => fnv128_bytes(FNV128_OFFSET, b"loop"),
        };
        if self.terms.len() <= id.index() {
            self.terms.resize(id.index() + 1, None);
        }
        self.terms[id.index()] = Some(d);
        d
    }

    fn value_digest(&mut self, arena: &TermArena, id: ValueId) -> u128 {
        if let Some(Some(d)) = self.values.get(id.index()) {
            return *d;
        }
        let d = match arena.value(id).clone() {
            ValueNode::Num(n) => fnv128_u64(fnv128_bytes(FNV128_OFFSET, b"num"), n as u64),
            ValueNode::Var(x) => fnv128_name(fnv128_bytes(FNV128_OFFSET, b"var"), x.as_str()),
            ValueNode::Add1 => fnv128_bytes(FNV128_OFFSET, b"add1"),
            ValueNode::Sub1 => fnv128_bytes(FNV128_OFFSET, b"sub1"),
            ValueNode::Lam(x, body) => {
                let h = fnv128_bytes(FNV128_OFFSET, b"lam");
                let h = fnv128_name(h, x.as_str());
                fnv128_child(h, self.term_digest(arena, body))
            }
        };
        if self.values.len() <= id.index() {
            self.values.resize(id.index() + 1, None);
        }
        self.values[id.index()] = Some(d);
        d
    }
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Which fixpoint a cache entry answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisKind {
    /// Constraint 0CFA over the ANF source ([`crate::cfa::zero_cfa`]).
    CfaSrc,
    /// Constraint 0CFA over cps(Λ) ([`crate::cfa::zero_cfa_cps`]).
    CfaCps,
    /// Pushdown (summary-based) CFA over cps(Λ)
    /// ([`crate::pushdown::pushdown_cfa`]).
    CfaPushdown,
    /// First-order MFP over the [`Flat`] domain
    /// ([`crate::mfp::Cfg::solve_mfp`]).
    MfpFlat,
}

impl AnalysisKind {
    /// Every kind, for exhaustive sweeps (the wire round-trip test, the
    /// service admission table). The round-trip test pins this list with
    /// an exhaustive `match`, so adding a variant without extending it is
    /// a compile error there, not silent drift.
    pub const ALL: [AnalysisKind; 4] = [
        AnalysisKind::CfaSrc,
        AnalysisKind::CfaCps,
        AnalysisKind::CfaPushdown,
        AnalysisKind::MfpFlat,
    ];

    /// The wire / trace name.
    pub fn as_str(self) -> &'static str {
        match self {
            AnalysisKind::CfaSrc => "cfa.src",
            AnalysisKind::CfaCps => "cfa.cps",
            AnalysisKind::CfaPushdown => "cfa.pushdown",
            AnalysisKind::MfpFlat => "mfp.flat",
        }
    }

    /// Parses a wire name (`cfa.src` / `cfa.cps` / `cfa.pushdown` /
    /// `mfp.flat`).
    pub fn parse(s: &str) -> Option<AnalysisKind> {
        match s {
            "cfa.src" => Some(AnalysisKind::CfaSrc),
            "cfa.cps" => Some(AnalysisKind::CfaCps),
            "cfa.pushdown" => Some(AnalysisKind::CfaPushdown),
            "mfp.flat" => Some(AnalysisKind::MfpFlat),
            _ => None,
        }
    }

    /// This kind's position in [`AnalysisKind::ALL`]: the one-byte tag
    /// that opens both a persisted entry and an answer digest.
    fn tag(self) -> u8 {
        AnalysisKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind in ALL") as u8
    }

    /// The finest (full-precision) rung of this kind's canonical ladder —
    /// the rung name cold lookups address.
    pub fn full_rung(self) -> &'static str {
        self.as_str()
    }
}

/// A content address: analysis kind × structural program digest ×
/// producing rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The analysis requested.
    pub kind: AnalysisKind,
    /// Structural digest of the program ([`ArenaDigests::term_digest`]).
    pub digest: u128,
    /// The ladder rung that produced (or is asked for) the answer.
    /// `&'static str` equality/hashing is by content, so rung names from
    /// different ladders unify as expected.
    pub rung: &'static str,
}

impl CacheKey {
    /// The key a fresh request looks up: the kind's full-precision rung.
    pub fn new(kind: AnalysisKind, digest: u128) -> CacheKey {
        CacheKey {
            kind,
            digest,
            rung: kind.full_rung(),
        }
    }

    /// This key with its rung replaced: the session journal keys its
    /// entries at the `warm` rung.
    #[must_use]
    pub fn at_rung(self, rung: &'static str) -> CacheKey {
        CacheKey { rung, ..self }
    }

    /// [`CacheKey::new`] with a [`SolverMode`] argument, kept because
    /// `cpsbench/src/replay.rs` calls it.
    pub fn full(kind: AnalysisKind, _mode: SolverMode, digest: u128) -> CacheKey {
        CacheKey::new(kind, digest)
    }

    /// [`CacheKey::at_rung`] with a [`SolverMode`] argument, kept because
    /// `cpsbench/src/replay.rs` calls it to commit a degraded answer. The
    /// daemon commits that answer under [`CacheKey::new`] of its own kind
    /// instead, so on degraded traffic the two disagree on later hits.
    pub fn for_rung(
        kind: AnalysisKind,
        _mode: SolverMode,
        digest: u128,
        rung: &'static str,
    ) -> CacheKey {
        CacheKey::new(kind, digest).at_rung(rung)
    }
}

/// The former cache-side copy of [`CfaResult`]; the cache now holds the
/// result itself. Kept because `cpsbench/src/replay.rs` names it.
pub type SendCfa = CfaResult;
/// The former cache-side copy of [`CpsCfaResult`]. Kept because
/// `cpsbench/src/replay.rs` names it.
pub type SendCpsCfa = CpsCfaResult;
/// The former cache-side copy of [`PushdownCfaResult`]. Kept because
/// `cpsbench/src/replay.rs` names it.
pub type SendPushdown = PushdownCfaResult;

/// Handle-copy shims for the former mirror conversions: each clone copies
/// `Arc` handles, never a set. Kept because `cpsbench/src/replay.rs`
/// calls them.
macro_rules! replay_shims {
    ($($result:ty),*) => {$(
        impl $result {
            /// A handle copy of `r`, kept because `cpsbench/src/replay.rs`
            /// calls it.
            pub fn from_result(r: &$result) -> $result {
                r.clone()
            }

            /// A handle copy of `self`, kept because
            /// `cpsbench/src/replay.rs` calls it.
            pub fn to_result(&self) -> $result {
                self.clone()
            }
        }
    )*};
}

replay_shims!(CfaResult, CpsCfaResult, PushdownCfaResult);

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// Rough per-set bookkeeping overhead charged by the byte estimators.
/// Deliberately coarse — the estimate only has to be monotone in content
/// for eviction accounting to work. It was sized for a `BTreeSet` header
/// and leaf; a committed [`FlatSet`] costs less (its slot, reference
/// counts and elements), but the charge is kept as it was so that cache
/// residency, hits and eviction order do not depend on the set
/// representation.
const SET_OVERHEAD: u64 = 64;

fn sets_bytes<T>(sets: impl Iterator<Item = usize>) -> u64 {
    sets.map(|len| SET_OVERHEAD + (len as u64) * std::mem::size_of::<T>() as u64)
        .sum()
}

/// A committed analysis answer — the value side of the cache. Each
/// variant holds its solver's own result: the CFA results' sets are the
/// `Arc` handles their run committed, so an answer is `Send + Sync`,
/// stores each distinct set once however many variables share it, and
/// reaches the cache, the warm path and certify without being copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// Source-level 0CFA.
    CfaSrc(CfaResult),
    /// CPS-level 0CFA.
    CfaCps(CpsCfaResult),
    /// Pushdown CFA over cps(Λ).
    CfaPushdown(PushdownCfaResult),
    /// First-order MFP over [`Flat`].
    MfpFlat(DfSummary<Flat>),
}

impl CachedAnswer {
    /// The kind this answer actually is (may be coarser than the request's
    /// kind when a ladder degraded `cfa.cps → cfa.src`).
    pub fn kind(&self) -> AnalysisKind {
        match self {
            CachedAnswer::CfaSrc(_) => AnalysisKind::CfaSrc,
            CachedAnswer::CfaCps(_) => AnalysisKind::CfaCps,
            CachedAnswer::CfaPushdown(_) => AnalysisKind::CfaPushdown,
            CachedAnswer::MfpFlat(_) => AnalysisKind::MfpFlat,
        }
    }

    /// Fixpoint iterations/firings the producing run performed (0 for MFP,
    /// whose summary carries no work counter).
    pub fn iterations(&self) -> u64 {
        match self {
            CachedAnswer::CfaSrc(r) => r.iterations,
            CachedAnswer::CfaCps(r) => r.iterations,
            CachedAnswer::CfaPushdown(r) => r.iterations,
            CachedAnswer::MfpFlat(_) => 0,
        }
    }

    /// The eviction-accounting estimate for this answer. Every set slot is
    /// charged, shared or not, so the figure does not depend on how the
    /// answer's sets happen to be shared.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            CachedAnswer::CfaSrc(r) => {
                sets_bytes::<AbsClo>(r.vars.iter().map(|s| s.len()))
                    + sets_bytes::<AbsClo>(r.terms.values().map(|s| s.len()))
                    + sets_bytes::<AbsClo>(r.calls.values().map(FlatSet::len))
            }
            CachedAnswer::CfaCps(r) => {
                sets_bytes::<CpsFlow>(r.vars.iter().map(|s| s.len()))
                    + sets_bytes::<AbsKont>(r.returns.values().map(FlatSet::len))
                    + sets_bytes::<AbsClo>(r.calls.values().map(FlatSet::len))
            }
            CachedAnswer::CfaPushdown(r) => {
                sets_bytes::<CpsFlow>(r.vars.iter().map(|s| s.len()))
                    + sets_bytes::<AbsKont>(r.returns.values().map(FlatSet::len))
                    + sets_bytes::<AbsClo>(r.calls.values().map(FlatSet::len))
                    + (r.matched.len() as u64) * std::mem::size_of::<MatchedReturn>() as u64
            }
            CachedAnswer::MfpFlat(s) => {
                SET_OVERHEAD + (s.vars.len() as u64) * std::mem::size_of::<Flat>() as u64
            }
        }
    }

    /// Canonical-form digest of the *solution* — what service responses
    /// carry so clients can assert bit-identity without shipping stores.
    /// It is the 64-bit FNV-1a hash of the bytes a persisted entry stores
    /// for the solution (`persist::put_solution`), folded as they are
    /// written, so it costs a pass over the sets, not a rendering of them.
    /// Work counters (`iterations`, `summaries`) are excluded: warm and
    /// cold solves of one program differ in them while the solution does
    /// not, and equal answers must digest equal. The pushdown
    /// matched-return witnesses are part of the solution (they are what
    /// distinguishes that rung).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64(FNV_OFFSET);
        persist::put_solution(&mut h, self);
        h.0
    }
}

/// One cached fixpoint: the committed answer, the governance report of the
/// producing run, and the digests/accounting computed once at insert so the
/// warm path never re-renders.
#[derive(Debug, Clone)]
pub struct CachedFixpoint {
    /// The committed answer.
    pub answer: CachedAnswer,
    /// The producing run's [`DegradationReport`].
    pub report: DegradationReport,
    /// [`CachedAnswer::digest`], precomputed.
    pub answer_digest: u64,
    /// [`CachedAnswer::approx_bytes`], precomputed (what eviction charges).
    pub approx_bytes: u64,
}

impl CachedFixpoint {
    /// Packages an answer + report, computing the digest and byte estimate.
    pub fn new(answer: CachedAnswer, report: DegradationReport) -> CachedFixpoint {
        let answer_digest = answer.digest();
        let approx_bytes = answer.approx_bytes();
        CachedFixpoint {
            answer,
            report,
            answer_digest,
            approx_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Cumulative cache counters, emitted as `cache.*` trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted.
    pub inserts: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts refused (entry alone exceeds the ceiling, or key collision
    /// with a resident entry).
    pub rejects: u64,
    /// Resident payload bytes (estimate; gauge).
    pub bytes: u64,
    /// Resident entries (gauge).
    pub entries: u64,
    /// The configured ceiling (gauge).
    pub ceiling_bytes: u64,
    /// Served answers that passed a sampled certification check.
    pub certify_ok: u64,
    /// Served answers a certification check *refuted* (each one is an
    /// evicted-and-recomputed wrong answer that was never served).
    pub certify_fail: u64,
    /// Persisted entries re-admitted by startup recovery.
    pub persist_recovered: u64,
    /// Persisted entries dropped by recovery (framing/checksum/decode
    /// failures plus stale-key mismatches).
    pub persist_corrupt: u64,
    /// Bytes of persisted entries evicted after a failed certification.
    pub persist_evicted_bytes: u64,
    /// Watch-session ancestors evicted by the deadline-clock TTL.
    pub session_ttl_evictions: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Flushes the counters into a sink under `prefix` (conventionally
    /// `cache`): `<prefix>.hit/miss/insert/evict/reject` counters and
    /// `<prefix>.bytes/entries/ceiling_bytes` gauges.
    pub fn emit_into(&self, sink: &mut impl TraceSink, prefix: &str) {
        if !sink.enabled() {
            return;
        }
        sink.counter(&format!("{prefix}.hit"), self.hits);
        sink.counter(&format!("{prefix}.miss"), self.misses);
        sink.counter(&format!("{prefix}.insert"), self.inserts);
        sink.counter(&format!("{prefix}.evict"), self.evictions);
        sink.counter(&format!("{prefix}.reject"), self.rejects);
        sink.gauge(&format!("{prefix}.bytes"), self.bytes);
        sink.gauge(&format!("{prefix}.entries"), self.entries);
        sink.gauge(&format!("{prefix}.ceiling_bytes"), self.ceiling_bytes);
        sink.counter(&format!("{prefix}.certify.ok"), self.certify_ok);
        sink.counter(&format!("{prefix}.certify.fail"), self.certify_fail);
        sink.counter(
            &format!("{prefix}.persist.recovered"),
            self.persist_recovered,
        );
        sink.counter(&format!("{prefix}.persist.corrupt"), self.persist_corrupt);
        sink.counter(
            &format!("{prefix}.persist.evicted_bytes"),
            self.persist_evicted_bytes,
        );
        sink.counter(
            &format!("{prefix}.session.ttl_evict"),
            self.session_ttl_evictions,
        );
    }

    /// Inverts [`emit_into`](CacheStats::emit_into) from an aggregated
    /// trace — the replay path `render_cache_stats_from_agg` uses.
    pub fn from_agg(agg: &AggSink, prefix: &str) -> CacheStats {
        let c = |name: &str| agg.counter_value(&format!("{prefix}.{name}"));
        let g = |name: &str| agg.gauge_value(&format!("{prefix}.{name}"));
        CacheStats {
            hits: c("hit"),
            misses: c("miss"),
            inserts: c("insert"),
            evictions: c("evict"),
            rejects: c("reject"),
            bytes: g("bytes"),
            entries: g("entries"),
            ceiling_bytes: g("ceiling_bytes"),
            certify_ok: c("certify.ok"),
            certify_fail: c("certify.fail"),
            persist_recovered: c("persist.recovered"),
            persist_corrupt: c("persist.corrupt"),
            persist_evicted_bytes: c("persist.evicted_bytes"),
            session_ttl_evictions: c("session.ttl_evict"),
        }
    }
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

struct Entry {
    value: Arc<CachedFixpoint>,
    last_used: u64,
}

/// One watch-mode session's most recent fixpoint: the source it was
/// computed over plus the committed answer — the seed the service
/// warm-starts the session's *next* edit from (PR 9).
///
/// Ancestors live beside the content-addressed entries, keyed by session
/// id instead of program digest: an edited program has a *new* digest, so
/// the ordinary lookup can never find its predecessor.
#[derive(Debug, Clone)]
pub struct Ancestor {
    /// The analysis the session is running (the *answer's* kind — a
    /// degraded answer records the rung that actually produced it).
    pub kind: AnalysisKind,
    /// Structural digest of `source`.
    pub digest: u128,
    /// The program source the fixpoint was computed over. Stored as text,
    /// so ancestors stay `Send` and survive a restart (the session journal
    /// persists it). The service's warm path does not read it when the
    /// worker still holds the session's lowered program under `digest`;
    /// otherwise it parses and lowers this text in the worker's own arena.
    pub source: String,
    /// The committed fixpoint.
    pub fixpoint: Arc<CachedFixpoint>,
}

/// Sessions remembered at once. Ancestors are deliberately outside the
/// byte ceiling: they are the live working set of open sessions, and
/// letting bulk cache traffic evict them would silently turn every watch
/// step cold. A small count cap bounds them instead.
pub const MAX_ANCESTORS: usize = 64;

/// The content-addressed, byte-ceilinged, LRU fixpoint cache.
///
/// Values are handed out as [`Arc`]s, so a warm hit is a pointer clone —
/// no store is copied on the serve path. The struct itself is not
/// synchronized; the service wraps it in a `Mutex` (lookups and inserts
/// are O(1) + eviction, so the critical section is tiny next to a solve).
pub struct FixpointCache {
    entries: FxHashMap<CacheKey, Entry>,
    /// Session id → latest fixpoint slot for watch mode.
    ancestors: FxHashMap<u64, SessionSlot>,
    /// Deadline-clock TTL for ancestors; `None` disables expiry.
    session_ttl: Option<Duration>,
    ceiling_bytes: u64,
    bytes: u64,
    tick: u64,
    stats: CacheStats,
}

/// One watch session's slot in the ancestor side-table: LRU recency for
/// the count cap, plus a wall-clock deadline for the TTL. Every touch
/// refreshes both; a session whose deadline passes is evicted the next
/// time the table is consulted, so abandoned sessions stop pinning
/// fixpoints even though nothing ever touches them again.
struct SessionSlot {
    last_used: u64,
    deadline: Option<Instant>,
    ancestor: Arc<Ancestor>,
}

impl FixpointCache {
    /// An empty cache with an eviction ceiling of `ceiling_bytes` of
    /// estimated payload.
    pub fn new(ceiling_bytes: u64) -> FixpointCache {
        FixpointCache {
            entries: FxHashMap::default(),
            ancestors: FxHashMap::default(),
            session_ttl: None,
            ceiling_bytes,
            bytes: 0,
            tick: 0,
            stats: CacheStats {
                ceiling_bytes,
                ..CacheStats::default()
            },
        }
    }

    /// The configured ceiling.
    pub fn ceiling_bytes(&self) -> u64 {
        self.ceiling_bytes
    }

    /// Estimated resident payload bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A snapshot of the counters (gauges refreshed to current residency).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bytes: self.bytes,
            entries: self.entries.len() as u64,
            ceiling_bytes: self.ceiling_bytes,
            ..self.stats
        }
    }

    /// Looks `key` up, counting a hit or miss and refreshing LRU order.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Arc<CachedFixpoint>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admits `value` under `key`, evicting LRU entries until it fits.
    /// Returns `false` (a counted reject) when the value alone exceeds the
    /// ceiling or the key is already resident (first writer wins — two
    /// racing solves of the same program commit identical answers anyway,
    /// and keeping the first preserves its LRU position).
    ///
    /// An `Arc` is committed as-is, so a caller that is already serving
    /// the fixpoint shares it with the cache instead of copying its sets;
    /// a bare [`CachedFixpoint`] is wrapped.
    pub fn insert(&mut self, key: CacheKey, value: impl Into<Arc<CachedFixpoint>>) -> bool {
        let value = value.into();
        let cost = value.approx_bytes;
        if cost > self.ceiling_bytes || self.entries.contains_key(&key) {
            self.stats.rejects += 1;
            return false;
        }
        while self.bytes + cost > self.ceiling_bytes {
            if !self.evict_lru() {
                break;
            }
        }
        self.tick += 1;
        self.bytes += cost;
        self.stats.inserts += 1;
        self.entries.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        true
    }

    /// Evicts the least-recently-used entry; `false` if the cache is empty.
    fn evict_lru(&mut self) -> bool {
        let Some(victim) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        else {
            return false;
        };
        if let Some(entry) = self.entries.remove(&victim) {
            self.bytes = self.bytes.saturating_sub(entry.value.approx_bytes);
            self.stats.evictions += 1;
        }
        true
    }

    /// Flushes the current counter snapshot as `cache.*` events.
    pub fn emit_into(&self, sink: &mut impl TraceSink) {
        self.stats().emit_into(sink, "cache");
    }

    /// Removes the entry under `key` (a certify-failure eviction: the
    /// answer was refuted, so it must not be served again). Counted as an
    /// eviction. Returns the removed fixpoint, if one was resident.
    pub fn remove(&mut self, key: &CacheKey) -> Option<Arc<CachedFixpoint>> {
        let entry = self.entries.remove(key)?;
        self.bytes = self.bytes.saturating_sub(entry.value.approx_bytes);
        self.stats.evictions += 1;
        Some(entry.value)
    }

    /// Configures the ancestor deadline-clock TTL (`None` disables it).
    /// Applies to sessions noted from now on; existing deadlines are
    /// rewritten on their next touch.
    pub fn set_session_ttl(&mut self, ttl: Option<Duration>) {
        self.session_ttl = ttl;
    }

    /// Evicts every ancestor whose deadline has passed, counting each in
    /// `session.ttl_evict`. Called on the session-table paths, so expiry
    /// needs no background thread — an abandoned session is reaped the
    /// next time *any* session traffic consults the table.
    fn purge_expired_sessions(&mut self) {
        if self.session_ttl.is_none() {
            return;
        }
        let now = Instant::now();
        let before = self.ancestors.len();
        self.ancestors
            .retain(|_, slot| slot.deadline.is_none_or(|d| d > now));
        self.stats.session_ttl_evictions += (before - self.ancestors.len()) as u64;
    }

    /// Records `session`'s latest fixpoint, replacing any predecessor.
    /// Beyond [`MAX_ANCESTORS`] sessions, the least-recently-touched
    /// session is forgotten (its *content-addressed* entries survive —
    /// only the warm-start shortcut is lost).
    pub fn note_ancestor(&mut self, session: u64, ancestor: Ancestor) {
        self.purge_expired_sessions();
        self.tick += 1;
        let slot = SessionSlot {
            last_used: self.tick,
            deadline: self.session_ttl.map(|ttl| Instant::now() + ttl),
            ancestor: Arc::new(ancestor),
        };
        if self.ancestors.len() >= MAX_ANCESTORS && !self.ancestors.contains_key(&session) {
            if let Some(victim) = self
                .ancestors
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(s, _)| *s)
            {
                self.ancestors.remove(&victim);
            }
        }
        self.ancestors.insert(session, slot);
    }

    /// The latest fixpoint noted for `session`, refreshing its recency and
    /// TTL deadline. An expired session reads as absent.
    pub fn ancestor(&mut self, session: u64) -> Option<Arc<Ancestor>> {
        self.purge_expired_sessions();
        self.tick += 1;
        let tick = self.tick;
        let deadline = self.session_ttl.map(|ttl| Instant::now() + ttl);
        self.ancestors.get_mut(&session).map(|slot| {
            slot.last_used = tick;
            slot.deadline = deadline;
            Arc::clone(&slot.ancestor)
        })
    }

    /// Forgets `session`'s ancestor (certify refuted its fixpoint, or the
    /// client closed the session). Returns whether one was present.
    pub fn evict_session(&mut self, session: u64) -> bool {
        self.ancestors.remove(&session).is_some()
    }

    /// Sessions currently remembered.
    pub fn ancestor_count(&self) -> usize {
        self.ancestors.len()
    }

    /// Counts a passed certification check.
    pub fn note_certify_ok(&mut self) {
        self.stats.certify_ok += 1;
    }

    /// Counts a refuted certification check, optionally charging the disk
    /// bytes its eviction freed.
    pub fn note_certify_fail(&mut self, evicted_disk_bytes: u64) {
        self.stats.certify_fail += 1;
        self.stats.persist_evicted_bytes += evicted_disk_bytes;
    }

    /// Folds a startup [`RecoveryReport`] into the persistent-cache
    /// counters.
    pub fn note_recovery(&mut self, report: &RecoveryReport) {
        self.stats.persist_recovered += report.recovered;
        self.stats.persist_corrupt += report.dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfa::zero_cfa;
    use crate::labtab::LabelTable;
    use cpsdfa_anf::AnfProgram;
    use cpsdfa_syntax::Label;

    fn digest_of(src: &str) -> u128 {
        let mut arena = TermArena::new();
        let id = arena.parse(src).expect("parses");
        ArenaDigests::new().term_digest(&arena, id)
    }

    #[test]
    fn name_framing_is_prefix_free() {
        // Without the length prefix, folding "a" then "b" is byte-for-byte
        // the same stream as folding "ab" — the ambiguity class that let
        // distinct trees collide. The prefix separates them.
        let h = FNV128_OFFSET;
        assert_ne!(fnv128_name(fnv128_name(h, "a"), "b"), fnv128_name(h, "ab"));
        // And names can never be mistaken for the fixed-width fields that
        // follow them: a name whose bytes equal a child-digest prefix still
        // folds differently because its length is folded first.
        let d = fnv128_bytes(h, b"whatever");
        assert_ne!(
            fnv128_child(fnv128_name(h, "x"), d),
            fnv128_name(h, &format!("x{}", "y".repeat(16)))
        );
    }

    #[test]
    fn digests_are_structural_and_arena_independent() {
        let a = digest_of("(let (f (lambda (x) x)) (f 1))");
        let b = digest_of("(let (f (lambda (x) x)) (f 1))");
        let c = digest_of("(let (f (lambda (x) x)) (f 2))");
        assert_eq!(a, b, "same program, different arenas, same digest");
        assert_ne!(a, c, "different constants, different digests");
        // Renamed binder: structural digest distinguishes it (content
        // addressing is syntactic, not alpha-equivalent).
        let d = digest_of("(let (g (lambda (x) x)) (g 1))");
        assert_ne!(a, d);
    }

    #[test]
    fn shared_subtrees_memoize_in_one_arena() {
        let mut arena = TermArena::new();
        let a = arena.parse("(let (f (lambda (x) x)) (f 1))").unwrap();
        let b = arena.parse("(let (f (lambda (x) x)) (f 1))").unwrap();
        assert_eq!(a, b, "hash-consing gives one id");
        let mut memo = ArenaDigests::new();
        let d1 = memo.term_digest(&arena, a);
        let d2 = memo.term_digest(&arena, b);
        assert_eq!(d1, d2);
    }

    #[test]
    fn analysis_kind_wire_names_round_trip_exhaustively() {
        // The match pins exhaustiveness: adding an `AnalysisKind` variant
        // without extending `ALL` (and the wire tables) fails to compile
        // here instead of silently drifting between `as_str` and `parse`.
        for k in AnalysisKind::ALL {
            match k {
                AnalysisKind::CfaSrc
                | AnalysisKind::CfaCps
                | AnalysisKind::CfaPushdown
                | AnalysisKind::MfpFlat => {}
            }
            assert_eq!(AnalysisKind::parse(k.as_str()), Some(k), "{k:?}");
            assert_eq!(k.full_rung(), k.as_str());
        }
        // Names are pairwise distinct.
        let names: std::collections::BTreeSet<&str> =
            AnalysisKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), AnalysisKind::ALL.len());
        // Near-misses do not parse.
        for junk in ["", "cfa", "cfa.pushdownx", "cfa.cps ", "CFA.SRC", "mfp"] {
            assert_eq!(AnalysisKind::parse(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn answer_digest_ignores_schedule_dependent_work_counters() {
        // A warm step reports the same solution with different
        // `iterations` than a cold solve; the canonical digest must see
        // through that.
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a (f 1)) (f a)))").unwrap();
        let a = zero_cfa(&p).unwrap();
        let mut b = a.clone();
        b.iterations += 17;
        assert_ne!(a, b, "premise: the results differ as values");
        let fixpoint = |r: CfaResult| {
            CachedFixpoint::new(CachedAnswer::CfaSrc(r), DegradationReport::default())
        };
        assert_eq!(fixpoint(a).answer_digest, fixpoint(b).answer_digest);
        // Pushdown's summary counter is a work counter too.
        let cps = cpsdfa_cps::CpsProgram::from_anf(&p);
        let pd = crate::pushdown::pushdown_cfa(&cps).unwrap();
        let mut skewed = pd.clone();
        skewed.iterations += 5;
        skewed.summaries += 5;
        assert_eq!(
            CachedAnswer::CfaPushdown(pd).digest(),
            CachedAnswer::CfaPushdown(skewed).digest()
        );
    }

    /// One tiny answer per analysis kind, in [`AnalysisKind::ALL`] order.
    pub(super) fn tiny_answers() -> [CachedAnswer; 4] {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (let (a (f 1)) (f a)))").unwrap();
        let cps = cpsdfa_cps::CpsProgram::from_anf(&p);
        let q = AnfProgram::parse("(let (c (if0 0 1 2)) (add1 c))").unwrap();
        let cfg = crate::mfp::Cfg::from_first_order(&q).unwrap();
        [
            CachedAnswer::CfaSrc(zero_cfa(&p).unwrap()),
            CachedAnswer::CfaCps(crate::cfa::zero_cfa_cps(&cps).unwrap()),
            CachedAnswer::CfaPushdown(crate::pushdown::pushdown_cfa(&cps).unwrap()),
            CachedAnswer::MfpFlat(cfg.solve_mfp::<Flat>(cfg.initial_env(&q)).unwrap()),
        ]
    }

    #[test]
    fn answer_digests_are_pinned() {
        // Interning unrelated names first shifts every symbol index the
        // programs below receive, so a digest that leaked interner state
        // (rather than program-local labels) would move. The pinned values
        // also fail on any change to the encoding, which would silently
        // change every `answer_digest` on the wire.
        for i in 0..257 {
            cpsdfa_syntax::Ident::new(format!("unrelated_{i}"));
        }
        let digests: Vec<String> = tiny_answers()
            .iter()
            .map(|a| format!("{:016x}", a.digest()))
            .collect();
        // Eviction accounting and the persisted bytes are pinned beside
        // the digest: a representation change must leave cache residency
        // untouched, and a change to the spill format must bump persist's
        // magic. (Format 3 moved the `cfa.cps` and `cfa.pushdown` pins:
        // their continuations took the digest's tags.) `mfp.flat` stores
        // no work counter, so its persisted bytes are its solution and the
        // two pins agree.
        let bytes: Vec<u64> = tiny_answers().iter().map(|a| a.approx_bytes()).collect();
        let persisted: Vec<String> = tiny_answers()
            .iter()
            .map(|a| {
                let mut out = Vec::new();
                persist::put_answer(&mut out, a);
                format!("{:016x}", fnv_bytes(FNV_OFFSET, &out))
            })
            .collect();
        assert_eq!(
            digests,
            [
                "e9ef9741a6ca8bd7", // cfa.src
                "3453efd11f809a40", // cfa.cps
                "e4903c7375a5f7a7", // cfa.pushdown
                "c7fbb6cd1e28ccfc", // mfp.flat
            ]
        );
        assert_eq!(bytes, [936, 728, 760, 96]);
        assert_eq!(
            persisted,
            [
                "c64809a6d4840433", // cfa.src
                "c374148ae9a78ac4", // cfa.cps
                "d623b45113c2ed27", // cfa.pushdown
                "c7fbb6cd1e28ccfc", // mfp.flat
            ]
        );
        // Benchmark-sized answers: the families the benchmark streams draw
        // from, at three sizes, plus one open random program, for the three
        // CFA kinds. Unlike the tiny answers above, their sets run to
        // dozens or hundreds of elements, so a set representation that
        // reordered or re-sized them would move a pin. Each line is the
        // answer digest, `approx_bytes` and the persisted-bytes digest.
        assert_eq!(benchmark_sized_pins(), PINNED_BENCHMARK_SIZED);
    }

    /// `answer_digests_are_pinned`'s benchmark-sized lines.
    fn benchmark_sized_pins() -> Vec<String> {
        use cpsdfa_workloads::{families, random};
        let mut terms = Vec::new();
        for n in [16, 104, 192] {
            terms.push((format!("dispatch({n})"), families::dispatch(n)));
            terms.push((format!("polyvariant({n})"), families::polyvariant(n)));
            terms.push((format!("repeated_calls({n})"), families::repeated_calls(n)));
        }
        let open = random::generate(0x50CFA, &random::open_config());
        terms.push(("random(0x50CFA, open)".to_string(), open));
        let mut pins = Vec::new();
        for (name, t) in &terms {
            let p = AnfProgram::from_term(t);
            let cps = cpsdfa_cps::CpsProgram::from_anf(&p);
            for answer in [
                CachedAnswer::CfaSrc(zero_cfa(&p).unwrap()),
                CachedAnswer::CfaCps(crate::cfa::zero_cfa_cps(&cps).unwrap()),
                CachedAnswer::CfaPushdown(crate::pushdown::pushdown_cfa(&cps).unwrap()),
            ] {
                let mut out = Vec::new();
                persist::put_answer(&mut out, &answer);
                pins.push(format!(
                    "{name} {} {:016x} {} {:016x}",
                    answer.kind().as_str(),
                    answer.digest(),
                    answer.approx_bytes(),
                    fnv_bytes(FNV_OFFSET, &out)
                ));
            }
        }
        pins
    }

    const PINNED_BENCHMARK_SIZED: &[&str] = &[
        "dispatch(16) cfa.src 833a937a6483cbe4 9912 cc613a77d78100f9",
        "dispatch(16) cfa.cps 47b443260a539183 9876 ce7ba4d765561da4",
        "dispatch(16) cfa.pushdown 1e7910fea6342df4 10132 eac10c8abee377bd",
        "polyvariant(16) cfa.src b2508f3cee74b89e 19528 1a3f8b6177a1eccf",
        "polyvariant(16) cfa.cps 3165374bd1ee2623 19680 7f9f8744344e9e91",
        "polyvariant(16) cfa.pushdown dd69da7d9403f938 10592 8db10495e7270758",
        "repeated_calls(16) cfa.src 468203913659303e 4680 6b51aba0e169dfde",
        "repeated_calls(16) cfa.cps 13588842ab4f3123 2912 439baeb0d02c8151",
        "repeated_calls(16) cfa.pushdown da02206a43c8bc48 3168 453d92f753e37048",
        "dispatch(104) cfa.src 9121d2174873f2b1 172184 a2462ebcfbdac287",
        "dispatch(104) cfa.cps 6880adbce189004b 118116 8c6defb6eb98e0da",
        "dispatch(104) cfa.pushdown f307fc81d3edee30 119780 b0cbd98f01d59499",
        "polyvariant(104) cfa.src d651181f14d93948 344776 0f99d1193f5baffb",
        "polyvariant(104) cfa.cps 33c3ff93209bd337 491712 d961e22f33713727",
        "polyvariant(104) cfa.pushdown a8ba1c8b619cfdc6 66560 1420588a1d7c5911",
        "repeated_calls(104) cfa.src cb19052523ca82c5 28616 d6879f036a4fd6b5",
        "repeated_calls(104) cfa.cps 220cab3d0924587e 16640 3bbf5095b1d12294",
        "repeated_calls(104) cfa.pushdown b2e61b258c7c96ad 18304 f36fb6e994ac44ad",
        "dispatch(192) cfa.src f0f13df508ea89b7 520312 09b4b0025e5970d4",
        "dispatch(192) cfa.cps 076f0d72a5ee1d88 319284 ef7e3d73ca3bfb74",
        "dispatch(192) cfa.pushdown 2a97def2b8d7cc33 322356 925daf35a96174ab",
        "polyvariant(192) cfa.src e1dc59d540e0351f 1041736 8fc5e8a744392b65",
        "polyvariant(192) cfa.cps ded1e122b18f76ce 1583264 b0f35962fe4d281d",
        "polyvariant(192) cfa.pushdown 3e01ddc94867d155 122528 529785aca1f6efff",
        "repeated_calls(192) cfa.src 0f90f088c6ce8aa2 52552 ffd5fc0df01f753d",
        "repeated_calls(192) cfa.cps 7c56e08fca443d30 30368 6b224ea415a1f032",
        "repeated_calls(192) cfa.pushdown bbe77e5231b4af7d 33440 39d8d34fbcaddf3d",
        "random(0x50CFA, open) cfa.src aeec69e90b21b0f1 6880 8c7fd8881887d701",
        "random(0x50CFA, open) cfa.cps 696dfe3ecb828bb8 5840 92aef8c571c2613d",
        "random(0x50CFA, open) cfa.pushdown e01bda431f742897 5920 f7303fce4be1b9d8",
    ];

    #[test]
    fn answer_digest_framing_is_prefix_free() {
        // Moving an element across a set boundary, or a set across a
        // table boundary, keeps the flat element sequence but changes the
        // length prefixes, so the digests differ.
        let l = Label::new;
        let cfa = |vars: Vec<FlatSet<AbsClo>>, terms: Vec<(Label, FlatSet<AbsClo>)>| {
            CachedAnswer::CfaSrc(CfaResult {
                vars,
                terms: terms.into_iter().collect(),
                calls: Arc::new(LabelTable::new(0)),
                iterations: 0,
            })
            .digest()
        };
        let one = FlatSet::from_sorted(&[AbsClo::Lam(l(1))]);
        assert_ne!(
            cfa(vec![one.clone(), FlatSet::default()], Vec::new()),
            cfa(vec![FlatSet::default(), one.clone()], Vec::new())
        );
        assert_ne!(
            cfa(vec![one.clone()], Vec::new()),
            cfa(Vec::new(), vec![(l(1), FlatSet::default())])
        );
        // Kinds never collide, even on the empty solution.
        let empty: Vec<u64> = AnalysisKind::ALL
            .iter()
            .map(|k| match k {
                AnalysisKind::CfaSrc => cfa(Vec::new(), Vec::new()),
                AnalysisKind::CfaCps => CachedAnswer::CfaCps(CpsCfaResult {
                    vars: Vec::new(),
                    returns: LabelTable::new(0),
                    calls: LabelTable::new(0),
                    iterations: 0,
                })
                .digest(),
                AnalysisKind::CfaPushdown => CachedAnswer::CfaPushdown(PushdownCfaResult {
                    vars: Vec::new(),
                    returns: LabelTable::new(0),
                    calls: LabelTable::new(0),
                    matched: FlatSet::default(),
                    summaries: 0,
                    iterations: 0,
                })
                .digest(),
                AnalysisKind::MfpFlat => {
                    CachedAnswer::MfpFlat(DfSummary { vars: Vec::new() }).digest()
                }
            })
            .collect();
        let distinct: std::collections::BTreeSet<u64> = empty.iter().copied().collect();
        assert_eq!(distinct.len(), empty.len());
    }

    #[test]
    fn insert_commits_the_served_arc() {
        let [answer, ..] = tiny_answers();
        let served = Arc::new(CachedFixpoint::new(answer, DegradationReport::default()));
        let mut cache = FixpointCache::new(u64::MAX);
        let key = CacheKey::new(AnalysisKind::CfaSrc, 5);
        assert!(cache.insert(key, Arc::clone(&served)));
        assert!(Arc::ptr_eq(&cache.lookup(&key).unwrap(), &served));
        assert_eq!(cache.resident_bytes(), served.approx_bytes);
    }

    #[test]
    fn lru_evicts_oldest_first_and_accounts_bytes() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let value = || {
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            )
        };
        let one = value().approx_bytes;
        assert!(one > 0);
        // Room for exactly two entries.
        let mut cache = FixpointCache::new(2 * one);
        let key = |d: u128| CacheKey::new(AnalysisKind::CfaSrc, d);
        assert!(cache.insert(key(1), value()));
        assert!(cache.insert(key(2), value()));
        assert_eq!(cache.len(), 2);
        // Touch key 1 so key 2 is LRU.
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.insert(key(3), value()));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key(2)).is_none(), "LRU victim evicted");
        assert!(cache.lookup(&key(1)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.bytes, 2 * one);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn oversized_and_duplicate_inserts_are_rejected() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let value = || {
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            )
        };
        let one = value().approx_bytes;
        let mut tiny = FixpointCache::new(one / 2);
        let key = CacheKey::new(AnalysisKind::CfaSrc, 7);
        assert!(!tiny.insert(key, value()), "entry alone exceeds ceiling");
        assert!(tiny.is_empty());
        let mut cache = FixpointCache::new(10 * one);
        assert!(cache.insert(key, value()));
        assert!(!cache.insert(key, value()), "first writer wins");
        assert_eq!(cache.stats().rejects, 1);
    }

    #[test]
    fn degraded_rung_key_never_shadows_the_full_key() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        // A cfa.cps request answered at cfa.src commits under cfa.src.
        let degraded = CacheKey::new(AnalysisKind::CfaSrc, 42);
        assert_ne!(degraded, CacheKey::new(AnalysisKind::CfaCps, 42));
        cache.insert(
            degraded,
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            ),
        );
        assert!(
            cache
                .lookup(&CacheKey::new(AnalysisKind::CfaCps, 42))
                .is_none(),
            "full-precision lookup must miss a degraded-rung entry"
        );
        assert!(cache.lookup(&degraded).is_some());
    }

    #[test]
    fn remove_frees_bytes_and_counts_an_eviction() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        let key = CacheKey::new(AnalysisKind::CfaSrc, 11);
        cache.insert(
            key,
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            ),
        );
        assert!(cache.remove(&key).is_some());
        assert!(cache.remove(&key).is_none());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().evictions, 1);
        // The key is insertable again — eviction must not poison it.
        assert!(cache.insert(
            key,
            CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            ),
        ));
    }

    fn dummy_ancestor(fresh: &crate::cfa::CfaResult) -> Ancestor {
        Ancestor {
            kind: AnalysisKind::CfaSrc,
            digest: 1,
            source: String::new(),
            fixpoint: Arc::new(CachedFixpoint::new(
                CachedAnswer::CfaSrc(fresh.clone()),
                DegradationReport::default(),
            )),
        }
    }

    #[test]
    fn expired_sessions_are_reaped_and_counted() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let hour = Duration::from_secs(3600);
        let mut cache = FixpointCache::new(u64::MAX);
        cache.set_session_ttl(Some(hour));
        cache.note_ancestor(1, dummy_ancestor(&fresh));
        assert!(cache.ancestor(1).is_some(), "fresh session is warm");
        // A zero TTL puts the deadline at the touch itself, so the session
        // has expired by the next consultation: the clock never runs
        // backwards.
        cache.set_session_ttl(Some(Duration::ZERO));
        assert!(
            cache.ancestor(1).is_some(),
            "the touch rewrites the deadline"
        );
        assert!(cache.ancestor(1).is_none(), "expired session reads cold");
        assert_eq!(cache.ancestor_count(), 0);
        assert_eq!(cache.stats().session_ttl_evictions, 1);
        // A touch within the TTL refreshes the deadline. Pull the noted
        // deadline in, as if most of the TTL had passed; the touch then
        // restarts the full TTL from the touch.
        cache.set_session_ttl(Some(hour));
        cache.note_ancestor(2, dummy_ancestor(&fresh));
        let deadline = |cache: &FixpointCache| cache.ancestors[&2].deadline.unwrap();
        let near = Instant::now() + Duration::from_secs(1);
        cache.ancestors.get_mut(&2).unwrap().deadline = Some(near);
        let touched = Instant::now();
        assert!(cache.ancestor(2).is_some());
        assert!(deadline(&cache) > near, "refreshed deadline moves forward");
        assert!(deadline(&cache) >= touched + hour);
        assert_eq!(cache.stats().session_ttl_evictions, 1);
    }

    #[test]
    fn without_a_ttl_sessions_never_expire() {
        let p = AnfProgram::parse("(let (f (lambda (x) x)) (f f))").unwrap();
        let fresh = zero_cfa(&p).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        cache.note_ancestor(1, dummy_ancestor(&fresh));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(cache.ancestor(1).is_some());
        assert!(cache.evict_session(1));
        assert!(!cache.evict_session(1));
        assert!(cache.ancestor(1).is_none());
        assert_eq!(cache.stats().session_ttl_evictions, 0);
    }

    #[test]
    fn stats_round_trip_through_a_trace_agg() {
        let mut stats = CacheStats {
            hits: 5,
            misses: 3,
            inserts: 3,
            evictions: 1,
            rejects: 2,
            bytes: 4096,
            entries: 2,
            ceiling_bytes: 1 << 20,
            certify_ok: 9,
            certify_fail: 1,
            persist_recovered: 4,
            persist_corrupt: 2,
            persist_evicted_bytes: 512,
            session_ttl_evictions: 3,
        };
        let mut agg = AggSink::new();
        stats.emit_into(&mut agg, "cache");
        assert_eq!(CacheStats::from_agg(&agg, "cache"), stats);
        stats.hits += 1;
        assert_ne!(CacheStats::from_agg(&agg, "cache"), stats);
    }
}
