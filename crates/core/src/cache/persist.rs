//! Crash-safe disk persistence for the [`FixpointCache`].
//!
//! The in-memory cache (and every watch session's warm-start ancestor)
//! evaporates on process death; this module spills both to a directory so
//! a restarted daemon recovers its working set instead of going cold. The
//! design budget is strict: **a torn, truncated, bit-flipped, or
//! mis-keyed entry must never become a served answer.** Three layers
//! enforce that, each catching what the previous cannot:
//!
//! 1. **Atomic commit** — every entry is written to a `.tmp` file in the
//!    same directory and `rename`d into place, so a crash leaves either
//!    the old state or the new one, never a half-written entry. Stray
//!    `.tmp` files (a crash between write and rename) are swept and
//!    counted at recovery.
//! 2. **Checksummed framing** — an entry is `magic ∥ len ∥ payload ∥
//!    fnv128(payload)`: an 8-byte magic, a little-endian `u64` payload
//!    length, the length-prefixed payload itself, and a 128-bit FNV-1a
//!    checksum over the payload (the same hash family as the cache's
//!    structural digests). Truncation breaks the length frame; corruption
//!    breaks the checksum; both drop the entry at recovery.
//! 3. **Semantic validation** — the payload carries the *source text*
//!    alongside the key and answer. Recovery parses it once and
//!    re-derives the structural digest: a mismatch against the stored key
//!    means the entry answers some other program (a stale or mis-keyed
//!    write) and it is dropped. For a sample of surviving entries the same
//!    parsed root is lowered, as the daemon lowers a request, and the
//!    answer pushed through
//!    [`certify_answer`](crate::certify::certify_answer), so even a
//!    checksum-valid entry whose *answer* is wrong for its own source is
//!    caught before it can be served. (The daemon's `--certify` sampling
//!    extends the same check to the serve path.)
//!
//! Decoding is strict as well as bounds-checked: a set's elements must
//! come strictly ascending, as the encoder writes them from a sorted
//! [`FlatSet`], so the bytes of a recovered entry describe exactly one
//! answer, and a validated run is copied straight into its set's slice.
//! Within one answer each distinct per-variable or per-term set is built
//! once, and every later set with the same bytes shares its handle. Recovery validates files on several
//! threads, then admits the survivors one by one in sorted order, so what
//! a start recovers does not depend on how many threads it had.
//!
//! The daemon answers before its spill is durable: it hands each write to
//! one spill-writer thread, which calls [`PersistDir::store`] and
//! [`PersistDir::store_session`] as they stand. So a crash loses at most
//! the spills still queued (each a later miss), never a torn or wrong
//! entry: every write that does land went through the layers above.
//!
//! The checksum guards against *accidental* corruption; like the cache's
//! content digests it is not cryptographic, and a deployment that must
//! resist adversarial tampering of the spill directory needs an
//! authenticated store (DESIGN.md §11's caveat applies to disk too).
//!
//! Fault injection: [`PersistDir::store`] and
//! [`PersistDir::store_session`] accept an optional [`PersistFault`]
//! poked from a shared
//! [`PersistFaultPlan`](crate::faultinject::PersistFaultPlan) — the E23
//! chaos harness and the persistence tests drive every recovery path
//! above through the real writer instead of hand-crafting broken files.

use super::{
    fnv128_bytes, AnalysisKind, Ancestor, ArenaDigests, CacheKey, CachedAnswer, CachedFixpoint,
    FixpointCache, FNV128_OFFSET,
};
use crate::absval::{AbsClo, AbsKont};
use crate::cfa::{CfaResult, CpsCfaResult, CpsFlow};
use crate::domain::Flat;
use crate::faultinject::PersistFault;
use crate::flatset::FlatSet;
use crate::govern::{DegradationReport, RungAttempt};
use crate::labtab::LabelTable;
use crate::mfp::DfSummary;
use crate::pushdown::{MatchedReturn, PushdownCfaResult};
use crate::solver::worker_count;
use cpsdfa_anf::AnfProgram;
use cpsdfa_syntax::arena::{TermArena, TermId};
use cpsdfa_syntax::fxhash::FxHashMap;
use cpsdfa_syntax::Label;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// File magic: module name + format version, newline-terminated so a
/// `head -c8` of an entry is self-describing. Version 2 dropped the engine
/// shard count from the key; version 3 writes continuations with the
/// answer digest's tags (3/4) and a CPS flow value without a tag of its
/// own. Entries of an older version fail to unframe and are swept as
/// corrupt.
const MAGIC: &[u8; 8] = b"CPSDFA3\n";

/// The rung a persisted key carries: an analysis kind's name, or `warm`
/// for a session journal entry. Interning back to `&'static str` keeps
/// [`CacheKey`]'s content-equality semantics; an unknown rung means the
/// entry was written by an incompatible build and is dropped as corrupt
/// rather than leaked into the key space.
fn intern_rung(name: &str) -> Option<&'static str> {
    match name {
        "warm" => Some("warm"),
        _ => AnalysisKind::parse(name).map(AnalysisKind::as_str),
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------
//
// A small, explicit binary codec: every variable-length field is
// count-prefixed with a little-endian u64, every scalar has a fixed width,
// and every enum is a tag byte — so the payload is prefix-free and the
// decoder can bounds-check each read against the framed length. The
// encoder writes into any [`ByteSink`]: a payload buffer here, the answer
// digest's FNV-1a fold in [`CachedAnswer::digest`].

/// Where the encoder's bytes go.
pub(super) trait ByteSink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

fn put_u32(out: &mut impl ByteSink, v: u32) {
    out.put(&v.to_le_bytes());
}

fn put_u64(out: &mut impl ByteSink, v: u64) {
    out.put(&v.to_le_bytes());
}

fn put_u128(out: &mut impl ByteSink, v: u128) {
    out.put(&v.to_le_bytes());
}

fn put_str(out: &mut impl ByteSink, s: &str) {
    put_u64(out, s.len() as u64);
    out.put(s.as_bytes());
}

fn put_label(out: &mut impl ByteSink, l: Label) {
    put_u32(out, l.index());
}

// Closure tags (0–2) and continuation tags (3–4) are disjoint, so a
// `CpsFlow` needs no tag of its own: it is its inner value's encoding.

fn put_clo<S: ByteSink>(out: &mut S, c: AbsClo) {
    match c {
        AbsClo::Inc => out.put(&[0]),
        AbsClo::Dec => out.put(&[1]),
        AbsClo::Lam(l) => {
            out.put(&[2]);
            put_label(out, l);
        }
    }
}

fn put_kont<S: ByteSink>(out: &mut S, k: AbsKont) {
    match k {
        AbsKont::Stop => out.put(&[3]),
        AbsKont::Co(l) => {
            out.put(&[4]);
            put_label(out, l);
        }
    }
}

fn put_flow<S: ByteSink>(out: &mut S, f: CpsFlow) {
    match f {
        CpsFlow::Clo(c) => put_clo(out, c),
        CpsFlow::Kont(k) => put_kont(out, k),
    }
}

fn put_flat(out: &mut impl ByteSink, v: Flat) {
    match v {
        Flat::Bot => out.put(&[0]),
        Flat::Const(n) => {
            out.put(&[1]);
            out.put(&n.to_le_bytes());
        }
        Flat::Top => out.put(&[2]),
    }
}

fn put_set<S: ByteSink, T: Copy>(out: &mut S, set: &FlatSet<T>, put: &impl Fn(&mut S, T)) {
    put_u64(out, set.len() as u64);
    for &v in set {
        put(out, v);
    }
}

fn put_sets<S: ByteSink, T: Copy>(out: &mut S, sets: &[FlatSet<T>], put: impl Fn(&mut S, T)) {
    put_u64(out, sets.len() as u64);
    for set in sets {
        put_set(out, set, &put);
    }
}

fn put_table<S: ByteSink, T: Copy>(
    out: &mut S,
    table: &LabelTable<FlatSet<T>>,
    put: impl Fn(&mut S, T),
) {
    put_u64(out, table.len() as u64);
    for (l, set) in table.iter() {
        put_label(out, l);
        put_set(out, set, &put);
    }
}

/// An answer's solution: its kind's index in [`AnalysisKind::ALL`], then
/// every relation in a fixed order — per-variable sets, label tables
/// (label, set) in ascending label order, and for pushdown the matched
/// returns as four labels each. Every `Vec`, set and table is prefixed by
/// its length, every [`Label`] is its index as a `u32`, and every value is
/// a tag byte plus a fixed-width payload, so no two distinct solutions
/// write the same bytes. Widths and byte order are spelled out (never
/// `usize` or native endianness) and labels are program-local, so the
/// bytes — and the digest folded from them — are the same on every
/// platform and in every process.
pub(super) fn put_solution<S: ByteSink>(out: &mut S, answer: &CachedAnswer) {
    out.put(&[answer.kind().tag()]);
    match answer {
        CachedAnswer::CfaSrc(r) => {
            put_sets(out, &r.vars, put_clo);
            put_table(out, &r.terms, put_clo);
            put_table(out, &r.calls, put_clo);
        }
        CachedAnswer::CfaCps(r) => {
            put_sets(out, &r.vars, put_flow);
            put_table(out, &r.returns, put_kont);
            put_table(out, &r.calls, put_clo);
        }
        CachedAnswer::CfaPushdown(r) => {
            put_sets(out, &r.vars, put_flow);
            put_table(out, &r.returns, put_kont);
            put_table(out, &r.calls, put_clo);
            put_u64(out, r.matched.len() as u64);
            for m in &r.matched {
                put_label(out, m.ret_site);
                put_label(out, m.callee);
                put_label(out, m.call_site);
                put_label(out, m.cont);
            }
        }
        CachedAnswer::MfpFlat(s) => {
            put_u64(out, s.vars.len() as u64);
            for &v in &s.vars {
                put_flat(out, v);
            }
        }
    }
}

/// A persisted answer: its solution, then the producing run's work
/// counters, which the digest leaves out.
pub(super) fn put_answer(out: &mut Vec<u8>, answer: &CachedAnswer) {
    put_solution(out, answer);
    match answer {
        CachedAnswer::CfaSrc(r) => put_u64(out, r.iterations),
        CachedAnswer::CfaCps(r) => put_u64(out, r.iterations),
        CachedAnswer::CfaPushdown(r) => {
            put_u64(out, r.summaries);
            put_u64(out, r.iterations);
        }
        CachedAnswer::MfpFlat(_) => {}
    }
}

/// An entry's payload: the key, the source text, then the answer.
fn put_entry_payload(out: &mut Vec<u8>, key: &CacheKey, source: &str, fixpoint: &CachedFixpoint) {
    out.push(key.kind.tag());
    put_u128(out, key.digest);
    put_str(out, key.rung);
    put_str(out, source);
    put_answer(out, &fixpoint.answer);
}

// ---------------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------------

/// A bounds-checked read cursor; every decode error collapses to `None`
/// and the entry is counted corrupt.
struct Cur<'a> {
    b: &'a [u8],
    p: usize,
}

/// The sets one answer has decoded so far, keyed on their encoded bytes
/// (count prefix included), plus the element buffer each set is read
/// into. The encoding is injective, so equal bytes are an equal set: a
/// repeat costs a scan and a byte hash, not a tree build, and shares the
/// first copy's handle the way the solver's commit shares equal sets. (An
/// unkeyed hash suffices: the directory is the daemon's own, and nothing
/// here defends it against a writer who could craft collisions; see the
/// module docs.)
struct SeenSets<'a, T> {
    by_bytes: FxHashMap<&'a [u8], FlatSet<T>>,
    buf: Vec<T>,
}

impl<T> SeenSets<'_, T> {
    fn new() -> Self {
        SeenSets {
            by_bytes: FxHashMap::default(),
            buf: Vec::new(),
        }
    }
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.p.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.p..end];
        self.p = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A count prefix for items that each encode in at least `width`
    /// bytes. A count the remaining bytes could not hold is corruption,
    /// so no corrupt length can pre-size an allocation beyond what the
    /// entry itself encodes.
    fn count(&mut self, width: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n.checked_mul(width)? <= self.b.len() - self.p).then_some(n)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    fn label(&mut self) -> Option<Label> {
        Some(Label::new(self.u32()?))
    }

    fn clo(&mut self) -> Option<AbsClo> {
        match self.u8()? {
            0 => Some(AbsClo::Inc),
            1 => Some(AbsClo::Dec),
            2 => Some(AbsClo::Lam(self.label()?)),
            _ => None,
        }
    }

    /// A continuation; a closure tag here is corruption.
    fn kont(&mut self) -> Option<AbsKont> {
        match self.u8()? {
            3 => Some(AbsKont::Stop),
            4 => Some(AbsKont::Co(self.label()?)),
            _ => None,
        }
    }

    /// A closure or a continuation, told apart by the tag byte it opens
    /// with.
    fn flow(&mut self) -> Option<CpsFlow> {
        if *self.b.get(self.p)? < 3 {
            Some(CpsFlow::Clo(self.clo()?))
        } else {
            Some(CpsFlow::Kont(self.kont()?))
        }
    }

    fn flat(&mut self) -> Option<Flat> {
        match self.u8()? {
            0 => Some(Flat::Bot),
            1 => Some(Flat::Const(self.i64()?)),
            2 => Some(Flat::Top),
            _ => None,
        }
    }

    fn matched(&mut self) -> Option<MatchedReturn> {
        Some(MatchedReturn {
            ret_site: self.label()?,
            callee: self.label()?,
            call_site: self.label()?,
            cont: self.label()?,
        })
    }

    /// A count-prefixed run of items, each at least `width` bytes.
    fn seq<S>(
        &mut self,
        width: usize,
        mut item: impl FnMut(&mut Self) -> Option<S>,
    ) -> Option<Vec<S>> {
        let n = self.count(width)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    /// A set's elements, read into `buf`. The encoder writes each set from
    /// a sorted [`FlatSet`], so its elements come strictly ascending: a
    /// repeat or a descent is corruption, never merged or reordered into
    /// some set the bytes do not describe.
    fn ascending<T: Ord>(
        &mut self,
        width: usize,
        buf: &mut Vec<T>,
        mut get: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<()> {
        let n = self.count(width)?;
        buf.clear();
        buf.reserve(n);
        for _ in 0..n {
            let v = get(self)?;
            if buf.last().is_some_and(|last| *last >= v) {
                return None;
            }
            buf.push(v);
        }
        Some(())
    }

    /// A set shared through `seen`: its validated ascending run copied
    /// into one slice on first sight of its bytes, a clone of that first
    /// handle on every repeat.
    fn shared_set<T: Ord + Copy>(
        &mut self,
        seen: &mut SeenSets<'a, T>,
        get: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<FlatSet<T>> {
        let start = self.p;
        self.ascending(1, &mut seen.buf, get)?;
        let bytes = &self.b[start..self.p];
        let SeenSets { by_bytes, buf } = seen;
        let set = by_bytes
            .entry(bytes)
            .or_insert_with(|| FlatSet::from_sorted(buf));
        Some(set.clone())
    }

    /// A label table, each row's value read by `row`. The encoder writes
    /// labels in ascending order, so a repeated or descending label is
    /// corruption.
    fn table<S>(&mut self, mut row: impl FnMut(&mut Self) -> Option<S>) -> Option<LabelTable<S>> {
        // A row is at least its label and its set's count.
        let n = self.count(4 + 8)?;
        let mut out = LabelTable::new(0);
        let mut prev = None;
        for _ in 0..n {
            let l = self.label()?;
            if prev.is_some_and(|p: Label| p >= l) {
                return None;
            }
            prev = Some(l);
            out.insert(l, row(self)?);
        }
        Some(out)
    }

    fn answer(&mut self) -> Option<CachedAnswer> {
        // Within one answer, equal sets share a handle, as in the solver's
        // commit. Source 0CFA's calls share with its variables and terms,
        // which the commit does not do; a recovered answer can only hold
        // less than a fresh one.
        let (mut clos, mut konts) = (SeenSets::new(), SeenSets::new());
        match self.u8()? {
            0 => Some(CachedAnswer::CfaSrc(CfaResult {
                vars: self.seq(8, |c| c.shared_set(&mut clos, Cur::clo))?,
                terms: self.table(|c| c.shared_set(&mut clos, Cur::clo))?,
                calls: Arc::new(self.table(|c| c.shared_set(&mut clos, Cur::clo))?),
                iterations: self.u64()?,
            })),
            1 => {
                let mut flows = SeenSets::new();
                Some(CachedAnswer::CfaCps(CpsCfaResult {
                    vars: self.seq(8, |c| c.shared_set(&mut flows, Cur::flow))?,
                    returns: self.table(|c| c.shared_set(&mut konts, Cur::kont))?,
                    calls: self.table(|c| c.shared_set(&mut clos, Cur::clo))?,
                    iterations: self.u64()?,
                }))
            }
            2 => {
                let mut flows = SeenSets::new();
                let vars = self.seq(8, |c| c.shared_set(&mut flows, Cur::flow))?;
                let returns = self.table(|c| c.shared_set(&mut konts, Cur::kont))?;
                let calls = self.table(|c| c.shared_set(&mut clos, Cur::clo))?;
                let mut matched = Vec::new();
                self.ascending(16, &mut matched, Cur::matched)?;
                Some(CachedAnswer::CfaPushdown(PushdownCfaResult {
                    vars,
                    returns,
                    calls,
                    matched: FlatSet::from_sorted(&matched),
                    summaries: self.u64()?,
                    iterations: self.u64()?,
                }))
            }
            3 => Some(CachedAnswer::MfpFlat(DfSummary {
                vars: self.seq(1, Cur::flat)?,
            })),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.p == self.b.len()
    }
}

fn decode_entry_payload(payload: &[u8]) -> Option<(CacheKey, String, CachedAnswer)> {
    let mut cur = Cur { b: payload, p: 0 };
    let kind = *AnalysisKind::ALL.get(cur.u8()? as usize)?;
    let digest = cur.u128()?;
    let rung = intern_rung(&cur.str()?)?;
    let source = cur.str()?;
    let answer = cur.answer()?;
    if !cur.done() {
        return None;
    }
    Some((CacheKey { kind, digest, rung }, source, answer))
}

/// Recovery cannot know the original run's governance history — the report
/// is not persisted (the serve path never reads it on hits) — so it
/// synthesizes a single clean attempt on the producing rung.
fn recovered_report(rung: &'static str) -> DegradationReport {
    DegradationReport {
        attempts: vec![RungAttempt {
            rung,
            error: None,
            charged: 0,
        }],
        ..DegradationReport::default()
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The framed entry `magic ∥ len ∥ payload ∥ fnv128(payload)`, with the
/// payload written by `put_payload` straight into the one buffer.
/// `payload_hint` sizes that buffer.
fn framed(payload_hint: usize, put_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let start = MAGIC.len() + 8;
    let mut out = Vec::with_capacity(start + payload_hint + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[0; 8]);
    put_payload(&mut out);
    let payload = &out[start..];
    let len = (payload.len() as u64).to_le_bytes();
    let sum = fnv128_bytes(FNV128_OFFSET, payload).to_le_bytes();
    out[MAGIC.len()..start].copy_from_slice(&len);
    out.extend_from_slice(&sum);
    out
}

fn unframe(bytes: &[u8]) -> Option<&[u8]> {
    let rest = bytes.strip_prefix(MAGIC.as_slice())?;
    if rest.len() < 8 + 16 {
        return None;
    }
    let len = usize::try_from(u64::from_le_bytes(rest[..8].try_into().ok()?)).ok()?;
    let rest = &rest[8..];
    if rest.len() != len + 16 {
        return None;
    }
    let (payload, sum) = rest.split_at(len);
    let want = u128::from_le_bytes(sum.try_into().ok()?);
    if fnv128_bytes(FNV128_OFFSET, payload) != want {
        return None;
    }
    Some(payload)
}

// ---------------------------------------------------------------------------
// The directory
// ---------------------------------------------------------------------------

/// What a [`PersistDir::recover`] scan found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries that passed every check and were re-admitted to the cache.
    pub recovered: u64,
    /// Entries dropped for framing, checksum, or decode failures (the
    /// files are deleted).
    pub corrupt: u64,
    /// Entries whose re-derived source digest did not match their key —
    /// mis-keyed or stale writes, deleted.
    pub stale: u64,
    /// Stray `.tmp` files from interrupted commits, swept.
    pub interrupted: u64,
    /// Recovered entries additionally pushed through certification.
    pub certified: u64,
    /// Payload bytes (cache-accounting estimate) re-admitted.
    pub bytes: u64,
    /// Watch-session ancestors re-admitted.
    pub sessions: u64,
    /// Entries that could not be read (say, for want of permission): left
    /// on disk for a later start, neither admitted nor deleted.
    pub unreadable: u64,
    /// Wall-clock milliseconds the scan took, admission included.
    pub recover_ms: u64,
}

impl RecoveryReport {
    /// Entries dropped for any reason (what `persist.corrupt` counts).
    pub fn dropped(&self) -> u64 {
        self.corrupt + self.stale
    }
}

/// Sequence behind [`temp_path`]'s names, process-wide so that no two
/// writes share a temp file, whatever thread or key they commit.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh temp sibling of `path` for one commit: the pid and a
/// process-wide sequence number make it unique per write. Every such
/// name contains `.tmp`, which is what recovery sweeps.
fn temp_path(path: &Path) -> PathBuf {
    // Relaxed: the number only has to be unique, and publishes nothing.
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{seq}", std::process::id()))
}

/// A spill directory of checksummed, atomically-committed cache entries —
/// one file per [`CacheKey`], plus a `sessions/` journal of watch-session
/// ancestors.
///
/// All methods take `&self` and are safe to call from several threads:
/// every commit writes its own temp file (named by the pid and a
/// process-wide sequence number) and renames it into place, so concurrent
/// stores of one key settle on one winner and never interleave bytes. The
/// daemon still sends all its writes and deletes through one writer thread
/// in order, so a delete is never undone by a store queued before it.
#[derive(Debug, Clone)]
pub struct PersistDir {
    root: PathBuf,
}

impl PersistDir {
    /// Opens (creating if needed) a spill directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<PersistDir> {
        let root = root.into();
        fs::create_dir_all(root.join("sessions"))?;
        Ok(PersistDir { root })
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join(format!(
            "{}-{:032x}-{}.entry",
            key.kind.as_str(),
            key.digest,
            key.rung
        ))
    }

    fn session_path(&self, session: u64) -> PathBuf {
        self.root.join("sessions").join(format!("{session}.entry"))
    }

    /// Atomically commits `bytes` at `path`, injecting `fault` if armed.
    /// Returns `false` when the commit did not land (kill-before-rename).
    fn commit(
        &self,
        path: &Path,
        mut bytes: Vec<u8>,
        fault: Option<PersistFault>,
    ) -> io::Result<bool> {
        if fault == Some(PersistFault::BitFlip) {
            // Flip one payload bit, deterministically mid-file: past the
            // magic and length frame, so the checksum — not the framing —
            // is what catches it.
            let at = MAGIC.len() + 8 + (bytes.len() - MAGIC.len() - 8 - 16) / 2;
            bytes[at] ^= 0x10;
        }
        let tmp = temp_path(path);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if fault == Some(PersistFault::KillBeforeRename) {
            // Simulated crash: the temp file is left behind for recovery
            // to sweep; the entry never becomes visible.
            return Ok(false);
        }
        fs::rename(&tmp, path)?;
        if fault == Some(PersistFault::TruncateTail) {
            let keep = bytes.len() as u64 / 2;
            fs::OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(keep)?;
        }
        Ok(true)
    }

    /// Spills one cache entry. Returns `true` when the entry landed on
    /// disk (an injected [`PersistFault::KillBeforeRename`] makes it
    /// `Ok(false)`; other faults land a *damaged* entry, which is the
    /// point).
    pub fn store(
        &self,
        key: &CacheKey,
        source: &str,
        fixpoint: &CachedFixpoint,
        fault: Option<PersistFault>,
    ) -> io::Result<bool> {
        let mut key = *key;
        if fault == Some(PersistFault::StaleKey) {
            // Commit under a digest that does not match the entry's own
            // source: recovery's re-digest check must catch and drop it.
            key.digest = key.digest.wrapping_add(1);
        }
        let bytes = framed(source.len() + 256, |out| {
            put_entry_payload(out, &key, source, fixpoint)
        });
        self.commit(&self.entry_path(&key), bytes, fault)
    }

    /// Deletes the spilled entry for `key`, returning the file size freed
    /// (0 when nothing was on disk) — the certify-eviction path.
    pub fn remove(&self, key: &CacheKey) -> u64 {
        let path = self.entry_path(key);
        let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        match fs::remove_file(&path) {
            Ok(()) => bytes,
            Err(_) => 0,
        }
    }

    /// Journals a watch session's latest committed fixpoint, replacing any
    /// predecessor — the warm-start ancestor a restarted daemon recovers.
    pub fn store_session(
        &self,
        session: u64,
        ancestor: &Ancestor,
        fault: Option<PersistFault>,
    ) -> io::Result<bool> {
        let key = CacheKey::new(ancestor.kind, ancestor.digest).at_rung("warm");
        let bytes = framed(ancestor.source.len() + 264, |out| {
            put_u64(out, session);
            put_entry_payload(out, &key, &ancestor.source, &ancestor.fixpoint);
        });
        self.commit(&self.session_path(session), bytes, fault)
    }

    /// Drops a session's journal entry (TTL or certify eviction).
    pub fn remove_session(&self, session: u64) {
        let _ = fs::remove_file(self.session_path(session));
    }

    /// Scans the directory, re-admitting every valid entry into `cache`
    /// and deleting everything invalid. Up to `certify_sample` recovered
    /// entries are additionally certified against their own source — a
    /// checksum-valid entry whose answer fails certification is dropped
    /// like any other corruption.
    ///
    /// Files are validated on [`worker_count`] threads; survivors are
    /// admitted one by one in sorted path order, so the cache, the report
    /// and the certified sample do not depend on the thread count.
    pub fn recover(&self, cache: &mut FixpointCache, certify_sample: usize) -> RecoveryReport {
        self.recover_on(cache, certify_sample, worker_count())
    }

    /// [`recover`](PersistDir::recover) on `threads` threads.
    fn recover_on(
        &self,
        cache: &mut FixpointCache,
        certify_sample: usize,
        threads: usize,
    ) -> RecoveryReport {
        let start = Instant::now();
        let mut report = RecoveryReport::default();
        let mut files: Vec<(PathBuf, bool)> = Vec::new();
        for (dir, session) in [
            (self.root.clone(), false),
            (self.root.join("sessions"), true),
        ] {
            let Ok(iter) = fs::read_dir(&dir) else {
                continue;
            };
            let mut found = Vec::new();
            for path in iter.flatten().map(|e| e.path()) {
                if !path.is_file() {
                    continue;
                }
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.contains(".tmp") {
                    report.interrupted += 1;
                    let _ = fs::remove_file(&path);
                } else if name.ends_with(".entry") {
                    found.push((path, session));
                }
            }
            // Deterministic admission order, so LRU state after recovery
            // does not depend on directory iteration order.
            found.sort();
            files.extend(found);
        }
        let mut loaded = par_map(&files, threads, Scratch::new, |scratch, (path, session)| {
            scratch.load(path, *session)
        });
        // The certify sample is the first `certify_sample` valid entries in
        // admission order, whichever thread validated them.
        let sample: Vec<(usize, &Valid)> = loaded
            .iter()
            .enumerate()
            .filter_map(|(i, l)| Some((i, l.as_ref().ok().filter(|v| v.session.is_none())?)))
            .take(certify_sample)
            .collect();
        report.certified = sample.len() as u64;
        let certified = par_map(&sample, threads, Scratch::new, |scratch, (_, entry)| {
            scratch.certifies(entry)
        });
        let refuted: Vec<usize> = sample
            .iter()
            .zip(certified)
            .filter(|&(_, ok)| !ok)
            .map(|(&(i, _), _)| i)
            .collect();
        for i in refuted {
            loaded[i] = Err(Rejected::Corrupt);
        }
        for ((path, _), outcome) in files.iter().zip(loaded) {
            match outcome {
                Err(Rejected::Unreadable) => report.unreadable += 1,
                Err(Rejected::Corrupt) => {
                    report.corrupt += 1;
                    let _ = fs::remove_file(path);
                }
                Err(Rejected::Stale) => {
                    report.stale += 1;
                    let _ = fs::remove_file(path);
                }
                Ok(Valid {
                    session: None,
                    key,
                    fixpoint,
                    ..
                }) => {
                    let bytes = fixpoint.approx_bytes;
                    if cache.insert(key, fixpoint) {
                        report.recovered += 1;
                        report.bytes += bytes;
                    }
                }
                Ok(Valid {
                    session: Some(session),
                    key,
                    source,
                    fixpoint,
                }) => {
                    let ancestor = Ancestor {
                        kind: key.kind,
                        digest: key.digest,
                        source,
                        fixpoint: Arc::new(fixpoint),
                    };
                    cache.note_ancestor(session, ancestor);
                    report.sessions += 1;
                }
            }
        }
        report.recover_ms = start.elapsed().as_millis() as u64;
        report
    }
}

/// Why recovery did not admit a spilled file.
enum Rejected {
    /// It could not be read; it is left on disk.
    Unreadable,
    /// Framing, checksum, decode or certification failed.
    Corrupt,
    /// Its source does not digest to its key.
    Stale,
}

/// A spilled file that passed validation: a cache entry, or, with a
/// `session` id, a session journal.
struct Valid {
    session: Option<u64>,
    key: CacheKey,
    source: String,
    fixpoint: CachedFixpoint,
}

/// One recovery thread's parse state.
struct Scratch {
    arena: TermArena,
    digests: ArenaDigests,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            arena: TermArena::new(),
            digests: ArenaDigests::new(),
        }
    }

    /// `source` parsed into this thread's arena, when it digests to
    /// `digest`.
    fn parse_as(&mut self, source: &str, digest: u128) -> Option<TermId> {
        let root = self.arena.parse(source).ok()?;
        (self.digests.term_digest(&self.arena, root) == digest).then_some(root)
    }

    /// Validates one entry (or, under `sessions/`, one journal) file end
    /// to end, short of certification.
    fn load(&mut self, path: &Path, session: bool) -> Result<Valid, Rejected> {
        let bytes = fs::read(path).map_err(|_| Rejected::Unreadable)?;
        let mut payload = unframe(&bytes).ok_or(Rejected::Corrupt)?;
        let mut id = None;
        if session {
            let (head, rest) = payload.split_first_chunk().ok_or(Rejected::Corrupt)?;
            id = Some(u64::from_le_bytes(*head));
            payload = rest;
        }
        let (key, source, answer) = decode_entry_payload(payload).ok_or(Rejected::Corrupt)?;
        self.parse_as(&source, key.digest).ok_or(Rejected::Stale)?;
        Ok(Valid {
            session: id,
            key,
            source,
            fixpoint: CachedFixpoint::new(answer, recovered_report(key.rung)),
        })
    }

    /// Whether a valid entry's answer certifies against its own source,
    /// lowered as the daemon lowers a request.
    fn certifies(&mut self, entry: &Valid) -> bool {
        self.parse_as(&entry.source, entry.key.digest)
            .is_some_and(|root| {
                let prog = AnfProgram::from_term(&self.arena.to_term(root));
                crate::certify::certify_answer(&prog, &entry.fixpoint.answer).is_ok()
            })
    }
}

/// Stack reserved for each recovery thread: re-parsing and certifying a
/// spilled program walks it recursively, as the daemon's workers do when
/// they first serve it. Untouched stack costs no memory.
const RECOVERY_STACK_BYTES: usize = 64 << 20;

/// `f` applied to every item, results in item order. The calling thread
/// and up to `threads - 1` scoped helpers claim items one at a time, each
/// with its own `init()` state; a helper that cannot be spawned leaves
/// its share to the threads that were.
fn par_map<I: Sync, R: Send, S>(
    items: &[I],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &I) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out distinct indices; the
            // results are published by the scope's joins.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break done;
            };
            done.push((i, f(&mut state, item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(items.len()))
            .filter_map(|_| {
                std::thread::Builder::new()
                    .name("cpsdfa-recover".into())
                    .stack_size(RECOVERY_STACK_BYTES)
                    .spawn_scoped(scope, work)
                    .ok()
            })
            .collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{fnv_bytes, FNV_OFFSET};
    use crate::cfa::{zero_cfa, zero_cfa_cps};
    use crate::mfp::Cfg;
    use cpsdfa_anf::AnfProgram;
    use cpsdfa_cps::CpsProgram;
    use cpsdfa_workloads::random::{corpus, open_config};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpsdfa-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fixture(src: &str) -> (CacheKey, CachedFixpoint) {
        let p = AnfProgram::parse(src).unwrap();
        let mut arena = TermArena::new();
        let id = arena.parse(src).unwrap();
        let digest = ArenaDigests::new().term_digest(&arena, id);
        let key = CacheKey::new(AnalysisKind::CfaSrc, digest);
        let fixpoint = CachedFixpoint::new(
            CachedAnswer::CfaSrc(zero_cfa(&p).unwrap()),
            DegradationReport::default(),
        );
        (key, fixpoint)
    }

    const SRC: &str = "(let (f (lambda (x) x)) (f f))";

    /// `report` without its wall-clock field, for exact comparisons.
    fn untimed(report: RecoveryReport) -> RecoveryReport {
        RecoveryReport {
            recover_ms: 0,
            ..report
        }
    }

    /// An entry's payload on its own, as framing takes it.
    fn encode_entry_payload(key: &CacheKey, source: &str, fixpoint: &CachedFixpoint) -> Vec<u8> {
        let mut out = Vec::new();
        put_entry_payload(&mut out, key, source, fixpoint);
        out
    }

    #[test]
    fn decode_rejects_table_labels_out_of_order() {
        // A `cfa.src` payload with no variables and a two-row terms table:
        // ascending labels decode, a repeated or descending label is
        // corruption (the encoder only ever writes ascending labels).
        let payload = |labels: [u32; 2]| {
            let key = CacheKey::new(AnalysisKind::CfaSrc, 0xfeed);
            let mut out = vec![key.kind.tag()];
            put_u128(&mut out, key.digest);
            put_str(&mut out, key.rung);
            put_str(&mut out, "(src)");
            out.push(0);
            put_u64(&mut out, 0);
            put_u64(&mut out, 2);
            for l in labels {
                put_u32(&mut out, l);
                put_u64(&mut out, 0);
            }
            put_u64(&mut out, 0);
            put_u64(&mut out, 1);
            out
        };
        assert!(decode_entry_payload(&payload([1, 2])).is_some());
        assert!(decode_entry_payload(&payload([2, 2])).is_none());
        assert!(decode_entry_payload(&payload([2, 1])).is_none());
    }

    #[test]
    fn decode_rejects_a_closure_in_a_continuation_table() {
        // A `cfa.cps` answer whose only relation row is `returns[1] =
        // {stop}`: the continuation's tag byte follows the kind tag, two
        // counts, the label and the set's count.
        let answer = CachedAnswer::CfaCps(CpsCfaResult {
            vars: Vec::new(),
            returns: [(Label::new(1), FlatSet::from_sorted(&[AbsKont::Stop]))]
                .into_iter()
                .collect(),
            calls: LabelTable::new(0),
            iterations: 0,
        });
        let mut bytes = Vec::new();
        put_answer(&mut bytes, &answer);
        let at = 1 + 8 + 8 + 4 + 8;
        assert_eq!(bytes[at], 3, "premise: the continuation tag");
        let decode = |bytes: &[u8]| Cur { b: bytes, p: 0 }.answer();
        assert_eq!(decode(&bytes), Some(answer));
        for clo_tag in [0, 1] {
            bytes[at] = clo_tag;
            assert_eq!(
                decode(&bytes),
                None,
                "closure tag {clo_tag} in a continuation table"
            );
        }
    }

    /// `payload` framed as a build with file magic `magic` frames it.
    fn frame_as(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv128_bytes(FNV128_OFFSET, payload).to_le_bytes());
        bytes
    }

    /// The version-1 layout of `key`'s entry: the old magic, an engine
    /// shard count after the kind tag, and the count in the file name.
    fn plant_v1_entry(dir: &Path, key: &CacheKey, fixpoint: &CachedFixpoint) -> PathBuf {
        let v2 = encode_entry_payload(key, SRC, fixpoint);
        let mut payload = vec![v2[0]];
        put_u64(&mut payload, 0);
        payload.extend_from_slice(&v2[1..]);
        let path = dir.join(format!(
            "{}-0-{:032x}-{}.entry",
            key.kind.as_str(),
            key.digest,
            key.rung
        ));
        fs::write(&path, frame_as(b"CPSDFA1\n", &payload)).unwrap();
        path
    }

    #[test]
    fn store_then_recover_round_trips_and_preserves_digest() {
        let dir = tmpdir("roundtrip");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, fixpoint) = fixture(SRC);
        assert!(persist.store(&key, SRC, &fixpoint, None).unwrap());
        // An entry left behind by a build that keyed on the engine: it
        // must be swept as corrupt, never decoded into the new key space.
        let old = plant_v1_entry(&dir, &key, &fixpoint);
        let mut cache = FixpointCache::new(u64::MAX);
        let report = persist.recover(&mut cache, 8);
        assert_eq!(report.recovered, 1);
        assert_eq!((report.corrupt, report.stale), (1, 0));
        assert!(!old.exists(), "the old-layout entry is deleted");
        assert_eq!(report.certified, 1);
        assert!(report.bytes > 0);
        let hit = cache.lookup(&key).expect("recovered entry serves");
        assert_eq!(hit.answer_digest, fixpoint.answer_digest);
        // Decode interns: the recovered answer shares its sets exactly as
        // the solver's commit did, rather than holding one copy per slot.
        let (CachedAnswer::CfaSrc(fresh), CachedAnswer::CfaSrc(back)) =
            (&fixpoint.answer, &hit.answer)
        else {
            panic!("cfa.src fixture");
        };
        let handles = |r: &CfaResult| {
            let slots: Vec<*const AbsClo> = r
                .vars
                .iter()
                .chain(r.terms.values())
                .map(|s| s.as_slice().as_ptr())
                .collect();
            let distinct: std::collections::BTreeSet<_> = slots.iter().collect();
            (slots.len(), distinct.len())
        };
        let (slots, shared) = handles(fresh);
        assert!(shared < slots, "premise: the fresh answer shares sets");
        assert_eq!(handles(back), (slots, shared));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_2_entries_are_swept_as_corrupt() {
        // A `cfa.src` answer holds no continuation, so its version-2
        // payload is byte-for-byte today's: only the magic tells them
        // apart, and the magic alone must sweep it.
        let dir = tmpdir("v2");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, fixpoint) = fixture(SRC);
        let path = persist.entry_path(&key);
        let payload = encode_entry_payload(&key, SRC, &fixpoint);
        fs::write(&path, frame_as(b"CPSDFA2\n", &payload)).unwrap();
        let mut cache = FixpointCache::new(u64::MAX);
        let report = persist.recover(&mut cache, 8);
        assert_eq!((report.recovered, report.corrupt), (0, 1));
        assert!(!path.exists(), "the version-2 entry is deleted");
        assert!(cache.lookup(&key).is_none());
        // The same payload under the current magic recovers.
        fs::write(&path, frame_as(MAGIC, &payload)).unwrap();
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), 8);
        assert_eq!((report.recovered, report.corrupt), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The one-encoder contract for `answer`: its digest is the FNV-64 of
    /// its solution bytes, its persisted bytes open with them, and an
    /// entry payload ending in those bytes decodes back to it.
    fn check_encoding(answer: &CachedAnswer) {
        let mut solution = Vec::new();
        put_solution(&mut solution, answer);
        assert_eq!(answer.digest(), fnv_bytes(FNV_OFFSET, &solution));
        let mut persisted = Vec::new();
        put_answer(&mut persisted, answer);
        assert!(persisted.starts_with(&solution));
        let key = CacheKey::new(answer.kind(), 0xfeed);
        let fixpoint = CachedFixpoint::new(answer.clone(), DegradationReport::default());
        let payload = encode_entry_payload(&key, "(src)", &fixpoint);
        assert!(payload.ends_with(&persisted));
        assert_eq!(
            decode_entry_payload(&payload),
            Some((key, "(src)".to_string(), answer.clone())),
            "lossless round-trip"
        );
    }

    #[test]
    fn the_digest_folds_the_persisted_solution_bytes() {
        for answer in crate::cache::tests::tiny_answers() {
            check_encoding(&answer);
        }
        let mut checked = [0usize; 4];
        let mut check = |answer: CachedAnswer| {
            checked[answer.kind().tag() as usize] += 1;
            check_encoding(&answer);
        };
        for t in corpus(0xD16E57, 300, &open_config()) {
            let p = AnfProgram::from_term(&t);
            let cps = CpsProgram::from_anf(&p);
            if let Ok(r) = zero_cfa(&p) {
                check(CachedAnswer::CfaSrc(r));
            }
            if let Ok(r) = zero_cfa_cps(&cps) {
                check(CachedAnswer::CfaCps(r));
            }
            if let Ok(r) = crate::pushdown::pushdown_cfa(&cps) {
                check(CachedAnswer::CfaPushdown(r));
            }
            if let Ok(cfg) = Cfg::from_first_order(&p) {
                if let Ok(s) = cfg.solve_mfp::<Flat>(cfg.initial_env(&p)) {
                    check(CachedAnswer::MfpFlat(s));
                }
            }
        }
        assert!(
            checked.iter().all(|&n| n > 0),
            "every kind covered: {checked:?}"
        );
    }

    #[test]
    fn every_injected_fault_is_detected_and_healed() {
        for fault in PersistFault::ALL {
            let dir = tmpdir(fault.as_str());
            let persist = PersistDir::open(&dir).unwrap();
            let (key, fixpoint) = fixture(SRC);
            let landed = persist.store(&key, SRC, &fixpoint, Some(fault)).unwrap();
            assert_eq!(landed, fault != PersistFault::KillBeforeRename);
            let mut cache = FixpointCache::new(u64::MAX);
            let report = persist.recover(&mut cache, 8);
            assert_eq!(report.recovered, 0, "{fault:?}: damaged entry served");
            assert!(
                cache.lookup(&key).is_none(),
                "{fault:?}: damaged entry reached the cache"
            );
            match fault {
                PersistFault::KillBeforeRename => assert_eq!(report.interrupted, 1, "{fault:?}"),
                PersistFault::TruncateTail | PersistFault::BitFlip => {
                    assert_eq!(report.corrupt, 1, "{fault:?}")
                }
                PersistFault::StaleKey => assert_eq!(report.stale, 1, "{fault:?}"),
            }
            // Healed: the next recovery scan finds a clean directory.
            let second = persist.recover(&mut FixpointCache::new(u64::MAX), 8);
            assert_eq!(
                untimed(second),
                RecoveryReport::default(),
                "{fault:?}: not healed"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn certify_sample_drops_a_wrong_answer_with_a_valid_checksum() {
        // Key + source of program A, answer of program B: framing and
        // digest checks pass, only certification can catch it.
        let dir = tmpdir("poison");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, _) = fixture(SRC);
        let other = "(let (g (lambda (y) (g y))) (g add1))";
        let (_, wrong) = fixture(other);
        assert!(persist.store(&key, SRC, &wrong, None).unwrap());
        let mut cache = FixpointCache::new(u64::MAX);
        let report = persist.recover(&mut cache, 8);
        assert_eq!(report.recovered, 0);
        assert_eq!(report.corrupt, 1);
        assert!(cache.lookup(&key).is_none());
        // Without sampling the poisoned entry would have been admitted —
        // the serve-path `--certify` check is the remaining net.
        assert!(persist.store(&key, SRC, &wrong, None).unwrap());
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), 0);
        assert_eq!((report.recovered, report.certified), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_journal_round_trips_an_ancestor() {
        let dir = tmpdir("sessions");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, fixpoint) = fixture(SRC);
        let ancestor = Ancestor {
            kind: key.kind,
            digest: key.digest,
            source: SRC.to_string(),
            fixpoint: Arc::new(fixpoint),
        };
        assert!(persist.store_session(17, &ancestor, None).unwrap());
        let mut cache = FixpointCache::new(u64::MAX);
        let report = persist.recover(&mut cache, 8);
        assert_eq!(report.sessions, 1);
        let back = cache.ancestor(17).expect("session recovered");
        assert_eq!(back.digest, ancestor.digest);
        assert_eq!(back.source, ancestor.source);
        assert_eq!(back.fixpoint.answer_digest, ancestor.fixpoint.answer_digest);
        // remove_session heals the journal.
        persist.remove_session(17);
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), 8);
        assert_eq!(report.sessions, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_write_the_framed_payload_in_one_buffer() {
        // The one-buffer framing writes exactly what framing a separately
        // encoded payload writes, for entries and session journals alike.
        let dir = tmpdir("framed");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, fixpoint) = fixture(SRC);
        assert!(persist.store(&key, SRC, &fixpoint, None).unwrap());
        assert_eq!(
            fs::read(persist.entry_path(&key)).unwrap(),
            frame_as(MAGIC, &encode_entry_payload(&key, SRC, &fixpoint))
        );
        let ancestor = Ancestor {
            kind: key.kind,
            digest: key.digest,
            source: SRC.to_string(),
            fixpoint: Arc::new(fixpoint),
        };
        assert!(persist.store_session(17, &ancestor, None).unwrap());
        let mut payload = Vec::new();
        put_u64(&mut payload, 17);
        payload.extend_from_slice(&encode_entry_payload(
            &key.at_rung("warm"),
            SRC,
            &ancestor.fixpoint,
        ));
        assert_eq!(
            fs::read(persist.session_path(17)).unwrap(),
            frame_as(MAGIC, &payload)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_write_gets_its_own_temp_name_and_recovery_sweeps_it() {
        let dir = tmpdir("tempname");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, _) = fixture(SRC);
        let path = persist.entry_path(&key);
        let (a, b) = (temp_path(&path), temp_path(&path));
        assert_ne!(a, b, "two writes of one key share no temp file");
        for tmp in [&a, &b] {
            fs::write(tmp, b"interrupted").unwrap();
        }
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), 8);
        assert_eq!(report.interrupted, 2);
        assert!(!a.exists() && !b.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_frees_the_entry_and_reports_bytes() {
        let dir = tmpdir("remove");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, fixpoint) = fixture(SRC);
        assert!(persist.store(&key, SRC, &fixpoint, None).unwrap());
        assert!(persist.remove(&key) > 0);
        assert_eq!(persist.remove(&key), 0, "second remove is a no-op");
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), 8);
        assert_eq!(untimed(report), RecoveryReport::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_requires_strictly_ascending_sets() {
        // A checksum-valid `cfa.src` entry for SRC whose one variable's
        // set reads `elems`: only strictly ascending elements describe a
        // set, so a repeat or a descent is corruption, not some other set.
        let (key, _) = fixture(SRC);
        let payload = |elems: [u32; 2]| {
            let mut out = vec![key.kind.tag()];
            put_u128(&mut out, key.digest);
            put_str(&mut out, key.rung);
            put_str(&mut out, SRC);
            out.push(AnalysisKind::CfaSrc.tag());
            put_u64(&mut out, 1);
            put_u64(&mut out, 2);
            for l in elems {
                put_clo(&mut out, AbsClo::Lam(Label::new(l)));
            }
            put_u64(&mut out, 0);
            put_u64(&mut out, 0);
            put_u64(&mut out, 1);
            out
        };
        let dir = tmpdir("canonical");
        let persist = PersistDir::open(&dir).unwrap();
        for (elems, want) in [([7, 8], (1, 0)), ([7, 7], (0, 1)), ([8, 7], (0, 1))] {
            fs::write(persist.entry_path(&key), frame_as(MAGIC, &payload(elems))).unwrap();
            // No certify sample: decoding alone must refuse the entry.
            let report = persist.recover(&mut FixpointCache::new(u64::MAX), 0);
            assert_eq!((report.recovered, report.corrupt), want, "{elems:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn count_prefixes_are_capped_by_the_bytes_that_remain() {
        // Nine variables, each a set of at least its 8-byte count, cannot
        // fit in the 64 bytes that follow the prefix.
        let mut bytes = vec![AnalysisKind::CfaCps.tag()];
        put_u64(&mut bytes, 9);
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(Cur { b: &bytes, p: 0 }.answer(), None);
        let mut cur = Cur { b: &bytes, p: 1 };
        assert_eq!(cur.count(8), None);
        let mut cur = Cur { b: &bytes, p: 1 };
        assert_eq!(cur.count(7), Some(9));
    }

    #[cfg(unix)]
    #[test]
    fn an_unreadable_entry_is_skipped_not_deleted() {
        use std::os::unix::fs::PermissionsExt;
        let dir = tmpdir("unreadable");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, fixpoint) = fixture(SRC);
        assert!(persist.store(&key, SRC, &fixpoint, None).unwrap());
        let path = persist.entry_path(&key);
        let mode = |m| fs::set_permissions(&path, fs::Permissions::from_mode(m)).unwrap();
        mode(0o000);
        if fs::read(&path).is_ok() {
            // Permissions do not bind this user (root): nothing to test.
            let _ = fs::remove_dir_all(&dir);
            return;
        }
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), 8);
        assert_eq!(
            (report.unreadable, report.recovered, report.dropped()),
            (1, 0, 0)
        );
        assert!(path.exists(), "an entry recovery cannot read stays on disk");
        mode(0o644);
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), 8);
        assert_eq!((report.unreadable, report.recovered), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every answer `src` has: one per analysis kind that accepts it.
    fn answers_for(src: &str) -> Vec<CachedAnswer> {
        let p = AnfProgram::parse(src).unwrap();
        let cps = CpsProgram::from_anf(&p);
        let mut out = vec![
            CachedAnswer::CfaSrc(zero_cfa(&p).unwrap()),
            CachedAnswer::CfaCps(zero_cfa_cps(&cps).unwrap()),
            CachedAnswer::CfaPushdown(crate::pushdown::pushdown_cfa(&cps).unwrap()),
        ];
        if let Ok(cfg) = Cfg::from_first_order(&p) {
            out.push(CachedAnswer::MfpFlat(
                cfg.solve_mfp::<Flat>(cfg.initial_env(&p)).unwrap(),
            ));
        }
        out
    }

    /// Entries as (key, answer digest, byte charge), sessions as (id,
    /// program digest, answer digest).
    type Admitted = (Vec<(CacheKey, u64, u64)>, Vec<(u64, u128, u64)>);

    /// What a recovery admitted, each part in admission order.
    fn admitted(cache: &FixpointCache) -> Admitted {
        let mut entries: Vec<_> = cache.entries.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        let mut sessions: Vec<_> = cache.ancestors.iter().collect();
        sessions.sort_by_key(|(_, s)| s.last_used);
        (
            entries
                .into_iter()
                .map(|(k, e)| (*k, e.value.answer_digest, e.value.approx_bytes))
                .collect(),
            sessions
                .into_iter()
                .map(|(&id, s)| (id, s.ancestor.digest, s.ancestor.fixpoint.answer_digest))
                .collect(),
        )
    }

    #[test]
    fn parallel_recovery_admits_exactly_what_sequential_recovery_does() {
        let programs = [
            SRC,
            "(let (f (lambda (x) x)) (let (a (f 1)) (f a)))",
            "(let (a 1) (let (b (add1 a)) (if0 b a b)))",
            "(let (g (lambda (y) (add1 y))) (let (h (lambda (z) (g z))) (h 2)))",
            "(let (id (lambda (x) x)) (let (f1 (lambda (d) 7)) (let (a1 (id f1)) (let (r1 (a1 0)) r1))))",
            "(let (g (lambda (y) (g y))) (g add1))",
        ];
        let dir = tmpdir("parallel");
        let persist = PersistDir::open(&dir).unwrap();
        let mut stored = std::collections::HashMap::new();
        let mut store = |key: CacheKey, src: &str, answer: CachedAnswer| {
            let fixpoint = CachedFixpoint::new(answer, DegradationReport::default());
            assert!(persist.store(&key, src, &fixpoint, None).unwrap());
            stored.insert(key, (fixpoint.answer_digest, fixpoint.approx_bytes));
        };
        for src in programs {
            let (key, _) = fixture(src);
            for answer in answers_for(src) {
                store(CacheKey::new(answer.kind(), key.digest), src, answer);
            }
        }
        // Two checksum-valid entries whose answer belongs to another
        // program. Names sort by kind first, so with a sample of 7 the
        // `cfa.cps` one is among the certified (all seven `cfa.cps`
        // entries) and is dropped, while the `mfp.flat` one sorts last,
        // is not certified, and is admitted.
        let poisoned = [
            (
                AnalysisKind::CfaCps,
                "(let (q (lambda (v) (add1 v))) (q 3))",
                SRC,
            ),
            (AnalysisKind::MfpFlat, "(let (c 2) (add1 c))", programs[2]),
        ];
        for (kind, src, other) in poisoned {
            let (key, _) = fixture(src);
            let answer = answers_for(other).into_iter().find(|a| a.kind() == kind);
            store(CacheKey::new(kind, key.digest), src, answer.unwrap());
        }
        let kinds: std::collections::BTreeSet<_> = stored.keys().map(|k| k.kind.tag()).collect();
        assert_eq!(kinds.len(), 4, "premise: every kind is on disk");
        let (cps_poison, _) = fixture(poisoned[0].1);
        let cps_poison = CacheKey::new(AnalysisKind::CfaCps, cps_poison.digest);
        stored.remove(&cps_poison);
        // A session journal, one bit-flipped entry, one stale entry and an
        // interrupted write.
        let (key, fixpoint) = fixture(programs[1]);
        let ancestor = Ancestor {
            kind: key.kind,
            digest: key.digest,
            source: programs[1].to_string(),
            fixpoint: Arc::new(fixpoint),
        };
        assert!(persist.store_session(5, &ancestor, None).unwrap());
        let extra = "(let (k (lambda (w) w)) (k k))";
        let (key, fixpoint) = fixture(extra);
        let bad = [PersistFault::BitFlip, PersistFault::StaleKey];
        for (kind, fault) in [AnalysisKind::CfaCps, AnalysisKind::CfaSrc]
            .into_iter()
            .zip(bad)
        {
            let key = CacheKey::new(kind, key.digest);
            assert!(persist.store(&key, extra, &fixpoint, Some(fault)).unwrap());
        }
        fs::write(temp_path(&persist.entry_path(&key)), b"interrupted").unwrap();

        // Each run recovers its own copy of the directory, under a ceiling
        // of half the stored bytes: admission evicts, so which entries
        // survive depends on the admission order.
        let ceiling = stored.values().map(|&(_, bytes)| bytes).sum::<u64>() / 2;
        let recover = |threads: usize| {
            let copy = tmpdir(&format!("parallel-{threads}"));
            fs::create_dir_all(copy.join("sessions")).unwrap();
            for sub in ["", "sessions"] {
                for e in fs::read_dir(dir.join(sub)).unwrap().flatten() {
                    if e.path().is_file() {
                        fs::copy(e.path(), copy.join(sub).join(e.file_name())).unwrap();
                    }
                }
            }
            let mut cache = FixpointCache::new(ceiling);
            let report = PersistDir::open(&copy)
                .unwrap()
                .recover_on(&mut cache, 7, threads);
            let _ = fs::remove_dir_all(&copy);
            (untimed(report), admitted(&cache), cache)
        };
        let (one, one_admitted, cache) = recover(1);
        let (four, four_admitted, _) = recover(4);
        assert_eq!(one, four);
        assert_eq!(one_admitted, four_admitted);
        assert_eq!(
            (one.recovered, one.corrupt, one.stale, one.interrupted),
            (stored.len() as u64, 2, 1, 1)
        );
        assert_eq!((one.sessions, one.certified, one.unreadable), (1, 7, 0));
        assert!(
            cache.stats().evictions > 0 && cache.len() > 1,
            "premise: admission evicted some entries and kept others"
        );
        assert!(cache.entries.contains_key(&CacheKey::new(
            AnalysisKind::MfpFlat,
            fixture(poisoned[1].1).0.digest
        )));
        // Every entry came back with the digest and byte charge it was
        // stored with, and that digest is a re-encode of the decoded
        // answer.
        for (key, entry) in &cache.entries {
            let value = &entry.value;
            assert_eq!(
                (value.answer_digest, value.approx_bytes),
                stored[key],
                "{key:?}"
            );
            let mut solution = Vec::new();
            put_solution(&mut solution, &value.answer);
            assert_eq!(fnv_bytes(FNV_OFFSET, &solution), value.answer_digest);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
