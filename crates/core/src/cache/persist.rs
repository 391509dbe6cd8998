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
//!    alongside the key and answer. Recovery re-parses it and re-derives
//!    the structural digest: a mismatch against the stored key means the
//!    entry answers some other program (a stale or mis-keyed write) and
//!    it is dropped. A sample of surviving entries is then pushed through
//!    [`certify_source`](crate::certify::certify_source), so even a
//!    checksum-valid entry whose *answer* is wrong for its own source is
//!    caught before it can be served. (The daemon's `--certify` sampling
//!    extends the same check to the serve path.)
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
use crate::govern::{DegradationReport, RungAttempt};
use crate::labtab::LabelTable;
use crate::mfp::DfSummary;
use crate::pushdown::{MatchedReturn, PushdownCfaResult};
use crate::setpool::SetPool;
use cpsdfa_syntax::arena::TermArena;
use cpsdfa_syntax::Label;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fs;
use std::hash::Hash;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic: module name + format version, newline-terminated so a
/// `head -c8` of an entry is self-describing. Version 2 dropped the engine
/// shard count from the key; version 3 writes continuations with the
/// answer digest's tags (3/4) and a CPS flow value without a tag of its
/// own. Entries of an older version fail to unframe and are swept as
/// corrupt.
const MAGIC: &[u8; 8] = b"CPSDFA3\n";

/// Rung names a persisted key may carry. Interning back to `&'static str`
/// keeps [`CacheKey`]'s content-equality semantics; an unknown rung means
/// the entry was written by an incompatible build and is dropped as
/// corrupt rather than leaked into the key space.
fn intern_rung(name: &str) -> Option<&'static str> {
    ["cfa.src", "cfa.cps", "cfa.pushdown", "mfp.flat", "warm"]
        .into_iter()
        .find(|&known| known == name)
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

fn put_set<S: ByteSink, T: Copy>(out: &mut S, set: &BTreeSet<T>, put: &impl Fn(&mut S, T)) {
    put_u64(out, set.len() as u64);
    for &v in set {
        put(out, v);
    }
}

fn put_sets<S: ByteSink, T: Copy>(out: &mut S, sets: &[Arc<BTreeSet<T>>], put: impl Fn(&mut S, T)) {
    put_u64(out, sets.len() as u64);
    for set in sets {
        put_set(out, set, &put);
    }
}

fn put_table<S: ByteSink, T: Copy, B: Borrow<BTreeSet<T>>>(
    out: &mut S,
    table: &LabelTable<B>,
    put: impl Fn(&mut S, T),
) {
    put_u64(out, table.len() as u64);
    for (l, set) in table.iter() {
        put_label(out, l);
        put_set(out, set.borrow(), &put);
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

fn encode_entry_payload(key: &CacheKey, source: &str, fixpoint: &CachedFixpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(source.len() + 256);
    out.push(key.kind.tag());
    put_u128(&mut out, key.digest);
    put_str(&mut out, key.rung);
    put_str(&mut out, source);
    put_answer(&mut out, &fixpoint.answer);
    out
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

    /// A count prefix, sanity-capped so a corrupt length cannot ask for an
    /// allocation larger than the remaining bytes could possibly encode.
    fn count(&mut self) -> Option<usize> {
        let n = self.u64()?;
        let n = usize::try_from(n).ok()?;
        if n > self.b.len().saturating_sub(self.p) {
            return None;
        }
        Some(n)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.count()?;
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

    fn set<T: Ord>(&mut self, mut get: impl FnMut(&mut Self) -> Option<T>) -> Option<BTreeSet<T>> {
        let n = self.count()?;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert(get(self)?);
        }
        Some(set)
    }

    /// A count-prefixed run of sets, each interned through `pool`, so the
    /// decoded answer shares every repeated set the way the solver's
    /// commit did.
    fn sets<T: Ord + Clone + Hash>(
        &mut self,
        pool: &mut SetPool<T>,
        mut get: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<Arc<BTreeSet<T>>>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let id = pool.intern(self.set(&mut get)?);
            out.push(pool.get_arc(id));
        }
        Some(out)
    }

    /// A label table, each set passed through `wrap`. The encoder writes
    /// labels in ascending order, so a repeated or descending label is
    /// corruption.
    fn table<T: Ord, S>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Option<T>,
        mut wrap: impl FnMut(BTreeSet<T>) -> S,
    ) -> Option<LabelTable<S>> {
        let n = self.count()?;
        let mut out = LabelTable::new(0);
        let mut prev = None;
        for _ in 0..n {
            let l = self.label()?;
            if prev.is_some_and(|p: Label| p >= l) {
                return None;
            }
            prev = Some(l);
            out.insert(l, wrap(self.set(&mut get)?));
        }
        Some(out)
    }

    fn answer(&mut self) -> Option<CachedAnswer> {
        match self.u8()? {
            0 => {
                // Terms share the variables' pool, as in the solver's
                // commit.
                let mut pool = SetPool::new();
                let vars = self.sets(&mut pool, Cur::clo)?;
                let terms = self.table(Cur::clo, |set| {
                    let id = pool.intern(set);
                    pool.get_arc(id)
                })?;
                Some(CachedAnswer::CfaSrc(CfaResult {
                    vars,
                    terms,
                    calls: Arc::new(self.table(Cur::clo, |set| set)?),
                    iterations: self.u64()?,
                }))
            }
            1 => Some(CachedAnswer::CfaCps(CpsCfaResult {
                vars: self.sets(&mut SetPool::new(), Cur::flow)?,
                returns: self.table(Cur::kont, |set| set)?,
                calls: self.table(Cur::clo, |set| set)?,
                iterations: self.u64()?,
            })),
            2 => {
                let vars = self.sets(&mut SetPool::new(), Cur::flow)?;
                let returns = self.table(Cur::kont, |set| set)?;
                let calls = self.table(Cur::clo, |set| set)?;
                let n = self.count()?;
                let mut matched = BTreeSet::new();
                for _ in 0..n {
                    matched.insert(MatchedReturn {
                        ret_site: self.label()?,
                        callee: self.label()?,
                        call_site: self.label()?,
                        cont: self.label()?,
                    });
                }
                Some(CachedAnswer::CfaPushdown(PushdownCfaResult {
                    vars,
                    returns,
                    calls,
                    matched,
                    summaries: self.u64()?,
                    iterations: self.u64()?,
                }))
            }
            3 => {
                let n = self.count()?;
                let mut vars = Vec::with_capacity(n);
                for _ in 0..n {
                    vars.push(match self.u8()? {
                        0 => Flat::Bot,
                        1 => Flat::Const(self.i64()?),
                        2 => Flat::Top,
                        _ => return None,
                    });
                }
                Some(CachedAnswer::MfpFlat(DfSummary { vars }))
            }
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

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 8 + payload.len() + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv128_bytes(FNV128_OFFSET, payload).to_le_bytes());
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
}

impl RecoveryReport {
    /// Entries dropped for any reason (what `persist.corrupt` counts).
    pub fn dropped(&self) -> u64 {
        self.corrupt + self.stale
    }
}

/// A spill directory of checksummed, atomically-committed cache entries —
/// one file per [`CacheKey`], plus a `sessions/` journal of watch-session
/// ancestors.
///
/// All methods take `&self` and are safe to call from multiple service
/// workers: commits go through write-temp + rename (with a per-write
/// unique temp name), so concurrent stores of the same key settle on one
/// winner and never interleave bytes.
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
    fn commit(&self, path: &Path, bytes: &[u8], fault: Option<PersistFault>) -> io::Result<bool> {
        let mut bytes = bytes.to_vec();
        if fault == Some(PersistFault::BitFlip) {
            // Flip one payload bit, deterministically mid-file: past the
            // magic and length frame, so the checksum — not the framing —
            // is what catches it.
            let at = MAGIC.len() + 8 + (bytes.len() - MAGIC.len() - 8 - 16) / 2;
            bytes[at] ^= 0x10;
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{:x}",
            std::process::id(),
            fnv128_bytes(FNV128_OFFSET, path.as_os_str().as_encoded_bytes()) as u64
        ));
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
        let payload = encode_entry_payload(&key, source, fixpoint);
        self.commit(&self.entry_path(&key), &frame(payload.as_slice()), fault)
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
    /// predecessor — the warm-start seed a restarted daemon recovers.
    pub fn store_session(
        &self,
        session: u64,
        ancestor: &Ancestor,
        fault: Option<PersistFault>,
    ) -> io::Result<bool> {
        let key = CacheKey::new(ancestor.kind, ancestor.digest).at_rung("warm");
        let mut payload = Vec::new();
        put_u64(&mut payload, session);
        payload.extend_from_slice(&encode_entry_payload(
            &key,
            &ancestor.source,
            &ancestor.fixpoint,
        ));
        self.commit(&self.session_path(session), &frame(&payload), fault)
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
    pub fn recover(&self, cache: &mut FixpointCache, certify_sample: usize) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut arena = TermArena::new();
        let mut digests = ArenaDigests::new();
        let mut entries: Vec<PathBuf> = Vec::new();
        let mut sessions: Vec<PathBuf> = Vec::new();
        for dir in [self.root.clone(), self.root.join("sessions")] {
            let Ok(iter) = fs::read_dir(&dir) else {
                continue;
            };
            for path in iter.flatten().map(|e| e.path()) {
                if !path.is_file() {
                    continue;
                }
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.contains(".tmp") {
                    report.interrupted += 1;
                    let _ = fs::remove_file(&path);
                } else if name.ends_with(".entry") {
                    if dir.ends_with("sessions") {
                        sessions.push(path);
                    } else {
                        entries.push(path);
                    }
                }
            }
        }
        // Deterministic admission order, so LRU state after recovery does
        // not depend on directory iteration order.
        entries.sort();
        sessions.sort();
        for path in entries {
            match self.load_entry(&path, &mut arena, &mut digests, &mut report, certify_sample) {
                Some((key, fixpoint)) => {
                    let bytes = fixpoint.approx_bytes;
                    if cache.insert(key, fixpoint) {
                        report.recovered += 1;
                        report.bytes += bytes;
                    }
                }
                None => {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        for path in sessions {
            match self.load_session(&path, &mut arena, &mut digests, &mut report) {
                Some((session, ancestor)) => {
                    cache.note_ancestor(session, ancestor);
                    report.sessions += 1;
                }
                None => {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        report
    }

    /// Validates one entry file end to end; `None` means delete it.
    fn load_entry(
        &self,
        path: &Path,
        arena: &mut TermArena,
        digests: &mut ArenaDigests,
        report: &mut RecoveryReport,
        certify_sample: usize,
    ) -> Option<(CacheKey, CachedFixpoint)> {
        let bytes = fs::read(path).ok()?;
        let Some(payload) = unframe(&bytes) else {
            report.corrupt += 1;
            return None;
        };
        let Some((key, source, answer)) = decode_entry_payload(payload) else {
            report.corrupt += 1;
            return None;
        };
        let fresh_digest = arena
            .parse(&source)
            .ok()
            .map(|id| digests.term_digest(arena, id));
        if fresh_digest != Some(key.digest) {
            report.stale += 1;
            return None;
        }
        if report.certified < certify_sample as u64 {
            report.certified += 1;
            if crate::certify::certify_source(&source, &answer).is_err() {
                report.corrupt += 1;
                return None;
            }
        }
        Some((key, CachedFixpoint::new(answer, recovered_report(key.rung))))
    }

    /// Validates one session journal file; `None` means delete it.
    fn load_session(
        &self,
        path: &Path,
        arena: &mut TermArena,
        digests: &mut ArenaDigests,
        report: &mut RecoveryReport,
    ) -> Option<(u64, Ancestor)> {
        let bytes = fs::read(path).ok()?;
        let Some(payload) = unframe(&bytes) else {
            report.corrupt += 1;
            return None;
        };
        if payload.len() < 8 {
            report.corrupt += 1;
            return None;
        }
        let session = u64::from_le_bytes(payload[..8].try_into().ok()?);
        let Some((key, source, answer)) = decode_entry_payload(&payload[8..]) else {
            report.corrupt += 1;
            return None;
        };
        let fresh_digest = arena
            .parse(&source)
            .ok()
            .map(|id| digests.term_digest(arena, id));
        if fresh_digest != Some(key.digest) {
            report.stale += 1;
            return None;
        }
        Some((
            session,
            Ancestor {
                kind: key.kind,
                digest: key.digest,
                source,
                fixpoint: Arc::new(CachedFixpoint::new(answer, recovered_report(key.rung))),
            },
        ))
    }
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
            returns: [(Label::new(1), BTreeSet::from([AbsKont::Stop]))]
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
            let slots: Vec<*const BTreeSet<AbsClo>> = r
                .vars
                .iter()
                .chain(r.terms.values())
                .map(Arc::as_ptr)
                .collect();
            let distinct: BTreeSet<_> = slots.iter().collect();
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
            assert_eq!(second, RecoveryReport::default(), "{fault:?}: not healed");
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
    fn remove_frees_the_entry_and_reports_bytes() {
        let dir = tmpdir("remove");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, fixpoint) = fixture(SRC);
        assert!(persist.store(&key, SRC, &fixpoint, None).unwrap());
        assert!(persist.remove(&key) > 0);
        assert_eq!(persist.remove(&key), 0, "second remove is a no-op");
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), 8);
        assert_eq!(report, RecoveryReport::default());
        let _ = fs::remove_dir_all(&dir);
    }
}
