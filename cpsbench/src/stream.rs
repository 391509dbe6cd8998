//! The four workloads and their seeded request streams.
//!
//! Every stream is a pure function of (workload, seed, lane): lanes 0 and
//! 1 are the two logical clients, lane 2 builds the untimed sets (the
//! hot-hit pool, the persist-restart population). The daemon only ever
//! sees the rendered request lines.

use cpsdfa_core::cache::AnalysisKind;
use cpsdfa_service::json;
use cpsdfa_syntax::build::{let_, num};
use cpsdfa_syntax::Term;
use cpsdfa_workloads::edits::{edit_script, EditKind, ALL_EDIT_KINDS};
use cpsdfa_workloads::families;
use cpsdfa_workloads::random::{self, GenConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a distinct program: the whole miss path, no hits.
    ColdMiss,
    /// A primed pool drawn by Zipf: all hits, zero solver work.
    HotHit,
    /// Two watch sessions streaming edit scripts: the warm-start path.
    WatchEdits,
    /// Recovery from a populated spill directory, then reads beside
    /// fsync'd writes with sampled certification.
    PersistRestart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdMiss,
        Workload::HotHit,
        Workload::WatchEdits,
        Workload::PersistRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMiss => "cold-miss",
            Workload::HotHit => "hot-hit",
            Workload::WatchEdits => "watch-edits",
            Workload::PersistRestart => "persist-restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Daemon flags beyond the shared `--workers 1 --capacity 1000000000`.
    pub fn certify_sample(self) -> u64 {
        match self {
            Workload::PersistRestart => 4,
            _ => 0,
        }
    }
}

/// Program sizes and set sizes of the generated streams.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Family size range of cold-miss and fresh persist-restart programs.
    pub fresh_n: (usize, usize),
    /// `max_depth` of the random open programs (a quarter of CFA requests).
    pub random_depth: usize,
    /// Hot-hit pool: entry count and family size range.
    pub pool: usize,
    pub pool_n: (usize, usize),
    /// Watch-edits: base size range and edit steps per session.
    pub watch_n: (usize, usize),
    pub watch_steps: usize,
    /// Persist-restart: programs solved into the spill directory before
    /// the timed daemon starts.
    pub population: usize,
}

impl Shape {
    /// The benchmark's sizes.
    pub const FULL: Shape = Shape {
        fresh_n: (16, 192),
        random_depth: 8,
        pool: 64,
        pool_n: (64, 320),
        watch_n: (40, 72),
        watch_steps: 100,
        population: 400,
    };

    /// Small sizes for unit tests (debug builds).
    #[cfg(test)]
    pub const SMALL: Shape = Shape {
        fresh_n: (4, 24),
        random_depth: 5,
        pool: 12,
        pool_n: (8, 40),
        watch_n: (8, 24),
        watch_steps: 12,
        population: 20,
    };
}

/// One analysis request, before an id is assigned.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub kind: AnalysisKind,
    pub program: Arc<str>,
    pub session: Option<u64>,
}

impl Req {
    /// The request line the daemon reads.
    pub fn line(&self, id: u64) -> String {
        let session = self
            .session
            .map_or(String::new(), |s| format!(", \"session\": {s}"));
        format!(
            "{{\"id\": {id}, \"analysis\": \"{}\", \"program\": \"{}\"{session}}}",
            self.kind.as_str(),
            json::escape(&self.program)
        )
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` has weight `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Generator state of one lane.
pub struct Stream {
    rng: StdRng,
    lane: u64,
    shape: Shape,
    seed: u64,
    /// Where this lane's golden-ratio size sequence starts.
    offset: f64,
    /// Fresh programs made so far (feeds the uniqueness wrapper and the
    /// schedule).
    made: u64,
    /// Requests issued so far.
    issued: u64,
    source: Source,
}

enum Source {
    /// Distinct programs only (cold-miss).
    Fresh,
    /// Zipf draws from a fixed set (hot-hit).
    Pool(Arc<[Req]>, Zipf),
    /// Session after session of edit scripts (watch-edits).
    Watch {
        sessions: u64,
        queued: VecDeque<Req>,
    },
    /// Zipf reads of the recovered set alternating with fresh programs
    /// (persist-restart).
    ReadWrite(Arc<[Req]>, Zipf),
    /// A finite list (priming, population), then nothing.
    List(VecDeque<Req>),
}

/// Lanes per seed: two clients plus the set-building lane.
const LANES: u64 = 3;
/// The lane that builds the untimed sets.
pub const SET_LANE: u64 = 2;

/// Program families. `mfp.flat` needs first-order programs, so it draws
/// from the chains; the CFA analyses draw from the closure families.
#[derive(Debug, Clone, Copy)]
enum Family {
    Dispatch,
    Polyvariant,
    RepeatedCalls,
    /// `random::generate` over `open_config()`.
    Random,
    DiamondChain,
    CondChain,
}

const CFA_FAMILIES: [Family; 4] = [
    Family::Dispatch,
    Family::Polyvariant,
    Family::RepeatedCalls,
    Family::Random,
];
const MFP_FAMILIES: [Family; 2] = [Family::DiamondChain, Family::CondChain];

/// Slot `k` of a stratified schedule: the analyses rotate, so each takes
/// exactly a quarter of the slots; families rotate within an analysis
/// (`random` admits the random open programs as a quarter of the CFA
/// slots); sizes follow the golden-ratio sequence from `offset`. Any
/// window of slots covers the mix and the size range evenly, so a seed
/// moves which programs run but hardly what they cost in aggregate, and
/// runs on different seeds stay comparable.
fn slot(
    k: u64,
    offset: f64,
    (lo, hi): (usize, usize),
    random: bool,
) -> (AnalysisKind, Family, usize) {
    let kind = AnalysisKind::ALL[(k % 4) as usize];
    let round = (k / 4) as usize;
    let family = if kind == AnalysisKind::MfpFlat {
        MFP_FAMILIES[round % MFP_FAMILIES.len()]
    } else if random {
        CFA_FAMILIES[round % CFA_FAMILIES.len()]
    } else {
        CFA_FAMILIES[round % (CFA_FAMILIES.len() - 1)]
    };
    let u = (offset + k as f64 * 0.618_033_988_749_894_9).fract();
    let n = (lo + (u * (hi - lo + 1) as f64) as usize).min(hi);
    (kind, family, n)
}

fn lane_rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane)
}

fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl Stream {
    fn new(seed: u64, lane: u64, shape: Shape, source: Source) -> Stream {
        let mut rng = lane_rng(seed, lane);
        // The untimed sets start every seed's size sequence at the same
        // place, so Zipf rank r is the same-sized program for every seed.
        let offset = if lane == SET_LANE {
            0.0
        } else {
            unit(&mut rng)
        };
        Stream {
            rng,
            lane,
            shape,
            seed,
            offset,
            made: 0,
            issued: 0,
            source,
        }
    }

    /// The timed streams of `workload`: one per watch session lane, since
    /// a session's edits must arrive in order; otherwise one stream the
    /// clients share. `set` is the pool (hot-hit) or the recovered
    /// population (persist-restart); other workloads ignore it.
    pub fn clients(workload: Workload, seed: u64, shape: Shape, set: &Arc<[Req]>) -> Vec<Stream> {
        let one = |lane: u64| {
            let source = match workload {
                Workload::ColdMiss => Source::Fresh,
                Workload::HotHit => Source::Pool(Arc::clone(set), Zipf::new(set.len())),
                Workload::WatchEdits => Source::Watch {
                    sessions: 0,
                    queued: VecDeque::new(),
                },
                Workload::PersistRestart => {
                    Source::ReadWrite(Arc::clone(set), Zipf::new(set.len()))
                }
            };
            Stream::new(seed, lane, shape, source)
        };
        match workload {
            Workload::WatchEdits => (0..crate::client::CLIENTS as u64).map(one).collect(),
            _ => vec![one(0)],
        }
    }

    /// A stream that yields `reqs` once, in order.
    pub fn list(reqs: &[Req]) -> Stream {
        Stream::new(
            0,
            SET_LANE,
            Shape::FULL,
            Source::List(reqs.iter().cloned().collect()),
        )
    }

    /// The untimed set `workload` needs, built on [`SET_LANE`]: the
    /// hot-hit pool or the persist-restart population (empty otherwise).
    pub fn untimed_set(workload: Workload, seed: u64, shape: Shape) -> Arc<[Req]> {
        let mut s = Stream::new(seed, SET_LANE, shape, Source::Fresh);
        let reqs: Vec<Req> = match workload {
            Workload::HotHit => (0..shape.pool)
                .map(|_| s.make(shape.pool_n, false))
                .collect(),
            Workload::PersistRestart => (0..shape.population)
                .map(|_| s.make(shape.fresh_n, true))
                .collect(),
            _ => Vec::new(),
        };
        reqs.into()
    }

    /// The next request, or `None` once a finite list is exhausted.
    pub fn next(&mut self) -> Option<Req> {
        self.issued += 1;
        match &mut self.source {
            Source::Fresh => {}
            Source::Pool(pool, zipf) => return Some(pool[zipf.sample(&mut self.rng)].clone()),
            Source::ReadWrite(set, zipf) => {
                if self.issued % 2 == 1 {
                    return Some(set[zipf.sample(&mut self.rng)].clone());
                }
            }
            Source::Watch { .. } => return Some(self.watch_step()),
            Source::List(reqs) => return reqs.pop_front(),
        }
        Some(self.make(self.shape.fresh_n, true))
    }

    /// The lane's next scheduled program, wrapped in `(let (uniqI seed) …)`
    /// with `I` unique across lanes, so no other request of the run
    /// carries the same program.
    fn make(&mut self, sizes: (usize, usize), random: bool) -> Req {
        let (kind, family, n) = slot(self.made, self.offset, sizes, random);
        let term = self.build(family, n);
        let uniq = self.made * LANES + self.lane;
        self.made += 1;
        let program = let_(format!("uniq{uniq}"), num(self.seed as i64), term).to_string();
        Req {
            kind,
            program: program.into(),
            session: None,
        }
    }

    fn build(&mut self, family: Family, n: usize) -> Term {
        match family {
            Family::Dispatch => families::dispatch(n),
            Family::Polyvariant => families::polyvariant(n),
            Family::RepeatedCalls => families::repeated_calls(n),
            Family::DiamondChain => families::diamond_chain(n),
            Family::CondChain => families::cond_chain(n),
            Family::Random => {
                let config = GenConfig {
                    max_depth: self.shape.random_depth,
                    ..random::open_config()
                };
                random::generate(self.rng.next_u64(), &config)
            }
        }
    }

    /// The next watch request; opens the lane's next session (fresh id,
    /// base and analysis, all four analyses in rotation) when the current
    /// script is used up.
    fn watch_step(&mut self) -> Req {
        let Source::Watch { sessions, queued } = &mut self.source else {
            unreachable!("watch_step on a non-watch stream");
        };
        if queued.is_empty() {
            let j = *sessions;
            *sessions += 1;
            let (kind, family, n) = slot(j + self.lane, self.offset, self.shape.watch_n, false);
            let session = 1 + j * LANES + self.lane;
            // λ-insertions would make an MFP program higher-order, which
            // `mfp.flat` refuses; its sessions cycle the other six kinds.
            let cycle: Vec<EditKind> = ALL_EDIT_KINDS
                .into_iter()
                .filter(|k| kind != AnalysisKind::MfpFlat || *k != EditKind::InsertLambda)
                .collect();
            let kinds: Vec<EditKind> = (0..self.shape.watch_steps)
                .map(|i| cycle[i % cycle.len()])
                .collect();
            let base = self.build(family, n);
            let script = edit_script(&base, &kinds, self.rng.next_u64());
            let Source::Watch { queued, .. } = &mut self.source else {
                unreachable!("still a watch stream");
            };
            let req = |t: &Term| Req {
                kind,
                program: t.to_string().into(),
                session: Some(session),
            };
            queued.push_back(req(&script.base));
            queued.extend(script.steps.iter().map(|s| req(&s.term)));
        }
        let Source::Watch { queued, .. } = &mut self.source else {
            unreachable!("still a watch stream");
        };
        queued
            .pop_front()
            .expect("a fresh script holds at least its base")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        let set = Stream::untimed_set(workload, seed, Shape::SMALL);
        let mut out: Vec<String> = set.iter().map(|r| r.line(0)).collect();
        for mut s in Stream::clients(workload, seed, Shape::SMALL, &set) {
            out.extend(
                (0..n).map(|i| s.next().expect("client streams are endless").line(i as u64)),
            );
        }
        out
    }

    #[test]
    fn streams_are_byte_identical_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = lines(w, 1, 40);
            assert_eq!(a, lines(w, 1, 40), "{}", w.name());
            assert_ne!(a, lines(w, 2, 40), "{}", w.name());
        }
    }

    #[test]
    fn fresh_programs_are_distinct_across_lanes() {
        let mut seen = std::collections::HashSet::new();
        let population = Stream::untimed_set(Workload::PersistRestart, 3, Shape::SMALL);
        let mut timed = Stream::clients(Workload::ColdMiss, 3, Shape::SMALL, &population);
        let fresh = (0..100).map(|_| timed[0].next().unwrap());
        for r in population.iter().cloned().chain(fresh) {
            assert!(seen.insert((r.kind, r.program)), "repeated program");
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(64);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1/H(64) ≈ 0.21; P(rank 1) is half that.
        assert!((3_600..4_800).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[63]);
    }

    #[test]
    fn watch_sessions_rotate_ids_and_analyses() {
        let set: Arc<[Req]> = Vec::new().into();
        let mut s = Stream::clients(Workload::WatchEdits, 1, Shape::SMALL, &set).remove(0);
        let reqs: Vec<Req> = (0..200).map(|_| s.next().unwrap()).collect();
        let mut sessions: Vec<(u64, AnalysisKind)> = reqs
            .iter()
            .map(|r| (r.session.expect("watch requests carry a session"), r.kind))
            .collect();
        sessions.dedup();
        assert!(sessions.len() >= 4, "{sessions:?}");
        let kinds: std::collections::HashSet<_> = sessions.iter().map(|s| s.1).collect();
        assert_eq!(kinds.len(), 4);
    }
}
