//! One run of one workload: untimed set-up, the measured closed loop
//! against the real daemon, the correctness gate, and (traced runs) the
//! in-process replay of what the daemon was sent.

use crate::check::Gate;
use crate::client::{self, drive, Drive, Exchange, Until, TICK_US};
use crate::replay::{layer_times, Counts, Replay, LAYERS};
use crate::stats::{median, percentile};
use crate::stream::{Shape, Stream, Workload};
use crate::trace::Tracer;
use cpsdfa_service::proto::{Response, Status};
use cpsdfa_service::ServiceConfig;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Daemon starts per run whose start-up times give `setup_s`'s median:
/// at least `SETUP_MIN`, then more until `SETUP_MAX` or until `SETUP_SPAN`
/// has passed. Starts are `SETUP_GAP` apart: back-to-back starts all see
/// the host's scheduler in one state, while starts spread over seconds
/// sample its usual mix, which keeps the median of cheap starts steady.
/// The last start serves the measured stream.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 21;
const SETUP_SPAN: Duration = Duration::from_secs(2);
const SETUP_GAP: Duration = Duration::from_millis(100);
/// Share of the measured time spent first as an unmeasured warm-up.
const WARMUP_SHARE: f64 = 0.05;
/// A traced run drives the daemon for this share of `--seconds` and then
/// replays all of it, so the replay re-runs the first quarter of the
/// stream an untraced run serves, moments after the daemon ran it.
const TRACED_SHARE: f64 = 0.25;
/// Admission capacity large enough that no benchmark request is refused.
const CAPACITY: u64 = 1_000_000_000;

/// Where the daemon binary is and where runs may write.
pub struct Env {
    pub daemon: PathBuf,
    pub work: PathBuf,
}

/// What one run measured.
pub struct Outcome {
    /// `(metric name, value)` in print order.
    pub metrics: Vec<(&'static str, f64)>,
    pub gate: Gate,
    /// Human-readable context (sample counts, paths).
    pub notes: Vec<String>,
}

/// The daemon's flags for a workload; `certify` applies only to the timed
/// persist-restart daemon.
fn daemon_args(persist: Option<&Path>, certify: u64) -> Vec<String> {
    let mut args = vec![
        "--workers".to_owned(),
        "1".to_owned(),
        "--capacity".to_owned(),
        CAPACITY.to_string(),
    ];
    if let Some(dir) = persist {
        args.extend(["--persist-dir".to_owned(), dir.display().to_string()]);
    }
    if certify > 0 {
        args.extend(["--certify".to_owned(), certify.to_string()]);
    }
    args
}

/// The same daemon configuration, for the in-process replay.
pub fn service_config(persist: Option<PathBuf>, certify: u64) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        capacity_charges: CAPACITY,
        persist_dir: persist,
        certify_sample: certify,
        ..ServiceConfig::default()
    }
}

/// A run's private directory, removed when the run ends however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

pub(crate) fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to.join(entry.file_name()))?;
        } else {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

fn response(x: &Exchange) -> Option<&Response> {
    x.answer.as_ref().map(|(_, r)| r)
}

fn is_ok(x: &Exchange) -> bool {
    matches!(
        response(x),
        Some(Response {
            status: Status::Ok { .. },
            ..
        })
    )
}

/// Client-side latency: request line written to response line read.
fn client_ns(x: &Exchange) -> u64 {
    x.answer
        .as_ref()
        .map_or(0, |(at, _)| (*at - x.sent).as_nanos() as u64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn run(env: &Env, w: Workload, seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    let shape = Shape::FULL;
    let set = Stream::untimed_set(w, seed, shape);
    let mut gate = Gate::new();
    let mut notes = Vec::new();
    let dir = WorkDir(
        env.work
            .join(format!("{}-{}", w.name(), std::process::id())),
    );
    let _ = fs::remove_dir_all(&dir.0);
    fs::create_dir_all(&dir.0)?;
    let mut next_id = 1;

    // Persist-restart: an untimed daemon solves the population into the
    // spill directory; the timed daemon then recovers it.
    let persist = (w == Workload::PersistRestart).then(|| dir.0.join("spill"));
    let mut replay_spill = None;
    if let Some(spill) = &persist {
        let (mut d, _) = client::start(&env.daemon, &daemon_args(Some(spill), 0))?;
        let population = drive(
            &mut d,
            &mut [Stream::list(&set)],
            Until::Count(set.len()),
            &mut next_id,
        )?;
        d.shutdown()?;
        gate.observe(&population);
        if traced {
            let copy = dir.0.join("replay-spill");
            copy_dir(spill, &copy)?;
            replay_spill = Some(copy);
        }
    }

    let args = daemon_args(persist.as_deref(), w.certify_sample());
    let mut setup = Vec::new();
    let began = Instant::now();
    let mut d = loop {
        let (d, t) = client::start(&env.daemon, &args)?;
        setup.push(t.as_secs_f64());
        if setup.len() >= SETUP_MAX || (setup.len() >= SETUP_MIN && began.elapsed() >= SETUP_SPAN) {
            break d;
        }
        d.shutdown()?;
        std::thread::sleep(SETUP_GAP);
    };

    let priming = if w == Workload::HotHit {
        let p = drive(
            &mut d,
            &mut [Stream::list(&set)],
            Until::Count(set.len()),
            &mut next_id,
        )?;
        gate.observe(&p);
        Some(p)
    } else {
        None
    };

    let mut streams = Stream::clients(w, seed, shape, &set);
    let measure = Duration::from_secs_f64(if traced {
        seconds * TRACED_SHARE
    } else {
        seconds
    });
    let until = Until::Time {
        warmup: measure.mul_f64(WARMUP_SHARE),
        measure,
    };
    let timed = drive(&mut d, &mut streams, until, &mut next_id)?;
    let peak_rss_kib = d.peak_rss_kib()?;
    d.shutdown()?;
    gate.observe(&timed);

    let (start, end) = timed.window.expect("a timed drive closes its window");
    let read_in = |x: &&Exchange| {
        x.answer
            .as_ref()
            .is_some_and(|(at, _)| *at > start.at && *at <= end.at)
    };
    let served = timed.exchanges.iter().filter(read_in).count() as u64;
    let served_ok = timed
        .exchanges
        .iter()
        .filter(read_in)
        .filter(|x| is_ok(x))
        .count() as u64;
    let measured: Vec<&Exchange> = timed
        .exchanges
        .iter()
        .filter(|x| x.sent >= start.at && x.sent < end.at && is_ok(x))
        .collect();
    if measured.is_empty() || served == 0 {
        return Err(io::Error::other(format!(
            "{}: no request completed inside the measured window",
            w.name()
        )));
    }
    let daemon_us = |x: &Exchange| response(x).map_or(0, |r| r.latency_us);

    if !traced {
        gate.verify_in_process();
        let mut lat: Vec<u64> = measured.iter().map(|x| client_ns(x)).collect();
        lat.sort_unstable();
        let (p50, _) = percentile(&lat, 50.0);
        let (p90, beyond) = percentile(&lat, 90.0);
        let secs = (end.at - start.at).as_secs_f64();
        notes.push(format!(
            "{} latency samples, {beyond} beyond p90; {served} responses in {secs:.3} s; {} daemon starts",
            lat.len(),
            setup.len()
        ));
        let metrics = vec![
            ("rps", served_ok as f64 / secs),
            ("lat_p50_us", p50 as f64 / 1e3),
            ("lat_p90_us", p90 as f64 / 1e3),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss_kib as f64 / 1024.0),
            (
                "cpu_us_per_req",
                ((end.cpu_ticks - start.cpu_ticks) * TICK_US) as f64 / served as f64,
            ),
        ];
        return Ok(Outcome {
            metrics,
            gate,
            notes,
        });
    }

    // Traced run: queue wait as the client sees it, then the replay.
    let mut wait: Vec<u64> = measured
        .iter()
        .map(|x| client_ns(x).saturating_sub(daemon_us(x) * 1000))
        .collect();
    wait.sort_unstable();
    let mut handle_us: Vec<u64> = measured.iter().map(|x| daemon_us(x)).collect();
    handle_us.sort_unstable();

    let mut replay = Replay::new(service_config(replay_spill.clone(), w.certify_sample()))?;
    if let Some(p) = &priming {
        replay_drive(&mut replay, p, &mut gate)?;
    }
    replay.counts = Counts::default();
    let stats_before = replay.cache_stats();
    let spill_before = replay_spill
        .as_deref()
        .map(dir_bytes)
        .transpose()?
        .unwrap_or(0);
    replay_drive(&mut replay, &timed, &mut gate)?;
    let spill_after = replay_spill
        .as_deref()
        .map(dir_bytes)
        .transpose()?
        .unwrap_or(0);
    let stats_after = replay.cache_stats();
    gate.verify_in_process();

    let first_id = timed.exchanges[0].id;
    let layers = layer_times(&replay.tr, first_id);
    let c = &replay.counts;
    let per_req = |v: u64| ratio(v, c.requests);
    let layer_us = |span: &str| per_req(layers.self_ns.get(span).copied().unwrap_or(0)) / 1e3;
    let replayed_us: Vec<f64> = timed
        .exchanges
        .iter()
        .filter(|x| is_ok(x))
        .map(|x| daemon_us(x) as f64)
        .collect();
    let attributed: Vec<f64> = layers
        .attributed_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let daemon_median = median(&replayed_us);
    let replay_median = median(&attributed);
    let unattributed = if daemon_median > 0.0 {
        (replay_median - daemon_median).abs() / daemon_median
    } else {
        0.0
    };

    let spans_path = env.work.join(format!("spans-{}.jsonl", w.name()));
    let mut out = io::BufWriter::new(fs::File::create(&spans_path)?);
    replay.tr.write_jsonl(&mut out)?;
    let mut metrics: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&(span, name)| (name, layer_us(span)))
        .collect();
    let largest = metrics
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |m| m.0);
    notes.push(format!(
        "replayed {} requests; {} spans in {}; median handle {daemon_median:.1} µs in the daemon, {replay_median:.1} µs in layers of the replay; largest layer {largest}",
        c.requests,
        replay.tr.spans().len(),
        spans_path.display()
    ));
    metrics.extend([
        (
            "service.wait_us_p50",
            percentile(&wait, 50.0).0 as f64 / 1e3,
        ),
        (
            "service.wait_us_p99",
            percentile(&wait, 99.0).0 as f64 / 1e3,
        ),
        (
            "service.latency_us_p50",
            percentile(&handle_us, 50.0).0 as f64,
        ),
        ("arena.nodes_added_per_req", per_req(c.nodes_added)),
        ("cache.hit_ratio", ratio(c.hits, c.lookups)),
        (
            "cache.evictions",
            (stats_after.evictions - stats_before.evictions) as f64,
        ),
        ("cache.bytes", stats_after.bytes as f64),
        ("lower.labels_per_req", per_req(c.labels)),
        ("solve.charged_per_req", per_req(c.charged)),
        (
            "solve.ns_per_charge",
            ratio(layers.self_ns.get("solve").copied().unwrap_or(0), c.charged),
        ),
        ("solve.degraded_ratio", ratio(c.degraded, c.solves)),
        ("warm.fired_per_req", per_req(c.fired)),
        ("warm.answer_ratio", ratio(c.warm_answers, c.warm_attempts)),
        ("warm.cold_ratio", ratio(c.warm_cold, c.warm_attempts)),
        ("certify.ok", c.certify_ok as f64),
        ("certify.fail", c.certify_fail as f64),
        (
            "persist.bytes_per_store",
            ratio(spill_after - spill_before, c.stores),
        ),
        (
            "persist.recover_ms",
            replay_spill
                .as_ref()
                .map_or(0.0, |_| replay.recover_time.as_secs_f64() * 1e3),
        ),
        ("persist.recovered", replay.recovered as f64),
        ("replay.unattributed_frac", unattributed),
        ("trace.span_ns", span_cost_ns()),
    ]);
    Ok(Outcome {
        metrics,
        gate,
        notes,
    })
}

/// Replays every exchange of `drive` and holds each replayed answer
/// digest to the daemon's.
fn replay_drive(replay: &mut Replay, drive: &Drive, gate: &mut Gate) -> io::Result<()> {
    for x in &drive.exchanges {
        let mine = replay
            .request(x.id, &x.req.line(x.id))
            .map_err(|bad| io::Error::other(format!("replay refused its own line: {bad:?}")))?;
        let digest = |r: &Response| match r.status {
            Status::Ok { answer_digest, .. } => Some(answer_digest),
            _ => None,
        };
        if let Some(theirs) = response(x) {
            if digest(theirs) != digest(&mine) {
                gate.fail(
                    x.id,
                    format!(
                        "replay answered {:?}, daemon answered {:?}",
                        mine.status, theirs.status
                    ),
                );
            }
        }
    }
    Ok(())
}

/// What recording one span costs: a calibration loop on a throwaway tracer.
fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let mut tr = Tracer::new();
    let t = Instant::now();
    for i in 0..N {
        tr.set_request(i);
        let s = tr.begin("calibrate");
        tr.end(s);
    }
    t.elapsed().as_nanos() as f64 / N as f64
}
