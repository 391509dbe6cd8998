//! The daemon under test and the closed loop that feeds it.
//!
//! One pipe each way. The calling thread writes requests; one reader
//! thread per daemon timestamps every stdout line as it arrives. The
//! loop keeps one request outstanding per logical client, so a slow
//! daemon receives less load (a closed loop).

use crate::stream::{Req, Stream};
use cpsdfa_service::json;
use cpsdfa_service::proto::Response;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any single reply may take before the run is declared hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
pub const TICK_US: u64 = 10_000;

/// A running `cpsdfad` and its pipes. Dropping it kills and reaps the
/// process; [`Daemon::shutdown`] stops it cleanly.
pub struct Daemon {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    pub fn spawn(exe: &Path, args: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io::Error::other(format!("cannot start {}: {e}", exe.display())))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take().expect("stdin is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || -> io::Result<()> {
            let mut out = BufReader::new(stdout);
            let mut line = String::new();
            loop {
                line.clear();
                if out.read_line(&mut line)? == 0 {
                    return Ok(());
                }
                let at = Instant::now();
                if tx.send((at, line.trim_end().to_owned())).is_err() {
                    return Ok(());
                }
            }
        });
        Ok(Daemon {
            child,
            stdin: Some(BufWriter::new(stdin)),
            lines,
            reader: Some(reader),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes one line; returns the instant just before the write.
    pub fn send(&mut self, line: &str) -> io::Result<Instant> {
        let w = self.stdin.as_mut().expect("stdin open until shutdown");
        let at = Instant::now();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()?;
        Ok(at)
    }

    /// The next stdout line and the instant it was read.
    pub fn recv(&self) -> io::Result<(Instant, String)> {
        self.lines.recv_timeout(REPLY_TIMEOUT).map_err(|e| match e {
            RecvTimeoutError::Timeout => io::Error::other("daemon sent nothing for 60 s"),
            RecvTimeoutError::Disconnected => io::Error::other("daemon closed its stdout"),
        })
    }

    /// Sends `{"cmd": cmd}` and returns the reply's fields. Only valid
    /// while no request is outstanding.
    pub fn command(&mut self, cmd: &str) -> io::Result<Vec<(String, json::Scalar)>> {
        self.send(&format!("{{\"cmd\": \"{cmd}\"}}"))?;
        let (_, line) = self.recv()?;
        json::parse_object(&line)
            .map_err(|e| io::Error::other(format!("bad {cmd} reply {line:?}: {e}")))
    }

    /// utime + stime of every daemon thread so far, in ticks.
    pub fn cpu_ticks(&self) -> io::Result<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("unreadable /proc stat"))?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| -> io::Result<u64> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| io::Error::other("unreadable /proc stat"))
        };
        Ok(field(11)? + field(12)?)
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Asks the daemon to drain and exit, then reaps it and its reader.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.send("{\"cmd\": \"shutdown\"}")?;
        drop(self.stdin.take());
        let status = self.child.wait()?;
        let reader = self.reader.take().expect("reader joined once");
        reader
            .join()
            .map_err(|_| io::Error::other("stdout reader panicked"))??;
        if !status.success() {
            return Err(io::Error::other(format!("daemon exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// Spawns a daemon and waits for its `health` reply; returns it with the
/// elapsed time (the `setup_s` sample).
pub fn start(exe: &Path, args: &[String]) -> io::Result<(Daemon, Duration)> {
    let t = Instant::now();
    let mut d = Daemon::spawn(exe, args)?;
    let health = d.command("health")?;
    let elapsed = t.elapsed();
    match json::field(&health, "status").and_then(json::Scalar::as_str) {
        Some("health") => Ok((d, elapsed)),
        _ => Err(io::Error::other(format!(
            "unexpected health reply {health:?}"
        ))),
    }
}

/// One request and, once it came back, its answer.
pub struct Exchange {
    pub id: u64,
    pub client: usize,
    pub req: Req,
    pub sent: Instant,
    /// Receive instant and the response.
    pub answer: Option<(Instant, Response)>,
}

/// When a drive stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many requests in total.
    Count(usize),
    /// After a warm-up and a measured window, both wall-clock.
    Time { warmup: Duration, measure: Duration },
}

/// A reading taken as the drive crossed an edge of the measured window:
/// the instant and the daemon's CPU ticks so far.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub cpu_ticks: u64,
}

pub struct Drive {
    /// Every request in send order.
    pub exchanges: Vec<Exchange>,
    /// Start and end of a timed drive's measured window.
    pub window: Option<(Mark, Mark)>,
    /// Lines that are not a response to an outstanding request.
    pub strays: Vec<String>,
}

/// Logical clients: each waits for its answer before sending again, so at
/// most this many requests are outstanding.
pub const CLIENTS: usize = 2;

/// Runs the closed loop: one outstanding request per client, ids drawn
/// from `next_id`, until `until` says stop; then drains. Client `c` draws
/// from `streams[c % streams.len()]`: with one stream the clients share a
/// single sequence, which the daemon then serves in exactly that order.
pub fn drive(
    d: &mut Daemon,
    streams: &mut [Stream],
    until: Until,
    next_id: &mut u64,
) -> io::Result<Drive> {
    let t0 = Instant::now();
    // The edges of the measured window; each is marked at the first
    // response read at or after it.
    let edges: Vec<Instant> = match until {
        Until::Count(_) => Vec::new(),
        Until::Time { warmup, measure } => vec![t0 + warmup, t0 + warmup + measure],
    };
    let first_id = *next_id;
    let mut out = Drive {
        exchanges: Vec::new(),
        window: None,
        strays: Vec::new(),
    };
    let mut marks: Vec<Mark> = Vec::new();
    let mut outstanding = 0usize;

    let mut issue = |d: &mut Daemon,
                     out: &mut Drive,
                     client: usize,
                     streams: &mut [Stream]|
     -> io::Result<bool> {
        let go = match until {
            Until::Count(n) => out.exchanges.len() < n,
            Until::Time { .. } => out.window.is_none(),
        };
        let lane = client % streams.len();
        let Some(req) = go.then(|| streams[lane].next()).flatten() else {
            return Ok(false);
        };
        let id = *next_id;
        *next_id += 1;
        let sent = d.send(&req.line(id))?;
        out.exchanges.push(Exchange {
            id,
            client,
            req,
            sent,
            answer: None,
        });
        Ok(true)
    };

    for client in 0..CLIENTS {
        outstanding += usize::from(issue(d, &mut out, client, streams)?);
    }
    while outstanding > 0 {
        let (at, line) = d.recv()?;
        let parsed = Response::parse(&line).ok();
        let slot = parsed
            .as_ref()
            .and_then(|r| r.id.checked_sub(first_id))
            .and_then(|i| out.exchanges.get_mut(i as usize))
            .filter(|x| x.answer.is_none());
        let (Some(x), Some(response)) = (slot, parsed) else {
            out.strays.push(line);
            continue;
        };
        x.answer = Some((at, response));
        let client = x.client;
        outstanding -= 1;
        if edges.get(marks.len()).is_some_and(|&edge| at >= edge) {
            marks.push(Mark {
                at: Instant::now(),
                cpu_ticks: d.cpu_ticks()?,
            });
            if let [start, end] = marks[..] {
                out.window = Some((start, end));
            }
        }
        outstanding += usize::from(issue(d, &mut out, client, streams)?);
    }
    Ok(out)
}
