//! The spill writer: one thread that owns every write the service makes to
//! its persist directory, so a request is answered before its spill is
//! durable.
//!
//! Workers hand a spill over through a bounded channel and return at once.
//! A spill that finds the channel full is dropped and counted: the persist
//! tier is a cache, so a lost spill costs a later miss, never a wrong
//! answer. Deletes block until the channel takes them, so they run in
//! order after every store queued before them: a queued store can never
//! bring back an entry that a later delete removed. The writer calls
//! [`PersistDir::store`] and [`PersistDir::store_session`] as they stand,
//! so a crash loses at most the queued spills and never leaves a torn or
//! wrong entry.

use cpsdfa_core::cache::{Ancestor, CacheKey, CachedFixpoint, PersistDir};
use cpsdfa_core::faultinject::PersistFault;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spills the channel holds; one more is dropped. At the request rates
/// the daemon sustains, the writer's fsyncs keep the channel far from full.
const SPILL_QUEUE: usize = 64;

/// One directory mutation, in the order the service issued it.
enum Job {
    Store {
        key: CacheKey,
        source: String,
        fixpoint: Arc<CachedFixpoint>,
        fault: Option<PersistFault>,
    },
    Session {
        session: u64,
        ancestor: Ancestor,
        fault: Option<PersistFault>,
    },
    /// Deletes an entry and replies with the bytes it freed.
    Remove {
        key: CacheKey,
        freed: SyncSender<u64>,
    },
    RemoveSession(u64),
    /// Replies once every earlier job is done.
    Drain(SyncSender<()>),
}

/// The handle the service keeps: the channel's sending end, the writer
/// thread, and the spill counters.
pub(crate) struct SpillWriter {
    /// `None` only while [`Drop`] closes the channel.
    jobs: Option<SyncSender<Job>>,
    thread: Option<JoinHandle<()>>,
    /// Stores and session journals that landed on disk.
    spilled: Arc<AtomicU64>,
    /// Stores and session journals refused by a full channel.
    dropped: AtomicU64,
}

impl SpillWriter {
    /// Starts the writer thread for `dir`.
    pub(crate) fn spawn(dir: PersistDir) -> io::Result<SpillWriter> {
        SpillWriter::with_capacity(dir, SPILL_QUEUE)
    }

    fn with_capacity(dir: PersistDir, capacity: usize) -> io::Result<SpillWriter> {
        let (jobs, queue) = mpsc::sync_channel(capacity);
        let spilled = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&spilled);
        let thread = std::thread::Builder::new()
            .name("cpsdfa-spill".to_owned())
            .spawn(move || run(&dir, queue, &counter))?;
        Ok(SpillWriter {
            jobs: Some(jobs),
            thread: Some(thread),
            spilled,
            dropped: AtomicU64::new(0),
        })
    }

    fn sender(&self) -> &SyncSender<Job> {
        self.jobs
            .as_ref()
            .expect("the channel stays open until drop")
    }

    /// Queues `job` if the channel has room; otherwise drops and counts it.
    fn offer(&self, job: Job) {
        if self.sender().try_send(job).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queues a cache entry's spill.
    pub(crate) fn store(
        &self,
        key: CacheKey,
        source: String,
        fixpoint: Arc<CachedFixpoint>,
        fault: Option<PersistFault>,
    ) {
        self.offer(Job::Store {
            key,
            source,
            fixpoint,
            fault,
        });
    }

    /// Queues a watch session's journal entry.
    pub(crate) fn store_session(
        &self,
        session: u64,
        ancestor: Ancestor,
        fault: Option<PersistFault>,
    ) {
        self.offer(Job::Session {
            session,
            ancestor,
            fault,
        });
    }

    /// Deletes `key`'s entry after every spill queued before it, and
    /// returns the file size freed (0 when nothing was on disk).
    pub(crate) fn remove(&self, key: CacheKey) -> u64 {
        let (freed, reply) = mpsc::sync_channel(1);
        if self.sender().send(Job::Remove { key, freed }).is_err() {
            return 0;
        }
        reply.recv().unwrap_or(0)
    }

    /// Deletes a session's journal entry after every spill queued before it.
    pub(crate) fn remove_session(&self, session: u64) {
        let _ = self.sender().send(Job::RemoveSession(session));
    }

    /// Blocks until every job queued so far is done.
    pub(crate) fn drain(&self) {
        let (done, reply) = mpsc::sync_channel(1);
        if self.sender().send(Job::Drain(done)).is_ok() {
            let _ = reply.recv();
        }
    }

    pub(crate) fn spilled(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for SpillWriter {
    /// Closes the channel and waits for the writer to finish what it holds.
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The writer thread: runs jobs in order until the channel closes. I/O
/// errors leave the entry off disk, which recovery treats as a cold start.
fn run(dir: &PersistDir, queue: Receiver<Job>, spilled: &AtomicU64) {
    for job in queue {
        let landed = match job {
            Job::Store {
                key,
                source,
                fixpoint,
                fault,
            } => dir.store(&key, &source, &fixpoint, fault),
            Job::Session {
                session,
                ancestor,
                fault,
            } => dir.store_session(session, &ancestor, fault),
            Job::Remove { key, freed } => {
                let _ = freed.send(dir.remove(&key));
                continue;
            }
            Job::RemoveSession(session) => {
                dir.remove_session(session);
                continue;
            }
            Job::Drain(done) => {
                let _ = done.send(());
                continue;
            }
        };
        if matches!(landed, Ok(true)) {
            spilled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsdfa_core::cache::{AnalysisKind, ArenaDigests, CachedAnswer, FixpointCache};
    use cpsdfa_core::govern::DegradationReport;
    use cpsdfa_syntax::arena::TermArena;
    use std::path::PathBuf;

    const SRC: &str = "(let (f (lambda (x) x)) (f f))";

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpsdfa-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fixture() -> (CacheKey, Arc<CachedFixpoint>) {
        let mut arena = TermArena::new();
        let root = arena.parse(SRC).unwrap();
        let digest = ArenaDigests::new().term_digest(&arena, root);
        let program = cpsdfa_anf::AnfProgram::parse(SRC).unwrap();
        let answer = CachedAnswer::CfaSrc(cpsdfa_core::cfa::zero_cfa(&program).unwrap());
        (
            CacheKey::new(AnalysisKind::CfaSrc, digest),
            Arc::new(CachedFixpoint::new(answer, DegradationReport::default())),
        )
    }

    fn entries(dir: &std::path::Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().is_file())
            .count()
    }

    #[test]
    fn a_queued_store_then_a_remove_of_its_key_leaves_no_file() {
        let dir = tmpdir("store-remove");
        let writer = SpillWriter::spawn(PersistDir::open(&dir).unwrap()).unwrap();
        let (key, fixpoint) = fixture();
        writer.store(key, SRC.to_owned(), fixpoint, None);
        // The remove runs after the store it follows, so it frees the
        // stored file instead of racing it.
        assert!(writer.remove(key) > 0);
        writer.drain();
        assert_eq!(entries(&dir), 0);
        assert_eq!((writer.spilled(), writer.dropped()), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_channel_drops_and_counts_the_spill() {
        let dir = tmpdir("full");
        let writer = SpillWriter::with_capacity(PersistDir::open(&dir).unwrap(), 1).unwrap();
        // Park the writer in a drain whose reply nobody takes yet, then
        // fill the one slot behind it.
        let (done, parked) = mpsc::sync_channel(0);
        writer.sender().send(Job::Drain(done)).unwrap();
        while writer.sender().try_send(Job::RemoveSession(7)).is_err() {
            std::thread::yield_now();
        }
        let (key, fixpoint) = fixture();
        writer.store(key, SRC.to_owned(), Arc::clone(&fixpoint), None);
        assert_eq!(writer.dropped(), 1, "a full channel refuses the spill");
        parked.recv().unwrap();
        // Once the queue is empty again, the next spill is taken.
        writer.drain();
        writer.store(key, SRC.to_owned(), fixpoint, None);
        writer.drain();
        assert_eq!((writer.spilled(), writer.dropped()), (1, 1));
        assert_eq!(entries(&dir), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_writer_lands_every_queued_spill() {
        let dir = tmpdir("drop");
        let persist = PersistDir::open(&dir).unwrap();
        let (key, fixpoint) = fixture();
        let writer = SpillWriter::spawn(persist.clone()).unwrap();
        writer.store(key, SRC.to_owned(), Arc::clone(&fixpoint), None);
        let ancestor = Ancestor {
            kind: key.kind,
            digest: key.digest,
            source: SRC.to_owned(),
            fixpoint,
        };
        writer.store_session(3, ancestor, None);
        drop(writer);
        let report = persist.recover(&mut FixpointCache::new(u64::MAX), usize::MAX);
        assert_eq!((report.recovered, report.sessions), (1, 1), "{report:?}");
        assert_eq!(report.dropped(), 0, "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
