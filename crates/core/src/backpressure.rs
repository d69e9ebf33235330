//! Bounded admission in front of the durable ledger path.
//!
//! Under an open-loop load generator (see `crates/load`, E21) the server
//! cannot make clients slow down — whatever it does not shed it must
//! queue, and an unbounded queue converts overload into unbounded memory
//! growth and unbounded latency. [`BackpressureSink`] makes the admission
//! decision explicit:
//!
//! * `deliver` pushes the message onto a **bounded** queue and blocks the
//!   calling session worker until a drainer thread has (a) run the inner
//!   sink — the Zmail ledger — and (b) made the accepted message durable
//!   in the spool, **then** acks. The SMTP `250` therefore means "ledger
//!   ran and the bytes survived a crash", never "we buffered it";
//! * when the queue is full the message is shed immediately with
//!   [`SinkError::Overloaded`], which the session answers as a transient
//!   SMTP `452` (`load.shed.queue_full`);
//! * the drainer drains the queue in batches and issues **one** spool
//!   sync per batch — the same group-commit trade the WAL engine makes
//!   (`zmail_store::LedgerStore`), so the fsync cost is amortized across
//!   every session currently waiting, which is exactly the bottleneck the
//!   E21 offered-load sweep is designed to expose.
//!
//! Nobody waits on a dead thread. A panic inside the inner sink is caught
//! and answered `452` for that message alone (its batch-mates still
//! spool, sync and ack); if the drainer itself dies — a panicking storage
//! backend — the sink stops admitting and every message queued or in
//! hand is shed with `452`, where it used to park its session forever.
//!
//! The queue/commit counters live under `load.queue.*` / `load.commit.*`
//! and the shed counter under `load.shed.*` in the global `zmail-obs`
//! registry; always-on copies are available via
//! [`BackpressureSink::stats`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;
use zmail_smtp::{MailMessage, MailSink, SinkError};
use zmail_store::Storage;

/// Tuning for a [`BackpressureSink`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Bounded queue depth; a push beyond it sheds with `452`.
    pub queue_depth: usize,
    /// Max messages drained (and group-committed) per batch.
    pub batch: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_depth: 256,
            batch: 64,
        }
    }
}

/// Always-on counters for a [`BackpressureSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Messages admitted to the queue.
    pub admitted: u64,
    /// Messages shed with `452`: the queue was full, the sink was
    /// stopped, or the drainer died with them queued or in hand.
    pub shed: u64,
    /// Messages the inner sink accepted and the spool made durable.
    pub delivered: u64,
    /// Messages the inner sink refused (`552` bounces) or panicked on
    /// (`452`).
    pub bounced: u64,
    /// Group-commit batches flushed.
    pub batches: u64,
    /// Bytes appended to the durable spool.
    pub spooled_bytes: u64,
}

#[derive(Debug, Default)]
struct AtomicStats {
    admitted: AtomicU64,
    shed: AtomicU64,
    delivered: AtomicU64,
    bounced: AtomicU64,
    batches: AtomicU64,
    spooled_bytes: AtomicU64,
}

/// The one way this file takes a lock or comes back from a condvar wait:
/// through poison. The queue and completion locks are never held across
/// foreign code; the spool lock is held across [`Storage`] calls, and a
/// backend that panics there takes the drainer — the spool's only writer
/// — with it, so what a poisoned guard still protects is read-only. An
/// `expect` here would turn that one panic into one per caller.
fn held<T>(guard: LockResult<T>) -> T {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// One message's rendezvous between the session worker and the drainer.
struct Completion {
    slot: Mutex<Option<Result<(), SinkError>>>,
    done: Condvar,
}

impl Completion {
    fn new() -> Arc<Self> {
        Arc::new(Completion {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<(), SinkError>) {
        *held(self.slot.lock()) = Some(result);
        self.done.notify_one();
    }

    fn wait(&self) -> Result<(), SinkError> {
        let mut slot = held(self.slot.lock());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = held(self.done.wait(slot));
        }
    }
}

struct Job {
    message: MailMessage,
    enqueued: Instant,
    completion: Arc<Completion>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    stopped: bool,
}

struct Shared<S> {
    inner: S,
    config: AdmissionConfig,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    spool: Mutex<Box<dyn Storage + Send>>,
    stats: AtomicStats,
    shed_ctr: zmail_obs::Counter,
    depth_gauge: zmail_obs::Gauge,
    wait_us: zmail_obs::Histogram,
    batch_msgs: zmail_obs::Histogram,
    sync_us: zmail_obs::Histogram,
}

impl<S> Shared<S> {
    /// Counts one shed message and words its `452`.
    fn shed(&self, why: &str) -> SinkError {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        self.shed_ctr.inc();
        SinkError::overloaded(why)
    }
}

/// Name of the durable spool blob inside the storage backend.
pub const SPOOL_BLOB: &str = "admission.spool";

/// A [`MailSink`] decorator: bounded admission queue + group-committed
/// durable spool in front of any inner sink. Clones share state.
pub struct BackpressureSink<S> {
    shared: Arc<Shared<S>>,
    drainer: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl<S> Clone for BackpressureSink<S> {
    fn clone(&self) -> Self {
        BackpressureSink {
            shared: Arc::clone(&self.shared),
            drainer: Arc::clone(&self.drainer),
        }
    }
}

impl<S> std::fmt::Debug for BackpressureSink<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackpressureSink")
            .field("stats", &self.stats())
            .finish()
    }
}

impl<S: MailSink + Send + Sync + 'static> BackpressureSink<S> {
    /// Starts the drainer thread over `inner`, spooling accepted messages
    /// durably into `spool` (a `zmail_store` byte backend: in-memory for
    /// tests, [`zmail_store::FileStorage`] for real fsync costs).
    pub fn start(
        inner: S,
        spool: Box<dyn Storage + Send>,
        config: AdmissionConfig,
    ) -> BackpressureSink<S> {
        assert!(config.queue_depth > 0, "queue_depth must be positive");
        assert!(config.batch > 0, "batch must be positive");
        let obs = zmail_obs::global();
        let shared = Arc::new(Shared {
            inner,
            config,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                stopped: false,
            }),
            not_empty: Condvar::new(),
            spool: Mutex::new(spool),
            stats: AtomicStats::default(),
            shed_ctr: obs.counter("load.shed.queue_full"),
            depth_gauge: obs.gauge("load.queue.depth"),
            wait_us: obs.histogram("load.queue.wait_us"),
            batch_msgs: obs.histogram("load.commit.batch_msgs"),
            sync_us: obs.histogram("load.commit.sync_us"),
        });
        let drain_shared = Arc::clone(&shared);
        let drainer = std::thread::spawn(move || drain_loop(&drain_shared));
        BackpressureSink {
            shared,
            drainer: Arc::new(Mutex::new(Some(drainer))),
        }
    }
}

impl<S> BackpressureSink<S> {
    /// Stops admitting, drains everything already queued, joins the
    /// drainer. Idempotent; `deliver` afterwards sheds with `452`.
    pub fn shutdown(&self) {
        {
            let mut state = held(self.shared.queue.lock());
            state.stopped = true;
            self.shared.not_empty.notify_all();
        }
        if let Some(handle) = held(self.drainer.lock()).take() {
            let _ = handle.join();
        }
    }

    /// Snapshot of the always-on admission counters.
    pub fn stats(&self) -> AdmissionStats {
        let s = &self.shared.stats;
        AdmissionStats {
            admitted: s.admitted.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            delivered: s.delivered.load(Ordering::Relaxed),
            bounced: s.bounced.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            spooled_bytes: s.spooled_bytes.load(Ordering::Relaxed),
        }
    }

    /// Read access to the wrapped sink (for post-run audits).
    pub fn inner(&self) -> &S {
        &self.shared.inner
    }

    /// Bytes currently in the durable spool blob.
    pub fn spooled_bytes(&self) -> u64 {
        held(self.shared.spool.lock()).len(SPOOL_BLOB)
    }
}

impl<S: MailSink> MailSink for BackpressureSink<S> {
    fn accept_recipient(&self, from: &str, to: &str) -> bool {
        self.shared.inner.accept_recipient(from, to)
    }

    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        let completion = {
            let mut state = held(self.shared.queue.lock());
            if state.stopped {
                return Err(self.shared.shed("server shutting down"));
            }
            if state.jobs.len() >= self.shared.config.queue_depth {
                return Err(self.shared.shed("admission queue full"));
            }
            let completion = Completion::new();
            state.jobs.push_back(Job {
                message,
                enqueued: Instant::now(),
                completion: Arc::clone(&completion),
            });
            self.shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
            self.shared.depth_gauge.set(state.jobs.len() as i64);
            completion
        };
        self.shared.not_empty.notify_one();
        completion.wait()
    }
}

/// What the drainer holds between popping a batch and acknowledging it.
struct Drainer<'a, S> {
    shared: &'a Shared<S>,
    /// The batch in hand: each job with the inner sink's verdict (`Ok`
    /// until stage 1 has run).
    batch: Vec<(Job, Result<(), SinkError>)>,
}

impl<S> Drop for Drainer<'_, S> {
    /// However the drainer exits — `shutdown`, or a panic in the storage
    /// backend — the sink stops admitting and every job still queued or
    /// in hand is shed with `452`, so no submitter is left parked on a
    /// completion nobody will fill. After a clean shutdown both are empty.
    fn drop(&mut self) {
        let shared = self.shared;
        let mut state = held(shared.queue.lock());
        state.stopped = true;
        let queued = state.jobs.drain(..);
        for job in queued.chain(self.batch.drain(..).map(|(job, _)| job)) {
            job.completion
                .complete(Err(shared.shed("admission drainer stopped")));
        }
    }
}

/// The drainer: pop a batch, run the ledger, one spool sync, then ack.
fn drain_loop<S: MailSink>(shared: &Shared<S>) {
    let mut drainer = Drainer {
        shared,
        batch: Vec::new(),
    };
    loop {
        {
            let mut state = held(shared.queue.lock());
            while state.jobs.is_empty() && !state.stopped {
                state = held(shared.not_empty.wait(state));
            }
            if state.jobs.is_empty() && state.stopped {
                return;
            }
            let take = state.jobs.len().min(shared.config.batch);
            let popped = state.jobs.drain(..take);
            drainer.batch.extend(popped.map(|job| (job, Ok(()))));
            shared.depth_gauge.set(state.jobs.len() as i64);
        }
        shared.batch_msgs.record(drainer.batch.len() as u64);
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);

        // Stage 1: run the inner sink (the ledger) per message. No lock
        // is held here, so a panic in it poisons nothing: it is that
        // message's `452`, and the rest of the batch carries on.
        for (job, result) in &mut drainer.batch {
            shared.wait_us.record_duration(job.enqueued.elapsed());
            let message = job.message.clone();
            *result = catch_unwind(AssertUnwindSafe(|| shared.inner.deliver(message)))
                .unwrap_or_else(|_| Err(SinkError::overloaded("delivery failed, try again")));
        }

        // Stage 2: group-commit — append every accepted message to the
        // spool, then a single sync makes the whole batch durable.
        {
            let mut spool = held(shared.spool.lock());
            let mut appended = 0u64;
            for (job, result) in &drainer.batch {
                if result.is_ok() {
                    let wire = job.message.to_data();
                    let frame = format!("{}\n", wire.len());
                    spool.append(SPOOL_BLOB, frame.as_bytes());
                    spool.append(SPOOL_BLOB, wire.as_bytes());
                    appended += (frame.len() + wire.len()) as u64;
                }
            }
            if appended > 0 {
                let sync_started = Instant::now();
                spool.sync(SPOOL_BLOB);
                shared.sync_us.record_duration(sync_started.elapsed());
                shared
                    .stats
                    .spooled_bytes
                    .fetch_add(appended, Ordering::Relaxed);
            }
        }

        // Stage 3: only now acknowledge — a 250 means "durable".
        for (job, result) in drainer.batch.drain(..) {
            match &result {
                Ok(()) => shared.stats.delivered.fetch_add(1, Ordering::Relaxed),
                Err(_) => shared.stats.bounced.fetch_add(1, Ordering::Relaxed),
            };
            job.completion.complete(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmail_smtp::CollectSink;
    use zmail_store::MemStorage;

    fn sink(depth: usize, batch: usize) -> BackpressureSink<CollectSink> {
        BackpressureSink::start(
            CollectSink::shared(),
            Box::new(MemStorage::new()),
            AdmissionConfig {
                queue_depth: depth,
                batch,
            },
        )
    }

    fn msg(subject: &str) -> MailMessage {
        MailMessage::builder("a@x", "b@y")
            .header("Subject", subject)
            .body("hello\r\n")
            .build()
    }

    #[test]
    fn delivers_through_to_the_inner_sink_durably() {
        let bp = sink(8, 4);
        for i in 0..5 {
            bp.deliver(msg(&format!("m{i}"))).unwrap();
        }
        bp.shutdown();
        assert_eq!(bp.inner().len(), 5);
        let stats = bp.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.shed, 0);
        assert!(stats.spooled_bytes > 0);
        assert_eq!(bp.spooled_bytes(), stats.spooled_bytes);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // An inner sink that blocks until released, so the queue backs up
        // deterministically.
        #[derive(Clone)]
        struct StalledSink {
            gate: Arc<(Mutex<bool>, Condvar)>,
            delivered: Arc<AtomicU64>,
        }
        impl MailSink for StalledSink {
            fn deliver(&self, _m: MailMessage) -> Result<(), SinkError> {
                let (lock, cv) = &*self.gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                self.delivered.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let delivered = Arc::new(AtomicU64::new(0));
        let stalled = StalledSink {
            gate: Arc::clone(&gate),
            delivered: Arc::clone(&delivered),
        };
        let bp = BackpressureSink::start(
            stalled,
            Box::new(MemStorage::new()),
            AdmissionConfig {
                queue_depth: 2,
                batch: 1,
            },
        );
        // Async submitters: the first blocks inside the stalled inner
        // sink, the next two fill the depth-2 queue.
        let submitters: Vec<_> = (0..3)
            .map(|i| {
                let bp = bp.clone();
                let h = std::thread::spawn(move || bp.deliver(msg(&format!("m{i}"))));
                // Ordered startup so exactly the last submit sheds below.
                std::thread::sleep(std::time::Duration::from_millis(30));
                h
            })
            .collect();
        let err = bp.deliver(msg("overflow")).unwrap_err();
        assert_eq!(err, SinkError::overloaded("admission queue full"));
        // Open the gate: the three queued messages all complete.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        for h in submitters {
            h.join().unwrap().unwrap();
        }
        bp.shutdown();
        let stats = bp.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.delivered, 3);
        assert_eq!(delivered.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn inner_rejection_propagates_as_bounce_not_shed() {
        struct Broke;
        impl MailSink for Broke {
            fn deliver(&self, _m: MailMessage) -> Result<(), SinkError> {
                Err("insufficient e-penny balance".into())
            }
        }
        let bp = BackpressureSink::start(
            Broke,
            Box::new(MemStorage::new()),
            AdmissionConfig::default(),
        );
        let err = bp.deliver(msg("m")).unwrap_err();
        assert!(matches!(err, SinkError::Reject(t) if t.contains("balance")));
        bp.shutdown();
        let stats = bp.stats();
        assert_eq!(stats.bounced, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.spooled_bytes, 0, "bounced mail is never spooled");
    }

    /// Runs `f` on its own thread and fails, instead of hanging, if it
    /// has not returned within three seconds.
    fn within_3s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(3))
            .expect("a submitter is parked on a completion nobody will fill")
    }

    /// The spool bytes `message` costs: its length frame plus its wire form.
    fn spool_cost(message: &MailMessage) -> u64 {
        let wire = message.to_data().len();
        (format!("{wire}\n").len() + wire) as u64
    }

    #[test]
    fn a_panicking_inner_sink_costs_that_message_a_452_and_nothing_else() {
        /// Panics on "poison"; holds "hold" until told to go on, so the
        /// test can queue a whole batch behind it.
        struct Poisonable(CollectSink, Mutex<std::sync::mpsc::Receiver<()>>);
        impl MailSink for Poisonable {
            fn deliver(&self, m: MailMessage) -> Result<(), SinkError> {
                match m.header("Subject") {
                    Some("hold") => self.1.lock().unwrap().recv().unwrap(),
                    Some("poison") => panic!("sink bug"),
                    _ => {}
                }
                self.0.deliver(m)
            }
        }
        let (go_on, held) = std::sync::mpsc::channel();
        let bp = BackpressureSink::start(
            Poisonable(CollectSink::shared(), Mutex::new(held)),
            Box::new(MemStorage::new()),
            AdmissionConfig::default(),
        );
        let submit = |subject: &'static str| {
            let bp = bp.clone();
            std::thread::spawn(move || bp.deliver(msg(subject)))
        };
        // One batch holds the drainer; the next three queue up behind it
        // and are popped together once it is let go.
        let first = submit("hold");
        while bp.stats().batches < 1 {
            std::thread::yield_now();
        }
        let mates = ["m1", "poison", "m2"].map(submit);
        while bp.stats().admitted < 4 {
            std::thread::yield_now();
        }
        go_on.send(()).unwrap();
        let answers = within_3s(move || {
            let answer = |h: std::thread::JoinHandle<_>| h.join().unwrap();
            (answer(first), mates.map(answer))
        });
        let (first, [m1, poison, m2]) = answers;
        assert_eq!((first, m1, m2), (Ok(()), Ok(()), Ok(())), "batch-mates ack");
        assert!(
            matches!(poison, Err(SinkError::Overloaded(_))),
            "{poison:?}"
        );
        assert_eq!(bp.stats().batches, 2, "the three shared a batch");
        let later = bp.clone();
        within_3s(move || later.deliver(msg("after"))).expect("the drainer survived");
        bp.shutdown();
        assert_eq!(bp.inner().0.len(), 4);
        let stats = bp.stats();
        assert_eq!((stats.admitted, stats.delivered, stats.bounced), (5, 4, 1));
        let four: u64 = ["hold", "m1", "m2", "after"]
            .iter()
            .map(|subject| spool_cost(&msg(subject)))
            .sum();
        assert_eq!((stats.spooled_bytes, bp.spooled_bytes()), (four, four));
    }

    #[test]
    fn a_dead_drainer_sheds_instead_of_parking_its_submitters() {
        /// A storage backend whose device fails on the first sync.
        struct FailingDisk(MemStorage);
        impl Storage for FailingDisk {
            fn read(&self, name: &str) -> Vec<u8> {
                self.0.read(name)
            }
            fn write(&mut self, name: &str, bytes: &[u8]) {
                self.0.write(name, bytes);
            }
            fn append(&mut self, name: &str, bytes: &[u8]) {
                self.0.append(name, bytes);
            }
            fn sync(&mut self, _name: &str) {
                panic!("disk gone");
            }
            fn len(&self, name: &str) -> u64 {
                self.0.len(name)
            }
            fn truncate(&mut self, name: &str, len: u64) {
                self.0.truncate(name, len);
            }
        }
        let bp = BackpressureSink::start(
            CollectSink::shared(),
            Box::new(FailingDisk(MemStorage::new())),
            AdmissionConfig::default(),
        );
        for subject in ["in hand when the disk failed", "after the drainer died"] {
            let sink = bp.clone();
            let err = within_3s(move || sink.deliver(msg(subject))).unwrap_err();
            assert!(matches!(err, SinkError::Overloaded(_)), "{err:?}");
        }
        bp.shutdown();
        let stats = bp.stats();
        assert_eq!((stats.admitted, stats.shed, stats.delivered), (1, 2, 0));
        // The backend panicked under the spool lock. The postmortem views
        // read through the poison: one frame reached the device's buffer,
        // none was ever synced, so none is counted.
        let unsynced = spool_cost(&msg("in hand when the disk failed"));
        assert_eq!((bp.spooled_bytes(), stats.spooled_bytes), (unsynced, 0));
    }

    #[test]
    fn shutdown_drains_queued_messages_then_sheds_new_ones() {
        let bp = sink(64, 8);
        for i in 0..10 {
            bp.deliver(msg(&format!("m{i}"))).unwrap();
        }
        bp.shutdown();
        bp.shutdown(); // idempotent
        assert_eq!(bp.inner().len(), 10);
        let err = bp.deliver(msg("late")).unwrap_err();
        assert!(matches!(err, SinkError::Overloaded(_)));
    }

    #[test]
    fn group_commit_batches_are_observable() {
        let bp = sink(64, 8);
        let senders: Vec<_> = (0..16)
            .map(|i| {
                let bp = bp.clone();
                std::thread::spawn(move || bp.deliver(msg(&format!("m{i}"))).unwrap())
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        bp.shutdown();
        let stats = bp.stats();
        assert_eq!(stats.delivered, 16);
        // Group commit: strictly fewer syncs than messages is the win;
        // with 16 concurrent submitters and batch=8 we must see at most
        // 16 batches and at least 2.
        assert!(stats.batches >= 2 && stats.batches <= 16, "{stats:?}");
    }
}
