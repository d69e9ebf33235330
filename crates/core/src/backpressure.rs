//! Bounded admission in front of the durable ledger path.
//!
//! Under an open-loop load generator (see `crates/load`, E21) the server
//! cannot make clients slow down — whatever it does not shed it must
//! queue, and an unbounded queue converts overload into unbounded memory
//! growth and unbounded latency. [`BackpressureSink`] makes the admission
//! decision explicit:
//!
//! * `deliver` `try_send`s the message into a **bounded** channel
//!   (`sync_channel(queue_depth)`) together with the sending end of a
//!   one-slot answer channel, and blocks the calling session worker on the
//!   receiving end until a drainer thread has (a) run the inner sink — the
//!   Zmail ledger — and (b) made the accepted message durable in the
//!   spool, **then** answers. The SMTP `250` therefore means "ledger ran
//!   and the bytes survived a crash", never "we buffered it";
//! * when the channel is full the message is shed immediately with
//!   [`SinkError::Overloaded`], which the session answers as a transient
//!   SMTP `452` (`load.shed.queue_full`);
//! * the drainer takes what is queued in batches and issues **one** spool
//!   sync per batch — the same group-commit trade the ledger store makes
//!   (`zmail_store::ShardedLedgerStore`), so the fsync cost is amortized across
//!   every session currently waiting, which is exactly the bottleneck the
//!   E21 offered-load sweep is designed to expose.
//!
//! Threads talk over channels and a hang-up is a 4xx; a lock guards only
//! data whose every update is one store, and is taken through `held`. So
//! nobody waits on a dead thread, by construction: a panic inside the
//! inner sink is caught and answered `452` for that message alone (its
//! batch-mates still spool, sync and ack); a drainer that dies — a
//! panicking storage backend — drops its receiver and every answer sender
//! it holds, so whoever is queued, in hand or submits later reads the
//! hang-up as `452`; and [`BackpressureSink::shutdown`] is a `Stop`
//! message queued behind everything already admitted.
//!
//! The queue/commit counters live under `load.queue.*` / `load.commit.*`
//! and the shed counter under `load.shed.*` in the global `zmail-obs`
//! registry; always-on copies are available via
//! [`BackpressureSink::stats`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, LockResult, Mutex, PoisonError};
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

/// The one way this file takes a lock: past poison. The drainer-handle
/// lock guards one `Option::take`; the spool lock is held across
/// [`Storage`] calls, and a backend that panics there takes the drainer —
/// the spool's only writer — with it, so what a poisoned guard still
/// protects is read-only. An `expect` here would turn that one panic into
/// one per caller.
fn held<T>(guard: LockResult<T>) -> T {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// Where the drainer sends one message's verdict: the sending end of a
/// one-slot channel, so answering never makes the drainer wait for a
/// submitter. Dropped unanswered, it hangs up on the submitter, who reads
/// that as `452`.
type Answer = SyncSender<Result<(), SinkError>>;

/// What travels from the session workers to the drainer.
enum Handoff {
    /// A message, when it was queued, and where its verdict goes.
    Mail(MailMessage, Instant, Answer),
    /// [`BackpressureSink::shutdown`]: finish what is ahead of this, exit.
    Stop,
}

struct Shared<S> {
    inner: S,
    config: AdmissionConfig,
    spool: Mutex<Box<dyn Storage + Send>>,
    stats: AtomicStats,
    /// Messages sent and not yet received: a channel has no `len`.
    depth: AtomicI64,
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

    /// Moves the queue depth by `delta` and publishes it.
    fn queued(&self, delta: i64) {
        let depth = self.depth.fetch_add(delta, Ordering::Relaxed) + delta;
        self.depth_gauge.set(depth);
    }
}

/// Name of the durable spool blob inside the storage backend.
pub const SPOOL_BLOB: &str = "admission.spool";

/// A [`MailSink`] decorator: bounded admission queue + group-committed
/// durable spool in front of any inner sink. Clones share state.
pub struct BackpressureSink<S> {
    shared: Arc<Shared<S>>,
    /// Held by the sinks alone, so the drainer also reads a hang-up — and
    /// exits — once the last of them is gone.
    queue: SyncSender<Handoff>,
    drainer: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl<S> Clone for BackpressureSink<S> {
    fn clone(&self) -> Self {
        BackpressureSink {
            shared: Arc::clone(&self.shared),
            queue: self.queue.clone(),
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
        let (queue, queued) = sync_channel(config.queue_depth);
        let shared = Arc::new(Shared {
            inner,
            config,
            spool: Mutex::new(spool),
            stats: AtomicStats::default(),
            depth: AtomicI64::new(0),
            shed_ctr: obs.counter("load.shed.queue_full"),
            depth_gauge: obs.gauge("load.queue.depth"),
            wait_us: obs.histogram("load.queue.wait_us"),
            batch_msgs: obs.histogram("load.commit.batch_msgs"),
            sync_us: obs.histogram("load.commit.sync_us"),
        });
        let drain_shared = Arc::clone(&shared);
        let drainer = std::thread::spawn(move || drain_loop(&drain_shared, queued));
        BackpressureSink {
            shared,
            queue,
            drainer: Arc::new(Mutex::new(Some(drainer))),
        }
    }
}

impl<S> BackpressureSink<S> {
    /// Stops admitting, drains everything already queued, joins the
    /// drainer. Idempotent; `deliver` afterwards sheds with `452`.
    pub fn shutdown(&self) {
        // Waits its turn if the queue is full; an error means the drainer
        // is already gone.
        let _ = self.queue.send(Handoff::Stop);
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
        let shared = &*self.shared;
        let (answer, verdict) = sync_channel(1);
        match self
            .queue
            .try_send(Handoff::Mail(message, Instant::now(), answer))
        {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => return Err(shared.shed("admission queue full")),
            Err(TrySendError::Disconnected(_)) => return Err(shared.shed("server shutting down")),
        }
        shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
        shared.queued(1);
        // A drainer that stops with this message queued or in hand —
        // `shutdown` got in first, or the storage backend panicked —
        // drops the answer sender: the hang-up is the `452`.
        verdict
            .recv()
            .unwrap_or_else(|_| Err(shared.shed("admission drainer stopped")))
    }
}

/// The drainer: take a batch, run the ledger, one spool sync, then answer.
fn drain_loop<S: MailSink>(shared: &Shared<S>, queued: Receiver<Handoff>) {
    // Everything in hand lives in these two, which hold the answer
    // senders. They are declared before the receiver is rebound so that on
    // any exit, unwinding included, the receiver is dropped first: once
    // one submitter has read a hang-up, no other can still be admitted.
    let mut popped: Vec<(MailMessage, Instant, Answer)> = Vec::new();
    let mut accepted: Vec<(String, Answer)> = Vec::new();
    let queued = queued;
    let mut stopping = false;
    while !stopping {
        // Block for one hand-off, then take what else is already queued.
        // `Err`: every sink is gone, so nobody is waiting for anything.
        let Ok(first) = queued.recv() else { return };
        let ready = std::iter::once(first).chain(queued.try_iter());
        for handoff in ready.take(shared.config.batch) {
            match handoff {
                Handoff::Mail(message, enqueued, answer) => {
                    popped.push((message, enqueued, answer));
                }
                Handoff::Stop => {
                    stopping = true;
                    break;
                }
            }
        }
        if popped.is_empty() {
            continue;
        }
        shared.queued(-(popped.len() as i64));
        shared.batch_msgs.record(popped.len() as u64);
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);

        // Stage 1: run the inner sink (the ledger) per message, by value;
        // its spool form is serialized first, once. No lock is held here,
        // so a panic in the sink poisons nothing: it is that message's
        // `452`, and the rest of the batch carries on. A refusal has
        // nothing to make durable and is answered at once.
        for (message, enqueued, answer) in popped.drain(..) {
            shared.wait_us.record_duration(enqueued.elapsed());
            let wire = message.to_data();
            match catch_unwind(AssertUnwindSafe(|| shared.inner.deliver(message)))
                .unwrap_or_else(|_| Err(SinkError::overloaded("delivery failed, try again")))
            {
                Ok(()) => accepted.push((wire, answer)),
                Err(refusal) => {
                    shared.stats.bounced.fetch_add(1, Ordering::Relaxed);
                    let _ = answer.send(Err(refusal));
                }
            }
        }

        // Stage 2: group-commit — append every accepted message to the
        // spool, then a single sync makes the whole batch durable.
        if !accepted.is_empty() {
            let mut spool = held(shared.spool.lock());
            let mut appended = 0u64;
            for (wire, _) in &accepted {
                let frame = format!("{}\n", wire.len());
                spool.append(SPOOL_BLOB, frame.as_bytes());
                spool.append(SPOOL_BLOB, wire.as_bytes());
                appended += (frame.len() + wire.len()) as u64;
            }
            let sync_started = Instant::now();
            spool.sync(SPOOL_BLOB);
            shared.sync_us.record_duration(sync_started.elapsed());
            shared
                .stats
                .spooled_bytes
                .fetch_add(appended, Ordering::Relaxed);
        }

        // Stage 3: only now acknowledge — a 250 means "durable".
        for (_, answer) in accepted.drain(..) {
            shared.stats.delivered.fetch_add(1, Ordering::Relaxed);
            let _ = answer.send(Ok(()));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Condvar;
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
    pub(crate) fn within_3s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
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
    fn a_job_queued_behind_shutdown_is_shed_not_parked() {
        /// Holds every delivery until told to go on.
        struct Held(Mutex<std::sync::mpsc::Receiver<()>>);
        impl MailSink for Held {
            fn deliver(&self, _m: MailMessage) -> Result<(), SinkError> {
                self.0.lock().unwrap().recv().unwrap();
                Ok(())
            }
        }
        let (go_on, held) = std::sync::mpsc::channel();
        let bp = BackpressureSink::start(
            Held(Mutex::new(held)),
            Box::new(MemStorage::new()),
            AdmissionConfig::default(),
        );
        let submit = |subject: &'static str| {
            let bp = bp.clone();
            std::thread::spawn(move || bp.deliver(msg(subject)))
        };
        // The drainer is inside the inner sink with the first message
        // when the `Stop` is queued — `shutdown`'s first half, done here
        // so that the second message is certain to get in behind it.
        let first = submit("in hand");
        while bp.stats().batches < 1 {
            std::thread::yield_now();
        }
        bp.queue.send(Handoff::Stop).unwrap();
        let late = submit("behind the stop");
        while bp.stats().admitted < 2 {
            std::thread::yield_now();
        }
        go_on.send(()).unwrap();
        let stopped = bp.clone();
        let (first, late) = within_3s(move || {
            stopped.shutdown();
            (first.join().unwrap(), late.join().unwrap())
        });
        assert_eq!(first, Ok(()), "what was ahead of the stop still drains");
        assert!(matches!(late, Err(SinkError::Overloaded(_))), "{late:?}");
        let stats = bp.stats();
        assert_eq!(
            (stats.admitted, stats.delivered, stats.shed, stats.bounced),
            (2, 1, 1, 0)
        );
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
