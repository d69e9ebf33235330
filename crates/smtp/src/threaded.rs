//! The TCP front door: a multi-threaded accept-loop SMTP server with
//! explicit backpressure.
//!
//! One unbounded thread per connection is fine for a single closed-loop
//! client and fatal under an open-loop generator that keeps dialing
//! regardless of how the server is doing, so [`ThreadedServer`] bounds
//! every stage (`workers: 1` degenerates to serving sessions one at a
//! time, in accept order):
//!
//! * an **acceptor** thread pulls connections off the listener and
//!   `try_send`s them into a **bounded** channel
//!   (`sync_channel(queue_depth)`);
//! * a fixed **worker pool** receives connections from it and drives the
//!   ordinary [`SmtpServer`] session state machine over them;
//! * when the channel is full or the simultaneous-connection cap is
//!   reached the acceptor *sheds* the connection with an immediate `421`
//!   (service not available) instead of letting it wait unbounded — the
//!   client got a well-formed SMTP answer, and the server's memory use
//!   stays flat;
//! * when the acceptor goes — [`ThreadedServer::stop`], or any other way —
//!   its sender goes with it: the workers serve what is still queued, read
//!   the hang-up and exit;
//! * every accepted stream gets read/write timeouts, so a stalled or
//!   vanished peer cannot pin a worker forever: on timeout the worker
//!   sends a best-effort `421` and closes;
//! * a session runs under `catch_unwind`, so a sink that panics loses
//!   that one connection (dropped, no reply) and neither the worker nor
//!   its connection slot.
//!
//! What gets dropped first under overload is therefore explicit and
//! observable: whole connections at the accept gate (`server.accept.shed`,
//! `421`), then individual messages at the sink's admission queue
//! (`load.shed.*`, `452` via [`crate::SinkError::Overloaded`]) — never
//! silent queue growth. See `crates/load` and experiment E21 for the
//! open-loop measurements this enables.
//!
//! The rule on this path: threads talk over channels and a hang-up is a
//! 4xx; a lock guards only data whose every update is one store, and is
//! taken through `held`.

use crate::server::{MailSink, SmtpServer};
use crate::transport::{bind_loopback, TcpConnection};
use crate::SmtpError;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`ThreadedServer`].
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Worker threads draining the connection queue.
    pub workers: usize,
    /// Bounded depth of the accepted-connection hand-off queue.
    pub queue_depth: usize,
    /// Cap on simultaneously open connections (queued + being served);
    /// connections beyond it are shed with `421` at accept time.
    pub max_connections: usize,
    /// Per-connection read timeout; a session idle longer is closed with
    /// a best-effort `421`.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            workers: 4,
            queue_depth: 64,
            max_connections: 512,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// Counters a [`ThreadedServer`] keeps regardless of whether the global
/// metrics registry is armed (they also mirror into `server.accept.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadedStats {
    /// Connections handed to the worker pool.
    pub accepted_connections: u64,
    /// Connections shed with `421` at the accept gate.
    pub shed_connections: u64,
    /// Sessions closed by the per-connection timeout (after a `421`).
    pub timed_out: u64,
    /// Messages accepted with `250` across all sessions.
    pub accepted_messages: u64,
}

#[derive(Debug, Default)]
struct AtomicStats {
    accepted_connections: AtomicU64,
    shed_connections: AtomicU64,
    timed_out: AtomicU64,
    accepted_messages: AtomicU64,
}

/// The one way this file takes the lock the workers share the receiving
/// end through: past poison. It guards the receiver and nothing else, so a
/// guard some panicking thread left behind protects nothing inconsistent,
/// while an `expect` would turn one panic into one per worker.
fn held<T>(guard: LockResult<T>) -> T {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// A multi-threaded accept-loop SMTP server: bounded worker pool over the
/// existing session state machine, `421` shedding past the connection cap.
///
/// Construct with [`ThreadedServer::start`], stop with
/// [`ThreadedServer::stop`] (also run on drop).
#[derive(Debug)]
pub struct ThreadedServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<AtomicStats>,
}

impl ThreadedServer {
    /// Binds a fresh loopback port and starts the acceptor plus
    /// `config.workers` session workers over `sink`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind error.
    pub fn start<S>(
        hostname: impl Into<String>,
        sink: S,
        config: ThreadedConfig,
    ) -> std::io::Result<ThreadedServer>
    where
        S: MailSink + Clone + Send + 'static,
    {
        let listener = bind_loopback(5)?;
        let addr = listener.local_addr()?;
        let hostname = hostname.into();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(AtomicStats::default());
        let (queue, queued) = sync_channel::<TcpStream>(config.queue_depth);
        let queued = Arc::new(Mutex::new(queued));
        // Connections queued or in service, so the cap covers the whole
        // pipeline. Only the acceptor adds — and takes its one back when it
        // sheds — so it admits exactly up to the cap.
        let open = Arc::new(AtomicUsize::new(0));
        let obs = zmail_obs::global();
        let accepted_ctr = obs.counter("server.accept.accepted");
        let shed_ctr = obs.counter("server.accept.shed");
        let timeout_ctr = obs.counter("server.accept.timeouts");
        let active_gauge = obs.gauge("server.accept.active");

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queued = Arc::clone(&queued);
                let open = Arc::clone(&open);
                let stats = Arc::clone(&stats);
                let hostname = hostname.clone();
                let sink = sink.clone();
                let config = config.clone();
                let timeout_ctr = timeout_ctr.clone();
                let active_gauge = active_gauge.clone();
                std::thread::spawn(move || loop {
                    // A statement of its own: the lock is released before
                    // the session runs. `Err` is the hang-up — the acceptor
                    // is gone and everything it queued has been served.
                    let Ok(stream) = held(queued.lock()).recv() else {
                        break;
                    };
                    active_gauge.add(1);
                    // A sink that panics costs its own session only: the
                    // unwind drops that socket, and the worker still gives
                    // the slot back and receives the next one.
                    let timed_out = catch_unwind(AssertUnwindSafe(|| {
                        serve_stream(&hostname, &sink, &config, stream, &stats)
                    }))
                    .unwrap_or(false);
                    if timed_out {
                        stats.timed_out.fetch_add(1, Ordering::Relaxed);
                        timeout_ctr.inc();
                    }
                    active_gauge.add(-1);
                    open.fetch_sub(1, Ordering::Relaxed);
                })
            })
            .collect();

        let acceptor = {
            let stats = Arc::clone(&stats);
            let hostname = hostname.clone();
            let accept_shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            // The thread owns the only sender: however it ends, the
            // workers read the hang-up once the channel is drained.
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Past the cap the pipeline is as full as a full queue.
                    let sent = if open.fetch_add(1, Ordering::Relaxed) < config.max_connections {
                        queue.try_send(stream)
                    } else {
                        Err(TrySendError::Full(stream))
                    };
                    match sent {
                        Ok(()) => {
                            stats.accepted_connections.fetch_add(1, Ordering::Relaxed);
                            accepted_ctr.inc();
                        }
                        Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
                            open.fetch_sub(1, Ordering::Relaxed);
                            stats.shed_connections.fetch_add(1, Ordering::Relaxed);
                            shed_ctr.inc();
                            shed_connection(stream, &hostname, &config);
                        }
                    }
                }
            })
        };

        Ok(ThreadedServer {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            stats,
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the accept/shed/timeout counters.
    pub fn stats(&self) -> ThreadedStats {
        ThreadedStats {
            accepted_connections: self.stats.accepted_connections.load(Ordering::Relaxed),
            shed_connections: self.stats.shed_connections.load(Ordering::Relaxed),
            timed_out: self.stats.timed_out.load(Ordering::Relaxed),
            accepted_messages: self.stats.accepted_messages.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, drains in-flight sessions, joins every thread.
    /// Idempotent.
    pub fn stop(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Kick the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ThreadedServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Answers a shed connection with `421` so the client is told, not hung.
fn shed_connection(mut stream: TcpStream, hostname: &str, config: &ThreadedConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.write_all(format!("421 {hostname} too busy, try again later\r\n").as_bytes());
}

/// Runs one session; returns whether it ended on the idle timeout.
fn serve_stream<S: MailSink>(
    hostname: &str,
    sink: &S,
    config: &ThreadedConfig,
    stream: TcpStream,
    stats: &AtomicStats,
) -> bool {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    // Keep a handle to the raw stream so a timeout can still say goodbye
    // after the session state machine has consumed the connection.
    let raw = stream.try_clone().ok();
    let server = SmtpServer::new(hostname, sink);
    match server.serve(TcpConnection::new(stream)) {
        Ok(accepted) => {
            stats
                .accepted_messages
                .fetch_add(accepted as u64, Ordering::Relaxed);
            false
        }
        Err(SmtpError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            if let Some(mut raw) = raw {
                let _ =
                    raw.write_all(format!("421 {hostname} idle timeout, closing\r\n").as_bytes());
            }
            true
        }
        Err(_) => false, // peer vanished mid-exchange; nothing to answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::message::MailMessage;
    use crate::reply::ReplyCode;
    use crate::server::CollectSink;

    fn tiny_config() -> ThreadedConfig {
        ThreadedConfig {
            workers: 2,
            queue_depth: 4,
            max_connections: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }

    #[test]
    fn serves_concurrent_clients_through_the_pool() {
        let sink = CollectSink::shared();
        let mut server = ThreadedServer::start("mx.test", sink.clone(), tiny_config()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let conn = TcpConnection::connect(addr).unwrap();
                    let mut client = Client::connect(conn, "c.test").unwrap();
                    for k in 0..3 {
                        let msg = MailMessage::builder(format!("a{i}@x"), "b@y")
                            .header("Subject", format!("c{i} m{k}"))
                            .body("hello\r\n")
                            .build();
                        client.send(&msg).unwrap();
                    }
                    client.quit().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
        assert_eq!(sink.len(), 12);
        let stats = server.stats();
        assert_eq!(stats.accepted_connections, 4);
        assert_eq!(stats.accepted_messages, 12);
        assert_eq!(stats.shed_connections, 0);
    }

    #[test]
    fn connections_past_the_cap_get_421() {
        // One worker, no queue headroom beyond the single in-service
        // connection: a second simultaneous dial must be shed.
        let config = ThreadedConfig {
            workers: 1,
            queue_depth: 1,
            max_connections: 1,
            ..tiny_config()
        };
        let sink = CollectSink::shared();
        let mut server = ThreadedServer::start("mx.test", sink, config).unwrap();
        // Occupy the only slot with a live session.
        let conn = TcpConnection::connect(server.addr()).unwrap();
        let held = Client::connect(conn, "c.test").unwrap();
        // The next connection is answered 421 at the accept gate.
        let conn2 = TcpConnection::connect(server.addr()).unwrap();
        let err = Client::connect(conn2, "c.test").unwrap_err();
        match err {
            SmtpError::UnexpectedReply(reply) => {
                assert_eq!(reply.code, ReplyCode::ServiceNotAvailable);
                assert!(reply.text.contains("busy"));
            }
            other => panic!("expected a 421, got {other:?}"),
        }
        held.quit().unwrap();
        server.stop();
        assert_eq!(server.stats().shed_connections, 1);
    }

    #[test]
    fn idle_session_is_timed_out_with_421() {
        let config = ThreadedConfig {
            read_timeout: Duration::from_millis(50),
            ..tiny_config()
        };
        let sink = CollectSink::shared();
        let mut server = ThreadedServer::start("mx.test", sink, config).unwrap();
        let mut conn = TcpConnection::connect(server.addr()).unwrap();
        use crate::transport::Connection;
        // Read the greeting, then go silent.
        assert!(conn.recv_line().unwrap().unwrap().starts_with("220"));
        let line = conn.recv_line().unwrap();
        assert_eq!(line.as_deref(), Some("421 mx.test idle timeout, closing"));
        server.stop();
        assert_eq!(server.stats().timed_out, 1);
    }

    #[test]
    fn a_panicking_sink_costs_one_session_not_the_worker() {
        struct Poisonable(CollectSink);
        impl MailSink for Poisonable {
            fn deliver(&self, message: MailMessage) -> Result<(), crate::SinkError> {
                assert!(message.body() != "poison\r\n", "sink bug");
                self.0.deliver(message)
            }
        }
        let config = ThreadedConfig {
            workers: 1,
            ..tiny_config()
        };
        let sink = Arc::new(Poisonable(CollectSink::shared()));
        let mut server = ThreadedServer::start("mx.test", Arc::clone(&sink), config).unwrap();
        let send = |body: &str| {
            // A client-side read timeout, so a wedged server fails the
            // test instead of hanging it.
            let stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut client = Client::connect(TcpConnection::new(stream), "c.test")?;
            client.send(&MailMessage::builder("a@x", "b@y").body(body).build())
        };
        send("before\r\n").expect("250");
        // The poisoned session is dropped mid-exchange...
        assert!(matches!(
            send("poison\r\n"),
            Err(SmtpError::ConnectionClosed)
        ));
        // ...and the only worker serves the next one.
        send("after\r\n").expect("the worker and its slot survived");
        server.stop();
        assert_eq!(sink.0.len(), 2);
        let stats = server.stats();
        assert_eq!(stats.accepted_connections, 3);
        assert_eq!(stats.accepted_messages, 2);
    }

    #[test]
    fn connections_queued_at_stop_are_served_before_the_workers_exit() {
        /// Runs `f` on its own thread and fails, instead of hanging, if
        /// it has not returned within three seconds.
        fn within_3s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(f()));
            rx.recv_timeout(Duration::from_secs(3))
                .expect("a queued connection or a worker is parked for good")
        }
        let config = ThreadedConfig {
            workers: 1,
            ..tiny_config()
        };
        let sink = CollectSink::shared();
        let mut server = ThreadedServer::start("mx.test", sink.clone(), config).unwrap();
        let addr = server.addr();
        let msg = MailMessage::builder("a@x", "b@y").body("hello\r\n").build();
        let stats = within_3s(move || {
            // The only worker is held by this session; two more queue up
            // behind it, ungreeted.
            let conn = TcpConnection::connect(addr).unwrap();
            let mut serving = Client::connect(conn, "c.test").unwrap();
            let queued = [(); 2].map(|()| {
                let msg = msg.clone();
                std::thread::spawn(move || {
                    let conn = TcpConnection::connect(addr)?;
                    let mut client = Client::connect(conn, "c.test")?;
                    client.send(&msg)?;
                    client.quit()
                })
            });
            while server.stats().accepted_connections < 3 {
                std::thread::yield_now();
            }
            let stopper = std::thread::spawn(move || {
                server.stop();
                server.stats()
            });
            // The port can be bound again once the acceptor has exited
            // and closed its listener: from then on the workers are only
            // draining.
            while std::net::TcpListener::bind(addr).is_err() {
                std::thread::yield_now();
            }
            serving.send(&msg).unwrap();
            serving.quit().unwrap();
            for client in queued {
                client.join().unwrap().expect("queued before stop, served");
            }
            stopper.join().unwrap()
        });
        assert_eq!((sink.len(), stats.accepted_messages), (3, 3));
    }

    #[test]
    fn stop_is_idempotent_and_joins_everything() {
        let mut server =
            ThreadedServer::start("mx.test", CollectSink::shared(), tiny_config()).unwrap();
        server.stop();
        server.stop();
        assert_eq!(server.stats().accepted_connections, 0);
    }
}
