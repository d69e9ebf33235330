//! The open-loop executor: sends a schedule against a live SMTP server.
//!
//! # Open loop, and why it matters
//!
//! A closed-loop client (E11) waits for each reply before sending the
//! next message, so an overloaded server silently slows the *offered*
//! load down and the measurement reports a healthy-looking throughput at
//! whatever rate the server happens to sustain. An open-loop generator
//! keeps offering load on the wall-clock schedule regardless of how the
//! server is doing — overload then shows up where it belongs: in queue
//! depth, shed counts, and tail latency.
//!
//! # Coordinated-omission safety
//!
//! Every latency sample is measured from the **scheduled** send instant,
//! not from when the worker actually got around to writing the bytes. If
//! a stalled server makes a connection fall behind, the waiting time the
//! schedule accumulated is charged to every delayed message rather than
//! silently dropped — the classic coordinated-omission correction. The
//! samples land in the `load.latency_us` histogram of the run's private
//! (always-enabled) `zmail-obs` registry as they are taken; `load.sent`,
//! `load.shed.*` and the other outcome counters are filled after the
//! join, from the same per-worker tallies the [`LoadReport`] fields are.

use crate::arrival::{partition, schedule, ScheduledSend};
use crate::spec::WorkloadSpec;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use zmail_obs::{HistogramSnapshot, Registry, Snapshot};
use zmail_smtp::{Client, MailMessage, ReplyCode, SmtpError, TcpConnection};

/// Header carrying the schedule sequence number for conservation audits.
pub const HEADER_LOAD_SEQ: &str = "X-Load-Seq";

/// The outcome of one run of [`run`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Workload label.
    pub name: String,
    /// Scheduled (offered) sends.
    pub offered: u64,
    /// Sends actually attempted (== offered unless aborted).
    pub attempted: u64,
    /// `250` — accepted, durable at the server.
    pub accepted: u64,
    /// `452` — shed at the admission queue.
    pub shed_452: u64,
    /// `421` — shed at the accept gate or timed out.
    pub shed_421: u64,
    /// `552` — permanent ledger bounce.
    pub bounced_552: u64,
    /// Well-formed but unexpected replies (e.g. `550`).
    pub other_reply: u64,
    /// Attempts that never got an SMTP reply (liveness violations when
    /// the server is supposed to be up).
    pub no_reply: u64,
    /// Connections re-established after a close or failure.
    pub reconnects: u64,
    /// Configured schedule horizon.
    pub horizon: Duration,
    /// Wall-clock time the run actually took.
    pub elapsed: Duration,
    /// Coordinated-omission-safe submission latency, microseconds from
    /// scheduled send instant to reply.
    pub latency_us: HistogramSnapshot,
    /// Full snapshot of the run's private metrics registry
    /// (`load.*` counters and histograms).
    pub metrics: Snapshot,
    /// Schedule seqs that were `250`-acked, ascending — the generator's
    /// half of the accepted-message conservation audit.
    pub acked_seqs: Vec<u64>,
}

impl LoadReport {
    /// Offered load over the configured horizon, msgs/sec.
    pub fn offered_rate(&self) -> f64 {
        self.offered as f64 / self.horizon.as_secs_f64()
    }

    /// Accepted (`250`) throughput over the actual elapsed time.
    pub fn accepted_rate(&self) -> f64 {
        self.accepted as f64 / self.elapsed.as_secs_f64()
    }

    /// Attempts that received *some* well-formed SMTP reply.
    pub fn replied(&self) -> u64 {
        self.accepted + self.shed_452 + self.shed_421 + self.bounced_552 + self.other_reply
    }

    /// Total messages shed with transient replies (`452` + `421`).
    pub fn shed(&self) -> u64 {
        self.shed_452 + self.shed_421
    }
}

/// Per-worker tallies: every outcome is counted here, once, and nowhere
/// else. After the join they are summed into the [`LoadReport`] and the
/// `load.*` counters alike.
#[derive(Debug, Default)]
struct WorkerOutcome {
    attempted: u64,
    accepted: u64,
    shed_452: u64,
    shed_421: u64,
    bounced_552: u64,
    other_reply: u64,
    no_reply: u64,
    reconnects: u64,
    acked_seqs: Vec<u64>,
}

/// Runs `spec` open-loop against the SMTP server at `addr`.
///
/// Blocks until every scheduled send has been attempted and all
/// connections are closed. The schedule is generated up front
/// (see [`crate::arrival::schedule`]); worker threads only *execute* it,
/// so changing `spec.workers` re-partitions identical work.
///
/// # Panics
///
/// Panics if the spec fails validation or a worker thread panics.
pub fn run(spec: &WorkloadSpec, addr: SocketAddr) -> LoadReport {
    let full = schedule(spec);
    let offered = full.len() as u64;
    let lanes = partition(&full, spec.total_connections());
    let cpw = spec.connections_per_worker.max(1);

    let registry = Registry::new();
    // The one metric recorded live: samples do not sum like tallies.
    let latency = registry.histogram("load.latency_us");

    let started = Instant::now();
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .chunks(cpw)
            .map(|worker_lanes| {
                let latency = latency.clone();
                scope.spawn(move || {
                    // Merge this worker's lanes back into time order,
                    // remembering which pooled connection each op uses.
                    let mut ops: Vec<(usize, ScheduledSend)> = worker_lanes
                        .iter()
                        .enumerate()
                        .flat_map(|(lane, sched)| sched.iter().map(move |op| (lane, *op)))
                        .collect();
                    ops.sort_by_key(|(_, op)| (op.at_us, op.seq));

                    let mut pool: Vec<Option<Client<TcpConnection>>> =
                        (0..worker_lanes.len()).map(|_| None).collect();
                    let mut ever_connected = vec![false; worker_lanes.len()];
                    let mut outcome = WorkerOutcome::default();

                    for (lane, op) in ops {
                        // Open loop: wait for the *scheduled* instant; if
                        // the lane is behind, send immediately — the
                        // delay stays visible in the latency sample.
                        let target = Duration::from_micros(op.at_us);
                        let now = started.elapsed();
                        if now < target {
                            std::thread::sleep(target - now);
                        }
                        outcome.attempted += 1;

                        // Dial the lane if it has no session, then send:
                        // a refused greeting and a refused message are
                        // told apart by their reply alone.
                        let sent = match &mut pool[lane] {
                            Some(client) => Ok(client),
                            closed => TcpConnection::connect(addr)
                                .map_err(SmtpError::Io)
                                .and_then(|conn| Client::connect(conn, "load.example"))
                                .map(|client| {
                                    outcome.reconnects += u64::from(ever_connected[lane]);
                                    ever_connected[lane] = true;
                                    closed.insert(client)
                                }),
                        }
                        .and_then(|client| client.send(&build_message(spec, &op)));
                        let fatal = match &sent {
                            Ok(()) => {
                                outcome.accepted += 1;
                                outcome.acked_seqs.push(op.seq);
                                false
                            }
                            Err(e) => outcome.count_failure(e),
                        };
                        // Coordinated-omission-safe sample for every
                        // attempt that got a reply, measured from the
                        // scheduled instant; no reply records nothing.
                        if matches!(sent, Ok(()) | Err(SmtpError::UnexpectedReply(_))) {
                            let lat =
                                (started.elapsed().as_micros() as u64).saturating_sub(op.at_us);
                            latency.record(lat.max(1));
                        }
                        if fatal {
                            pool[lane] = None; // reconnect next op
                        }
                    }
                    for client in pool.into_iter().flatten() {
                        let _ = client.quit();
                    }
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut total = WorkerOutcome::default();
    for o in outcomes {
        total.attempted += o.attempted;
        total.accepted += o.accepted;
        total.shed_452 += o.shed_452;
        total.shed_421 += o.shed_421;
        total.bounced_552 += o.bounced_552;
        total.other_reply += o.other_reply;
        total.no_reply += o.no_reply;
        total.reconnects += o.reconnects;
        total.acked_seqs.extend(o.acked_seqs);
    }
    total.acked_seqs.sort_unstable();
    for (name, count) in [
        ("load.sent", total.attempted),
        ("load.accepted", total.accepted),
        ("load.shed.reply_452", total.shed_452),
        ("load.shed.reply_421", total.shed_421),
        ("load.bounced_552", total.bounced_552),
        ("load.error.other_reply", total.other_reply),
        ("load.error.no_reply", total.no_reply),
        ("load.reconnects", total.reconnects),
    ] {
        registry.counter(name).add(count);
    }

    let metrics = registry.snapshot();
    LoadReport {
        name: spec.name.clone(),
        offered,
        attempted: total.attempted,
        accepted: total.accepted,
        shed_452: total.shed_452,
        shed_421: total.shed_421,
        bounced_552: total.bounced_552,
        other_reply: total.other_reply,
        no_reply: total.no_reply,
        reconnects: total.reconnects,
        horizon: Duration::from_millis(spec.duration_ms),
        elapsed,
        latency_us: metrics
            .histograms
            .get("load.latency_us")
            .cloned()
            .unwrap_or_default(),
        metrics,
        acked_seqs: total.acked_seqs,
    }
}

/// Builds the op's message: templated addresses, conservation header.
fn build_message(spec: &WorkloadSpec, op: &ScheduledSend) -> MailMessage {
    let from = spec
        .sender_template
        .replacen("{}", &op.sender.to_string(), 1);
    let to = spec
        .recipient_template
        .replacen("{}", &op.recipient.to_string(), 1);
    MailMessage::builder(from, to)
        .header("Subject", format!("load {}", op.seq))
        .header(HEADER_LOAD_SEQ, op.seq.to_string())
        .body(spec.body.clone())
        .build()
}

impl WorkerOutcome {
    /// Tallies a failed attempt; returns whether the connection is
    /// unusable.
    fn count_failure(&mut self, error: &SmtpError) -> bool {
        let SmtpError::UnexpectedReply(reply) = error else {
            self.no_reply += 1;
            return true;
        };
        match reply.code {
            ReplyCode::InsufficientStorage => self.shed_452 += 1,
            // The server says goodbye after a 421; drop the session.
            ReplyCode::ServiceNotAvailable => {
                self.shed_421 += 1;
                return true;
            }
            ReplyCode::ExceededAllocation => self.bounced_552 += 1,
            _ => self.other_reply += 1,
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use zmail_smtp::{CollectSink, ThreadedConfig, ThreadedServer};

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "runner-test".into(),
            rate_per_sec: 400.0,
            duration_ms: 250,
            workers: 2,
            connections_per_worker: 2,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn open_loop_run_delivers_and_accounts_exactly() {
        let sink = CollectSink::shared();
        let mut server =
            ThreadedServer::start("mx.test", sink.clone(), ThreadedConfig::default()).unwrap();
        let spec = quick_spec();
        let report = run(&spec, server.addr());
        server.stop();

        assert_eq!(report.attempted, report.offered);
        assert_eq!(report.no_reply, 0, "server was live the whole run");
        assert_eq!(report.accepted, report.offered, "nothing should shed");
        assert_eq!(report.acked_seqs.len() as u64, report.accepted);
        // Conservation: every acked seq is in the sink exactly once.
        let mut seen: Vec<u64> = sink
            .messages()
            .iter()
            .map(|m| m.header(HEADER_LOAD_SEQ).unwrap().parse().unwrap())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, report.acked_seqs);
        assert_eq!(report.latency_us.count, report.offered);
        assert_eq!(
            report.metrics.counters.get("load.accepted"),
            Some(&report.accepted)
        );
    }

    #[test]
    fn a_shedding_server_is_counted_once_in_report_and_registry_alike() {
        /// Accepts everything, slowly, so the one worker stays busy.
        #[derive(Clone)]
        struct StalledSink;
        impl zmail_smtp::MailSink for StalledSink {
            fn deliver(&self, _m: MailMessage) -> Result<(), zmail_smtp::SinkError> {
                std::thread::sleep(Duration::from_millis(2));
                Ok(())
            }
        }
        // One worker and one queue slot against four connections: one is
        // served, one waits its turn, the other two are shed with `421`
        // at every attempt.
        let config = ThreadedConfig {
            workers: 1,
            queue_depth: 1,
            ..ThreadedConfig::default()
        };
        let spec = WorkloadSpec {
            workers: 4,
            connections_per_worker: 1,
            ..quick_spec()
        };
        let mut server = ThreadedServer::start("mx.test", StalledSink, config).unwrap();
        let addr = server.addr();
        // Fails, instead of hanging, if a lane is parked for good.
        let (done, report) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(run(&spec, addr));
        });
        let report = report
            .recv_timeout(Duration::from_secs(10))
            .expect("the run ends");
        server.stop();

        assert!(report.shed_421 > 0 && report.accepted > 0, "{report:?}");
        assert_eq!(report.replied(), report.offered);
        assert_eq!(server.stats().shed_connections, report.shed_421);
        let fields = [
            ("load.sent", report.attempted),
            ("load.accepted", report.accepted),
            ("load.shed.reply_452", report.shed_452),
            ("load.shed.reply_421", report.shed_421),
            ("load.bounced_552", report.bounced_552),
            ("load.error.other_reply", report.other_reply),
            ("load.error.no_reply", report.no_reply),
            ("load.reconnects", report.reconnects),
        ];
        let counters = &report.metrics.counters;
        assert_eq!(counters.len(), fields.len(), "{counters:?}");
        for (name, field) in fields {
            assert_eq!(counters.get(name), Some(&field), "{name}");
        }
        assert_eq!(report.latency_us.count, report.replied());
    }

    #[test]
    fn report_rates_are_consistent() {
        let sink = CollectSink::shared();
        let mut server = ThreadedServer::start("mx.test", sink, ThreadedConfig::default()).unwrap();
        let report = run(&quick_spec(), server.addr());
        server.stop();
        assert!(report.offered_rate() > 0.0);
        assert!(report.accepted_rate() > 0.0);
        assert_eq!(report.replied(), report.offered);
        assert_eq!(report.shed(), 0);
    }
}
