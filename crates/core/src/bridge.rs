//! Zmail over unmodified SMTP: the deployment story of §1.3.
//!
//! [`ZmailGateway`] implements [`zmail_smtp::MailSink`], so a standard
//! [`zmail_smtp::SmtpServer`] session — over memory transport, or over
//! real TCP behind [`zmail_smtp::ThreadedServer`] — becomes a
//! Zmail-compliant mail exchanger with **zero protocol changes**:
//!
//! * the sender address is parsed back to a Zmail user; the ISP's ledger
//!   runs the §4.1 guards; a refused send surfaces as an ordinary `552`
//!   bounce;
//! * accepted mail is stamped with `X-Zmail-Payment: 1` and delivered to
//!   the recipient's mailbox;
//! * mail from addresses outside the deployment (a non-compliant world)
//!   is delivered unpaid, subject to the configured policy.
//!
//! The gateway models a *compliant backbone*: it holds every compliant
//! ISP's ledger behind one mutex, so a single SMTP endpoint can accept
//! mail for all of them (the way a test deployment would start). A
//! message takes that lock **once**: `RCPT` is answered from the
//! immutable configuration, which lives outside it, and `deliver` checks
//! the §4.1 guard for all of the message's paid recipients before it
//! charges the first — a refused message mutates nothing.
//!
//! Its books are **volatile**: the gateway has no `zmail-store` to drain
//! an ISP journal into, so it journals nothing, whatever
//! [`ZmailConfig::durability`] says. Behind a
//! [`BackpressureSink`](crate::BackpressureSink) the *mail* is durable
//! before `250` (the spool); the balances are not.

use crate::config::{NonCompliantPolicy, ZmailConfig};
use crate::ids::{mailbox, parse_mailbox, IspId};
use crate::isp::{Isp, SendOutcome};
use crate::msg::NetMsg;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use zmail_crypto::KeyPair;
use zmail_econ::EPennies;
use zmail_obs::{FlightRecorder, SpanStatus};
use zmail_sim::workload::{MailKind, UserAddr};
use zmail_smtp::{MailMessage, MailSink, SinkError, ZmailHeaders};

/// Counters exposed by the gateway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Messages accepted and delivered with payment.
    pub delivered_paid: u64,
    /// Messages delivered without payment (foreign senders).
    pub delivered_unpaid: u64,
    /// Messages bounced by the ledger (`552`).
    pub bounced: u64,
    /// Foreign messages dropped by policy.
    pub dropped: u64,
}

struct GatewayState {
    isps: Vec<Isp>,
    mailboxes: Vec<Vec<MailMessage>>,
    stats: GatewayStats,
    /// Causal flight recorder (disabled by default). Submissions are
    /// stamped with a logical sequence number, not wall time, so the
    /// span stream is deterministic for a fixed submission order.
    flight: FlightRecorder,
    /// Logical submission clock feeding span timestamps.
    seq: u64,
}

/// A Zmail-compliant SMTP mail sink (clone freely: clones share state).
/// The ledgers live in memory only — see the module docs.
#[derive(Clone)]
pub struct ZmailGateway {
    /// Never changes after `new`, so reading it needs no lock.
    config: Arc<ZmailConfig>,
    inner: Arc<Mutex<GatewayState>>,
}

impl std::fmt::Debug for ZmailGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state();
        f.debug_struct("ZmailGateway")
            .field("isps", &state.isps.len())
            .field("stats", &state.stats)
            .finish()
    }
}

impl ZmailGateway {
    /// Builds the gateway with fresh ledgers for every compliant ISP.
    pub fn new(mut config: ZmailConfig, seed: u64) -> Self {
        config.validate();
        // An `Isp` built under a durable configuration journals every
        // mutation for its driver to drain; nothing here ever would.
        config.durability = None;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let bank = KeyPair::generate(&mut rng);
        let isps: Vec<Isp> = (0..config.isps)
            .map(|i| Isp::new(IspId(i), &config, *bank.public(), seed ^ u64::from(i)))
            .collect();
        let mailboxes = vec![Vec::new(); (config.isps * config.users_per_isp) as usize];
        ZmailGateway {
            config: Arc::new(config),
            inner: Arc::new(Mutex::new(GatewayState {
                isps,
                mailboxes,
                stats: GatewayStats::default(),
                flight: FlightRecorder::disabled(1),
                seq: 0,
            })),
        }
    }

    /// The one place the gateway takes its lock. A panic under the lock
    /// (e.g. [`inbox`](Self::inbox) with an out-of-range address) poisons
    /// it; the read-only views look through the poison, while `deliver`
    /// and `accept_recipient` check [`Mutex::is_poisoned`] and refuse —
    /// rather than every later call, and the server worker running it,
    /// panicking in turn.
    fn state(&self) -> MutexGuard<'_, GatewayState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn mailbox_index(&self, addr: UserAddr) -> usize {
        addr.isp as usize * self.config.users_per_isp as usize + addr.user as usize
    }

    /// Whether `addr` names a mailbox of this deployment. Addresses come
    /// off the wire, so every index into the ledgers is checked here.
    fn hosts(&self, addr: UserAddr) -> bool {
        addr.isp < self.config.isps && addr.user < self.config.users_per_isp
    }

    /// Snapshot of a user's inbox.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn inbox(&self, addr: UserAddr) -> Vec<MailMessage> {
        self.state().mailboxes[self.mailbox_index(addr)].clone()
    }

    /// A user's current e-penny balance.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn balance(&self, addr: UserAddr) -> EPennies {
        let state = self.state();
        EPennies(state.isps[addr.isp as usize].user(addr.user).balance)
    }

    /// Gateway counters.
    pub fn stats(&self) -> GatewayStats {
        self.state().stats
    }

    /// The canonical mailbox string for an address (convenience for
    /// clients).
    pub fn address(addr: UserAddr) -> String {
        mailbox(addr)
    }

    /// Installs a causal flight recorder: each accepted SMTP submission
    /// mints a lifecycle root, and delivered copies carry the context in
    /// their `X-Zmail-Trace` header. The caller keeps a clone to
    /// `finalize` and `drain`.
    pub fn attach_flight_recorder(&self, recorder: FlightRecorder) {
        self.state().flight = recorder;
    }
}

use rand::SeedableRng;

impl MailSink for ZmailGateway {
    fn accept_recipient(&self, _from: &str, to: &str) -> bool {
        // We only host Zmail mailboxes. No lock: `RCPT` reads the
        // configuration alone.
        !self.inner.is_poisoned() && parse_mailbox(to).is_some_and(|addr| self.hosts(addr))
    }

    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        let mut state = self.state();
        if self.inner.is_poisoned() {
            return Err(SinkError::overloaded("gateway ledger unavailable"));
        }
        let recipients: Vec<UserAddr> = message
            .recipients()
            .iter()
            .filter_map(|r| parse_mailbox(r))
            .filter(|&to| self.hosts(to))
            .collect();
        if recipients.is_empty() {
            return Err("no deliverable recipients".into());
        }
        match parse_mailbox(message.from()) {
            Some(sender) if self.hosts(sender) && self.config.is_compliant(IspId(sender.isp)) => {
                // One lifecycle root per accepted submission, stamped
                // with the logical submission clock.
                let ts = state.seq;
                state.seq += 1;
                let root = state.flight.begin_trace(ts, "submit", "gateway", "");
                if let Some(ctx) = root {
                    let route = format_args!("{} x{}", message.from(), recipients.len());
                    state.flight.annotate(ctx, route);
                }
                // Compliant sender: the §4.1 guard for every recipient the
                // sender pays for, before the first is charged. A refused
                // message mutates nothing — no recipient is delivered, and
                // a retry pays once.
                let paid = recipients
                    .iter()
                    .filter(|to| self.config.is_compliant(IspId(to.isp)))
                    .count() as u32;
                if let Err(refusal) = state.isps[sender.isp as usize].check_sends(sender.user, paid)
                {
                    state.stats.bounced += 1;
                    if let Some(ctx) = root {
                        state.flight.annotate(ctx, "bounced");
                        state.flight.end_with(ts, ctx, SpanStatus::Dropped);
                    }
                    return Err(refusal.to_string().into());
                }
                for &to in &recipients {
                    let outcome = state.isps[sender.isp as usize]
                        .send_email(sender.user, to, MailKind::Personal)
                        .expect("the guard held for every paid recipient under this lock");
                    // The backbone delivers inter-ISP mail instantly.
                    if let SendOutcome::Outbound {
                        to: dest,
                        msg: NetMsg::Email(email),
                    } = outcome
                    {
                        state.isps[dest.index()].receive_email(IspId(sender.isp), &email);
                    }
                    let delivery = root.and_then(|ctx| {
                        state
                            .flight
                            .child(ts, ctx, "delivery", format!("isp{}", to.isp), "")
                    });
                    let mut copy = message.clone();
                    let mut headers = ZmailHeaders {
                        payment: Some(1),
                        is_ack: false,
                        ack_to: None,
                        trace: None,
                    };
                    // Delivered copies carry the hop's span context so
                    // downstream software can link back to the trace.
                    if let Some(d) = delivery {
                        headers = headers.with_trace(d);
                    }
                    headers.stamp(&mut copy);
                    state.mailboxes[self.mailbox_index(to)].push(copy);
                    state.stats.delivered_paid += 1;
                    if let Some(d) = delivery {
                        state.flight.end(ts, d);
                    }
                }
                if let Some(ctx) = root {
                    state.flight.end(ts, ctx);
                }
                Ok(())
            }
            _ => {
                // Foreign, out-of-range or non-compliant sender: unpaid,
                // policy applies.
                match self.config.non_compliant_policy {
                    NonCompliantPolicy::Discard => {
                        state.stats.dropped += recipients.len() as u64;
                        Err("mail from non-compliant senders is not accepted".into())
                    }
                    _ => {
                        for &to in &recipients {
                            state.mailboxes[self.mailbox_index(to)].push(message.clone());
                            state.stats.delivered_unpaid += 1;
                        }
                        Ok(())
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmail_smtp::{Client, CollectSink, MemoryTransport, SmtpServer};

    fn gateway() -> ZmailGateway {
        ZmailGateway::new(ZmailConfig::builder(2, 3).build(), 31)
    }

    fn submit(gateway: &ZmailGateway, from: &str, to: &str) -> Result<(), zmail_smtp::SmtpError> {
        let (client_conn, server_conn) = MemoryTransport::pair();
        let server = SmtpServer::new("zmail.example", gateway.clone());
        let handle = std::thread::spawn(move || server.serve(server_conn));
        let msg = MailMessage::builder(from, to)
            .header("Subject", "over smtp")
            .body("hello\r\n")
            .build();
        let mut client = Client::connect(client_conn, "client.example")?;
        let result = client.send(&msg);
        client.quit()?;
        handle.join().expect("server thread").expect("session");
        result
    }

    #[test]
    fn paid_delivery_moves_an_epenny_over_smtp() {
        let gw = gateway();
        let alice = UserAddr::new(0, 0);
        let bob = UserAddr::new(1, 1);
        submit(
            &gw,
            &ZmailGateway::address(alice),
            &ZmailGateway::address(bob),
        )
        .unwrap();
        assert_eq!(gw.balance(alice), EPennies(99));
        assert_eq!(gw.balance(bob), EPennies(101));
        let inbox = gw.inbox(bob);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].header("X-Zmail-Payment"), Some("1"));
        assert_eq!(gw.stats().delivered_paid, 1);
    }

    #[test]
    fn delivered_mail_carries_a_linkable_trace_header() {
        use zmail_smtp::ZmailHeaders;
        let gw = gateway();
        let recorder = FlightRecorder::new(256);
        gw.attach_flight_recorder(recorder.clone());
        let alice = UserAddr::new(0, 0);
        let bob = UserAddr::new(1, 1);
        submit(
            &gw,
            &ZmailGateway::address(alice),
            &ZmailGateway::address(bob),
        )
        .unwrap();
        recorder.finalize(1);
        let log = recorder.drain();
        log.validate().expect("gateway span log well-formed");
        // The delivered copy's X-Zmail-Trace names a span in the log.
        let inbox = gw.inbox(bob);
        let headers = ZmailHeaders::extract(&inbox[0]);
        let ctx = headers.trace.expect("trace header present");
        let span = log
            .spans
            .iter()
            .find(|s| s.trace == ctx.trace && s.span == ctx.span)
            .expect("header links to a recorded span");
        assert_eq!(span.phase, "delivery");
        assert!(log.spans.iter().any(|s| s.phase == "submit"));
    }

    #[test]
    fn broke_sender_gets_552_bounce() {
        let gw = ZmailGateway::new(
            ZmailConfig::builder(2, 2)
                .initial_balance(EPennies::ZERO)
                .build(),
            32,
        );
        let err = submit(
            &gw,
            &ZmailGateway::address(UserAddr::new(0, 0)),
            &ZmailGateway::address(UserAddr::new(1, 0)),
        )
        .unwrap_err();
        let zmail_smtp::SmtpError::UnexpectedReply(reply) = err else {
            panic!("expected a reply error");
        };
        assert_eq!(reply.code, zmail_smtp::ReplyCode::ExceededAllocation);
        assert!(reply.text.contains("balance"));
        assert_eq!(gw.stats().bounced, 1);
    }

    #[test]
    fn foreign_sender_is_unpaid_but_delivered() {
        let gw = gateway();
        let bob = UserAddr::new(0, 1);
        submit(&gw, "stranger@outside.org", &ZmailGateway::address(bob)).unwrap();
        assert_eq!(
            gw.balance(bob),
            EPennies(100),
            "no windfall without payment"
        );
        assert_eq!(gw.inbox(bob).len(), 1);
        assert_eq!(gw.stats().delivered_unpaid, 1);
    }

    #[test]
    fn discard_policy_rejects_foreign_mail() {
        let gw = ZmailGateway::new(
            ZmailConfig::builder(2, 2)
                .non_compliant_policy(NonCompliantPolicy::Discard)
                .build(),
            33,
        );
        let err = submit(
            &gw,
            "stranger@outside.org",
            &ZmailGateway::address(UserAddr::new(0, 0)),
        );
        assert!(err.is_err());
        assert_eq!(gw.stats().dropped, 1);
    }

    #[test]
    fn unknown_recipient_rejected_at_rcpt() {
        let gw = gateway();
        let err = submit(
            &gw,
            &ZmailGateway::address(UserAddr::new(0, 0)),
            "u99@isp9.example",
        );
        assert!(err.is_err(), "out-of-range mailbox must be refused");
    }

    #[test]
    fn a_recipient_nobody_vetted_is_skipped_not_indexed() {
        // Straight into `deliver`, as a relay that skipped `RCPT` would.
        let gw = gateway();
        let alice = ZmailGateway::address(UserAddr::new(0, 0));
        let bob = UserAddr::new(1, 1);
        let msg = MailMessage::builder(alice.as_str(), "u0@isp999.example")
            .also_to(ZmailGateway::address(bob))
            .body("one of two\r\n")
            .build();
        gw.deliver(msg).expect("the hosted recipient is served");
        assert_eq!((gw.stats().delivered_paid, gw.inbox(bob).len()), (1, 1));
        let nobody = MailMessage::builder(alice, "u7@isp0.example").build();
        assert!(matches!(gw.deliver(nobody), Err(SinkError::Reject(_))));
        assert!(!gw.inner.is_poisoned());
    }

    #[test]
    fn works_behind_real_tcp() {
        let gw = gateway();
        let mut server = zmail_smtp::ThreadedServer::start(
            "zmail.example",
            gw.clone(),
            zmail_smtp::ThreadedConfig::default(),
        )
        .unwrap();
        let conn = zmail_smtp::TcpConnection::connect(server.addr()).unwrap();
        let mut client = Client::connect(conn, "client.example").unwrap();
        let msg = MailMessage::builder(
            ZmailGateway::address(UserAddr::new(0, 0)),
            ZmailGateway::address(UserAddr::new(1, 2)),
        )
        .body("over real sockets\r\n")
        .build();
        client.send(&msg).unwrap();
        client.quit().unwrap();
        server.stop();
        assert_eq!(gw.balance(UserAddr::new(1, 2)), EPennies(101));
    }

    #[test]
    fn hostile_sender_addresses_get_a_reply_and_leave_the_gateway_serving() {
        use crate::backpressure::{AdmissionConfig, BackpressureSink};
        let gw = gateway();
        let sink = BackpressureSink::start(
            gw.clone(),
            Box::new(zmail_store::MemStorage::new()),
            AdmissionConfig::default(),
        );
        let mut server = zmail_smtp::ThreadedServer::start(
            "zmail.example",
            sink.clone(),
            zmail_smtp::ThreadedConfig::default(),
        )
        .unwrap();
        let bob = UserAddr::new(1, 1);
        let send = |from: &str| {
            let stream = std::net::TcpStream::connect(server.addr()).unwrap();
            // A wedged gateway must fail this test, not hang it.
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let conn = zmail_smtp::TcpConnection::new(stream);
            let mut client = Client::connect(conn, "client.example").unwrap();
            let msg = MailMessage::builder(from, ZmailGateway::address(bob))
                .body("probe\r\n")
                .build();
            let result = client.send(&msg);
            client.quit().unwrap();
            result
        };
        // Well-formed mailboxes whose indices lie outside the 2x3
        // deployment are foreign senders: unpaid, default policy delivers.
        send("u0@isp999.example").expect("out-of-range ISP gets a 250");
        send("u4000000000@isp0.example").expect("out-of-range user gets a 250");
        send(&ZmailGateway::address(UserAddr::new(0, 0))).expect("honest mail still gets a 250");
        server.stop();
        sink.shutdown();
        assert!(!gw.inner.is_poisoned());
        assert_eq!(
            gw.stats(),
            GatewayStats {
                delivered_paid: 1,
                delivered_unpaid: 2,
                bounced: 0,
                dropped: 0,
            }
        );
        assert_eq!(gw.balance(bob), EPennies(101));
    }

    #[test]
    fn a_durable_config_does_not_fill_journals_nobody_drains() {
        let gw = ZmailGateway::new(ZmailConfig::builder(2, 3).durable().build(), 31);
        let alice = UserAddr::new(0, 0);
        let bob = UserAddr::new(1, 1);
        for _ in 0..20 {
            let msg =
                MailMessage::builder(ZmailGateway::address(alice), ZmailGateway::address(bob))
                    .body("journal me\r\n")
                    .build();
            gw.deliver(msg).unwrap();
        }
        assert_eq!(gw.balance(bob), EPennies(120));
        for isp in &mut gw.state().isps {
            assert!(isp.drain_journal().is_empty(), "{} journals", isp.id());
        }
    }

    #[test]
    fn poisoned_lock_sheds_mail_instead_of_panicking_every_worker() {
        let gw = gateway();
        let alice = ZmailGateway::address(UserAddr::new(0, 0));
        let bob = ZmailGateway::address(UserAddr::new(1, 1));
        submit(&gw, &alice, &bob).unwrap();
        // The documented out-of-range `inbox` panic fires under the lock.
        let poisoner = gw.clone();
        std::thread::spawn(move || poisoner.inbox(UserAddr::new(9, 9)))
            .join()
            .expect_err("out-of-range inbox panics");

        let msg = MailMessage::builder(alice.as_str(), bob.as_str())
            .body("after the panic\r\n")
            .build();
        assert!(matches!(gw.deliver(msg), Err(SinkError::Overloaded(_))));
        assert!(!gw.accept_recipient(&alice, &bob));
        // The books stay readable for the postmortem.
        assert_eq!(gw.stats().delivered_paid, 1);
        assert_eq!(gw.balance(UserAddr::new(1, 1)), EPennies(101));
        assert!(format!("{gw:?}").contains("delivered_paid: 1"));
    }

    #[test]
    fn rcpt_is_answered_without_the_ledger_lock() {
        let gw = gateway();
        let _ledger = gw.state();
        let other = gw.clone();
        let answers = crate::backpressure::tests::within_3s(move || {
            let bob = ZmailGateway::address(UserAddr::new(1, 1));
            (
                other.accept_recipient("anyone", &bob),
                other.accept_recipient("anyone", "u99@isp9.example"),
            )
        });
        assert_eq!(answers, (true, false));
    }

    #[test]
    fn a_refused_message_has_not_half_happened() {
        use crate::backpressure::{AdmissionConfig, BackpressureSink};
        // Two e-pennies, or two sends left today, against four recipients.
        let broke = ZmailConfig::builder(2, 5).initial_balance(EPennies(2));
        let capped = ZmailConfig::builder(2, 5).limit(2);
        for (config, why) in [(broke, "balance"), (capped, "limit")] {
            let gw = ZmailGateway::new(config.build(), 34);
            let sink = BackpressureSink::start(
                gw.clone(),
                Box::new(zmail_store::MemStorage::new()),
                AdmissionConfig::default(),
            );
            let alice = UserAddr::new(0, 0);
            let before = gw.balance(alice);
            let to = |n: u32| {
                let first = ZmailGateway::address(UserAddr::new(1, 1));
                let mut msg = MailMessage::builder(ZmailGateway::address(alice), first);
                for user in 2..=n {
                    msg = msg.also_to(ZmailGateway::address(UserAddr::new(1, user)));
                }
                msg.body("all or nothing\r\n").build()
            };
            let err = sink.deliver(to(4)).unwrap_err();
            assert!(
                matches!(&err, SinkError::Reject(t) if t.contains(why)),
                "{err:?}"
            );
            let bounced = GatewayStats {
                bounced: 1,
                ..GatewayStats::default()
            };
            assert_eq!((gw.stats(), gw.balance(alice)), (bounced, before), "{why}");
            for user in 1..=4 {
                assert!(
                    gw.inbox(UserAddr::new(1, user)).is_empty(),
                    "{why}: u{user}"
                );
            }
            assert_eq!(
                sink.spooled_bytes(),
                0,
                "{why}: nothing delivered, nothing spooled"
            );
            // So the retry that fits pays once, and the spool records it.
            sink.deliver(to(2)).expect("two recipients fit");
            sink.shutdown();
            assert_eq!(gw.stats().delivered_paid, 2, "{why}");
            assert_eq!(gw.balance(alice), EPennies(before.0 - 2), "{why}");
            assert_eq!(gw.balance(UserAddr::new(1, 2)).0 - before.0, 1, "{why}");
            assert!(sink.spooled_bytes() > 0, "{why}");
        }
    }

    #[test]
    fn collect_sink_still_usable_alongside() {
        // Regression guard: the gateway must not be required — plain sinks
        // keep working for non-Zmail tests.
        let sink = CollectSink::shared();
        assert!(sink.is_empty());
    }
}
