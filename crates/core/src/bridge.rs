//! Zmail over unmodified SMTP: the deployment story of §1.3.
//!
//! [`ZmailGateway`] implements [`zmail_smtp::MailSink`], so a standard
//! [`zmail_smtp::SmtpServer`] session — over memory transport, or over
//! real TCP behind [`zmail_smtp::ThreadedServer`] — becomes a
//! Zmail-compliant mail exchanger with **zero protocol changes**:
//!
//! * the sender address is parsed back to a Zmail user; the ISP's ledger
//!   runs the §4.1 guards, and every paid recipient's balance must hold
//!   its copies; a refused send surfaces as an ordinary `552` bounce;
//! * accepted mail is paid for, stamped with `X-Zmail-Payment: 1`, and
//!   handed to the mailbox attached with
//!   [`attach_mailbox`](ZmailGateway::attach_mailbox), one copy per
//!   recipient;
//! * mail from addresses outside the deployment (a non-compliant world)
//!   is handed on unpaid, subject to the configured policy.
//!
//! Like an SMTP server that has answered `250` (RFC 5321 §6.1), the
//! gateway hands accepted mail on and **keeps none of it**: it holds
//! counts and balances, not mail. With no mailbox attached it makes no
//! copy at all.
//!
//! The gateway models a *compliant backbone*: it holds every compliant
//! ISP's ledger behind one mutex, so a single SMTP endpoint can accept
//! mail for all of them (the way a test deployment would start). A
//! message takes that lock **once**: `RCPT` is answered from the
//! immutable configuration, which lives outside it, and `deliver` checks
//! the §4.1 guard for all of the message's paid recipients, and that each
//! recipient's balance can hold what it is paid, before it charges the
//! first — a refused message mutates nothing and hands nothing on. Copies are made and handed to the mailbox after the lock
//! is released.
//!
//! Its books are **volatile**: they are plain [`Books`], the
//! [`Ledger`](zmail_store::Ledger) its ISPs commit through under the lock, whatever
//! [`ZmailConfig::durability`] says. Behind a
//! [`BackpressureSink`](crate::BackpressureSink) the *mail* is durable
//! before `250` (the spool); the balances are not — the one durable
//! `Ledger`, a [`ShardedLedgerStore`](zmail_store::ShardedLedgerStore),
//! in their place is the same one copy, journaled: a choice of type.

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
use zmail_store::Books;

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

/// Where accepted mail goes: one call per recipient copy.
type Mailbox = Arc<dyn Fn(UserAddr, MailMessage) + Send + Sync>;

struct GatewayState {
    isps: Vec<Isp>,
    /// Every ISP's books, lent to its process on each call.
    books: Books,
    /// Attached mailbox (none by default: then no copy is made).
    mailbox: Option<Mailbox>,
    stats: GatewayStats,
    /// Causal flight recorder (disabled by default). Submissions are
    /// stamped with a logical sequence number, not wall time, so the
    /// span stream is deterministic for a fixed submission order.
    flight: FlightRecorder,
    /// Logical submission clock feeding span timestamps.
    seq: u64,
}

/// What an accepted message owes the mailbox once the ledger lock is
/// released: each recipient, and the stamp a paid copy carries.
type Handoff = (Mailbox, Vec<(UserAddr, Option<ZmailHeaders>)>);

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
    pub fn new(config: ZmailConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let bank = KeyPair::generate(&mut rng);
        let isps: Vec<Isp> = (0..config.isps)
            .map(|i| Isp::new(IspId(i), &config, *bank.public(), seed ^ u64::from(i)))
            .collect();
        ZmailGateway {
            inner: Arc::new(Mutex::new(GatewayState {
                isps,
                books: config.initial_books(),
                mailbox: None,
                stats: GatewayStats::default(),
                flight: FlightRecorder::disabled(1),
                seq: 0,
            })),
            config: Arc::new(config),
        }
    }

    /// The one place the gateway takes its lock. Should anything panic
    /// under it, the lock is poisoned; the read-only views look through
    /// the poison, while `deliver` and `accept_recipient` check
    /// [`Mutex::is_poisoned`] and refuse — rather than every later call,
    /// and the server worker running it, panicking in turn.
    fn state(&self) -> MutexGuard<'_, GatewayState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether `addr` names a mailbox of this deployment. Addresses come
    /// off the wire, so every index into the ledgers is checked here.
    fn hosts(&self, addr: UserAddr) -> bool {
        addr.isp < self.config.isps && addr.user < self.config.users_per_isp
    }

    /// A user's current e-penny balance.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range — before the lock is taken,
    /// so the gateway keeps serving.
    pub fn balance(&self, addr: UserAddr) -> EPennies {
        assert!(self.hosts(addr), "{addr:?} is not hosted here");
        let state = self.state();
        EPennies(state.books.isps[addr.isp as usize].users[addr.user as usize].balance)
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

    /// Installs the mailbox accepted mail is handed to: one stamped copy
    /// per deliverable recipient, in recipient order, before `deliver`
    /// returns. It is called after the ledger lock is released, so it
    /// may call back into the gateway, and a slow or panicking mailbox
    /// neither holds nor poisons the lock. It cannot refuse: the message
    /// is already paid for (a refusal after the commit would half-happen
    /// it). Replaces any earlier mailbox; with none, no copy is made.
    pub fn attach_mailbox(&self, mailbox: impl Fn(UserAddr, MailMessage) + Send + Sync + 'static) {
        self.state().mailbox = Some(Arc::new(mailbox));
    }

    /// Runs the ledger's side of `deliver` under the lock: what the
    /// mailbox is owed, if one is attached.
    fn settle(&self, message: &MailMessage) -> Result<Option<Handoff>, SinkError> {
        let mut guard = self.state();
        let state = &mut *guard;
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
        let mut handoff = state
            .mailbox
            .clone()
            .map(|mailbox| (mailbox, Vec::with_capacity(recipients.len())));
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
                // sender pays for, and room in each of their balances for
                // every copy it is paid, before the first is charged. A
                // refused message mutates nothing — no recipient is
                // delivered, and a retry pays once.
                let pays = |to: &&UserAddr| self.config.is_compliant(IspId(to.isp));
                let paid = recipients.iter().filter(pays).count() as u32;
                let origin = &mut state.isps[sender.isp as usize];
                let verdict =
                    (origin.check_sends(&state.books, sender.user, paid)).and_then(|()| {
                        recipients.iter().filter(pays).try_for_each(|to| {
                            let copies = recipients.iter().filter(|&other| other == to).count();
                            let row = state.books.isps[to.isp as usize].users[to.user as usize];
                            row.check_receives(copies as u32)
                        })
                    });
                if let Err(refusal) = verdict {
                    state.stats.bounced += 1;
                    if let Some(ctx) = root {
                        state.flight.annotate(ctx, "bounced");
                        state.flight.end_with(ts, ctx, SpanStatus::Dropped);
                    }
                    return Err(refusal.to_string().into());
                }
                for &to in &recipients {
                    let outcome = state.isps[sender.isp as usize]
                        .send_email(&mut state.books, sender.user, to, MailKind::Personal)
                        .expect("the guard held for every paid recipient under this lock");
                    // The backbone delivers inter-ISP mail instantly.
                    if let SendOutcome::Outbound {
                        to: dest,
                        msg: NetMsg::Email(email),
                    } = outcome
                    {
                        let receiver = &mut state.isps[dest.index()];
                        receiver.receive_email(&mut state.books, IspId(sender.isp), &email);
                    }
                    // Delivered copies carry the hop's span context so
                    // downstream software can link back to the trace.
                    let delivery = root.and_then(|ctx| {
                        state
                            .flight
                            .child(ts, ctx, "delivery", format!("isp{}", to.isp), "")
                    });
                    if let Some((_, copies)) = &mut handoff {
                        let stamp = ZmailHeaders {
                            payment: Some(1),
                            is_ack: false,
                            ack_to: None,
                            trace: delivery,
                        };
                        copies.push((to, Some(stamp)));
                    }
                    state.stats.delivered_paid += 1;
                    if let Some(d) = delivery {
                        state.flight.end(ts, d);
                    }
                }
                if let Some(ctx) = root {
                    state.flight.end(ts, ctx);
                }
                Ok(handoff)
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
                        state.stats.delivered_unpaid += recipients.len() as u64;
                        if let Some((_, copies)) = &mut handoff {
                            copies.extend(recipients.iter().map(|&to| (to, None)));
                        }
                        Ok(handoff)
                    }
                }
            }
        }
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
        // The ledger lock is released before the first copy is made.
        if let Some((mailbox, copies)) = self.settle(&message)? {
            for (to, stamp) in copies {
                let mut copy = message.clone();
                if let Some(headers) = stamp {
                    headers.stamp(&mut copy);
                }
                mailbox(to, copy);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use zmail_smtp::{Client, CollectSink, MemoryTransport, SmtpError, SmtpServer};

    fn gateway() -> ZmailGateway {
        ZmailGateway::new(ZmailConfig::builder(2, 3).build(), 31)
    }

    /// Attaches a mailbox that keeps every copy it is handed, in order.
    fn mailbox(gateway: &ZmailGateway) -> mpsc::Receiver<(UserAddr, MailMessage)> {
        let (tx, rx) = mpsc::channel();
        gateway.attach_mailbox(move |to, mail| tx.send((to, mail)).expect("the test holds rx"));
        rx
    }

    /// Sends `messages` in one SMTP session, one after another.
    fn session(gateway: &ZmailGateway, messages: &[MailMessage]) -> Vec<Result<(), SmtpError>> {
        let (client_conn, server_conn) = MemoryTransport::pair();
        let server = SmtpServer::new("zmail.example", gateway.clone());
        let handle = std::thread::spawn(move || server.serve(server_conn));
        let mut client = Client::connect(client_conn, "client.example").expect("greeting");
        let results = messages.iter().map(|msg| client.send(msg)).collect();
        client.quit().expect("quit");
        handle.join().expect("server thread").expect("session");
        results
    }

    fn submit(gateway: &ZmailGateway, from: &str, to: &str) -> Result<(), SmtpError> {
        let msg = MailMessage::builder(from, to)
            .header("Subject", "over smtp")
            .body("hello\r\n")
            .build();
        session(gateway, &[msg]).remove(0)
    }

    #[test]
    fn paid_delivery_moves_an_epenny_over_smtp() {
        let gw = gateway();
        let inbox = mailbox(&gw);
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
        let copies: Vec<_> = inbox.try_iter().collect();
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].0, bob);
        assert_eq!(copies[0].1.header("X-Zmail-Payment"), Some("1"));
        assert_eq!(gw.stats().delivered_paid, 1);
    }

    #[test]
    fn delivered_mail_carries_a_linkable_trace_header() {
        use zmail_smtp::ZmailHeaders;
        let gw = gateway();
        let recorder = FlightRecorder::new(256);
        gw.attach_flight_recorder(recorder.clone());
        let inbox = mailbox(&gw);
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
        let (to, copy) = inbox.try_recv().expect("one copy");
        assert_eq!(to, bob);
        let headers = ZmailHeaders::extract(&copy);
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
        let inbox = mailbox(&gw);
        let bob = UserAddr::new(0, 1);
        submit(&gw, "stranger@outside.org", &ZmailGateway::address(bob)).unwrap();
        assert_eq!(
            gw.balance(bob),
            EPennies(100),
            "no windfall without payment"
        );
        assert_eq!(
            inbox.try_iter().map(|(to, _)| to).collect::<Vec<_>>(),
            [bob]
        );
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
        let inbox = mailbox(&gw);
        let alice = ZmailGateway::address(UserAddr::new(0, 0));
        let bob = UserAddr::new(1, 1);
        let msg = MailMessage::builder(alice.as_str(), "u0@isp999.example")
            .also_to(ZmailGateway::address(bob))
            .body("one of two\r\n")
            .build();
        gw.deliver(msg).expect("the hosted recipient is served");
        assert_eq!(gw.stats().delivered_paid, 1);
        assert_eq!(
            inbox.try_iter().map(|(to, _)| to).collect::<Vec<_>>(),
            [bob]
        );
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
        // There is no journal to fill: a durable configuration leaves the
        // gateway on the same one copy of its books as a volatile one.
        let alice = UserAddr::new(0, 0);
        let bob = UserAddr::new(1, 1);
        let books = |config: ZmailConfig| {
            let gw = ZmailGateway::new(config, 31);
            for _ in 0..20 {
                let msg =
                    MailMessage::builder(ZmailGateway::address(alice), ZmailGateway::address(bob))
                        .body("journal me\r\n")
                        .build();
                gw.deliver(msg).unwrap();
            }
            assert_eq!(gw.balance(bob), EPennies(120));
            let books = gw.state().books.clone();
            books
        };
        let volatile = books(ZmailConfig::builder(2, 3).build());
        assert_eq!(
            books(ZmailConfig::builder(2, 3).durable().build()),
            volatile
        );
    }

    #[test]
    fn poisoned_lock_sheds_mail_instead_of_panicking_every_worker() {
        let gw = gateway();
        let alice = ZmailGateway::address(UserAddr::new(0, 0));
        let bob = ZmailGateway::address(UserAddr::new(1, 1));
        submit(&gw, &alice, &bob).unwrap();
        // Something panics under the ledger lock.
        let poisoner = gw.clone();
        std::thread::spawn(move || {
            let _ledger = poisoner.state();
            panic!("a bug under the ledger lock");
        })
        .join()
        .expect_err("the thread panicked");

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
            let inbox = mailbox(&gw);
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
            assert_eq!(inbox.try_iter().count(), 0, "{why}: nothing handed on");
            assert_eq!(
                sink.spooled_bytes(),
                0,
                "{why}: nothing delivered, nothing spooled"
            );
            // So the retry that fits pays once, and the spool records it.
            sink.deliver(to(2)).expect("two recipients fit");
            let handed: Vec<_> = inbox.try_iter().map(|(to, _)| to).collect();
            assert_eq!(handed, [UserAddr::new(1, 1), UserAddr::new(1, 2)], "{why}");
            sink.shutdown();
            assert_eq!(gw.stats().delivered_paid, 2, "{why}");
            assert_eq!(gw.balance(alice), EPennies(before.0 - 2), "{why}");
            assert_eq!(gw.balance(UserAddr::new(1, 2)).0 - before.0, 1, "{why}");
            assert!(sink.spooled_bytes() > 0, "{why}");
        }
    }

    /// A paid copy into a row whose balance is `i64::MAX` does not fit
    /// the books. Whether the row is at another ISP, at the sender's, or
    /// one of three recipients, the message is bounced whole with a `552`
    /// before the sender is charged, and the gateway keeps serving — no
    /// panic under the ledger lock, so no later message is a `452`.
    #[test]
    fn a_full_recipient_row_bounces_the_message_and_leaves_the_gateway_serving() {
        let config = ZmailConfig::builder(2, 3).initial_balance(EPennies(i64::MAX));
        let gw = ZmailGateway::new(config.build(), 35);
        let inbox = mailbox(&gw);
        // Two rows with room; every other row is full.
        let roomy = [UserAddr::new(0, 2), UserAddr::new(1, 2)];
        for to in roomy {
            gw.state().books.isps[to.isp as usize].users[to.user as usize].balance = 0;
        }
        let alice = UserAddr::new(0, 0);
        let message = |recipients: &[UserAddr]| {
            let mut msg = MailMessage::builder(
                ZmailGateway::address(alice),
                ZmailGateway::address(recipients[0]),
            );
            for &to in &recipients[1..] {
                msg = msg.also_to(ZmailGateway::address(to));
            }
            msg.body("one e-penny each\r\n").build()
        };
        let cases: [&[UserAddr]; 3] = [
            &[UserAddr::new(1, 0)],
            &[UserAddr::new(0, 1)],
            &[roomy[0], UserAddr::new(1, 1), roomy[1]],
        ];
        for (bounces, recipients) in (1..).zip(cases) {
            let books = gw.state().books.clone();
            let delivered = gw.stats().delivered_paid;
            let err = session(&gw, &[message(recipients)]).remove(0).unwrap_err();
            let zmail_smtp::SmtpError::UnexpectedReply(reply) = err else {
                panic!("{recipients:?}: expected a reply error, got {err:?}");
            };
            assert_eq!(
                reply.code,
                zmail_smtp::ReplyCode::ExceededAllocation,
                "{recipients:?}"
            );
            assert_eq!(gw.state().books, books, "{recipients:?}: books moved");
            assert_eq!(gw.stats().delivered_paid, delivered, "{recipients:?}");
            assert_eq!(gw.stats().bounced, bounces, "{recipients:?}");
            assert_eq!(inbox.try_iter().count(), 0, "{recipients:?}: handed on");
            assert!(gw.accept_recipient("", &ZmailGateway::address(roomy[1])));
        }
        session(&gw, &[message(&roomy)])
            .remove(0)
            .expect("both rows have room");
        assert_eq!(gw.stats().delivered_paid, 2);
        assert_eq!(gw.balance(alice), EPennies(i64::MAX - 2));
        assert_eq!(roomy.map(|to| gw.balance(to)), [EPennies(1); 2]);
        assert_eq!(
            inbox.try_iter().map(|(to, _)| to).collect::<Vec<_>>(),
            roomy
        );
    }

    #[test]
    fn an_out_of_range_balance_panics_without_wedging_the_gateway() {
        let gw = gateway();
        let probe = gw.clone();
        std::thread::spawn(move || probe.balance(UserAddr::new(9, 9)))
            .join()
            .expect_err("the documented panic");
        // Had it panicked under the lock, this would be a 452 and every
        // later `RCPT` a refusal.
        let (alice, bob) = (UserAddr::new(0, 0), UserAddr::new(1, 1));
        let (from, to) = (ZmailGateway::address(alice), ZmailGateway::address(bob));
        let msg = MailMessage::builder(from.as_str(), to.as_str())
            .body("still served\r\n")
            .build();
        assert_eq!(gw.deliver(msg), Ok(()));
        assert!(gw.accept_recipient(&from, &to));
        assert_eq!(
            (gw.balance(alice), gw.balance(bob)),
            (EPennies(99), EPennies(101))
        );
    }

    #[test]
    fn a_mailbox_gets_one_copy_per_recipient_in_submission_order() {
        let gw = gateway();
        let recorder = FlightRecorder::new(256);
        gw.attach_flight_recorder(recorder.clone());
        let inbox = mailbox(&gw);
        let addr = |isp, user| ZmailGateway::address(UserAddr::new(isp, user));
        let mail = |from: String, to: &[String], subject: &str| {
            let mut msg = MailMessage::builder(from, to[0].as_str());
            for rcpt in &to[1..] {
                msg = msg.also_to(rcpt.as_str());
            }
            msg.header("Subject", subject).body("copy me\r\n").build()
        };
        let results = session(
            &gw,
            &[
                mail(addr(0, 0), &[addr(1, 0), addr(0, 2), addr(1, 1)], "m0"),
                mail(
                    "stranger@outside.org".into(),
                    &[addr(1, 2), addr(0, 1)],
                    "m1",
                ),
                mail(addr(1, 2), &[addr(0, 0)], "m2"),
            ],
        );
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        recorder.finalize(1);
        let log = recorder.drain();

        let copies: Vec<(UserAddr, MailMessage)> = inbox.try_iter().collect();
        let order: Vec<(UserAddr, &str)> = copies
            .iter()
            .map(|(to, copy)| (*to, copy.header("Subject").expect("subject")))
            .collect();
        let u = UserAddr::new;
        let expected = [
            (u(1, 0), "m0"),
            (u(0, 2), "m0"),
            (u(1, 1), "m0"),
            (u(1, 2), "m1"),
            (u(0, 1), "m1"),
            (u(0, 0), "m2"),
        ];
        assert_eq!(order, expected);
        let stats = gw.stats();
        assert_eq!((stats.delivered_paid, stats.delivered_unpaid), (4, 2));
        for (to, copy) in &copies {
            let headers = ZmailHeaders::extract(copy);
            if copy.header("Subject") == Some("m1") {
                assert_eq!((headers.payment, headers.trace), (None, None), "{to:?}");
                continue;
            }
            assert_eq!(headers.payment, Some(1), "{to:?}");
            let ctx = headers.trace.expect("paid copies carry a trace");
            let span = log
                .spans
                .iter()
                .find(|s| s.trace == ctx.trace && s.span == ctx.span)
                .expect("the trace header links to a recorded span");
            assert_eq!(span.phase, "delivery");
            assert_eq!(span.node, format!("isp{}", to.isp));
        }
    }

    #[test]
    fn the_mailbox_is_called_outside_the_ledger_lock() {
        let gw = gateway();
        let (tx, seen) = mpsc::channel();
        let reader = gw.clone();
        // The mailbox reads the ledger: under the lock this would deadlock.
        gw.attach_mailbox(move |to, _| tx.send(reader.balance(to)).expect("the test holds rx"));
        let msg = MailMessage::builder(
            ZmailGateway::address(UserAddr::new(0, 0)),
            ZmailGateway::address(UserAddr::new(1, 1)),
        )
        .body("read my balance\r\n")
        .build();
        let submitter = gw.clone();
        crate::backpressure::tests::within_3s(move || submitter.deliver(msg)).expect("a 250");
        // The copy is handed on after its deposit is booked.
        assert_eq!(seen.try_iter().collect::<Vec<_>>(), [EPennies(101)]);
    }

    #[test]
    fn a_gateway_without_a_mailbox_books_what_one_with_a_mailbox_books() {
        let run = |attach: bool| {
            let gw = ZmailGateway::new(
                ZmailConfig::builder(2, 3)
                    .initial_balance(EPennies(3))
                    .build(),
                35,
            );
            let inbox = attach.then(|| mailbox(&gw));
            let (alice, bob) = (UserAddr::new(0, 0), UserAddr::new(1, 1));
            let paid = || {
                MailMessage::builder(ZmailGateway::address(alice), ZmailGateway::address(bob))
                    .also_to(ZmailGateway::address(UserAddr::new(0, 2)))
                    .body("paid\r\n")
                    .build()
            };
            let foreign = MailMessage::builder("stranger@outside.org", ZmailGateway::address(bob))
                .body("unpaid\r\n")
                .build();
            // Two paid recipients fit the balance of 3 once; the second
            // message bounces whole.
            let answers = [
                gw.deliver(paid()).is_ok(),
                gw.deliver(foreign).is_ok(),
                gw.deliver(paid()).is_ok(),
            ];
            let balances: Vec<EPennies> = (0..2)
                .flat_map(|isp| (0..3).map(move |user| UserAddr::new(isp, user)))
                .map(|addr| gw.balance(addr))
                .collect();
            let handed = inbox.map_or(0, |rx| rx.try_iter().count());
            (answers, gw.stats(), balances, handed)
        };
        let (answers, stats, balances, handed) = run(false);
        assert_eq!(answers, [true, true, false]);
        assert_eq!(
            stats,
            GatewayStats {
                delivered_paid: 2,
                delivered_unpaid: 1,
                bounced: 1,
                dropped: 0,
            }
        );
        assert_eq!(
            balances.iter().map(|b| b.0).collect::<Vec<_>>(),
            [1, 3, 4, 3, 4, 3]
        );
        assert_eq!(handed, 0);
        assert_eq!(run(true), (answers, stats, balances, 3));
    }

    #[test]
    fn collect_sink_still_usable_alongside() {
        // Regression guard: the gateway must not be required — plain sinks
        // keep working for non-Zmail tests.
        let sink = CollectSink::shared();
        assert!(sink.is_empty());
    }
}
