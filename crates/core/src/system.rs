//! The deployment harness: `n` ISPs, the bank, a latency-modelled network,
//! and a workload trace, run under the discrete-event engine.
//!
//! [`ZmailSystem`] is the object the experiments drive. It owns the
//! protocol processes, routes [`NetMsg`]s between them with a configurable
//! one-way latency (per-pair FIFO order is preserved — equal latency plus
//! the queue's stable tie-breaking), fires the paper's periodic actions
//! (daily `sent` resets, billing-period credit snapshots with the
//! quiescence freeze), and accumulates a [`RunReport`].

use crate::adversary::AdversaryEngine;
use crate::bank::{Bank, ConsistencyReport};
use crate::config::ZmailConfig;
use crate::ids::IspId;
use crate::invariants::{self, AuditError, FlightLedger};
use crate::isp::{Delivery, Isp, RefusalCause, SendError, SendOutcome};
use crate::metrics::CoreMetrics;
use crate::msg::{Digest, EmailMsg, Exchange, NetMsg};
use crate::multibank::{Federation, SettlementFlow};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use zmail_crypto::{KeyPair, PrivateKey, PublicKey};
use zmail_econ::EPennies;
use zmail_fault::{
    AdversaryCounters, AttackClass, Endpoint, Fault, FaultCounters, FaultInjector, MsgClass,
    PairLedger, Verdict,
};
use zmail_obs::{FlightRecorder, SpanCtx, SpanStatus};
use zmail_sim::racecheck::{AccessRecorder, CheckedWorld, RacecheckReport, RecordedWorld};
use zmail_sim::workload::{MailKind, SendEvent, UserAddr};
use zmail_sim::{ParallelWorld, Scheduler, SimDuration, SimTime, Simulation, World};
use zmail_store::{Books, LedgerStore, MemStorage, ShardedLedgerStore};

/// Events driving the world.
#[derive(Debug)]
enum Event {
    /// Process trace entry `index` and schedule the next one.
    Workload(usize),
    /// A network message arrives at `to`.
    Deliver {
        from: Endpoint,
        to: Endpoint,
        msg: NetMsg,
        /// Causal trace context riding with an email: the message's
        /// lifecycle span and the open delivery span. `None` for bank
        /// and snapshot traffic (their latency is measured by the
        /// `bank_rtt` span keyed on the requesting ISP) and whenever
        /// the flight recorder is off or the trace unsampled. Not part
        /// of the wire content: excluded from [`NetMsg::digest`] by
        /// construction, so traced and untraced runs share a
        /// [`RunReport::digest_checksum`].
        ctx: Option<EmailTrace>,
    },
    /// End-of-day: reset every `sent` array.
    DayEnd,
    /// Billing period: the bank starts a credit snapshot.
    BillingKickoff,
    /// An ISP's quiescence window expired.
    SnapshotTimeout(IspId),
    /// A registered mailing list distributes one post.
    ListPost(usize),
    /// Check whether an ISP's bank exchange needs retransmission.
    BankRetry(IspId),
    /// A crashed ISP comes back up and reloads its books from the
    /// durable store (scheduled only when durability is configured).
    CrashRestart(IspId),
}

/// Every `EventQueue` slot is this large: growing it is a decision.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Event>() == 144);

/// Trace context carried on an in-flight email's `Deliver` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EmailTrace {
    /// The span representing the whole message lifecycle (the `submit`
    /// root, or an `ack` span for automatic acknowledgments).
    lifecycle: SpanCtx,
    /// The open `delivery` span covering the network hop.
    delivery: SpanCtx,
}

/// Why [`ZmailWorld::process_send`] is running — determines how the
/// send is stitched into the causal trace.
#[derive(Debug, Clone, Copy)]
enum SendCause {
    /// A fresh submission (workload entry or list-post copy): mint a
    /// new trace and open its `submit` root span.
    Fresh,
    /// A send drained from the snapshot-freeze buffer: continue the
    /// original lifecycle span, whose `queue` wait just closed.
    Resumed(Option<SpanCtx>),
    /// An automatic §5 acknowledgment riding on a delivery: open an
    /// `ack` child span under the originating message's lifecycle.
    Ack(Option<SpanCtx>),
}

/// A span's node name or detail, spelled out only for a recorder that is
/// on and sampling the trace: the tests' `span_text_built` panics otherwise.
struct Lazy<T>(T);

impl<T: fmt::Display> fmt::Display for Lazy<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        tests::span_text_built();
        self.0.fmt(f)
    }
}

/// Outside the tests nobody watches span text being built.
#[cfg(not(test))]
mod tests {
    pub(super) fn span_text_built() {}
}

/// A mailing list wired into the protocol (§5): posts fan out as paid
/// mail from the distributor; subscriber ISPs acknowledge automatically,
/// each ack being an ordinary paid message returning the e-penny.
#[derive(Debug, Clone)]
struct RegisteredList {
    distributor: UserAddr,
    subscribers: Vec<UserAddr>,
    /// Probability a subscriber's ISP acknowledges a copy.
    ack_prob: f64,
}

/// A zombie warning: a user hit their daily limit (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitWarning {
    /// When the limit fired.
    pub at: SimTime,
    /// The user whose outgoing mail is now blocked for the day.
    pub user: UserAddr,
}

/// One crash-recovery performed by the harness: the ISP's books were
/// reloaded from the durable store (latest valid checkpoint plus WAL
/// tail) when its `Crash` window closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// When the restart happened.
    pub at: SimTime,
    /// The ISP that recovered.
    pub isp: IspId,
    /// Sequence number of the checkpoint recovery started from (`None`
    /// when it replayed from the bootstrap image).
    pub checkpoint_seq: Option<u64>,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Whether the recovered books differed from the live pre-crash
    /// books. The harness group-commits once per event, so this is the
    /// "books survive the crash" audit: it must stay `false`.
    pub diverged: bool,
}

/// Aggregated outcome of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Messages delivered to an inbox, by ground-truth kind.
    pub delivered_by_kind: BTreeMap<MailKind, u64>,
    /// Messages dropped (policy or filter), by kind.
    pub dropped_by_kind: BTreeMap<MailKind, u64>,
    /// Deliveries that carried an e-penny (local or inter-ISP).
    pub paid_deliveries: u64,
    /// Deliveries without payment (from/to non-compliant ISPs).
    pub unpaid_deliveries: u64,
    /// Sends refused for lack of balance.
    pub bounced_balance: u64,
    /// Sends refused by the daily limit.
    pub bounced_limit: u64,
    /// Sends buffered during snapshot freezes (later retried).
    pub buffered_sends: u64,
    /// Inter-ISP emails silently lost by the (configured-lossy) network.
    pub emails_lost: u64,
    /// Inter-ISP emails duplicated by the network.
    pub emails_duplicated: u64,
    /// Buy/sell messages (or replies) lost by the bank channel.
    pub bank_messages_lost: u64,
    /// Snapshot requests or replies eaten by structural faults
    /// (partitions, crashes, outages) — each stalls its billing round.
    pub snapshot_messages_lost: u64,
    /// Daily-limit warnings, in order (the §5 zombie defence signal).
    pub limit_warnings: Vec<LimitWarning>,
    /// Completed consistency checks, in order.
    pub consistency_reports: Vec<(SimTime, ConsistencyReport)>,
    /// Inter-bank settlements from each completed federated round
    /// (nonempty only when `banks > 1` and cross-region flow was unequal).
    pub settlements: Vec<(SimTime, Vec<SettlementFlow>)>,
    /// Total messages put on the inter-party network.
    pub network_messages: u64,
    /// Paid deliveries refused by attestation verification (missing,
    /// forged, mis-bound, or replayed signatures) — nonzero only under
    /// adversary clauses or attestation-aware duplication faults.
    pub refused_deliveries: u64,
    /// Crash-recoveries performed from the durable store, in order
    /// (empty unless durability is configured and a `Crash` fired).
    pub recoveries: Vec<RecoveryEvent>,
    /// Fold of every staged per-event digest ([`NetMsg::digest`] for
    /// deliveries, the trace-entry digest for workload sends) — the
    /// parallel staging payload. Serial and tick-parallel runs of one
    /// seed must agree on it exactly, so it anchors the serial≡parallel
    /// equivalence gate to the staged computation, not just the applies.
    pub digest_checksum: u64,
}

impl RunReport {
    /// Total messages delivered to inboxes.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_by_kind.values().sum()
    }

    /// Total messages dropped.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_by_kind.values().sum()
    }

    /// Delivered count for one kind.
    pub fn delivered(&self, kind: MailKind) -> u64 {
        self.delivered_by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// Dropped count for one kind.
    pub fn dropped(&self, kind: MailKind) -> u64 {
        self.dropped_by_kind.get(&kind).copied().unwrap_or(0)
    }
}

/// The world state driven by the event loop.
struct ZmailWorld {
    config: ZmailConfig,
    isps: Vec<Isp>,
    banks: Federation,
    trace: Vec<SendEvent>,
    horizon: SimTime,
    /// Every e-penny that is neither in a balance nor in a pool: on the
    /// wire, destroyed, counterfeited, or stranded at the bank. What
    /// [`ZmailSystem::audit`] balances the books against.
    ledger: FlightLedger,
    /// Attestation-layer corrections to the §4.4 pair-sum prediction,
    /// keyed by unordered ISP pair: +1 per refused *real* payment
    /// (stripped or a duplicate caught by the nonce set — the sender
    /// was debited, the receiver never credited), −1 per accepted
    /// counterfeit (credited, never debited). Always maintained (empty
    /// when attestations are off, since only attestation verification
    /// refuses deliveries); the scenario harness folds it into the
    /// injector's pair-ledger prediction.
    attest_pair_drift: BTreeMap<(u32, u32), i64>,
    net_faults: zmail_sim::Sampler,
    faults: FaultInjector,
    lists: Vec<RegisteredList>,
    report: RunReport,
    /// The durable sharded ledger engine, when [`ZmailConfig::durability`] is
    /// set. In-memory backed so runs stay deterministic and
    /// side-effect-free; the journal of every ISP and bank is appended
    /// and group-committed once per event.
    store: Option<ShardedLedgerStore<MemStorage>>,
    /// Access recorder for the footprint race checker. Disabled (a
    /// no-op) in production runs; [`RecordedWorld::recorded_apply`]
    /// swaps an armed one in so every instrumented mutation site below
    /// reports the key it touches.
    recorder: AccessRecorder,
    /// Causal flight recorder (disabled by default — see
    /// [`ZmailSystem::attach_flight_recorder`]). Every call into it
    /// happens on the serial apply path, so span ids, sampling
    /// decisions, and record order are byte-identical at any thread
    /// count.
    flight: FlightRecorder,
    /// The lifecycle span of the message this apply is processing, if
    /// any — the parent the WAL group-commit span attaches to.
    apply_ctx: Option<SpanCtx>,
    /// Lifecycle spans that terminated during this apply. Closed after
    /// [`ZmailWorld::persist_journals`] so the `wal_commit` child can
    /// still attach to an open parent.
    pending_close: Vec<(SpanCtx, SpanStatus)>,
    /// Per-ISP open `queue` spans, FIFO-aligned with the ISP's
    /// snapshot-freeze buffer: one entry pushed per buffered send
    /// (`None` when untraced), one popped per drained send.
    queue_spans: Vec<VecDeque<Option<(SpanCtx, SpanCtx)>>>,
    /// Per-ISP open `bank_rtt` spans, indexed by [`Exchange`], closed
    /// when the matching reply is applied.
    bank_spans: Vec<[Option<SpanCtx>; 2]>,
    /// The adversary interpreter for `Fault::Adversary` clauses.
    /// `None` when the plan carries none — the tap then costs one
    /// branch per dispatch and draws nothing, keeping legacy runs
    /// byte-identical.
    adversary: Option<AdversaryEngine>,
}

/// Canonical unordered-pair key for §4.4 drift bookkeeping.
fn pair_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Footprint key of an ISP's protocol state. Key 0 is the bank's, so
/// the two resource classes never collide in the shared `u64` space —
/// exactly what racecheck's SIM006 exists to verify. Public so the AP
/// spec mirror ([`crate::spec::sim_mirror_keys`]) can compare the
/// verified model's independence relation against these keys.
pub fn isp_key(isp: u32) -> u64 {
    1 + u64::from(isp)
}

/// Footprint key of the bank federation's state.
pub const BANK_KEY: u64 = 0;

/// Racecheck access classes of the full-protocol world.
const CLASS_ISP: &str = "isp";
const CLASS_BANK: &str = "bank";

/// Deterministic digest of one workload trace entry — the staging
/// payload of `Event::Workload`, folded into
/// [`RunReport::digest_checksum`] alongside each delivery's
/// [`NetMsg::digest`], through the same hasher: each entry field as a
/// little-endian `u64`.
fn trace_digest(entry: &SendEvent) -> u64 {
    let mut h = Digest::new();
    for v in [
        entry.at.as_millis(),
        (u64::from(entry.from.isp) << 32) | u64::from(entry.from.user),
        (u64::from(entry.to.isp) << 32) | u64::from(entry.to.user),
        entry.kind as u64,
    ] {
        h.eat(&v.to_le_bytes());
    }
    h.finish()
}

/// The fault layer's traffic class of a message.
fn msg_class(msg: &NetMsg) -> MsgClass {
    match msg {
        NetMsg::Email(_) => MsgClass::Email,
        NetMsg::Exchange { .. } | NetMsg::ExchangeReply { .. } => MsgClass::Bank,
        NetMsg::SnapshotRequest { .. } | NetMsg::SnapshotReply { .. } => MsgClass::Snapshot,
    }
}

impl ZmailWorld {
    /// Counts a message that reached an inbox.
    fn delivered(&mut self, kind: MailKind, paid: bool) {
        *self.report.delivered_by_kind.entry(kind).or_default() += 1;
        if paid {
            self.report.paid_deliveries += 1;
        } else {
            self.report.unpaid_deliveries += 1;
        }
    }

    /// Counts a message its receiving ISP filtered or refused.
    fn dropped(&mut self, kind: MailKind) {
        *self.report.dropped_by_kind.entry(kind).or_default() += 1;
    }

    /// Ends a message's lifecycle span, when it is traced: appends
    /// `note` (unless empty) and queues the close with `status` for
    /// [`ZmailWorld::flush_lifecycle_closes`].
    fn close(&mut self, lifecycle: Option<SpanCtx>, note: &str, status: SpanStatus) {
        if let Some(ctx) = lifecycle {
            if !note.is_empty() {
                self.flight.annotate(ctx, note);
            }
            self.pending_close.push((ctx, status));
        }
    }

    /// Shifts the §4.4 pair-sum prediction of the unordered pair
    /// `{a, b}` (see [`ZmailSystem::adversary_pair_drift`]).
    fn drift(&mut self, a: IspId, b: IspId, by: i64) {
        *self
            .attest_pair_drift
            .entry(pair_key(a.0, b.0))
            .or_insert(0) += by;
    }

    /// Routes an accepted send outcome; shared by workload and flush paths.
    fn process_send(
        &mut self,
        scheduler: &mut Scheduler<'_, Event>,
        from: UserAddr,
        to: UserAddr,
        kind: MailKind,
        cause: SendCause,
    ) {
        let now = scheduler.now().as_millis();
        let (sender_isp, origin) = (IspId(from.isp), Endpoint::Isp(from.isp));
        // The span standing for this send's whole lifecycle: a fresh
        // `submit` root, the resumed root of a previously buffered
        // send, or an `ack` child of the originating message.
        let lifecycle = match cause {
            SendCause::Fresh => {
                let ctx = self.flight.begin_trace(now, "submit", Lazy(origin), "");
                if let Some(ctx) = ctx {
                    let route = Lazy(format_args!("{from}->{to} {kind:?}"));
                    self.flight.annotate(ctx, route);
                }
                ctx
            }
            SendCause::Resumed(ctx) => ctx,
            SendCause::Ack(root) => {
                root.and_then(|r| self.flight.child(now, r, "ack", Lazy(origin), ""))
            }
        };
        if lifecycle.is_some() {
            self.apply_ctx = lifecycle;
        }
        if !self.config.is_compliant(sender_isp) {
            // Non-compliant ISPs run no ledger: mail goes out unpaid.
            let msg = NetMsg::Email(EmailMsg {
                from,
                to,
                kind,
                paid: false,
                attestation: None,
            });
            self.dispatch(scheduler, origin, Endpoint::Isp(to.isp), msg, lifecycle);
            return;
        }
        // One mutation surface for the whole send path: the sender's
        // ISP (ledger debit, buffer, auto-topup, buy/sell pump). A
        // local delivery credits the same ISP; cross-ISP credits happen
        // in the receiver's own Deliver event.
        self.recorder.write(CLASS_ISP, isp_key(sender_isp.0));
        let outcome = self.isps[sender_isp.index()].send_email(from.user, to, kind);
        match outcome {
            Ok(SendOutcome::DeliveredLocally) => {
                self.delivered(kind, true);
                // Same-ISP deliveries acknowledge too (§5): the ISP is
                // both sender's and receiver's, but the refund mechanics
                // are identical.
                let email = EmailMsg {
                    from,
                    to,
                    kind,
                    paid: true,
                    // A local delivery never leaves the ISP, so no
                    // attestation is minted; the §5 refund path below
                    // still works because the ack rides on `refund_ctx`
                    // only for attested inter-ISP posts.
                    attestation: None,
                };
                self.maybe_acknowledge(scheduler, &email, lifecycle);
                self.close(lifecycle, "local", SpanStatus::Ok);
            }
            Ok(SendOutcome::Outbound { to: dest, msg }) => {
                self.dispatch(scheduler, origin, Endpoint::Isp(dest.0), msg, lifecycle);
            }
            Ok(SendOutcome::Buffered) => {
                self.report.buffered_sends += 1;
                // One queue entry per buffered send — `None` when
                // untraced — so drains stay FIFO-aligned with the ISP's
                // own pending buffer.
                let queued = lifecycle.and_then(|root| {
                    self.flight
                        .child(now, root, "queue", Lazy(origin), "")
                        .map(|q| (root, q))
                });
                self.queue_spans[sender_isp.index()].push_back(queued);
            }
            Err(SendError::InsufficientBalance) => {
                self.report.bounced_balance += 1;
                self.close(lifecycle, "bounced=balance", SpanStatus::Dropped);
            }
            Err(SendError::DailyLimitExceeded) => {
                self.report.bounced_limit += 1;
                self.report.limit_warnings.push(LimitWarning {
                    at: scheduler.now(),
                    user: from,
                });
                self.close(lifecycle, "bounced=limit", SpanStatus::Dropped);
            }
        }
        // Behavioural knob: users top up when running low.
        if let Some(threshold) = self.config.auto_topup_below {
            let amount = self.config.topup_amount;
            self.isps[sender_isp.index()].auto_topup(from.user, threshold, amount);
        }
        self.pump_bank_exchanges(scheduler, sender_isp, lifecycle);
    }

    /// Lets an ISP issue any pending buy/sell to the bank. When the
    /// triggering send is traced, the round trip gets a `bank_rtt`
    /// span — request dispatch to reply applied — linked to the sealed
    /// request's nonce (`req=<id>`) and parented under the send that
    /// drained or filled the pool.
    fn pump_bank_exchanges(
        &mut self,
        scheduler: &mut Scheduler<'_, Event>,
        isp: IspId,
        lifecycle: Option<SpanCtx>,
    ) {
        let now = scheduler.now().as_millis();
        for side in Exchange::BOTH {
            let Some(msg) = self.isps[isp.index()].maybe_exchange(side) else {
                continue;
            };
            self.bank_spans[isp.index()][side.index()] = lifecycle.and_then(|root| {
                let req = self.isps[isp.index()]
                    .exchange_request_id(side)
                    .unwrap_or(0);
                self.flight.child(
                    now,
                    root,
                    "bank_rtt",
                    Lazy(Endpoint::Isp(isp.0)),
                    Lazy(format_args!("req={req}; {}", side.label())),
                )
            });
            self.dispatch(scheduler, Endpoint::Isp(isp.0), Endpoint::Bank, msg, None);
        }
    }

    /// §5 acknowledgment: when a *paid list post* lands, the receiving
    /// ISP automatically returns the e-penny to the distributor with an
    /// `Ack` message — software-processed, never shown to the human.
    /// `parent` is the delivered message's lifecycle span: the ack (and
    /// everything it causes) traces as its child.
    fn maybe_acknowledge(
        &mut self,
        scheduler: &mut Scheduler<'_, Event>,
        email: &EmailMsg,
        parent: Option<SpanCtx>,
    ) {
        if email.kind != MailKind::ListPost || !email.paid {
            return;
        }
        let Some(index) = self.lists.iter().position(|l| l.distributor == email.from) else {
            return;
        };
        let ack_prob = self.lists[index].ack_prob;
        if self.net_faults.bernoulli(ack_prob) {
            // Arm the acking ISP's refund context with the delivered
            // post's attestation nonce: the ack it is about to send
            // gets signed with `refund_of = Some(nonce)`, which the
            // distributor's ISP verifies (and replay-checks) before
            // returning the e-penny.
            let acker = IspId(email.to.isp);
            if self.config.attestations && self.config.is_compliant(acker) {
                let refund = email.attestation.as_ref().map(|a| a.nonce);
                self.isps[acker.index()].set_refund_ctx(refund);
            }
            self.process_send(
                scheduler,
                email.to,
                email.from,
                MailKind::Ack,
                SendCause::Ack(parent),
            );
        }
    }

    /// Puts a message on the network with the configured latency, after
    /// consulting the fault injector (the configured `zmail-fault` plan,
    /// rolled on the world's shared fault sampler).
    fn dispatch(
        &mut self,
        scheduler: &mut Scheduler<'_, Event>,
        from: Endpoint,
        to: Endpoint,
        mut msg: NetMsg,
        lifecycle: Option<SpanCtx>,
    ) {
        let now = scheduler.now();
        // The adversary's wire tap runs before the channel-fault verdict,
        // and what it emits goes straight onto the delivery queue: no
        // verdict (the adversary controls its own wire) and no trace
        // context (counterfeits have no legitimate lifecycle).
        if let (Some(engine), Endpoint::Isp(origin), NetMsg::Email(email)) =
            (self.adversary.as_mut(), from, &mut msg)
        {
            for (class, forged, delay) in engine.tap(&self.config, now, origin, email) {
                // A replayed ack is a second credit claim on one debit,
                // exactly like a network duplicate; any other counterfeit
                // has no debit at all and counts only if it lands.
                if class == AttackClass::ReplayAck {
                    self.ledger.duplicated += 1;
                }
                let (to, msg) = (Endpoint::Isp(forged.to.isp), NetMsg::Email(forged));
                self.put_on_wire(scheduler, delay, from, to, msg, None);
            }
        }
        // An ISP-originated exchange arms a retransmission check —
        // before the fault decision, because a lost *request* is exactly
        // the case retransmission must cover.
        if let (Endpoint::Isp(isp), NetMsg::Exchange { .. }, Some(after)) =
            (from, &msg, self.config.bank_retry_after)
        {
            let check_at = self.config.net_latency + after;
            scheduler.after(check_at, Event::BankRetry(IspId(isp)));
        }
        let class = msg_class(&msg);
        let pennies = msg.pennies_in_flight();
        let verdict = self
            .faults
            .decide(&mut self.net_faults, now, from, to, class, pennies);
        match verdict {
            Verdict::Drop(_) => {
                match class {
                    // A lost paid email destroys its e-penny: the sender was
                    // debited, the receiver is never credited.
                    MsgClass::Email => {
                        self.report.emails_lost += 1;
                        self.ledger.lost += pennies;
                    }
                    // A lost exchange message strands value at the bank: a
                    // lost grant was issued but never pooled (+audit), a lost
                    // retirement is still pooled (−audit).
                    MsgClass::Bank => {
                        self.report.bank_messages_lost += 1;
                        self.ledger.stranded += pennies;
                    }
                    // Snapshot traffic carries no value; losing it stalls the
                    // billing round (there is no retry path in the paper).
                    MsgClass::Snapshot => {
                        self.report.snapshot_messages_lost += 1;
                    }
                }
                self.close(lifecycle, "lost=network", SpanStatus::Dropped);
            }
            Verdict::Deliver {
                copies,
                extra_delay,
            } => {
                let latency = self.config.net_latency + extra_delay;
                // One delivery span covers the whole wire hop (all copies
                // share it; the first arrival closes it, later closes
                // no-op), parented under the send's lifecycle span.
                let ctx = lifecycle.and_then(|root| {
                    self.flight
                        .child(now.as_millis(), root, "delivery", Lazy(to), "")
                        .map(|delivery| EmailTrace {
                            lifecycle: root,
                            delivery,
                        })
                });
                // Extra copies go first, preserving the legacy
                // duplicate-before-original arrival order under the
                // queue's FIFO tie-breaking.
                for _ in 1..copies {
                    self.report.emails_duplicated += 1;
                    self.ledger.duplicated += pennies;
                    self.put_on_wire(scheduler, latency, from, to, msg.clone(), ctx);
                }
                self.put_on_wire(scheduler, latency, from, to, msg, ctx);
            }
        }
    }

    /// Schedules `msg`'s arrival at `to` after `latency`; whatever value
    /// it carries is in flight until [`ZmailWorld::handle_delivery`].
    fn put_on_wire(
        &mut self,
        scheduler: &mut Scheduler<'_, Event>,
        latency: SimDuration,
        from: Endpoint,
        to: Endpoint,
        msg: NetMsg,
        ctx: Option<EmailTrace>,
    ) {
        self.ledger.in_flight += msg.pennies_in_flight();
        self.report.network_messages += 1;
        scheduler.after(latency, Event::Deliver { from, to, msg, ctx });
    }

    fn handle_delivery(
        &mut self,
        scheduler: &mut Scheduler<'_, Event>,
        from: Endpoint,
        to: Endpoint,
        msg: NetMsg,
        ctx: Option<EmailTrace>,
    ) {
        let now = scheduler.now().as_millis();
        if let Some(t) = ctx {
            // First arrival closes the wire-hop span; duplicate copies
            // sharing it close as no-ops.
            self.flight.end(now, t.delivery);
        }
        let in_flight = msg.pennies_in_flight();
        self.ledger.in_flight -= in_flight;
        match (to, msg) {
            (Endpoint::Isp(j), NetMsg::Email(email)) => {
                let Endpoint::Isp(origin) = from else {
                    panic!("email from the bank is not part of the protocol");
                };
                let (origin, j) = (IspId(origin), IspId(j));
                let lifecycle = ctx.map(|t| t.lifecycle);
                if !self.config.is_compliant(j) {
                    // Non-compliant receivers keep no ledger; mail lands.
                    self.delivered(email.kind, false);
                    self.close(lifecycle, "", SpanStatus::Ok);
                    return;
                }
                self.recorder.write(CLASS_ISP, isp_key(j.0));
                match self.isps[j.index()].receive_email(origin, &email) {
                    Delivery::Delivered => {
                        // A counterfeit that *landed* shifted value: the
                        // receiver credited a payment the sender never
                        // made. Record the expected §4.4 pair-sum drift
                        // so the consistency audit (not this harness)
                        // is what convicts the pair.
                        let engine = self.adversary.as_mut();
                        if engine.and_then(|e| e.landed(j.0, &email)).is_some() {
                            self.drift(origin, j, -1);
                        }
                        self.delivered(email.kind, email.paid);
                        if lifecycle.is_some() {
                            self.apply_ctx = lifecycle;
                        }
                        self.maybe_acknowledge(scheduler, &email, lifecycle);
                        self.close(lifecycle, "", SpanStatus::Ok);
                    }
                    Delivery::Refused(cause) => {
                        self.report.refused_deliveries += 1;
                        self.dropped(email.kind);
                        // What a refusal does to the books depends on
                        // whose message it was.
                        let engine = self.adversary.as_mut();
                        match (AdversaryEngine::refused(engine, j.0, &email, cause), cause) {
                            // The farmer's copy of an ack: refusing it
                            // destroys the duplicate claim counted at the
                            // tap; the original settled the pair.
                            (Some(AttackClass::ReplayAck), _) => self.ledger.lost += 1,
                            // A *real* payment — its signature stripped, or
                            // the network's duplicate of one caught by the
                            // nonce set. The debited e-penny is destroyed
                            // (cancelling any duplication credit in the
                            // conservation equation), and the §4.4 pair-sum
                            // prediction shifts by +1: debited, never
                            // credited here — for a duplicate, cancelling
                            // the injector's predicted −1.
                            (
                                None | Some(AttackClass::Strip),
                                RefusalCause::MissingAttestation | RefusalCause::ReplayedNonce,
                            ) => {
                                self.ledger.lost += 1;
                                self.drift(origin, j, 1);
                            }
                            // A counterfeit turned away carried no real
                            // value: nothing was debited, and its phantom
                            // e-penny left the wire above.
                            _ => {}
                        }
                        if let Some(ctx) = lifecycle {
                            self.flight
                                .annotate(ctx, Lazy(format_args!("refused={cause}")));
                        }
                        self.close(lifecycle, "", SpanStatus::Dropped);
                    }
                    _ => {
                        self.dropped(email.kind);
                        self.close(lifecycle, "dropped=filter", SpanStatus::Dropped);
                    }
                }
            }
            (
                Endpoint::Isp(j),
                NetMsg::ExchangeReply {
                    side,
                    envelope,
                    audit,
                    replayed,
                },
            ) => {
                self.recorder.write(CLASS_ISP, isp_key(j));
                match self.isps[j as usize].handle_exchange_reply(side, &envelope) {
                    // Reply accepted: the round trip is over.
                    Ok(true) => {
                        if let Some(c) = self.bank_spans[j as usize][side.index()].take() {
                            self.flight.end(now, c);
                        }
                        if replayed {
                            // The value this cached reply carries was
                            // counted stranded when the original reply
                            // was lost; the pool has now moved after all.
                            self.ledger.stranded -= side.sign() * audit;
                        }
                    }
                    // Stale: ignored by the ISP, but the bank has issued
                    // or retired the value this reply carried — it is
                    // stranded like a lost reply's (a replayed copy
                    // carries none).
                    Ok(false) => self.ledger.stranded += in_flight,
                    // Forged reply: restore the audit counter we removed
                    // (replayed replies carry none).
                    Err(_) => self.ledger.in_flight += in_flight,
                }
            }
            (Endpoint::Isp(j), NetMsg::SnapshotRequest { envelope }) => {
                self.recorder.write(CLASS_ISP, isp_key(j));
                if self.isps[j as usize]
                    .handle_snapshot_request(&envelope)
                    .unwrap_or(false)
                {
                    let timeout = Event::SnapshotTimeout(IspId(j));
                    scheduler.after(self.config.snapshot_timeout, timeout);
                }
            }
            (Endpoint::Bank, NetMsg::Exchange { side, envelope, .. }) => {
                let Endpoint::Isp(g) = from else {
                    panic!("{} must come from an ISP", side.label());
                };
                self.recorder.write(CLASS_BANK, BANK_KEY);
                if let Ok(reply) = self.banks.handle_exchange(side, IspId(g), &envelope) {
                    self.dispatch(scheduler, Endpoint::Bank, from, reply, None);
                }
            }
            (
                Endpoint::Bank,
                NetMsg::SnapshotReply {
                    from: isp,
                    envelope,
                },
            ) => {
                self.recorder.write(CLASS_BANK, BANK_KEY);
                if let Ok(Some(round)) = self.banks.handle_snapshot_reply(isp, &envelope) {
                    CoreMetrics::get().snapshot_rounds.inc();
                    self.report
                        .consistency_reports
                        .push((scheduler.now(), round.consistency));
                    if !round.settlements.is_empty() {
                        self.report
                            .settlements
                            .push((scheduler.now(), round.settlements));
                    }
                }
            }
            (node, msg) => {
                panic!("message {} misrouted to {node:?}", msg.label());
            }
        }
    }

    /// Appends every record the ISPs and banks journalled during this
    /// event to the durable store and commits them: under `.durable()`
    /// one group commit per event and shard, so recovered books always
    /// land on an event boundary (a smaller explicit `batch_records`
    /// commits earlier as well, and finds less left to flush here).
    fn persist_journals(&mut self, now: SimTime) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let mut records = 0u64;
        for isp in &mut self.isps {
            for rec in isp.drain_journal() {
                store.append(&rec);
                records += 1;
            }
        }
        for rec in self.banks.drain_journals() {
            store.append(&rec);
            records += 1;
        }
        store.commit_all();
        // The group-commit attributes to whichever traced send this
        // event worked on behalf of. Zero sim-duration by design: the
        // sim clock does not advance inside an event; the wall cost of
        // the fsync is covered by the store.* metrics.
        if records > 0 {
            if let Some(parent) = self.apply_ctx {
                let ms = now.as_millis();
                if let Some(w) = self.flight.child(
                    ms,
                    parent,
                    "wal_commit",
                    "wal",
                    Lazy(format_args!("records={records}")),
                ) {
                    self.flight.end(ms, w);
                }
            }
        }
    }

    /// Closes lifecycle roots queued during this event — deferred past
    /// [`ZmailWorld::persist_journals`] so the `wal_commit` child can
    /// still attach to an open parent.
    fn flush_lifecycle_closes(&mut self, now: SimTime) {
        let ms = now.as_millis();
        for (ctx, status) in std::mem::take(&mut self.pending_close) {
            self.flight.end_with(ms, ctx, status);
        }
    }

    /// Restarts a crashed ISP **from the durable store**: replays the
    /// latest valid checkpoint plus the WAL tail and installs the
    /// recovered books, discarding whatever the process held in memory.
    /// Volatile session state (outstanding nonces, freeze flags, buffered
    /// sends) stays as-is — the protocol's own retransmission machinery
    /// rebuilds it, exactly as after a warm restart.
    fn crash_restart(&mut self, now: SimTime, isp: IspId) {
        // Truncate every span open on the crashed node: they close with
        // `crashed` status rather than leaking. Stale entries left in
        // `queue_spans`/`bank_spans` are harmless — operations on closed
        // spans no-op, and children of closed parents are never minted.
        let node = Lazy(Endpoint::Isp(isp.0));
        self.flight
            .close_node(now.as_millis(), node, SpanStatus::Crashed);
        let Some(store) = self.store.as_ref() else {
            return;
        };
        self.recorder.write(CLASS_ISP, isp_key(isp.0));
        let (books, recovery) = store.simulate_recovery();
        let recovered = &books.isps[isp.index()];
        let diverged = recovered != self.isps[isp.index()].books();
        self.isps[isp.index()].restore_books(recovered);
        self.report.recoveries.push(RecoveryEvent {
            at: now,
            isp,
            checkpoint_seq: recovery.checkpoint_seq(),
            replayed: recovery.replayed_records(),
            diverged,
        });
    }
}

impl World for ZmailWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, scheduler: &mut Scheduler<'_, Event>) {
        // Serial path = stage + apply, so the staged digest fold (and
        // hence the whole `RunReport`) is byte-identical to the
        // tick-parallel path at any thread count.
        let effect = self.stage(now, &event);
        self.apply(now, event, effect, scheduler);
    }

    fn event_label(event: &Event) -> &'static str {
        match event {
            Event::Workload(_) => "workload",
            // Deliveries are the parallel-staged digest events; split
            // the label by traffic class so telemetry and racecheck
            // findings name the actual wire protocol involved.
            Event::Deliver { msg, .. } => match msg_class(msg) {
                MsgClass::Email => "deliver_email",
                MsgClass::Bank => "deliver_bank",
                MsgClass::Snapshot => "deliver_snapshot",
            },
            Event::DayEnd => "day_end",
            Event::BillingKickoff => "billing_kickoff",
            Event::SnapshotTimeout(_) => "snapshot_timeout",
            Event::ListPost(_) => "list_post",
            Event::BankRetry(_) => "bank_retry",
            Event::CrashRestart(_) => "crash_restart",
        }
    }
}

impl ParallelWorld for ZmailWorld {
    /// The staged per-event digest: [`NetMsg::digest`] for deliveries,
    /// [`trace_digest`] for workload sends, zero for periodic events.
    type Effect = u64;

    /// The exact mutable-state footprint of each event, developed under
    /// the racecheck contract (see `crates/sim/README.md` for the
    /// domain definition). Keys: [`isp_key`] per ISP, [`BANK_KEY`] for
    /// the bank federation. Report counters, e-penny audit tallies,
    /// samplers, the fault injector, and the durable store are serial
    /// by construction (only ever touched in `apply`, never observed by
    /// a `stage`) and therefore outside the domain.
    fn footprint(&self, event: &Event, keys: &mut Vec<u64>) {
        match event {
            Event::Workload(index) => {
                // Stage reads only the immutable trace; apply mutates
                // the *sender's* ISP (debit, buffer, topup, bank pump —
                // and for local delivery the credit lands on the same
                // ISP; cross-ISP credit happens in the receiver's own
                // Deliver event). Non-compliant senders keep no ledger:
                // their apply touches nothing in the domain.
                let sender = IspId(self.trace[*index].from.isp);
                if self.config.is_compliant(sender) {
                    keys.push(isp_key(sender.0));
                }
            }
            Event::Deliver { to, msg, .. } => match *to {
                Endpoint::Isp(j) => {
                    // Email into a non-compliant ISP only bumps report
                    // counters; everything else mutates the receiver.
                    let ledgerless =
                        matches!(msg, NetMsg::Email(_)) && !self.config.is_compliant(IspId(j));
                    if !ledgerless {
                        keys.push(isp_key(j));
                    }
                }
                Endpoint::Bank => keys.push(BANK_KEY),
            },
            Event::DayEnd => keys.extend((0..self.config.isps).map(isp_key)),
            Event::BillingKickoff => keys.push(BANK_KEY),
            Event::SnapshotTimeout(isp) | Event::BankRetry(isp) | Event::CrashRestart(isp) => {
                keys.push(isp_key(isp.0));
            }
            Event::ListPost(index) => {
                let sender = IspId(self.lists[*index].distributor.isp);
                if self.config.is_compliant(sender) {
                    keys.push(isp_key(sender.0));
                }
            }
        }
    }

    fn stage(&self, _now: SimTime, event: &Event) -> u64 {
        match event {
            Event::Workload(index) => trace_digest(&self.trace[*index]),
            Event::Deliver { msg, .. } => msg.digest(),
            _ => 0,
        }
    }

    fn apply(
        &mut self,
        now: SimTime,
        event: Event,
        effect: u64,
        scheduler: &mut Scheduler<'_, Event>,
    ) {
        self.report.digest_checksum = self.report.digest_checksum.wrapping_add(effect);
        self.apply_ctx = None;
        match event {
            Event::Workload(index) => {
                if index + 1 < self.trace.len() {
                    scheduler.at(self.trace[index + 1].at, Event::Workload(index + 1));
                }
                let SendEvent { from, to, kind, .. } = self.trace[index];
                self.process_send(scheduler, from, to, kind, SendCause::Fresh);
            }
            Event::Deliver { from, to, msg, ctx } => {
                self.handle_delivery(scheduler, from, to, msg, ctx);
            }
            Event::DayEnd => {
                for i in 0..self.config.isps {
                    self.recorder.write(CLASS_ISP, isp_key(i));
                }
                for isp in &mut self.isps {
                    isp.reset_daily();
                }
                let next = now.next_day_boundary();
                if next <= self.horizon {
                    scheduler.at(next, Event::DayEnd);
                }
            }
            Event::BillingKickoff => {
                self.recorder.read(CLASS_BANK, BANK_KEY);
                if !self.banks.snapshot_in_progress() {
                    self.recorder.write(CLASS_BANK, BANK_KEY);
                    let requests = self.banks.start_snapshot();
                    for (isp, msg) in requests {
                        self.dispatch(scheduler, Endpoint::Bank, Endpoint::Isp(isp.0), msg, None);
                    }
                }
                let next = now + self.config.billing_period;
                if next <= self.horizon {
                    scheduler.at(next, Event::BillingKickoff);
                }
            }
            Event::SnapshotTimeout(isp) => {
                self.recorder.write(CLASS_ISP, isp_key(isp.0));
                let (reply, drained) = self.isps[isp.index()].finish_snapshot();
                self.dispatch(scheduler, Endpoint::Isp(isp.0), Endpoint::Bank, reply, None);
                for (sender, to, kind) in drained {
                    // The ISP's pending buffer is FIFO and `queue_spans`
                    // mirrors it entry-for-entry, so popping the front
                    // recovers this send's queue span and lifecycle root.
                    let entry = self.queue_spans[isp.index()].pop_front().flatten();
                    let lifecycle = entry.map(|(root, q)| {
                        self.flight.end(now.as_millis(), q);
                        root
                    });
                    self.process_send(
                        scheduler,
                        UserAddr::new(isp.0, sender),
                        to,
                        kind,
                        SendCause::Resumed(lifecycle),
                    );
                }
            }
            Event::BankRetry(isp) => {
                // The retry probe reads the ISP's outstanding-exchange
                // state; issuing a retransmission mutates it (fresh
                // nonce or idempotent resend bookkeeping).
                self.recorder.read(CLASS_ISP, isp_key(isp.0));
                for side in Exchange::BOTH {
                    let Some(msg) = self.isps[isp.index()].retry_exchange(side) else {
                        continue;
                    };
                    self.recorder.write(CLASS_ISP, isp_key(isp.0));
                    if let Some(c) = self.bank_spans[isp.index()][side.index()] {
                        self.flight.annotate(c, "retry");
                    }
                    self.dispatch(scheduler, Endpoint::Isp(isp.0), Endpoint::Bank, msg, None);
                }
            }
            Event::ListPost(index) => {
                let list = self.lists[index].clone();
                for subscriber in list.subscribers {
                    self.process_send(
                        scheduler,
                        list.distributor,
                        subscriber,
                        MailKind::ListPost,
                        SendCause::Fresh,
                    );
                }
            }
            Event::CrashRestart(isp) => {
                self.crash_restart(now, isp);
            }
        }
        self.persist_journals(now);
        self.flush_lifecycle_closes(now);
    }
}

impl RecordedWorld for ZmailWorld {
    fn recorded_stage(&self, now: SimTime, event: &Event, _rec: &mut AccessRecorder) -> u64 {
        // Stage phases read only immutable run inputs (the workload
        // trace, the message being delivered) — nothing in the mutable
        // footprint domain — so there is nothing to record. SIM001
        // holds vacuously, which is exactly what makes every batch
        // selection safe for this world.
        self.stage(now, event)
    }

    fn recorded_apply(
        &mut self,
        now: SimTime,
        event: Event,
        effect: u64,
        scheduler: &mut Scheduler<'_, Event>,
        rec: &mut AccessRecorder,
    ) {
        // Swap the armed recorder in so every instrumented mutation
        // site above reports through it, then hand it back.
        std::mem::swap(&mut self.recorder, rec);
        self.apply(now, event, effect, scheduler);
        std::mem::swap(&mut self.recorder, rec);
    }
}

/// The runnable Zmail deployment.
///
/// The world always sits inside a [`CheckedWorld`] adapter; disarmed
/// (the default) it is a transparent passthrough costing one branch per
/// event, and [`ZmailSystem::enable_racecheck`] switches the footprint
/// race detector on for development and CI gating.
pub struct ZmailSystem {
    sim: Simulation<CheckedWorld<ZmailWorld>>,
}

impl ZmailSystem {
    /// The bare world behind the racecheck adapter.
    fn world(&self) -> &ZmailWorld {
        self.sim.world().inner()
    }

    /// Mutable access to the bare world behind the racecheck adapter.
    fn world_mut(&mut self) -> &mut ZmailWorld {
        self.sim.world_mut().inner_mut()
    }

    /// Builds the deployment: one [`Isp`] per slot and a bank federation
    /// (a single central bank unless `config.banks > 1`), deterministic
    /// from `seed`.
    pub fn new(config: ZmailConfig, seed: u64) -> Self {
        config.validate();
        let banks = Federation::new(&config, config.banks, seed);
        let mut isps: Vec<Isp> = (0..config.isps)
            .map(|i| {
                Isp::new(
                    IspId(i),
                    &config,
                    banks.public_key_for(IspId(i)),
                    seed ^ (u64::from(i) << 17),
                )
            })
            .collect();
        // With attestations on, mint one signing keypair per ISP and
        // publish every public key to every ISP (the paper's bank-run
        // key directory, modelled as pre-distributed). Deterministic
        // from the run seed, independent of every other stream.
        let mut attest_keys: Vec<PrivateKey> = Vec::new();
        if config.attestations {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xA77E_5EED);
            let pairs: Vec<KeyPair> = (0..config.isps)
                .map(|_| KeyPair::generate(&mut rng))
                .collect();
            let publics: Vec<PublicKey> = pairs.iter().map(|p| *p.public()).collect();
            attest_keys = pairs.iter().map(|p| *p.private()).collect();
            for (isp, pair) in isps.iter_mut().zip(&pairs) {
                isp.install_attestation_keys(*pair.private(), publics.clone());
            }
        }
        // Partition the plan: adversary clauses are interpreted by the
        // world's own engine; everything else goes to the channel-level
        // injector (which treats unknown-to-it clauses as inert anyway,
        // but a clean split keeps the accounting honest).
        let adversary = AdversaryEngine::from_plan(&config, seed, attest_keys);
        let faults = FaultInjector::new(config.faults.clone(), config.net_latency);
        // With durability on, open the ledger store over the bootstrap
        // books and arm a recovery restart at the close of every crash
        // window (without it, crashes are warm restarts: memory survives).
        let mut crash_restarts = Vec::new();
        let store = config.durability.map(|durability| {
            for fault in &config.faults.faults {
                if let Fault::Crash(crash) = fault {
                    crash_restarts.push((crash.at + crash.restart_after, IspId(crash.isp)));
                }
            }
            let bootstrap = Books {
                isps: isps.iter().map(|isp| isp.books().clone()).collect(),
                banks: banks.bank_books(),
            };
            let storages = (0..durability.shards.max(1))
                .map(|_| MemStorage::new())
                .collect();
            let (store, _) = ShardedLedgerStore::open(storages, durability.store, bootstrap);
            store
        });
        let isp_count = config.isps as usize;
        let world = ZmailWorld {
            config,
            isps,
            banks,
            trace: Vec::new(),
            horizon: SimTime::ZERO,
            ledger: FlightLedger::default(),
            attest_pair_drift: BTreeMap::new(),
            net_faults: zmail_sim::Sampler::new(seed ^ 0xFA17_FA17),
            faults,
            lists: Vec::new(),
            report: RunReport::default(),
            store,
            recorder: AccessRecorder::disabled(),
            flight: FlightRecorder::disabled(1),
            apply_ctx: None,
            pending_close: Vec::new(),
            queue_spans: vec![VecDeque::new(); isp_count],
            bank_spans: vec![[None, None]; isp_count],
            adversary,
        };
        let mut system = ZmailSystem {
            sim: Simulation::new(CheckedWorld::new(world)),
        };
        for (at, isp) in crash_restarts {
            system.sim.schedule(at, Event::CrashRestart(isp));
        }
        system
    }

    /// Attaches a telemetry sink to the underlying engine: events are
    /// counted and timed per type (`workload`, `deliver`, `day_end`, …).
    pub fn attach_telemetry(&mut self, telemetry: zmail_sim::SimTelemetry) {
        self.sim.attach_telemetry(telemetry);
    }

    /// Installs a causal flight recorder on the world. Every message
    /// submission mints a [`zmail_obs::TraceId`] (sampled `1/N` by
    /// trace-id hash); sampled lifecycles grow parent/child spans for
    /// queue wait, bank round trips, WAL group-commits, wire hops, and
    /// §5 acks, all stamped with the **sim clock** — the span stream is
    /// a pure function of plan + seed at any thread count. The caller
    /// keeps a clone to `finalize` and `drain` after the run.
    pub fn attach_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.world_mut().flight = recorder;
    }

    /// Installs `trace` on the world and schedules the workload driver
    /// plus the daily/billing periodic events across its span. Shared
    /// preamble of [`ZmailSystem::run_trace`] and
    /// [`ZmailSystem::run_trace_parallel`].
    fn seed_trace(&mut self, trace: &[SendEvent]) {
        let start = self.sim.now();
        let world = self.world_mut();
        world.trace = trace.to_vec();
        let horizon = trace.last().map_or(start, |e| e.at);
        world.horizon = horizon;
        if !trace.is_empty() {
            let first_at = trace[0].at.max(start);
            self.sim.schedule(first_at, Event::Workload(0));
            // Daily resets and billing kickoffs across the trace span.
            let first_day = start.next_day_boundary();
            if first_day <= horizon {
                self.sim.schedule(first_day, Event::DayEnd);
            }
            let billing = self.world().config.billing_period;
            let first_billing = start + billing;
            if first_billing <= horizon {
                self.sim.schedule(first_billing, Event::BillingKickoff);
            }
        }
    }

    /// Runs a workload trace to completion (including network drain and any
    /// pending snapshot), returning the cumulative report.
    ///
    /// May be called repeatedly; time continues from the previous run.
    pub fn run_trace(&mut self, trace: &[SendEvent]) -> RunReport {
        self.seed_trace(trace);
        self.sim.run_to_completion();
        self.report().clone()
    }

    /// Runs a workload trace like [`ZmailSystem::run_trace`], but on the
    /// tick-parallel engine path: within each tick, footprint-independent
    /// events' stage phases (message digests) execute on up to `threads`
    /// worker threads (`0` = all cores), and all applies run serially in
    /// FIFO order. The resulting [`RunReport`] — including
    /// [`RunReport::digest_checksum`] — is byte-identical to a serial run
    /// of the same seed at any thread count.
    pub fn run_trace_parallel(&mut self, trace: &[SendEvent], threads: usize) -> RunReport {
        self.seed_trace(trace);
        self.sim.run_parallel_to_completion(threads);
        self.report().clone()
    }

    /// Arms the footprint race detector: every subsequent event is run
    /// through the checked path, recording actual key accesses and
    /// diffing them against the declared [`ParallelWorld::footprint`]s.
    /// Findings accumulate in [`ZmailSystem::racecheck_report`].
    pub fn enable_racecheck(&mut self) {
        self.sim.world_mut().arm();
    }

    /// The race detector's findings so far (empty unless
    /// [`ZmailSystem::enable_racecheck`] was called before running).
    pub fn racecheck_report(&self) -> RacecheckReport {
        self.sim.world().report()
    }

    /// Triggers one credit snapshot round right now and drains it.
    ///
    /// Returns the resulting consistency report.
    ///
    /// # Panics
    ///
    /// Panics if a round is already in progress.
    pub fn run_snapshot_round(&mut self) -> ConsistencyReport {
        let before = self.report().consistency_reports.len();
        self.sim.schedule(self.sim.now(), Event::BillingKickoff);
        self.sim.run_to_completion();
        self.report()
            .consistency_reports
            .get(before)
            .map(|(_, r)| r.clone())
            .expect("snapshot round should complete during drain")
    }

    /// The cumulative run report.
    pub fn report(&self) -> &RunReport {
        &self.world().report
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ZmailConfig {
        &self.world().config
    }

    /// One ISP process.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn isp(&self, id: IspId) -> &Isp {
        &self.world().isps[id.index()]
    }

    /// Mutable ISP access, for experiment setup (limits, grants).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn isp_mut(&mut self, id: IspId) -> &mut Isp {
        &mut self.world_mut().isps[id.index()]
    }

    /// The (first) bank process — the central bank when `banks == 1`.
    pub fn bank(&self) -> &Bank {
        self.world().banks.bank(0)
    }

    /// The bank federation (a single-member federation in the central
    /// case).
    pub fn federation(&self) -> &Federation {
        &self.world().banks
    }

    /// One user's e-penny balance (compliant ISPs only).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn user_balance(&self, addr: UserAddr) -> EPennies {
        EPennies(self.isp(IspId(addr.isp)).user(addr.user).balance)
    }

    /// E-pennies currently inside network messages.
    pub fn pennies_in_flight(&self) -> i64 {
        self.world().ledger.in_flight
    }

    /// Runs the conservation and sanity audit (see [`crate::invariants`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn audit(&self) -> Result<(), AuditError> {
        let world = self.world();
        invariants::audit_federated(&world.config, &world.isps, &world.banks, world.ledger)
    }

    /// Registers a mailing list on the deployment: posts from
    /// `distributor` fan out to `subscribers`, whose ISPs acknowledge
    /// (refunding the e-penny) with probability `ack_prob`. Returns the
    /// list handle for [`ZmailSystem::schedule_list_post`].
    ///
    /// # Panics
    ///
    /// Panics if `ack_prob` is outside `[0, 1]` or any address is out of
    /// range.
    pub fn register_mailing_list(
        &mut self,
        distributor: UserAddr,
        subscribers: Vec<UserAddr>,
        ack_prob: f64,
    ) -> usize {
        assert!((0.0..=1.0).contains(&ack_prob), "ack_prob must be in [0,1]");
        let config = &self.world().config;
        for addr in subscribers.iter().chain(std::iter::once(&distributor)) {
            assert!(
                addr.isp < config.isps && addr.user < config.users_per_isp,
                "address {addr} out of range"
            );
        }
        let lists = &mut self.world_mut().lists;
        lists.push(RegisteredList {
            distributor,
            subscribers,
            ack_prob,
        });
        lists.len() - 1
    }

    /// Schedules one post of list `handle` at time `at`. The post is
    /// distributed (and acknowledged) when the next `run_trace` or
    /// [`ZmailSystem::drain`] executes.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unknown or `at` is in the past.
    pub fn schedule_list_post(&mut self, at: SimTime, handle: usize) {
        assert!(handle < self.world().lists.len(), "unknown list handle");
        self.sim.schedule(at, Event::ListPost(handle));
    }

    /// Processes every pending event (deliveries, posts, snapshots) until
    /// the queue is empty. Returns the number of events handled.
    pub fn drain(&mut self) -> u64 {
        self.sim.run_to_completion()
    }

    /// E-pennies destroyed by network loss so far (see
    /// [`ZmailConfigBuilder::lossy_network`](crate::config::ZmailConfigBuilder::lossy_network)).
    pub fn pennies_lost(&self) -> i64 {
        self.world().ledger.lost
    }

    /// E-pennies counterfeited by network duplication so far.
    pub fn pennies_duplicated(&self) -> i64 {
        self.world().ledger.duplicated
    }

    /// E-pennies stranded at the bank by lost buy/sell replies so far.
    pub fn pennies_stranded(&self) -> i64 {
        self.world().ledger.stranded
    }

    /// The first ledger shard's engine, when the deployment was built
    /// with
    /// [`ZmailConfigBuilder::durable`](crate::config::ZmailConfigBuilder::durable)
    /// (or an explicit durability configuration). With the default
    /// single shard this is *the* store, same as before sharding; see
    /// [`ZmailSystem::sharded_store`] for the whole engine set.
    pub fn store(&self) -> Option<&LedgerStore<MemStorage>> {
        self.world().store.as_ref().map(|s| s.shard(0))
    }

    /// The full sharded ledger engine, when durability is configured.
    pub fn sharded_store(&self) -> Option<&ShardedLedgerStore<MemStorage>> {
        self.world().store.as_ref()
    }

    /// The "books survive a crash" audit: replays the durable store
    /// (latest valid checkpoint plus WAL tail) and checks the recovered
    /// books are byte-for-byte the live ones. `None` when durability is
    /// off, `Some(true)` when recovery reproduces the deployment's state.
    pub fn verify_durable_books(&self) -> Option<bool> {
        let world = self.world();
        let store = world.store.as_ref()?;
        let (books, _) = store.simulate_recovery();
        let live = world.isps.iter().map(Isp::books);
        Some(books.isps.iter().eq(live) && books.banks == world.banks.bank_books())
    }

    /// Deterministic tallies of every fault the `zmail-fault` injector
    /// applied to this deployment's traffic.
    pub fn fault_counters(&self) -> &FaultCounters {
        self.world().faults.counters()
    }

    /// The injector's e-penny damage ledger for emails between two ISPs
    /// (order irrelevant) — what pairwise `credit` sums may legitimately
    /// drift by under the configured faults.
    pub fn email_pair_ledger(&self, a: IspId, b: IspId) -> PairLedger {
        self.world().faults.email_pair_ledger(a.0, b.0)
    }

    /// The adversary engine's deterministic tallies: attacks attempted
    /// and attacks refused, by class. All zeros when the plan carries
    /// no [`Fault::Adversary`] clause.
    pub fn adversary_counters(&self) -> AdversaryCounters {
        self.world()
            .adversary
            .as_ref()
            .map(|e| e.counters)
            .unwrap_or_default()
    }

    /// Attestation-layer correction to the §4.4 pair-sum prediction
    /// (`credit_a[b] + credit_b[a]`) for the unordered pair `{a, b}`:
    /// +1 per refused real payment (stripped signature, or a duplicate
    /// copy the nonce set caught), −1 per accepted counterfeit. The
    /// scenario harness adds this to the injector's pair-ledger
    /// prediction so attested runs audit cleanly — and the
    /// billing-round consistency check must implicate exactly the
    /// pairs a counterfeit shifted.
    pub fn adversary_pair_drift(&self, a: IspId, b: IspId) -> i64 {
        self.world()
            .attest_pair_drift
            .get(&pair_key(a.0, b.0))
            .copied()
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for ZmailSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZmailSystem")
            .field("now", &self.sim.now())
            .field("isps", &self.world().isps.len())
            .field("delivered", &self.report().delivered_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheatMode, NonCompliantPolicy};
    use std::cell::Cell;
    use zmail_sim::workload::{Campaign, Infection, TrafficConfig, TrafficGenerator};
    use zmail_sim::{Sampler, SimDuration};

    thread_local! {
        /// While set on a test's thread, spelling out any span text
        /// ([`Lazy`]) panics.
        static NO_SPAN_TEXT: Cell<bool> = const { Cell::new(false) };
    }

    /// Called by every [`Lazy`] as it is formatted.
    pub(super) fn span_text_built() {
        assert!(
            !NO_SPAN_TEXT.get(),
            "span text built for a recorder that is off or not sampling the trace"
        );
    }

    fn traffic(isps: u32, users: u32, days: u64) -> TrafficConfig {
        TrafficConfig {
            isps,
            users_per_isp: users,
            horizon: SimDuration::from_days(days),
            personal_per_user_day: 5.0,
            ..TrafficConfig::default()
        }
    }

    fn run(config: ZmailConfig, traffic: TrafficConfig, seed: u64) -> (ZmailSystem, RunReport) {
        let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed));
        let mut system = ZmailSystem::new(config, seed);
        let report = system.run_trace(&trace);
        (system, report)
    }

    #[test]
    fn balanced_traffic_delivers_everything_paid() {
        let (system, report) = run(ZmailConfig::builder(2, 20).build(), traffic(2, 20, 2), 1);
        assert!(report.delivered_total() > 100);
        assert_eq!(report.delivered_total(), report.paid_deliveries);
        assert_eq!(report.unpaid_deliveries, 0);
        assert_eq!(report.dropped_total(), 0);
        system.audit().expect("conservation");
    }

    #[test]
    fn conservation_holds_across_configs() {
        for seed in [1u64, 2, 3] {
            let config = ZmailConfig::builder(3, 10).build();
            let (system, _) = run(config, traffic(3, 10, 3), seed);
            system
                .audit()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn spam_campaign_drains_spammer_balance() {
        let mut t = traffic(2, 10, 1);
        t.personal_per_user_day = 0.0;
        let spammer = UserAddr::new(0, 0);
        t.campaigns.push(Campaign {
            sender: spammer,
            start: SimTime::ZERO + SimDuration::from_hours(1),
            volume: 10_000,
            rate_per_sec: 5.0,
        });
        // High limit so the balance, not the limit, is the binding constraint.
        let config = ZmailConfig::builder(2, 10)
            .limit(1_000_000)
            .no_auto_topup()
            .build();
        let (system, report) = run(config, t, 2);
        // 100 e-pennies buys exactly 100 spam deliveries.
        assert_eq!(report.delivered(zmail_sim::MailKind::Spam), 100);
        assert!(report.bounced_balance > 0);
        assert_eq!(system.user_balance(spammer), EPennies::ZERO);
        system.audit().expect("conservation");
    }

    #[test]
    fn receivers_of_spam_get_paid() {
        let mut t = traffic(2, 5, 1);
        t.personal_per_user_day = 0.0;
        t.campaigns.push(Campaign {
            sender: UserAddr::new(0, 0),
            start: SimTime::ZERO,
            volume: 50,
            rate_per_sec: 1.0,
        });
        let config = ZmailConfig::builder(2, 5).no_auto_topup().build();
        let (system, report) = run(config, t, 3);
        assert_eq!(report.delivered(zmail_sim::MailKind::Spam), 50);
        // The windfall: everyone else's balance sum grew by what the
        // spammer lost.
        let spammer_balance = system.user_balance(UserAddr::new(0, 0));
        assert_eq!(spammer_balance, EPennies(50));
        let total: i64 = (0..2)
            .map(|i| system.isp(IspId(i)).total_user_balances().amount())
            .sum();
        assert_eq!(total, 10 * 100, "zero-sum: totals unchanged");
    }

    #[test]
    fn zombie_hits_limit_and_warns() {
        let mut t = traffic(2, 5, 1);
        t.personal_per_user_day = 0.0;
        let victim = UserAddr::new(0, 1);
        t.infections.push(Infection {
            victim,
            at: SimTime::ZERO + SimDuration::from_hours(2),
            rate_per_hour: 200.0,
            duration: SimDuration::from_hours(10),
        });
        let config = ZmailConfig::builder(2, 5).limit(50).build();
        let (system, report) = run(config, t, 4);
        assert!(report.bounced_limit > 0, "zombie should hit the cap");
        assert!(!report.limit_warnings.is_empty());
        assert_eq!(report.limit_warnings[0].user, victim);
        // The victim's liability is bounded by the limit.
        assert!(report.delivered(zmail_sim::MailKind::VirusSpam) <= 50);
        system.audit().expect("conservation");
    }

    #[test]
    fn noncompliant_mail_follows_policy() {
        let mut t = traffic(2, 5, 1);
        t.personal_per_user_day = 2.0;
        t.same_isp_affinity = 0.0; // force cross-ISP mail
        let config = ZmailConfig::builder(2, 5)
            .non_compliant(&[0])
            .non_compliant_policy(NonCompliantPolicy::Discard)
            .build();
        let (system, report) = run(config, t, 5);
        // Mail from isp0 (non-compliant) to isp1 is discarded; mail from
        // isp1 to isp0 is delivered unpaid (non-compliant receivers keep
        // no ledger and apply no policy).
        assert!(report.dropped_total() > 0);
        assert!(report.unpaid_deliveries > 0);
        // The only paid deliveries are isp1's same-ISP mail — there is no
        // compliant *pair* to pay across the wire.
        assert_eq!(
            report.paid_deliveries,
            system.isp(IspId(1)).stats().delivered_local
        );
    }

    #[test]
    fn billing_snapshot_completes_and_is_clean() {
        let config = ZmailConfig::builder(2, 10)
            .billing_period(SimDuration::from_days(1))
            .snapshot_timeout(SimDuration::from_mins(10))
            .build();
        let (system, report) = run(config, traffic(2, 10, 3), 6);
        assert!(
            !report.consistency_reports.is_empty(),
            "billing rounds should have fired"
        );
        for (_, r) in &report.consistency_reports {
            assert!(r.is_clean(), "honest ISPs flagged: {:?}", r.suspects);
        }
        system.audit().expect("conservation");
    }

    #[test]
    fn cheater_is_flagged_by_billing_round() {
        let config = ZmailConfig::builder(2, 10)
            .billing_period(SimDuration::from_days(1))
            .cheat(1, CheatMode::UnderReportSends { fraction: 1.0 })
            .build();
        let (_, report) = run(config, traffic(2, 10, 3), 7);
        assert!(!report.consistency_reports.is_empty());
        let flagged = report
            .consistency_reports
            .iter()
            .any(|(_, r)| r.implicates(IspId(1)));
        assert!(flagged, "cheating ISP escaped detection");
    }

    #[test]
    fn explicit_snapshot_round_runs() {
        let (mut system, _) = run(ZmailConfig::builder(2, 5).build(), traffic(2, 5, 1), 8);
        let report = system.run_snapshot_round();
        assert!(report.is_clean());
    }

    #[test]
    fn sends_during_freeze_are_buffered_then_flushed() {
        // Tiny snapshot timeout, traffic concentrated around the billing
        // instant, so some sends land in the freeze window.
        let config = ZmailConfig::builder(2, 10)
            .billing_period(SimDuration::from_hours(6))
            .snapshot_timeout(SimDuration::from_mins(30))
            .build();
        let mut t = traffic(2, 10, 1);
        t.personal_per_user_day = 200.0; // dense traffic
        let (system, report) = run(config, t, 9);
        assert!(report.buffered_sends > 0, "freeze window saw no traffic");
        // Everything still ends consistent.
        for (_, r) in &report.consistency_reports {
            assert!(r.is_clean());
        }
        system.audit().expect("conservation");
    }

    #[test]
    fn report_accumulates_across_runs() {
        let config = ZmailConfig::builder(2, 5).build();
        let gen = TrafficGenerator::new(traffic(2, 5, 1));
        let trace = gen.generate(&mut Sampler::new(10));
        let mut system = ZmailSystem::new(config, 10);
        let first = system.run_trace(&trace).delivered_total();
        // Second run: shift the trace into the future.
        let offset = system.now();
        let shifted: Vec<SendEvent> = trace
            .iter()
            .map(|e| SendEvent {
                at: offset + SimDuration::from_millis(e.at.as_millis() + 1),
                ..*e
            })
            .collect();
        let total = system.run_trace(&shifted).delivered_total();
        assert!(total > first, "second run should add deliveries");
        system.audit().expect("conservation");
    }

    #[test]
    fn integrated_mailing_list_refunds_distributor() {
        // §5 end-to-end through the real ledgers: 30 subscribers across
        // two ISPs, full ack rate — the distributor's balance is restored
        // and every subscriber nets zero.
        let config = ZmailConfig::builder(2, 16)
            .limit(1_000)
            .no_auto_topup()
            .build();
        let mut system = ZmailSystem::new(config, 44);
        let distributor = UserAddr::new(0, 0);
        let subscribers: Vec<UserAddr> = (1..16)
            .map(|u| UserAddr::new(0, u))
            .chain((0..15).map(|u| UserAddr::new(1, u)))
            .collect();
        let handle = system.register_mailing_list(distributor, subscribers.clone(), 1.0);
        system.schedule_list_post(system.now(), handle);
        system.drain();
        let report = system.report().clone();
        assert_eq!(report.delivered(MailKind::ListPost), 30);
        assert_eq!(report.delivered(MailKind::Ack), 30);
        assert_eq!(
            system.user_balance(distributor),
            EPennies(100),
            "fully refunded"
        );
        for sub in &subscribers {
            assert_eq!(system.user_balance(*sub), EPennies(100), "{sub} net zero");
        }
        system
            .audit()
            .expect("conservation through fanout and acks");
    }

    #[test]
    fn integrated_mailing_list_partial_acks_cost_the_distributor() {
        let config = ZmailConfig::builder(2, 26)
            .limit(1_000)
            .no_auto_topup()
            .build();
        let mut system = ZmailSystem::new(config, 45);
        let distributor = UserAddr::new(0, 0);
        let subscribers: Vec<UserAddr> = (0..25).map(|u| UserAddr::new(1, u)).collect();
        let handle = system.register_mailing_list(distributor, subscribers, 0.6);
        system.schedule_list_post(system.now(), handle);
        system.drain();
        let report = system.report().clone();
        let acks = report.delivered(MailKind::Ack);
        assert!(acks < 25, "some acks must be missing at 60%");
        let cost = 100 - system.user_balance(distributor).amount();
        assert_eq!(cost, 25 - acks as i64, "cost = unacknowledged copies");
        system.audit().unwrap();
    }

    #[test]
    fn mailing_list_acks_under_email_loss_stay_zero_sum() {
        // The §5 refund loop meets the fault injector: lost posts (or
        // lost acks) each destroy one e-penny, the distributor eats
        // exactly the un-refunded copies, and the extended audit still
        // balances to the penny.
        let config = ZmailConfig::builder(2, 26)
            .limit(1_000)
            .no_auto_topup()
            .faults(zmail_fault::FaultPlan::lossy_email(0.2, 0.0))
            .build();
        let mut system = ZmailSystem::new(config, 47);
        let distributor = UserAddr::new(0, 25);
        let subscribers: Vec<UserAddr> = (0..25).map(|u| UserAddr::new(1, u)).collect();
        let handle = system.register_mailing_list(distributor, subscribers, 1.0);
        system.schedule_list_post(system.now(), handle);
        system.drain();
        let report = system.report().clone();
        assert!(report.emails_lost > 0, "20% loss must eat some copies");
        let refunded = report.delivered(MailKind::Ack) as i64;
        let cost = 100 - system.user_balance(distributor).amount();
        assert_eq!(
            cost,
            25 - refunded,
            "cost = copies whose penny never returned"
        );
        assert_eq!(system.pennies_lost(), report.emails_lost as i64);
        system
            .audit()
            .expect("extended audit absorbs the destroyed pennies");
    }

    #[test]
    fn repeated_posts_and_limits_interact_safely() {
        // The distributor's own daily limit caps fanout: a 10-per-day
        // limit on a 20-subscriber list bounces half the copies.
        let config = ZmailConfig::builder(2, 21)
            .limit(10)
            .no_auto_topup()
            .build();
        let mut system = ZmailSystem::new(config, 46);
        let distributor = UserAddr::new(0, 20);
        let subscribers: Vec<UserAddr> = (0..20).map(|u| UserAddr::new(1, u)).collect();
        let handle = system.register_mailing_list(distributor, subscribers, 1.0);
        system.schedule_list_post(system.now(), handle);
        system.drain();
        let report = system.report().clone();
        assert_eq!(report.delivered(MailKind::ListPost), 10);
        assert_eq!(report.bounced_limit, 10);
        system.audit().unwrap();
    }

    #[test]
    fn lossy_network_destroys_pennies_but_audit_balances() {
        let config = ZmailConfig::builder(2, 10)
            .lossy_network(0.05, 0.0)
            .no_auto_topup()
            .build();
        let mut t = traffic(2, 10, 3);
        t.same_isp_affinity = 0.0; // maximize wire traffic
        let (system, report) = run(config, t, 21);
        assert!(report.emails_lost > 0, "5% loss should drop something");
        assert!(system.pennies_lost() > 0);
        // The audit accounts for the destroyed value explicitly.
        system.audit().expect("audit with loss ledger");
        // Without the ledger the books would be short by exactly that much.
        let total: i64 = (0..2)
            .map(|i| system.isp(IspId(i)).total_user_balances().amount())
            .sum();
        assert_eq!(total, 2 * 10 * 100 - system.pennies_lost());
    }

    #[test]
    fn duplication_counterfeits_pennies_but_audit_balances() {
        let config = ZmailConfig::builder(2, 10)
            .lossy_network(0.0, 0.05)
            .no_auto_topup()
            .build();
        let mut t = traffic(2, 10, 3);
        t.same_isp_affinity = 0.0;
        let (system, report) = run(config, t, 22);
        assert!(report.emails_duplicated > 0);
        assert!(system.pennies_duplicated() > 0);
        system.audit().expect("audit with duplication ledger");
        let total: i64 = (0..2)
            .map(|i| system.isp(IspId(i)).total_user_balances().amount())
            .sum();
        assert_eq!(total, 2 * 10 * 100 + system.pennies_duplicated());
    }

    #[test]
    fn loss_makes_honest_isps_suspects() {
        // A lost paid email leaves the sender's +1 unmatched: the billing
        // round accuses an honest pair. The paper assumes reliable
        // channels; this is what happens without them.
        let config = ZmailConfig::builder(2, 10)
            .lossy_network(0.05, 0.0)
            .billing_period(SimDuration::from_days(1))
            .build();
        let mut t = traffic(2, 10, 5);
        t.same_isp_affinity = 0.0;
        t.personal_per_user_day = 20.0;
        let (_, report) = run(config, t, 23);
        assert!(!report.consistency_reports.is_empty());
        let accused_rounds = report
            .consistency_reports
            .iter()
            .filter(|(_, r)| !r.is_clean())
            .count();
        assert!(
            accused_rounds > 0,
            "5% loss over dense traffic must break some round's sums"
        );
    }

    #[test]
    fn lost_bank_messages_wedge_the_pool_without_retry() {
        // Pool starts below minavail, so the very first activity triggers
        // a buy — which the (fully lossy) bank channel eats. Without
        // retransmission the exchange never completes: the paper gives no
        // recovery path, because the bank's replay guard rejects an
        // identical resend.
        let config = ZmailConfig::builder(2, 5)
            .avail_bounds(EPennies(1_000), EPennies(10_000), EPennies(500))
            .lossy_bank_channel(1.0, None)
            .build();
        let mut t = traffic(2, 5, 1);
        t.personal_per_user_day = 20.0;
        let (system, report) = run(config, t, 61);
        assert!(report.bank_messages_lost >= 1);
        assert!(
            system
                .isp(IspId(0))
                .exchange_request_id(Exchange::Buy)
                .is_some(),
            "the exchange must be permanently wedged"
        );
        assert_eq!(
            system.isp(IspId(0)).avail(),
            EPennies(500),
            "pool never refilled"
        );
        system
            .audit()
            .expect("nothing was actually granted: books balance");
    }

    #[test]
    fn fresh_nonce_retry_recovers_from_bank_loss() {
        let config = ZmailConfig::builder(2, 5)
            .avail_bounds(EPennies(1_000), EPennies(10_000), EPennies(500))
            .lossy_bank_channel(0.5, Some(SimDuration::from_secs(1)))
            .build();
        let mut t = traffic(2, 5, 2);
        t.personal_per_user_day = 20.0;
        let (system, report) = run(config, t, 62);
        assert!(report.bank_messages_lost >= 1, "loss must actually occur");
        // Recovery: both ISPs ended with their pools refilled.
        for i in 0..2 {
            assert!(
                system.isp(IspId(i)).avail() >= EPennies(1_000),
                "isp[{i}] pool should have recovered"
            );
            assert!(!system.isp(IspId(i)).exchange_outstanding());
        }
        let retries: u64 = (0..2)
            .map(|i| system.isp(IspId(i)).stats().bank_retries)
            .sum();
        assert!(retries >= 1, "recovery requires at least one retry");
        // The audit still balances — with the stranded ledger carrying any
        // double grants from replies that were lost after processing.
        system
            .audit()
            .expect("stranded ledger keeps the books exact");
    }

    #[test]
    fn federated_deployment_runs_through_the_full_harness() {
        // Three regional banks under the event loop: billing rounds span
        // regions, settlements are recorded, and the federated audit holds.
        let config = ZmailConfig::builder(6, 8)
            .banks(3)
            .limit(10_000)
            .billing_period(SimDuration::from_days(1))
            .build();
        let mut t = traffic(6, 8, 3);
        t.same_isp_affinity = 0.1;
        let (system, report) = run(config, t, 71);
        assert!(report.delivered_total() > 300);
        assert!(
            !report.consistency_reports.is_empty(),
            "federated billing rounds must complete"
        );
        for (_, round) in &report.consistency_reports {
            assert!(
                round.is_clean(),
                "honest federation flagged: {:?}",
                round.suspects
            );
        }
        // Cross-region traffic was imbalanced enough to settle something.
        assert!(!report.settlements.is_empty());
        for (_, settlement) in &report.settlements {
            let net: i64 = settlement.iter().map(|&(_, _, v)| v).sum();
            assert_eq!(net, 0, "settlement must net to zero");
        }
        system.audit().expect("federated conservation");
        assert_eq!(system.federation().bank_count(), 3);
    }

    #[test]
    fn federated_cheater_flagged_through_the_harness() {
        let config = ZmailConfig::builder(4, 8)
            .banks(2)
            .limit(10_000)
            .billing_period(SimDuration::from_days(1))
            .cheat(3, CheatMode::UnderReportSends { fraction: 1.0 })
            .build();
        let mut t = traffic(4, 8, 3);
        t.same_isp_affinity = 0.1;
        let (_, report) = run(config, t, 72);
        assert!(report
            .consistency_reports
            .iter()
            .any(|(_, r)| r.implicates(IspId(3))));
    }

    #[test]
    fn parallel_run_is_byte_identical_to_serial() {
        let trace = TrafficGenerator::new(traffic(3, 10, 2)).generate(&mut Sampler::new(19));
        let mut serial = ZmailSystem::new(ZmailConfig::builder(3, 10).build(), 19);
        let reference = serial.run_trace(&trace);
        assert_ne!(reference.digest_checksum, 0, "digests must fold in");
        for threads in [1usize, 2, 4, 8] {
            let mut system = ZmailSystem::new(ZmailConfig::builder(3, 10).build(), 19);
            let report = system.run_trace_parallel(&trace, threads);
            assert_eq!(report, reference, "threads={threads}");
            system.audit().expect("conservation on the parallel path");
        }
    }

    #[test]
    fn full_protocol_racecheck_is_clean() {
        // Billing rounds, lists, non-compliant ISPs, bank retries: drive
        // every event arm under the armed checker and demand zero
        // findings — the footprints are exact, not merely sound.
        let config = ZmailConfig::builder(3, 10)
            .billing_period(SimDuration::from_days(1))
            .non_compliant(&[2])
            .build();
        let mut t = traffic(3, 10, 3);
        t.same_isp_affinity = 0.3;
        let trace = TrafficGenerator::new(t).generate(&mut Sampler::new(29));
        for threads in [1usize, 4] {
            let mut system = ZmailSystem::new(config.clone(), 29);
            system.enable_racecheck();
            system.run_trace_parallel(&trace, threads);
            let report = system.racecheck_report();
            assert!(
                report.findings.is_empty(),
                "threads={threads}:\n{}",
                report.render()
            );
            assert!(report.events_checked > 500, "{}", report.events_checked);
        }
    }

    #[test]
    fn racecheck_catches_a_mutilated_footprint() {
        // Sanity of the gate itself: the checker must not be silent
        // because nothing is recorded. Disarmed runs record nothing;
        // armed runs over real traffic record ISP and bank writes, so a
        // footprint lie would have no place to hide. Verified here by
        // the armed run counting real events.
        let trace = TrafficGenerator::new(traffic(2, 8, 1)).generate(&mut Sampler::new(33));
        let mut system = ZmailSystem::new(ZmailConfig::builder(2, 8).build(), 33);
        system.enable_racecheck();
        system.run_trace(&trace);
        let checked = system.racecheck_report().events_checked;
        let mut disarmed = ZmailSystem::new(ZmailConfig::builder(2, 8).build(), 33);
        disarmed.run_trace(&trace);
        assert!(checked > 0);
        assert_eq!(disarmed.racecheck_report().events_checked, 0);
        assert_eq!(
            system.report().digest_checksum,
            disarmed.report().digest_checksum,
            "checking is observation, never behaviour"
        );
    }

    #[test]
    fn same_seed_reproducible() {
        let (_, a) = run(ZmailConfig::builder(2, 8).build(), traffic(2, 8, 2), 11);
        let (_, b) = run(ZmailConfig::builder(2, 8).build(), traffic(2, 8, 2), 11);
        assert_eq!(a, b);
    }

    #[test]
    fn idempotent_retry_recovers_without_stranding() {
        // Same fault load as `fresh_nonce_retry_recovers_from_bank_loss`,
        // but with idempotent request ids: the bank serves cached replies
        // for retransmissions, so no double grant is ever stranded.
        let config = ZmailConfig::builder(2, 5)
            .avail_bounds(EPennies(1_000), EPennies(10_000), EPennies(500))
            .lossy_bank_channel(0.5, Some(SimDuration::from_secs(1)))
            .idempotent_bank_ids(true)
            .build();
        let mut t = traffic(2, 5, 2);
        t.personal_per_user_day = 20.0;
        let (system, report) = run(config, t, 62);
        assert!(report.bank_messages_lost >= 1, "loss must actually occur");
        for i in 0..2 {
            assert!(
                system.isp(IspId(i)).avail() >= EPennies(1_000),
                "isp[{i}] pool should have recovered"
            );
            assert!(!system.isp(IspId(i)).exchange_outstanding());
        }
        let retries: u64 = (0..2)
            .map(|i| system.isp(IspId(i)).stats().idempotent_retries)
            .sum();
        assert!(retries >= 1, "recovery requires at least one retry");
        assert_eq!(
            system.pennies_stranded(),
            0,
            "idempotent request ids must strand nothing"
        );
        system.audit().expect("books balance exactly");
    }

    #[test]
    fn crash_recovery_restores_books_from_the_store() {
        let crash = zmail_fault::Crash {
            isp: 0,
            at: SimTime::ZERO + SimDuration::from_hours(6),
            restart_after: SimDuration::from_mins(30),
        };
        let config = ZmailConfig::builder(2, 8)
            .faults(zmail_fault::FaultPlan::none().with(Fault::Crash(crash)))
            .durable()
            .build();
        let (system, report) = run(config, traffic(2, 8, 1), 31);
        assert_eq!(report.recoveries.len(), 1, "one restart per crash window");
        let recovery = report.recoveries[0];
        assert_eq!(recovery.isp, IspId(0));
        assert!(
            !recovery.diverged,
            "recovered books must match the pre-crash books"
        );
        assert!(
            recovery.replayed > 0 || recovery.checkpoint_seq.is_some(),
            "recovery should have had journalled state to work from"
        );
        assert_eq!(
            system.verify_durable_books(),
            Some(true),
            "store replay must reproduce the live books"
        );
        system.audit().expect("conservation across crash-recovery");
    }

    #[test]
    fn durable_runs_are_reproducible() {
        let plan = || {
            zmail_fault::FaultPlan::none().with(Fault::Crash(zmail_fault::Crash {
                isp: 1,
                at: SimTime::ZERO + SimDuration::from_hours(4),
                restart_after: SimDuration::from_mins(10),
            }))
        };
        let config = || ZmailConfig::builder(2, 8).faults(plan()).durable().build();
        let (_, a) = run(config(), traffic(2, 8, 2), 17);
        let (_, b) = run(config(), traffic(2, 8, 2), 17);
        assert_eq!(a, b, "crash-recovery must be deterministic");
        assert_eq!(a.recoveries.len(), 1);
    }

    #[test]
    fn sharded_durable_run_matches_single_shard_exactly() {
        let plan = || {
            zmail_fault::FaultPlan::none().with(Fault::Crash(zmail_fault::Crash {
                isp: 1,
                at: SimTime::ZERO + SimDuration::from_hours(4),
                restart_after: SimDuration::from_mins(10),
            }))
        };
        let config = |shards: u32| {
            ZmailConfig::builder(3, 8)
                .faults(plan())
                .durable()
                .sharded(shards)
                .build()
        };
        // Checkpoint sequence and replay length are per-shard mechanism
        // detail (N WALs checkpoint on their own cadence); everything
        // the paper's experiments observe must be identical.
        let normalize = |report: &RunReport| {
            let mut r = report.clone();
            for rec in &mut r.recoveries {
                rec.checkpoint_seq = None;
                rec.replayed = 0;
            }
            r
        };
        let (one, report_one) = run(config(1), traffic(3, 8, 2), 23);
        for shards in [4u32, 7] {
            let (many, report) = run(config(shards), traffic(3, 8, 2), 23);
            assert_eq!(
                normalize(&report),
                normalize(&report_one),
                "{shards}-shard run must report identically to 1 shard"
            );
            assert_eq!(
                many.verify_durable_books(),
                Some(true),
                "{shards}-shard recovery must reproduce the live books"
            );
            assert_eq!(many.sharded_store().unwrap().shard_count(), shards as usize);
            many.audit()
                .expect("conservation across sharded crash-recovery");
        }
        assert_eq!(one.verify_durable_books(), Some(true));
    }

    #[test]
    fn durability_off_keeps_report_shape() {
        // No durability: no store, no recoveries, crash is a warm restart.
        let crash = zmail_fault::Crash {
            isp: 0,
            at: SimTime::ZERO + SimDuration::from_hours(6),
            restart_after: SimDuration::from_mins(30),
        };
        let config = ZmailConfig::builder(2, 8)
            .faults(zmail_fault::FaultPlan::none().with(Fault::Crash(crash)))
            .build();
        let (system, report) = run(config, traffic(2, 8, 1), 31);
        assert!(report.recoveries.is_empty());
        assert_eq!(system.store().map(|_| ()), None);
        assert_eq!(system.verify_durable_books(), None);
        system.audit().expect("warm restart conserves too");
    }

    /// Runs `traffic` with a fully-sampling flight recorder attached and
    /// returns the drained span log plus the run report.
    fn run_recorded(
        config: ZmailConfig,
        traffic: TrafficConfig,
        seed: u64,
        threads: usize,
    ) -> (zmail_obs::SpanLog, RunReport) {
        let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed));
        let mut system = ZmailSystem::new(config, seed);
        let recorder = FlightRecorder::new(1 << 20);
        system.attach_flight_recorder(recorder.clone());
        let report = if threads <= 1 {
            system.run_trace(&trace)
        } else {
            system.run_trace_parallel(&trace, threads)
        };
        recorder.finalize(system.now().as_millis());
        (recorder.drain(), report)
    }

    #[test]
    fn flight_recorder_captures_well_formed_lifecycles() {
        // Low starting balances force auto-topups, which drain the pool
        // below `minavail` and force bank buys — so the log exercises
        // the bank_rtt phase too.
        let config = ZmailConfig::builder(2, 10)
            .billing_period(SimDuration::from_days(1))
            .bank_retry(Some(SimDuration::from_mins(1)))
            .initial_balance(EPennies(20))
            .avail_bounds(EPennies(100), EPennies(300), EPennies(150))
            .durable()
            .build();
        let (log, report) = run_recorded(config, traffic(2, 10, 2), 41, 1);
        log.validate().expect("span log well-formed");
        assert!(report.delivered_total() > 0);
        let phases: std::collections::BTreeSet<&str> = log.spans.iter().map(|s| s.phase).collect();
        for phase in ["submit", "delivery", "bank_rtt", "wal_commit"] {
            assert!(phases.contains(phase), "missing phase {phase}: {phases:?}");
        }
        // Every cross-ISP paid delivery rides a submit root.
        assert!(log.traces().len() as u64 >= report.delivered_total() / 2);
    }

    #[test]
    fn flight_recorder_is_identical_across_thread_counts() {
        let config = || {
            ZmailConfig::builder(3, 10)
                .billing_period(SimDuration::from_days(1))
                .durable()
                .build()
        };
        let (serial, base) = run_recorded(config(), traffic(3, 10, 2), 42, 1);
        for threads in [2, 4, 8] {
            let (parallel, report) = run_recorded(config(), traffic(3, 10, 2), 42, threads);
            assert_eq!(base.digest_checksum, report.digest_checksum);
            assert_eq!(
                serial.spans, parallel.spans,
                "span stream diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn flight_recorder_does_not_change_the_run() {
        let config = || ZmailConfig::builder(2, 10).durable().build();
        let t = || traffic(2, 10, 1);
        let trace = TrafficGenerator::new(t()).generate(&mut Sampler::new(43));
        let mut bare = ZmailSystem::new(config(), 43);
        let bare_report = bare.run_trace(&trace);
        let (_, recorded_report) = run_recorded(config(), t(), 43, 1);
        assert_eq!(bare_report.digest_checksum, recorded_report.digest_checksum);
        assert_eq!(
            bare_report.delivered_total(),
            recorded_report.delivered_total()
        );
        assert_eq!(
            bare_report.network_messages,
            recorded_report.network_messages
        );
    }

    #[test]
    fn flight_recorder_sampling_mints_stable_trace_ids() {
        let config = || ZmailConfig::builder(2, 10).build();
        let t = || traffic(2, 10, 1);
        let trace = TrafficGenerator::new(t()).generate(&mut Sampler::new(44));
        let run_sampled = |every: u64| {
            let mut system = ZmailSystem::new(config(), 44);
            let recorder = FlightRecorder::new(1 << 20);
            recorder.set_sampling(every);
            system.attach_flight_recorder(recorder.clone());
            system.run_trace(&trace);
            recorder.finalize(system.now().as_millis());
            (recorder.traces_minted(), recorder.drain())
        };
        let (minted_full, full) = run_sampled(1);
        let (minted_eighth, eighth) = run_sampled(8);
        // Ids are minted for every submission regardless of rate, so the
        // sampled run records a subset of the full run's traces.
        assert_eq!(minted_full, minted_eighth);
        full.validate().expect("full log well-formed");
        eighth.validate().expect("sampled log well-formed");
        let full_ids: std::collections::BTreeSet<u64> = full.traces().keys().copied().collect();
        for id in eighth.traces().keys() {
            assert!(full_ids.contains(id), "sampled trace {id} not in full set");
        }
        assert!(eighth.traces().len() < full.traces().len());
    }

    #[test]
    fn crash_truncates_open_spans_as_crashed() {
        let crash = zmail_fault::Crash {
            isp: 0,
            at: SimTime::ZERO + SimDuration::from_hours(6),
            restart_after: SimDuration::from_mins(30),
        };
        let config = ZmailConfig::builder(2, 8)
            .faults(zmail_fault::FaultPlan::none().with(Fault::Crash(crash)))
            .durable()
            .build();
        let (log, report) = run_recorded(config, traffic(2, 8, 1), 45, 1);
        assert!(!report.recoveries.is_empty(), "crash must recover");
        log.validate().expect("span log well-formed across crash");
        assert_eq!(
            log.spans
                .iter()
                .filter(|s| s.status == zmail_obs::SpanStatus::Crashed && s.node != "isp0")
                .count(),
            0,
            "crashed status is confined to the crashed node"
        );
    }

    /// One deployment that passes every span site of the world: fresh,
    /// local and list sends with acks, bank round trips (low balances),
    /// sends queued behind a billing freeze, mail lost, duplicated and
    /// refused under attestations, a group commit per event and a crash
    /// restart in the middle of the freeze. `recorder` is attached as
    /// given; `None` leaves the world's own switched-off one.
    fn pass_every_span_site(recorder: Option<FlightRecorder>) -> ZmailSystem {
        let crash = zmail_fault::Crash {
            isp: 0,
            at: SimTime::ZERO + SimDuration::from_mins(365),
            restart_after: SimDuration::from_mins(15),
        };
        let config = ZmailConfig::builder(2, 10)
            .billing_period(SimDuration::from_hours(6))
            .snapshot_timeout(SimDuration::from_mins(30))
            .bank_retry(Some(SimDuration::from_mins(1)))
            .initial_balance(EPennies(20))
            .avail_bounds(EPennies(100), EPennies(300), EPennies(150))
            .attestations()
            .lossy_network(0.02, 0.1)
            .fault(Fault::Crash(crash))
            .durable()
            .build();
        let mut t = traffic(2, 10, 1);
        t.personal_per_user_day = 200.0;
        let trace = TrafficGenerator::new(t).generate(&mut Sampler::new(9));
        let mut system = ZmailSystem::new(config, 9);
        if let Some(recorder) = recorder {
            system.attach_flight_recorder(recorder);
        }
        let subscribers = (1..10).map(|u| UserAddr::new(1, u)).collect();
        let list = system.register_mailing_list(UserAddr::new(0, 0), subscribers, 1.0);
        system.schedule_list_post(SimTime::ZERO + SimDuration::from_hours(1), list);
        system.run_trace(&trace);
        system
    }

    #[test]
    fn the_span_site_deployment_passes_every_span_site() {
        let recorder = FlightRecorder::new(1 << 20);
        let system = pass_every_span_site(Some(recorder.clone()));
        recorder.finalize(system.now().as_millis());
        let log = recorder.drain();
        log.validate().expect("span log well-formed");
        for phase in [
            "submit",
            "ack",
            "queue",
            "bank_rtt",
            "delivery",
            "wal_commit",
        ] {
            assert!(
                log.spans.iter().any(|s| s.phase == phase),
                "no {phase} span"
            );
        }
        for note in [
            "refused=",
            "lost=network",
            "local",
            "bounced=",
            "records=",
            "->",
        ] {
            let noted = log.spans.iter().any(|s| s.detail.contains(note));
            assert!(noted, "no span detail has {note:?}");
        }
        let crashed = |s: &&zmail_obs::SpanRecord| s.status == SpanStatus::Crashed;
        assert!(log.spans.iter().filter(crashed).all(|s| s.node == "isp0"));
        assert!(log.spans.iter().any(|s| crashed(&s)), "no span crashed");
    }

    /// The observability budget: with the recorder off, or on but not
    /// sampling the trace, no call site may format a node name or a
    /// detail — every one of them is a [`Lazy`], and a `Lazy` spelled out
    /// on this thread panics.
    #[test]
    fn a_recorder_that_is_off_or_not_sampling_is_handed_no_span_text() {
        let unsampling = FlightRecorder::new(64);
        unsampling.set_sampling(u64::MAX);
        NO_SPAN_TEXT.set(true);
        let plain = pass_every_span_site(None);
        let off = pass_every_span_site(Some(FlightRecorder::disabled(64)));
        let unsampled = pass_every_span_site(Some(unsampling.clone()));
        NO_SPAN_TEXT.set(false);
        assert!(unsampling.traces_minted() > 1_000);
        assert_eq!(unsampling.drain(), zmail_obs::SpanLog::default());
        assert!(plain.report().refused_deliveries > 0 && plain.report().buffered_sends > 0);
        assert_eq!(plain.report(), off.report());
        assert_eq!(plain.report(), unsampled.report());
    }

    #[test]
    #[should_panic(expected = "span text built")]
    fn the_span_text_trap_is_live() {
        NO_SPAN_TEXT.set(true);
        pass_every_span_site(Some(FlightRecorder::new(64)));
    }

    /// Durability at event granularity: what `.durable()` promises, shown
    /// one event at a time and then one sync at a time.
    mod event_commits {
        use super::*;
        use crate::config::DurabilityConfig;
        use zmail_fault::FaultyStorage;
        use zmail_store::{wal, LedgerRecord, RecoveryReport, Storage, StoreConfig, WAL};

        /// `.durable()`'s batching with images every 16 records, so a
        /// small run writes several.
        fn per_event() -> StoreConfig {
            StoreConfig {
                checkpoint_every: 16,
                ..DurabilityConfig::default().store
            }
        }

        /// A small deployment with bank traffic, its trace seeded and
        /// not yet stepped.
        fn deployment(store: StoreConfig) -> ZmailSystem {
            let config = ZmailConfig::builder(2, 6)
                .initial_balance(EPennies(20))
                .avail_bounds(EPennies(100), EPennies(300), EPennies(150))
                .durability(DurabilityConfig { store, shards: 1 })
                .build();
            let trace = TrafficGenerator::new(traffic(2, 6, 2)).generate(&mut Sampler::new(5));
            let mut system = ZmailSystem::new(config, 5);
            system.seed_trace(&trace);
            system
        }

        /// What stepping [`deployment`] one event at a time saw.
        struct Stepped {
            bootstrap: Books,
            /// Each event that journalled anything: its records.
            events: Vec<Vec<LedgerRecord>>,
            /// `(WAL length, live books)` before the first event and
            /// after each of `events`.
            boundaries: Vec<(u64, Books)>,
            /// Every record with the offset its frame ends at.
            log: Vec<(u64, LedgerRecord)>,
            wal: Vec<u8>,
            commits: u64,
        }

        fn step_by_event() -> Stepped {
            let mut system = deployment(per_event());
            let bootstrap = system.store().unwrap().books().clone();
            let mut seen = Stepped {
                boundaries: vec![(0, bootstrap.clone())],
                bootstrap,
                events: Vec::new(),
                log: Vec::new(),
                wal: Vec::new(),
                commits: 0,
            };
            while system.sim.step() {
                assert_eq!(system.verify_durable_books(), Some(true));
                let store = system.store().unwrap();
                assert_eq!(store.pending_records(), 0, "records left buffered");
                assert!(store.commits() <= system.sim.processed());
                let (from, len) = (seen.boundaries.last().unwrap().0, store.wal_len());
                if len == from {
                    continue;
                }
                let tail = store.storage().read_from(WAL, from);
                let scan = wal::scan(&tail, 0);
                assert_eq!((scan.valid_len, scan.torn), (len - from, false));
                let ends = scan.offsets.iter().skip(1).chain([&scan.valid_len]);
                let records: Vec<LedgerRecord> = scan
                    .payloads
                    .iter()
                    .map(|payload| LedgerRecord::decode(payload).expect("a record"))
                    .collect();
                seen.log
                    .extend(ends.map(|end| from + end).zip(records.iter().copied()));
                seen.events.push(records);
                seen.boundaries.push((len, store.books().clone()));
            }
            let store = system.store().unwrap();
            assert_eq!(store.commits(), seen.events.len() as u64);
            assert!(2 * store.records_appended() > 3 * store.commits());
            assert!(store.next_checkpoint_seq() >= 4, "images must fall due");
            seen.wal = store.storage().read(WAL);
            seen.commits = store.commits();
            seen
        }

        #[test]
        fn every_event_ends_durable_in_at_most_one_commit() {
            let seen = step_by_event();
            // An explicit batch of 1 journals the same bytes, every
            // record in a commit of its own.
            let mut alone = deployment(StoreConfig {
                batch_records: 1,
                ..per_event()
            });
            alone.drain();
            let store = alone.store().unwrap();
            assert_eq!(store.storage().read(WAL), seen.wal);
            assert_eq!(store.commits(), store.records_appended());
            assert_eq!(store.records_appended(), seen.log.len() as u64);
            assert!(seen.commits < store.commits());
        }

        /// A disk that dies at its `fuse`-th sync — in full, or `torn`
        /// after that many bytes — and never syncs again.
        #[derive(Debug)]
        struct Fused {
            disk: FaultyStorage<MemStorage>,
            fuse: u64,
            torn: Option<u64>,
        }

        impl Storage for Fused {
            fn read(&self, name: &str) -> Vec<u8> {
                self.disk.read(name)
            }
            fn read_from(&self, name: &str, offset: u64) -> Vec<u8> {
                self.disk.read_from(name, offset)
            }
            fn write(&mut self, name: &str, bytes: &[u8]) {
                self.disk.write(name, bytes)
            }
            fn append(&mut self, name: &str, bytes: &[u8]) {
                self.disk.append(name, bytes)
            }
            fn sync(&mut self, name: &str) {
                if self.fuse == 0 {
                    return;
                }
                if let (1, Some(bytes)) = (self.fuse, self.torn) {
                    self.disk.arm_partial_sync(bytes);
                }
                self.fuse -= 1;
                self.disk.sync(name);
            }
            fn len(&self, name: &str) -> u64 {
                self.disk.len(name)
            }
            fn truncate(&mut self, name: &str, len: u64) {
                self.disk.truncate(name, len)
            }
        }

        /// Journals `seen`'s run as the world does — an event's records,
        /// then the commit — on a disk with `fuse` syncs to live, cuts
        /// the power and restarts. Returns the recovery and how many
        /// syncs the disk performed.
        fn kill_at(seen: &Stepped, fuse: u64, torn: Option<u64>) -> (Books, RecoveryReport, u64) {
            let disk = Fused {
                disk: FaultyStorage::new(MemStorage::new()),
                fuse,
                torn,
            };
            let (mut store, _) = LedgerStore::open(disk, per_event(), seen.bootstrap.clone());
            for records in &seen.events {
                for record in records {
                    store.append(record);
                }
                store.commit();
            }
            let mut killed = store.into_storage();
            killed.disk.crash();
            let (restarted, report) = LedgerStore::open(
                killed.disk.into_durable(),
                per_event(),
                seen.bootstrap.clone(),
            );
            (restarted.books().clone(), report, fuse - killed.fuse)
        }

        #[test]
        fn a_kill_lands_on_an_event_boundary_and_a_torn_write_on_a_frame_boundary() {
            let seen = step_by_event();
            let (books, report, syncs) = kill_at(&seen, u64::MAX, None);
            assert_eq!((&books, report.wal_bytes), {
                let (len, live) = seen.boundaries.last().unwrap();
                (live, *len)
            });
            assert!(syncs > seen.commits, "image syncs are kill points too");
            let (mut boundaries_hit, mut mid_event) = (std::collections::BTreeSet::new(), 0);
            for fuse in 1..=syncs {
                let (books, report, _) = kill_at(&seen, fuse, None);
                assert!(!report.torn_tail, "kill at sync {fuse}");
                let boundary = seen.boundaries.iter().find(|b| b.0 == report.wal_bytes);
                let (_, live) = boundary.unwrap_or_else(|| {
                    panic!(
                        "kill at sync {fuse}: {} is inside an event",
                        report.wal_bytes
                    )
                });
                assert_eq!(&books, live, "kill at sync {fuse}");
                boundaries_hit.insert(report.wal_bytes);

                for torn in [1, 9, 23, 40] {
                    let (books, report, _) = kill_at(&seen, fuse, Some(torn));
                    let kept = seen.log.iter().take_while(|r| r.0 <= report.wal_bytes);
                    let mut prefix = seen.bootstrap.clone();
                    let mut end = 0;
                    for (frame_end, record) in kept {
                        prefix.apply(record);
                        end = *frame_end;
                    }
                    let at = format!("sync {fuse} torn after {torn} bytes");
                    assert_eq!(report.wal_bytes, end, "{at}: not a frame boundary");
                    assert_eq!(books, prefix, "{at}");
                    mid_event += u32::from(seen.boundaries.iter().all(|b| b.0 != end));
                }
            }
            assert_eq!(boundaries_hit.len(), seen.boundaries.len() - 1);
            assert!(mid_event > 0, "no torn write cut an event in two");
        }
    }
}
