//! The compliant ISP process (§4.1–4.3 of the paper).
//!
//! [`Isp`] is a pure state machine: every method either changes the
//! ledgers or returns a [`NetMsg`] for the caller to put on the wire, so
//! the same implementation runs under the discrete-event harness
//! ([`crate::system`]), under unit tests, and behind the SMTP bridge.
//!
//! The ISP keeps only protocol state. Its durable ledgers are its rows of
//! the deployment's books, owned by whoever drives it and lent to each
//! call as a [`Ledger`]; every change to them is a [`LedgerRecord`]: a
//! mutation site checks the paper's guard against the rows it reads —
//! [`Ledger::user`] and [`Ledger::pool`] — then hands the record to
//! [`Ledger::try_commit`], which applies it only if WAL replay would (the
//! same function, refusing a sum past its range) and, for a durable
//! ledger, journals it. There is one copy of the books. They mirror the
//! paper's variables exactly:
//!
//! * per-user `account` (real pennies), `balance` (e-pennies), `sent`
//!   (today's paid sends) and `limit` (the anti-zombie daily cap);
//! * the pool `avail` bounded by `minavail`/`maxavail`, replenished from
//!   and drained to the bank with nonce-protected sealed exchanges — one
//!   state machine for both directions, indexed by [`Exchange`]: the
//!   paper's `buyvalue`/`ns1` and `sellvalue`/`ns2` are the two entries
//!   of `outstanding`, and `side` decides only which edge of the band
//!   triggers, which counter ticks and which pool record a reply books;
//! * the per-peer `credit` array: +1 per paid send to `isp[j]`, −1 per
//!   paid receive from `isp[j]`;
//! * `cansend`, frozen during a snapshot; sends arriving while frozen are
//!   buffered and flushed when the quiescence timeout expires, exactly as
//!   §4.4 describes.

use crate::config::{AttestWeakness, CheatMode, NonCompliantPolicy, ZmailConfig};
use crate::ids::IspId;
use crate::metrics::CoreMetrics;
use crate::msg::{
    decode_value_nonce, encode_credit, encode_value_nonce, EmailMsg, Exchange, NetMsg,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use zmail_crypto::{
    open_with_public, seal_for_public, Attestation, CryptoError, Nnc, Nonce, PrivateKey, PublicKey,
};
use zmail_econ::EPennies;
use zmail_sim::workload::{MailKind, UserAddr};
use zmail_store::{Ledger, LedgerRecord, UserBooks};

pub use zmail_store::SendError;

/// The result of an accepted send.
#[derive(Debug, Clone, PartialEq)]
pub enum SendOutcome {
    /// Sender and receiver share this ISP; the transfer completed locally.
    DeliveredLocally,
    /// The message must travel to another ISP.
    Outbound {
        /// Destination ISP.
        to: IspId,
        /// The wire message (paid iff the destination is compliant).
        msg: NetMsg,
    },
    /// The ISP is frozen for a snapshot; the send is buffered and will be
    /// retried automatically when the freeze lifts.
    Buffered,
}

/// Why a receiver refused a paid message: its attestation check, or its
/// books.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefusalCause {
    /// Paid mail arrived without any attestation — the signature was
    /// stripped in transit (or the origin never signed).
    MissingAttestation,
    /// The attestation's signature does not verify under the origin
    /// ISP's key: a forgery.
    BadSignature,
    /// The signature verifies but the signed fields do not match this
    /// message — a signature cut from some other message.
    FieldMismatch,
    /// The attestation's nonce was already accepted once: a replay
    /// (refund-farming when the message is an ack).
    ReplayedNonce,
    /// The payment does not fit the recipient's books: its balance
    /// cannot hold one more e-penny.
    Unfit,
}

impl fmt::Display for RefusalCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefusalCause::MissingAttestation => write!(f, "missing attestation"),
            RefusalCause::BadSignature => write!(f, "bad signature"),
            RefusalCause::FieldMismatch => write!(f, "field mismatch"),
            RefusalCause::ReplayedNonce => write!(f, "replayed nonce"),
            RefusalCause::Unfit => write!(f, "unfit"),
        }
    }
}

/// What happened to a received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Delivery {
    /// Delivered to the recipient's mailbox (paid transfers credited).
    Delivered,
    /// Discarded by the non-compliant-mail policy.
    DiscardedByPolicy,
    /// Dropped by the policy's spam filter.
    FilteredOut,
    /// Refused by attestation verification or the recipient's books: no
    /// credit moved, the message never reached a mailbox, and the cause
    /// says why.
    Refused(RefusalCause),
}

/// Counters the experiments read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IspStats {
    /// Paid messages sent to other compliant ISPs.
    pub sent_paid: u64,
    /// Unpaid messages sent to non-compliant ISPs.
    pub sent_unpaid: u64,
    /// Local (same-ISP) paid deliveries.
    pub delivered_local: u64,
    /// Paid messages received from compliant ISPs.
    pub received_paid: u64,
    /// Messages from non-compliant ISPs that were delivered.
    pub received_noncompliant: u64,
    /// Messages dropped by the non-compliant-mail policy.
    pub dropped_by_policy: u64,
    /// Sends refused for lack of balance.
    pub bounced_balance: u64,
    /// Sends refused by the daily limit.
    pub bounced_limit: u64,
    /// Sends buffered during snapshot freezes.
    pub buffered_sends: u64,
    /// Buy requests issued to the bank.
    pub bank_buys: u64,
    /// Sell requests issued to the bank.
    pub bank_sells: u64,
    /// Buy/sell requests retransmitted with a fresh nonce after a
    /// reply went missing (see experiment E15).
    pub bank_retries: u64,
    /// Buy/sell requests retransmitted with the **original** nonce
    /// under idempotent request ids (`ZmailConfig::idempotent_bank_ids`).
    pub idempotent_retries: u64,
    /// Replayed or mismatched bank replies ignored.
    pub stale_replies: u64,
    /// Paid messages refused by attestation verification (missing,
    /// forged, mis-bound, or replayed signatures).
    pub refused_attestations: u64,
}

/// One side's §4.3 exchange state: the paper's `buyvalue`/`ns1` or
/// `sellvalue`/`ns2`. `canbuy`/`cansell` are `nonce.is_none()`: the
/// paper clears the flag where it draws the nonce and sets it where the
/// matching reply clears the nonce.
#[derive(Debug, Clone, Copy, Default)]
struct Outstanding {
    value: i64,
    nonce: Option<Nonce>,
}

/// A send intent queued while the ISP is frozen.
#[derive(Debug, Clone, PartialEq)]
struct PendingSend {
    sender: u32,
    to: UserAddr,
    kind: MailKind,
}

/// The compliant ISP process.
///
/// # Example
///
/// ```rust
/// use zmail_core::{IspId, ZmailConfig};
/// use zmail_core::isp::{Isp, SendOutcome};
/// use zmail_sim::workload::{MailKind, UserAddr};
/// use zmail_crypto::KeyPair;
/// use rand::SeedableRng;
///
/// let config = ZmailConfig::builder(2, 4).build();
/// let mut books = config.initial_books();
/// let bank = KeyPair::generate(&mut rand::rngs::SmallRng::seed_from_u64(1));
/// let mut isp = Isp::new(IspId(0), &config, *bank.public(), 7);
/// // User 0 mails user 2 of the peer ISP: one e-penny leaves with it.
/// let outcome = isp.send_email(&mut books, 0, UserAddr::new(1, 2), MailKind::Personal)?;
/// assert!(matches!(outcome, SendOutcome::Outbound { .. }));
/// assert_eq!(isp.view(&books).user(0).balance, 99);
/// assert_eq!(isp.view(&books).credit(IspId(1)), 1);
/// # Ok::<(), zmail_core::SendError>(())
/// ```
#[derive(Debug)]
pub struct Isp {
    id: IspId,
    /// How many users the ISP serves: its user rows are `0..users`.
    users: u32,
    compliant: Vec<bool>,
    cheat: CheatMode,
    policy: NonCompliantPolicy,
    minavail: EPennies,
    maxavail: EPennies,
    cansend: bool,
    pending: VecDeque<PendingSend>,
    /// The §4.3 exchange state, indexed by [`Exchange`].
    outstanding: [Outstanding; 2],
    nnc: Nnc,
    bank_key: PublicKey,
    seq: u64,
    rng: SmallRng,
    stats: IspStats,
    idempotent: bool,
    /// This ISP's attestation signing key, installed by the harness when
    /// `ZmailConfig::attestations` is on. `None` = legacy unsigned mode.
    attest_key: Option<PrivateKey>,
    /// Peer ISPs' attestation verification keys, indexed by ISP id.
    peer_keys: Vec<Option<PublicKey>>,
    /// Monotone counter minting globally-unique attestation nonces
    /// (`id << 48 | seq`), so two origins can never collide in a
    /// receiver's seen-set.
    attest_seq: u64,
    /// The original payment nonce the next outbound `Ack` refunds, set
    /// by the harness just before the ack send (§5 refund binding).
    refund_ctx: Option<u64>,
    /// Whether this deployment runs signed attestations at all.
    attest_on: bool,
    /// The campaign self-test's deliberately disabled defense, if any.
    attest_weakness: Option<AttestWeakness>,
}

/// An [`Isp`] read together with its rows of a [`Ledger`]: what
/// [`Isp::view`] and [`ZmailSystem::isp`](crate::ZmailSystem::isp) hand
/// out. Dereferences to the process for its protocol state.
#[derive(Clone, Copy)]
pub struct IspView<'a> {
    isp: &'a Isp,
    ledger: &'a dyn Ledger,
}

impl<'a> IspView<'a> {
    /// One user's ledger.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn user(&self, user: u32) -> UserBooks {
        self.ledger.user(self.isp.id.0, user)
    }

    /// The ISP's e-penny pool.
    pub fn avail(&self) -> EPennies {
        EPennies(self.ledger.pool(self.isp.id.0).avail)
    }

    /// The credit ledger entry for `peer`.
    pub fn credit(&self, peer: IspId) -> i64 {
        self.ledger.pool(self.isp.id.0).credit[peer.index()]
    }

    /// Sum of all user balances (for conservation audits).
    pub fn total_user_balances(&self) -> EPennies {
        EPennies((0..self.isp.users).map(|u| self.user(u).balance).sum())
    }

    /// The process's counters, borrowed for as long as the view's
    /// (`Deref` could lend them only as long as the view itself).
    pub fn stats(&self) -> &'a IspStats {
        self.isp.stats()
    }
}

impl Deref for IspView<'_> {
    type Target = Isp;

    fn deref(&self) -> &Isp {
        self.isp
    }
}

impl Isp {
    /// Creates the ISP process from the shared configuration. Its books
    /// are not here: they start as [`ZmailConfig::initial_books`] in
    /// whatever [`Ledger`] the driver lends to each call.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the configuration.
    pub fn new(id: IspId, config: &ZmailConfig, bank_key: PublicKey, seed: u64) -> Self {
        config.validate();
        assert!(id.0 < config.isps, "isp id out of range");
        Isp {
            id,
            users: config.users_per_isp,
            compliant: config.compliant.clone(),
            cheat: config.cheat_modes[id.index()],
            policy: config.non_compliant_policy,
            minavail: config.minavail,
            maxavail: config.maxavail,
            cansend: true,
            pending: VecDeque::new(),
            outstanding: [Outstanding::default(); 2],
            nnc: Nnc::new(seed ^ 0xA11C_E5ED, u64::from(id.0)),
            bank_key,
            seq: 0,
            rng: SmallRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9).wrapping_add(u64::from(id.0)),
            ),
            stats: IspStats::default(),
            idempotent: config.idempotent_bank_ids,
            attest_key: None,
            peer_keys: Vec::new(),
            attest_seq: 0,
            refund_ctx: None,
            attest_on: config.attestations,
            attest_weakness: config.attest_weakness,
        }
    }

    /// This process read together with its rows of `ledger`: the view
    /// experiments and assertions inspect.
    pub fn view<'a>(&'a self, ledger: &'a dyn Ledger) -> IspView<'a> {
        IspView { isp: self, ledger }
    }

    /// This ISP's id.
    pub fn id(&self) -> IspId {
        self.id
    }

    /// Whether sends are currently frozen for a snapshot.
    pub fn is_frozen(&self) -> bool {
        !self.cansend
    }

    /// Sets one user's daily limit (the user-specified value of §5).
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn set_limit(&self, ledger: &mut dyn Ledger, user: u32, limit: u32) {
        ledger.commit(LedgerRecord::LimitSet {
            isp: self.id.0,
            user,
            limit,
        });
    }

    /// Grants a user e-pennies directly (test/experiment setup shortcut;
    /// production top-ups go through [`Isp::user_buy`]).
    pub fn grant_balance(&self, ledger: &mut dyn Ledger, user: u32, amount: EPennies) {
        ledger.commit(LedgerRecord::Grant {
            isp: self.id.0,
            user,
            amount: amount.0,
        });
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &IspStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Payment attestations (X-Zmail-Sig on the SMTP mapping)
    // ------------------------------------------------------------------

    /// Installs the attestation key material: this ISP's signing key and
    /// the verification keys of every ISP (indexed by id). Called once by
    /// the harness when `ZmailConfig::attestations` is on.
    pub fn install_attestation_keys(&mut self, key: PrivateKey, peers: Vec<PublicKey>) {
        self.attest_key = Some(key);
        self.peer_keys = peers.into_iter().map(Some).collect();
    }

    /// Arms the §5 refund binding: the next outbound send signs its
    /// attestation with `refund_of` pointing at the payment nonce being
    /// refunded. Consumed (and reset) by that send, whatever its fate.
    pub fn set_refund_ctx(&mut self, nonce: Option<u64>) {
        self.refund_ctx = nonce;
    }

    /// Mints the next attestation nonce: the ISP id in the top bits, a
    /// monotone sequence below, so two origins can never collide in a
    /// receiver's durable seen-set.
    fn next_attest_nonce(&mut self) -> u64 {
        self.attest_seq += 1;
        (u64::from(self.id.0) << 48) | self.attest_seq
    }

    /// Signs a payment attestation for an outbound paid message, or
    /// `None` when attestations are off.
    fn attest(&mut self, sender: u32, to: UserAddr, refund_of: Option<u64>) -> Option<Attestation> {
        let key = self.attest_key?;
        let nonce = self.next_attest_nonce();
        Some(Attestation::sign(
            &key, self.id.0, sender, to.isp, to.user, 1, nonce, refund_of,
        ))
    }

    /// Verifies a paid message's attestation: presence, signature under
    /// the origin ISP's key, field binding, and nonce freshness, in that
    /// order (each skipped only under the matching configured
    /// [`AttestWeakness`]). On success the nonce is recorded — durably,
    /// when the ledger is — so it can never be accepted twice.
    fn verify_attestation(
        &self,
        ledger: &mut dyn Ledger,
        from_isp: IspId,
        email: &EmailMsg,
    ) -> Result<(), RefusalCause> {
        let Some(att) = &email.attestation else {
            return Err(RefusalCause::MissingAttestation);
        };
        let skip = |w: AttestWeakness| self.attest_weakness == Some(w);
        if !skip(AttestWeakness::SkipSignatureCheck) {
            let key = self.peer_keys.get(from_isp.index()).copied().flatten();
            match key {
                Some(key) if att.verify(&key).is_ok() => {}
                _ => return Err(RefusalCause::BadSignature),
            }
        }
        if !skip(AttestWeakness::SkipBindingCheck) {
            let bound = att.origin_isp == from_isp.0
                && att.origin_user == email.from.user
                && att.dest_isp == email.to.isp
                && att.dest_user == email.to.user
                && att.amount == 1
                && (email.kind == MailKind::Ack) == att.refund_of.is_some();
            if !bound {
                return Err(RefusalCause::FieldMismatch);
            }
        }
        let nonce = att.nonce;
        if ledger.pool(self.id.0).nonces.binary_search(&nonce).is_err() {
            ledger.commit(LedgerRecord::NonceSeen {
                isp: self.id.0,
                nonce,
            });
        } else if !skip(AttestWeakness::SkipReplayCheck) {
            return Err(RefusalCause::ReplayedNonce);
        }
        Ok(())
    }

    /// Number of sends waiting for the freeze to lift.
    pub fn pending_sends(&self) -> usize {
        self.pending.len()
    }

    // ------------------------------------------------------------------
    // §4.1 zero-sum email transfer
    // ------------------------------------------------------------------

    /// Handles "user `sender` wants to mail `to`" (the paper's `cansend`
    /// action with `any`-chosen `s`, `j`, `r`).
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] when the sender's balance or daily limit, or a
    /// local recipient's balance, refuses a paid send. Unpaid sends to
    /// non-compliant ISPs are never refused.
    ///
    /// # Panics
    ///
    /// Panics if `sender` or `to` reference out-of-range users.
    pub fn send_email(
        &mut self,
        ledger: &mut dyn Ledger,
        sender: u32,
        to: UserAddr,
        kind: MailKind,
    ) -> Result<SendOutcome, SendError> {
        assert!(sender < self.users, "sender out of range");
        // Whatever this send turns out to be, it consumes any armed §5
        // refund binding: a buffered or refused ack must not leak its
        // refund pointer onto an unrelated later send.
        let refund_of = self.refund_ctx.take();
        if !self.cansend {
            self.pending.push_back(PendingSend { sender, to, kind });
            self.stats.buffered_sends += 1;
            CoreMetrics::get().buffered.inc();
            return Ok(SendOutcome::Buffered);
        }
        let dest = IspId(to.isp);
        if dest == self.id {
            // Local delivery: debit and credit inside this ISP.
            ledger.user(self.id.0, to.user).check_receives(1)?;
            self.charge_sender(ledger, sender)?;
            ledger.commit(LedgerRecord::Deposit {
                isp: self.id.0,
                user: to.user,
            });
            self.stats.delivered_local += 1;
            CoreMetrics::get().transfers_local.inc();
            return Ok(SendOutcome::DeliveredLocally);
        }
        if self.compliant[dest.index()] {
            self.charge_sender(ledger, sender)?;
            self.book_credit(ledger, dest);
            self.stats.sent_paid += 1;
            CoreMetrics::get().transfers_remote.inc();
            let attestation = self.attest(sender, to, refund_of);
            Ok(SendOutcome::Outbound {
                to: dest,
                msg: NetMsg::Email(EmailMsg {
                    from: UserAddr::new(self.id.0, sender),
                    to,
                    kind,
                    paid: true,
                    attestation,
                }),
            })
        } else {
            // `~compliant[j] --> send email(s, r) to isp[j]` — no charge.
            self.stats.sent_unpaid += 1;
            CoreMetrics::get().transfers_unpaid.inc();
            Ok(SendOutcome::Outbound {
                to: dest,
                msg: NetMsg::Email(EmailMsg {
                    from: UserAddr::new(self.id.0, sender),
                    to,
                    kind,
                    paid: false,
                    attestation: None,
                }),
            })
        }
    }

    /// The §4.1 guard for `n` charges to `sender` at once, a refusal
    /// counted as one bounce: what a driver that must refuse a
    /// multi-recipient message whole checks before its first
    /// [`Isp::send_email`].
    ///
    /// # Errors
    ///
    /// Returns which half of the guard refuses.
    pub fn check_sends(
        &mut self,
        ledger: &dyn Ledger,
        sender: u32,
        n: u32,
    ) -> Result<(), SendError> {
        let verdict = ledger.user(self.id.0, sender).check_sends(n);
        match verdict {
            Err(SendError::InsufficientBalance) => {
                self.stats.bounced_balance += 1;
                CoreMetrics::get().reject_balance.inc();
            }
            Err(SendError::DailyLimitExceeded) => {
                self.stats.bounced_limit += 1;
                CoreMetrics::get().reject_limit.inc();
            }
            Err(SendError::RecipientFull) | Ok(()) => {}
        }
        verdict
    }

    fn charge_sender(&mut self, ledger: &mut dyn Ledger, sender: u32) -> Result<(), SendError> {
        self.check_sends(ledger, sender, 1)?;
        ledger.commit(LedgerRecord::Charge {
            isp: self.id.0,
            user: sender,
        });
        Ok(())
    }

    /// Applies the configured cheat when booking an outbound credit.
    fn book_credit(&mut self, ledger: &mut dyn Ledger, dest: IspId) {
        let delta = match self.cheat {
            CheatMode::Honest => 1,
            CheatMode::UnderReportSends { fraction } => {
                if self.rng.gen::<f64>() < fraction {
                    0
                } else {
                    1
                }
            }
            CheatMode::InflateSends { fraction } => {
                if self.rng.gen::<f64>() < fraction {
                    2
                } else {
                    1
                }
            }
        };
        if delta != 0 {
            ledger.commit(LedgerRecord::CreditDelta {
                isp: self.id.0,
                peer: dest.0,
                delta,
            });
        }
    }

    /// Handles `rcv email(s, r) from isp[g]`.
    ///
    /// # Panics
    ///
    /// Panics if the message is addressed to another ISP or an unknown
    /// user.
    pub fn receive_email(
        &mut self,
        ledger: &mut dyn Ledger,
        from_isp: IspId,
        email: &EmailMsg,
    ) -> Delivery {
        assert_eq!(email.to.isp, self.id.0, "misrouted email");
        assert!(email.to.user < self.users, "unknown recipient");
        if self.compliant[from_isp.index()] && email.paid {
            if self.attest_on {
                if let Err(cause) = self.verify_attestation(ledger, from_isp, email) {
                    self.stats.refused_attestations += 1;
                    return Delivery::Refused(cause);
                }
            }
            let deposit = LedgerRecord::Deposit {
                isp: self.id.0,
                user: email.to.user,
            };
            if ledger.try_commit(deposit).is_err() {
                return Delivery::Refused(RefusalCause::Unfit);
            }
            ledger.commit(LedgerRecord::CreditDelta {
                isp: self.id.0,
                peer: from_isp.0,
                delta: -1,
            });
            self.stats.received_paid += 1;
            CoreMetrics::get().receive_paid.inc();
            return Delivery::Delivered;
        }
        // Mail from a non-compliant ISP: apply the receive policy.
        match self.policy {
            NonCompliantPolicy::Deliver => {
                self.stats.received_noncompliant += 1;
                Delivery::Delivered
            }
            NonCompliantPolicy::Discard => {
                self.stats.dropped_by_policy += 1;
                Delivery::DiscardedByPolicy
            }
            NonCompliantPolicy::Filter {
                false_positive,
                false_negative,
            } => {
                let drop = if email.kind.is_unsolicited() {
                    self.rng.gen::<f64>() >= false_negative
                } else {
                    self.rng.gen::<f64>() < false_positive
                };
                if drop {
                    self.stats.dropped_by_policy += 1;
                    Delivery::FilteredOut
                } else {
                    self.stats.received_noncompliant += 1;
                    Delivery::Delivered
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // §4.2 transactions with users
    // ------------------------------------------------------------------

    /// User `t` buys `x` e-pennies with real money from the ISP pool.
    ///
    /// Returns `true` when the purchase happened: the paper's guard holds
    /// (the account and the pool hold `x`) and the purchase fits the
    /// books. A refusal records nothing.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `x` is negative.
    pub fn user_buy(&self, ledger: &mut dyn Ledger, t: u32, x: EPennies) -> bool {
        assert!(!x.is_negative(), "cannot buy a negative amount");
        // 1:1 at the ISP counter: `x` e-pennies cost `x` real pennies.
        let (isp, amount) = (self.id.0, x.0);
        ledger.user(isp, t).account >= amount
            && ledger.pool(isp).avail >= amount
            && (ledger.try_commit(LedgerRecord::UserBuy {
                isp,
                user: t,
                amount,
            }))
            .is_ok()
    }

    /// User `t` sells `x` e-pennies back for real money. Returns `true`
    /// when the sale happened: the balance holds `x` and the sale fits the
    /// books. A refusal records nothing.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `x` is negative.
    pub fn user_sell(&self, ledger: &mut dyn Ledger, t: u32, x: EPennies) -> bool {
        assert!(!x.is_negative(), "cannot sell a negative amount");
        let (isp, amount) = (self.id.0, x.0);
        ledger.user(isp, t).balance >= amount
            && (ledger.try_commit(LedgerRecord::UserSell {
                isp,
                user: t,
                amount,
            }))
            .is_ok()
    }

    /// Tops up `t`'s balance if it fell below the configured threshold.
    /// Returns whether a purchase happened.
    pub fn auto_topup(
        &self,
        ledger: &mut dyn Ledger,
        t: u32,
        below: EPennies,
        amount: EPennies,
    ) -> bool {
        if ledger.user(self.id.0, t).balance < below.0 {
            self.user_buy(ledger, t, amount)
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // §4.3 transactions with the bank
    // ------------------------------------------------------------------

    fn pool_target(&self) -> i64 {
        (self.minavail.amount() + self.maxavail.amount()) / 2
    }

    /// If the pool has left `[minavail, maxavail]` on `side`'s edge (low
    /// for a buy, over-full for a sell) and no such exchange is
    /// outstanding, produces the sealed request moving it back to the
    /// midpoint target.
    pub fn maybe_exchange(&mut self, ledger: &dyn Ledger, side: Exchange) -> Option<NetMsg> {
        let avail = ledger.pool(self.id.0).avail;
        let out_of_band = match side {
            Exchange::Buy => avail < self.minavail.amount(),
            Exchange::Sell => avail > self.maxavail.amount(),
        };
        if self.outstanding[side.index()].nonce.is_some() || !out_of_band {
            return None;
        }
        let value = side.sign() * (self.pool_target() - avail);
        let nonce = self.nnc.next_nonce();
        self.outstanding[side.index()] = Outstanding {
            value,
            nonce: Some(nonce),
        };
        match side {
            Exchange::Buy => {
                self.stats.bank_buys += 1;
                CoreMetrics::get().bank_buys.inc();
            }
            Exchange::Sell => {
                self.stats.bank_sells += 1;
                CoreMetrics::get().bank_sells.inc();
            }
        }
        Some(self.seal_exchange(side, value, nonce))
    }

    /// Seals `(value | nonce)` for the bank.
    fn seal_exchange(&mut self, side: Exchange, value: i64, nonce: Nonce) -> NetMsg {
        let plain = encode_value_nonce(value, nonce);
        NetMsg::Exchange {
            side,
            envelope: seal_for_public(&self.bank_key, &plain, &mut self.rng),
            audit: value,
        }
    }

    /// Whether a buy or a sell is outstanding (request sent, matching
    /// reply not yet applied).
    pub fn exchange_outstanding(&self) -> bool {
        self.outstanding.iter().any(|o| o.nonce.is_some())
    }

    /// The request id (nonce) of `side`'s outstanding exchange — the
    /// value the bank's reply must echo to be applied. Exposed so the
    /// flight recorder can link a `bank_rtt` span to the request it
    /// measures.
    pub fn exchange_request_id(&self, side: Exchange) -> Option<u64> {
        self.outstanding[side.index()].nonce
    }

    /// Retransmits `side`'s outstanding exchange with the same value.
    /// Returns `None` when nothing is outstanding.
    ///
    /// Two modes, selected by [`ZmailConfig::idempotent_bank_ids`]:
    ///
    /// * **fresh nonce** (paper-faithful default) — the paper's replay
    ///   guard at the bank silently drops an identical retransmission, so
    ///   recovery from a lost reply *requires* a fresh nonce — at the
    ///   price that, if only the reply (not the request) was lost, the
    ///   bank serves the request twice and the duplicate is stranded (the
    ///   stale reply is ignored here). Experiment E15 quantifies this.
    /// * **idempotent** — the outstanding nonce doubles as a request id:
    ///   the retransmission re-seals the *same* `(value, nonce)` pair and
    ///   the bank serves a cached copy of its original reply, so a lost
    ///   reply strands nothing.
    pub fn retry_exchange(&mut self, side: Exchange) -> Option<NetMsg> {
        let Outstanding { value, nonce } = self.outstanding[side.index()];
        let mut nonce = nonce?;
        if self.idempotent {
            self.stats.idempotent_retries += 1;
        } else {
            nonce = self.nnc.next_nonce();
            self.outstanding[side.index()].nonce = Some(nonce);
        }
        self.stats.bank_retries += 1;
        CoreMetrics::get().bank_retries.inc();
        Some(self.seal_exchange(side, value, nonce))
    }

    /// Handles `buyreply(x)` / `sellreply(x)`: on a matching nonce,
    /// closes `side`'s exchange, moves the pool (a granted buy adds
    /// `buyvalue`, a sell confirmation retires `sellvalue`; a refused
    /// buy moves nothing) and returns `Ok(true)`.
    ///
    /// Replayed or mismatched replies are counted and ignored
    /// (`Ok(false)`), per the paper's `ns1 != nr1 --> skip`.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] when the envelope cannot be opened — an
    /// active forgery rather than a replay.
    pub fn handle_exchange_reply(
        &mut self,
        ledger: &mut dyn Ledger,
        side: Exchange,
        envelope: &zmail_crypto::SealedEnvelope,
    ) -> Result<bool, CryptoError> {
        let plain = open_with_public(&self.bank_key, envelope)?;
        let (accepted, nr) = decode_value_nonce(&plain).ok_or(CryptoError::Malformed)?;
        let Outstanding { value, nonce } = self.outstanding[side.index()];
        if nonce != Some(nr) {
            self.stats.stale_replies += 1;
            CoreMetrics::get().bank_stale_replies.inc();
            return Ok(false);
        }
        self.outstanding[side.index()].nonce = None;
        let isp = self.id.0;
        match side {
            Exchange::Buy => {
                CoreMetrics::get().bank_buy_roundtrips.inc();
                if accepted != 0 {
                    ledger.commit(LedgerRecord::PoolBuy { isp, amount: value });
                }
            }
            Exchange::Sell => {
                CoreMetrics::get().bank_sell_roundtrips.inc();
                ledger.commit(LedgerRecord::PoolSell { isp, amount: value });
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // §4.4 credit snapshot
    // ------------------------------------------------------------------

    /// Handles `request(x)` from the bank. Returns `true` when the request
    /// is fresh (matching sequence number) and the freeze began; the
    /// caller must schedule [`Isp::finish_snapshot`] after the quiescence
    /// window. Replayed requests return `false` and change nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] when the envelope cannot be opened.
    pub fn handle_snapshot_request(
        &mut self,
        envelope: &zmail_crypto::SealedEnvelope,
    ) -> Result<bool, CryptoError> {
        let plain = open_with_public(&self.bank_key, envelope)?;
        let (seq_received, _) = decode_value_nonce(&plain).ok_or(CryptoError::Malformed)?;
        if seq_received == self.seq as i64 {
            self.cansend = false;
            Ok(true)
        } else {
            self.stats.stale_replies += 1;
            CoreMetrics::get().bank_stale_replies.inc();
            Ok(false)
        }
    }

    /// Ends the quiescence window: produces the sealed credit reply,
    /// resets the credit ledger for the new billing period, bumps the
    /// sequence number, lifts the freeze, and returns the buffered send
    /// intents for the caller to resubmit (in arrival order).
    pub fn finish_snapshot(
        &mut self,
        ledger: &mut dyn Ledger,
    ) -> (NetMsg, Vec<(u32, UserAddr, MailKind)>) {
        let credit = encode_credit(ledger.pool(self.id.0).credit);
        let reply = NetMsg::SnapshotReply {
            from: self.id,
            envelope: seal_for_public(&self.bank_key, &credit, &mut self.rng),
        };
        ledger.commit(LedgerRecord::SnapshotMarker { isp: self.id.0 });
        self.cansend = true;
        self.seq += 1;
        let drained = self
            .pending
            .drain(..)
            .map(|p| (p.sender, p.to, p.kind))
            .collect();
        (reply, drained)
    }

    // ------------------------------------------------------------------
    // daily reset
    // ------------------------------------------------------------------

    /// Resets every user's `sent` counter (the paper's end-of-day action).
    pub fn reset_daily(&self, ledger: &mut dyn Ledger) {
        ledger.commit(LedgerRecord::DailyReset { isp: self.id.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use zmail_crypto::KeyPair;
    use zmail_store::Books;

    /// `isps` ISPs of four users each over fresh books.
    fn fixture(isps: u32) -> (Vec<Isp>, Books, KeyPair) {
        let config = ZmailConfig::builder(isps, 4).build();
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(1));
        let nodes = (0..isps)
            .map(|i| Isp::new(IspId(i), &config, *bank.public(), 100 + u64::from(i)))
            .collect();
        (nodes, config.initial_books(), bank)
    }

    /// ISP `id` of `config` over fresh books, keyed to a bank drawn from
    /// seed `bank`.
    fn single(config: &ZmailConfig, id: u32, bank: u64, seed: u64) -> (Isp, Books) {
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(bank));
        let isp = Isp::new(IspId(id), config, *bank.public(), seed);
        (isp, config.initial_books())
    }

    fn addr(isp: u32, user: u32) -> UserAddr {
        UserAddr::new(isp, user)
    }

    #[test]
    fn local_send_transfers_one_epenny() {
        let (mut isps, mut books, _) = fixture(1);
        let isp = &mut isps[0];
        let before_sender = isp.view(&books).user(0).balance;
        let before_receiver = isp.view(&books).user(1).balance;
        let outcome = isp
            .send_email(&mut books, 0, addr(0, 1), MailKind::Personal)
            .unwrap();
        assert_eq!(outcome, SendOutcome::DeliveredLocally);
        let view = isp.view(&books);
        assert_eq!(view.user(0).balance, before_sender - 1);
        assert_eq!(view.user(1).balance, before_receiver + 1);
        assert_eq!(view.user(0).sent_today, 1);
        assert_eq!(view.credit(IspId(0)), 0, "local mail books no credit");
    }

    #[test]
    fn remote_send_debits_and_books_credit() {
        let (mut isps, mut books, _) = fixture(2);
        let outcome = isps[0]
            .send_email(&mut books, 0, addr(1, 2), MailKind::Personal)
            .unwrap();
        match outcome {
            SendOutcome::Outbound {
                to,
                msg: NetMsg::Email(email),
            } => {
                assert_eq!(to, IspId(1));
                assert!(email.paid);
                assert_eq!(email.from, addr(0, 0));
                assert_eq!(email.to, addr(1, 2));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(isps[0].view(&books).credit(IspId(1)), 1);
        assert_eq!(isps[0].view(&books).user(0).balance, 99);
    }

    #[test]
    fn receive_credits_recipient_and_decrements_credit() {
        let (mut isps, mut books, _) = fixture(2);
        let SendOutcome::Outbound {
            msg: NetMsg::Email(email),
            ..
        } = isps[0]
            .send_email(&mut books, 0, addr(1, 2), MailKind::Personal)
            .unwrap()
        else {
            panic!("expected outbound");
        };
        let delivery = isps[1].receive_email(&mut books, IspId(0), &email);
        assert_eq!(delivery, Delivery::Delivered);
        assert_eq!(isps[1].view(&books).user(2).balance, 101);
        assert_eq!(isps[1].view(&books).credit(IspId(0)), -1);
        // Antisymmetry after quiescence.
        assert_eq!(
            isps[0].view(&books).credit(IspId(1)) + isps[1].view(&books).credit(IspId(0)),
            0
        );
    }

    #[test]
    fn empty_balance_bounces() {
        let config = ZmailConfig::builder(2, 2)
            .initial_balance(EPennies::ZERO)
            .build();
        let (mut isp, mut books) = single(&config, 0, 2, 7);
        let err = isp
            .send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
            .unwrap_err();
        assert_eq!(err, SendError::InsufficientBalance);
        assert_eq!(isp.stats().bounced_balance, 1);
    }

    #[test]
    fn daily_limit_bounces_then_resets() {
        let config = ZmailConfig::builder(2, 2).limit(2).build();
        let (mut isp, mut books) = single(&config, 0, 3, 8);
        for _ in 0..2 {
            isp.send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
                .unwrap();
        }
        let err = isp
            .send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
            .unwrap_err();
        assert_eq!(err, SendError::DailyLimitExceeded);
        assert_eq!(isp.stats().bounced_limit, 1);
        isp.reset_daily(&mut books);
        assert!(isp
            .send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
            .is_ok());
    }

    #[test]
    fn send_to_noncompliant_is_free_and_unlimited() {
        let config = ZmailConfig::builder(2, 2)
            .non_compliant(&[1])
            .limit(1)
            .initial_balance(EPennies::ZERO)
            .build();
        let (mut isp, mut books) = single(&config, 0, 4, 9);
        // No balance, limit 1 — yet many unpaid sends all succeed.
        for _ in 0..5 {
            let outcome = isp
                .send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
                .unwrap();
            let SendOutcome::Outbound {
                msg: NetMsg::Email(email),
                ..
            } = outcome
            else {
                panic!("expected outbound");
            };
            assert!(!email.paid);
        }
        assert_eq!(isp.stats().sent_unpaid, 5);
        assert_eq!(
            isp.view(&books).user(0).sent_today,
            0,
            "unpaid sends don't count"
        );
    }

    #[test]
    fn noncompliant_mail_policies() {
        for (policy, expect_delivered) in [
            (NonCompliantPolicy::Deliver, true),
            (NonCompliantPolicy::Discard, false),
        ] {
            let config = ZmailConfig::builder(2, 2)
                .non_compliant(&[0])
                .non_compliant_policy(policy)
                .build();
            let (mut isp, mut books) = single(&config, 1, 5, 10);
            let email = EmailMsg {
                from: addr(0, 0),
                to: addr(1, 1),
                kind: MailKind::Spam,
                paid: false,
                attestation: None,
            };
            let balance_before = isp.view(&books).user(1).balance;
            let delivery = isp.receive_email(&mut books, IspId(0), &email);
            assert_eq!(delivery == Delivery::Delivered, expect_delivered);
            assert_eq!(
                isp.view(&books).user(1).balance,
                balance_before,
                "unpaid mail pays nothing"
            );
        }
    }

    #[test]
    fn filter_policy_drops_spam_keeps_ham_statistically() {
        let config = ZmailConfig::builder(2, 2)
            .non_compliant(&[0])
            .non_compliant_policy(NonCompliantPolicy::Filter {
                false_positive: 0.0,
                false_negative: 0.0,
            })
            .build();
        let (mut isp, mut books) = single(&config, 1, 6, 11);
        let spam = EmailMsg {
            from: addr(0, 0),
            to: addr(1, 0),
            kind: MailKind::Spam,
            paid: false,
            attestation: None,
        };
        let ham = EmailMsg {
            kind: MailKind::Personal,
            ..spam.clone()
        };
        assert_eq!(
            isp.receive_email(&mut books, IspId(0), &spam),
            Delivery::FilteredOut
        );
        assert_eq!(
            isp.receive_email(&mut books, IspId(0), &ham),
            Delivery::Delivered
        );
    }

    #[test]
    fn user_buy_and_sell_move_all_three_ledgers() {
        let (isps, mut books, _) = fixture(1);
        let isp = &isps[0];
        let pool0 = isp.view(&books).avail();
        assert!(isp.user_buy(&mut books, 0, EPennies(50)));
        assert_eq!(isp.view(&books).user(0).balance, 150);
        assert_eq!(isp.view(&books).user(0).account, 950);
        assert_eq!(isp.view(&books).avail(), pool0 - EPennies(50));
        assert!(isp.user_sell(&mut books, 0, EPennies(150)));
        assert_eq!(isp.view(&books).user(0).balance, 0);
        assert_eq!(isp.view(&books).user(0).account, 1_100);
        assert_eq!(isp.view(&books).avail(), pool0 + EPennies(100));
    }

    #[test]
    fn user_buy_refused_without_funds_or_pool() {
        let (isps, mut books, _) = fixture(1);
        let isp = &isps[0];
        assert!(
            !isp.user_buy(&mut books, 0, EPennies(100_000)),
            "pool too small"
        );
        assert!(
            !isp.user_sell(&mut books, 0, EPennies(101)),
            "balance too small"
        );
    }

    /// Sets a row of fresh one-ISP books with `set`, then checks that
    /// `trade` is refused and records nothing: a counter trade whose
    /// record would overflow a row is not left to `Books::apply` to
    /// panic on.
    fn assert_trade_refused(set: fn(&mut Books), trade: fn(&Isp, &mut Books) -> bool) {
        let (isps, mut books, _) = fixture(1);
        set(&mut books);
        let before = books.clone();
        assert!(!trade(&isps[0], &mut books), "the trade went through");
        assert_eq!(books, before, "a refused trade recorded something");
    }

    #[test]
    fn a_sell_that_would_overflow_the_account_or_pool_is_refused_not_a_panic() {
        let sell = |isp: &Isp, books: &mut Books| isp.user_sell(books, 0, EPennies(100));
        assert_trade_refused(|b| b.isps[0].users[0].account = i64::MAX - 10, sell);
        assert_trade_refused(|b| b.isps[0].avail = i64::MAX - 10, sell);
    }

    #[test]
    fn a_buy_that_would_overflow_the_balance_is_refused_not_a_panic() {
        assert_trade_refused(
            |b| b.isps[0].users[0].balance = i64::MAX - 10,
            |isp, books| isp.user_buy(books, 0, EPennies(50)),
        );
    }

    #[test]
    fn auto_topup_only_below_threshold() {
        let (isps, mut books, _) = fixture(1);
        let isp = &isps[0];
        assert!(!isp.auto_topup(&mut books, 0, EPennies(50), EPennies(10)));
        // Drain the balance below 50.
        assert!(isp.user_sell(&mut books, 0, EPennies(60)));
        assert!(isp.auto_topup(&mut books, 0, EPennies(50), EPennies(10)));
        assert_eq!(isp.view(&books).user(0).balance, 50);
    }

    // The §4.3 exchange is tested against the real bank, both sides in
    // one table: `bank::tests::exchange_table`.

    #[test]
    fn snapshot_freezes_buffers_and_flushes() {
        let (mut isps, mut books, bank) = fixture(2);
        let mut rng = SmallRng::seed_from_u64(20);
        let request =
            zmail_crypto::seal_with_private(bank.private(), &encode_value_nonce(0, 999), &mut rng);
        assert!(isps[0].handle_snapshot_request(&request).unwrap());
        assert!(isps[0].is_frozen());
        // Sends during the freeze are buffered, not charged.
        let outcome = isps[0]
            .send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
            .unwrap();
        assert_eq!(outcome, SendOutcome::Buffered);
        assert_eq!(isps[0].view(&books).user(0).balance, 100, "no debit yet");
        assert_eq!(isps[0].pending_sends(), 1);
        // Replayed request (same seq... now stale after finish) first:
        let (reply, drained) = isps[0].finish_snapshot(&mut books);
        assert!(matches!(reply, NetMsg::SnapshotReply { from, .. } if from == IspId(0)));
        assert_eq!(drained.len(), 1);
        assert!(!isps[0].is_frozen());
        // The old request is now stale (seq moved to 1): no re-freeze.
        assert!(!isps[0].handle_snapshot_request(&request).unwrap());
        assert!(!isps[0].is_frozen());
    }

    #[test]
    fn snapshot_reply_carries_credit_and_resets_it() {
        let (mut isps, mut books, bank) = fixture(2);
        isps[0]
            .send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
            .unwrap();
        isps[0]
            .send_email(&mut books, 1, addr(1, 1), MailKind::Personal)
            .unwrap();
        assert_eq!(isps[0].view(&books).credit(IspId(1)), 2);
        let (reply, _) = isps[0].finish_snapshot(&mut books);
        let NetMsg::SnapshotReply { envelope, .. } = reply else {
            panic!("expected snapshot reply");
        };
        let plain = zmail_crypto::open_with_private(bank.private(), &envelope).unwrap();
        let credit = crate::msg::decode_credit(&plain).unwrap();
        assert_eq!(credit, vec![0, 2]);
        assert_eq!(
            isps[0].view(&books).credit(IspId(1)),
            0,
            "new billing period"
        );
    }

    #[test]
    fn cheating_isp_underreports_credit() {
        let config = ZmailConfig::builder(2, 2)
            .cheat(0, CheatMode::UnderReportSends { fraction: 1.0 })
            .build();
        let (mut isp, mut books) = single(&config, 0, 21, 22);
        isp.send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
            .unwrap();
        assert_eq!(isp.view(&books).credit(IspId(1)), 0, "cheat hides the send");
        assert_eq!(isp.view(&books).user(0).balance, 99, "user still charged");
    }

    #[test]
    fn inflating_isp_overreports_credit() {
        let config = ZmailConfig::builder(2, 2)
            .cheat(0, CheatMode::InflateSends { fraction: 1.0 })
            .build();
        let (mut isp, mut books) = single(&config, 0, 23, 24);
        isp.send_email(&mut books, 0, addr(1, 0), MailKind::Personal)
            .unwrap();
        assert_eq!(isp.view(&books).credit(IspId(1)), 2);
    }

    #[test]
    fn total_user_balances_sums() {
        let (isps, books, _) = fixture(1);
        assert_eq!(isps[0].view(&books).total_user_balances(), EPennies(400));
    }
}
