//! The compliant ISP process (§4.1–4.3 of the paper).
//!
//! [`Isp`] is a pure state machine: every method either mutates local
//! ledgers or returns a [`NetMsg`] for the caller to put on the wire, so
//! the same implementation runs under the discrete-event harness
//! ([`crate::system`]), under unit tests, and behind the SMTP bridge.
//!
//! The durable ledgers are one [`IspBooks`], and every change to them is
//! a [`LedgerRecord`]: a mutation site checks the paper's guard, then
//! `commit`s the record, which applies it through
//! [`IspBooks::apply`] — the same function WAL replay runs — and, with
//! durability on, journals it. They mirror the paper's variables exactly:
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
use zmail_crypto::{
    open_with_public, seal_for_public, Attestation, CryptoError, Nnc, Nonce, PrivateKey, PublicKey,
};
use zmail_econ::EPennies;
use zmail_sim::workload::{MailKind, UserAddr};
use zmail_store::{IspBooks, LedgerRecord, UserBooks};

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

/// Why an attestation-checking receiver refused a paid message.
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
}

impl fmt::Display for RefusalCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefusalCause::MissingAttestation => write!(f, "missing attestation"),
            RefusalCause::BadSignature => write!(f, "bad signature"),
            RefusalCause::FieldMismatch => write!(f, "field mismatch"),
            RefusalCause::ReplayedNonce => write!(f, "replayed nonce"),
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
    /// Refused by attestation verification: no credit moved, the message
    /// never reached a mailbox, and the cause attributes the attack.
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
/// let bank = KeyPair::generate(&mut rand::rngs::SmallRng::seed_from_u64(1));
/// let mut isp = Isp::new(IspId(0), &config, *bank.public(), 7);
/// // User 0 mails user 2 of the peer ISP: one e-penny leaves with it.
/// let outcome = isp.send_email(0, UserAddr::new(1, 2), MailKind::Personal)?;
/// assert!(matches!(outcome, SendOutcome::Outbound { .. }));
/// assert_eq!(isp.user(0).balance, 99);
/// assert_eq!(isp.credit(IspId(1)), 1);
/// # Ok::<(), zmail_core::SendError>(())
/// ```
#[derive(Debug)]
pub struct Isp {
    id: IspId,
    compliant: Vec<bool>,
    cheat: CheatMode,
    policy: NonCompliantPolicy,
    /// The durable ledgers: users, pool, per-peer credit and the
    /// accepted attestation nonces (checkpointed, so a crash/restart
    /// cannot be farmed for double refunds). Changed only by
    /// [`Isp::commit`].
    books: IspBooks,
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
    journal_enabled: bool,
    journal: Vec<LedgerRecord>,
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

impl Isp {
    /// Creates the ISP process from the shared configuration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the configuration.
    pub fn new(id: IspId, config: &ZmailConfig, bank_key: PublicKey, seed: u64) -> Self {
        config.validate();
        assert!(id.0 < config.isps, "isp id out of range");
        let user = UserBooks {
            account: config.initial_account.0,
            balance: config.initial_balance.0,
            sent_today: 0,
            limit: config.default_limit,
        };
        Isp {
            id,
            compliant: config.compliant.clone(),
            cheat: config.cheat_modes[id.index()],
            policy: config.non_compliant_policy,
            books: IspBooks {
                users: vec![user; config.users_per_isp as usize],
                avail: config.initial_avail.0,
                credit: vec![0; config.isps as usize],
                nonces: Vec::new(),
            },
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
            journal_enabled: config.durability.is_some(),
            journal: Vec::new(),
            attest_key: None,
            peer_keys: Vec::new(),
            attest_seq: 0,
            refund_ctx: None,
            attest_on: config.attestations,
            attest_weakness: config.attest_weakness,
        }
    }

    /// The one way the durable ledgers change: applies `rec` to the
    /// books and, with durability on, journals it.
    fn commit(&mut self, rec: LedgerRecord) {
        self.books.apply(&rec);
        if self.journal_enabled {
            self.journal.push(rec);
        }
    }

    /// Takes every ledger record journaled since the last drain, in
    /// mutation order. Empty unless the configuration enables
    /// durability.
    pub fn drain_journal(&mut self) -> Vec<LedgerRecord> {
        std::mem::take(&mut self.journal)
    }

    /// The durable books this ISP would checkpoint: exactly the state
    /// `zmail-store` recovery reconstructs after a crash.
    pub fn books(&self) -> &IspBooks {
        &self.books
    }

    /// Installs recovered books, replacing the durable ledgers. Volatile
    /// session state (nonces, pending sends, freeze flags) is untouched:
    /// the retransmission protocol rebuilds it.
    ///
    /// # Panics
    ///
    /// Panics if the books describe a different deployment shape.
    pub fn restore_books(&mut self, books: &IspBooks) {
        let live = &self.books;
        assert_eq!(books.users.len(), live.users.len(), "user count mismatch");
        assert_eq!(books.credit.len(), live.credit.len(), "peer count mismatch");
        self.books = books.clone();
    }

    /// This ISP's id.
    pub fn id(&self) -> IspId {
        self.id
    }

    /// Whether sends are currently frozen for a snapshot.
    pub fn is_frozen(&self) -> bool {
        !self.cansend
    }

    /// The user ledger, for assertions and experiments.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn user(&self, user: u32) -> &UserBooks {
        &self.books.users[user as usize]
    }

    /// Sets one user's daily limit (the user-specified value of §5).
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn set_limit(&mut self, user: u32, limit: u32) {
        self.commit(LedgerRecord::LimitSet {
            isp: self.id.0,
            user,
            limit,
        });
    }

    /// Grants a user e-pennies directly (test/experiment setup shortcut;
    /// production top-ups go through [`Isp::user_buy`]).
    pub fn grant_balance(&mut self, user: u32, amount: EPennies) {
        self.commit(LedgerRecord::Grant {
            isp: self.id.0,
            user,
            amount: amount.0,
        });
    }

    /// The ISP's e-penny pool.
    pub fn avail(&self) -> EPennies {
        EPennies(self.books.avail)
    }

    /// The credit ledger entry for `peer`.
    pub fn credit(&self, peer: IspId) -> i64 {
        self.books.credit[peer.index()]
    }

    /// Sum of all user balances (for conservation audits).
    pub fn total_user_balances(&self) -> EPennies {
        EPennies(self.books.users.iter().map(|u| u.balance).sum())
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
    /// via the journal — so it can never be accepted twice.
    fn verify_attestation(
        &mut self,
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
        if self.books.nonces.binary_search(&nonce).is_err() {
            self.commit(LedgerRecord::NonceSeen {
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
    /// Returns [`SendError`] when the sender's balance or daily limit
    /// refuses a paid send. Unpaid sends to non-compliant ISPs are never
    /// refused.
    ///
    /// # Panics
    ///
    /// Panics if `sender` or `to` reference out-of-range users.
    pub fn send_email(
        &mut self,
        sender: u32,
        to: UserAddr,
        kind: MailKind,
    ) -> Result<SendOutcome, SendError> {
        assert!(
            (sender as usize) < self.books.users.len(),
            "sender out of range"
        );
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
            self.charge_sender(sender)?;
            self.commit(LedgerRecord::Deposit {
                isp: self.id.0,
                user: to.user,
            });
            self.stats.delivered_local += 1;
            CoreMetrics::get().transfers_local.inc();
            return Ok(SendOutcome::DeliveredLocally);
        }
        if self.compliant[dest.index()] {
            self.charge_sender(sender)?;
            self.book_credit(dest);
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
    pub fn check_sends(&mut self, sender: u32, n: u32) -> Result<(), SendError> {
        let verdict = self.books.users[sender as usize].check_sends(n);
        match verdict {
            Err(SendError::InsufficientBalance) => {
                self.stats.bounced_balance += 1;
                CoreMetrics::get().reject_balance.inc();
            }
            Err(SendError::DailyLimitExceeded) => {
                self.stats.bounced_limit += 1;
                CoreMetrics::get().reject_limit.inc();
            }
            Ok(()) => {}
        }
        verdict
    }

    fn charge_sender(&mut self, sender: u32) -> Result<(), SendError> {
        self.check_sends(sender, 1)?;
        self.commit(LedgerRecord::Charge {
            isp: self.id.0,
            user: sender,
        });
        Ok(())
    }

    /// Applies the configured cheat when booking an outbound credit.
    fn book_credit(&mut self, dest: IspId) {
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
            self.commit(LedgerRecord::CreditDelta {
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
    pub fn receive_email(&mut self, from_isp: IspId, email: &EmailMsg) -> Delivery {
        assert_eq!(email.to.isp, self.id.0, "misrouted email");
        assert!(
            (email.to.user as usize) < self.books.users.len(),
            "unknown recipient"
        );
        if self.compliant[from_isp.index()] && email.paid {
            if self.attest_on {
                if let Err(cause) = self.verify_attestation(from_isp, email) {
                    self.stats.refused_attestations += 1;
                    return Delivery::Refused(cause);
                }
            }
            self.commit(LedgerRecord::Deposit {
                isp: self.id.0,
                user: email.to.user,
            });
            self.commit(LedgerRecord::CreditDelta {
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
    /// Returns `true` when the purchase happened (the paper's guard:
    /// sufficient account and pool, both positive).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `x` is negative.
    pub fn user_buy(&mut self, t: u32, x: EPennies) -> bool {
        assert!(!x.is_negative(), "cannot buy a negative amount");
        // 1:1 at the ISP counter: `x` e-pennies cost `x` real pennies.
        if self.books.users[t as usize].account >= x.0 && self.books.avail >= x.0 {
            self.commit(LedgerRecord::UserBuy {
                isp: self.id.0,
                user: t,
                amount: x.0,
            });
            true
        } else {
            false
        }
    }

    /// User `t` sells `x` e-pennies back for real money.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `x` is negative.
    pub fn user_sell(&mut self, t: u32, x: EPennies) -> bool {
        assert!(!x.is_negative(), "cannot sell a negative amount");
        if self.books.users[t as usize].balance >= x.0 {
            self.commit(LedgerRecord::UserSell {
                isp: self.id.0,
                user: t,
                amount: x.0,
            });
            true
        } else {
            false
        }
    }

    /// Tops up `t`'s balance if it fell below the configured threshold.
    /// Returns whether a purchase happened.
    pub fn auto_topup(&mut self, t: u32, below: EPennies, amount: EPennies) -> bool {
        if self.books.users[t as usize].balance < below.0 {
            self.user_buy(t, amount)
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
    pub fn maybe_exchange(&mut self, side: Exchange) -> Option<NetMsg> {
        let avail = self.books.avail;
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
                    self.commit(LedgerRecord::PoolBuy { isp, amount: value });
                }
            }
            Exchange::Sell => {
                CoreMetrics::get().bank_sell_roundtrips.inc();
                self.commit(LedgerRecord::PoolSell { isp, amount: value });
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
    pub fn finish_snapshot(&mut self) -> (NetMsg, Vec<(u32, UserAddr, MailKind)>) {
        let reply = NetMsg::SnapshotReply {
            from: self.id,
            envelope: seal_for_public(
                &self.bank_key,
                &encode_credit(&self.books.credit),
                &mut self.rng,
            ),
        };
        self.commit(LedgerRecord::SnapshotMarker { isp: self.id.0 });
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
    pub fn reset_daily(&mut self) {
        self.commit(LedgerRecord::DailyReset { isp: self.id.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use zmail_crypto::KeyPair;

    fn fixture(isps: u32) -> (Vec<Isp>, KeyPair) {
        let config = ZmailConfig::builder(isps, 4).build();
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(1));
        let nodes = (0..isps)
            .map(|i| Isp::new(IspId(i), &config, *bank.public(), 100 + u64::from(i)))
            .collect();
        (nodes, bank)
    }

    fn addr(isp: u32, user: u32) -> UserAddr {
        UserAddr::new(isp, user)
    }

    #[test]
    fn local_send_transfers_one_epenny() {
        let (mut isps, _) = fixture(1);
        let isp = &mut isps[0];
        let before_sender = isp.user(0).balance;
        let before_receiver = isp.user(1).balance;
        let outcome = isp.send_email(0, addr(0, 1), MailKind::Personal).unwrap();
        assert_eq!(outcome, SendOutcome::DeliveredLocally);
        assert_eq!(isp.user(0).balance, before_sender - 1);
        assert_eq!(isp.user(1).balance, before_receiver + 1);
        assert_eq!(isp.user(0).sent_today, 1);
        assert_eq!(isp.credit(IspId(0)), 0, "local mail books no credit");
    }

    #[test]
    fn remote_send_debits_and_books_credit() {
        let (mut isps, _) = fixture(2);
        let outcome = isps[0]
            .send_email(0, addr(1, 2), MailKind::Personal)
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
        assert_eq!(isps[0].credit(IspId(1)), 1);
        assert_eq!(isps[0].user(0).balance, 99);
    }

    #[test]
    fn receive_credits_recipient_and_decrements_credit() {
        let (mut isps, _) = fixture(2);
        let SendOutcome::Outbound {
            msg: NetMsg::Email(email),
            ..
        } = isps[0]
            .send_email(0, addr(1, 2), MailKind::Personal)
            .unwrap()
        else {
            panic!("expected outbound");
        };
        let delivery = isps[1].receive_email(IspId(0), &email);
        assert_eq!(delivery, Delivery::Delivered);
        assert_eq!(isps[1].user(2).balance, 101);
        assert_eq!(isps[1].credit(IspId(0)), -1);
        // Antisymmetry after quiescence.
        assert_eq!(isps[0].credit(IspId(1)) + isps[1].credit(IspId(0)), 0);
    }

    #[test]
    fn empty_balance_bounces() {
        let config = ZmailConfig::builder(2, 2)
            .initial_balance(EPennies::ZERO)
            .build();
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(2));
        let mut isp = Isp::new(IspId(0), &config, *bank.public(), 7);
        let err = isp
            .send_email(0, addr(1, 0), MailKind::Personal)
            .unwrap_err();
        assert_eq!(err, SendError::InsufficientBalance);
        assert_eq!(isp.stats().bounced_balance, 1);
    }

    #[test]
    fn daily_limit_bounces_then_resets() {
        let config = ZmailConfig::builder(2, 2).limit(2).build();
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(3));
        let mut isp = Isp::new(IspId(0), &config, *bank.public(), 8);
        for _ in 0..2 {
            isp.send_email(0, addr(1, 0), MailKind::Personal).unwrap();
        }
        let err = isp
            .send_email(0, addr(1, 0), MailKind::Personal)
            .unwrap_err();
        assert_eq!(err, SendError::DailyLimitExceeded);
        assert_eq!(isp.stats().bounced_limit, 1);
        isp.reset_daily();
        assert!(isp.send_email(0, addr(1, 0), MailKind::Personal).is_ok());
    }

    #[test]
    fn send_to_noncompliant_is_free_and_unlimited() {
        let config = ZmailConfig::builder(2, 2)
            .non_compliant(&[1])
            .limit(1)
            .initial_balance(EPennies::ZERO)
            .build();
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(4));
        let mut isp = Isp::new(IspId(0), &config, *bank.public(), 9);
        // No balance, limit 1 — yet many unpaid sends all succeed.
        for _ in 0..5 {
            let outcome = isp.send_email(0, addr(1, 0), MailKind::Personal).unwrap();
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
        assert_eq!(isp.user(0).sent_today, 0, "unpaid sends don't count");
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
            let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(5));
            let mut isp = Isp::new(IspId(1), &config, *bank.public(), 10);
            let email = EmailMsg {
                from: addr(0, 0),
                to: addr(1, 1),
                kind: MailKind::Spam,
                paid: false,
                attestation: None,
            };
            let balance_before = isp.user(1).balance;
            let delivery = isp.receive_email(IspId(0), &email);
            assert_eq!(delivery == Delivery::Delivered, expect_delivered);
            assert_eq!(
                isp.user(1).balance,
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
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(6));
        let mut isp = Isp::new(IspId(1), &config, *bank.public(), 11);
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
        assert_eq!(isp.receive_email(IspId(0), &spam), Delivery::FilteredOut);
        assert_eq!(isp.receive_email(IspId(0), &ham), Delivery::Delivered);
    }

    #[test]
    fn user_buy_and_sell_move_all_three_ledgers() {
        let (mut isps, _) = fixture(1);
        let isp = &mut isps[0];
        let pool0 = isp.avail();
        assert!(isp.user_buy(0, EPennies(50)));
        assert_eq!(isp.user(0).balance, 150);
        assert_eq!(isp.user(0).account, 950);
        assert_eq!(isp.avail(), pool0 - EPennies(50));
        assert!(isp.user_sell(0, EPennies(150)));
        assert_eq!(isp.user(0).balance, 0);
        assert_eq!(isp.user(0).account, 1_100);
        assert_eq!(isp.avail(), pool0 + EPennies(100));
    }

    #[test]
    fn user_buy_refused_without_funds_or_pool() {
        let (mut isps, _) = fixture(1);
        let isp = &mut isps[0];
        assert!(!isp.user_buy(0, EPennies(100_000)), "pool too small");
        assert!(!isp.user_sell(0, EPennies(101)), "balance too small");
    }

    #[test]
    fn auto_topup_only_below_threshold() {
        let (mut isps, _) = fixture(1);
        let isp = &mut isps[0];
        assert!(!isp.auto_topup(0, EPennies(50), EPennies(10)));
        // Drain the balance below 50.
        assert!(isp.user_sell(0, EPennies(60)));
        assert!(isp.auto_topup(0, EPennies(50), EPennies(10)));
        assert_eq!(isp.user(0).balance, 50);
    }

    // The §4.3 exchange is tested against the real bank, both sides in
    // one table: `bank::tests::exchange_table`.

    #[test]
    fn snapshot_freezes_buffers_and_flushes() {
        let (mut isps, bank) = fixture(2);
        let mut rng = SmallRng::seed_from_u64(20);
        let request =
            zmail_crypto::seal_with_private(bank.private(), &encode_value_nonce(0, 999), &mut rng);
        assert!(isps[0].handle_snapshot_request(&request).unwrap());
        assert!(isps[0].is_frozen());
        // Sends during the freeze are buffered, not charged.
        let outcome = isps[0]
            .send_email(0, addr(1, 0), MailKind::Personal)
            .unwrap();
        assert_eq!(outcome, SendOutcome::Buffered);
        assert_eq!(isps[0].user(0).balance, 100, "no debit yet");
        assert_eq!(isps[0].pending_sends(), 1);
        // Replayed request (same seq... now stale after finish) first:
        let (reply, drained) = isps[0].finish_snapshot();
        assert!(matches!(reply, NetMsg::SnapshotReply { from, .. } if from == IspId(0)));
        assert_eq!(drained.len(), 1);
        assert!(!isps[0].is_frozen());
        // The old request is now stale (seq moved to 1): no re-freeze.
        assert!(!isps[0].handle_snapshot_request(&request).unwrap());
        assert!(!isps[0].is_frozen());
    }

    #[test]
    fn snapshot_reply_carries_credit_and_resets_it() {
        let (mut isps, bank) = fixture(2);
        isps[0]
            .send_email(0, addr(1, 0), MailKind::Personal)
            .unwrap();
        isps[0]
            .send_email(1, addr(1, 1), MailKind::Personal)
            .unwrap();
        assert_eq!(isps[0].credit(IspId(1)), 2);
        let (reply, _) = isps[0].finish_snapshot();
        let NetMsg::SnapshotReply { envelope, .. } = reply else {
            panic!("expected snapshot reply");
        };
        let plain = zmail_crypto::open_with_private(bank.private(), &envelope).unwrap();
        let credit = crate::msg::decode_credit(&plain).unwrap();
        assert_eq!(credit, vec![0, 2]);
        assert_eq!(isps[0].credit(IspId(1)), 0, "new billing period");
    }

    #[test]
    fn cheating_isp_underreports_credit() {
        let config = ZmailConfig::builder(2, 2)
            .cheat(0, CheatMode::UnderReportSends { fraction: 1.0 })
            .build();
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(21));
        let mut isp = Isp::new(IspId(0), &config, *bank.public(), 22);
        isp.send_email(0, addr(1, 0), MailKind::Personal).unwrap();
        assert_eq!(isp.credit(IspId(1)), 0, "cheat hides the send");
        assert_eq!(isp.user(0).balance, 99, "user still charged");
    }

    #[test]
    fn inflating_isp_overreports_credit() {
        let config = ZmailConfig::builder(2, 2)
            .cheat(0, CheatMode::InflateSends { fraction: 1.0 })
            .build();
        let bank = KeyPair::generate(&mut SmallRng::seed_from_u64(23));
        let mut isp = Isp::new(IspId(0), &config, *bank.public(), 24);
        isp.send_email(0, addr(1, 0), MailKind::Personal).unwrap();
        assert_eq!(isp.credit(IspId(1)), 2);
    }

    #[test]
    fn total_user_balances_sums() {
        let (isps, _) = fixture(1);
        assert_eq!(isps[0].total_user_balances(), EPennies(400));
    }
}
