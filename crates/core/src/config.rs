//! Protocol parameters and policies.

use crate::ids::IspId;
use zmail_econ::{EPennies, ExchangeRate, RealPennies};
use zmail_fault::{ChannelFault, Fault, FaultPlan, MsgClass};
use zmail_sim::SimDuration;
use zmail_store::{BankBooks, Books, IspBooks, StoreConfig, UserBooks};

/// The population-scale ledger's settings ([`MassiveConfig`]'s): WAL
/// tuning and the shard count of its
/// [`ShardedLedgerStore`](zmail_store::ShardedLedgerStore). The driver's
/// `commit_all` ends every tick, and by default that is the only commit:
/// the default `store` never fills a batch — the tuning
/// [`ZmailConfigBuilder::durable`] gives the protocol world's one-shard
/// store too, one group commit per event there (1.62 syncs a mail on the
/// benchmark's `sim_world`), so a kill lands on an event boundary and a
/// torn write on a frame boundary inside the last event. An explicit
/// `batch_records` commits earlier as well — at 1, every record alone, as
/// [`StoreConfig::default`] does.
///
/// [`MassiveConfig`]: crate::MassiveConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// WAL/checkpoint tuning passed through to every shard's engine.
    pub store: StoreConfig,
    /// Ledger shards: accounts are hashed across this many independent
    /// WAL engines (see `zmail_store::shard`).
    pub shards: u32,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            // Never full: the driver's `commit_all` ends the batch.
            store: StoreConfig {
                batch_records: usize::MAX,
                ..StoreConfig::default()
            },
            shards: 1,
        }
    }
}

/// What a compliant ISP does with mail arriving from a non-compliant ISP.
///
/// §5 of the paper: *"a user in a compliant ISP may decide to segregate or
/// discard email from non-compliant ISPs, or require any email from a
/// non-compliant ISP to pass a spam filter."*
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NonCompliantPolicy {
    /// Deliver unconditionally (the paper's default during early
    /// deployment).
    Deliver,
    /// Discard unconditionally (late-deployment hard line).
    Discard,
    /// Pass through a spam filter with the given false-positive rate (a
    /// legitimate message wrongly dropped) and false-negative rate (spam
    /// wrongly delivered).
    Filter {
        /// Probability a legitimate message is dropped.
        false_positive: f64,
        /// Probability a spam message is delivered.
        false_negative: f64,
    },
}

/// How a misbehaving ISP cheats, for the §4.4 detection experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheatMode {
    /// Follows the protocol.
    Honest,
    /// Skips incrementing `credit[j]` on a fraction of paid sends —
    /// under-reporting what it owes the rest of the system.
    UnderReportSends {
        /// Fraction of sends left off the books, in `(0, 1]`.
        fraction: f64,
    },
    /// Inflates `credit[j]` by one extra on a fraction of sends — claiming
    /// transfers that never happened.
    InflateSends {
        /// Fraction of sends double-booked, in `(0, 1]`.
        fraction: f64,
    },
}

impl CheatMode {
    /// Whether this mode deviates from the protocol at all.
    pub fn is_dishonest(self) -> bool {
        !matches!(self, CheatMode::Honest)
    }
}

/// A deliberately weakened attestation verifier, for the adversary
/// campaigns' *self-test*: disable exactly one defense, rerun the attack
/// campaign, and assert the audits now flag what the defense was
/// silently absorbing. Never set in production configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestWeakness {
    /// Receivers skip the signature check: any attestation-shaped bytes
    /// pass, so forged payment claims mint e-pennies.
    SkipSignatureCheck,
    /// Receivers skip the seen-nonce check: replayed acks refund twice.
    SkipReplayCheck,
    /// Receivers skip the field-binding check: a signature lifted from
    /// one message validates another (cut-and-paste forgery).
    SkipBindingCheck,
}

/// Full parameterization of a Zmail deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ZmailConfig {
    /// Number of ISPs (the paper's `n`).
    pub isps: u32,
    /// Users per ISP (the paper's `m`).
    pub users_per_isp: u32,
    /// Which ISPs run the protocol (the paper's `compliant` array).
    pub compliant: Vec<bool>,
    /// Per-user daily send limit (the paper's `limit`, uniform here;
    /// individual users can be overridden after construction).
    pub default_limit: u32,
    /// Initial e-penny balance per user.
    pub initial_balance: EPennies,
    /// Initial real-money account per user (held at the ISP).
    pub initial_account: RealPennies,
    /// Lower threshold on the ISP's e-penny pool (the paper's `minavail`).
    pub minavail: EPennies,
    /// Upper threshold on the pool (the paper's `maxavail`).
    pub maxavail: EPennies,
    /// Each ISP's initial pool.
    pub initial_avail: EPennies,
    /// Each ISP's initial real-money account at the bank.
    pub initial_bank_account: RealPennies,
    /// Bank exchange rate.
    pub exchange_rate: ExchangeRate,
    /// One-way network latency between any two parties.
    pub net_latency: SimDuration,
    /// The snapshot quiescence window (the paper suggests 10 minutes).
    pub snapshot_timeout: SimDuration,
    /// How often the bank gathers credit arrays (the paper suggests weekly
    /// or monthly).
    pub billing_period: SimDuration,
    /// Receive-side policy for mail from non-compliant ISPs.
    pub non_compliant_policy: NonCompliantPolicy,
    /// When a user's balance falls below this, they buy e-pennies from
    /// their ISP with real money (`None` disables auto top-up).
    pub auto_topup_below: Option<EPennies>,
    /// How many e-pennies an auto top-up purchases.
    pub topup_amount: EPennies,
    /// Per-ISP cheating behaviour, for misbehavior-detection experiments.
    pub cheat_modes: Vec<CheatMode>,
    /// The fault plan applied to every network message (see
    /// `zmail-fault`). The paper assumes reliable channels; experiments
    /// E13/E15 and the fault-scenario harness quantify what goes wrong
    /// without them. Empty by default.
    pub faults: FaultPlan,
    /// If set, an ISP whose buy/sell exchange has not completed after this
    /// long retransmits with a **fresh nonce** (the paper's replay guard
    /// rejects identical retransmissions — see experiment E15).
    pub bank_retry_after: Option<SimDuration>,
    /// If set, buy/sell retransmissions reuse the **same nonce** and the
    /// bank answers replays from a cached reply instead of rejecting
    /// them — the idempotent request ids that close E15's stranded-penny
    /// gap. Meaningful only together with `bank_retry_after`.
    pub idempotent_bank_ids: bool,
    /// Number of regional banks (1 = the paper's central bank; more
    /// engages the §5 federation with round-robin ISP assignment).
    pub banks: u32,
    /// When set, the deployment's books live in a one-shard
    /// [`ShardedLedgerStore`](zmail_store::ShardedLedgerStore) with this tuning, so
    /// every ledger mutation is journaled, and crash windows restart ISPs
    /// from recovery (`None` keeps the seed behaviour: in-memory books,
    /// warm restarts).
    pub durability: Option<StoreConfig>,
    /// When true, every paid cross-ISP email carries a signed payment
    /// [`Attestation`](zmail_crypto::Attestation) (the SMTP mapping's
    /// `X-Zmail-Sig`), receivers verify signature, field binding, and
    /// nonce freshness before crediting, and accepted nonces are
    /// journaled durably. Off by default: legacy runs stay byte-identical.
    pub attestations: bool,
    /// Deliberately disables one attestation defense (see
    /// [`AttestWeakness`]) so the adversary campaigns can prove the
    /// audits catch what the defense normally absorbs. `None` in every
    /// real deployment.
    pub attest_weakness: Option<AttestWeakness>,
}

impl ZmailConfig {
    /// Starts a builder for `isps` ISPs with `users_per_isp` users each,
    /// all compliant, with the defaults the paper implies: 10-minute
    /// snapshot window, monthly billing, one-cent e-pennies.
    pub fn builder(isps: u32, users_per_isp: u32) -> ZmailConfigBuilder {
        ZmailConfigBuilder {
            config: ZmailConfig {
                isps,
                users_per_isp,
                compliant: vec![true; isps as usize],
                default_limit: 100,
                initial_balance: EPennies(100),
                initial_account: RealPennies(1_000),
                minavail: EPennies(1_000),
                maxavail: EPennies(10_000),
                initial_avail: EPennies(5_000),
                initial_bank_account: RealPennies(1_000_000),
                exchange_rate: ExchangeRate::default(),
                net_latency: SimDuration::from_millis(50),
                snapshot_timeout: SimDuration::from_mins(10),
                billing_period: SimDuration::from_days(30),
                non_compliant_policy: NonCompliantPolicy::Deliver,
                auto_topup_below: Some(EPennies(10)),
                topup_amount: EPennies(100),
                cheat_modes: vec![CheatMode::Honest; isps as usize],
                faults: FaultPlan::none(),
                bank_retry_after: None,
                idempotent_bank_ids: false,
                banks: 1,
                durability: None,
                attestations: false,
                attest_weakness: None,
            },
        }
    }

    /// Whether `isp` is compliant.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn is_compliant(&self, isp: IspId) -> bool {
        self.compliant[isp.index()]
    }

    /// Ids of all compliant ISPs.
    pub fn compliant_isps(&self) -> Vec<IspId> {
        (0..self.isps)
            .map(IspId)
            .filter(|&i| self.compliant[i.index()])
            .collect()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if vector lengths disagree with `isps` or thresholds are
    /// inverted — configuration bugs that should fail fast.
    pub fn validate(&self) {
        assert!(self.isps >= 1, "need at least one ISP");
        assert!(self.users_per_isp >= 1, "need at least one user per ISP");
        assert_eq!(
            self.compliant.len(),
            self.isps as usize,
            "compliant array length mismatch"
        );
        assert_eq!(
            self.cheat_modes.len(),
            self.isps as usize,
            "cheat_modes length mismatch"
        );
        assert!(self.minavail <= self.maxavail, "minavail exceeds maxavail");
        assert!(
            self.banks >= 1 && self.banks <= self.isps,
            "banks must be in 1..=isps"
        );
        assert!(
            !self.initial_balance.is_negative() && !self.initial_avail.is_negative(),
            "negative initial holdings"
        );
        assert!(
            self.attest_weakness.is_none() || self.attestations,
            "attest_weakness requires attestations"
        );
        self.faults.validate(self.isps);
    }

    /// The deployment's books at time zero — every ISP's users, pool and
    /// credit row, and one bank ledger per configured bank. The one place
    /// they are built: the protocol world, the SMTP gateway and every
    /// standalone [`Isp`](crate::isp::Isp) or
    /// [`Federation`](crate::bank::Federation) start from them.
    pub fn initial_books(&self) -> Books {
        let user = UserBooks {
            account: self.initial_account.0,
            balance: self.initial_balance.0,
            sent_today: 0,
            limit: self.default_limit,
        };
        let n = self.isps as usize;
        let isp = IspBooks {
            users: vec![user; self.users_per_isp as usize],
            avail: self.initial_avail.0,
            credit: vec![0; n],
            nonces: Vec::new(),
        };
        let bank = BankBooks {
            accounts: vec![self.initial_bank_account.0; n],
            issued: 0,
        };
        Books {
            isps: vec![isp; n],
            banks: vec![bank; self.banks as usize],
        }
    }
}

/// Builder for [`ZmailConfig`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct ZmailConfigBuilder {
    config: ZmailConfig,
}

impl ZmailConfigBuilder {
    /// Marks ISPs as non-compliant.
    pub fn non_compliant(mut self, ids: &[u32]) -> Self {
        for &id in ids {
            self.config.compliant[id as usize] = false;
        }
        self
    }

    /// Sets the uniform per-user daily limit.
    pub fn limit(mut self, limit: u32) -> Self {
        self.config.default_limit = limit;
        self
    }

    /// Sets the initial per-user e-penny balance.
    pub fn initial_balance(mut self, balance: EPennies) -> Self {
        self.config.initial_balance = balance;
        self
    }

    /// Sets the snapshot quiescence window.
    pub fn snapshot_timeout(mut self, timeout: SimDuration) -> Self {
        self.config.snapshot_timeout = timeout;
        self
    }

    /// Sets the billing period between credit reconciliations.
    pub fn billing_period(mut self, period: SimDuration) -> Self {
        self.config.billing_period = period;
        self
    }

    /// Sets the one-way network latency.
    pub fn net_latency(mut self, latency: SimDuration) -> Self {
        self.config.net_latency = latency;
        self
    }

    /// Sets the receive policy for mail from non-compliant ISPs.
    pub fn non_compliant_policy(mut self, policy: NonCompliantPolicy) -> Self {
        self.config.non_compliant_policy = policy;
        self
    }

    /// Sets a cheating mode for one ISP.
    pub fn cheat(mut self, isp: u32, mode: CheatMode) -> Self {
        self.config.cheat_modes[isp as usize] = mode;
        self
    }

    /// Makes the inter-ISP network lossy: emails are dropped with
    /// probability `loss` and duplicated with probability `duplicate`.
    /// Sugar for appending the matching `zmail-fault` clause to the
    /// configuration's [`FaultPlan`].
    ///
    /// # Panics
    ///
    /// Panics at `build` if either rate is outside `[0, 1]`.
    pub fn lossy_network(mut self, loss: f64, duplicate: f64) -> Self {
        self.config.faults.faults.push(Fault::Channel(ChannelFault {
            drop: loss,
            duplicate,
            ..ChannelFault::inert(MsgClass::Email)
        }));
        self
    }

    /// Installs a full fault plan, replacing any clauses added so far
    /// (see `zmail-fault` for the clause vocabulary).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = plan;
        self
    }

    /// Appends one fault clause to the plan.
    pub fn fault(mut self, fault: Fault) -> Self {
        self.config.faults.faults.push(fault);
        self
    }

    /// Enables (or disables, with `None`) fresh-nonce retransmission of
    /// buy/sell exchanges that have not completed after `retry_after` —
    /// independently of any fault clauses.
    pub fn bank_retry(mut self, retry_after: Option<SimDuration>) -> Self {
        self.config.bank_retry_after = retry_after;
        self
    }

    /// Makes bank buy/sell retransmissions idempotent: retries reuse the
    /// original nonce and the bank serves replays from a cached sealed
    /// reply, so a reply lost *after* processing no longer strands
    /// e-pennies (E15's documented gap).
    pub fn idempotent_bank_ids(mut self, enabled: bool) -> Self {
        self.config.idempotent_bank_ids = enabled;
        self
    }

    /// Enables durable books with default WAL/checkpoint tuning: every
    /// ledger mutation is journaled, each event's records share one
    /// group commit, so an event's books are durable by its end, and
    /// `Crash` windows restart ISPs from the recovery path.
    pub fn durable(self) -> Self {
        self.durability(DurabilityConfig::default().store)
    }

    /// Enables durable books with explicit tuning.
    pub fn durability(mut self, store: StoreConfig) -> Self {
        self.config.durability = Some(store);
        self
    }

    /// Distributes the bank across `banks` regions (§5 "Bank Setup").
    ///
    /// # Panics
    ///
    /// Panics at `build` if `banks` is zero or exceeds the ISP count.
    pub fn banks(mut self, banks: u32) -> Self {
        self.config.banks = banks;
        self
    }

    /// Makes the ISP-bank channel lossy, optionally with fresh-nonce
    /// retransmission after `retry_after`. Sugar for appending the
    /// matching `zmail-fault` clause (snapshot traffic stays reliable so
    /// billing rounds terminate).
    ///
    /// # Panics
    ///
    /// Panics at `build` if `loss` is outside `[0, 1]`.
    pub fn lossy_bank_channel(mut self, loss: f64, retry_after: Option<SimDuration>) -> Self {
        self.config.faults.faults.push(Fault::Channel(ChannelFault {
            drop: loss,
            ..ChannelFault::inert(MsgClass::Bank)
        }));
        self.config.bank_retry_after = retry_after;
        self
    }

    /// Disables automatic e-penny top-ups (used by the zero-sum drift
    /// experiment, which must observe raw balance movement).
    pub fn no_auto_topup(mut self) -> Self {
        self.config.auto_topup_below = None;
        self
    }

    /// Sets the avail-pool thresholds.
    pub fn avail_bounds(mut self, min: EPennies, max: EPennies, initial: EPennies) -> Self {
        self.config.minavail = min;
        self.config.maxavail = max;
        self.config.initial_avail = initial;
        self
    }

    /// Enables signed payment/ack attestations: outbound paid mail is
    /// signed by the origin ISP, receivers verify before crediting, and
    /// accepted nonces are recorded (durably, when durability is on) so
    /// refunds are single-use.
    pub fn attestations(mut self) -> Self {
        self.config.attestations = true;
        self
    }

    /// Disables one attestation defense for the campaign self-test (see
    /// [`AttestWeakness`]). Implies nothing else; `build` panics unless
    /// attestations are enabled too.
    pub fn attest_weakness(mut self, weakness: AttestWeakness) -> Self {
        self.config.attest_weakness = Some(weakness);
        self
    }

    /// Finishes and validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (see
    /// [`ZmailConfig::validate`]).
    pub fn build(self) -> ZmailConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let c = ZmailConfig::builder(3, 10).build();
        assert_eq!(c.isps, 3);
        assert!(c.compliant.iter().all(|&b| b));
        assert_eq!(c.compliant_isps(), vec![IspId(0), IspId(1), IspId(2)]);
        assert_eq!(c.snapshot_timeout, SimDuration::from_mins(10));
    }

    #[test]
    fn non_compliant_marking() {
        let c = ZmailConfig::builder(4, 5).non_compliant(&[1, 3]).build();
        assert!(c.is_compliant(IspId(0)));
        assert!(!c.is_compliant(IspId(1)));
        assert!(c.is_compliant(IspId(2)));
        assert!(!c.is_compliant(IspId(3)));
        assert_eq!(c.compliant_isps(), vec![IspId(0), IspId(2)]);
    }

    #[test]
    fn cheat_mode_flags() {
        assert!(!CheatMode::Honest.is_dishonest());
        assert!(CheatMode::UnderReportSends { fraction: 0.5 }.is_dishonest());
        assert!(CheatMode::InflateSends { fraction: 0.1 }.is_dishonest());
    }

    #[test]
    #[should_panic(expected = "minavail exceeds maxavail")]
    fn inverted_thresholds_panic() {
        ZmailConfig::builder(2, 2)
            .avail_bounds(EPennies(100), EPennies(10), EPennies(50))
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_panics() {
        ZmailConfig::builder(2, 0).build();
    }

    #[test]
    fn legacy_lossy_builders_become_fault_clauses() {
        let c = ZmailConfig::builder(2, 2)
            .lossy_network(0.05, 0.01)
            .lossy_bank_channel(0.5, Some(SimDuration::from_secs(1)))
            .build();
        assert_eq!(c.faults.len(), 2);
        assert_eq!(c.bank_retry_after, Some(SimDuration::from_secs(1)));
        let email = &c.faults.faults[0];
        assert!(
            matches!(email, Fault::Channel(f) if f.class == MsgClass::Email
                && f.drop == 0.05 && f.duplicate == 0.01)
        );
        let bank = &c.faults.faults[1];
        assert!(matches!(bank, Fault::Channel(f) if f.class == MsgClass::Bank && f.drop == 0.5));
    }

    #[test]
    fn faults_builder_replaces_and_fault_appends() {
        let c = ZmailConfig::builder(2, 2)
            .lossy_network(0.9, 0.9)
            .faults(FaultPlan::lossy_email(0.1, 0.0))
            .fault(Fault::Channel(ChannelFault::inert(MsgClass::Bank)))
            .bank_retry(Some(SimDuration::from_mins(1)))
            .build();
        assert_eq!(c.faults.len(), 2);
        assert_eq!(c.bank_retry_after, Some(SimDuration::from_mins(1)));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_fault_rate_caught_at_build() {
        ZmailConfig::builder(2, 2).lossy_network(1.5, 0.0).build();
    }

    #[test]
    fn builder_setters_apply() {
        let c = ZmailConfig::builder(2, 2)
            .limit(7)
            .initial_balance(EPennies(3))
            .billing_period(SimDuration::from_days(7))
            .net_latency(SimDuration::from_millis(5))
            .cheat(1, CheatMode::InflateSends { fraction: 1.0 })
            .no_auto_topup()
            .build();
        assert_eq!(c.default_limit, 7);
        assert_eq!(c.initial_balance, EPennies(3));
        assert_eq!(c.billing_period, SimDuration::from_days(7));
        assert_eq!(c.auto_topup_below, None);
        assert!(c.cheat_modes[1].is_dishonest());
    }
}
