//! The bank tier (§4.3–4.4 of the paper, and §5's "set of distributed
//! banks").
//!
//! The bank manages e-pennies *for ISPs*, never for individual users: it
//! sells e-pennies against each compliant ISP's real-money account, buys
//! them back, and periodically gathers every compliant ISP's `credit`
//! array to verify pairwise consistency — the paper's misbehavior
//! detection. All exchanges are sealed with the bank keypair and protected
//! against replay by nonces, exactly as in the specification.
//!
//! *"The role of the bank in the Zmail protocol can be implemented as a
//! set of distributed banks or a hierarchy of banks."* The paper leaves it
//! at that; here every deployment's bank is a [`Federation`] of
//! `config.banks` members, and the paper's central bank is a federation of
//! one:
//!
//! * every ISP has a **home** member ([`Federation::home_bank`]), a
//!   [`Bank`] that holds its keypair, runs its buy/sell exchanges
//!   ([`Bank::handle_exchange`], one handler for both [`Exchange`] sides)
//!   and asks it for its credit column;
//! * the federation keeps the one `verify` matrix those columns fill, and
//!   when no member awaits a reply it runs the §4.4 check
//!   `credit_i[j] + credit_j[i] = 0` over **every** compliant pair, intra-
//!   and cross-region alike;
//! * the same pass yields the **inter-bank settlement**: the net e-penny
//!   flow between regions, which the banks settle in real money. Flows are
//!   antisymmetric by construction, so settlement always nets to zero.
//!
//! Like the ISP, a bank keeps only protocol state: its
//! [`BankBooks`](zmail_store::BankBooks) live in the deployment's books,
//! lent to each call as a [`Ledger`].

use crate::config::ZmailConfig;
use crate::ids::IspId;
use crate::msg::{decode_credit, decode_value_nonce, encode_value_nonce, Exchange, NetMsg};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use zmail_crypto::{
    open_with_private, seal_with_private, CryptoError, KeyPair, Nnc, PublicKey, ReplayGuard,
    SealedEnvelope,
};
use zmail_econ::{EPennies, ExchangeRate};
use zmail_store::{Ledger, LedgerRecord};

/// Counters the experiments read, one set per member bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Buy requests granted.
    pub buys_granted: u64,
    /// Buy requests rejected for insufficient ISP funds.
    pub buys_rejected: u64,
    /// Sell requests processed.
    pub sells: u64,
    /// Requests of either side refused with no record made: a value that
    /// is not positive, a price past the range, or a record that does not
    /// fit the books. No honest ISP sends one.
    pub refused: u64,
    /// Replayed buy/sell requests dropped.
    pub replays_dropped: u64,
    /// Retransmissions answered from the reply cache instead of being
    /// dropped (idempotent request ids only).
    pub idempotent_replays: u64,
    /// Rounds in which this bank received every reply it asked for.
    pub snapshot_rounds: u64,
}

/// One net inter-bank settlement flow: `(from_bank, to_bank, e_pennies)`,
/// positive meaning `from_bank`'s region owes `to_bank`'s.
pub type SettlementFlow = (usize, usize, i64);

/// The outcome of a completed snapshot round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Billing round this report closes (0-based).
    pub round: u64,
    /// Pairs whose mutual credits do not cancel, with the discrepancy
    /// `credit_i[j] + credit_j[i]`, in `(i, j)` order.
    pub suspects: Vec<(IspId, IspId, i64)>,
    /// Net inter-bank settlement flows: only nonzero ones, each direction
    /// of a pair listed once. Empty for a single bank.
    pub settlements: Vec<SettlementFlow>,
}

impl ConsistencyReport {
    /// Whether every pair reconciled to zero.
    pub fn is_clean(&self) -> bool {
        self.suspects.is_empty()
    }

    /// Whether `isp` appears in any suspect pair.
    pub fn implicates(&self, isp: IspId) -> bool {
        self.suspects.iter().any(|&(a, b, _)| a == isp || b == isp)
    }

    /// Sum of all settlement flows — always zero (every e-penny one region
    /// owes is owed *to* another).
    pub fn net_flow(&self) -> i64 {
        self.settlements.iter().map(|&(_, _, amount)| amount).sum()
    }
}

/// One member of a [`Federation`]: the central bank when it is the only
/// one.
#[derive(Debug)]
pub struct Bank {
    keypair: KeyPair,
    exchange: ExchangeRate,
    seq: u64,
    nnc: Nnc,
    /// The ISPs whose snapshot replies this bank still awaits.
    awaiting: BTreeSet<IspId>,
    replay: ReplayGuard,
    rng: SmallRng,
    stats: BankStats,
    /// This bank's slot in the federation — which books in the ledger are
    /// its, and the index its records carry.
    index: u32,
    /// Serve retransmitted exchanges from a cache instead of dropping
    /// them ([`ZmailConfig::idempotent_bank_ids`]).
    idempotent: bool,
    /// Per request nonce, the copy of its reply a retransmission is
    /// served — flagged `replayed` for the auditor. Empty unless
    /// idempotent ids are on.
    reply_cache: BTreeMap<u64, NetMsg>,
}

impl Bank {
    /// Creates member `index`, generating its keypair from `seed`.
    fn new(config: &ZmailConfig, seed: u64, index: u32) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA5E_BA11);
        let keypair = KeyPair::generate(&mut rng);
        Bank {
            keypair,
            exchange: config.exchange_rate,
            seq: 0,
            nnc: Nnc::new(seed ^ 0x0B4A_4B0B, u64::MAX),
            awaiting: BTreeSet::new(),
            replay: ReplayGuard::new(),
            rng,
            stats: BankStats::default(),
            index,
            idempotent: config.idempotent_bank_ids,
            reply_cache: BTreeMap::new(),
        }
    }

    /// The bank's public key (`B_b`), distributed to the ISPs it serves.
    pub fn public_key(&self) -> PublicKey {
        *self.keypair.public()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Handles `buy(x)` / `sell(x)` from `isp[g]`, returning the sealed
    /// reply. Opening, the replay guard, the reply cache and sealing are
    /// the same for both; `side` picks the ledger line — a buy is granted
    /// only if the ISP's account covers it, a sell is always honoured —
    /// and with it the reply's `accepted` and `audit` words.
    ///
    /// With idempotent request ids on, a retransmission of an
    /// already-served nonce returns a cached copy of the original reply
    /// (marked `replayed`) instead of an error, so a lost reply can be
    /// recovered without a second grant or retirement.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] for undecipherable envelopes and
    /// [`CryptoError::ReplayDetected`] when the nonce was already used
    /// (and, with idempotent ids, no cached reply exists for it).
    pub fn handle_exchange(
        &mut self,
        ledger: &mut dyn Ledger,
        side: Exchange,
        from: IspId,
        envelope: &SealedEnvelope,
    ) -> Result<NetMsg, CryptoError> {
        let plain = open_with_private(self.keypair.private(), envelope)?;
        let (value, nonce) = decode_value_nonce(&plain).ok_or(CryptoError::Malformed)?;
        if self.replay.check_and_record(nonce).is_err() {
            if let Some(reply) = self.reply_cache.get(&nonce) {
                self.stats.idempotent_replays += 1;
                return Ok(reply.clone());
            }
            self.stats.replays_dropped += 1;
            return Err(CryptoError::ReplayDetected);
        }
        let (bank, isp) = (self.index, from.0);
        let account = ledger.bank(bank).accounts[from.index()];
        // The price, unless the request is refused: it is answered like a
        // rejected buy, and no record is made that could mint.
        let real = (self.exchange.checked_to_real(EPennies(value))).filter(|_| value > 0);
        let (accepted, audit) = match (side, real) {
            (Exchange::Buy, Some(real)) if account < real.0 => {
                self.stats.buys_rejected += 1;
                (false, 0)
            }
            // Each guard below commits its record if it fits the books.
            (Exchange::Buy, Some(real))
                if (ledger.try_commit(LedgerRecord::BankBuy {
                    bank,
                    isp,
                    value,
                    cost: real.0,
                }))
                .is_ok() =>
            {
                self.stats.buys_granted += 1;
                (true, value)
            }
            (Exchange::Sell, Some(real))
                if (ledger.try_commit(LedgerRecord::BankSell {
                    bank,
                    isp,
                    value,
                    credit: real.0,
                }))
                .is_ok() =>
            {
                self.stats.sells += 1;
                (false, value)
            }
            // Not positive, priced past the range, or not fitting the books.
            _ => {
                self.stats.refused += 1;
                (false, 0)
            }
        };
        let reply_plain = encode_value_nonce(i64::from(accepted), nonce);
        let envelope = seal_with_private(self.keypair.private(), &reply_plain, &mut self.rng);
        if self.idempotent {
            self.reply_cache.insert(
                nonce,
                NetMsg::ExchangeReply {
                    side,
                    envelope: envelope.clone(),
                    audit,
                    replayed: true,
                },
            );
        }
        Ok(NetMsg::ExchangeReply {
            side,
            envelope,
            audit,
            replayed: false,
        })
    }

    /// Asks each of `isps` for its credit array: a sealed `request(seq)`
    /// apiece, and each one awaited.
    fn start_snapshot(&mut self, isps: impl Iterator<Item = IspId>) -> Vec<(IspId, NetMsg)> {
        isps.map(|isp| {
            self.awaiting.insert(isp);
            let plain = encode_value_nonce(self.seq as i64, self.nnc.next_nonce());
            let envelope = seal_with_private(self.keypair.private(), &plain, &mut self.rng);
            (isp, NetMsg::SnapshotRequest { envelope })
        })
        .collect()
    }

    /// Opens `reply(x)` from `isp[g]`: its credit column of `isps` values
    /// if the reply was awaited, `None` if not. The last awaited reply
    /// closes this bank's part of the round.
    fn handle_snapshot_reply(
        &mut self,
        from: IspId,
        envelope: &SealedEnvelope,
        isps: usize,
    ) -> Result<Option<Vec<i64>>, CryptoError> {
        if !self.awaiting.contains(&from) {
            return Ok(None);
        }
        let plain = open_with_private(self.keypair.private(), envelope)?;
        let credit = decode_credit(&plain)
            .filter(|credit| credit.len() == isps)
            .ok_or(CryptoError::Malformed)?;
        self.awaiting.remove(&from);
        if self.awaiting.is_empty() {
            self.stats.snapshot_rounds += 1;
            self.seq += 1;
        }
        Ok(Some(credit))
    }
}

/// The deployment's bank: `config.banks` collaborating members, ISP `i`'s
/// home being member `i mod banks`.
///
/// # Example
///
/// ```rust
/// use zmail_core::{Federation, IspId, ZmailConfig};
///
/// let config = ZmailConfig::builder(4, 10).banks(2).build();
/// let federation = Federation::new(&config, 7);
/// assert_eq!(federation.bank_count(), 2);
/// // Round-robin homes: each ISP is keyed to its regional bank.
/// assert_eq!(federation.home_bank(IspId(3)), 1);
/// let _bank_key = federation.public_key_for(IspId(3));
/// ```
#[derive(Debug)]
pub struct Federation {
    banks: Vec<Bank>,
    compliant: Vec<bool>,
    /// `verify[i][g]` = the value of `credit[i]` reported by `isp[g]` this
    /// round.
    verify: Vec<Vec<i64>>,
    rounds: u64,
}

impl Federation {
    /// Builds the federation of `config.banks` members for a deployment,
    /// deterministic from `seed`.
    pub fn new(config: &ZmailConfig, seed: u64) -> Self {
        config.validate();
        let n = config.isps as usize;
        Federation {
            banks: (0..config.banks)
                .map(|b| Bank::new(config, seed ^ ((u64::from(b) + 1) << 24), b))
                .collect(),
            compliant: config.compliant.clone(),
            verify: vec![vec![0; n]; n],
            rounds: 0,
        }
    }

    /// Number of member banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The home bank index of `isp`.
    pub fn home_bank(&self, isp: IspId) -> usize {
        isp.index() % self.banks.len()
    }

    /// The public key an ISP must use: its home bank's.
    pub fn public_key_for(&self, isp: IspId) -> PublicKey {
        self.banks[self.home_bank(isp)].public_key()
    }

    /// Immutable access to a member bank.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn bank(&self, index: usize) -> &Bank {
        &self.banks[index]
    }

    /// Whether a snapshot round is in progress: some member still awaits
    /// a reply.
    pub fn snapshot_in_progress(&self) -> bool {
        self.banks.iter().any(|bank| !bank.awaiting.is_empty())
    }

    /// Routes a `buy` or `sell` to the sender's home bank.
    ///
    /// # Errors
    ///
    /// Propagates the bank's crypto/replay errors.
    pub fn handle_exchange(
        &mut self,
        ledger: &mut dyn Ledger,
        side: Exchange,
        from: IspId,
        envelope: &SealedEnvelope,
    ) -> Result<NetMsg, CryptoError> {
        let home = self.home_bank(from);
        self.banks[home].handle_exchange(ledger, side, from, envelope)
    }

    /// Begins a snapshot round: each member requests the credit arrays of
    /// its compliant ISPs. Returns every request to put on the wire.
    ///
    /// # Panics
    ///
    /// Panics if a round is already in progress — the caller must wait for
    /// [`Federation::handle_snapshot_reply`] to report completion.
    pub fn start_snapshot(&mut self) -> Vec<(IspId, NetMsg)> {
        assert!(
            !self.snapshot_in_progress(),
            "snapshot round already in progress"
        );
        for row in &mut self.verify {
            row.fill(0);
        }
        let (n, k) = (self.compliant.len(), self.banks.len());
        let compliant = &self.compliant;
        let mut requests = Vec::new();
        for (b, bank) in self.banks.iter_mut().enumerate() {
            // ISPs b, b + k, b + 2k, …: the ones whose home is member b.
            let region = (b..n).step_by(k).filter(|&i| compliant[i]);
            requests.extend(bank.start_snapshot(region.map(|i| IspId(i as u32))));
        }
        requests
    }

    /// Handles `reply(x)` from `isp[g]`, opened by its home bank. Returns
    /// `Some(report)` when this reply completes the round: pairwise sums
    /// are verified, settlements computed, and the round counter advances.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] for undecipherable or malformed replies;
    /// replies nobody awaits are ignored with `Ok(None)`.
    pub fn handle_snapshot_reply(
        &mut self,
        from: IspId,
        envelope: &SealedEnvelope,
    ) -> Result<Option<ConsistencyReport>, CryptoError> {
        let home = self.home_bank(from);
        let n = self.verify.len();
        let Some(credit) = self.banks[home].handle_snapshot_reply(from, envelope, n)? else {
            return Ok(None);
        };
        for (row, value) in self.verify.iter_mut().zip(credit) {
            row[from.index()] = value;
        }
        if self.snapshot_in_progress() {
            return Ok(None);
        }
        Ok(Some(self.close_round()))
    }

    /// The §4.4 check over every compliant pair, and the region-to-region
    /// flows the same columns carry.
    #[allow(clippy::needless_range_loop)] // flows[a][b] is read with its transpose
    fn close_round(&mut self) -> ConsistencyReport {
        let (n, k) = (self.compliant.len(), self.banks.len());
        let mut suspects = Vec::new();
        let mut flows = vec![vec![0i64; k]; k];
        for i in (0..n).filter(|&i| self.compliant[i]) {
            for j in (i + 1..n).filter(|&j| self.compliant[j]) {
                // credit[j] in isp[i] + credit[i] in isp[j] must be zero.
                let (credit_i_j, credit_j_i) = (self.verify[j][i], self.verify[i][j]);
                let sum = credit_i_j + credit_j_i;
                if sum != 0 {
                    suspects.push((IspId(i as u32), IspId(j as u32), sum));
                }
                // credit_i_j is i's *net* paid-mail balance toward j
                // (sends minus receives) and credit_j_i its mirror: the two
                // directions of a cross-region pair carry one flow.
                let (bank_i, bank_j) = (i % k, j % k);
                if bank_i != bank_j {
                    flows[bank_i][bank_j] += credit_i_j;
                    flows[bank_j][bank_i] += credit_j_i;
                }
            }
        }
        let mut settlements = Vec::new();
        for a in 0..k {
            for b in (a + 1)..k {
                // For consistent reports flows[a][b] == -flows[b][a]; the
                // halved difference equals either side exactly. Inconsistent
                // pairs were flagged above and round toward zero here.
                let net = (flows[a][b] - flows[b][a]) / 2;
                if net != 0 {
                    settlements.push((a, b, net));
                    settlements.push((b, a, -net));
                }
            }
        }
        let report = ConsistencyReport {
            round: self.rounds,
            suspects,
            settlements,
        };
        self.rounds += 1;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheatMode;
    use crate::isp::{Isp, SendOutcome};
    use zmail_econ::RealPennies;
    use zmail_sim::workload::{MailKind, UserAddr};
    use zmail_store::Books;

    /// `n` ISPs of 3 users under `banks` banks.
    fn config(n: u32, banks: u32) -> ZmailConfig {
        ZmailConfig::builder(n, 3).banks(banks).build()
    }

    /// The federation for `config` and one ISP per slot, keyed to its
    /// home bank.
    fn setup(config: &ZmailConfig) -> (Federation, Vec<Isp>, Books) {
        let federation = Federation::new(config, 91);
        let isps = (0..config.isps)
            .map(|i| {
                let key = federation.public_key_for(IspId(i));
                Isp::new(IspId(i), config, key, 400 + u64::from(i))
            })
            .collect();
        (federation, isps, config.initial_books())
    }

    /// Delivers one paid message from `a` to `b` end to end.
    fn exchange_mail(isps: &mut [Isp], books: &mut Books, a: u32, b: u32) {
        let outcome = isps[a as usize]
            .send_email(books, 0, UserAddr::new(b, 0), MailKind::Personal)
            .unwrap();
        let SendOutcome::Outbound {
            msg: NetMsg::Email(email),
            ..
        } = outcome
        else {
            panic!("expected outbound");
        };
        isps[b as usize].receive_email(books, IspId(a), &email);
    }

    /// `isp`'s sealed credit reply, which also closes its freeze.
    fn sealed_reply(isp: &mut Isp, books: &mut Books) -> (IspId, SealedEnvelope) {
        let (reply, _) = isp.finish_snapshot(books);
        let NetMsg::SnapshotReply { from, envelope } = reply else {
            panic!("expected reply");
        };
        (from, envelope)
    }

    /// Starts a round and has every asked ISP answer, returning the
    /// replies in request order.
    fn answer_round(
        federation: &mut Federation,
        isps: &mut [Isp],
        books: &mut Books,
    ) -> Vec<(IspId, SealedEnvelope)> {
        let requests = federation.start_snapshot();
        let mut replies = Vec::new();
        for (target, msg) in requests {
            let NetMsg::SnapshotRequest { envelope } = msg else {
                panic!("expected request");
            };
            let isp = &mut isps[target.index()];
            assert!(isp.handle_snapshot_request(&envelope).unwrap());
            replies.push(sealed_reply(isp, books));
        }
        replies
    }

    fn run_round(
        federation: &mut Federation,
        isps: &mut [Isp],
        books: &mut Books,
    ) -> ConsistencyReport {
        let mut report = None;
        for (from, envelope) in answer_round(federation, isps, books) {
            if let Some(r) = federation.handle_snapshot_reply(from, &envelope).unwrap() {
                report = Some(r);
            }
        }
        report.expect("round should complete")
    }

    /// Every member's `BankStats`.
    fn all_stats(federation: &Federation) -> Vec<BankStats> {
        federation.banks.iter().map(|b| b.stats.clone()).collect()
    }

    /// `Exchange::BOTH × {fresh, idempotent}`, each cell walking one
    /// exchange through every fate a reply can meet: forged, served,
    /// retransmitted unchanged, lost and retried, matching, stale.
    #[test]
    fn exchange_table() {
        for (side, other, initial) in [
            (Exchange::Buy, Exchange::Sell, 50),
            (Exchange::Sell, Exchange::Buy, 500),
        ] {
            for idempotent in [false, true] {
                // A failure below is in the last cell named on stderr.
                eprintln!("cell: {side:?}, idempotent={idempotent}");
                let cfg = ZmailConfig::builder(1, 2)
                    .avail_bounds(EPennies(100), EPennies(200), EPennies(initial))
                    .idempotent_bank_ids(idempotent)
                    .build();
                let mut bank = Bank::new(&cfg, 7, 0);
                let mut isp = Isp::new(IspId(0), &cfg, bank.public_key(), 8);
                let mut books = cfg.initial_books();
                let issued = |books: &Books| books.banks[0].issued;
                let account = |books: &Books| RealPennies(books.banks[0].accounts[0]);
                let initial_account = account(&books);
                let sign = side.sign();
                let one_of_side = [u64::from(sign > 0), u64::from(sign < 0)];

                // The request: only the side whose edge the pool crossed
                // fires, once, for the distance to the midpoint (150).
                assert!(isp.retry_exchange(side).is_none(), "nothing yet");
                assert!(isp.maybe_exchange(&books, other).is_none());
                let Some(NetMsg::Exchange {
                    side: asked,
                    envelope: request,
                    audit: value,
                }) = isp.maybe_exchange(&books, side)
                else {
                    panic!("expected a request");
                };
                assert_eq!((asked, value), (side, sign * (150 - initial)));
                assert!(isp.maybe_exchange(&books, side).is_none(), "one at a time");
                assert!(isp.exchange_outstanding());
                assert_eq!(isp.exchange_request_id(other), None);
                let id = isp.exchange_request_id(side).expect("outstanding");
                let plain = open_with_private(bank.keypair.private(), &request).unwrap();
                assert_eq!(decode_value_nonce(&plain), Some((value, id)));
                assert_eq!([isp.stats().bank_buys, isp.stats().bank_sells], one_of_side);

                // Forged envelope: right nonce, wrong key. An error, and
                // the exchange stays open.
                let mut rng = SmallRng::seed_from_u64(9);
                let intruder = KeyPair::generate(&mut rng);
                let forged =
                    seal_with_private(intruder.private(), &encode_value_nonce(1, id), &mut rng);
                assert!(isp
                    .handle_exchange_reply(&mut books, side, &forged)
                    .is_err());
                assert_eq!(isp.exchange_request_id(side), Some(id));

                // Served: the bank's ledger moves by `value`, the reply
                // says so — and this reply is then lost.
                let NetMsg::ExchangeReply {
                    side: answered,
                    envelope: lost,
                    audit,
                    replayed: false,
                } = bank
                    .handle_exchange(&mut books, side, IspId(0), &request)
                    .unwrap()
                else {
                    panic!("expected a first-hand reply");
                };
                assert_eq!((answered, audit), (side, value));
                assert_eq!(issued(&books), sign * value);
                assert_eq!(account(&books), initial_account - RealPennies(sign * value));
                assert_eq!([bank.stats().buys_granted, bank.stats().sells], one_of_side);

                // The same request again: dropped by the replay guard,
                // or answered from the cache — never served twice.
                match bank.handle_exchange(&mut books, side, IspId(0), &request) {
                    Err(e) if !idempotent => {
                        assert_eq!(e, CryptoError::ReplayDetected);
                        assert_eq!(bank.stats().replays_dropped, 1);
                    }
                    Ok(NetMsg::ExchangeReply {
                        audit,
                        replayed: true,
                        ..
                    }) if idempotent => {
                        assert_eq!(audit, value);
                        assert_eq!(bank.stats().idempotent_replays, 1);
                    }
                    other => panic!("{other:?}"),
                }
                assert_eq!(issued(&books), sign * value, "not served twice");

                // Lost reply → retry: same value, under a fresh nonce
                // (served again: the duplicate E15 prices) or the same
                // request id (answered from the cache).
                assert!(isp.retry_exchange(other).is_none());
                let Some(NetMsg::Exchange {
                    envelope: retry,
                    audit: retried,
                    ..
                }) = isp.retry_exchange(side)
                else {
                    panic!("expected a retransmission");
                };
                assert_eq!(retried, value);
                assert_eq!(isp.exchange_request_id(side) == Some(id), idempotent);
                let stats = isp.stats();
                assert_eq!(
                    [stats.bank_retries, stats.idempotent_retries],
                    [1, u64::from(idempotent)]
                );
                let NetMsg::ExchangeReply {
                    envelope: second,
                    replayed,
                    ..
                } = bank
                    .handle_exchange(&mut books, side, IspId(0), &retry)
                    .unwrap()
                else {
                    panic!("expected a reply");
                };
                assert_eq!(replayed, idempotent);
                let times = if idempotent { 1 } else { 2 };
                assert_eq!(issued(&books), times * sign * value);

                // The "lost" reply turns up after all, ahead of the
                // second: stale against a rotated nonce, matching
                // against a kept one. Exactly one of the two is applied;
                // the pool lands on the midpoint once.
                let first = isp.handle_exchange_reply(&mut books, side, &lost).unwrap();
                assert_eq!(isp.exchange_outstanding(), !idempotent);
                let then = isp
                    .handle_exchange_reply(&mut books, side, &second)
                    .unwrap();
                assert_eq!((first, then), (idempotent, !idempotent));
                assert_eq!(isp.view(&books).avail(), EPennies(150));
                assert!(!isp.exchange_outstanding());
                assert_eq!(isp.stats().stale_replies, 1);
                // A replay of either reply is ignored too.
                for reply in [&second, &lost] {
                    assert!(!isp.handle_exchange_reply(&mut books, side, reply).unwrap());
                }
                assert_eq!(isp.view(&books).avail(), EPennies(150));
                assert_eq!(isp.stats().stale_replies, 3);
                assert!(isp.maybe_exchange(&books, side).is_none(), "pool in band");
            }
        }
    }

    #[test]
    fn buy_rejected_when_isp_account_short() {
        let mut cfg = ZmailConfig::builder(1, 2)
            .avail_bounds(EPennies(1_000), EPennies(100_000), EPennies(0))
            .build();
        cfg.initial_bank_account = RealPennies(5); // can't afford 50 500
        let mut bank = Bank::new(&cfg, 3, 0);
        let mut isp = Isp::new(IspId(0), &cfg, bank.public_key(), 4);
        let mut books = cfg.initial_books();
        let Some(NetMsg::Exchange { envelope, .. }) = isp.maybe_exchange(&books, Exchange::Buy)
        else {
            panic!("expected buy");
        };
        let NetMsg::ExchangeReply {
            envelope, audit, ..
        } = bank
            .handle_exchange(&mut books, Exchange::Buy, IspId(0), &envelope)
            .unwrap()
        else {
            panic!("expected reply");
        };
        assert_eq!(audit, 0);
        assert_eq!(books.banks[0].issued, 0);
        isp.handle_exchange_reply(&mut books, Exchange::Buy, &envelope)
            .unwrap();
        assert_eq!(
            isp.view(&books).avail(),
            EPennies(0),
            "rejected buy adds nothing"
        );
        assert_eq!(bank.stats().buys_rejected, 1);
        // The ISP may try again (the exchange was closed).
        assert!(isp.maybe_exchange(&books, Exchange::Buy).is_some());
    }

    /// Sends one sealed `side` of `value` to a fresh bank at `rate` real
    /// pennies per e-penny, and checks it was refused: answered as a
    /// rejected buy is, counted, and not a record made.
    fn assert_refused(side: Exchange, value: i64, rate: i64) {
        let mut cfg = ZmailConfig::builder(1, 2).build();
        cfg.exchange_rate = ExchangeRate::new(rate);
        let mut bank = Bank::new(&cfg, 7, 0);
        let mut books = cfg.initial_books();
        let before = books.clone();
        let mut rng = SmallRng::seed_from_u64(8);
        let plain = encode_value_nonce(value, 42);
        let request = zmail_crypto::seal_for_public(&bank.public_key(), &plain, &mut rng);
        let Ok(NetMsg::ExchangeReply {
            side: answered,
            envelope,
            audit,
            replayed: false,
        }) = bank.handle_exchange(&mut books, side, IspId(0), &request)
        else {
            panic!("{side:?} {value}: expected a first-hand reply");
        };
        let reply = zmail_crypto::open_with_public(&bank.public_key(), &envelope).unwrap();
        assert_eq!(
            decode_value_nonce(&reply),
            Some((0, 42)),
            "{side:?} {value}"
        );
        assert_eq!((answered, audit), (side, 0), "{side:?} {value}");
        assert_eq!(books, before, "{side:?} {value}: nothing minted");
        let refused = BankStats {
            refused: 1,
            ..BankStats::default()
        };
        assert_eq!(*bank.stats(), refused, "{side:?} {value}");
    }

    #[test]
    fn a_negative_sell_mints_nothing() {
        assert_refused(Exchange::Sell, -5, 1);
    }

    #[test]
    fn a_sell_whose_credit_overflows_the_account_is_refused_not_a_panic() {
        assert_refused(Exchange::Sell, i64::MAX, 1);
    }

    #[test]
    fn a_sell_of_i64_min_is_refused_not_a_panic() {
        assert_refused(Exchange::Sell, i64::MIN, 1);
    }

    #[test]
    fn a_buy_whose_price_overflows_is_refused_not_wrapped() {
        // At 3 real pennies each, the price would wrap to -(2^63 - 1),
        // which any account covers.
        assert_refused(Exchange::Buy, i64::MAX / 3 + 1, 3);
        assert_refused(Exchange::Buy, 0, 1);
        assert_refused(Exchange::Buy, -5, 1);
    }

    #[test]
    fn exchanges_route_to_home_bank() {
        for (side, initial) in [(Exchange::Buy, 10), (Exchange::Sell, 500)] {
            let config = ZmailConfig::builder(2, 2)
                .banks(2)
                .avail_bounds(EPennies(100), EPennies(200), EPennies(initial))
                .build();
            let mut federation = Federation::new(&config, 93);
            let mut books = config.initial_books();
            let mut isp1 = Isp::new(IspId(1), &config, federation.public_key_for(IspId(1)), 7);
            let Some(NetMsg::Exchange {
                envelope, audit, ..
            }) = isp1.maybe_exchange(&books, side)
            else {
                panic!("expected {side:?}");
            };
            let account_before = books.banks[1].accounts[1];
            let reply = federation
                .handle_exchange(&mut books, side, IspId(1), &envelope)
                .unwrap();
            assert_eq!(books.banks[1].issued, side.sign() * audit);
            assert_eq!(books.banks[0].issued, 0, "wrong bank untouched");
            assert_eq!(
                books.banks[1].accounts[1],
                account_before - side.sign() * audit
            );
            let NetMsg::ExchangeReply { envelope, .. } = reply else {
                panic!("expected reply");
            };
            isp1.handle_exchange_reply(&mut books, side, &envelope)
                .unwrap();
            assert_eq!(
                isp1.view(&books).avail(),
                EPennies(initial + side.sign() * audit)
            );
        }
    }

    #[test]
    fn reply_sealed_for_wrong_bank_is_rejected() {
        // An ISP keyed to bank0 cannot complete an exchange with bank1.
        let drained = ZmailConfig::builder(2, 3)
            .banks(2)
            .avail_bounds(EPennies(100), EPennies(200), EPennies(0))
            .build();
        let (mut federation, mut isps, mut books) = setup(&drained);
        let Some(NetMsg::Exchange { envelope, .. }) = isps[0].maybe_exchange(&books, Exchange::Buy)
        else {
            panic!("expected buy");
        };
        // Deliver to the wrong bank: its private key cannot open it.
        let err =
            federation.banks[1].handle_exchange(&mut books, Exchange::Buy, IspId(0), &envelope);
        assert!(err.is_err(), "wrong bank must fail to open the envelope");
    }

    #[test]
    fn round_robin_assignment() {
        let (federation, ..) = setup(&config(5, 2));
        assert_eq!(federation.bank_count(), 2);
        let homes: Vec<usize> = (0..5).map(|i| federation.home_bank(IspId(i))).collect();
        assert_eq!(homes, [0, 1, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "banks must be in 1..=isps")]
    fn too_many_banks_panics() {
        config(2, 3);
    }

    #[test]
    fn honest_round_is_clean() {
        let (mut federation, mut isps, mut books) = setup(&config(3, 1));
        for (a, b) in [(0, 1), (1, 2), (2, 0), (0, 2)] {
            exchange_mail(&mut isps, &mut books, a, b);
        }
        let report = run_round(&mut federation, &mut isps, &mut books);
        assert!(report.is_clean(), "suspects: {:?}", report.suspects);
        assert_eq!(report.round, 0);
        assert!(report.settlements.is_empty());
        assert_eq!(federation.bank(0).stats().snapshot_rounds, 1);
    }

    #[test]
    fn second_round_uses_fresh_sequence() {
        let (mut federation, mut isps, mut books) = setup(&config(2, 1));
        exchange_mail(&mut isps, &mut books, 0, 1);
        let first = run_round(&mut federation, &mut isps, &mut books);
        assert!(first.is_clean());
        exchange_mail(&mut isps, &mut books, 1, 0);
        let second = run_round(&mut federation, &mut isps, &mut books);
        assert!(second.is_clean());
        assert_eq!(second.round, 1);
    }

    /// A cheater hides its sends to a peer in its own region (ISP 3) and to
    /// one in another region at two banks (ISP 0): the federation convicts
    /// both pairs, as the central bank does.
    #[test]
    fn cheaters_are_implicated_within_and_across_regions() {
        for banks in [1, 2] {
            let config = ZmailConfig::builder(4, 3)
                .banks(banks)
                .cheat(1, CheatMode::UnderReportSends { fraction: 1.0 })
                .build();
            let (mut federation, mut isps, mut books) = setup(&config);
            exchange_mail(&mut isps, &mut books, 1, 0); // hidden, cross-region
            exchange_mail(&mut isps, &mut books, 1, 3); // hidden, same region
            exchange_mail(&mut isps, &mut books, 0, 2); // honest pair
            let report = run_round(&mut federation, &mut isps, &mut books);
            assert!(report.implicates(IspId(1)), "banks={banks}");
            assert!(!report.implicates(IspId(2)), "banks={banks}");
            // isp0 reports credit[1] = -1, isp1 reports credit[0] = 0.
            assert_eq!(
                report.suspects,
                vec![(IspId(0), IspId(1), -1), (IspId(1), IspId(3), -1)],
                "banks={banks}"
            );
        }
    }

    #[test]
    fn in_flight_mail_during_snapshot_shows_as_discrepancy() {
        // If an email is still in flight when credits are gathered, the
        // pair cannot cancel — this is exactly why the paper freezes
        // senders for the quiescence window.
        let (mut federation, mut isps, mut books) = setup(&config(2, 1));
        isps[0]
            .send_email(&mut books, 0, UserAddr::new(1, 0), MailKind::Personal)
            .unwrap();
        // Deliberately do NOT deliver the message.
        let report = run_round(&mut federation, &mut isps, &mut books);
        assert!(!report.is_clean(), "in-flight mail must break the sums");
        assert_eq!(report.suspects[0].2, 1);
    }

    #[test]
    fn noncompliant_isps_excluded_from_round() {
        let config = ZmailConfig::builder(3, 2).non_compliant(&[2]).build();
        let (mut federation, ..) = setup(&config);
        let targets: Vec<IspId> = federation
            .start_snapshot()
            .iter()
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(targets, vec![IspId(0), IspId(1)]);
    }

    #[test]
    fn a_region_of_noncompliant_isps_is_never_asked() {
        // Bank 1's region is ISPs 1 and 3, both non-compliant.
        let config = ZmailConfig::builder(4, 3)
            .banks(2)
            .non_compliant(&[1, 3])
            .build();
        let (mut federation, mut isps, mut books) = setup(&config);
        exchange_mail(&mut isps, &mut books, 0, 2);
        for round in 0..2 {
            let report = run_round(&mut federation, &mut isps, &mut books);
            assert_eq!(report.round, round);
            assert!(report.is_clean());
            assert!(!federation.snapshot_in_progress());
        }
        let asked: Vec<IspId> = federation
            .start_snapshot()
            .iter()
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(asked, vec![IspId(0), IspId(2)]);
    }

    #[test]
    fn a_reply_nobody_awaits_changes_nothing() {
        for (banks, non_compliant) in [(1, &[][..]), (2, &[][..]), (2, &[1, 3][..])] {
            let config = ZmailConfig::builder(4, 3)
                .banks(banks)
                .non_compliant(non_compliant)
                .build();
            let (mut federation, mut isps, mut books) = setup(&config);
            let cell = format!("banks={banks}, non-compliant={non_compliant:?}");

            // Idle: a stray reply completes nothing and moves no counter.
            let before = all_stats(&federation);
            let key = federation.public_key_for(IspId(0));
            let mut stranger = Isp::new(IspId(0), &config, key, 1);
            let (from, stray) = sealed_reply(&mut stranger, &mut books);
            let stray = federation.handle_snapshot_reply(from, &stray).unwrap();
            assert_eq!(stray, None, "{cell}");
            assert!(!federation.snapshot_in_progress(), "{cell}");
            assert_eq!(all_stats(&federation), before, "{cell}");

            // Mid-round: ISP 0 replies, then its reply arrives again.
            let mut pending = answer_round(&mut federation, &mut isps, &mut books);
            let (first, reply) = pending.remove(0);
            assert_eq!(first, IspId(0));
            for _ in 0..2 {
                let outcome = federation.handle_snapshot_reply(first, &reply).unwrap();
                assert_eq!(outcome, None, "{cell}");
                assert!(federation.snapshot_in_progress(), "{cell}");
            }
            assert_eq!(all_stats(&federation), before, "{cell}");

            // The rest complete the round, and the next one can start.
            let mut report = None;
            for (from, envelope) in pending {
                report = federation.handle_snapshot_reply(from, &envelope).unwrap();
            }
            let report = report.expect("the last awaited reply completes the round");
            assert!(report.is_clean(), "{cell}");
            assert!(!federation.snapshot_in_progress(), "{cell}");
            assert!(!federation.start_snapshot().is_empty(), "{cell}");
        }
    }

    #[test]
    #[should_panic(expected = "already in progress")]
    fn overlapping_rounds_panic() {
        let (mut federation, ..) = setup(&config(2, 2));
        federation.start_snapshot();
        federation.start_snapshot();
    }

    #[test]
    fn honest_cross_region_round_is_clean_and_settles() {
        let (mut federation, mut isps, mut books) = setup(&config(4, 2));
        // isp0 (bank0) sends 3 to isp1 (bank1); isp1 sends 1 back; and an
        // intra-region exchange (isp0 -> isp2, both bank0).
        for (a, b) in [(0, 1), (0, 1), (0, 1), (1, 0), (0, 2)] {
            exchange_mail(&mut isps, &mut books, a, b);
        }
        let report = run_round(&mut federation, &mut isps, &mut books);
        assert!(report.is_clean(), "{report:?}");
        // Region0 sent 3 cross-region, received 1: net flow 0 -> 1 is 2.
        assert_eq!(report.settlements, vec![(0, 1, 2), (1, 0, -2)]);
        assert_eq!(report.net_flow(), 0);
    }

    #[test]
    fn balanced_cross_traffic_needs_no_settlement() {
        let (mut federation, mut isps, mut books) = setup(&config(2, 2));
        exchange_mail(&mut isps, &mut books, 0, 1);
        exchange_mail(&mut isps, &mut books, 1, 0);
        let report = run_round(&mut federation, &mut isps, &mut books);
        assert!(report.is_clean());
        assert!(report.settlements.is_empty(), "{:?}", report.settlements);
    }

    #[test]
    fn three_banks_three_way_settlement_nets_zero() {
        let (mut federation, mut isps, mut books) = setup(&config(6, 3));
        // Circular flow: region0 -> region1 (twice) -> region2 -> region0.
        for (a, b) in [(0, 1), (0, 1), (1, 2), (2, 0)] {
            exchange_mail(&mut isps, &mut books, a, b);
        }
        let report = run_round(&mut federation, &mut isps, &mut books);
        assert!(report.is_clean());
        assert_eq!(report.net_flow(), 0);
        assert!(report.settlements.contains(&(0, 1, 2)));
    }

    #[test]
    fn every_pair_cross_region_convicts_what_one_bank_convicts() {
        let traffic = [
            (0, 1),
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 1),
            (1, 3),
            (0, 3),
            (2, 3),
        ];
        let mut suspects = Vec::new();
        for banks in [1, 4] {
            let config = ZmailConfig::builder(4, 3)
                .banks(banks)
                .cheat(1, CheatMode::UnderReportSends { fraction: 1.0 })
                .build();
            let (mut federation, mut isps, mut books) = setup(&config);
            for (a, b) in traffic {
                exchange_mail(&mut isps, &mut books, a, b);
            }
            let report = run_round(&mut federation, &mut isps, &mut books);
            assert_eq!(report.net_flow(), 0, "banks={banks}");
            assert_eq!(report.settlements.is_empty(), banks == 1);
            suspects.push(report.suspects);
        }
        assert!(!suspects[0].is_empty());
        assert_eq!(suspects[0], suspects[1]);
    }
}
