//! The bank process (§4.3–4.4 of the paper).
//!
//! The bank manages e-pennies *for ISPs*, never for individual users: it
//! sells e-pennies against each compliant ISP's real-money account, buys
//! them back, and periodically gathers every compliant ISP's `credit`
//! array to verify pairwise consistency — the paper's misbehavior
//! detection. All exchanges are sealed with the bank keypair and protected
//! against replay by nonces, exactly as in the specification. `buy` and
//! `sell` are one handler, [`Bank::handle_exchange`], in which only the
//! ledger line (and the reply words it decides) depends on the
//! [`Exchange`] side.

use crate::config::ZmailConfig;
use crate::ids::IspId;
use crate::msg::{decode_credit, decode_value_nonce, encode_value_nonce, Exchange, NetMsg};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use zmail_crypto::{
    open_with_private, seal_with_private, CryptoError, KeyPair, Nnc, PublicKey, ReplayGuard,
};
use zmail_econ::{EPennies, ExchangeRate, RealPennies};
use zmail_store::{BankBooks, LedgerRecord};

/// Counters the experiments read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Buy requests granted.
    pub buys_granted: u64,
    /// Buy requests rejected for insufficient ISP funds.
    pub buys_rejected: u64,
    /// Sell requests processed.
    pub sells: u64,
    /// Replayed buy/sell requests dropped.
    pub replays_dropped: u64,
    /// Retransmissions answered from the reply cache instead of being
    /// dropped (idempotent request ids only).
    pub idempotent_replays: u64,
    /// Snapshot rounds completed.
    pub snapshot_rounds: u64,
}

/// The outcome of a completed consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Billing round this report closes (0-based).
    pub round: u64,
    /// Pairs whose mutual credits do not cancel, with the discrepancy
    /// `credit_i[j] + credit_j[i]`.
    pub suspects: Vec<(IspId, IspId, i64)>,
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
}

/// The central bank — or, via [`Bank::regional`], one member of the §5
/// "set of distributed banks".
#[derive(Debug)]
pub struct Bank {
    keypair: KeyPair,
    compliant: Vec<bool>,
    /// Which ISPs this bank serves (all of them for the central bank).
    served: Vec<bool>,
    /// The durable ledgers: per-ISP real-money accounts and outstanding
    /// issue. Changed only by [`Bank::commit`].
    books: BankBooks,
    exchange: ExchangeRate,
    seq: u64,
    nnc: Nnc,
    /// `verify[i][g]` = the value of `credit[i]` reported by `isp[g]`.
    verify: Vec<Vec<i64>>,
    awaiting: BTreeSet<IspId>,
    replay: ReplayGuard,
    rng: SmallRng,
    stats: BankStats,
    /// This bank's slot in the federation (0 for the central bank) —
    /// the index its journal records carry.
    index: u32,
    /// Serve retransmitted exchanges from a cache instead of dropping
    /// them ([`ZmailConfig::idempotent_bank_ids`]).
    idempotent: bool,
    /// Per request nonce, the copy of its reply a retransmission is
    /// served — flagged `replayed` for the auditor. Empty unless
    /// idempotent ids are on.
    reply_cache: BTreeMap<u64, NetMsg>,
    journal_enabled: bool,
    journal: Vec<LedgerRecord>,
}

impl Bank {
    /// Creates the central bank for a deployment, generating its keypair.
    pub fn new(config: &ZmailConfig, seed: u64) -> Self {
        let served = vec![true; config.isps as usize];
        Self::regional(config, seed, served)
    }

    /// Creates a *regional* bank serving only the masked ISPs — the §5
    /// extension to "a set of distributed banks". A regional bank runs
    /// buy/sell and snapshot gathering for its own ISPs; cross-region
    /// consistency is reconciled by
    /// [`Federation`](crate::multibank::Federation).
    ///
    /// # Panics
    ///
    /// Panics if the mask length disagrees with the configuration.
    pub fn regional(config: &ZmailConfig, seed: u64, served: Vec<bool>) -> Self {
        config.validate();
        assert_eq!(
            served.len(),
            config.isps as usize,
            "served mask length mismatch"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA5E_BA11);
        let keypair = KeyPair::generate(&mut rng);
        let n = config.isps as usize;
        Bank {
            keypair,
            compliant: config.compliant.clone(),
            served,
            books: BankBooks {
                accounts: vec![config.initial_bank_account.0; n],
                issued: 0,
            },
            exchange: config.exchange_rate,
            seq: 0,
            nnc: Nnc::new(seed ^ 0x0B4A_4B0B, u64::MAX),
            verify: vec![vec![0; n]; n],
            awaiting: BTreeSet::new(),
            replay: ReplayGuard::new(),
            rng,
            stats: BankStats::default(),
            index: 0,
            idempotent: config.idempotent_bank_ids,
            reply_cache: BTreeMap::new(),
            journal_enabled: config.durability.is_some(),
            journal: Vec::new(),
        }
    }

    /// Sets the slot this bank occupies in its federation; journal
    /// records carry it so recovery can address the right books.
    pub(crate) fn set_index(&mut self, index: u32) {
        self.index = index;
    }

    /// The one way the durable ledgers change; see
    /// [`Isp::commit`](crate::isp::Isp).
    fn commit(&mut self, rec: LedgerRecord) {
        self.books.apply(&rec);
        if self.journal_enabled {
            self.journal.push(rec);
        }
    }

    /// Takes every ledger record journalled since the last drain; the
    /// harness appends them to the durable store.
    pub fn drain_journal(&mut self) -> Vec<LedgerRecord> {
        std::mem::take(&mut self.journal)
    }

    /// This bank's durable books: its accounts and issuance in the
    /// store's format, what bootstraps a ledger store.
    pub fn books(&self) -> &BankBooks {
        &self.books
    }

    /// Whether this bank serves `isp`.
    pub fn serves(&self, isp: IspId) -> bool {
        self.served[isp.index()]
    }

    /// The bank's public key (`B_b`), distributed to every ISP.
    pub fn public_key(&self) -> PublicKey {
        *self.keypair.public()
    }

    /// Real-money account of `isp` at the bank.
    pub fn account(&self, isp: IspId) -> RealPennies {
        RealPennies(self.books.accounts[isp.index()])
    }

    /// E-pennies currently outstanding (issued − retired); the anchor of
    /// the conservation audit.
    pub fn issued(&self) -> i64 {
        self.books.issued
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Whether a snapshot round is in progress.
    pub fn snapshot_in_progress(&self) -> bool {
        !self.awaiting.is_empty()
    }

    // ------------------------------------------------------------------
    // buy / sell
    // ------------------------------------------------------------------

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
        side: Exchange,
        from: IspId,
        envelope: &zmail_crypto::SealedEnvelope,
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
        let real = self.exchange.to_real(EPennies(value));
        let (accepted, audit) = match side {
            Exchange::Buy if value > 0 && self.account(from) >= real => {
                self.stats.buys_granted += 1;
                self.commit(LedgerRecord::BankBuy {
                    bank,
                    isp,
                    value,
                    cost: real.0,
                });
                (true, value)
            }
            Exchange::Buy => {
                self.stats.buys_rejected += 1;
                (false, 0)
            }
            Exchange::Sell => {
                self.stats.sells += 1;
                self.commit(LedgerRecord::BankSell {
                    bank,
                    isp,
                    value,
                    credit: real.0,
                });
                (false, value)
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

    // ------------------------------------------------------------------
    // snapshot & consistency verification
    // ------------------------------------------------------------------

    /// Begins a snapshot round: returns a sealed `request(seq)` for every
    /// compliant ISP.
    ///
    /// # Panics
    ///
    /// Panics if a round is already in progress — the caller must wait for
    /// [`Bank::handle_snapshot_reply`] to report completion.
    pub fn start_snapshot(&mut self) -> Vec<(IspId, NetMsg)> {
        assert!(
            self.awaiting.is_empty(),
            "snapshot round already in progress"
        );
        for row in &mut self.verify {
            for cell in row {
                *cell = 0;
            }
        }
        let mut requests = Vec::new();
        for (g, &compliant) in self.compliant.iter().enumerate() {
            if !compliant || !self.served[g] {
                continue;
            }
            let isp = IspId(g as u32);
            self.awaiting.insert(isp);
            let nonce = self.nnc.next_nonce();
            let plain = encode_value_nonce(self.seq as i64, nonce);
            requests.push((
                isp,
                NetMsg::SnapshotRequest {
                    envelope: seal_with_private(self.keypair.private(), &plain, &mut self.rng),
                },
            ));
        }
        requests
    }

    /// Handles `reply(x)` from `isp[g]`. Returns `Some(report)` when this
    /// reply completes the round: pairwise sums are verified, the round
    /// counter advances, and the suspect list is produced.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] for undecipherable or malformed replies;
    /// replies from ISPs not being awaited are ignored with `Ok(None)`.
    pub fn handle_snapshot_reply(
        &mut self,
        from: IspId,
        envelope: &zmail_crypto::SealedEnvelope,
    ) -> Result<Option<ConsistencyReport>, CryptoError> {
        if !self.awaiting.contains(&from) {
            return Ok(None);
        }
        let plain = open_with_private(self.keypair.private(), envelope)?;
        let credit = decode_credit(&plain).ok_or(CryptoError::Malformed)?;
        if credit.len() != self.compliant.len() {
            return Err(CryptoError::Malformed);
        }
        for (i, &value) in credit.iter().enumerate() {
            self.verify[i][from.index()] = value;
        }
        self.awaiting.remove(&from);
        if !self.awaiting.is_empty() {
            return Ok(None);
        }
        Ok(Some(self.verify_round()))
    }

    /// The credit vector `isp` reported in the most recent completed round
    /// (the column `verify[·][isp]`). Used by the federation to reconcile
    /// pairs that span regional banks.
    pub fn reported_credit(&self, isp: IspId) -> Vec<i64> {
        self.verify.iter().map(|row| row[isp.index()]).collect()
    }

    fn verify_round(&mut self) -> ConsistencyReport {
        let n = self.compliant.len();
        let mut suspects = Vec::new();
        for i in 0..n {
            // A regional bank can only verify pairs it has both columns
            // for; cross-region pairs are the federation's job.
            if !self.compliant[i] || !self.served[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !self.compliant[j] || !self.served[j] {
                    continue;
                }
                // credit[j] in isp[i] + credit[i] in isp[j] must be zero.
                let sum = self.verify[j][i] + self.verify[i][j];
                if sum != 0 {
                    suspects.push((IspId(i as u32), IspId(j as u32), sum));
                }
            }
        }
        let report = ConsistencyReport {
            round: self.stats.snapshot_rounds,
            suspects,
        };
        self.stats.snapshot_rounds += 1;
        self.seq += 1;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::Isp;
    use zmail_sim::workload::{MailKind, UserAddr};

    fn config(n: u32) -> ZmailConfig {
        ZmailConfig::builder(n, 3).build()
    }

    fn setup(n: u32) -> (Bank, Vec<Isp>) {
        let cfg = config(n);
        let bank = Bank::new(&cfg, 55);
        let isps = (0..n)
            .map(|i| Isp::new(IspId(i), &cfg, bank.public_key(), 200 + u64::from(i)))
            .collect();
        (bank, isps)
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
                let mut bank = Bank::new(&cfg, 7);
                let mut isp = Isp::new(IspId(0), &cfg, bank.public_key(), 8);
                let account = bank.account(IspId(0));
                let sign = side.sign();
                let one_of_side = [u64::from(sign > 0), u64::from(sign < 0)];

                // The request: only the side whose edge the pool crossed
                // fires, once, for the distance to the midpoint (150).
                assert!(isp.retry_exchange(side).is_none(), "nothing yet");
                assert!(isp.maybe_exchange(other).is_none());
                let Some(NetMsg::Exchange {
                    side: asked,
                    envelope: request,
                    audit: value,
                }) = isp.maybe_exchange(side)
                else {
                    panic!("expected a request");
                };
                assert_eq!((asked, value), (side, sign * (150 - initial)));
                assert!(isp.maybe_exchange(side).is_none(), "one at a time");
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
                assert!(isp.handle_exchange_reply(side, &forged).is_err());
                assert_eq!(isp.exchange_request_id(side), Some(id));

                // Served: the bank's ledger moves by `value`, the reply
                // says so — and this reply is then lost.
                let NetMsg::ExchangeReply {
                    side: answered,
                    envelope: lost,
                    audit,
                    replayed: false,
                } = bank.handle_exchange(side, IspId(0), &request).unwrap()
                else {
                    panic!("expected a first-hand reply");
                };
                assert_eq!((answered, audit), (side, value));
                assert_eq!(bank.issued(), sign * value);
                assert_eq!(bank.account(IspId(0)), account - RealPennies(sign * value));
                assert_eq!([bank.stats().buys_granted, bank.stats().sells], one_of_side);

                // The same request again: dropped by the replay guard,
                // or answered from the cache — never served twice.
                match bank.handle_exchange(side, IspId(0), &request) {
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
                assert_eq!(bank.issued(), sign * value, "not served twice");

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
                } = bank.handle_exchange(side, IspId(0), &retry).unwrap()
                else {
                    panic!("expected a reply");
                };
                assert_eq!(replayed, idempotent);
                let times = if idempotent { 1 } else { 2 };
                assert_eq!(bank.issued(), times * sign * value);

                // The "lost" reply turns up after all, ahead of the
                // second: stale against a rotated nonce, matching
                // against a kept one. Exactly one of the two is applied;
                // the pool lands on the midpoint once.
                let first = isp.handle_exchange_reply(side, &lost).unwrap();
                assert_eq!(isp.exchange_outstanding(), !idempotent);
                let then = isp.handle_exchange_reply(side, &second).unwrap();
                assert_eq!((first, then), (idempotent, !idempotent));
                assert_eq!(isp.avail(), EPennies(150));
                assert!(!isp.exchange_outstanding());
                assert_eq!(isp.stats().stale_replies, 1);
                // A replay of either reply is ignored too.
                assert!(!isp.handle_exchange_reply(side, &second).unwrap());
                assert!(!isp.handle_exchange_reply(side, &lost).unwrap());
                assert_eq!(isp.avail(), EPennies(150));
                assert_eq!(isp.stats().stale_replies, 3);
                assert!(isp.maybe_exchange(side).is_none(), "pool in band");
            }
        }
    }

    #[test]
    fn buy_rejected_when_isp_account_short() {
        let mut cfg = ZmailConfig::builder(1, 2)
            .avail_bounds(EPennies(1_000), EPennies(100_000), EPennies(0))
            .build();
        cfg.initial_bank_account = RealPennies(5); // can't afford 50 500
        let mut bank = Bank::new(&cfg, 3);
        let mut isp = Isp::new(IspId(0), &cfg, bank.public_key(), 4);
        let Some(NetMsg::Exchange { envelope, .. }) = isp.maybe_exchange(Exchange::Buy) else {
            panic!("expected buy");
        };
        let NetMsg::ExchangeReply {
            envelope, audit, ..
        } = bank
            .handle_exchange(Exchange::Buy, IspId(0), &envelope)
            .unwrap()
        else {
            panic!("expected reply");
        };
        assert_eq!(audit, 0);
        assert_eq!(bank.issued(), 0);
        isp.handle_exchange_reply(Exchange::Buy, &envelope).unwrap();
        assert_eq!(isp.avail(), EPennies(0), "rejected buy adds nothing");
        assert_eq!(bank.stats().buys_rejected, 1);
        // The ISP may try again (the exchange was closed).
        assert!(isp.maybe_exchange(Exchange::Buy).is_some());
    }

    fn run_snapshot_round(bank: &mut Bank, isps: &mut [Isp]) -> ConsistencyReport {
        let requests = bank.start_snapshot();
        let mut report = None;
        for (target, msg) in requests {
            let NetMsg::SnapshotRequest { envelope } = msg else {
                panic!("expected request");
            };
            let isp = &mut isps[target.index()];
            assert!(isp.handle_snapshot_request(&envelope).unwrap());
            let (reply, _) = isp.finish_snapshot();
            let NetMsg::SnapshotReply { from, envelope } = reply else {
                panic!("expected reply");
            };
            if let Some(r) = bank.handle_snapshot_reply(from, &envelope).unwrap() {
                report = Some(r);
            }
        }
        report.expect("round should complete")
    }

    /// Delivers one paid message from `a` to `b` end to end.
    fn exchange_mail(isps: &mut [Isp], a: u32, b: u32) {
        let to = UserAddr::new(b, 0);
        let outcome = isps[a as usize]
            .send_email(0, to, MailKind::Personal)
            .unwrap();
        let crate::isp::SendOutcome::Outbound {
            msg: NetMsg::Email(email),
            ..
        } = outcome
        else {
            panic!("expected outbound");
        };
        isps[b as usize].receive_email(IspId(a), &email);
    }

    #[test]
    fn honest_round_is_clean() {
        let (mut bank, mut isps) = setup(3);
        exchange_mail(&mut isps, 0, 1);
        exchange_mail(&mut isps, 1, 2);
        exchange_mail(&mut isps, 2, 0);
        exchange_mail(&mut isps, 0, 2);
        let report = run_snapshot_round(&mut bank, &mut isps);
        assert!(report.is_clean(), "suspects: {:?}", report.suspects);
        assert_eq!(report.round, 0);
        assert_eq!(bank.stats().snapshot_rounds, 1);
    }

    #[test]
    fn second_round_uses_fresh_sequence() {
        let (mut bank, mut isps) = setup(2);
        exchange_mail(&mut isps, 0, 1);
        let first = run_snapshot_round(&mut bank, &mut isps);
        assert!(first.is_clean());
        exchange_mail(&mut isps, 1, 0);
        let second = run_snapshot_round(&mut bank, &mut isps);
        assert!(second.is_clean());
        assert_eq!(second.round, 1);
    }

    #[test]
    fn cheating_isp_is_implicated() {
        let cfg = ZmailConfig::builder(3, 3)
            .cheat(
                1,
                crate::config::CheatMode::UnderReportSends { fraction: 1.0 },
            )
            .build();
        let mut bank = Bank::new(&cfg, 66);
        let mut isps: Vec<Isp> = (0..3)
            .map(|i| Isp::new(IspId(i), &cfg, bank.public_key(), 300 + u64::from(i)))
            .collect();
        exchange_mail(&mut isps, 1, 0); // cheater hides this send
        exchange_mail(&mut isps, 0, 2); // honest pair
        let report = run_snapshot_round(&mut bank, &mut isps);
        assert!(!report.is_clean());
        assert!(report.implicates(IspId(1)));
        assert!(!report.implicates(IspId(2)));
        // Discrepancy: isp0 reports credit[1] = -1, isp1 reports credit[0]=0.
        assert_eq!(report.suspects, vec![(IspId(0), IspId(1), -1)]);
    }

    #[test]
    fn in_flight_mail_during_snapshot_shows_as_discrepancy() {
        // If an email is still in flight when credits are gathered, the
        // pair cannot cancel — this is exactly why the paper freezes
        // senders for the quiescence window.
        let (mut bank, mut isps) = setup(2);
        let outcome = isps[0]
            .send_email(0, UserAddr::new(1, 0), MailKind::Personal)
            .unwrap();
        // Deliberately do NOT deliver the message.
        let _ = outcome;
        let report = run_snapshot_round(&mut bank, &mut isps);
        assert!(!report.is_clean(), "in-flight mail must break the sums");
        assert_eq!(report.suspects[0].2, 1);
    }

    #[test]
    fn noncompliant_isps_excluded_from_round() {
        let cfg = ZmailConfig::builder(3, 2).non_compliant(&[2]).build();
        let mut bank = Bank::new(&cfg, 77);
        let requests = bank.start_snapshot();
        let targets: Vec<IspId> = requests.iter().map(|&(t, _)| t).collect();
        assert_eq!(targets, vec![IspId(0), IspId(1)]);
    }

    #[test]
    fn unsolicited_reply_is_ignored() {
        let (mut bank, mut isps) = setup(2);
        // No round in progress: a stray reply changes nothing.
        let (reply, _) = isps[0].finish_snapshot();
        let NetMsg::SnapshotReply { from, envelope } = reply else {
            panic!("expected reply");
        };
        assert_eq!(bank.handle_snapshot_reply(from, &envelope).unwrap(), None);
        assert_eq!(bank.stats().snapshot_rounds, 0);
    }

    #[test]
    #[should_panic(expected = "already in progress")]
    fn overlapping_rounds_panic() {
        let (mut bank, _) = setup(2);
        bank.start_snapshot();
        bank.start_snapshot();
    }
}
