//! Distributed banks: the §5 "Bank Setup" extension.
//!
//! *"The role of the bank in the Zmail protocol can be implemented as a
//! set of distributed banks or a hierarchy of banks. It is fairly
//! straightforward to extend the Zmail protocol to incorporate multiple
//! collaborating banks."* The paper leaves it at that; this module does
//! the extending:
//!
//! * every ISP has a **home bank** ([`Bank::regional`]) that runs its
//!   buy/sell exchanges and gathers its credit snapshot;
//! * after every regional round completes, the [`Federation`] reconciles
//!   **cross-region pairs** — the columns each regional bank collected are
//!   combined into the global pairwise check the central bank would have
//!   run;
//! * the same reconciliation yields the **inter-bank settlement**: the
//!   net e-penny flow between regions, which the banks settle in real
//!   money. Flows are antisymmetric by construction, so federation-wide
//!   settlement always nets to zero.

use crate::bank::{Bank, ConsistencyReport};
use crate::config::ZmailConfig;
use crate::ids::IspId;
use crate::msg::{Exchange, NetMsg};
use zmail_crypto::{CryptoError, PublicKey};

/// One net inter-bank settlement flow: `(from_bank, to_bank, e_pennies)`,
/// positive meaning `from_bank`'s region owes `to_bank`'s.
pub type SettlementFlow = (usize, usize, i64);

/// The outcome of a completed federated round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederatedRound {
    /// The global pairwise consistency report (all compliant pairs, both
    /// intra- and cross-region).
    pub consistency: ConsistencyReport,
    /// Net inter-bank settlement flows. Only nonzero flows are listed,
    /// each direction of a pair once.
    pub settlements: Vec<SettlementFlow>,
}

impl FederatedRound {
    /// Sum of all settlement flows — always zero for honest regions
    /// (every e-penny one region owes is owed *to* another).
    pub fn net_flow(&self) -> i64 {
        self.settlements.iter().map(|&(_, _, amount)| amount).sum()
    }
}

/// A set of collaborating regional banks.
///
/// # Example
///
/// ```rust
/// use zmail_core::multibank::Federation;
/// use zmail_core::{IspId, ZmailConfig};
///
/// let config = ZmailConfig::builder(4, 10).build();
/// let federation = Federation::new(&config, 2, 7);
/// assert_eq!(federation.bank_count(), 2);
/// // Round-robin homes: each ISP is keyed to its regional bank.
/// assert_eq!(federation.home_bank(IspId(3)), 1);
/// let _bank_key = federation.public_key_for(IspId(3));
/// ```
#[derive(Debug)]
pub struct Federation {
    banks: Vec<Bank>,
    /// `assignment[isp] = bank index`.
    assignment: Vec<usize>,
    compliant: Vec<bool>,
    /// Regional rounds completed but not yet reconciled this federated
    /// round.
    pending_regional: Vec<Option<ConsistencyReport>>,
    rounds: u64,
}

impl Federation {
    /// Builds a federation of `banks` regional banks with round-robin ISP
    /// assignment.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or exceeds the ISP count.
    pub fn new(config: &ZmailConfig, banks: u32, seed: u64) -> Self {
        config.validate();
        assert!(banks >= 1, "need at least one bank");
        assert!(banks <= config.isps, "more banks than ISPs");
        let assignment: Vec<usize> = (0..config.isps).map(|i| (i % banks) as usize).collect();
        Self::with_assignment(config, assignment, seed)
    }

    /// Builds a federation with an explicit `assignment[isp] = bank`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is ragged or references no bank.
    pub fn with_assignment(config: &ZmailConfig, assignment: Vec<usize>, seed: u64) -> Self {
        assert_eq!(
            assignment.len(),
            config.isps as usize,
            "one home bank per ISP required"
        );
        let bank_count = assignment.iter().max().map_or(0, |&b| b + 1);
        assert!(bank_count >= 1, "assignment references no bank");
        let mut banks: Vec<Bank> = (0..bank_count)
            .map(|b| {
                let served: Vec<bool> = assignment.iter().map(|&home| home == b).collect();
                Bank::regional(config, seed ^ ((b as u64 + 1) << 24), served)
            })
            .collect();
        for (b, bank) in banks.iter_mut().enumerate() {
            bank.set_index(b as u32);
        }
        Federation {
            pending_regional: vec![None; banks.len()],
            banks,
            assignment,
            compliant: config.compliant.clone(),
            rounds: 0,
        }
    }

    /// Number of member banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The home bank index of `isp`.
    pub fn home_bank(&self, isp: IspId) -> usize {
        self.assignment[isp.index()]
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

    /// E-pennies outstanding across the whole federation.
    pub fn total_issued(&self) -> i64 {
        self.banks.iter().map(Bank::issued).sum()
    }

    /// Every member bank's durable books, in federation order — the
    /// bank half of a ledger-store bootstrap.
    pub fn bank_books(&self) -> Vec<zmail_store::BankBooks> {
        self.banks.iter().map(|b| b.books().clone()).collect()
    }

    /// Takes the ledger records every member bank journalled since the
    /// last drain, in federation order.
    pub fn drain_journals(&mut self) -> Vec<zmail_store::LedgerRecord> {
        let mut records = Vec::new();
        for bank in &mut self.banks {
            records.append(&mut bank.drain_journal());
        }
        records
    }

    /// `isp`'s real-money account, held at its home bank.
    pub fn account_of(&self, isp: IspId) -> zmail_econ::RealPennies {
        self.banks[self.home_bank(isp)].account(isp)
    }

    /// Whether any regional round (or the federated reconciliation) is
    /// still in progress.
    pub fn snapshot_in_progress(&self) -> bool {
        self.banks.iter().any(Bank::snapshot_in_progress)
            || self.pending_regional.iter().any(Option::is_some)
    }

    /// Routes a `buy` or `sell` to the sender's home bank.
    ///
    /// # Errors
    ///
    /// Propagates the bank's crypto/replay errors.
    pub fn handle_exchange(
        &mut self,
        side: Exchange,
        from: IspId,
        envelope: &zmail_crypto::SealedEnvelope,
    ) -> Result<NetMsg, CryptoError> {
        let home = self.home_bank(from);
        self.banks[home].handle_exchange(side, from, envelope)
    }

    /// Starts a federated snapshot: every regional bank requests its own
    /// ISPs' credit arrays. Returns all requests to put on the wire.
    ///
    /// # Panics
    ///
    /// Panics if a federated round is already in progress.
    pub fn start_snapshot(&mut self) -> Vec<(IspId, NetMsg)> {
        assert!(
            self.pending_regional.iter().all(Option::is_none)
                && self.banks.iter().all(|b| !b.snapshot_in_progress()),
            "federated round already in progress"
        );
        let mut requests = Vec::new();
        for bank in &mut self.banks {
            requests.extend(bank.start_snapshot());
        }
        requests
    }

    /// Handles a snapshot reply, routed to the reporting ISP's home bank.
    /// Returns `Some` when this reply completes the **federated** round:
    /// all regional rounds done, cross-region pairs reconciled, and the
    /// inter-bank settlement computed.
    ///
    /// # Errors
    ///
    /// Propagates the regional bank's errors.
    pub fn handle_snapshot_reply(
        &mut self,
        from: IspId,
        envelope: &zmail_crypto::SealedEnvelope,
    ) -> Result<Option<FederatedRound>, CryptoError> {
        let home = self.home_bank(from);
        if let Some(regional) = self.banks[home].handle_snapshot_reply(from, envelope)? {
            self.pending_regional[home] = Some(regional);
        }
        // A bank serving zero compliant ISPs completes vacuously.
        for (b, _bank) in self.banks.iter().enumerate() {
            let serves_any =
                (0..self.compliant.len()).any(|i| self.compliant[i] && self.assignment[i] == b);
            if !serves_any && self.pending_regional[b].is_none() {
                self.pending_regional[b] = Some(ConsistencyReport {
                    round: self.rounds,
                    suspects: Vec::new(),
                });
            }
        }
        if self.pending_regional.iter().any(Option::is_none) {
            return Ok(None);
        }
        Ok(Some(self.reconcile()))
    }

    /// Combines the regional columns into the global check + settlement.
    #[allow(clippy::needless_range_loop)] // indices address three parallel structures
    fn reconcile(&mut self) -> FederatedRound {
        let n = self.compliant.len();
        // Regional suspects first (pairs within one bank's region).
        let mut suspects: Vec<(IspId, IspId, i64)> = self
            .pending_regional
            .iter_mut()
            .filter_map(Option::take)
            .flat_map(|r| r.suspects)
            .collect();
        // Cross-region pairs: bank of i holds column i, bank of j holds
        // column j; combine them.
        let mut flows = vec![vec![0i64; self.banks.len()]; self.banks.len()];
        for i in 0..n {
            if !self.compliant[i] {
                continue;
            }
            let credit_i = self.banks[self.assignment[i]].reported_credit(IspId(i as u32));
            for j in (i + 1)..n {
                if !self.compliant[j] {
                    continue;
                }
                let bank_i = self.assignment[i];
                let bank_j = self.assignment[j];
                let credit_j = self.banks[bank_j].reported_credit(IspId(j as u32));
                if bank_i != bank_j {
                    let sum = credit_i[j] + credit_j[i];
                    if sum != 0 {
                        suspects.push((IspId(i as u32), IspId(j as u32), sum));
                    }
                }
                // Settlement: credit_i[j] is i's *net* paid-mail balance
                // toward j (sends minus receives); credit_j[i] is the
                // mirror. Both columns carry the same information, so the
                // region-to-region flow is the antisymmetric half.
                if bank_i != bank_j {
                    flows[bank_i][bank_j] += credit_i[j];
                    flows[bank_j][bank_i] += credit_j[i];
                }
            }
        }
        let mut settlements = Vec::new();
        for a in 0..self.banks.len() {
            for b in (a + 1)..self.banks.len() {
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
        suspects.sort();
        suspects.dedup();
        let round = FederatedRound {
            consistency: ConsistencyReport {
                round: self.rounds,
                suspects,
            },
            settlements,
        };
        self.rounds += 1;
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::{Isp, SendOutcome};
    use zmail_sim::workload::{MailKind, UserAddr};

    fn setup(n: u32, banks: u32) -> (Federation, Vec<Isp>) {
        let config = ZmailConfig::builder(n, 3).build();
        let federation = Federation::new(&config, banks, 91);
        let isps = (0..n)
            .map(|i| {
                Isp::new(
                    IspId(i),
                    &config,
                    federation.public_key_for(IspId(i)),
                    400 + u64::from(i),
                )
            })
            .collect();
        (federation, isps)
    }

    fn exchange_mail(isps: &mut [Isp], a: u32, b: u32) {
        let outcome = isps[a as usize]
            .send_email(0, UserAddr::new(b, 0), MailKind::Personal)
            .unwrap();
        let SendOutcome::Outbound {
            msg: NetMsg::Email(email),
            ..
        } = outcome
        else {
            panic!("expected outbound");
        };
        isps[b as usize].receive_email(IspId(a), &email);
    }

    fn run_federated_round(federation: &mut Federation, isps: &mut [Isp]) -> FederatedRound {
        let requests = federation.start_snapshot();
        let mut outcome = None;
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
            if let Some(r) = federation.handle_snapshot_reply(from, &envelope).unwrap() {
                outcome = Some(r);
            }
        }
        outcome.expect("federated round should complete")
    }

    #[test]
    fn round_robin_assignment() {
        let (federation, _) = setup(5, 2);
        assert_eq!(federation.bank_count(), 2);
        assert_eq!(federation.home_bank(IspId(0)), 0);
        assert_eq!(federation.home_bank(IspId(1)), 1);
        assert_eq!(federation.home_bank(IspId(4)), 0);
        assert!(federation.bank(0).serves(IspId(2)));
        assert!(!federation.bank(0).serves(IspId(1)));
    }

    #[test]
    fn honest_cross_region_round_is_clean_and_settles() {
        let (mut federation, mut isps) = setup(4, 2);
        // isp0 (bank0) sends 3 to isp1 (bank1); isp1 sends 1 back.
        exchange_mail(&mut isps, 0, 1);
        exchange_mail(&mut isps, 0, 1);
        exchange_mail(&mut isps, 0, 1);
        exchange_mail(&mut isps, 1, 0);
        // And an intra-region exchange (isp0 -> isp2, both bank0).
        exchange_mail(&mut isps, 0, 2);
        let round = run_federated_round(&mut federation, &mut isps);
        assert!(round.consistency.is_clean(), "{:?}", round.consistency);
        // Region0 sent 3 cross-region, received 1: net flow 0 -> 1 is 2.
        assert_eq!(round.settlements.len(), 2);
        assert!(round.settlements.contains(&(0, 1, 2)));
        assert!(round.settlements.contains(&(1, 0, -2)));
        assert_eq!(round.net_flow(), 0);
    }

    #[test]
    fn balanced_cross_traffic_needs_no_settlement() {
        let (mut federation, mut isps) = setup(2, 2);
        exchange_mail(&mut isps, 0, 1);
        exchange_mail(&mut isps, 1, 0);
        let round = run_federated_round(&mut federation, &mut isps);
        assert!(round.consistency.is_clean());
        assert!(round.settlements.is_empty(), "{:?}", round.settlements);
    }

    #[test]
    fn cross_region_cheater_is_caught_by_federation() {
        let config = ZmailConfig::builder(4, 3)
            .cheat(
                1,
                crate::config::CheatMode::UnderReportSends { fraction: 1.0 },
            )
            .build();
        let mut federation = Federation::new(&config, 2, 92);
        let mut isps: Vec<Isp> = (0..4)
            .map(|i| {
                Isp::new(
                    IspId(i),
                    &config,
                    federation.public_key_for(IspId(i)),
                    500 + u64::from(i),
                )
            })
            .collect();
        // Cheater isp1 (bank1) hides a send to isp0 (bank0): a pair no
        // single regional bank could verify alone.
        exchange_mail(&mut isps, 1, 0);
        let round = run_federated_round(&mut federation, &mut isps);
        assert!(!round.consistency.is_clean());
        assert!(round.consistency.implicates(IspId(1)));
    }

    #[test]
    fn exchanges_route_to_home_bank() {
        for (side, initial) in [(Exchange::Buy, 10), (Exchange::Sell, 500)] {
            let config = ZmailConfig::builder(2, 2)
                .avail_bounds(
                    zmail_econ::EPennies(100),
                    zmail_econ::EPennies(200),
                    zmail_econ::EPennies(initial),
                )
                .build();
            let mut federation = Federation::new(&config, 2, 93);
            let mut isp1 = Isp::new(IspId(1), &config, federation.public_key_for(IspId(1)), 7);
            let Some(NetMsg::Exchange {
                envelope, audit, ..
            }) = isp1.maybe_exchange(side)
            else {
                panic!("expected {side:?}");
            };
            let account_before = federation.bank(1).account(IspId(1));
            let reply = federation
                .handle_exchange(side, IspId(1), &envelope)
                .unwrap();
            assert_eq!(federation.bank(1).issued(), side.sign() * audit);
            assert_eq!(federation.bank(0).issued(), 0, "wrong bank untouched");
            assert_eq!(
                federation.bank(1).account(IspId(1)),
                account_before - zmail_econ::RealPennies(side.sign() * audit)
            );
            let NetMsg::ExchangeReply { envelope, .. } = reply else {
                panic!("expected reply");
            };
            isp1.handle_exchange_reply(side, &envelope).unwrap();
            assert_eq!(
                isp1.avail(),
                zmail_econ::EPennies(initial + side.sign() * audit)
            );
        }
    }

    #[test]
    fn reply_sealed_for_wrong_bank_is_rejected() {
        // An ISP keyed to bank0 cannot complete an exchange with bank1.
        let (mut federation, _) = setup(2, 2);
        // Build an ISP keyed to bank0 whose pool is drained so a buy
        // triggers immediately.
        let drained = ZmailConfig::builder(2, 3)
            .avail_bounds(
                zmail_econ::EPennies(100),
                zmail_econ::EPennies(200),
                zmail_econ::EPennies(0),
            )
            .build();
        let mut isp = Isp::new(IspId(0), &drained, federation.public_key_for(IspId(0)), 9);
        let Some(NetMsg::Exchange { envelope, .. }) = isp.maybe_exchange(Exchange::Buy) else {
            panic!("expected buy");
        };
        // Deliver to the wrong bank: its private key cannot open it.
        let err = federation.banks[1].handle_exchange(Exchange::Buy, IspId(0), &envelope);
        assert!(err.is_err(), "wrong bank must fail to open the envelope");
    }

    #[test]
    fn three_banks_three_way_settlement_nets_zero() {
        let (mut federation, mut isps) = setup(6, 3);
        // Circular flow: region0 -> region1 -> region2 -> region0.
        exchange_mail(&mut isps, 0, 1); // banks 0 -> 1
        exchange_mail(&mut isps, 0, 1);
        exchange_mail(&mut isps, 1, 2); // banks 1 -> 2
        exchange_mail(&mut isps, 2, 0); // banks 2 -> 0
        let round = run_federated_round(&mut federation, &mut isps);
        assert!(round.consistency.is_clean());
        assert_eq!(round.net_flow(), 0);
        assert!(round.settlements.contains(&(0, 1, 2)));
    }

    #[test]
    #[should_panic(expected = "more banks than ISPs")]
    fn too_many_banks_panics() {
        let config = ZmailConfig::builder(2, 2).build();
        Federation::new(&config, 3, 1);
    }

    #[test]
    #[should_panic(expected = "already in progress")]
    fn overlapping_federated_rounds_panic() {
        let (mut federation, _) = setup(2, 2);
        federation.start_snapshot();
        federation.start_snapshot();
    }
}
