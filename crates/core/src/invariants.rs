//! The auditors: machine-checked statements of the paper's implicit
//! invariants.
//!
//! 1. **Conservation** — e-pennies are created only by the bank's buy
//!    grants and destroyed only by its sell settlements, so at any instant
//!    `issued = Σ user balances + Σ ISP pools + pennies in flight`.
//! 2. **Non-negativity** — no balance, pool, or account ever goes below
//!    zero (the protocol's guards refuse the operations that would).
//! 3. **Zero-sum transfers** — implied by 1 + 2 and checked directly in
//!    the system tests: a delivery moves exactly one e-penny from sender
//!    to receiver and changes nothing else.

use crate::bank::Bank;
use crate::config::ZmailConfig;
use crate::ids::IspId;
use crate::isp::Isp;
use std::error::Error;
use std::fmt;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The conservation equation does not balance.
    ConservationBroken {
        /// E-pennies the bank believes are outstanding.
        issued: i64,
        /// E-pennies actually found in balances, pools, and flight.
        found: i64,
    },
    /// A user balance is negative.
    NegativeBalance {
        /// The offending ISP.
        isp: IspId,
        /// The offending user index.
        user: u32,
        /// The balance observed.
        amount: i64,
    },
    /// An ISP pool is negative.
    NegativePool {
        /// The offending ISP.
        isp: IspId,
        /// The pool observed.
        amount: i64,
    },
    /// An ISP's real-money account at the bank is negative.
    NegativeBankAccount {
        /// The offending ISP.
        isp: IspId,
        /// The account observed.
        amount: i64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::ConservationBroken { issued, found } => write!(
                f,
                "conservation broken: bank issued {issued} e-pennies but {found} exist"
            ),
            AuditError::NegativeBalance { isp, user, amount } => {
                write!(f, "user {user} of {isp} has negative balance {amount}")
            }
            AuditError::NegativePool { isp, amount } => {
                write!(f, "{isp} has negative pool {amount}")
            }
            AuditError::NegativeBankAccount { isp, amount } => {
                write!(f, "{isp} has negative bank account {amount}")
            }
        }
    }
}

impl Error for AuditError {}

/// The harness's running account of e-pennies that are neither in a
/// balance nor in a pool: in flight on the wire, destroyed by message
/// loss, or counterfeited by message duplication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightLedger {
    /// E-pennies inside undelivered network messages (see
    /// [`NetMsg::pennies_in_flight`](crate::msg::NetMsg::pennies_in_flight)).
    pub in_flight: i64,
    /// E-pennies destroyed by lost paid emails.
    pub lost: i64,
    /// E-pennies created by duplicated paid emails.
    pub duplicated: i64,
    /// Net e-pennies stranded at the bank by lost buy/sell replies: a lost
    /// buy grant is issued-but-unpooled (+v); a lost sell confirmation is
    /// retired-but-still-pooled (−v).
    pub stranded: i64,
}

impl From<i64> for FlightLedger {
    /// A ledger with only in-flight pennies (reliable network).
    fn from(in_flight: i64) -> Self {
        FlightLedger {
            in_flight,
            lost: 0,
            duplicated: 0,
            stranded: 0,
        }
    }
}

/// Runs the full audit over a deployment with a central bank.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn audit(
    config: &ZmailConfig,
    isps: &[Isp],
    bank: &Bank,
    flight: impl Into<FlightLedger>,
) -> Result<(), AuditError> {
    audit_with(config, isps, bank.issued(), |id| bank.account(id), flight)
}

/// Runs the full audit over a federated deployment (§5 distributed
/// banks): issuance sums across regions; each ISP's account lives at its
/// home bank.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn audit_federated(
    config: &ZmailConfig,
    isps: &[Isp],
    federation: &crate::multibank::Federation,
    flight: impl Into<FlightLedger>,
) -> Result<(), AuditError> {
    audit_with(
        config,
        isps,
        federation.total_issued(),
        |id| federation.account_of(id),
        flight,
    )
}

fn audit_with(
    config: &ZmailConfig,
    isps: &[Isp],
    issued_total: i64,
    account_of: impl Fn(IspId) -> zmail_econ::RealPennies,
    flight: impl Into<FlightLedger>,
) -> Result<(), AuditError> {
    let flight = flight.into();
    let mut found = flight.in_flight;
    for isp in isps {
        let id = isp.id();
        if !config.is_compliant(id) {
            continue; // non-compliant ISPs hold no protocol e-pennies
        }
        for user in 0..config.users_per_isp {
            let balance = isp.user(user).balance;
            if balance < 0 {
                return Err(AuditError::NegativeBalance {
                    isp: id,
                    user,
                    amount: balance,
                });
            }
        }
        let pool = isp.avail().amount();
        if pool < 0 {
            return Err(AuditError::NegativePool {
                isp: id,
                amount: pool,
            });
        }
        let account = account_of(id).amount();
        if account < 0 {
            return Err(AuditError::NegativeBankAccount {
                isp: id,
                amount: account,
            });
        }
        found += isp.total_user_balances().amount() + pool;
    }
    // The bank starts having implicitly issued every pool and balance that
    // existed at time zero (bootstrap grant), so compare deltas.
    let bootstrap: i64 = config
        .compliant_isps()
        .iter()
        .map(|_| {
            config.initial_avail.amount()
                + i64::from(config.users_per_isp) * config.initial_balance.amount()
        })
        .sum();
    // Lost pennies left the system (sender debited, nobody credited);
    // duplicated pennies entered it (one debit, two credits).
    let issued = issued_total + bootstrap - flight.lost + flight.duplicated - flight.stranded;
    if issued != found {
        return Err(AuditError::ConservationBroken { issued, found });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmail_econ::EPennies;

    fn setup(n: u32) -> (ZmailConfig, Vec<Isp>, Bank) {
        let config = ZmailConfig::builder(n, 3).build();
        let bank = Bank::new(&config, 9);
        let isps = (0..n)
            .map(|i| Isp::new(IspId(i), &config, bank.public_key(), 50 + u64::from(i)))
            .collect();
        (config, isps, bank)
    }

    #[test]
    fn fresh_system_audits_clean() {
        let (config, isps, bank) = setup(3);
        audit(&config, &isps, &bank, 0).unwrap();
    }

    #[test]
    fn local_transfer_preserves_conservation() {
        let (config, mut isps, bank) = setup(2);
        isps[0]
            .send_email(
                0,
                zmail_sim::workload::UserAddr::new(0, 1),
                zmail_sim::MailKind::Personal,
            )
            .unwrap();
        audit(&config, &isps, &bank, 0).unwrap();
    }

    #[test]
    fn in_flight_penny_must_be_counted() {
        let (config, mut isps, bank) = setup(2);
        isps[0]
            .send_email(
                0,
                zmail_sim::workload::UserAddr::new(1, 0),
                zmail_sim::MailKind::Personal,
            )
            .unwrap();
        // Message undelivered: without the in-flight count the books are
        // short by one.
        let err = audit(&config, &isps, &bank, 0).unwrap_err();
        assert!(matches!(err, AuditError::ConservationBroken { .. }));
        audit(&config, &isps, &bank, 1).unwrap();
    }

    #[test]
    fn unbacked_grant_breaks_conservation() {
        let (config, mut isps, bank) = setup(2);
        isps[0].grant_balance(0, EPennies(7)); // counterfeit e-pennies
        let err = audit(&config, &isps, &bank, 0).unwrap_err();
        match err {
            AuditError::ConservationBroken { issued, found } => {
                assert_eq!(found - issued, 7);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        let e = AuditError::NegativeBalance {
            isp: IspId(1),
            user: 2,
            amount: -3,
        };
        assert_eq!(e.to_string(), "user 2 of isp[1] has negative balance -3");
    }
}
