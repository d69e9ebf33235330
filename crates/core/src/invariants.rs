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

use crate::bank::Federation;
use crate::config::ZmailConfig;
use crate::ids::IspId;
use std::error::Error;
use std::fmt;
use zmail_store::Ledger;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The conservation equation does not balance.
    ConservationBroken {
        /// E-pennies the bank believes are outstanding.
        issued: i128,
        /// E-pennies actually found in balances, pools, and flight.
        found: i128,
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

/// Runs the full audit over a deployment's ledger, row by row: the
/// central bank is a one-member `federation` (§5 distributed banks),
/// issuance sums across its members, and each ISP's account lives at its
/// home bank. The sums are widened: every row fits an `i64`, their total
/// need not.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn audit(
    config: &ZmailConfig,
    ledger: &dyn Ledger,
    federation: &Federation,
    flight: impl Into<FlightLedger>,
) -> Result<(), AuditError> {
    let flight = flight.into();
    let mut found = i128::from(flight.in_flight);
    for id in (0..config.isps).map(IspId) {
        if !config.is_compliant(id) {
            continue; // non-compliant ISPs hold no protocol e-pennies
        }
        for user in 0..config.users_per_isp {
            let balance = ledger.user(id.0, user).balance;
            if balance < 0 {
                return Err(AuditError::NegativeBalance {
                    isp: id,
                    user,
                    amount: balance,
                });
            }
            found += i128::from(balance);
        }
        let avail = ledger.pool(id.0).avail;
        if avail < 0 {
            return Err(AuditError::NegativePool {
                isp: id,
                amount: avail,
            });
        }
        let account = ledger.bank(federation.home_bank(id) as u32).accounts[id.index()];
        if account < 0 {
            return Err(AuditError::NegativeBankAccount {
                isp: id,
                amount: account,
            });
        }
        found += i128::from(avail);
    }
    // The bank starts having implicitly issued every pool and balance that
    // existed at time zero (bootstrap grant), so compare deltas.
    let bootstrap: i128 = config
        .compliant_isps()
        .iter()
        .map(|_| {
            i128::from(config.initial_avail.amount())
                + i128::from(config.users_per_isp) * i128::from(config.initial_balance.amount())
        })
        .sum();
    let issued_total: i128 = (0..federation.bank_count() as u32)
        .map(|b| i128::from(ledger.bank(b).issued))
        .sum();
    // Lost pennies left the system (sender debited, nobody credited);
    // duplicated pennies entered it (one debit, two credits).
    let issued = issued_total + bootstrap - i128::from(flight.lost) + i128::from(flight.duplicated)
        - i128::from(flight.stranded);
    if issued != found {
        return Err(AuditError::ConservationBroken { issued, found });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::Isp;
    use zmail_econ::EPennies;
    use zmail_sim::workload::UserAddr;
    use zmail_sim::MailKind;
    use zmail_store::Books;

    fn setup(n: u32) -> (ZmailConfig, Vec<Isp>, Federation, Books) {
        let config = ZmailConfig::builder(n, 3).build();
        let bank = Federation::new(&config, 9);
        let isps = (0..n)
            .map(|i| {
                Isp::new(
                    IspId(i),
                    &config,
                    bank.public_key_for(IspId(i)),
                    50 + u64::from(i),
                )
            })
            .collect();
        let books = config.initial_books();
        (config, isps, bank, books)
    }

    #[test]
    fn fresh_system_audits_clean() {
        let (config, _, bank, books) = setup(3);
        audit(&config, &books, &bank, 0).unwrap();
    }

    #[test]
    fn local_transfer_preserves_conservation() {
        let (config, mut isps, bank, mut books) = setup(2);
        isps[0]
            .send_email(&mut books, 0, UserAddr::new(0, 1), MailKind::Personal)
            .unwrap();
        audit(&config, &books, &bank, 0).unwrap();
    }

    #[test]
    fn in_flight_penny_must_be_counted() {
        let (config, mut isps, bank, mut books) = setup(2);
        isps[0]
            .send_email(&mut books, 0, UserAddr::new(1, 0), MailKind::Personal)
            .unwrap();
        // Message undelivered: without the in-flight count the books are
        // short by one.
        let err = audit(&config, &books, &bank, 0).unwrap_err();
        assert!(matches!(err, AuditError::ConservationBroken { .. }));
        audit(&config, &books, &bank, 1).unwrap();
    }

    #[test]
    fn unbacked_grant_breaks_conservation() {
        let (config, isps, bank, mut books) = setup(2);
        isps[0].grant_balance(&mut books, 0, EPennies(7)); // counterfeit e-pennies
        let err = audit(&config, &books, &bank, 0).unwrap_err();
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
