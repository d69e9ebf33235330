//! A stale exchange reply is stranded value, not vanished value.
//!
//! The per-ISP retry timer re-asks a healthy exchange whenever the other
//! side's request is the one that was lost. Under fresh nonces the bank
//! serves the re-asked request a second time, and the first reply then
//! arrives carrying a nonce the ISP no longer waits for: it is ignored,
//! but the bank has issued (or retired) its value. The harness must book
//! that value as stranded, or [`ZmailSystem::audit`] reports
//! `ConservationBroken` by exactly the amount the stale replies carried.
//!
//! This is the `exchange_golden.rs` deployment (same trace, same lossy
//! bank channel, same 150 ms retry) swept over the seeds where that hole
//! showed: 1–6 and 32 failed under fresh nonces before the fix (seed 32
//! by 91,600 e-pennies), 24 is the golden's own seed, and idempotent ids
//! were always clean because a replayed copy carries no new value.

use zmail_core::{UserAddr, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_sim::workload::SendEvent;
use zmail_sim::{MailKind, SimDuration, SimTime};

const ISPS: u32 = 3;
const USERS: u32 = 8;

/// `exchange_golden.rs`'s trace: 1500 sends 70 ms apart, users 0–3 of
/// every ISP sending to users 4–7.
fn trace() -> Vec<SendEvent> {
    (0..1500u32)
        .map(|k| SendEvent {
            at: SimTime::ZERO + SimDuration::from_millis(70 * u64::from(k)),
            from: UserAddr::new(k % ISPS, (k / ISPS) % 4),
            to: UserAddr::new((k + 1 + k / 7) % ISPS, 4 + (k * 5) % (USERS - 4)),
            kind: MailKind::Personal,
        })
        .collect()
}

#[test]
fn stale_first_hand_replies_are_stranded_not_lost_from_the_books() {
    let trace = trace();
    let mut broken = Vec::new();
    for seed in [1u64, 2, 3, 4, 5, 6, 24, 32] {
        for idempotent in [false, true] {
            let config = ZmailConfig::builder(ISPS, USERS)
                .initial_balance(EPennies(9))
                .limit(10_000)
                .avail_bounds(EPennies(300), EPennies(400), EPennies(650))
                .lossy_bank_channel(0.5, None)
                .bank_retry(Some(SimDuration::from_millis(150)))
                .idempotent_bank_ids(idempotent)
                .build();
            let mut system = ZmailSystem::new(config, seed);
            system.run_trace(&trace);
            if let Err(e) = system.audit() {
                broken.push(format!("seed {seed} idempotent={idempotent}: {e}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} of 16 cells do not audit:\n{}",
        broken.len(),
        broken.join("\n")
    );
}
