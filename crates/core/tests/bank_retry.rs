//! A fresh-nonce bank retry must come after the reply it retries.
//!
//! Every ISP exchange arms a retry check `net_latency + bank_retry_after`
//! after its request, and the bank's reply lands two latencies after it.
//! With `bank_retry_after <= net_latency` the check pops first (it was
//! scheduled first), re-seals the exchange under a fresh nonce, and the
//! reply that lands next is stale — every reply, for ever, so a run
//! never ends. Such a configuration is refused at `build`; one
//! millisecond longer ends, and idempotent ids, which make a retry a
//! replay of the same request, may retry at the latency itself.

use zmail_core::{UserAddr, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_sim::workload::SendEvent;
use zmail_sim::{MailKind, SimDuration, SimTime};

const ISPS: u32 = 3;
const USERS: u32 = 8;
const LATENCY_MS: u64 = 50;

/// Low balances and a narrow pool, so a burst of sends drives every ISP
/// to the bank.
fn config(retry_ms: u64, idempotent: bool) -> ZmailConfig {
    ZmailConfig::builder(ISPS, USERS)
        .initial_balance(EPennies(20))
        .avail_bounds(EPennies(100), EPennies(300), EPennies(150))
        .net_latency(SimDuration::from_millis(LATENCY_MS))
        .bank_retry(Some(SimDuration::from_millis(retry_ms)))
        .idempotent_bank_ids(idempotent)
        .build()
}

/// 900 sends at one instant, every user to a user of another ISP.
fn burst() -> Vec<SendEvent> {
    (0..900u32)
        .map(|k| {
            let from = UserAddr::new(k % ISPS, (k / ISPS) % USERS);
            SendEvent {
                at: SimTime::from_millis(2_000),
                from,
                to: UserAddr::new((from.isp + 1) % ISPS, (k * 5 + 1) % USERS),
                kind: MailKind::Personal,
            }
        })
        .collect()
}

/// Runs the burst and returns the sim time, in ms, at which it ended.
fn ends_at(config: ZmailConfig) -> u64 {
    let mut system = ZmailSystem::new(config, 45);
    system.run_trace(&burst());
    system.audit().expect("the books balance");
    system.now().as_millis()
}

#[test]
#[should_panic(expected = "bank_retry_after (50 ms) must exceed net_latency (50 ms)")]
fn a_fresh_nonce_retry_no_longer_than_the_latency_is_refused_at_build() {
    config(LATENCY_MS, false);
}

#[test]
fn a_fresh_nonce_retry_one_millisecond_past_the_latency_ends() {
    let end = ends_at(config(LATENCY_MS + 1, false));
    assert!(end < 15_000, "the burst ended at {end} ms");
}

#[test]
fn idempotent_ids_may_retry_at_the_latency() {
    let end = ends_at(config(LATENCY_MS, true));
    assert!(end < 15_000, "the burst ended at {end} ms");
}
