//! The ISP-level journal stream is frozen: one seeded durable
//! [`ZmailSystem`] run that makes the ISPs and the bank emit every
//! record kind they can must leave byte-for-byte the WAL and the
//! `RunReport` digest it left at the commit before `Isp` and `Bank`
//! began mutating their books *through* those records (PR 14). The
//! constants below were computed by running this file at that parent
//! commit in a throwaway clone (the recipe
//! `crates/store/tests/format_golden.rs` documents), not by this code —
//! so a mutation site that journals a different record, a different
//! field, or in a different order fails here. The WAL's CRC was pinned
//! again once since, for the one reordering [`WAL_CRC`] describes.

use std::collections::HashSet;
use std::mem::discriminant;
use zmail_core::{IspId, UserAddr, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_sim::workload::SendEvent;
use zmail_sim::{MailKind, SimDuration, SimTime};
use zmail_store::{wal, LedgerRecord, Storage, WAL};

const ISPS: u32 = 3;
const USERS: u32 = 6;

/// 150 sends, one every 15 minutes (37.5 hours: one day boundary, and
/// one billing snapshot 20 hours into the second run), senders and
/// recipients a fixed function of the position, every third pair sharing
/// an ISP.
fn trace() -> Vec<SendEvent> {
    (0..150u32)
        .map(|k| SendEvent {
            at: SimTime::ZERO + SimDuration::from_mins(15 * u64::from(k)),
            from: UserAddr::new(k % ISPS, (k / ISPS) % 2),
            to: UserAddr::new((k + k / 2) % ISPS, (k * 5 + 1) % USERS),
            kind: MailKind::Personal,
        })
        .collect()
}

/// The three mutations no protocol message causes, made between the
/// two halves of the trace, as the records they commit.
const BETWEEN_EVENTS: [LedgerRecord; 3] = [
    LedgerRecord::LimitSet {
        isp: 1,
        user: 4,
        limit: 7,
    },
    LedgerRecord::Grant {
        isp: 2,
        user: 5,
        amount: 3,
    },
    LedgerRecord::UserSell {
        isp: 0,
        user: 3,
        amount: 2,
    },
];

/// The seeded run, and how many records its WAL held when the three
/// mutations were made.
fn run() -> (ZmailSystem, usize) {
    // Balances of 12 against a top-up threshold of 10 make the two
    // senders per ISP buy at the counter within a few sends; a pool that
    // starts above `maxavail` sells to the bank on the first send and the
    // counter purchases then drain it below `minavail`, so it buys.
    let config = ZmailConfig::builder(ISPS, USERS)
        .initial_balance(EPennies(12))
        .avail_bounds(EPennies(200), EPennies(400), EPennies(450))
        .billing_period(SimDuration::from_hours(20))
        .attestations()
        .durable()
        .build();
    let mut system = ZmailSystem::new(config, 14);
    let distributor = UserAddr::new(0, 2);
    let subscribers = (0..ISPS)
        .flat_map(|isp| (3..USERS).map(move |u| UserAddr::new(isp, u)))
        .collect();
    let list = system.register_mailing_list(distributor, subscribers, 1.0);
    system.schedule_list_post(SimTime::ZERO + SimDuration::from_hours(2), list);
    let trace = trace();
    let (first, second) = trace.split_at(60);
    system.run_trace(first);
    let store = system.store().expect("durable run");
    assert_eq!(store.pending_records(), 0, "every event ends committed");
    let mark = store.records_appended() as usize;
    // The three mutations go straight into the store, in call order;
    // the next event's group commit makes them durable.
    let (isp, ledger) = system.isp_mut(IspId(1));
    isp.set_limit(ledger, 4, 7);
    let (isp, ledger) = system.isp_mut(IspId(2));
    isp.grant_balance(ledger, 5, EPennies(3));
    let (isp, ledger) = system.isp_mut(IspId(0));
    assert!(isp.user_sell(ledger, 3, EPennies(2)));
    assert_eq!(system.store().unwrap().pending_records(), 3);
    system.run_trace(second);
    (system, mark)
}

/// Every record of the WAL, in order.
fn records(system: &ZmailSystem) -> Vec<LedgerRecord> {
    let bytes = system
        .store()
        .expect("durable run")
        .shard(0)
        .storage()
        .read(WAL);
    wal::scan(&bytes, 0)
        .payloads
        .iter()
        .map(|p| LedgerRecord::decode(p).expect("valid record"))
        .collect()
}

const DIGEST: u64 = 14_631_930_577_585_122_575;
/// Length and CRC-32 of the WAL. The length is the parent commit's; the
/// CRC moved once, when the three between-event records stopped waiting
/// in per-ISP journals to be drained ISP by ISP at the next event's end
/// and started landing in the store in call order, ahead of that event's
/// own records — the only difference between the two decoded logs.
const WAL_LEN: usize = 14208;
const WAL_CRC: u32 = 2_117_391_760;

#[test]
fn one_shard_journal_is_byte_identical_and_covers_every_isp_and_bank_record() {
    let (system, _) = run();
    let bytes = system
        .store()
        .expect("durable run")
        .shard(0)
        .storage()
        .read(WAL);
    // Fourteen distinct kinds are all fourteen: `UserCounter*` and `Xfer*`
    // exist only between shards.
    let kinds: HashSet<_> = records(&system).iter().map(discriminant).collect();
    assert_eq!(
        kinds.len(),
        14,
        "an ISP or bank record kind went unjournaled"
    );
    assert!(
        system.report().delivered(MailKind::Ack) > 0,
        "acks refunded"
    );
    assert_eq!((bytes.len(), wal::crc32(&bytes)), (WAL_LEN, WAL_CRC));
    assert_eq!(system.report().digest_checksum, DIGEST);
    assert_eq!(system.verify_durable_books(), Some(true));
}

#[test]
fn mutations_between_events_land_in_call_order_ahead_of_the_next_event() {
    let (system, mark) = run();
    let log = records(&system);
    assert_eq!(log[mark..mark + 3], BETWEEN_EVENTS);
    // The next event's own records follow at once, and its first is no
    // out-of-event mutation: these three were all there was in between.
    assert!(log.len() > mark + 3);
    assert!(!BETWEEN_EVENTS.contains(&log[mark + 3]));
}
