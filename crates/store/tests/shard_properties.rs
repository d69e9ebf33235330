//! Sharding properties: splitting books across shards and merging them
//! back must be lossless for *any* book shape and shard count, and a
//! sharded engine fed any record stream must agree — books, audit, and
//! recovery — with the plain single-engine fold of the same stream.

use proptest::prelude::*;
use zmail_store::checkpoint::SLOTS;
use zmail_store::{
    wal, BankBooks, Books, IspBooks, LedgerRecord, LedgerStore, MemStorage, ShardMap,
    ShardedLedgerStore, Storage, StoreConfig, UserBooks, XferKind, XferLeg, WAL,
};

const ISPS: u32 = 3;
const USERS: u32 = 4;

fn bootstrap() -> Books {
    Books {
        isps: (0..ISPS)
            .map(|_| IspBooks {
                users: vec![
                    UserBooks {
                        account: 1_000,
                        balance: 100,
                        sent_today: 0,
                        limit: 100,
                    };
                    USERS as usize
                ],
                avail: 5_000,
                credit: vec![0; ISPS as usize],
                nonces: Vec::new(),
            })
            .collect(),
        banks: vec![BankBooks {
            accounts: vec![1_000_000; ISPS as usize],
            issued: 0,
        }],
    }
}

/// Arbitrary ragged deployments: ISPs with differing user counts,
/// including empty ISPs and bookless corner cases.
fn books_strategy() -> impl Strategy<Value = Books> {
    (0usize..4).prop_flat_map(|nisps| {
        let user = (-500i64..500, -500i64..500, 0u32..50, 0u32..50).prop_map(
            |(account, balance, sent_today, limit)| UserBooks {
                account,
                balance,
                sent_today,
                limit,
            },
        );
        let isp = (
            proptest::collection::vec(user, 0..5),
            -1_000i64..1_000,
            proptest::collection::vec(-50i64..50, nisps..nisps + 1),
            proptest::collection::vec(0u64..1_000, 0..4),
        )
            .prop_map(|(users, avail, credit, mut nonces)| {
                nonces.sort_unstable();
                nonces.dedup();
                IspBooks {
                    users,
                    avail,
                    credit,
                    nonces,
                }
            });
        let bank = (
            proptest::collection::vec(-100i64..10_000, nisps..nisps + 1),
            0i64..1_000_000,
        )
            .prop_map(|(accounts, issued)| BankBooks { accounts, issued });
        (
            proptest::collection::vec(isp, nisps..nisps + 1),
            proptest::collection::vec(bank, 0..3),
        )
            .prop_map(|(isps, banks)| Books { isps, banks })
    })
}

/// The public (routable) record alphabet over the fixed 3×4 deployment;
/// the internal transfer variants are engine-emitted, never routed.
fn record_from(kind: u32, a: u32, b: u32, amt: i64) -> LedgerRecord {
    let isp = a % ISPS;
    let user = b % USERS;
    let peer = b % ISPS;
    let amount = amt.rem_euclid(500);
    match kind % 13 {
        0 => LedgerRecord::Charge { isp, user },
        1 => LedgerRecord::Deposit { isp, user },
        2 => LedgerRecord::CreditDelta {
            isp,
            peer,
            delta: amt.rem_euclid(7) - 3,
        },
        3 => LedgerRecord::UserBuy { isp, user, amount },
        4 => LedgerRecord::UserSell { isp, user, amount },
        5 => LedgerRecord::PoolBuy { isp, amount },
        6 => LedgerRecord::PoolSell { isp, amount },
        7 => LedgerRecord::BankBuy {
            bank: 0,
            isp,
            value: amount,
            cost: amount / 10,
        },
        8 => LedgerRecord::BankSell {
            bank: 0,
            isp,
            value: amount,
            credit: amount / 10,
        },
        9 => LedgerRecord::SnapshotMarker { isp },
        10 => LedgerRecord::DailyReset { isp },
        11 => LedgerRecord::LimitSet {
            isp,
            user,
            limit: (amt.rem_euclid(200)) as u32,
        },
        _ => LedgerRecord::Grant { isp, user, amount },
    }
}

fn op_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32, i64)>> {
    proptest::collection::vec((0u32..13, 0u32..8, 0u32..8, -1000i64..1000), 0..40)
}

fn open_sharded(shards: u32) -> ShardedLedgerStore<MemStorage> {
    let storages = (0..shards).map(|_| MemStorage::new()).collect();
    let (store, _) = ShardedLedgerStore::open(storages, StoreConfig::default(), bootstrap());
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: split → merge is the identity on any books at any
    /// shard count, and splitting loses no e-pennies — the parts' found
    /// supplies sum to the whole's.
    #[test]
    fn split_merge_round_trips_any_books(books in books_strategy(), shards in 1u32..17) {
        let map = ShardMap::new(shards, &books);
        let parts = map.split(&books);
        prop_assert_eq!(parts.len(), shards as usize);
        let total: i64 = parts.iter().map(Books::epennies_found).sum();
        prop_assert_eq!(total, books.epennies_found());
        prop_assert_eq!(map.merge(&parts), books);
    }

    /// Every account lands on exactly one shard, at a local index that
    /// round-trips back to its global one.
    #[test]
    fn shard_assignment_is_a_bijection(books in books_strategy(), shards in 1u32..17) {
        let map = ShardMap::new(shards, &books);
        let parts = map.split(&books);
        for (i, isp) in books.isps.iter().enumerate() {
            let mut seen = vec![0usize; shards as usize];
            for u in 0..isp.users.len() as u32 {
                let s = map.user_shard(i as u32, u);
                let local = map.user_local(i as u32, u) as usize;
                prop_assert_eq!(map.locate(i as u32, u), (s, local as u32));
                prop_assert!(s < shards);
                prop_assert_eq!(&parts[s as usize].isps[i].users[local], &isp.users[u as usize]);
                seen[s as usize] += 1;
            }
            let placed: usize = seen.iter().sum();
            prop_assert_eq!(placed, isp.users.len());
        }
    }

    /// A sharded engine and a plain fold of the same stream agree on the
    /// merged books, the e-penny supply, and what recovery reconstructs
    /// — at every shard count.
    #[test]
    fn sharded_stream_matches_plain_fold(ops in op_strategy(), shards in 1u32..9) {
        let mut expected = bootstrap();
        let mut sharded = open_sharded(shards);
        for &(k, a, b, amt) in &ops {
            let rec = record_from(k, a, b, amt);
            expected.apply(&rec);
            sharded.append(&rec);
        }
        sharded.commit_all();
        prop_assert_eq!(&sharded.books(), &expected);
        prop_assert_eq!(sharded.books().epennies_found(), expected.epennies_found());
        let (recovered, report) = sharded.simulate_recovery();
        prop_assert_eq!(&recovered, &expected);
        prop_assert!(report.torn_tails() == 0);
    }

    /// Commit-per-record: crash (= recover) after every single append
    /// still reproduces the exact fold prefix, in-doubt transfers and
    /// all.
    #[test]
    fn sharded_recovery_matches_replay_at_every_prefix(
        ops in proptest::collection::vec((0u32..13, 0u32..8, 0u32..8, -1000i64..1000), 0..20),
        shards in 2u32..6,
    ) {
        let mut expected = bootstrap();
        let mut sharded = open_sharded(shards);
        for &(k, a, b, amt) in &ops {
            let rec = record_from(k, a, b, amt);
            expected.apply(&rec);
            sharded.append(&rec);
            sharded.commit_all();
            let (recovered, _) = sharded.simulate_recovery();
            prop_assert_eq!(&recovered, &expected);
        }
    }

    /// The shard-wise audits say what the merged books say, whatever is
    /// pending: with transfers in the outbox (prepares buffered, or made
    /// durable by a group commit or a lone shard's commit while their
    /// applies still wait), and after any flush.
    #[test]
    fn shard_wise_audits_match_the_merged_books_mid_tick(
        ops in proptest::collection::vec((0u32..17, 0u32..8, 0u32..8, -1000i64..1000, 0u32..8), 0..40),
        shards in 1u32..7,
        batch in 1usize..5,
    ) {
        let storages = (0..shards).map(|_| MemStorage::new()).collect();
        let cfg = StoreConfig { batch_records: batch, checkpoint_every: 8 };
        let (mut sharded, _) = ShardedLedgerStore::open(storages, cfg, bootstrap());
        let mut exact = 0;
        for &(k, a, b, amt, then) in &ops {
            if k < 13 {
                sharded.append(&record_from(k, a, b, amt));
            } else {
                let leg = |kind, isp, user| XferLeg { kind, isp: isp % ISPS, user: user % USERS, amount: 0 };
                sharded.transfer(leg(XferKind::Charge, a, b), leg(XferKind::Deposit, b, a + k));
            }
            match then {
                0 => sharded.commit_all(),
                1 => sharded.shard_mut((a % shards) as usize).commit(),
                _ => {}
            }
            let live = sharded.books();
            prop_assert_eq!(sharded.epennies_found(), live.epennies_found());
            let (recovered, report) = sharded.simulate_recovery();
            prop_assert_eq!(sharded.recovers_live_books(), (recovered == live, report));
            exact += u32::from(recovered == live);
        }
        sharded.commit_all();
        prop_assert!(sharded.recovers_live_books().0);
        // Both answers occur: a commit per record keeps recovery exact
        // with credits still owed, a larger batch leaves it behind.
        prop_assert!(batch > 1 || exact as usize == ops.len());
    }

    /// A cold reopen over the surviving backends equals the live books:
    /// the on-disk representation alone carries the whole state,
    /// including outbox entries for cross-shard transfers.
    #[test]
    fn sharded_reopen_reproduces_live_books(ops in op_strategy(), shards in 1u32..9) {
        let mut sharded = open_sharded(shards);
        for &(k, a, b, amt) in &ops {
            sharded.append(&record_from(k, a, b, amt));
        }
        sharded.commit_all();
        let live = sharded.books();
        let (reopened, report) =
            ShardedLedgerStore::open(sharded.into_storages(), StoreConfig::default(), bootstrap());
        prop_assert_eq!(reopened.books(), live);
        // Everything was committed, so nothing was in doubt.
        prop_assert_eq!(report.resolved_forward, 0);
    }

    /// One shard is the unsharded engine: over the same backend bytes —
    /// intact, with a torn WAL tail, or with the newest image corrupt —
    /// a one-shard store and a plain `LedgerStore` report the same
    /// recovery, hold the same books, leave the same bytes behind, and
    /// go on writing the same bytes. (The one-shard store recovers
    /// without a transfer observer; this is what says it may.)
    #[test]
    fn one_shard_recovers_byte_identically_to_the_plain_engine(
        ops in proptest::collection::vec((0u32..13, 0u32..8, 0u32..8, -1000i64..1000), 2..80),
        batch in 1usize..6,
        every in 1u64..24,
        forced_image_at in 0usize..80,
        damage in 0u32..3,
        cut in 1u64..40,
    ) {
        let cfg = StoreConfig { batch_records: batch, checkpoint_every: every };
        let (before, after) = ops.split_at(ops.len() / 2);
        let (mut writer, _) = LedgerStore::open(MemStorage::new(), cfg, bootstrap());
        for (i, &(k, a, b, amt)) in before.iter().enumerate() {
            writer.append(&record_from(k, a, b, amt));
            if i == forced_image_at % before.len() {
                writer.checkpoint();
            }
        }
        writer.commit();
        let newest = SLOTS[((writer.next_checkpoint_seq() + 1) % 2) as usize];
        let mut backend = writer.into_storage();
        match damage {
            0 => {}
            1 => {
                let len = backend.len(WAL);
                backend.truncate(WAL, len.saturating_sub(cut));
            }
            _ => {
                let mut image = backend.read(newest);
                let at = cut as usize % image.len();
                image[at] ^= 0x40;
                backend.write(newest, &image);
            }
        }

        let (mut plain, plain_report) = LedgerStore::open(backend.clone(), cfg, bootstrap());
        let (mut sharded, sharded_report) =
            ShardedLedgerStore::open(vec![backend], cfg, bootstrap());
        prop_assert_eq!(&sharded_report.shards, &vec![plain_report]);
        prop_assert_eq!(sharded_report.resolved_forward + sharded_report.resolved_acked, 0);
        prop_assert_eq!(&sharded.books(), plain.books());
        prop_assert_eq!(sharded.shard(0).storage(), plain.storage());
        let (sim_books, sim_report) = sharded.simulate_recovery();
        prop_assert_eq!((sim_books, sim_report.shards[0]), plain.simulate_recovery());

        for &(k, a, b, amt) in after {
            let rec = record_from(k, a, b, amt);
            plain.append(&rec);
            sharded.append(&rec);
        }
        plain.commit();
        sharded.commit_all();
        prop_assert_eq!(&sharded.books(), plain.books());
        prop_assert_eq!(&sharded.into_storages()[0], plain.storage());
    }
}

/// A shard's backend holding `records` as one CRC-valid log.
fn backend_with(records: &[LedgerRecord]) -> MemStorage {
    let mut log = Vec::new();
    for rec in records {
        wal::encode_frame(&rec.encode(), &mut log);
    }
    let mut backend = MemStorage::new();
    backend.append(WAL, &log);
    backend.sync(WAL);
    backend
}

fn grant(amount: i64) -> XferLeg {
    XferLeg {
        kind: XferKind::Grant,
        isp: 0,
        user: 0,
        amount,
    }
}

/// ROADMAP 4b: the in-doubt scan indexes a bitset by xid and keeps its
/// open prepares in arrival order, so a log no engine wrote — checksums
/// valid, xids absurd or descending — must still recover, to the same
/// books the record sequence always meant, in memory the record count
/// bounds (a bit per xid up to `u64::MAX` would not return).
#[test]
fn absurd_and_descending_xids_recover_without_panic() {
    let prepare = |xid, amount| LedgerRecord::XferPrepare {
        xid,
        dst: 1,
        debit: XferLeg {
            kind: XferKind::Charge,
            isp: 0,
            user: 0,
            amount: 0,
        },
        credit: grant(amount),
    };
    let apply = |xid, amount| LedgerRecord::XferApply {
        xid,
        leg: grant(amount),
    };
    // Shard 0: five prepares in descending order around one at
    // `u64::MAX`, one of them released. Shard 1: applies for two of them,
    // the absurd one included, out of order.
    let source = [
        prepare(u64::MAX, 1),
        prepare(9, 2),
        prepare(7, 4),
        prepare(1 << 50, 8),
        prepare(5, 16),
        LedgerRecord::XferRelease { xid: 7 },
    ];
    let destination = [apply(u64::MAX, 1), apply(5, 16)];
    let (store, report) = ShardedLedgerStore::open(
        vec![backend_with(&source), backend_with(&destination)],
        StoreConfig::default(),
        bootstrap(),
    );
    // 9 and 2^50 roll forward, `u64::MAX` and 5 are acknowledged, 7 was
    // closed: every Grant lands exactly once (shard-local user 0 of ISP 0
    // on shard 1), and five Charges left shard 0's user 0.
    assert_eq!((report.resolved_forward, report.resolved_acked), (2, 2));
    assert_eq!(report.torn_tails(), 0);
    let granted = store.shard(1).books().isps[0].users[0].balance;
    assert_eq!(granted, 100 + 1 + 16 + 2 + 8);
    assert_eq!(store.shard(0).books().isps[0].users[0].balance, 100 - 5);
    assert!(store.recovers_live_books().0);
    // The resolution was journaled: a second open finds nothing in doubt.
    let (again, second) =
        ShardedLedgerStore::open(store.into_storages(), StoreConfig::default(), bootstrap());
    assert_eq!(second.resolved_forward + second.resolved_acked, 0);
    assert_eq!(again.shard(1).books().isps[0].users[0].balance, granted);
}
