//! Sharding properties: splitting books across shards and merging them
//! back must be lossless for *any* book shape and shard count, and a
//! sharded engine fed any record stream must agree — books, audit, and
//! recovery — with the plain single-engine fold of the same stream.

use proptest::prelude::*;
use zmail_store::checkpoint::SLOTS;
use zmail_store::{
    wal, BankBooks, Books, Checkpoint, IspBooks, Ledger, LedgerRecord, LedgerStore, MemStorage,
    ShardMap, ShardRecoveryReport, ShardedLedgerStore, Storage, StoreConfig, UserBooks, XferKind,
    XferLeg, WAL,
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

    /// The row reads are the merged image's rows: with cross-shard
    /// transfers pending in the outbox — user legs, and the pool legs a
    /// counter sale leaves owed — and after any flush, every user row,
    /// pool row and bank a [`Ledger`] reads equals the one `books()`
    /// holds, after every record.
    #[test]
    fn row_reads_match_the_merged_books_with_transfers_pending(
        ops in proptest::collection::vec((0u32..13, 0u32..8, 0u32..8, -1000i64..1000, 0u32..4), 0..40),
        shards in 1u32..5,
    ) {
        let mut sharded = open_sharded(shards);
        for &(k, a, b, amt, then) in &ops {
            sharded.append(&record_from(k, a, b, amt));
            if then == 0 {
                sharded.commit_all();
            }
            let books = sharded.books();
            for (i, isp) in (0..).zip(&books.isps) {
                for (u, row) in (0..).zip(&isp.users) {
                    prop_assert_eq!(sharded.user(i, u), *row, "user {} of ISP {}", u, i);
                }
                prop_assert_eq!(sharded.pool(i), isp.pool(), "pool of ISP {}", i);
            }
            for (b, bank) in (0..).zip(&books.banks) {
                prop_assert_eq!(sharded.bank(b), bank);
            }
        }
    }

    /// Any checksummed log, whatever rows, shards and banks its records
    /// name and whatever their amounts, at one shard and at two: `open`
    /// does not panic — a record that does not fit ends its log — and a
    /// reopen over what it left
    /// recovers the books it opened to, with nothing left to cut.
    #[test]
    fn any_checksummed_log_opens_and_reopens_to_the_same_books(
        log in proptest::collection::vec(
            ((0usize..2, 0u32..19, 0u32..6), (0u32..8, 0u32..4, 0u64..6, -50i64..50, 0u8..4)),
            0..60,
        ),
        two in any::<bool>(),
    ) {
        let shards = if two { 2 } else { 1 };
        let mut records = vec![Vec::new(); shards];
        for &((shard, kind, isp), (user, other, xid, small, range)) in &log {
            // Half the amounts small, half within 50 of either end of
            // the range, where a sum in any row overflows.
            let amount = match range {
                0 => i64::MAX - small.abs(),
                1 => i64::MIN + small.abs(),
                _ => small,
            };
            records[shard % shards].push(stray_record(kind, isp, user, other, xid, amount));
        }
        let backends = records.iter().map(|log| backend_with(log)).collect();
        let (store, _) = ShardedLedgerStore::open(backends, StoreConfig::default(), bootstrap());
        let live = store.books();
        prop_assert!(store.recovers_live_books().0);
        let (again, report) =
            ShardedLedgerStore::open(store.into_storages(), StoreConfig::default(), bootstrap());
        prop_assert_eq!(again.books(), live);
        prop_assert_eq!(report.torn_tails(), 0);
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

/// A record of any kind whose indices are drawn past the bounds of
/// [`bootstrap`] as often as inside them: ISPs 0–5 of 3, users 0–7 of 4
/// (fewer on a shard), peers, banks and destination shards 0–3.
fn stray_record(kind: u32, isp: u32, user: u32, other: u32, xid: u64, amount: i64) -> LedgerRecord {
    let leg = |kind| XferLeg {
        kind,
        isp,
        user,
        amount,
    };
    let pool_or_user = if other.is_multiple_of(2) {
        XferKind::PoolBuy
    } else {
        XferKind::Deposit
    };
    match kind {
        0 => LedgerRecord::Charge { isp, user },
        1 => LedgerRecord::Deposit { isp, user },
        2 => LedgerRecord::CreditDelta {
            isp,
            peer: other,
            delta: amount,
        },
        3 => LedgerRecord::UserBuy { isp, user, amount },
        4 => LedgerRecord::UserSell { isp, user, amount },
        5 => LedgerRecord::PoolBuy { isp, amount },
        6 => LedgerRecord::PoolSell { isp, amount },
        7 => LedgerRecord::BankBuy {
            bank: other,
            isp,
            value: amount,
            cost: amount,
        },
        8 => LedgerRecord::BankSell {
            bank: other,
            isp,
            value: amount,
            credit: amount,
        },
        9 => LedgerRecord::SnapshotMarker { isp },
        10 => LedgerRecord::DailyReset { isp },
        11 => LedgerRecord::LimitSet {
            isp,
            user,
            limit: other,
        },
        12 => LedgerRecord::Grant { isp, user, amount },
        13 => LedgerRecord::UserCounterBuy { isp, user, amount },
        14 => LedgerRecord::UserCounterSell { isp, user, amount },
        15 => LedgerRecord::XferPrepare {
            xid,
            dst: other,
            debit: leg(XferKind::Charge),
            credit: leg(pool_or_user),
        },
        16 => LedgerRecord::XferApply {
            xid,
            leg: leg(pool_or_user),
        },
        17 => LedgerRecord::XferRelease { xid },
        _ => LedgerRecord::NonceSeen { isp, nonce: xid },
    }
}

/// Opens one-shard books over a log of `records` and says what recovery
/// kept: the report and the WAL bytes left behind.
fn open_one(records: &[LedgerRecord]) -> (ShardedLedgerStore<MemStorage>, ShardRecoveryReport) {
    ShardedLedgerStore::open(
        vec![backend_with(records)],
        StoreConfig::default(),
        bootstrap(),
    )
}

/// Checksum-valid frames that name a row the books do not hold — an ISP
/// past the last, a user past an ISP's last — end the valid log where
/// they start, as an undecodable frame does: a torn tail, cut on open,
/// where replay used to index past the books and panic.
#[test]
fn a_record_naming_a_row_outside_the_books_ends_the_log() {
    let good = LedgerRecord::Deposit { isp: 1, user: 2 };
    let kept = backend_with(&[good]).len(WAL);
    for stray in [
        LedgerRecord::Charge { isp: 7, user: 0 },
        LedgerRecord::Charge { isp: 0, user: 99 },
    ] {
        let whole = backend_with(&[good, stray, good]).len(WAL);
        let (store, report) = open_one(&[good, stray, good]);
        let shard = report.shards[0];
        assert!(shard.torn_tail, "{stray:?}");
        assert_eq!(
            (
                shard.replayed_records,
                shard.truncated_bytes,
                shard.wal_bytes
            ),
            (1, whole - kept, kept),
            "{stray:?}"
        );
        assert_eq!(store.shard(0).storage().len(WAL), kept, "{stray:?}");
        let mut expected = bootstrap();
        expected.apply(&good);
        assert_eq!(store.books(), expected, "{stray:?}");
    }
}

/// Checksum-valid frames whose amounts would take a sum past its type's
/// range — a grant of `i64::MAX` on a positive balance, a buy of
/// `i64::MIN` against a positive account, a pool buy past `i64::MAX`, a
/// bank sale of `i64::MIN` — end the valid log where they start, as a
/// row outside the books does: replay used to wrap them into minted
/// e-pennies in release builds and panic in debug ones.
#[test]
fn a_record_whose_amount_overflows_a_row_ends_the_log() {
    let good = LedgerRecord::Deposit { isp: 1, user: 2 };
    let kept = backend_with(&[good]).len(WAL);
    for stray in [
        LedgerRecord::Grant {
            isp: 1,
            user: 2,
            amount: i64::MAX,
        },
        LedgerRecord::UserBuy {
            isp: 0,
            user: 1,
            amount: i64::MIN,
        },
        LedgerRecord::PoolBuy {
            isp: 2,
            amount: i64::MAX,
        },
        LedgerRecord::BankSell {
            bank: 0,
            isp: 1,
            value: i64::MIN,
            credit: 0,
        },
    ] {
        let whole = backend_with(&[good, stray, good]).len(WAL);
        let (store, report) = open_one(&[good, stray, good]);
        let shard = report.shards[0];
        assert!(shard.torn_tail, "{stray:?}");
        assert_eq!(
            (
                shard.replayed_records,
                shard.truncated_bytes,
                shard.wal_bytes
            ),
            (1, whole - kept, kept),
            "{stray:?}"
        );
        let mut expected = bootstrap();
        expected.apply(&good);
        assert_eq!(store.books(), expected, "{stray:?}");
    }
}

/// A `Charge` replayed onto an image whose row has sent `u32::MAX` mails
/// today ends the log there: the image's books stand, and the charge and
/// what follows it are cut.
#[test]
fn a_charge_past_a_full_day_counter_ends_the_log() {
    let charge = LedgerRecord::Charge { isp: 0, user: 3 };
    let mut image = bootstrap();
    image.isps[0].users[3].sent_today = u32::MAX;
    let mut backend = backend_with(&[charge, LedgerRecord::Deposit { isp: 0, user: 0 }]);
    let whole = backend.len(WAL);
    let checkpoint = Checkpoint {
        seq: 0,
        wal_offset: 0,
        books: image.clone(),
    };
    backend.write(SLOTS[0], &checkpoint.encode());
    let (store, report) =
        ShardedLedgerStore::open(vec![backend], StoreConfig::default(), bootstrap());
    let shard = report.shards[0];
    assert_eq!(shard.checkpoint_seq, Some(0));
    assert!(shard.torn_tail);
    assert_eq!(
        (
            shard.replayed_records,
            shard.truncated_bytes,
            shard.wal_bytes
        ),
        (0, whole, 0)
    );
    assert_eq!(store.books(), image);
}

/// An unreleased prepare whose credit would overflow its row on the
/// destination — a pool buy of `i64::MAX` — is released unlanded when
/// recovery rolls it forward: `open` does not panic, the debit stands
/// alone, nothing counts as resolved, the release is durable before
/// `open` returns, and a reopen finds nothing in doubt and the same
/// books.
#[test]
fn an_in_doubt_credit_that_would_overflow_is_released_unlanded() {
    let dst = ShardMap::new(2, &bootstrap()).pool_shard(0);
    let prepare = LedgerRecord::XferPrepare {
        xid: 0,
        dst,
        debit: XferLeg {
            kind: XferKind::Charge,
            isp: 0,
            user: 0,
            amount: 0,
        },
        credit: XferLeg {
            kind: XferKind::PoolBuy,
            isp: 0,
            user: 0,
            amount: i64::MAX,
        },
    };
    let src = 1 - dst as usize;
    let mut backends = vec![MemStorage::new(), MemStorage::new()];
    backends[src] = backend_with(&[prepare]);
    let logged = backends[src].len(WAL);
    // One batch for everything: only an explicit commit makes a record
    // durable.
    let config = StoreConfig {
        batch_records: usize::MAX,
        ..StoreConfig::default()
    };
    let (store, report) = ShardedLedgerStore::open(backends, config, bootstrap());
    let release = backend_with(&[LedgerRecord::XferRelease { xid: 0 }]).len(WAL);
    assert_eq!(
        store.shard(src).storage().len(WAL),
        logged + release,
        "the release is durable"
    );
    assert_eq!(report.torn_tails(), 0);
    assert_eq!((report.resolved_forward, report.resolved_acked), (0, 0));
    assert_eq!(store.pool(0).avail, 5_000);
    assert_eq!(store.epennies_found(), bootstrap().epennies_found() - 1);
    assert!(store.recovers_live_books().0);
    let live = store.books();
    let (again, report) = ShardedLedgerStore::open(store.into_storages(), config, bootstrap());
    assert_eq!((report.resolved_forward, report.resolved_acked), (0, 0));
    assert_eq!(report.torn_tails(), 0);
    assert_eq!(again.books(), live);
}

/// A prepare whose destination is no shard of the deployment, or whose
/// credit leg names a user its destination does not hold, ends its
/// shard's log: recovery used to try to land the credit there and panic.
#[test]
fn a_prepare_the_deployment_cannot_land_ends_the_log() {
    let charge = XferLeg {
        kind: XferKind::Charge,
        isp: 0,
        user: 0,
        amount: 0,
    };
    for (dst, user) in [(9, 0), (1, 99)] {
        let prepare = LedgerRecord::XferPrepare {
            xid: 0,
            dst,
            debit: charge,
            credit: XferLeg { user, ..grant(5) },
        };
        let (store, report) = ShardedLedgerStore::open(
            vec![backend_with(&[prepare]), MemStorage::new()],
            StoreConfig::default(),
            bootstrap(),
        );
        assert!(report.shards[0].torn_tail, "dst {dst}, user {user}");
        assert_eq!(report.shards[0].replayed_records, 0);
        assert_eq!(report.resolved_forward + report.resolved_acked, 0);
        assert_eq!(store.books(), bootstrap());
    }
}

/// The same prepare in the log a checkpoint covers: replay starts past
/// it, so only the in-doubt scan reads it, and the scan stops there
/// instead of trying to land its credit. Nothing is cut: the frame is
/// older than the image.
#[test]
fn a_prepare_the_deployment_cannot_land_under_an_image_is_not_resolved() {
    let prepare = LedgerRecord::XferPrepare {
        xid: 0,
        dst: 9,
        debit: grant(0),
        credit: grant(5),
    };
    let mut covered = backend_with(&[prepare]);
    let image = Checkpoint {
        seq: 0,
        wal_offset: covered.len(WAL),
        books: ShardMap::new(2, &bootstrap()).split(&bootstrap())[0].clone(),
    };
    covered.write(SLOTS[0], &image.encode());
    let (store, report) = ShardedLedgerStore::open(
        vec![covered, MemStorage::new()],
        StoreConfig::default(),
        bootstrap(),
    );
    assert_eq!(report.shards[0].checkpoint_seq, Some(0));
    assert!(!report.shards[0].torn_tail);
    assert_eq!(report.resolved_forward + report.resolved_acked, 0);
    assert_eq!(store.books(), bootstrap());
}

/// A checkpoint image whose books have another shape than the bootstrap
/// — here one user where ISP 0 has four — is a corrupt slot: recovery
/// falls back to the older slot (or the bootstrap) and counts it, where
/// it used to adopt it and panic on the next record for user 3.
#[test]
fn an_image_of_other_books_is_a_corrupt_slot() {
    let mut other = bootstrap();
    other.isps[0].users.truncate(1);
    let image = |seq, books| {
        Checkpoint {
            seq,
            wal_offset: 0,
            books,
        }
        .encode()
    };
    let mut alone = MemStorage::new();
    alone.write(SLOTS[0], &image(0, other.clone()));
    let mut behind_a_good_one = MemStorage::new();
    behind_a_good_one.write(SLOTS[0], &image(0, bootstrap()));
    behind_a_good_one.write(SLOTS[1], &image(1, other));
    for (backend, adopted) in [(alone, None), (behind_a_good_one, Some(0))] {
        let (mut store, report) =
            ShardedLedgerStore::open(vec![backend], StoreConfig::default(), bootstrap());
        let shard = report.shards[0];
        assert_eq!((shard.checkpoint_seq, shard.corrupt_slots), (adopted, 1));
        store.append(&LedgerRecord::Charge { isp: 0, user: 3 });
        store.commit_all();
        assert_eq!(store.user(0, 3).balance, 99);
    }
}

fn grant(amount: i64) -> XferLeg {
    XferLeg {
        kind: XferKind::Grant,
        isp: 0,
        user: 0,
        amount,
    }
}

/// The in-doubt scan indexes a bitset by xid and keeps its
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

/// The outbox overlay keys a pending credit by its whole account. In one
/// tick on 4 shards, user `u` of ISPs 0 and 1 — the same user index —
/// each receive cross-shard sends, three of them into ISP 0's row: row
/// reads, the merged books and the e-penny count must see each credit
/// once and on its own account, before the flush and after it.
#[test]
fn pending_credits_land_on_their_own_accounts() {
    let mut store = open_sharded(4);
    let map = store.map().clone();
    let senders_apart = |u: u32| {
        let pick = |isp| {
            (0..ISPS)
                .flat_map(|i| (0..USERS).map(move |s| (i, s)))
                .find(|&(i, s)| (s != u || i > 1) && map.user_shard(i, s) != map.user_shard(isp, u))
        };
        pick(0).zip(pick(1))
    };
    let (u, (to_0, to_1)) = (0..USERS)
        .find_map(|u| senders_apart(u).map(|senders| (u, senders)))
        .expect("four shards part some account from each recipient");
    let send = |store: &mut ShardedLedgerStore<MemStorage>, (isp, user), to: u32| {
        let leg = |kind, isp, user| XferLeg {
            kind,
            isp,
            user,
            amount: 0,
        };
        store.transfer(
            leg(XferKind::Charge, isp, user),
            leg(XferKind::Deposit, to, u),
        );
    };
    let epennies = store.epennies_found();
    for _ in 0..3 {
        send(&mut store, to_0, 0);
    }
    send(&mut store, to_1, 1);
    // The credits wait in the outbox: the owning shards' rows lack them.
    for isp in [0, 1] {
        let (shard, local) = map.locate(isp, u);
        let row = store.shard(shard as usize).books().isps[isp as usize].users[local as usize];
        assert_eq!(
            row.balance, 100,
            "ISP {isp}'s row is read through the overlay"
        );
    }

    let mut expected = bootstrap();
    for (sender, to, times) in [(to_0, 0, 3), (to_1, 1, 1)] {
        expected.isps[sender.0 as usize].users[sender.1 as usize].balance -= times;
        expected.isps[sender.0 as usize].users[sender.1 as usize].sent_today += times as u32;
        expected.isps[to as usize].users[u as usize].balance += times;
    }
    for flushed in [false, true] {
        if flushed {
            store.commit_all();
        }
        assert_eq!(store.books(), expected, "flushed: {flushed}");
        for (i, isp) in (0..).zip(&expected.isps) {
            for (user, row) in (0..).zip(&isp.users) {
                assert_eq!(
                    store.user(i, user),
                    *row,
                    "user {user} of ISP {i}, flushed: {flushed}"
                );
            }
        }
        assert_eq!(store.user(0, u).balance, 103);
        assert_eq!(store.user(1, u).balance, 101);
        assert_eq!(store.epennies_found(), epennies, "flushed: {flushed}");
    }
    assert!(store.recovers_live_books().0);
}

/// Small, or within 50 of either end of the `i64` range.
fn edge(range: u8, small: i64) -> i64 {
    match range {
        0 => i64::MAX - small.abs(),
        1 => i64::MIN + small.abs(),
        _ => small,
    }
}

/// Two ISPs of three users and one bank, every amount [`edge`]-drawn, and
/// every day counter small or within 50 of `u32::MAX`.
fn edge_books_strategy() -> impl Strategy<Value = Books> {
    let amount = || (0u8..4, -50i64..50).prop_map(|(range, small)| edge(range, small));
    let sent = (any::<bool>(), 0u32..50).prop_map(|(full, n)| if full { u32::MAX - n } else { n });
    let user = (amount(), amount(), sent).prop_map(|(account, balance, sent_today)| UserBooks {
        account,
        balance,
        sent_today,
        limit: u32::MAX,
    });
    let isp = (
        proptest::collection::vec(user, 3..4),
        amount(),
        proptest::collection::vec(amount(), 2..3),
    )
        .prop_map(|(users, avail, credit)| IspBooks {
            users,
            avail,
            credit,
            nonces: Vec::new(),
        });
    (
        proptest::collection::vec(isp, 2..3),
        proptest::collection::vec(amount(), 2..3),
        amount(),
    )
        .prop_map(|(isps, accounts, issued)| Books {
            isps,
            banks: vec![BankBooks { accounts, issued }],
        })
}

/// A record of every kind a [`Ledger`] caller commits — counter trades,
/// which leave credits pending across shards, at three times the odds of
/// the rest — its indices one past the bounds of
/// [`edge_books_strategy`]'s books as often as 1 in 3 (ISP, peer), 1 in 4
/// (user) or 1 in 2 (bank).
fn ledger_record(kind: u32, isp: u32, user: u32, other: u32, amount: i64) -> LedgerRecord {
    match kind {
        0 => LedgerRecord::Charge { isp, user },
        1 => LedgerRecord::Deposit { isp, user },
        2 => LedgerRecord::CreditDelta {
            isp,
            peer: other % 3,
            delta: amount,
        },
        3 | 14 | 15 => LedgerRecord::UserBuy { isp, user, amount },
        4 | 16 | 17 => LedgerRecord::UserSell { isp, user, amount },
        5 => LedgerRecord::PoolBuy { isp, amount },
        6 => LedgerRecord::PoolSell { isp, amount },
        7 => LedgerRecord::BankBuy {
            bank: other % 2,
            isp,
            value: amount,
            cost: amount.wrapping_mul(3),
        },
        8 => LedgerRecord::BankSell {
            bank: other % 2,
            isp,
            value: amount,
            credit: amount.wrapping_mul(3),
        },
        9 => LedgerRecord::SnapshotMarker { isp },
        10 => LedgerRecord::DailyReset { isp },
        11 => LedgerRecord::LimitSet {
            isp,
            user,
            limit: other,
        },
        12 => LedgerRecord::Grant { isp, user, amount },
        13 => LedgerRecord::NonceSeen {
            isp,
            nonce: u64::from(other),
        },
        _ => unreachable!("record kinds are drawn from 0..18"),
    }
}

/// Every row a [`Ledger`] reads of some books' shape: users, pools
/// (`avail`, `credit`, `nonces`) and banks.
type Rows = (
    Vec<UserBooks>,
    Vec<(i64, Vec<i64>, Vec<u64>)>,
    Vec<BankBooks>,
);

/// Every row a [`Ledger`] reads of `books`' shape, as `ledger` reads it.
fn rows(ledger: &dyn Ledger, books: &Books) -> Rows {
    let users = (0..)
        .zip(&books.isps)
        .flat_map(|(i, isp)| (0..isp.users.len() as u32).map(move |u| ledger.user(i, u)));
    let pools = (0..books.isps.len() as u32).map(|i| {
        let pool = ledger.pool(i);
        (pool.avail, pool.credit.to_vec(), pool.nonces.to_vec())
    });
    let banks = (0..books.banks.len() as u32).map(|b| ledger.bank(b).clone());
    (users.collect(), pools.collect(), banks.collect())
}

/// Every blob's length, shard by shard.
fn blob_lens(store: &ShardedLedgerStore<MemStorage>) -> Vec<[u64; 3]> {
    (0..store.shard_count())
        .map(|s| {
            let storage = store.shard(s).storage();
            [WAL, SLOTS[0], SLOTS[1]].map(|blob| storage.len(blob))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One refusal rule. Over books whose rows start small or at the edge
    /// of their ranges, every record kind a [`Ledger`] caller commits —
    /// amounts small or within 50 of the `i64` bounds, indices past the
    /// books' — goes to `Books` and to stores of 1 and 4 shards, whose
    /// cross-shard counter trades leave credits pending until the next
    /// `commit_all`. Each ledger refuses exactly what replay's
    /// `Books::try_apply` refuses; a refusal changes no row (the merged
    /// books and every row read stay the reference's), and it journals
    /// nothing: a twin store given only the records that fit holds blobs
    /// of the same lengths after every `commit_all`.
    #[test]
    fn try_commit_refuses_exactly_what_replay_refuses(
        initial in edge_books_strategy(),
        ops in proptest::collection::vec(
            ((0u32..18, 0u32..3, 0u32..4, 0u32..4), (0u8..4, -50i64..50, 0u8..8, any::<bool>())),
            0..64,
        ),
    ) {
        let open = |shards: usize| {
            let disks = (0..shards).map(|_| MemStorage::new()).collect();
            ShardedLedgerStore::open(disks, StoreConfig::default(), initial.clone()).0
        };
        let mut reference = initial.clone();
        let mut books = initial.clone();
        let mut stores = [open(1), open(4)];
        let mut twins = [open(1), open(4)];
        let mut row = (0, 0);
        for &((kind, isp, user, other), (range, small, then, again)) in &ops {
            // Half the records land on the row the one before named, so
            // most of a credit's tick is spent on the row it is owed to.
            if !again {
                row = (isp, user);
            }
            let rec = ledger_record(kind, row.0, row.1, other, edge(range, small));
            let fits = reference.try_commit(rec).is_ok();
            let before = books.clone();
            prop_assert_eq!(books.try_commit(rec).is_ok(), fits, "Books: {:?}", rec);
            if !fits {
                prop_assert_eq!(&books, &before, "a refused {:?} moved a row", rec);
            }
            for (store, twin) in stores.iter_mut().zip(&mut twins) {
                let shards = store.shard_count();
                prop_assert_eq!(store.try_commit(rec).is_ok(), fits, "{} shards: {:?}", shards, rec);
                prop_assert_eq!(&store.books(), &reference, "{} shards: {:?}", shards, rec);
                prop_assert_eq!(rows(store, &reference), rows(&reference, &reference));
                if fits {
                    twin.commit(rec);
                }
                if then == 0 {
                    store.commit_all();
                    twin.commit_all();
                    prop_assert_eq!(blob_lens(store), blob_lens(twin), "{} shards", shards);
                }
            }
        }
        for (store, twin) in stores.iter_mut().zip(&mut twins) {
            store.commit_all();
            twin.commit_all();
            prop_assert_eq!(blob_lens(store), blob_lens(twin));
            prop_assert!(store.recovers_live_books().0);
        }
    }
}

/// The property above has transfers to leave pending: at four shards,
/// some of [`edge_books_strategy`]'s accounts live apart from their pool.
#[test]
fn four_shards_part_an_account_from_its_pool() {
    let shape = Books {
        isps: vec![
            IspBooks {
                users: vec![UserBooks::default(); 3],
                credit: vec![0; 2],
                ..IspBooks::default()
            };
            2
        ],
        banks: vec![BankBooks {
            accounts: vec![0; 2],
            issued: 0,
        }],
    };
    let map = ShardMap::new(4, &shape);
    let apart = (0..2u32)
        .flat_map(|isp| (0..3u32).map(move |user| (isp, user)))
        .filter(|&(isp, user)| map.user_shard(isp, user) != map.pool_shard(isp))
        .count();
    assert!(apart > 0);
}
