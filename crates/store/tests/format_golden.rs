//! The on-disk format is frozen: a fixed record stream must leave
//! byte-for-byte the WAL and checkpoint slots it left at the commit
//! before the store's kernels were rewritten (PR 13). The constants
//! below are the length and CRC-32 of every blob as that parent commit
//! wrote them — built there in a throwaway clone, not by this code — so
//! a faster encoder, framer or checksum that moves a single stored byte
//! fails here.

use zmail_store::checkpoint::SLOTS;
use zmail_store::{
    wal, BankBooks, Books, IspBooks, LedgerRecord, LedgerStore, MemStorage, ShardedLedgerStore,
    Storage, StoreConfig, UserBooks, XferKind, XferLeg, WAL,
};

const ISPS: u32 = 3;
const USERS: u32 = 5;
const CONFIG: StoreConfig = StoreConfig {
    batch_records: 4,
    checkpoint_every: 16,
};

fn bootstrap() -> Books {
    Books {
        isps: (0..ISPS)
            .map(|i| IspBooks {
                users: (0..USERS)
                    .map(|u| UserBooks {
                        account: 1_000 + i64::from(u),
                        balance: 100 + i64::from(i),
                        sent_today: 0,
                        limit: 100,
                    })
                    .collect(),
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

/// 64 records, every one of the 19 tags at least three times, fields a
/// fixed function of the position.
fn stream() -> Vec<LedgerRecord> {
    (0..64u32)
        .map(|i| {
            let isp = i % ISPS;
            let user = (i / 3) % USERS;
            let amount = i64::from(i) * 7 + 1;
            let leg = |kind| XferLeg {
                kind,
                isp,
                user,
                amount,
            };
            match i % 19 {
                0 => LedgerRecord::Charge { isp, user },
                1 => LedgerRecord::Deposit { isp, user },
                2 => LedgerRecord::CreditDelta {
                    isp,
                    peer: (i + 1) % ISPS,
                    delta: amount - 40,
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
                    limit: 50 + i,
                },
                12 => LedgerRecord::Grant { isp, user, amount },
                13 => LedgerRecord::UserCounterBuy { isp, user, amount },
                14 => LedgerRecord::UserCounterSell { isp, user, amount },
                15 => LedgerRecord::XferPrepare {
                    xid: u64::from(i),
                    dst: 2,
                    debit: leg(XferKind::PoolSell),
                    credit: leg(XferKind::CounterBuy),
                },
                16 => LedgerRecord::XferApply {
                    xid: u64::from(i),
                    leg: leg(XferKind::Deposit),
                },
                17 => LedgerRecord::XferRelease { xid: u64::from(i) },
                _ => LedgerRecord::NonceSeen {
                    isp,
                    nonce: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i)),
                },
            }
        })
        .collect()
}

/// `(length, CRC-32)` of the WAL and the two checkpoint slots. A slot
/// ends in the CRC of everything before it, which makes the CRC of a
/// whole slot the same residue for every image, so a slot's CRC is
/// taken over its body; recovery reporting no corrupt slot is what
/// checks the trailers.
fn fingerprint(storage: &MemStorage) -> [(usize, u32); 3] {
    [WAL, SLOTS[0], SLOTS[1]].map(|name| {
        let bytes = storage.read(name);
        let body = if name == WAL { 0 } else { 4 };
        (
            bytes.len(),
            wal::crc32(&bytes[..bytes.len().saturating_sub(body)]),
        )
    })
}

#[test]
fn one_engine_writes_the_parent_commits_bytes() {
    let (mut store, _) = LedgerStore::open(MemStorage::new(), CONFIG, bootstrap());
    for rec in stream() {
        store.append(&rec);
    }
    store.commit();
    assert_eq!(
        store.next_checkpoint_seq(),
        2,
        "1549 bytes of log / one ~576-byte image apiece"
    );
    assert_eq!(fingerprint(store.storage()), ONE_ENGINE);
    let (recovered, report) = store.simulate_recovery();
    assert_eq!(&recovered, store.books());
    assert_eq!(report.checkpoint_seq, Some(1));
    assert_eq!(report.corrupt_slots, 0);
}

/// The sharded engine journals the internal tags itself (a cross-shard
/// `UserBuy`/`UserSell` becomes prepare/apply/release with counter
/// legs), so only the routable records of the stream are fed to it.
#[test]
fn four_shards_write_the_parent_commits_bytes() {
    let storages = (0..4).map(|_| MemStorage::new()).collect();
    let (mut store, _) = ShardedLedgerStore::open(storages, CONFIG, bootstrap());
    for (i, rec) in stream().iter().enumerate() {
        let internal = matches!(
            rec,
            LedgerRecord::UserCounterBuy { .. }
                | LedgerRecord::UserCounterSell { .. }
                | LedgerRecord::XferPrepare { .. }
                | LedgerRecord::XferApply { .. }
                | LedgerRecord::XferRelease { .. }
        );
        if !internal {
            store.append(rec);
        }
        if i % 16 == 15 {
            store.commit_all();
        }
    }
    store.checkpoint_all();
    let prints: Vec<_> = (0..4)
        .map(|s| fingerprint(store.shard(s).storage()))
        .collect();
    assert_eq!(prints, FOUR_SHARDS);
    let transfer_tags = (0..4)
        .flat_map(|s| {
            let log = store.shard(s).storage().read(WAL);
            let tags: Vec<u8> = wal::scan(&log, 0).payloads.iter().map(|p| p[0]).collect();
            tags
        })
        .filter(|tag| (16..=18).contains(tag))
        .count();
    assert!(
        transfer_tags >= 3,
        "the stream must cross shards: {transfer_tags} transfer records"
    );
    let (recovered, report) = store.simulate_recovery();
    assert_eq!(recovered, store.books());
    assert!(report.shards.iter().all(|r| r.corrupt_slots == 0));
}

// Recorded at the parent commit (b5b07ac) by running this file there.
//
// The two slot entries of `ONE_ENGINE` were re-recorded at PR 16, the
// WAL entry was not: since then an image is written only once the log
// has grown by its own length, so this stream leaves two images (seq 0
// after record 24 at WAL offset 575, seq 1 after record 48 at 1162)
// where it left four (seq 2 and 3 in the slots), and a slot's body
// carries its `seq` and `wal_offset`. The slot *format* did not move:
// the new pairs are what the PR-14 commit (f1a122b) writes when this
// stream is fed to it with automatic checkpoints off and `checkpoint()`
// called after records 24 and 48. `FOUR_SHARDS` is untouched.
const ONE_ENGINE: [(usize, u32); 3] = [(1549, 409686110), (572, 18654585), (580, 1955263551)];
const FOUR_SHARDS: [[(usize, u32); 3]; 4] = [
    [(584, 4221333835), (236, 1016596361), (236, 1364898990)],
    [(478, 105659723), (236, 3052909983), (236, 319221731)],
    [(237, 2060829438), (228, 3364166622), (0, 0)],
    [(385, 2005256064), (212, 3348831048), (212, 3944370481)],
];
