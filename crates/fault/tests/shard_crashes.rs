//! Crash faults against the sharded ledger engine: a machine dying at
//! any point inside the two-phase cross-shard transfer must recover to
//! the transfer *fully applied* or *fully reverted* — never half — and
//! the e-penny supply must not drift by a single penny.
//!
//! The protocol under test (see `zmail_store::shard`): the source shard
//! journals an `XferPrepare` (its outbox entry) which rides the next
//! group commit; the destination's `XferApply` and the source's
//! `XferRelease` are deferred into the batched outbox and flushed —
//! prepares durable first, then applies, then releases — by
//! `commit_all`. Recovery scans every shard's WAL for unreleased
//! prepares and rolls them forward — unless the apply already survived,
//! in which case it only releases (no double credit).

use zmail_fault::FaultyStorage;
use zmail_store::{
    Books, IspBooks, LedgerRecord, MemStorage, ShardRecoveryReport, ShardedLedgerStore,
    StoreConfig, UserBooks, XferKind, XferLeg,
};

const ISPS: u32 = 2;
const USERS: u32 = 8;

/// Group commit armed, checkpoints off: everything after the last
/// explicit commit is volatile and dies in the crash.
const CFG: StoreConfig = StoreConfig {
    batch_records: 1 << 20,
    checkpoint_every: u64::MAX,
};

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
        banks: Vec::new(),
    }
}

type Sharded = ShardedLedgerStore<FaultyStorage<MemStorage>>;

fn open(shards: u32) -> Sharded {
    let storages = (0..shards)
        .map(|_| FaultyStorage::new(MemStorage::new()))
        .collect();
    let (store, _) = ShardedLedgerStore::open(storages, CFG, bootstrap());
    store
}

/// Power-cycles every shard: un-synced bytes are gone, then the engine
/// reopens over the durable images and resolves what it finds.
fn crash_and_reopen(store: Sharded) -> (Sharded, ShardRecoveryReport) {
    let mut storages = store.into_storages();
    for s in &mut storages {
        s.crash();
    }
    ShardedLedgerStore::open(storages, CFG, bootstrap())
}

/// A (sender, receiver) pair whose accounts live on different shards.
fn cross_shard_pair(store: &Sharded) -> ((u32, u32), (u32, u32)) {
    let map = store.map();
    let from = (0, 0);
    let home = map.user_shard(0, 0);
    for isp in 0..ISPS {
        for user in 0..USERS {
            if map.user_shard(isp, user) != home {
                return (from, (isp, user));
            }
        }
    }
    panic!("deployment has no cross-shard pair");
}

fn transfer(store: &mut Sharded, from: (u32, u32), to: (u32, u32)) {
    store.transfer(
        XferLeg {
            kind: XferKind::Charge,
            isp: from.0,
            user: from.1,
            amount: 0,
        },
        XferLeg {
            kind: XferKind::Deposit,
            isp: to.0,
            user: to.1,
            amount: 0,
        },
    );
}

/// The books with one `from` → `to` penny moved.
fn after_transfer(from: (u32, u32), to: (u32, u32)) -> Books {
    let mut books = bootstrap();
    books.apply(&LedgerRecord::Charge {
        isp: from.0,
        user: from.1,
    });
    books.apply(&LedgerRecord::Deposit {
        isp: to.0,
        user: to.1,
    });
    books
}

#[test]
fn crash_between_prepare_and_apply_rolls_forward() {
    let mut store = open(2);
    let (from, to) = cross_shard_pair(&store);
    transfer(&mut store, from, to);
    // Persist the prepare with the source's group commit; the apply is
    // still only a pending-outbox entry and the release does not exist
    // yet. The crash lands exactly in the in-doubt window.
    let src = store.map().user_shard(from.0, from.1) as usize;
    store.shard_mut(src).commit();
    let (recovered, report) = crash_and_reopen(store);
    assert_eq!(report.resolved_forward, 1, "the outbox entry must replay");
    assert_eq!(report.resolved_acked, 0);
    assert_eq!(recovered.books(), after_transfer(from, to));
    assert_eq!(
        recovered.books().epennies_found(),
        bootstrap().epennies_found(),
        "zero-sum across the crash"
    );
    // Resolution itself was journaled durably: a second power cycle
    // finds nothing in doubt.
    let (again, report2) = crash_and_reopen(recovered);
    assert_eq!(report2.resolved_forward + report2.resolved_acked, 0);
    assert_eq!(again.books(), after_transfer(from, to));
}

#[test]
fn durable_apply_with_lost_release_is_acked_not_double_credited() {
    let mut store = open(2);
    let (from, to) = cross_shard_pair(&store);
    transfer(&mut store, from, to);
    // Drive the outbox safety flush with a books-no-op overwrite record
    // (the limit is already 100): the flush group-commits the source
    // (prepare durable) and journals the apply on the destination,
    // which the explicit commit below persists. The release is still
    // pending and dies with the crash.
    store.append(&LedgerRecord::LimitSet {
        isp: from.0,
        user: from.1,
        limit: 100,
    });
    let dst = store.map().user_shard(to.0, to.1) as usize;
    store.shard_mut(dst).commit();
    let (recovered, report) = crash_and_reopen(store);
    assert_eq!(report.resolved_acked, 1, "surviving apply must be detected");
    assert_eq!(report.resolved_forward, 0, "…and must not re-credit");
    assert_eq!(recovered.books(), after_transfer(from, to));
    assert_eq!(
        recovered.books().epennies_found(),
        bootstrap().epennies_found()
    );
}

/// The satellite sweep: crash *during* the prepare's fsync at every
/// torn length. Whatever prefix of the frame survives, recovery must
/// land on all-or-nothing books with exactly zero supply drift.
#[test]
fn torn_prepare_sweep_recovers_all_or_nothing_with_zero_drift() {
    let baseline = bootstrap().epennies_found();
    let (mut reverted, mut applied) = (0u32, 0u32);
    for cut in 0..=64u64 {
        let mut store = open(2);
        let (from, to) = cross_shard_pair(&store);
        let src = store.map().user_shard(from.0, from.1) as usize;
        store.shard_mut(src).storage_mut().arm_partial_sync(cut);
        transfer(&mut store, from, to);
        // The armed tear hits the group commit that persists the
        // prepare (the transfer itself no longer syncs anything).
        store.shard_mut(src).commit();
        let (recovered, report) = crash_and_reopen(store);
        let books = recovered.books();
        assert_eq!(books.epennies_found(), baseline, "drift at cut {cut}");
        if books == bootstrap() {
            reverted += 1;
            assert_eq!(report.resolved_forward, 0, "cut {cut}");
        } else {
            applied += 1;
            assert_eq!(books, after_transfer(from, to), "half-applied at cut {cut}");
            assert_eq!(report.resolved_forward, 1, "cut {cut}");
        }
    }
    // The sweep must actually exercise both outcomes: short tears shear
    // the prepare (revert), long ones persist it whole (roll forward).
    assert!(reverted > 0, "no cut point reverted");
    assert!(applied > 0, "no cut point rolled forward");
}

#[test]
fn mixed_workload_crash_conserves_every_penny() {
    let mut store = open(3);
    let users = ISPS * USERS;
    for i in 0..200u32 {
        let from = (i * 7 + 3) % users;
        let to = (i * 13 + 5) % users;
        if from == to {
            continue;
        }
        transfer(
            &mut store,
            (from / USERS, from % USERS),
            (to / USERS, to % USERS),
        );
        if i % 50 == 49 {
            store.commit_all();
        }
    }
    // Crash with an uncommitted tail of transfers in flight.
    let (recovered, _) = crash_and_reopen(store);
    assert_eq!(
        recovered.books().epennies_found(),
        bootstrap().epennies_found(),
        "supply must not drift across the crash"
    );
    // And the recovered image is itself durable: simulated recovery of
    // the reopened engine reproduces its live books.
    let (resim, _) = recovered.simulate_recovery();
    assert_eq!(resim, recovered.books());
}

#[test]
fn repro_release_durable_before_apply() {
    let mut store = open(2);
    let (from, to) = cross_shard_pair(&store);
    transfer(&mut store, from, to);
    // Try to persist a release ahead of its apply: committing the
    // source persists only the prepare, because the release is not even
    // journaled until `commit_all` has made the applies durable — the
    // hazard window this test is named for cannot be constructed from
    // outside the engine anymore.
    let src = store.map().user_shard(from.0, from.1) as usize;
    store.shard_mut(src).commit();
    let (recovered, report) = crash_and_reopen(store);
    assert_eq!(
        recovered.books().epennies_found(),
        bootstrap().epennies_found(),
        "supply drift: forward={} acked={}",
        report.resolved_forward,
        report.resolved_acked
    );
}

/// Everything above runs with checkpoints off. The sweep below turns
/// them on, with books small enough (≈200 bytes a shard against ≈55 a
/// prepare) that images fall due *inside* `commit_all`'s first wave —
/// prepares open, applies and releases still owed — and kills the
/// machine at every sync of the run.
mod checkpointed_sweep {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::rc::Rc;
    use zmail_store::{wal, Storage, WAL};

    const SHARDS: usize = 4;
    const CFG: StoreConfig = StoreConfig {
        batch_records: 1 << 20,
        checkpoint_every: 4,
    };

    /// A shard's disk on a machine with a fuse: the `fuse`-th sync
    /// anywhere on the machine is the last thing it does (in full, or
    /// `torn` after that many bytes); every later sync never happens, so
    /// `crash` leaves exactly what was durable at the kill. It keeps the
    /// provided `release`, which frees nothing.
    #[derive(Debug)]
    struct Killable {
        disk: FaultyStorage<MemStorage>,
        fuse: Rc<Cell<u64>>,
        torn: Option<u64>,
    }

    impl Storage for Killable {
        fn read(&self, name: &str) -> Vec<u8> {
            self.disk.read(name)
        }
        fn read_from(&self, name: &str, offset: u64) -> Vec<u8> {
            self.disk.read_from(name, offset)
        }
        fn write(&mut self, name: &str, bytes: &[u8]) {
            self.disk.write(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) {
            self.disk.append(name, bytes)
        }
        fn sync(&mut self, name: &str) {
            match self.fuse.get() {
                0 => return, // already dead
                1 => {
                    if let Some(bytes) = self.torn {
                        self.disk.arm_partial_sync(bytes);
                    }
                }
                _ => {}
            }
            self.fuse.set(self.fuse.get() - 1);
            self.disk.sync(name);
        }
        fn len(&self, name: &str) -> u64 {
            self.disk.len(name)
        }
        fn truncate(&mut self, name: &str, len: u64) {
            self.disk.truncate(name, len)
        }
    }

    fn machine(
        disks: Vec<FaultyStorage<MemStorage>>,
        fuse: u64,
        torn: Option<u64>,
    ) -> (
        ShardedLedgerStore<Killable>,
        ShardRecoveryReport,
        Rc<Cell<u64>>,
    ) {
        let fuse = Rc::new(Cell::new(fuse));
        let storages = disks
            .into_iter()
            .map(|disk| Killable {
                disk,
                fuse: Rc::clone(&fuse),
                torn,
            })
            .collect();
        let (store, report) = ShardedLedgerStore::open(storages, CFG, bootstrap());
        (store, report, fuse)
    }

    /// Counter trades between users and their ISP's pool — one record on
    /// one shard, or a two-phase transfer across two — each of a distinct
    /// amount, so a journaled debit names its operation.
    fn ops() -> Vec<LedgerRecord> {
        (0..60u32)
            .map(|i| {
                let (isp, user, amount) = (i % ISPS, (i * 5 + 1) % USERS, i64::from(i) + 1);
                if i % 3 == 2 {
                    LedgerRecord::UserSell { isp, user, amount }
                } else {
                    LedgerRecord::UserBuy { isp, user, amount }
                }
            })
            .collect()
    }

    /// The whole run: a `commit_all` every six operations.
    fn run(store: &mut ShardedLedgerStore<Killable>) {
        for (i, op) in ops().iter().enumerate() {
            store.append(op);
            if i % 6 == 5 {
                store.commit_all();
            }
        }
        store.commit_all();
    }

    /// What the durable logs say, read frame by frame without the
    /// recovery path: the amounts of the operations whose debit leg
    /// survived, and how many prepares are unreleased with and without
    /// their apply.
    struct Durable {
        debited: BTreeSet<i64>,
        owed_apply: u64,
        owed_release_only: u64,
    }

    fn durable(disks: &[FaultyStorage<MemStorage>]) -> Durable {
        let mut debited = BTreeSet::new();
        let (mut prepared, mut applied, mut released) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for disk in disks {
            let log = disk.durable().read(WAL);
            for payload in wal::scan(&log, 0).payloads {
                match LedgerRecord::decode(payload).expect("a framed record") {
                    LedgerRecord::UserBuy { amount, .. }
                    | LedgerRecord::UserSell { amount, .. } => {
                        debited.insert(amount);
                    }
                    LedgerRecord::XferPrepare { xid, debit, .. } => {
                        debited.insert(debit.amount);
                        prepared.insert(xid);
                    }
                    LedgerRecord::XferApply { xid, .. } => {
                        applied.insert(xid);
                    }
                    LedgerRecord::XferRelease { xid } => {
                        released.insert(xid);
                    }
                    other => panic!("the run journals no {other:?}"),
                }
            }
        }
        let open: Vec<u64> = prepared.difference(&released).copied().collect();
        let owed_release_only = open.iter().filter(|xid| applied.contains(xid)).count() as u64;
        Durable {
            debited,
            owed_apply: open.len() as u64 - owed_release_only,
            owed_release_only,
        }
    }

    /// Kills the machine at its `fuse`-th sync and checks the restart;
    /// returns whether the restart recovered from an image while
    /// transfers were still in doubt.
    fn kill_at(fuse: u64, torn: Option<u64>) -> bool {
        let disks = (0..SHARDS)
            .map(|_| FaultyStorage::new(MemStorage::new()))
            .collect();
        let (mut store, _, _) = machine(disks, fuse, torn);
        run(&mut store);
        let at = format!("kill at sync {fuse}, torn {torn:?}");
        // The process ran on over dead disks: its books are the whole
        // run's, its backends what the kill left — cut inside whichever
        // of `commit_all`'s three waves the fuse fell in. The shard-wise
        // audits must say of that state what the merged images say.
        for s in 0..SHARDS {
            store.shard_mut(s).storage_mut().disk.crash();
        }
        let (cut, cut_report) = store.simulate_recovery();
        assert_eq!(
            store.recovers_live_books(),
            (cut == store.books(), cut_report),
            "{at}"
        );
        assert_eq!(
            store.epennies_found(),
            store.books().epennies_found(),
            "{at}"
        );
        let disks: Vec<_> = store.into_storages().into_iter().map(|k| k.disk).collect();
        let found = durable(&disks);
        let mut reference = bootstrap();
        for op in ops() {
            let (LedgerRecord::UserBuy { amount, .. } | LedgerRecord::UserSell { amount, .. }) = op
            else {
                unreachable!()
            };
            if found.debited.contains(&amount) {
                reference.apply(&op);
            }
        }

        let (recovered, report, _) = machine(disks, u64::MAX, None);
        assert_eq!(report.resolved_forward, found.owed_apply, "{at}");
        assert_eq!(report.resolved_acked, found.owed_release_only, "{at}");
        assert_eq!(recovered.books(), reference, "{at}");
        assert_eq!(
            recovered.epennies_found(),
            bootstrap().epennies_found(),
            "{at}"
        );
        assert!(recovered.recovers_live_books().0, "{at}");
        // The resolution was itself journaled durably: a second power
        // cycle finds nothing in doubt and the same books.
        let mut disks: Vec<_> = recovered
            .into_storages()
            .into_iter()
            .map(|k| k.disk)
            .collect();
        for disk in &mut disks {
            disk.crash();
        }
        let (again, second, _) = machine(disks, u64::MAX, None);
        assert_eq!(second.resolved_forward + second.resolved_acked, 0, "{at}");
        assert_eq!(again.books(), reference, "{at}");
        report.checkpoint_seq().is_some() && found.owed_apply + found.owed_release_only > 0
    }

    #[test]
    fn kill_at_every_sync_with_checkpoints_on_recovers_the_reference_fold() {
        // An unkilled run counts the syncs there are to die at.
        let disks = (0..SHARDS)
            .map(|_| FaultyStorage::new(MemStorage::new()))
            .collect();
        let (mut store, _, fuse) = machine(disks, u64::MAX, None);
        run(&mut store);
        let syncs = u64::MAX - fuse.get();
        let images: u64 = (0..SHARDS)
            .map(|s| store.shard(s).next_checkpoint_seq())
            .sum();
        assert!(
            images >= 8,
            "checkpoints must fire mid-run: {images} images"
        );

        let mut image_with_transfers_in_doubt = 0;
        for fuse in 1..=syncs + 1 {
            for torn in [None, Some(5)] {
                image_with_transfers_in_doubt += u32::from(kill_at(fuse, torn));
            }
        }
        assert!(
            image_with_transfers_in_doubt > 0,
            "no kill point recovered from an image with a transfer in doubt"
        );
    }
}
