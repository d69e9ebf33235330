//! One ledger semantics, whoever holds the books: a standalone pair of
//! ISPs and their bank, driven through random operation sequences —
//! sends, receives, counter buys, sells and top-ups, §4.3 exchanges,
//! snapshot requests and finishes, daily resets, `set_limit`,
//! `grant_balance` — leave the same books whether they commit to plain
//! `Books` or to a `ShardedLedgerStore` of 1, 2 or 4 shards that
//! journals every record, and each store recovers exactly the books it
//! holds after every operation.
//!
//! Each sequence runs over identically seeded processes, once per
//! ledger, in lockstep: the processes read their guards from the rows of
//! the ledger they were lent — through the outbox overlay, with
//! cross-shard credits still owed — so any difference between the
//! ledgers' rows would steer the runs apart.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use zmail::core::{EmailMsg, Exchange, Federation, Isp, IspId, NetMsg, SendOutcome, ZmailConfig};
use zmail::crypto::KeyPair;
use zmail::econ::EPennies;
use zmail::sim::{MailKind, UserAddr};
use zmail::store::{Ledger, MemStorage, ShardedLedgerStore, StoreConfig};

const USERS: u32 = 3;

/// Two ISPs and the bank, with attestations on so receives journal
/// nonces, a daily limit low enough to bind, and a pool band narrow
/// enough that counter trades push it out on either side.
fn config() -> ZmailConfig {
    ZmailConfig::builder(2, USERS)
        .limit(6)
        .avail_bounds(EPennies(4_990), EPennies(5_010), EPennies(5_000))
        .attestations()
        .build()
}

/// The processes and what is in flight between them, over ledger `L`.
struct Deployment<L: Ledger> {
    ledger: L,
    isps: [Isp; 2],
    bank: Federation,
    /// Paid mail in flight toward each ISP, FIFO.
    wires: [VecDeque<EmailMsg>; 2],
    /// Snapshot requests delivered and not yet finished, per ISP.
    frozen: [bool; 2],
}

impl<L: Ledger> Deployment<L> {
    fn new(config: &ZmailConfig, ledger: L) -> Self {
        let bank = Federation::new(config, 3);
        let keys: Vec<KeyPair> = (0..2)
            .map(|i| KeyPair::generate(&mut SmallRng::seed_from_u64(40 + i)))
            .collect();
        let publics: Vec<_> = keys.iter().map(|k| *k.public()).collect();
        let isps = [0, 1].map(|i| {
            let mut isp = Isp::new(
                IspId(i),
                config,
                bank.public_key_for(IspId(i)),
                7 + u64::from(i),
            );
            isp.install_attestation_keys(*keys[i as usize].private(), publics.clone());
            isp
        });
        Deployment {
            ledger,
            isps,
            bank,
            wires: Default::default(),
            frozen: [false; 2],
        }
    }

    /// Sends from `(isp, user)` to `to`; paid mail goes on the wire.
    fn send(&mut self, isp: usize, user: u32, to: UserAddr) {
        let sent = self.isps[isp].send_email(&mut self.ledger, user, to, MailKind::Personal);
        if let Ok(SendOutcome::Outbound {
            to,
            msg: NetMsg::Email(email),
        }) = sent
        {
            self.wires[to.index()].push_back(email);
        }
    }

    /// One §4.3 round trip for `isp`'s `side`, if its pool asks for one.
    fn exchange(&mut self, isp: usize, side: Exchange) {
        let Some(NetMsg::Exchange { envelope, .. }) =
            self.isps[isp].maybe_exchange(&self.ledger, side)
        else {
            return;
        };
        let from = IspId(isp as u32);
        let reply = self
            .bank
            .handle_exchange(&mut self.ledger, side, from, &envelope);
        if let Ok(NetMsg::ExchangeReply { envelope, .. }) = reply {
            let handled = self.isps[isp].handle_exchange_reply(&mut self.ledger, side, &envelope);
            assert!(
                handled.expect("the bank's own seal"),
                "a fresh reply applies"
            );
        }
    }

    fn step(&mut self, (op, a, b, c): (u8, u32, u32, u32)) {
        let isp = (a % 2) as usize;
        let user = b % USERS;
        let amount = EPennies(i64::from(c % 40));
        match op {
            0 => self.send(isp, user, UserAddr::new(c % 2, c % USERS)),
            1 => {
                if let Some(email) = self.wires[isp].pop_front() {
                    let origin = IspId(email.from.isp);
                    self.isps[isp].receive_email(&mut self.ledger, origin, &email);
                }
            }
            2 => {
                self.isps[isp].user_buy(&mut self.ledger, user, amount);
            }
            3 => {
                self.isps[isp].user_sell(&mut self.ledger, user, amount);
            }
            4 => {
                self.isps[isp].auto_topup(&mut self.ledger, user, EPennies(99), amount);
            }
            5 => self.exchange(isp, Exchange::BOTH[(c % 2) as usize]),
            6 if !self.bank.snapshot_in_progress() => {
                for (target, request) in self.bank.start_snapshot() {
                    let NetMsg::SnapshotRequest { envelope } = request else {
                        unreachable!("the bank requests snapshots")
                    };
                    let fresh = self.isps[target.index()].handle_snapshot_request(&envelope);
                    self.frozen[target.index()] = fresh.expect("the bank's own seal");
                }
            }
            7 if self.frozen[isp] => {
                self.frozen[isp] = false;
                let (reply, buffered) = self.isps[isp].finish_snapshot(&mut self.ledger);
                let NetMsg::SnapshotReply { from, envelope } = reply else {
                    unreachable!("an ISP replies to a snapshot")
                };
                let reported = self.bank.handle_snapshot_reply(from, &envelope);
                reported.expect("the ISP's own seal");
                for (sender, to, _) in buffered {
                    self.send(isp, sender, to);
                }
            }
            8 => self.isps[isp].reset_daily(&mut self.ledger),
            9 => self.isps[isp].set_limit(&mut self.ledger, user, c % 8),
            10 => self.isps[isp].grant_balance(&mut self.ledger, user, amount),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn volatile_and_durable_ledgers_keep_the_same_books_and_recovery_matches_live(
        ops in proptest::collection::vec((0u8..11, 0u32..4, 0u32..8, 0u32..64), 1..160),
    ) {
        let config = config();
        let store = StoreConfig {
            batch_records: 1,
            checkpoint_every: 4,
        };
        let bootstrap = config.initial_books();
        let mut durable: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|shards| {
                let disks = (0..shards).map(|_| MemStorage::new()).collect();
                let (ledger, _) = ShardedLedgerStore::open(disks, store, bootstrap.clone());
                Deployment::new(&config, ledger)
            })
            .collect();
        let mut volatile = Deployment::new(&config, bootstrap);
        for (i, &op) in ops.iter().enumerate() {
            volatile.step(op);
            for durable in &mut durable {
                durable.step(op);
                let store = &durable.ledger;
                let shards = store.shard_count();
                prop_assert_eq!(&volatile.ledger, &store.books(), "{} shards, op {} {:?}", shards, i, op);
                prop_assert!(store.recovers_live_books().0, "{} shards, op {} {:?}", shards, i, op);
            }
        }
    }
}
