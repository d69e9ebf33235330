//! Negative-path refund replay (tier-1, CI-gated): a §5 ack refund is
//! honoured **exactly once per nonce**, and the refusal survives ISP
//! crash/restart windows because the accepted-nonce set rides the
//! durable ledger (`LedgerRecord::NonceSeen`), not session state.
//!
//! Three layers, innermost out:
//!
//! 1. **store** — the nonce set reconstructed by `zmail-store` recovery
//!    equals the in-memory fold at *every* WAL prefix and every torn
//!    byte cut, NonceSeen records interleaved with ordinary ledger
//!    mutations (the `shard_properties` discipline);
//! 2. **ISP** — a replayed ack is `Refused(ReplayedNonce)` before a
//!    crash, and *still* refused by a freshly constructed ISP process
//!    running on the recovered books — while an unrelated fresh
//!    nonce is honoured, proving the refusal is per-nonce, not a wedge;
//! 3. **scenario** — the full harness under a replay-farming adversary
//!    *plus* a crash window on the refund-granting ISP: recovery never
//!    diverges, the audits stay clean, and the run replays
//!    byte-identically.

use proptest::prelude::*;
use zmail::core::{Delivery, EmailMsg, Isp, IspId, RefusalCause, ZmailConfig};
use zmail::crypto::{Attestation, KeyPair};
use zmail::fault::{AttackClass, Crash, Fault};
use zmail::fault_scenarios::Scenario;
use zmail::sim::{MailKind, SimDuration, SimTime, UserAddr};
use zmail::store::engine::WAL;
use zmail::store::{
    BankBooks, Books, IspBooks, Ledger, LedgerRecord, MemStorage, ShardedLedgerStore, Storage,
    StoreConfig, UserBooks,
};

const ISPS: u32 = 2;
const USERS: u32 = 4;

fn config() -> ZmailConfig {
    ZmailConfig::builder(ISPS, USERS)
        .attestations()
        .durable()
        .build()
}

fn small_rng(seed: u64) -> rand::rngs::SmallRng {
    <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed)
}

/// A two-ISP bench: ISP 0 originates signed acks, ISP 1 grants the
/// refunds and keeps the durable nonce set under test.
struct Bench {
    config: ZmailConfig,
    origin_pair: KeyPair,
    receiver_pair: KeyPair,
    receiver: Isp,
    /// The books both ISPs run on, in a one-shard store over the
    /// receiver ISP's "disk": one backend for the whole bench lifetime,
    /// surviving every crash_restart like a real volume.
    store: ShardedLedgerStore<MemStorage>,
}

impl Bench {
    fn new(seed: u64) -> Self {
        let config = config();
        let mut rng = small_rng(seed);
        let bank = *KeyPair::generate(&mut rng).public();
        let origin_pair = KeyPair::generate(&mut rng);
        let receiver_pair = KeyPair::generate(&mut rng);
        let mut receiver = Isp::new(IspId(1), &config, bank, seed);
        receiver.install_attestation_keys(
            *receiver_pair.private(),
            vec![*origin_pair.public(), *receiver_pair.public()],
        );
        let bootstrap = config.initial_books();
        let store = open(MemStorage::new(), StoreConfig::default(), bootstrap);
        Bench {
            config,
            origin_pair,
            receiver_pair,
            receiver,
            store,
        }
    }

    /// A correctly signed, correctly bound ack refund claim from
    /// ISP 0 / user 0 to ISP 1 / user 1 with the given nonce.
    fn ack(&self, nonce: u64) -> EmailMsg {
        let attestation = Attestation::sign(
            self.origin_pair.private(),
            0,
            0,
            1,
            1,
            1,
            nonce,
            Some(nonce ^ 0xACED),
        );
        EmailMsg {
            from: UserAddr::new(0, 0),
            to: UserAddr::new(1, 1),
            kind: MailKind::Ack,
            paid: true,
            attestation: Some(attestation),
        }
    }

    /// Crash ISP 1: commit what it journaled, recover, and replace the
    /// process with a freshly constructed one running on the books the
    /// reopened store recovers — the exact harness restart path.
    fn crash_restart(&mut self, seed: u64) {
        let mut rng = small_rng(seed ^ 0xB007);
        self.store.commit_all();
        let (recovered, report) = self.store.simulate_recovery();
        assert_eq!(
            report.torn_tails(),
            0,
            "clean shutdown must not report a tear"
        );
        assert_eq!(
            &recovered.isps[1],
            &self.store.books().isps[1],
            "recovery lost part of the receiver's books (nonce set included)"
        );
        let bank = *KeyPair::generate(&mut rng).public();
        let mut restarted = Isp::new(IspId(1), &self.config, bank, seed);
        restarted.install_attestation_keys(
            *self.receiver_pair.private(),
            vec![*self.origin_pair.public(), *self.receiver_pair.public()],
        );
        let disk = self.store.shard(0).storage().clone();
        let bootstrap = self.config.initial_books();
        self.store = open(disk, StoreConfig::default(), bootstrap);
        // The restarted process carries over nothing but the recovered
        // books — volatile state is rebuilt by the protocol.
        self.receiver = restarted;
    }
}

// ---------------------------------------------------------------- ISP

/// The headline negative path: accept once, refuse the replay, crash,
/// restart from recovery, refuse the replay *again* — and still honour
/// a fresh nonce, so the refusal is per-nonce.
#[test]
fn replayed_refund_is_refused_once_per_nonce_across_restart() {
    let mut bench = Bench::new(7);
    let ack = bench.ack(0xC0FFEE);

    assert_eq!(
        bench
            .receiver
            .receive_email(&mut bench.store, IspId(0), &ack),
        Delivery::Delivered,
        "first presentation of a valid refund claim is honoured"
    );
    assert_eq!(
        bench
            .receiver
            .receive_email(&mut bench.store, IspId(0), &ack),
        Delivery::Refused(RefusalCause::ReplayedNonce),
        "second presentation is refused while the process is up"
    );

    bench.crash_restart(7);
    assert_eq!(
        bench
            .receiver
            .receive_email(&mut bench.store, IspId(0), &ack),
        Delivery::Refused(RefusalCause::ReplayedNonce),
        "the nonce set must survive crash recovery — a restart is not a refund reset"
    );
    let fresh = bench.ack(0xDECAF);
    assert_eq!(
        bench
            .receiver
            .receive_email(&mut bench.store, IspId(0), &fresh),
        Delivery::Delivered,
        "a fresh nonce is still honoured after restart: refusal is per-nonce"
    );
}

/// Replays interleaved across *multiple* crash windows: each of N
/// distinct nonces is honoured exactly once no matter how many times it
/// is re-presented or how many restarts separate the presentations.
#[test]
fn refunds_stay_single_use_across_many_restarts() {
    let mut bench = Bench::new(11);
    let nonces: Vec<u64> = (1..=6).map(|n| 0x5EED_0000 + n).collect();
    let mut honoured = 0u32;
    for round in 0..4 {
        for (i, &nonce) in nonces.iter().enumerate() {
            // Stagger first presentations across rounds: nonce i debuts
            // in round i % 4, every later presentation is a replay.
            if round < i % 4 {
                continue;
            }
            let ack = bench.ack(nonce);
            let verdict = bench
                .receiver
                .receive_email(&mut bench.store, IspId(0), &ack);
            if round == i % 4 {
                assert_eq!(
                    verdict,
                    Delivery::Delivered,
                    "nonce {nonce:#x} refused at its debut in round {round}"
                );
                honoured += 1;
            } else {
                assert_eq!(
                    verdict,
                    Delivery::Refused(RefusalCause::ReplayedNonce),
                    "nonce {nonce:#x} re-honoured in round {round}"
                );
            }
        }
        bench.crash_restart(11 + round as u64);
    }
    assert_eq!(
        honoured,
        nonces.len() as u32,
        "every distinct nonce is honoured exactly once"
    );
    let pool = bench.store.pool(1);
    let mut expect = nonces.clone();
    expect.sort_unstable();
    assert_eq!(
        pool.nonces, expect,
        "the durable set holds exactly the honoured nonces, sorted and deduped"
    );
}

// -------------------------------------------------------------- store

/// A one-shard store over `disk`: the WAL one engine would write.
fn open(disk: MemStorage, config: StoreConfig, bootstrap: Books) -> ShardedLedgerStore<MemStorage> {
    ShardedLedgerStore::open(vec![disk], config, bootstrap).0
}

fn bootstrap_books() -> Books {
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
                    3
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

/// Maps op tuples onto a NonceSeen-heavy record mix: half the stream is
/// nonce acceptances drawn from a small pool (so duplicates are
/// guaranteed), the rest ordinary ledger traffic around them.
fn nonce_record(kind: u32, a: u32, b: u32, amt: i64) -> LedgerRecord {
    let isp = a % ISPS;
    let user = b % 3;
    match kind % 6 {
        0..=2 => LedgerRecord::NonceSeen {
            isp,
            nonce: 1 + u64::from(b % 9),
        },
        3 => LedgerRecord::Charge { isp, user },
        4 => LedgerRecord::Deposit { isp, user },
        _ => LedgerRecord::CreditDelta {
            isp,
            peer: b % ISPS,
            delta: amt.rem_euclid(7) - 3,
        },
    }
}

fn nonce_states(records: &[LedgerRecord]) -> Vec<Books> {
    let mut states = Vec::with_capacity(records.len() + 1);
    let mut books = bootstrap_books();
    states.push(books.clone());
    for rec in records {
        books.apply(rec);
        states.push(books.clone());
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Crash after every append: the recovered nonce sets equal the
    /// in-memory fold of exactly the committed prefix — sorted, deduped,
    /// duplicate NonceSeen records idempotent.
    #[test]
    fn nonce_set_recovers_at_every_wal_prefix(
        ops in proptest::collection::vec((0u32..6, 0u32..8, 0u32..16, -100i64..100), 1..40),
    ) {
        let records: Vec<LedgerRecord> =
            ops.iter().map(|&(k, a, b, amt)| nonce_record(k, a, b, amt)).collect();
        let states = nonce_states(&records);
        let mut store = open(MemStorage::new(), StoreConfig::default(), bootstrap_books());
        for (i, rec) in records.iter().enumerate() {
            store.append(rec);
            let (recovered, _) = store.simulate_recovery();
            for isp in 0..ISPS as usize {
                prop_assert_eq!(
                    &recovered.isps[isp].nonces,
                    &states[i + 1].isps[isp].nonces,
                    "isp {} nonce set wrong at prefix {}", isp, i + 1
                );
                let mut sorted = recovered.isps[isp].nonces.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(
                    &recovered.isps[isp].nonces, &sorted,
                    "recovered nonce set must stay sorted and deduped"
                );
            }
        }
    }

    /// Tear the WAL at every byte: recovery lands on a record boundary
    /// and the nonce set is exactly the fold of the surviving records —
    /// a torn tail may forget recent nonces, never invent or resurrect.
    #[test]
    fn torn_tail_never_invents_or_resurrects_nonces(
        ops in proptest::collection::vec((0u32..6, 0u32..8, 0u32..16, -100i64..100), 1..24),
    ) {
        let records: Vec<LedgerRecord> =
            ops.iter().map(|&(k, a, b, amt)| nonce_record(k, a, b, amt)).collect();
        let states = nonce_states(&records);
        let cfg = StoreConfig { batch_records: 1, checkpoint_every: 1 << 30 };
        let mut store = open(MemStorage::new(), cfg, bootstrap_books());
        for rec in &records {
            store.append(rec);
        }
        let full = store.shard(0).storage().read(WAL);
        for cut in 0..=full.len() {
            let mut torn = MemStorage::new();
            torn.append(WAL, &full[..cut]);
            let (recovered, report) = ShardedLedgerStore::open(vec![torn], cfg, bootstrap_books());
            let k = report.replayed_records() as usize;
            prop_assert!(k <= records.len());
            for isp in 0..ISPS as usize {
                prop_assert_eq!(
                    recovered.pool(isp as u32).nonces,
                    &states[k].isps[isp].nonces[..],
                    "cut {}: isp {} nonce set is not the honest prefix fold", cut, isp
                );
            }
        }
    }
}

// ----------------------------------------------------------- scenario

/// The full harness: a replay-farming adversary *and* a crash window on
/// the refund-granting (mailing-list distributor) ISP, durable store
/// on. The recovered books — nonce set included — must match the
/// pre-crash ones bit for bit, the audits must stay clean, and the run
/// must replay byte-identically.
#[test]
fn replay_farming_under_crash_restart_keeps_refunds_single_use() {
    let base = Scenario::adversarial(42, AttackClass::ReplayAck).with_durability();
    let victim = base
        .mailing_list
        .expect("replay scenarios always wire a mailing list");
    let crash = Fault::Crash(Crash {
        isp: victim,
        at: SimTime::ZERO + SimDuration::from_hours(30),
        restart_after: SimDuration::from_hours(3),
    });
    let plan = base.plan.clone().with(crash);
    let scenario = base.with_plan(plan);

    let outcome = scenario.run();
    assert!(
        outcome.adversary.replays > 0,
        "the adversary must actually farm replays for this test to bite"
    );
    assert!(
        !outcome.report.recoveries.is_empty(),
        "the crash window must trigger a durable-store recovery"
    );
    for recovery in &outcome.report.recoveries {
        assert!(
            !recovery.diverged,
            "recovered books (nonce set included) diverged at {:?}",
            recovery.at
        );
    }
    assert!(
        outcome.is_ok(),
        "audits must stay clean under replay + crash:\n{}",
        scenario.failure_report(&outcome)
    );
    let again = scenario.run();
    assert_eq!(
        outcome.report, again.report,
        "run must replay byte-identically"
    );
    assert_eq!(outcome.violations, again.violations);
}
