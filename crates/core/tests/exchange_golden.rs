//! The §4.3 ISP↔bank exchange is frozen: seeded runs over a lossy bank
//! channel with retransmission, in both request-id modes and under one
//! and two banks, must end with the run digest, the stranded-penny
//! ledger, every pool and every exchange counter they ended with at the
//! commit before buy and sell became one `Exchange` state machine
//! (PR 17). Written against [`ZmailSystem`]'s public surface only, so the
//! same file runs on both sides of that change; the constants below were
//! computed by running it at that parent commit in a throwaway clone (the
//! recipe `crates/store/tests/format_golden.rs` documents), not by this
//! code — so a side that draws its nonce, seals, counts or books in a
//! different order fails here.

use zmail_core::bank::BankStats;
use zmail_core::{IspId, UserAddr, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_sim::workload::SendEvent;
use zmail_sim::{MailKind, SimDuration, SimTime};

const ISPS: u32 = 3;
const USERS: u32 = 8;

/// 1500 sends 70 ms apart — closer than the 50 ms + 150 ms retry timer,
/// so requests, replies, retransmissions and new sends interleave. Users
/// 0–3 of every ISP only send, users 4–7 only receive: each sender tops
/// up at the counter on its first send and every ≈100 sends after, and
/// drains its ISP's pool.
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

/// What one run leaves behind, as far as the exchange can move it.
#[derive(Debug, PartialEq)]
struct Outcome {
    digest: u64,
    stranded: i64,
    bank_messages_lost: u64,
    /// Per ISP: final `avail()`.
    avail: [i64; ISPS as usize],
    /// Per ISP: `bank_buys, bank_sells, bank_retries, idempotent_retries,
    /// stale_replies`.
    isp: [[u64; 5]; ISPS as usize],
    /// Per bank: `buys_granted, buys_rejected, sells, replays_dropped,
    /// idempotent_replays`.
    banks: Vec<[u64; 5]>,
}

fn run(idempotent: bool, banks: u32) -> Outcome {
    // A pool that starts above `maxavail` sells on the first send, and
    // the four first-send counter purchases drain it below `minavail`
    // within 630 ms, so it buys while the sell — half of all requests
    // and replies being lost — is usually still outstanding. The retry
    // timer is per ISP, so whichever side's timer fires retransmits both:
    // the other side's own reply then arrives stale.
    let config = ZmailConfig::builder(ISPS, USERS)
        .initial_balance(EPennies(9))
        .limit(10_000)
        .avail_bounds(EPennies(300), EPennies(400), EPennies(650))
        .lossy_bank_channel(0.5, None)
        .bank_retry(Some(SimDuration::from_millis(150)))
        .idempotent_bank_ids(idempotent)
        .banks(banks)
        .build();
    let mut system = ZmailSystem::new(config, 24);
    let report = system.run_trace(&trace());
    system
        .audit()
        .expect("the stranded ledger keeps the books exact");
    let federation = system.federation();
    Outcome {
        digest: report.digest_checksum,
        stranded: system.pennies_stranded(),
        bank_messages_lost: report.bank_messages_lost,
        avail: [0, 1, 2].map(|i| system.isp(IspId(i)).avail().amount()),
        isp: [0, 1, 2].map(|i| {
            let s = system.isp(IspId(i)).stats();
            [
                s.bank_buys,
                s.bank_sells,
                s.bank_retries,
                s.idempotent_retries,
                s.stale_replies,
            ]
        }),
        banks: (0..federation.bank_count())
            .map(|b| {
                let BankStats {
                    buys_granted,
                    buys_rejected,
                    sells,
                    replays_dropped,
                    idempotent_replays,
                    refused,
                    snapshot_rounds: _,
                } = *federation.bank(b).stats();
                assert_eq!(refused, 0, "honest ISPs ask for nothing refusable");
                [
                    buys_granted,
                    buys_rejected,
                    sells,
                    replays_dropped,
                    idempotent_replays,
                ]
            })
            .collect(),
    }
}

#[test]
fn every_mode_ends_where_it_ended_before_the_two_sides_were_one() {
    let avail = [350, 350, 350];
    // Fresh nonces: three sells were asked for and nine processed — the
    // retried sell is served again under each new nonce.
    let isp = [[5, 1, 15, 0, 0], [4, 1, 23, 0, 2], [5, 1, 25, 0, 1]];
    let fresh = |digest, banks| Outcome {
        digest,
        stranded: 0,
        bank_messages_lost: 60,
        avail,
        isp,
        banks,
    };
    assert_eq!(
        run(false, 1),
        fresh(3_196_862_595_848_143_594, vec![[25, 0, 9, 0, 0]])
    );
    assert_eq!(
        run(false, 2),
        fresh(
            10_890_441_547_506_694_783,
            vec![[18, 0, 3, 0, 0], [7, 0, 6, 0, 0]]
        )
    );
    // Idempotent ids: every retry is answered from the cache.
    let isp = [[5, 1, 48, 48, 2], [6, 1, 18, 18, 1], [5, 1, 22, 22, 1]];
    let idempotent = |digest, banks| Outcome {
        digest,
        stranded: 0,
        bank_messages_lost: 84,
        avail,
        isp,
        banks,
    };
    assert_eq!(
        run(true, 1),
        idempotent(17_989_834_606_386_381_882, vec![[16, 0, 3, 0, 33]])
    );
    assert_eq!(
        run(true, 2),
        idempotent(
            3_057_686_595_382_689_409,
            vec![[10, 0, 2, 0, 27], [6, 0, 1, 0, 6]]
        )
    );
}
