//! Adversarial integration scenarios: the attacks a deployed Zmail must
//! shrug off, spanning the crypto, SMTP, and protocol layers.

use zmail::core::bridge::ZmailGateway;
use zmail::core::{CheatMode, IspId, UserAddr, ZmailConfig, ZmailSystem};
use zmail::econ::EPennies;
use zmail::sim::workload::{SendEvent, TrafficConfig, TrafficGenerator};
use zmail::sim::{MailKind, Sampler, SimDuration, SimTime};
use zmail::smtp::{Client, MailMessage, TcpConnection, ThreadedConfig, ThreadedServer};

/// A spammer who "recycles" e-pennies by spamming their own sockpuppet
/// accounts pays nothing net — but also reaches no victims. Zero-sum means
/// self-dealing is free *and* useless.
#[test]
fn self_dealing_recycles_pennies_but_reaches_no_victims() {
    let config = ZmailConfig::builder(2, 10)
        .limit(100_000)
        .no_auto_topup()
        .build();
    let mut system = ZmailSystem::new(config, 90);
    // The attacker controls users 0 and 1 of isp0 and ping-pongs mail.
    let a = UserAddr::new(0, 0);
    let b = UserAddr::new(0, 1);
    let trace: Vec<SendEvent> = (0..2_000u64)
        .map(|k| SendEvent {
            at: SimTime::from_millis(k * 100),
            from: if k % 2 == 0 { a } else { b },
            to: if k % 2 == 0 { b } else { a },
            kind: MailKind::Spam,
        })
        .collect();
    let report = system.run_trace(&trace);
    // All 2 000 "spam" messages delivered — to the attacker's own boxes.
    assert_eq!(report.delivered(MailKind::Spam), 2_000);
    // Net cost to the attacker: zero (perfect recycling).
    let attacker_total = system.user_balance(a).amount() + system.user_balance(b).amount();
    assert_eq!(attacker_total, 200);
    // And no third party was touched: every other balance is untouched.
    for isp in 0..2u32 {
        for user in 0..10u32 {
            let addr = UserAddr::new(isp, user);
            if addr != a && addr != b {
                assert_eq!(system.user_balance(addr), EPennies(100));
            }
        }
    }
    system.audit().unwrap();
}

/// Stamping a forged `X-Zmail-Payment` header does not create value: the
/// gateway re-stamps from its own ledger decision.
#[test]
fn forged_payment_stamp_is_neutralized_at_the_gateway() {
    let gateway = ZmailGateway::new(ZmailConfig::builder(2, 3).build(), 91);
    let mut server =
        ThreadedServer::start("zmail.example", gateway.clone(), ThreadedConfig::default()).unwrap();
    let conn = TcpConnection::connect(server.addr()).unwrap();
    let mut client = Client::connect(conn, "attacker.example").unwrap();
    let victim = UserAddr::new(1, 0);
    // A foreign sender claims an absurd payment.
    let msg = MailMessage::builder("spammer@outside.net", ZmailGateway::address(victim))
        .header("X-Zmail-Payment", "1000000")
        .body("free money!!\r\n")
        .build();
    client.send(&msg).unwrap();
    client.quit().unwrap();
    server.stop();
    // Delivered unpaid; the victim's balance did not move.
    assert_eq!(gateway.balance(victim), EPennies(100));
    assert_eq!(gateway.stats().delivered_unpaid, 1);
    // The forged stamp survives only as an inert header on unpaid mail —
    // the ledger, not the header, is authoritative.
    assert_eq!(gateway.inbox(victim).len(), 1);
}

/// Requesting acknowledgments on ordinary spam does not get the spammer
/// refunds: acks fire only for registered list posts.
#[test]
fn ack_request_spam_earns_no_refunds() {
    let config = ZmailConfig::builder(2, 5).no_auto_topup().build();
    let mut system = ZmailSystem::new(config, 92);
    let spammer = UserAddr::new(0, 0);
    // Register a legitimate list owned by someone ELSE, so the ack
    // machinery is active in the deployment.
    let list_owner = UserAddr::new(1, 4);
    system.register_mailing_list(list_owner, vec![UserAddr::new(0, 3)], 1.0);
    // The spammer blasts ListPost-kind mail, mimicking a distributor.
    let trace: Vec<SendEvent> = (0..50u64)
        .map(|k| SendEvent {
            at: SimTime::from_millis(k * 1_000),
            from: spammer,
            to: UserAddr::new(1, (k % 4) as u32),
            kind: MailKind::ListPost,
        })
        .collect();
    let report = system.run_trace(&trace);
    assert_eq!(report.delivered(MailKind::ListPost), 50);
    // No acks: the spammer is not a registered distributor.
    assert_eq!(report.delivered(MailKind::Ack), 0);
    assert_eq!(
        system.user_balance(spammer),
        EPennies(50),
        "full price paid"
    );
    system.audit().unwrap();
}

/// A cheating ISP cannot hide behind network loss: with both present, the
/// cheater's pairs stay flagged (loss adds noise, not cover).
#[test]
fn cheater_detected_even_on_a_lossy_network() {
    let traffic = TrafficConfig {
        isps: 3,
        users_per_isp: 15,
        horizon: SimDuration::from_days(6),
        personal_per_user_day: 15.0,
        same_isp_affinity: 0.2,
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(93));
    let config = ZmailConfig::builder(3, 15)
        .limit(10_000)
        .billing_period(SimDuration::from_days(1))
        .lossy_network(0.01, 0.0)
        .cheat(2, CheatMode::UnderReportSends { fraction: 1.0 })
        .build();
    let mut system = ZmailSystem::new(config, 93);
    let report = system.run_trace(&trace);
    assert!(report.emails_lost > 0, "loss must be active");
    let rounds = report.consistency_reports.len();
    let cheater_flagged = report
        .consistency_reports
        .iter()
        .filter(|(_, r)| r.implicates(IspId(2)))
        .count();
    assert!(rounds >= 4);
    assert_eq!(cheater_flagged, rounds, "loss must not launder the cheater");
    system.audit().unwrap();
}

/// Draining a victim by flooding them is impossible: receivers only gain.
#[test]
fn flooding_a_victim_enriches_them() {
    let config = ZmailConfig::builder(2, 5)
        .limit(100_000)
        .initial_balance(EPennies(10_000))
        .no_auto_topup()
        .build();
    let mut system = ZmailSystem::new(config, 94);
    let victim = UserAddr::new(1, 0);
    let trace: Vec<SendEvent> = (0..5_000u64)
        .map(|k| SendEvent {
            at: SimTime::from_millis(k * 20),
            from: UserAddr::new(0, (k % 5) as u32),
            to: victim,
            kind: MailKind::Spam,
        })
        .collect();
    system.run_trace(&trace);
    assert_eq!(
        system.user_balance(victim),
        EPennies(10_000 + 5_000),
        "the paper's windfall: every flood message pays the victim"
    );
    system.audit().unwrap();
}
