//! The grand tour: every mechanism of the reproduction in one deployment.
//!
//! Three regional banks, six ISPs (one non-compliant, one cheating), a
//! mailing list with acknowledgments, a spam campaign, a zombie outbreak,
//! a lossy email network, daily resets, and daily billing — for a
//! simulated week. If the conservation audit balances at the end of this,
//! the pieces genuinely compose.

use zmail::core::{
    CheatMode, IspId, NonCompliantPolicy, UserAddr, ZmailConfig, ZmailSystem, ZombieAnalysis,
};
use zmail::sim::workload::{Campaign, Infection, TrafficConfig, TrafficGenerator};
use zmail::sim::{MailKind, Sampler, SimDuration, SimTime};

#[test]
fn everything_composes() {
    let spammer = UserAddr::new(1, 0);
    let zombie_victim = UserAddr::new(2, 5);
    let distributor = UserAddr::new(0, 7);

    let traffic = TrafficConfig {
        isps: 6,
        users_per_isp: 12,
        horizon: SimDuration::from_days(7),
        personal_per_user_day: 8.0,
        same_isp_affinity: 0.25,
        popularity_exponent: 1.05,
        campaigns: vec![Campaign {
            sender: spammer,
            start: SimTime::ZERO + SimDuration::from_days(1),
            volume: 2_000,
            rate_per_sec: 1.0,
        }],
        infections: vec![Infection {
            victim: zombie_victim,
            at: SimTime::ZERO + SimDuration::from_days(2),
            rate_per_hour: 150.0,
            duration: SimDuration::from_days(2),
        }],
    };
    let trace = TrafficGenerator::new(traffic.clone()).generate(&mut Sampler::new(777));

    let config = ZmailConfig::builder(6, 12)
        .banks(3)
        .non_compliant(&[5])
        .non_compliant_policy(NonCompliantPolicy::Filter {
            false_positive: 0.02,
            false_negative: 0.15,
        })
        .cheat(4, CheatMode::UnderReportSends { fraction: 0.5 })
        .limit(70)
        .billing_period(SimDuration::from_days(1))
        .snapshot_timeout(SimDuration::from_mins(10))
        .lossy_network(0.002, 0.0)
        .build();

    let mut system = ZmailSystem::new(config, 777);
    // A 30-subscriber list across three compliant ISPs, posted daily.
    let subscribers: Vec<UserAddr> = (0..3u32)
        .flat_map(|isp| (0..10u32).map(move |u| UserAddr::new(isp, u)))
        .filter(|&a| a != distributor)
        .collect();
    let handle = system.register_mailing_list(distributor, subscribers, 0.95);
    for day in 0..7u64 {
        system.schedule_list_post(
            SimTime::ZERO + SimDuration::from_days(day) + SimDuration::from_hours(9),
            handle,
        );
    }

    let report = system.run_trace(&trace);

    // Every subsystem left its fingerprint.
    assert!(
        report.delivered(MailKind::Personal) > 2_000,
        "personal mail flowed"
    );
    assert!(
        report.delivered(MailKind::ListPost) > 150,
        "list posts fanned out"
    );
    assert!(report.delivered(MailKind::Ack) > 100, "acks refunded");
    let spam_delivered = report.delivered(MailKind::Spam);
    assert!(spam_delivered > 0, "campaign ran");
    assert!(
        spam_delivered < 2_000,
        "the daily limit and the e-penny must throttle the campaign"
    );
    assert!(
        report.bounced_limit > 0,
        "limits fired (zombie and/or spammer)"
    );
    assert!(report.emails_lost > 0, "the lossy wire dropped something");
    assert!(
        report.dropped_total() > 0,
        "the non-compliant filter dropped something"
    );

    // The zombie was detected.
    let analysis = ZombieAnalysis::from_run(&traffic.infections, &report);
    assert!(analysis.incidents[0].detected_at.is_some());

    // Billing ran daily; the deliberate cheater is implicated somewhere,
    // and (with loss in play) accusations never *miss* the cheater while
    // flagging only honest-looking pairs every single round.
    assert!(report.consistency_reports.len() >= 5);
    assert!(
        report
            .consistency_reports
            .iter()
            .any(|(_, r)| r.implicates(IspId(4))),
        "the 50% under-reporter must surface"
    );

    // Inter-bank settlements were recorded and each nets to zero.
    for (_, round) in &report.consistency_reports {
        assert_eq!(round.net_flow(), 0);
    }

    // The whole thing still balances to the e-penny.
    system.audit().expect("grand-tour conservation");

    // And the distributor's week of posting cost roughly the unack'd
    // fraction, not the whole fanout.
    let distributor_cost = 100 - system.user_balance(distributor).amount();
    let total_copies = report.delivered(MailKind::ListPost) as i64;
    let refunded = report.delivered(MailKind::Ack) as i64;
    assert!(
        distributor_cost <= total_copies - refunded + 50,
        "cost {distributor_cost} should track unacknowledged copies ({})",
        total_copies - refunded
    );
}
