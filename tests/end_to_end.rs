//! Cross-crate integration: a realistic multi-day deployment exercising
//! every §4/§5 mechanism at once — personal traffic, a spam campaign, a
//! zombie outbreak, a non-compliant ISP, daily resets, and billing-period
//! snapshots — with the conservation auditor run at the end.

use zmail::core::{
    CheatMode, IspId, NonCompliantPolicy, UserAddr, ZmailConfig, ZmailSystem, ZombieAnalysis,
};
use zmail::econ::EPennies;
use zmail::sim::workload::{Campaign, Infection, TrafficConfig, TrafficGenerator};
use zmail::sim::{MailKind, Sampler, SimDuration, SimTime};

fn mixed_traffic() -> TrafficConfig {
    let spammer = UserAddr::new(0, 0);
    let zombie_victim = UserAddr::new(1, 3);
    TrafficConfig {
        isps: 4,
        users_per_isp: 25,
        horizon: SimDuration::from_days(7),
        personal_per_user_day: 8.0,
        same_isp_affinity: 0.4,
        popularity_exponent: 1.05,
        campaigns: vec![Campaign {
            sender: spammer,
            start: SimTime::ZERO + SimDuration::from_days(1),
            volume: 5_000,
            rate_per_sec: 2.0,
        }],
        infections: vec![Infection {
            victim: zombie_victim,
            at: SimTime::ZERO + SimDuration::from_days(3),
            rate_per_hour: 120.0,
            duration: SimDuration::from_days(2),
        }],
    }
}

fn full_config() -> ZmailConfig {
    ZmailConfig::builder(4, 25)
        .non_compliant(&[3])
        .non_compliant_policy(NonCompliantPolicy::Filter {
            false_positive: 0.02,
            false_negative: 0.1,
        })
        .limit(60)
        .billing_period(SimDuration::from_days(2))
        .snapshot_timeout(SimDuration::from_mins(10))
        .build()
}

#[test]
fn week_long_mixed_deployment() {
    let traffic = mixed_traffic();
    let trace = TrafficGenerator::new(traffic.clone()).generate(&mut Sampler::new(1234));
    assert!(trace.len() > 4_000, "trace too small to be interesting");

    let mut system = ZmailSystem::new(full_config(), 99);
    let report = system.run_trace(&trace);

    // Every e-penny accounted for despite campaigns, zombies, policies.
    system
        .audit()
        .expect("conservation must survive the full mix");

    // Personal mail flows.
    assert!(report.delivered(MailKind::Personal) > 3_000);

    // The spammer ran out of e-pennies long before 5 000 messages: an
    // initial balance of 100 plus auto top-ups bounded by the account.
    let spam_delivered = report.delivered(MailKind::Spam);
    assert!(
        spam_delivered < 2_000,
        "spam throttled by economics, got {spam_delivered}"
    );
    assert!(report.bounced_balance + report.bounced_limit > 0);

    // The zombie triggered limit warnings on its victim.
    let analysis = ZombieAnalysis::from_run(&traffic.infections, &report);
    assert_eq!(analysis.incidents.len(), 1);
    assert!(
        analysis.incidents[0].detected_at.is_some(),
        "a 120 msg/hour zombie must hit a limit of 60/day"
    );

    // Billing rounds completed and honest ISPs were never implicated.
    assert!(report.consistency_reports.len() >= 2);
    for (_, round) in &report.consistency_reports {
        assert!(round.is_clean(), "false positive: {:?}", round.suspects);
    }

    // The filter policy dropped some mail from the non-compliant ISP.
    assert!(report.dropped_total() > 0);
}

#[test]
fn spam_windfall_flows_to_receivers() {
    // §1.2: "When a normal user receives spam accidentally, it can be
    // viewed as a windfall." Check the books: total receiver gains from
    // spam equal the spammer's spend.
    let spammer = UserAddr::new(0, 0);
    let traffic = TrafficConfig {
        isps: 2,
        users_per_isp: 10,
        horizon: SimDuration::from_days(1),
        personal_per_user_day: 0.0,
        campaigns: vec![Campaign {
            sender: spammer,
            start: SimTime::ZERO,
            volume: 80,
            rate_per_sec: 1.0,
        }],
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(7));
    let config = ZmailConfig::builder(2, 10).no_auto_topup().build();
    let mut system = ZmailSystem::new(config, 7);
    let report = system.run_trace(&trace);
    assert_eq!(report.delivered(MailKind::Spam), 80);

    let spammer_spent = 100 - system.user_balance(spammer).amount();
    assert_eq!(spammer_spent, 80);
    let mut receiver_gains = 0i64;
    for isp in 0..2u32 {
        for user in 0..10u32 {
            let addr = UserAddr::new(isp, user);
            if addr == spammer {
                continue;
            }
            receiver_gains += system.user_balance(addr).amount() - 100;
        }
    }
    assert_eq!(receiver_gains, spammer_spent, "zero-sum windfall");
    system.audit().unwrap();
}

#[test]
fn cheating_isp_detected_in_mixed_traffic() {
    let traffic = TrafficConfig {
        isps: 3,
        users_per_isp: 15,
        horizon: SimDuration::from_days(4),
        personal_per_user_day: 10.0,
        same_isp_affinity: 0.2,
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(55));
    let config = ZmailConfig::builder(3, 15)
        .billing_period(SimDuration::from_days(1))
        .cheat(2, CheatMode::UnderReportSends { fraction: 0.3 })
        .build();
    let mut system = ZmailSystem::new(config, 55);
    let report = system.run_trace(&trace);
    assert!(report.consistency_reports.len() >= 3);
    let implicated = report
        .consistency_reports
        .iter()
        .filter(|(_, r)| r.implicates(IspId(2)))
        .count();
    assert!(
        implicated >= report.consistency_reports.len() - 1,
        "a 30% under-reporter should be implicated in nearly every round"
    );
    // Honest pair (0, 1) never flagged alone.
    for (_, round) in &report.consistency_reports {
        for &(a, b, _) in &round.suspects {
            assert!(
                a == IspId(2) || b == IspId(2),
                "honest pair ({a}, {b}) wrongly flagged"
            );
        }
    }
}

#[test]
fn daily_limit_resets_let_legitimate_bursts_resume() {
    // A user who hits the cap on day 1 can send again on day 2.
    let sender = UserAddr::new(0, 0);
    let traffic = TrafficConfig {
        isps: 2,
        users_per_isp: 5,
        horizon: SimDuration::from_days(2),
        personal_per_user_day: 0.0,
        campaigns: vec![
            // Not spam semantically, but a convenient burst generator:
            // 30 messages on day 0, 30 more on day 1.
            Campaign {
                sender,
                start: SimTime::ZERO + SimDuration::from_hours(1),
                volume: 30,
                rate_per_sec: 1.0,
            },
            Campaign {
                sender,
                start: SimTime::ZERO + SimDuration::from_hours(25),
                volume: 30,
                rate_per_sec: 1.0,
            },
        ],
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(3));
    let config = ZmailConfig::builder(2, 5).limit(20).build();
    let mut system = ZmailSystem::new(config, 3);
    let report = system.run_trace(&trace);
    // 20 delivered on each day, 10 bounced on each day.
    assert_eq!(report.delivered(MailKind::Spam), 40);
    assert_eq!(report.bounced_limit, 20);
    system.audit().unwrap();
}

#[test]
fn audit_is_stable_across_interleaved_runs() {
    let config = ZmailConfig::builder(2, 10)
        .billing_period(SimDuration::from_hours(12))
        .build();
    let mut system = ZmailSystem::new(config, 42);
    let mut offset = SimTime::ZERO;
    for chunk in 0..3u64 {
        let traffic = TrafficConfig {
            isps: 2,
            users_per_isp: 10,
            horizon: SimDuration::from_days(1),
            personal_per_user_day: 6.0,
            ..TrafficConfig::default()
        };
        let mut trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(chunk));
        for event in &mut trace {
            event.at = offset + SimDuration::from_millis(event.at.as_millis() + 1);
        }
        system.run_trace(&trace);
        system
            .audit()
            .unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
        offset = system.now();
    }
    // E-pennies moved but none were created or destroyed.
    let total: i64 = (0..2)
        .map(|i| system.isp(IspId(i)).total_user_balances().amount())
        .sum();
    let expected_from_topups = total - 2 * 10 * 100;
    assert!(expected_from_topups >= 0, "topups only add, never remove");
}

#[test]
fn discard_policy_hardens_late_deployment() {
    // §5 incremental deployment: compare Deliver vs Discard for mail from
    // the non-compliant world.
    let traffic = TrafficConfig {
        isps: 2,
        users_per_isp: 10,
        horizon: SimDuration::from_days(1),
        personal_per_user_day: 5.0,
        same_isp_affinity: 0.0,
        ..TrafficConfig::default()
    };
    let run = |policy| {
        let trace = TrafficGenerator::new(traffic.clone()).generate(&mut Sampler::new(9));
        let config = ZmailConfig::builder(2, 10)
            .non_compliant(&[0])
            .non_compliant_policy(policy)
            .build();
        let mut system = ZmailSystem::new(config, 9);
        system.run_trace(&trace)
    };
    let open = run(NonCompliantPolicy::Deliver);
    let closed = run(NonCompliantPolicy::Discard);
    assert!(open.unpaid_deliveries > 0);
    assert_eq!(
        closed.unpaid_deliveries,
        closed.delivered_total() - closed.paid_deliveries
    );
    assert!(closed.dropped_total() > 0);
    assert!(closed.delivered_total() < open.delivered_total());
}

#[test]
fn grants_show_up_in_audit_as_counterfeit() {
    // Negative test: the auditor must catch a ledger violation injected
    // through the experiment back door.
    let config = ZmailConfig::builder(2, 5).build();
    let mut system = ZmailSystem::new(config, 8);
    let (isp, ledger) = system.isp_mut(IspId(0));
    isp.grant_balance(ledger, 0, EPennies(13));
    let err = system.audit().unwrap_err();
    assert!(err.to_string().contains("conservation broken"));
}

/// Balances that start at `i64::MAX` cannot take a paid e-penny: every
/// paid delivery into a full row is refused, not a panic — a local one
/// before its sender is charged, an inter-ISP one at the receiver, its
/// e-penny counted lost — and the books still audit and recover, volatile
/// and durable alike.
#[test]
fn full_balances_refuse_paid_mail_and_the_books_still_audit() {
    for durable in [false, true] {
        let builder = ZmailConfig::builder(2, 4).initial_balance(EPennies(i64::MAX));
        let config = if durable { builder.durable() } else { builder }.build();
        let traffic = TrafficConfig {
            isps: 2,
            users_per_isp: 4,
            horizon: SimDuration::from_days(1),
            personal_per_user_day: 6.0,
            ..TrafficConfig::default()
        };
        let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(5));
        let mut system = ZmailSystem::new(config, 17);
        let report = system.run_trace(&trace);
        assert!(report.refused_deliveries > 0, "durable {durable}");
        system
            .audit()
            .unwrap_or_else(|e| panic!("durable {durable}: {e}"));
        let recovered = system.verify_durable_books();
        assert_eq!(recovered, durable.then_some(true), "durable {durable}");
    }
}
