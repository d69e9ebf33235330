//! Quickstart: a two-ISP Zmail deployment, one simulated day of mail, and
//! a billing-round consistency check.
//!
//! Run with: `cargo run --example quickstart`

use zmail::core::{IspId, UserAddr, ZmailConfig, ZmailSystem};
use zmail::sim::workload::{TrafficConfig, TrafficGenerator};
use zmail::sim::{Sampler, SimDuration, Table};

fn main() {
    // Bootstrap: the paper's minimal deployment — two compliant ISPs and
    // the bank, here with 10 users each.
    let config = ZmailConfig::builder(2, 10).build();
    let traffic = TrafficConfig {
        isps: 2,
        users_per_isp: 10,
        horizon: SimDuration::from_days(1),
        personal_per_user_day: 12.0,
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(2025));
    println!("generated {} send events over one day\n", trace.len());

    let mut system = ZmailSystem::new(config, 2025);
    let report = system.run_trace(&trace);

    println!(
        "delivered: {} (all paid: {})",
        report.delivered_total(),
        report.paid_deliveries
    );
    println!(
        "bounced:   {} balance, {} limit\n",
        report.bounced_balance, report.bounced_limit
    );

    // Balances after a day: senders paid, receivers earned — zero-sum.
    let mut table = Table::new(&["user", "balance (e¢)", "sent today"]);
    for isp in 0..2u32 {
        for user in 0..3u32 {
            let addr = UserAddr::new(isp, user);
            let account = system.isp(IspId(isp)).user(user);
            table.row_owned(vec![
                addr.to_string(),
                account.balance.to_string(),
                account.sent_today.to_string(),
            ]);
        }
    }
    println!("{table}");

    // The bank gathers credit arrays and verifies pairwise consistency.
    let round = system.run_snapshot_round();
    println!(
        "billing round {}: {}",
        round.round,
        if round.is_clean() {
            "all ISPs consistent".to_string()
        } else {
            format!("suspects: {:?}", round.suspects)
        }
    );

    // Every e-penny is accounted for.
    system.audit().expect("conservation audit");
    println!("conservation audit: OK");
}
