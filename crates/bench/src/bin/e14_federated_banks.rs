//! E14 — Distributed banks (§5 "Bank Setup", extension beyond the paper).
//!
//! Paper: "the role of the bank … can be implemented as a set of
//! distributed banks … It is fairly straightforward to extend the Zmail
//! protocol to incorporate multiple collaborating banks." This experiment
//! does the extending and measures what federation buys:
//!
//! * per-bank snapshot load drops to `n/k` ISPs;
//! * cross-region cheaters are still caught (the federation reconciles
//!   the pairs no regional bank sees alone);
//! * inter-bank settlement is computed from the same credit columns and
//!   always nets to zero.

use zmail_bench::Report;
use zmail_core::isp::{Isp, SendOutcome};
use zmail_core::{CheatMode, Federation, IspId, NetMsg, ZmailConfig};
use zmail_sim::workload::{TrafficConfig, TrafficGenerator};
use zmail_sim::{MailKind, Sampler, SimDuration, Table};

/// Runs a workload directly through ISP ledgers (instant delivery), then a
/// federated round.
fn run_with_banks(banks: u32, cheat_isp: Option<u32>, seed: u64) -> RoundSummary {
    let n = 12u32;
    let mut builder = ZmailConfig::builder(n, 10).banks(banks).limit(10_000);
    if let Some(c) = cheat_isp {
        builder = builder.cheat(c, CheatMode::UnderReportSends { fraction: 1.0 });
    }
    let config = builder.build();
    let mut federation = Federation::new(&config, seed);
    let mut isps: Vec<Isp> = (0..n)
        .map(|i| {
            Isp::new(
                IspId(i),
                &config,
                federation.public_key_for(IspId(i)),
                seed ^ u64::from(i),
            )
        })
        .collect();

    // Drive a day of traffic straight through the ledgers.
    let traffic = TrafficConfig {
        isps: n,
        users_per_isp: 10,
        horizon: SimDuration::from_days(1),
        personal_per_user_day: 20.0,
        same_isp_affinity: 0.1,
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed));
    let mut books = config.initial_books();
    let mut delivered = 0u64;
    for event in &trace {
        let sender = &mut isps[event.from.isp as usize];
        let outcome = sender.send_email(&mut books, event.from.user, event.to, MailKind::Personal);
        match outcome {
            Ok(SendOutcome::Outbound {
                to,
                msg: NetMsg::Email(email),
            }) => {
                isps[to.index()].receive_email(&mut books, IspId(event.from.isp), &email);
                delivered += 1;
            }
            Ok(SendOutcome::DeliveredLocally) => delivered += 1,
            _ => {}
        }
    }

    // One federated snapshot round.
    let requests = federation.start_snapshot();
    let per_bank_load = requests.len() as f64 / banks as f64;
    let mut round = None;
    for (target, msg) in requests {
        let NetMsg::SnapshotRequest { envelope } = msg else {
            panic!("expected request");
        };
        let isp = &mut isps[target.index()];
        assert!(isp.handle_snapshot_request(&envelope).unwrap());
        let (reply, _) = isp.finish_snapshot(&mut books);
        let NetMsg::SnapshotReply { from, envelope } = reply else {
            panic!("expected reply");
        };
        if let Some(r) = federation.handle_snapshot_reply(from, &envelope).unwrap() {
            round = Some(r);
        }
    }
    let round = round.expect("round completes");
    RoundSummary {
        delivered,
        per_bank_load,
        suspects: round.suspects.len(),
        cheater_caught: cheat_isp.is_some_and(|c| round.implicates(IspId(c))),
        cross_region_settlements: round.settlements.len() / 2,
        net_flow: round.net_flow(),
        largest_settlement: round
            .settlements
            .iter()
            .map(|&(_, _, v)| v.abs())
            .max()
            .unwrap_or(0),
    }
}

struct RoundSummary {
    delivered: u64,
    per_bank_load: f64,
    suspects: usize,
    cheater_caught: bool,
    cross_region_settlements: usize,
    net_flow: i64,
    largest_settlement: i64,
}

fn main() {
    let experiment = Report::new(
        "E14: a federation of distributed banks",
        "regional banks each serve n/k ISPs; cross-region cheaters are still caught; settlement nets to zero",
    );

    let mut table = Table::new(&[
        "banks",
        "delivered",
        "ISPs per bank",
        "honest suspects",
        "bank pairs settling",
        "largest settlement (e¢)",
        "net federation flow",
    ]);
    let mut all_clean = true;
    let mut load_shrinks = true;
    let mut prev_load = f64::MAX;
    for banks in [1u32, 2, 3, 4, 6] {
        let summary = run_with_banks(banks, None, 71);
        all_clean &= summary.suspects == 0;
        load_shrinks &= summary.per_bank_load <= prev_load;
        prev_load = summary.per_bank_load;
        table.row_owned(vec![
            banks.to_string(),
            summary.delivered.to_string(),
            format!("{:.0}", summary.per_bank_load),
            summary.suspects.to_string(),
            summary.cross_region_settlements.to_string(),
            summary.largest_settlement.to_string(),
            summary.net_flow.to_string(),
        ]);
    }
    println!("{table}");

    // Cross-region cheater: served by bank 1 (isp 5 of 12, 3 banks),
    // cheating against peers in other regions.
    let mut detect = Table::new(&["banks", "cheating ISP", "caught by federation"]);
    let mut always_caught = true;
    for banks in [2u32, 3, 4] {
        let summary = run_with_banks(banks, Some(5), 72);
        always_caught &= summary.cheater_caught;
        detect.row_owned(vec![
            banks.to_string(),
            "isp[5], hides 100% of sends".into(),
            if summary.cheater_caught { "yes" } else { "NO" }.into(),
        ]);
    }
    println!("{detect}");

    // The same federation under the full event-driven harness: latency,
    // billing periods, settlements, and the federated conservation audit.
    use zmail_core::ZmailSystem;
    let config = ZmailConfig::builder(6, 10)
        .banks(3)
        .limit(10_000)
        .billing_period(SimDuration::from_days(1))
        .build();
    let traffic = TrafficConfig {
        isps: 6,
        users_per_isp: 10,
        horizon: SimDuration::from_days(5),
        personal_per_user_day: 15.0,
        same_isp_affinity: 0.1,
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(73));
    let mut system = ZmailSystem::new(config, 73);
    let report = system.run_trace(&trace);
    let audit_ok = system.audit().is_ok();
    let mut harness = Table::new(&["harness metric", "value"]);
    harness.row_owned(vec![
        "delivered".into(),
        report.delivered_total().to_string(),
    ]);
    harness.row_owned(vec![
        "billing rounds".into(),
        report.consistency_reports.len().to_string(),
    ]);
    harness.row_owned(vec![
        "rounds clean".into(),
        report
            .consistency_reports
            .iter()
            .filter(|(_, r)| r.is_clean())
            .count()
            .to_string(),
    ]);
    harness.row_owned(vec![
        "settlement events".into(),
        report
            .consistency_reports
            .iter()
            .filter(|(_, r)| !r.settlements.is_empty())
            .count()
            .to_string(),
    ]);
    harness.row_owned(vec![
        "federated audit".into(),
        if audit_ok { "balances" } else { "BROKEN" }.into(),
    ]);
    println!("full-harness federation (3 banks, 6 ISPs, 5 days):\n{harness}");

    experiment.finish(
        all_clean && load_shrinks && always_caught && audit_ok,
        "splitting the bank across regions divides the snapshot load, keeps honest traffic clean, settles exactly (zero net flow), and loses none of the detector's power across region boundaries",
    );
}
