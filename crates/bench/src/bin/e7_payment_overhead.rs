//! E7 — Payment-handling overhead: bulk vs per-message settlement (§2.3).
//!
//! Paper, on SHRED/Vanquish: "the storage and computational cost for an
//! ISP to collect an individual payment could possibly exceed the
//! monetary value of the payment … in our approach payments are handled
//! in a bulk fashion; therefore, the cost of handling payments is small."
//!
//! This doubles as the settlement-granularity ablation: Zmail's monthly
//! credit reconciliation vs a per-message clearing regime.

use zmail_baselines::{Shred, Vanquish};
use zmail_bench::{fmt, Report};
use zmail_core::{UserAddr, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_sim::workload::{Campaign, TrafficConfig, TrafficGenerator};
use zmail_sim::{Sampler, SimDuration, SimTime, Table};

fn main() {
    let experiment = Report::new(
        "E7: payment-handling overhead across schemes",
        "Zmail settles in bulk (a handful of messages per billing period); SHRED/Vanquish process one payment per triggered message, at a cost comparable to the payment itself",
    );

    let volume = 50_000u64;
    let processing_cost_cents = 2.0; // per individual settlement op
    let mut sampler = Sampler::new(17);

    // SHRED and Vanquish at their default engagement.
    let shred = Shred::default().run_campaign(volume, &mut sampler);
    let vanquish = Vanquish::default().run_campaign(volume, &mut sampler);

    // Zmail: run the actual protocol over an equivalent campaign and count
    // its settlement traffic (buy/sell/snapshot messages), then price it
    // at the same per-operation cost.
    let spammer = UserAddr::new(0, 0);
    let traffic = TrafficConfig {
        isps: 3,
        users_per_isp: 30,
        horizon: SimDuration::from_days(30),
        personal_per_user_day: 5.0,
        campaigns: vec![Campaign {
            sender: spammer,
            start: SimTime::ZERO,
            volume,
            rate_per_sec: 0.5,
        }],
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(17));
    let config = ZmailConfig::builder(3, 30)
        .limit(10_000)
        .initial_balance(EPennies(volume as i64 + 1_000))
        .billing_period(SimDuration::from_days(7))
        .no_auto_topup()
        .build();
    let mut system = ZmailSystem::new(config, 17);
    let report = system.run_trace(&trace);
    system.audit().expect("conservation");
    let bank = system.federation().bank(0).stats().clone();
    // Settlement operations: every bank exchange plus one snapshot
    // reply handled per compliant ISP per round.
    let zmail_settlement_ops =
        bank.buys_granted + bank.buys_rejected + bank.sells + bank.snapshot_rounds * 3;
    let zmail_processing_cents = zmail_settlement_ops as f64 * processing_cost_cents;
    let spam_delivered = report.delivered(zmail_sim::MailKind::Spam);
    let zmail_spammer_cost = spam_delivered as f64; // 1 cent each
    let receiver_comp = zmail_spammer_cost; // paid to receivers

    let mut table = Table::new(&[
        "scheme",
        "settlement ops",
        "processing cost",
        "spammer pays",
        "receivers get",
        "processing / collected",
        "human actions",
    ]);
    table.row_owned(vec![
        "SHRED".into(),
        shred.triggers.to_string(),
        format!("${}", fmt(shred.isp_processing_cost_cents / 100.0)),
        format!("${}", fmt(shred.spammer_cost_cents / 100.0)),
        "$0".into(),
        fmt(shred.isp_processing_cost_cents / shred.spammer_cost_cents.max(1.0)),
        shred.triggers.to_string(),
    ]);
    table.row_owned(vec![
        "Vanquish".into(),
        vanquish.seizures.to_string(),
        format!("${}", fmt(vanquish.processing_cost_cents / 100.0)),
        format!("${}", fmt(vanquish.total_spammer_cost_cents() / 100.0)),
        "$0".into(),
        fmt(vanquish.processing_cost_cents / vanquish.spammer_cost_cents.max(1.0)),
        vanquish.seizures.to_string(),
    ]);
    table.row_owned(vec![
        "Zmail (weekly bulk)".into(),
        zmail_settlement_ops.to_string(),
        format!("${}", fmt(zmail_processing_cents / 100.0)),
        format!("${}", fmt(zmail_spammer_cost / 100.0)),
        format!("${}", fmt(receiver_comp / 100.0)),
        fmt(zmail_processing_cents / zmail_spammer_cost.max(1.0)),
        "0".into(),
    ]);
    println!("{table}");
    println!(
        "(zmail settlement ops = {} buys + {} sells + {} snapshot rounds x 3 ISPs;\n spam delivered under zmail: {} of {} attempted)",
        bank.buys_granted + bank.buys_rejected,
        bank.sells,
        bank.snapshot_rounds,
        spam_delivered,
        volume
    );

    let ratio_shred = shred.isp_processing_cost_cents / shred.spammer_cost_cents.max(1.0);
    let ratio_zmail = zmail_processing_cents / zmail_spammer_cost.max(1.0);
    experiment.finish(
        zmail_settlement_ops < shred.triggers / 100
            && ratio_zmail < 0.05
            && ratio_shred > 1.0
            && receiver_comp > 0.0,
        "bulk settlement needs orders of magnitude fewer operations; per-message schemes spend more processing a payment than the payment is worth, and never compensate the receiver",
    );
}
