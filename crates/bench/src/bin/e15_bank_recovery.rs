//! E15 — Lost bank messages: the nonce/retransmission gap (extension).
//!
//! §4.3's buy/sell exchanges carry nonces so "message replay attacks" are
//! rejected — the bank drops any nonce it has seen. The paper never asks
//! the next question: what happens when a reply (or request) is *lost*?
//!
//! * With no recovery mechanism, the ISP's `canbuy`/`cansell` flag stays
//!   false forever — the pool can never refill. And resending the same
//!   request is useless: the bank's own replay guard rejects it.
//! * Recovery therefore requires retransmission with a **fresh nonce** —
//!   but then a reply lost *after* the bank processed the request makes
//!   the bank grant twice while the ISP applies once: e-pennies are
//!   stranded at the bank. Sound recovery needs idempotent request ids,
//!   not just replay rejection.
//! * With **idempotent request ids** (`ZmailConfig::idempotent_bank_ids`)
//!   the retransmission reuses the outstanding nonce and the bank serves
//!   a cached copy of its original reply: liveness is restored *and*
//!   nothing is stranded.
//!
//! This experiment measures all three: wedged pools without retry,
//! stranded value with fresh-nonce retry, and the idempotent fix.

use std::time::Instant;
use zmail_bench::{parse_threads, pct, Report};
use zmail_core::{IspId, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_fault::FaultPlan;
use zmail_sim::workload::{TrafficConfig, TrafficGenerator};
use zmail_sim::{Sampler, SimDuration, Table};

struct Outcome {
    lost: u64,
    retries: u64,
    cached_replies: u64,
    wedged_isps: u32,
    pools_recovered: u32,
    stranded: i64,
    audit_ok: bool,
    injected_drops: u64,
}

fn run(loss: f64, retry: Option<SimDuration>, idempotent: bool, seed: u64) -> Outcome {
    let isps = 3u32;
    // Users start nearly broke and top up constantly, so the pool cycles
    // through minavail and the ISPs run many bank exchanges per day.
    let config = ZmailConfig::builder(isps, 10)
        .initial_balance(EPennies(5))
        .avail_bounds(EPennies(1_000), EPennies(1_200), EPennies(500))
        .faults(FaultPlan::lossy_bank(loss))
        .bank_retry(retry)
        .idempotent_bank_ids(idempotent)
        .build();
    let traffic = TrafficConfig {
        isps,
        users_per_isp: 10,
        horizon: SimDuration::from_days(5),
        personal_per_user_day: 20.0,
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed));
    let mut system = ZmailSystem::new(config, seed);
    let report = system.run_trace(&trace);
    let mut wedged = 0;
    let mut recovered = 0;
    let mut retries = 0;
    for i in 0..isps {
        let isp = system.isp(IspId(i));
        if isp.exchange_outstanding() {
            wedged += 1;
        }
        if isp.avail() >= EPennies(1_000) {
            recovered += 1;
        }
        retries += isp.stats().bank_retries;
    }
    Outcome {
        lost: report.bank_messages_lost,
        retries,
        cached_replies: system.bank().stats().idempotent_replays,
        wedged_isps: wedged,
        pools_recovered: recovered,
        stranded: system.pennies_stranded(),
        audit_ok: system.audit().is_ok(),
        injected_drops: system.fault_counters().total_drops(),
    }
}

fn main() {
    let experiment = Report::new(
        "E15: bank-channel loss, the replay guard, and retransmission",
        "without retransmission a single lost reply wedges an ISP's pool forever; fresh-nonce retransmission recovers it but strands double-granted e-pennies at the bank",
    );

    let retry = Some(SimDuration::from_mins(1));
    let mut table = Table::new(&[
        "bank loss",
        "retry",
        "req ids",
        "msgs lost",
        "retries",
        "cached replies",
        "ISPs wedged",
        "pools healthy",
        "e¢ stranded",
        "ledger audit",
    ]);
    let mut wedged_without_retry = 0u32;
    let mut wedged_with_retry = 0u32;
    let mut stranded_with_retry = 0i64;
    let mut wedged_idempotent = 0u32;
    let mut stranded_idempotent = 0i64;
    let mut cached_idempotent = 0u64;
    let mut injected = Table::new(&["bank loss", "retry", "req ids", "injected drops"]);
    for (loss, retry_cfg, label, idempotent) in [
        (0.0, None, "off", false),
        (0.3, None, "off", false),
        (1.0, None, "off", false),
        (0.3, retry, "1m", false),
        (0.6, retry, "1m", false),
        (0.3, retry, "1m", true),
        (0.6, retry, "1m", true),
    ] {
        let out = run(loss, retry_cfg, idempotent, 81);
        let mode = if idempotent {
            "idempotent"
        } else {
            "fresh-nonce"
        };
        if retry_cfg.is_none() && loss > 0.0 {
            wedged_without_retry += out.wedged_isps;
        }
        if retry_cfg.is_some() && !idempotent {
            wedged_with_retry += out.wedged_isps;
            stranded_with_retry += out.stranded;
        }
        if idempotent {
            wedged_idempotent += out.wedged_isps;
            stranded_idempotent += out.stranded;
            cached_idempotent += out.cached_replies;
        }
        table.row_owned(vec![
            pct(loss),
            label.to_string(),
            mode.to_string(),
            out.lost.to_string(),
            out.retries.to_string(),
            out.cached_replies.to_string(),
            out.wedged_isps.to_string(),
            format!("{} / 3", out.pools_recovered),
            out.stranded.to_string(),
            if out.audit_ok {
                "balances".into()
            } else {
                "BROKEN".into()
            },
        ]);
        injected.row_owned(vec![
            pct(loss),
            label.to_string(),
            mode.to_string(),
            out.injected_drops.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "(a wedged ISP has an exchange outstanding forever: the paper's\n\
         replay guard makes identical resends useless, and nothing else in\n\
         the protocol clears `canbuy`. The stranded column is the price of\n\
         the fresh-nonce fix: replies lost after processing leave grants\n\
         the pool never received — the extended audit still balances, so\n\
         the leak is precisely attributable. The idempotent rows close the\n\
         gap: the retransmission reuses the outstanding request id, the\n\
         bank serves its cached reply, and nothing is ever stranded.)"
    );
    println!("\nfault-injection telemetry (zmail-fault):\n{injected}");

    // The formal counterpart: the same facts as theorems about an AP
    // model of the exchange (see core::spec_bank).
    use zmail_core::spec_bank::{
        build_bank_spec, check_no_counterfeit_with, recovery_reachable, BankSpecParams,
    };
    let threads = parse_threads();
    println!("\nexplorer threads: {threads} (pass --threads N to change; 0 = all cores)");
    let mut formal = Table::new(&["model", "property", "verdict", "time", "states/s"]);
    let reliable = BankSpecParams {
        allow_loss: false,
        ..BankSpecParams::default()
    };
    let (spec, initial) = build_bank_spec(reliable);
    let start = Instant::now();
    let completes = recovery_reachable(&spec, initial, reliable.buy_value);
    formal.row_owned(vec![
        "no loss, no retry".into(),
        "exchange completes".into(),
        if completes {
            "reachable"
        } else {
            "UNREACHABLE"
        }
        .into(),
        format!("{:.3}s", start.elapsed().as_secs_f64()),
        "-".into(),
    ]);
    let lossy = BankSpecParams::default();
    let (spec, initial) = build_bank_spec(lossy);
    // Drive the model into the lost-reply wedge by name.
    let mut wedge = initial;
    for action in ["buy", "process buy", "lose reply"] {
        let index = spec
            .actions()
            .iter()
            .position(|a| a.name == action)
            .expect("action exists");
        spec.execute(index, &mut wedge);
    }
    let start = Instant::now();
    let wedge_recoverable = recovery_reachable(&spec, wedge, lossy.buy_value);
    formal.row_owned(vec![
        "loss, no retry".into(),
        "recovery from lost reply".into(),
        if wedge_recoverable {
            "reachable"
        } else {
            "UNREACHABLE (the wedge)"
        }
        .into(),
        format!("{:.3}s", start.elapsed().as_secs_f64()),
        "-".into(),
    ]);
    let retrying = BankSpecParams {
        max_retries: 2,
        ..BankSpecParams::default()
    };
    let start = Instant::now();
    let counterfeit = check_no_counterfeit_with(retrying, threads);
    let elapsed = start.elapsed();
    let states_per_sec = counterfeit.states_visited as f64 / elapsed.as_secs_f64().max(1e-9);
    formal.row_owned(vec![
        "loss + 2 retries".into(),
        "ISP never pools more than issued".into(),
        if counterfeit.is_clean() {
            format!("holds in all {} states", counterfeit.states_visited)
        } else {
            "VIOLATED".into()
        },
        format!("{:.3}s", elapsed.as_secs_f64()),
        format!("{:.0}", states_per_sec),
    ]);
    println!("\nformal model (exhaustive exploration):\n{formal}");

    experiment.finish(
        wedged_without_retry > 0
            && wedged_with_retry == 0
            && stranded_with_retry >= 0
            && wedged_idempotent == 0
            && stranded_idempotent == 0
            && cached_idempotent > 0
            && !wedge_recoverable
            && counterfeit.is_clean(),
        "lossy bank channels wedge ISPs permanently under the paper's design — provably, on the formal model; fresh-nonce retransmission restores liveness at a quantified, audited cost in stranded value; idempotent request ids restore liveness AND strand nothing",
    );
}
