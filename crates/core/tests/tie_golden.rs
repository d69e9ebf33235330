//! Runs whose events tie are frozen: a trace with hundreds of sends at
//! one instant, and a trace whose sends land on the instants its
//! deliveries, bank retries, day ends and billing kickoffs land on, must
//! end with the `RunReport` they ended with when the world held its
//! whole trace and scheduled entry `i + 1` from entry `i`. Every event
//! at one instant runs in the order it was scheduled in, so a driver
//! that feeds the workload in a different order, or schedules a send
//! earlier or later in an apply, moves a report or the flight
//! recorder's span stream here: span and trace ids are minted in apply
//! order, so the stream sees an order change that leaves every count
//! as it was. Each case runs volatile and durable, serially and
//! tick-parallel at 1, 2 and 4 threads; every run of a case must record
//! the same report and spans.
//!
//! The constants were recorded by running this file at the commit
//! before the trace was streamed into the world. On a mismatch the
//! failure lists every case with the values it got.

use std::fmt::Debug;
use zmail_core::{UserAddr, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_obs::{FlightRecorder, SpanLog};
use zmail_sim::workload::SendEvent;
use zmail_sim::{MailKind, SimDuration, SimTime};

const ISPS: u32 = 3;
const USERS: u32 = 8;
const LATENCY_MS: u64 = 50;
const DAY_MS: u64 = 86_400_000;

/// The `k`-th send of a case: every user sends, to a user of another
/// ISP two times in three, never to itself.
fn send(k: u32, at_ms: u64) -> SendEvent {
    let from = UserAddr::new(k % ISPS, (k / ISPS) % USERS);
    let isp = if k.is_multiple_of(3) {
        from.isp
    } else {
        (k + 1) % ISPS
    };
    let mut to = UserAddr::new(isp, (k * 5 + 1) % USERS);
    if to == from {
        to.user = (to.user + 1) % USERS;
    }
    SendEvent {
        at: SimTime::from_millis(at_ms),
        from,
        to,
        kind: if k.is_multiple_of(11) {
            MailKind::Spam
        } else {
            MailKind::Personal
        },
    }
}

/// 600 sends at one instant, then 300 more one network latency later,
/// when the first burst's deliveries land.
fn burst() -> Vec<SendEvent> {
    (0..900)
        .map(|k| send(k, 2_000 + if k < 600 { 0 } else { LATENCY_MS }))
        .collect()
}

/// One send every network latency, two on every third instant, so each
/// delivery lands with the next sends; then a burst on the first day
/// boundary, where the day end and the billing kickoff fire.
fn lockstep() -> Vec<SendEvent> {
    let mut trace: Vec<SendEvent> = (0..1_500)
        .map(|k| send(k, LATENCY_MS * u64::from(k - k / 3)))
        .collect();
    trace.extend((1_500..1_700).map(|k| send(k, DAY_MS)));
    trace
        .extend((1_700..1_760).map(|k| send(k, DAY_MS + LATENCY_MS * u64::from((k - 1_700) / 15))));
    trace
}

/// Low balances and a narrow pool, so sends top up at the counter and
/// pools buy and sell; a retry timer one latency long, so retries tie
/// with replies.
fn config(durable: bool) -> ZmailConfig {
    let builder = ZmailConfig::builder(ISPS, USERS)
        .initial_balance(EPennies(20))
        .limit(400)
        .avail_bounds(EPennies(100), EPennies(300), EPennies(150))
        .billing_period(SimDuration::from_days(1))
        .bank_retry(Some(SimDuration::from_millis(2 * LATENCY_MS)))
        .net_latency(SimDuration::from_millis(LATENCY_MS));
    if durable {
        builder.durable().build()
    } else {
        builder.build()
    }
}

/// FNV-1a over `value`'s `Debug` text.
fn fold(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `(delivered, digest_checksum, report fold, span fold)` of one case,
/// after checking that the serial run and the tick-parallel runs at 1, 2
/// and 4 threads agree and audit.
fn run(trace: &[SendEvent], durable: bool) -> (u64, u64, u64, u64) {
    let runs = [None, Some(1), Some(2), Some(4)].map(|threads| {
        let mut system = ZmailSystem::new(config(durable), 44);
        let recorder = FlightRecorder::new(1 << 20);
        system.attach_flight_recorder(recorder.clone());
        let report = match threads {
            None => system.run_trace(trace),
            Some(threads) => system.run_trace_parallel(trace, threads),
        };
        system.audit().expect("the books balance");
        assert_eq!(system.verify_durable_books(), durable.then_some(true));
        recorder.finalize(system.now().as_millis());
        let spans: SpanLog = recorder.drain();
        assert_eq!(spans.dropped, 0, "the ring holds every span");
        (report, spans)
    });
    for (run, threads) in runs[1..].iter().zip([1, 2, 4]) {
        assert!(run == &runs[0], "{threads} threads against the serial run");
    }
    let (report, spans) = &runs[0];
    (
        report.delivered_total(),
        report.digest_checksum,
        fold(report),
        fold(&spans.spans),
    )
}

#[test]
fn tied_events_end_where_they_ended_when_the_world_held_its_trace() {
    let cases = [
        ("burst volatile", burst(), false),
        ("burst durable", burst(), true),
        ("lockstep volatile", lockstep(), false),
        ("lockstep durable", lockstep(), true),
    ];
    // Durability journals the books and changes nothing a report shows;
    // its group commits add `wal_commit` spans.
    let burst = (743, 4_428_330_443_613_351_609, 4_035_845_126_362_789_548);
    let lockstep = (1_760, 6_074_841_794_144_177_733, 10_401_342_212_839_532_204);
    let with_spans = |(delivered, digest, report), spans| (delivered, digest, report, spans);
    let expected = [
        with_spans(burst, 10_976_640_739_739_807_986),
        with_spans(burst, 17_062_245_990_440_912_947),
        with_spans(lockstep, 14_381_508_530_915_691_080),
        with_spans(lockstep, 6_863_387_424_819_209_872),
    ];
    let got: Vec<(u64, u64, u64, u64)> = cases
        .iter()
        .map(|(_, trace, durable)| run(trace, *durable))
        .collect();
    let listing: String = cases
        .iter()
        .zip(&got)
        .map(|((name, _, _), got)| format!("\n  {name}: {got:?}"))
        .collect();
    assert_eq!(got, expected, "every case:{listing}");
}
