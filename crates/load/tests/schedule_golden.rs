//! Every schedule `arrival::schedule` draws for a Poisson and a Bursty
//! spec, pinned: its length and an FNV-1a fold of every field of every
//! send, at two seeds each. The constants were recorded before the Zipf
//! sampler's envelope was precomputed; a change to what a schedule draws
//! fails here. On a mismatch the failure lists the values it got.

use zmail_load::arrival::{schedule, ScheduledSend};
use zmail_load::spec::{ArrivalKind, BurstSpec, WorkloadSpec};

/// FNV-1a over the little-endian bytes of every field, send by send.
fn fold(sends: &[ScheduledSend]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for op in sends {
        let fields = [
            op.at_us.to_le_bytes().to_vec(),
            op.seq.to_le_bytes().to_vec(),
            op.sender.to_le_bytes().to_vec(),
            op.recipient.to_le_bytes().to_vec(),
        ];
        for b in fields.concat() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn spec(arrival: ArrivalKind, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        rate_per_sec: 5_000.0,
        duration_ms: 3_000,
        senders: 1_000,
        recipients: 20_000,
        zipf_s: 1.1,
        arrival,
        burst: BurstSpec {
            period_ms: 400,
            burst_ms: 50,
            multiplier: 6.0,
        },
        ..WorkloadSpec::default()
    }
}

/// `(bursty, seed, length, fold)`.
const PINS: [(bool, u64, usize, u64); 4] = [
    (false, 7, 15_061, 0x221e_1059_996f_36e7),
    (false, 11, 14_972, 0x9828_441f_a00b_9982),
    (true, 7, 25_186, 0x257a_7b70_ae97_ae08),
    (true, 11, 24_749, 0xa658_dc10_0982_7ee9),
];

#[test]
fn every_schedule_is_the_one_pinned() {
    let got: Vec<_> = PINS
        .iter()
        .map(|&(bursty, seed, _, _)| {
            let arrival = if bursty {
                ArrivalKind::Bursty
            } else {
                ArrivalKind::Poisson
            };
            let sends = schedule(&spec(arrival, seed));
            (bursty, seed, sends.len(), fold(&sends))
        })
        .collect();
    assert!(got[..] == PINS[..], "schedules moved; got:\n{got:#?}");
}
