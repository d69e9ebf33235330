//! Every trace `TrafficGenerator::generate` draws, pinned: its length and
//! an FNV-1a fold of every field of every send, for configs that reach
//! each branch of the generator and of its Zipf sampler, at two seeds
//! each. The constants were recorded before the sampler's envelope was
//! precomputed and before the trace was ordered by key instead of by a
//! stable sort of whole events; any change to what a trace draws, or to
//! the order it comes out in, fails here.
//!
//! On a mismatch the failure lists every case with the values it got,
//! so a deliberate change of trace can be re-pinned from one run.

use zmail_sim::workload::{Campaign, Infection, MailKind};
use zmail_sim::{
    Sampler, SendEvent, SimDuration, SimTime, TrafficConfig, TrafficGenerator, UserAddr,
};

/// FNV-1a over the little-endian bytes of every field, send by send.
fn fold(trace: &[SendEvent]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in trace {
        eat(&e.at.as_millis().to_le_bytes());
        for addr in [e.from, e.to] {
            eat(&addr.isp.to_le_bytes());
            eat(&addr.user.to_le_bytes());
        }
        let kind: u8 = match e.kind {
            MailKind::Personal => 0,
            MailKind::Newsletter => 1,
            MailKind::ListPost => 2,
            MailKind::Ack => 3,
            MailKind::Spam => 4,
            MailKind::VirusSpam => 5,
        };
        eat(&[kind]);
    }
    hash
}

fn small() -> TrafficConfig {
    TrafficConfig {
        isps: 4,
        users_per_isp: 50,
        horizon: SimDuration::from_days(3),
        ..TrafficConfig::default()
    }
}

/// Two campaigns sending on every millisecond of one ten-second window,
/// personal mail dense enough that hundreds of its sends share an
/// instant with spam, and a campaign and an infection that run past the
/// horizon.
fn ties() -> TrafficConfig {
    let minutes = |m| SimTime::ZERO + SimDuration::from_mins(m);
    TrafficConfig {
        isps: 3,
        users_per_isp: 20,
        horizon: SimDuration::from_hours(1),
        personal_per_user_day: 20_000.0,
        campaigns: vec![
            Campaign {
                sender: UserAddr::new(0, 3),
                start: minutes(10),
                volume: 30_000,
                rate_per_sec: 1_000.0,
            },
            Campaign {
                sender: UserAddr::new(1, 1),
                start: minutes(10) + SimDuration::from_secs(10),
                volume: 10_000,
                rate_per_sec: 1_000.0,
            },
            Campaign {
                sender: UserAddr::new(2, 0),
                start: minutes(50),
                volume: 10_000_000,
                rate_per_sec: 100.0,
            },
        ],
        infections: vec![Infection {
            victim: UserAddr::new(1, 7),
            at: minutes(40),
            rate_per_hour: 20_000.0,
            duration: SimDuration::from_days(3),
        }],
        ..TrafficConfig::default()
    }
}

/// `(case, config)`, each generated at the two seeds pinned for it.
fn cases() -> Vec<(&'static str, TrafficConfig)> {
    vec![
        (
            "sim_world",
            TrafficConfig {
                isps: 8,
                users_per_isp: 200,
                horizon: SimDuration::from_days(20),
                ..TrafficConfig::default()
            },
        ),
        ("default", TrafficConfig::default()),
        (
            "exponent 1.0",
            TrafficConfig {
                popularity_exponent: 1.0,
                ..small()
            },
        ),
        (
            "exponent 0.8",
            TrafficConfig {
                popularity_exponent: 0.8,
                ..small()
            },
        ),
        (
            "exponent 2.0",
            TrafficConfig {
                popularity_exponent: 2.0,
                ..small()
            },
        ),
        (
            "affinity 0",
            TrafficConfig {
                same_isp_affinity: 0.0,
                ..small()
            },
        ),
        (
            "affinity 1",
            TrafficConfig {
                same_isp_affinity: 1.0,
                ..small()
            },
        ),
        ("one isp", TrafficConfig { isps: 1, ..small() }),
        (
            "one user per isp",
            TrafficConfig {
                users_per_isp: 1,
                ..small()
            },
        ),
        (
            "one user",
            TrafficConfig {
                isps: 1,
                users_per_isp: 1,
                ..small()
            },
        ),
        ("ties past the horizon", ties()),
    ]
}

/// `(case, seed, length, fold)`, recorded at the commit before the
/// sampler and the ordering changed.
const PINS: [(&str, u64, usize, u64); 22] = [
    ("sim_world", 7, 319_797, 0x5040_d51e_d2bf_faea),
    ("sim_world", 11, 320_741, 0x41c7_91b4_bf3c_5afc),
    ("default", 1, 14_149, 0x9dea_753c_8bfc_e63e),
    ("default", 2, 13_924, 0xccda_1d94_4c8e_0387),
    ("exponent 1.0", 3, 5_988, 0x153c_ea50_35f9_4876),
    ("exponent 1.0", 4, 5_995, 0xd5f4_7d3a_e0d2_ecd2),
    ("exponent 0.8", 5, 5_980, 0x5f83_f9d4_f26c_243d),
    ("exponent 0.8", 6, 5_914, 0x3819_620c_e4ab_2d86),
    ("exponent 2.0", 7, 5_976, 0x2c6a_9ddf_6318_d028),
    ("exponent 2.0", 8, 6_037, 0xd990_74ca_c5ef_b136),
    ("affinity 0", 9, 5_988, 0xeafe_b044_ba3f_1446),
    ("affinity 0", 10, 5_970, 0x4c81_99ba_3af8_8e3d),
    ("affinity 1", 11, 5_968, 0xc682_5599_9a50_1990),
    ("affinity 1", 12, 6_066, 0x1597_f45c_9436_8046),
    ("one isp", 13, 1_493, 0x91e8_6176_ea11_1e1a),
    ("one isp", 14, 1_543, 0x4903_4906_20c2_3873),
    ("one user per isp", 15, 109, 0x0f21_4454_889c_da8d),
    ("one user per isp", 16, 135, 0xfc79_e187_f0b7_b3de),
    ("one user", 17, 28, 0xaab2_2a98_dc1f_966d),
    ("one user", 18, 27, 0x4561_e8a0_758f_73e2),
    ("ties past the horizon", 19, 156_409, 0x2176_4fdb_c907_d572),
    ("ties past the horizon", 20, 156_964, 0x22b6_cf08_7a78_3b30),
];

#[test]
fn every_trace_is_the_one_pinned() {
    let cases = cases();
    let mut got = Vec::new();
    for &(case, seed, _, _) in &PINS {
        let (_, config) = cases
            .iter()
            .find(|(name, _)| *name == case)
            .expect("every pin names a case");
        let trace = TrafficGenerator::new(config.clone()).generate(&mut Sampler::new(seed));
        got.push((case, seed, trace.len(), fold(&trace)));
    }
    assert!(
        got[..] == PINS[..],
        "traces moved; got:\n{}",
        got.iter()
            .map(|p| format!("    {p:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_case_is_pinned_and_the_tie_case_has_ties() {
    for (case, _) in cases() {
        assert_eq!(
            PINS.iter().filter(|p| p.0 == case).count(),
            2,
            "{case} is pinned at two seeds"
        );
    }
    let config = ties();
    let horizon = config.horizon;
    let trace = TrafficGenerator::new(config).generate(&mut Sampler::new(19));
    let shared = |w: &&[SendEvent]| w[0].at == w[1].at && w[0].from != w[1].from;
    let shared_instants = trace.windows(2).filter(shared).count();
    let mixed_instants = trace
        .windows(2)
        .filter(shared)
        .filter(|w| w[0].kind != w[1].kind)
        .count();
    assert!(
        shared_instants > 1_000,
        "only {shared_instants} shared instants"
    );
    assert!(mixed_instants > 100, "only {mixed_instants} mixed ones");
    let last = trace.last().expect("the tie case sends").at;
    assert!(
        last.as_millis() + 100 >= horizon.as_millis(),
        "sends stop at the horizon"
    );
}
