//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;
use zmail::core::{ZmailConfig, ZmailSystem};
use zmail::crypto::{
    open_with_private, open_with_public, seal_for_public, seal_with_private, KeyPair, Nnc,
};
use zmail::econ::{EPennies, ExchangeRate, RealPennies};
use zmail::sim::workload::{MailKind, SendEvent, UserAddr};
use zmail::sim::{SimTime, Summary};
use zmail::smtp::{Command, MailMessage, Reply};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------------------------------------------------------
    // crypto
    // ---------------------------------------------------------------

    #[test]
    fn envelope_roundtrips_any_payload(seed in 0u64..1_000, payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let keys = KeyPair::generate(&mut rng);
        let sealed = seal_for_public(keys.public(), &payload, &mut rng);
        prop_assert_eq!(open_with_private(keys.private(), &sealed).unwrap(), payload.clone());
        let signed = seal_with_private(keys.private(), &payload, &mut rng);
        prop_assert_eq!(open_with_public(keys.public(), &signed).unwrap(), payload);
    }

    #[test]
    fn envelope_never_opens_under_wrong_keypair(seed in 0u64..500, payload in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let right = KeyPair::generate(&mut rng);
        let wrong = KeyPair::generate(&mut rng);
        let sealed = seal_for_public(right.public(), &payload, &mut rng);
        let opened = open_with_private(wrong.private(), &sealed);
        prop_assert!(opened.is_err() || opened.unwrap() != payload);
    }

    #[test]
    fn nonces_unique_within_and_across_tags(key in any::<u64>(), tag_a in 0u64..64, tag_b in 0u64..64, n in 1usize..200) {
        prop_assume!(tag_a != tag_b);
        let mut a = Nnc::new(key, tag_a);
        let mut b = Nnc::new(key, tag_b);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            prop_assert!(seen.insert(a.next_nonce()));
            prop_assert!(seen.insert(b.next_nonce()));
        }
    }

    // ---------------------------------------------------------------
    // money
    // ---------------------------------------------------------------

    #[test]
    fn money_addition_is_commutative_and_associative(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000, c in -1_000_000i64..1_000_000) {
        let (x, y, z) = (EPennies(a), EPennies(b), EPennies(c));
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y) + z, x + (y + z));
        prop_assert_eq!(x - x, EPennies::ZERO);
        prop_assert_eq!(-(-x), x);
    }

    #[test]
    fn exchange_roundtrip_loses_at_most_remainder(amount in 0i64..1_000_000, rate in 1i64..100) {
        let rate = ExchangeRate::new(rate);
        let real = RealPennies(amount);
        let e = rate.to_epennies(real);
        let back = rate.to_real(e);
        prop_assert!(back <= real);
        prop_assert!(real.amount() - back.amount() < rate.real_per_epenny);
    }

    // ---------------------------------------------------------------
    // smtp
    // ---------------------------------------------------------------

    #[test]
    fn smtp_command_display_parse_roundtrip(local in "[a-z]{1,12}", domain in "[a-z]{1,12}\\.[a-z]{2,4}") {
        let addr = format!("{local}@{domain}");
        for cmd in [
            Command::Helo(domain.clone()),
            Command::MailFrom(addr.clone()),
            Command::RcptTo(addr.clone()),
            Command::Vrfy(local.clone()),
        ] {
            prop_assert_eq!(Command::parse(&cmd.to_string()).unwrap(), cmd);
        }
    }

    #[test]
    fn message_data_roundtrip_any_body(body_lines in proptest::collection::vec("[ -~]{0,60}", 0..12)) {
        let mut body = String::new();
        for line in &body_lines {
            body.push_str(line);
            body.push_str("\r\n");
        }
        let msg = MailMessage::builder("a@x.example", "b@y.example")
            .header("Subject", "prop")
            .body(body)
            .build();
        let data = msg.to_data();
        let payload = data.strip_suffix(".\r\n").unwrap();
        let back = MailMessage::from_data(msg.from(), msg.recipients().to_vec(), payload).unwrap();
        prop_assert_eq!(back.body(), msg.body());
        prop_assert_eq!(back.header("Subject"), Some("prop"));
    }

    #[test]
    fn reply_roundtrip(code in prop_oneof![Just(220u16), Just(221), Just(250), Just(354), Just(500), Just(550), Just(552)], text in "[ -~]{0,40}") {
        let line = format!("{code} {text}");
        let reply = Reply::parse(&line).unwrap();
        prop_assert_eq!(reply.code.code(), code);
        prop_assert_eq!(reply.text, text);
    }

    // ---------------------------------------------------------------
    // stats
    // ---------------------------------------------------------------

    #[test]
    fn summary_matches_naive_computation(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Summary::new();
        for &v in &values {
            s.record(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(s.count(), values.len() as u64);
        prop_assert_eq!(s.min().unwrap(), values.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().unwrap(), values.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    // ---------------------------------------------------------------
    // AP engine: token rings of arbitrary shape conserve their token
    // ---------------------------------------------------------------

    #[test]
    fn ap_token_rings_conserve_the_token(ring_size in 2usize..6, passes in 1u8..6, seed in 0u64..50) {
        use zmail::ap::{Guard, Pid, Runner, SystemSpec, SystemState, explore, ExploreConfig};

        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Node { holding: bool, count: u8 }

        let mut spec = SystemSpec::<Node, ()>::new();
        let pids: Vec<Pid> = (0..ring_size).map(|i| spec.add_process(format!("n{i}"))).collect();
        for i in 0..ring_size {
            let next = pids[(i + 1) % ring_size];
            let cap = passes;
            spec.add_action(
                pids[i],
                format!("pass{i}"),
                Guard::local(move |s: &Node| s.holding && s.count < cap),
                move |s, _, fx| {
                    s.holding = false;
                    s.count += 1;
                    fx.send(next, ());
                },
            );
            let prev = pids[(i + ring_size - 1) % ring_size];
            spec.add_action(pids[i], format!("take{i}"), Guard::receive(prev), |s, _, _| {
                s.holding = true;
            });
        }
        let mut locals = vec![Node { holding: false, count: 0 }; ring_size];
        locals[0].holding = true;
        let initial = SystemState::new(locals, ring_size);

        let tokens = |st: &SystemState<Node, ()>| {
            st.local_states().iter().filter(|s| s.holding).count() + st.total_in_flight()
        };
        // Randomized execution conserves the token…
        let mut state = initial.clone();
        let mut runner = Runner::new(&spec, seed);
        runner
            .run_checked(&mut state, 500, |st| {
                if tokens(st) == 1 { Ok(()) } else { Err("token not conserved".into()) }
            })
            .map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
        // …and exhaustive exploration agrees on small instances.
        if ring_size <= 3 && passes <= 3 {
            let report = explore(&spec, initial, ExploreConfig::default(), |st| {
                if tokens(st) == 1 { Ok(()) } else { Err("token not conserved".into()) }
            });
            prop_assert!(report.is_clean());
        }
    }

    // ---------------------------------------------------------------
    // ISP pair state machine: random op sequences keep the ledgers sane
    // ---------------------------------------------------------------

    #[test]
    fn isp_pair_ledgers_stay_consistent_under_random_ops(
        seed in 0u64..100,
        ops in proptest::collection::vec((0u8..5, 0u32..3, 0u32..3), 1..120),
    ) {
        use zmail::core::isp::{Isp, SendOutcome};
        use zmail::core::{IspId, NetMsg, ZmailConfig};
        use zmail::sim::MailKind;

        let config = ZmailConfig::builder(2, 3).limit(1_000).build();
        let bank = KeyPair::generate(&mut rand::rngs::SmallRng::seed_from_u64(seed));
        let mut isps = [
            Isp::new(IspId(0), &config, *bank.public(), seed),
            Isp::new(IspId(1), &config, *bank.public(), seed + 1),
        ];
        // In-flight emails per direction, FIFO.
        let mut wires: [std::collections::VecDeque<zmail::core::EmailMsg>; 2] =
            [Default::default(), Default::default()];
        let initial_total = 2 * 3 * 100i64;

        for &(op, a, b) in &ops {
            match op {
                // user a of isp0 mails user b of isp1 (and the mirror op)
                0 | 1 => {
                    let sender_isp = usize::from(op);
                    let to = UserAddr::new(1 - op as u32, b);
                    if let Ok(SendOutcome::Outbound { msg: NetMsg::Email(email), .. }) =
                        isps[sender_isp].send_email(a, to, MailKind::Personal)
                    {
                        wires[sender_isp].push_back(email);
                    }
                }
                // deliver the oldest in-flight email in one direction
                2 | 3 => {
                    let direction = usize::from(op - 2);
                    if let Some(email) = wires[direction].pop_front() {
                        isps[1 - direction].receive_email(IspId(direction as u32), &email);
                    }
                }
                // a user trades with their ISP
                _ => {
                    let isp = (a % 2) as usize;
                    let user = b;
                    if a % 4 < 2 {
                        isps[isp].user_buy(user, EPennies(i64::from(b) + 1));
                    } else {
                        isps[isp].user_sell(user, EPennies(i64::from(b) + 1));
                    }
                }
            }
        }

        // Non-negative ledgers throughout (spot-check final state).
        for isp in &isps {
            for u in 0..3u32 {
                prop_assert!(isp.user(u).balance >= 0);
                prop_assert!(isp.user(u).account >= 0);
            }
            prop_assert!(!isp.avail().is_negative());
        }
        // Conservation: user balances + in-flight = initial (pool trades
        // move value between balance and avail, so include both sides).
        let balances: i64 = isps.iter().map(|i| i.total_user_balances().amount()).sum();
        let in_flight = (wires[0].len() + wires[1].len()) as i64;
        let pool_delta: i64 = isps.iter().map(|i| i.avail().amount() - 5_000).sum();
        prop_assert_eq!(balances + in_flight + pool_delta, initial_total);
        // Credit antisymmetry at quiescence: drain both wires first.
        for direction in 0..2usize {
            while let Some(email) = wires[direction].pop_front() {
                isps[1 - direction].receive_email(IspId(direction as u32), &email);
            }
        }
        prop_assert_eq!(isps[0].credit(IspId(1)) + isps[1].credit(IspId(0)), 0);
    }

    // ---------------------------------------------------------------
    // federation: settlement is antisymmetric for any traffic pattern
    // ---------------------------------------------------------------

    #[test]
    fn federated_settlement_always_nets_to_zero(
        seed in 0u64..30,
        banks in 2u32..4,
        sends in proptest::collection::vec((0u32..6, 0u32..6), 1..80),
    ) {
        use zmail::core::isp::{Isp, SendOutcome};
        use zmail::core::multibank::Federation;
        use zmail::core::{IspId, NetMsg, ZmailConfig};
        use zmail::sim::MailKind;

        let config = ZmailConfig::builder(6, 2).limit(1_000).build();
        let mut federation = Federation::new(&config, banks, seed);
        let mut isps: Vec<Isp> = (0..6)
            .map(|i| {
                Isp::new(
                    IspId(i),
                    &config,
                    federation.public_key_for(IspId(i)),
                    seed ^ u64::from(i),
                )
            })
            .collect();
        for &(from, to) in &sends {
            if from == to {
                continue;
            }
            if let Ok(SendOutcome::Outbound { msg: NetMsg::Email(email), .. }) =
                isps[from as usize].send_email(0, UserAddr::new(to, 1), MailKind::Personal)
            {
                isps[to as usize].receive_email(IspId(from), &email);
            }
        }
        // Run one federated round to completion.
        let requests = federation.start_snapshot();
        let mut round = None;
        for (target, msg) in requests {
            let NetMsg::SnapshotRequest { envelope } = msg else { unreachable!() };
            let isp = &mut isps[target.index()];
            prop_assert!(isp.handle_snapshot_request(&envelope).unwrap());
            let (reply, _) = isp.finish_snapshot();
            let NetMsg::SnapshotReply { from, envelope } = reply else { unreachable!() };
            if let Some(r) = federation.handle_snapshot_reply(from, &envelope).unwrap() {
                round = Some(r);
            }
        }
        let round = round.expect("round completes");
        // Honest traffic: never a suspect; settlement antisymmetric.
        prop_assert!(round.consistency.is_clean());
        prop_assert_eq!(round.net_flow(), 0);
        for &(a, b, v) in &round.settlements {
            prop_assert!(round.settlements.contains(&(b, a, -v)));
        }
    }

    // ---------------------------------------------------------------
    // flight recorder: random fault scenarios emit well-formed traces
    // ---------------------------------------------------------------

    #[test]
    fn random_fault_scenarios_emit_well_formed_traces(
        seed in 0u64..24,
        durable in any::<bool>(),
        force_crash in any::<bool>(),
    ) {
        use zmail::fault::{Crash, Fault};
        use zmail::fault_scenarios::Scenario;
        use zmail::obs::{FlightRecorder, SpanStatus};
        use zmail::sim::{SimDuration, SimTime};

        let mut scenario = Scenario::random(seed);
        if durable {
            scenario = scenario.with_durability();
        }
        if force_crash {
            // Guarantee the crash/restart path gets exercised even when
            // the seed-derived plan drew no crash clause.
            scenario.plan = scenario.plan.clone().with(Fault::Crash(Crash {
                isp: (seed % u64::from(scenario.isps)) as u32,
                at: SimTime::ZERO + SimDuration::from_hours(20),
                restart_after: SimDuration::from_hours(3),
            }));
        }
        let recorder = FlightRecorder::new(1 << 20);
        let (outcome, log) = scenario.run_traced(recorder.clone());

        // The recorder observes the run without altering it.
        let bare = scenario.run();
        prop_assert_eq!(outcome.report.digest_checksum, bare.report.digest_checksum);
        prop_assert_eq!(outcome.report.delivered_total(), bare.report.delivered_total());
        prop_assert_eq!(outcome.violations, bare.violations);

        // Every emitted trace is structurally well-formed whatever was
        // injected: one root per trace, parents outlive children,
        // intervals nest, ids resolve.
        if let Err(e) = log.validate() {
            prop_assert!(false, "malformed trace under plan {}: {e}", scenario.plan);
        }
        prop_assert_eq!(log.dropped, 0);
        // Finalize left nothing open: crashed spans were *closed* as
        // crashed (truncated at the crash instant), never leaked.
        prop_assert_eq!(recorder.open_spans(), 0);
        let planned_crash = scenario.plan.faults.iter().any(|f| matches!(f, Fault::Crash(_)));
        for span in &log.spans {
            if span.status == SpanStatus::Crashed {
                prop_assert!(
                    planned_crash,
                    "span on {} closed crashed but the plan has no crash clause",
                    span.node
                );
            }
        }
    }

    // ---------------------------------------------------------------
    // protocol conservation under random workloads
    // ---------------------------------------------------------------

    #[test]
    fn conservation_holds_for_random_small_traces(
        seed in 0u64..50,
        sends in proptest::collection::vec((0u32..3, 0u32..4, 0u32..3, 0u32..4), 1..60),
    ) {
        let config = ZmailConfig::builder(3, 4).no_auto_topup().build();
        let mut system = ZmailSystem::new(config, seed);
        let trace: Vec<SendEvent> = sends
            .iter()
            .enumerate()
            .filter(|(_, &(fi, fu, ti, tu))| (fi, fu) != (ti, tu))
            .map(|(k, &(fi, fu, ti, tu))| SendEvent {
                at: SimTime::from_millis(k as u64 * 1_000),
                from: UserAddr::new(fi, fu),
                to: UserAddr::new(ti, tu),
                kind: MailKind::Personal,
            })
            .collect();
        system.run_trace(&trace);
        prop_assert!(system.audit().is_ok(), "audit failed: {:?}", system.audit());
        // Zero-sum: total user e-pennies unchanged (no topups configured).
        let total: i64 = (0..3)
            .map(|i| system.isp(zmail::core::IspId(i)).total_user_balances().amount())
            .sum();
        prop_assert_eq!(total, 3 * 4 * 100);
    }
}

use rand::SeedableRng;
