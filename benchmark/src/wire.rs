//! `wire_small` and `wire_bulk`: a closed loop over one persistent
//! loopback-TCP connection into the full server stack,
//! `Client` → `ThreadedServer` → `BackpressureSink` (spool on
//! `MemStorage`, one sync per batch) → `SeqAuditSink` → `ZmailGateway`.
//!
//! The run is cut into rounds of a fixed message count, each against a
//! fresh stack. The gateway keeps every delivered copy and the spool
//! every accepted message, so one stack for the whole run would make
//! peak memory follow the message rate; with rounds it follows the round
//! size, a later speed-up leaves `peak_rss_mb` alone, and every round
//! gives one more set-up sample and one more exact audit.

use crate::tap::{CountingConnection, NoopSink, Tap, TimedSink, TimedStorage};
use crate::util::{
    for_rounds, median, metric, micros, quantile, quiet, quiet_rate, relative_iqr, Metric,
};
use crate::{Outcome, Pass};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zmail_core::bridge::ZmailGateway;
use zmail_core::{AdmissionConfig, BackpressureSink, UserAddr, ZmailConfig};
use zmail_econ::EPennies;
use zmail_load::{SeqAuditSink, HEADER_LOAD_SEQ};
use zmail_sim::Sampler;
use zmail_smtp::{
    Client, Command, MailMessage, Reply, ReplyCode, TcpConnection, ThreadedConfig, ThreadedServer,
};
use zmail_store::MemStorage;

/// Users per ISP; senders live on ISP 0, recipients on ISP 1.
const USERS: u32 = 100;
/// Starting balance and daily limit: far above what a round can spend,
/// so no send is ever refused.
const FUNDS: i64 = 10_000_000;
/// Body lines are 62 characters plus CRLF.
const LINE_CHARS: usize = 62;

const SPAN_SUBMIT: &str = "smtp.submit";
const SPAN_ADMISSION: &str = "admission.deliver";
const SPAN_BRIDGE: &str = "bridge.deliver";

/// What distinguishes the two wire workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub body_lines: usize,
    pub recipients: usize,
    pub round_msgs: usize,
}

impl Shape {
    /// ~64 B body, one recipient: per-message cost dominates.
    pub fn small(smoke: bool) -> Shape {
        Shape {
            body_lines: 1,
            recipients: 1,
            round_msgs: if smoke { 150 } else { 2_000 },
        }
    }

    /// 32 KiB body in 512 lines, four recipients: per-line, per-byte and
    /// per-recipient cost dominates.
    pub fn bulk(smoke: bool) -> Shape {
        Shape {
            body_lines: 512,
            recipients: 4,
            round_msgs: if smoke { 12 } else { 100 },
        }
    }
}

/// One round's seeded inputs and the balances they must produce.
struct RoundPlan {
    messages: Vec<MailMessage>,
    first_seq: u64,
    /// Expected balance change per user of ISP 0 (spent) and ISP 1
    /// (earned).
    spent: Vec<i64>,
    earned: Vec<i64>,
}

fn plan_round(shape: &Shape, seed: u64, round: u64) -> RoundPlan {
    let mut sampler = Sampler::new(seed).derive(round);
    let first_seq = round * shape.round_msgs as u64;
    let mut spent = vec![0i64; USERS as usize];
    let mut earned = vec![0i64; USERS as usize];
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let messages = (0..shape.round_msgs as u64)
        .map(|k| {
            let from = sampler.uniform_range(0, u64::from(USERS)) as u32;
            let first_to = sampler.uniform_range(0, u64::from(USERS)) as u32;
            let to = |j: usize| (first_to + j as u32) % USERS;
            let mut builder = MailMessage::builder(
                ZmailGateway::address(UserAddr::new(0, from)),
                ZmailGateway::address(UserAddr::new(1, to(0))),
            );
            for j in 1..shape.recipients {
                builder = builder.also_to(ZmailGateway::address(UserAddr::new(1, to(j))));
            }
            for j in 0..shape.recipients {
                earned[to(j) as usize] += 1;
            }
            spent[from as usize] += shape.recipients as i64;
            let mut body = String::with_capacity(shape.body_lines * (LINE_CHARS + 2));
            for _ in 0..shape.body_lines {
                let shift = sampler.uniform_range(0, ALPHABET.len() as u64) as usize;
                body.extend(
                    (0..LINE_CHARS).map(|i| ALPHABET[(shift + i) % ALPHABET.len()] as char),
                );
                body.push_str("\r\n");
            }
            builder
                .header(HEADER_LOAD_SEQ, (first_seq + k).to_string())
                .header("Subject", format!("bench {}", first_seq + k))
                .body(body)
                .build()
        })
        .collect();
    RoundPlan {
        messages,
        first_seq,
        spent,
        earned,
    }
}

type Ledger = SeqAuditSink<TimedSink<ZmailGateway>>;

/// The server side under test, torn down after every round.
struct Stack {
    server: ThreadedServer,
    admission: BackpressureSink<Ledger>,
    gateway: ZmailGateway,
}

fn server_config() -> ThreadedConfig {
    ThreadedConfig {
        workers: 2,
        queue_depth: 64,
        max_connections: 512,
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(30),
    }
}

impl Stack {
    fn start(seed: u64, tap: &Arc<Tap>) -> Stack {
        let gateway = ZmailGateway::new(
            ZmailConfig::builder(2, USERS)
                .limit(FUNDS as u32)
                .initial_balance(EPennies(FUNDS))
                .build(),
            seed,
        );
        let bridge = TimedSink::new(
            gateway.clone(),
            tap,
            SPAN_BRIDGE,
            "core.bridge",
            Some(SPAN_ADMISSION),
        );
        let spool = TimedStorage::new(MemStorage::new(), tap, "store.spool", Some(SPAN_ADMISSION));
        let admission = BackpressureSink::start(
            SeqAuditSink::new(bridge),
            Box::new(spool),
            AdmissionConfig {
                queue_depth: 256,
                batch: 64,
            },
        );
        let front = TimedSink::new(
            admission.clone(),
            tap,
            SPAN_ADMISSION,
            "core.backpressure",
            Some(SPAN_SUBMIT),
        )
        .outermost();
        let server = ThreadedServer::start("mx.zmail.example", front, server_config())
            .expect("bind loopback");
        Stack {
            server,
            admission,
            gateway,
        }
    }
}

type BenchClient = Client<CountingConnection<TcpConnection>>;

fn connect(server: &ThreadedServer, tap: &Arc<Tap>) -> BenchClient {
    let conn = TcpConnection::connect(server.addr()).expect("connect loopback");
    Client::connect(CountingConnection::new(conn, tap), "bench.example").expect("greeting")
}

/// The closed loop: one `Client::send` at a time, each timed exactly.
/// Returns the acked seqs, the send times and the loop's wall time.
fn drive(client: &mut BenchClient, plan: &RoundPlan, tap: &Tap) -> (Vec<u64>, Vec<f64>, Duration) {
    let mut acked = Vec::with_capacity(plan.messages.len());
    let mut sends_us = Vec::with_capacity(plan.messages.len());
    let loop_start = Instant::now();
    for (k, message) in plan.messages.iter().enumerate() {
        let seq = plan.first_seq + k as u64;
        let start = Instant::now();
        let result = client.send(message);
        let end = Instant::now();
        sends_us.push(micros(end - start));
        tap.span(SPAN_SUBMIT, "smtp", None, seq, start, end);
        if result.is_ok() {
            acked.push(seq);
        }
    }
    (acked, sends_us, loop_start.elapsed())
}

/// Everything one pass over the full stack accumulates.
#[derive(Default)]
struct PassStats {
    sends_us: Vec<f64>,
    setup_s: Vec<f64>,
    /// Per round: acked messages per second and median send time.
    round_rates: Vec<f64>,
    round_p50_us: Vec<f64>,
    attempted: u64,
    acked: u64,
    loop_time: Duration,
    batches: u64,
    shed: u64,
    gates: Vec<String>,
}

fn gate(gates: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        gates.push(what());
    }
}

/// One round against a fresh full stack, audited to the e-penny.
fn full_round(shape: &Shape, seed: u64, round: u64, tap: &Arc<Tap>, stats: &mut PassStats) {
    let setup_start = Instant::now();
    let plan = plan_round(shape, seed, round);
    let mut stack = Stack::start(seed, tap);
    let mut client = connect(&stack.server, tap);
    stats.setup_s.push(setup_start.elapsed().as_secs_f64());

    let counts_before = tap.counts();
    let (acked, sends_us, took) = drive(&mut client, &plan, tap);
    stats.round_p50_us.push(median(&sends_us));
    stats.sends_us.extend(sends_us);
    let _ = client.quit();
    stack.server.stop();
    stack.admission.shutdown();

    let sent = plan.messages.len() as u64;
    stats.attempted += sent;
    stats.acked += acked.len() as u64;
    stats.loop_time += took;
    stats
        .round_rates
        .push(acked.len() as f64 / took.as_secs_f64());

    let g = &mut stats.gates;
    let admission = stack.admission.stats();
    let gateway = stack.gateway.stats();
    stats.batches += admission.batches;
    stats.shed += admission.shed;
    gate(g, acked.len() as u64 == sent, || {
        format!("round {round}: {} of {sent} sends acked", acked.len())
    });
    gate(g, stack.admission.inner().seqs() == acked, || {
        format!("round {round}: acked X-Load-Seq set != SeqAuditSink::seqs()")
    });
    let paid = acked.len() as u64 * shape.recipients as u64;
    gate(
        g,
        gateway.delivered_paid == paid && gateway.bounced == 0 && gateway.dropped == 0,
        || format!("round {round}: gateway stats {gateway:?}, expected {paid} paid"),
    );
    gate(g, admission.shed == 0 && admission.bounced == 0, || {
        format!("round {round}: admission stats {admission:?}")
    });
    gate(
        g,
        stack.server.stats().accepted_messages == acked.len() as u64,
        || format!("round {round}: server stats {:?}", stack.server.stats()),
    );
    // Balances moved by exactly the e-pennies the acked messages carry.
    // Only meaningful when every send was acked, which the first gate
    // already demands.
    for user in 0..USERS {
        let sender = stack.gateway.balance(UserAddr::new(0, user)).0;
        let recipient = stack.gateway.balance(UserAddr::new(1, user)).0;
        gate(
            g,
            sender == FUNDS - plan.spent[user as usize]
                && recipient == FUNDS + plan.earned[user as usize],
            || format!("round {round}: user {user} balances {sender}/{recipient}"),
        );
    }
    gate(
        g,
        admission.spooled_bytes == stack.admission.spooled_bytes(),
        || format!("round {round}: spool holds != AdmissionStats::spooled_bytes"),
    );
    if tap.is_on() {
        let spooled = tap.counts().append_bytes - counts_before.append_bytes;
        gate(g, admission.spooled_bytes == spooled, || {
            format!("round {round}: spool bytes != TimedStorage bytes ({spooled})")
        });
    }
}

/// The same loop against a sink that does nothing: what SMTP and the
/// socket cost with no admission queue, ledger or spool behind them.
fn wire_only_pass(shape: &Shape, seed: u64, seconds: f64) -> f64 {
    let tap = Arc::new(Tap::new(false));
    let mut round_p50_us = Vec::new();
    for_rounds(seconds, |round| {
        let plan = plan_round(shape, seed, round);
        let mut server =
            ThreadedServer::start("mx.zmail.example", NoopSink, server_config()).expect("bind");
        let mut client = connect(&server, &tap);
        round_p50_us.push(median(&drive(&mut client, &plan, &tap).1));
        let _ = client.quit();
        server.stop();
    });
    median(&round_p50_us)
}

/// Nanoseconds per call of `op`, repeated for about `seconds`.
fn nanos_per_call(seconds: f64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    for_rounds(seconds, |_| {
        for _ in 0..64 {
            op();
        }
        calls += 64;
    });
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// `Command::parse`/`Reply::parse`, `to_data` and `from_data` on the
/// workload's own first message and the envelope lines it causes.
fn codec_probes(shape: &Shape, seed: u64, seconds: f64) -> Vec<Metric> {
    let plan = plan_round(shape, seed, 0);
    let message = &plan.messages[0];
    let mut commands = vec![format!("MAIL FROM:<{}>", message.from())];
    commands.extend(
        message
            .recipients()
            .iter()
            .map(|r| format!("RCPT TO:<{r}>")),
    );
    commands.push("DATA".into());
    let mut replies = vec![Reply::new(ReplyCode::Ok, "sender ok").to_string()];
    replies.extend(
        message
            .recipients()
            .iter()
            .map(|_| Reply::new(ReplyCode::Ok, "recipient ok").to_string()),
    );
    replies.push(Reply::new(ReplyCode::StartMailInput, "end data with <CRLF>.<CRLF>").to_string());
    replies.push(Reply::new(ReplyCode::Ok, "message accepted").to_string());
    let lines = (commands.len() + replies.len()) as f64;
    let parse = nanos_per_call(seconds / 3.0, || {
        for line in &commands {
            let _ = black_box(Command::parse(black_box(line)));
        }
        for line in &replies {
            let _ = black_box(Reply::parse(black_box(line)));
        }
    });

    let data = message.to_data();
    let kib = data.len() as f64 / 1024.0;
    let to_data = nanos_per_call(seconds / 3.0, || {
        black_box(black_box(message).to_data());
    });
    let payload = data.strip_suffix(".\r\n").expect("DATA terminator");
    let from_data = nanos_per_call(seconds / 3.0, || {
        let parsed = MailMessage::from_data(
            message.from().to_string(),
            message.recipients().to_vec(),
            black_box(payload),
        );
        black_box(parsed).expect("own DATA payload parses");
    });
    vec![
        metric("smtp.parse_ns_per_line", parse / lines, "ns"),
        metric("smtp.to_data_ns_per_kib", to_data / kib, "ns"),
        metric("smtp.from_data_ns_per_kib", from_data / kib, "ns"),
    ]
}

/// Per-message layer times from the traced pass's spans. Every message
/// has one submit, one admission and one bridge span plus the spool's
/// storage spans, all filed under its `X-Load-Seq`.
struct LayerTimes {
    submit: Vec<f64>,
    session: Vec<f64>,
    handoff: Vec<f64>,
    bridge: Vec<f64>,
    spool: Vec<f64>,
}

fn layer_times(tap: &Tap) -> LayerTimes {
    #[derive(Default, Clone, Copy)]
    struct PerMessage {
        submit: f64,
        admission: f64,
        bridge: f64,
        spool: f64,
    }
    let mut by_id: HashMap<u64, PerMessage> = HashMap::new();
    for span in tap.spans().iter() {
        let entry = by_id.entry(span.id).or_default();
        match span.name {
            SPAN_SUBMIT => entry.submit = span.micros(),
            SPAN_ADMISSION => entry.admission = span.micros(),
            SPAN_BRIDGE => entry.bridge = span.micros(),
            _ => entry.spool += span.micros(),
        }
    }
    let mut out = LayerTimes {
        submit: Vec::new(),
        session: Vec::new(),
        handoff: Vec::new(),
        bridge: Vec::new(),
        spool: Vec::new(),
    };
    for m in by_id.values() {
        out.submit.push(m.submit);
        out.session.push(m.submit - m.admission);
        out.handoff.push(m.admission - m.bridge - m.spool);
        out.bridge.push(m.bridge);
        out.spool.push(m.spool);
    }
    out
}

pub fn run(shape: Shape, pass: &Pass) -> Outcome {
    let mut outcome = Outcome::default();
    // One message is in flight at a time, so client, session worker and
    // drainer never run together; spread over several CPUs of a virtual
    // machine each hand-off becomes an inter-processor interrupt, and the
    // same code measured 120 us or 360 us per message depending on where
    // the scheduler had put the threads. On one CPU a hand-off is a
    // context switch, every time.
    let cpu = crate::util::pin_to_one_cpu();
    outcome.diagnostics.push(metric(
        "pinned_cpu",
        cpu.map_or(-1.0, |c| c as f64),
        "index",
    ));
    let untraced = Arc::new(Tap::new(false));
    if !pass.trace {
        let mut stats = PassStats::default();
        for_rounds(pass.seconds, |round| {
            full_round(&shape, pass.seed, round, &untraced, &mut stats);
        });
        outcome.attempted = stats.attempted;
        outcome.failed = stats.attempted - stats.acked;
        outcome.metrics = vec![
            metric("setup_s", quiet(&stats.setup_s), "s"),
            metric("op_us", quiet(&stats.round_p50_us), "us"),
            metric("work_per_s", quiet_rate(&stats.round_rates), "1/s"),
        ];
        outcome.diagnostics.extend([
            metric("submit_p50_us", median(&stats.sends_us), "us"),
            metric("submit_p99_us", quantile(&stats.sends_us, 0.99), "us"),
            metric("submit_max_us", quantile(&stats.sends_us, 1.0), "us"),
            metric(
                "whole_run_per_s",
                stats.acked as f64 / stats.loop_time.as_secs_f64(),
                "1/s",
            ),
            metric(
                "round_rate_iqr_share",
                relative_iqr(&stats.round_rates),
                "share",
            ),
            metric("rounds", stats.round_rates.len() as f64, "count"),
        ]);
        outcome.gates = stats.gates;
        return outcome;
    }

    // Traced run: every round is run twice, untraced and then with the
    // decorators and the global registry on, so the two see the same host
    // and their difference is the cost of observing. Then the probes.
    let registry = zmail_obs::global();
    let tap = Arc::new(Tap::new(true));
    let (mut reference, mut traced) = (PassStats::default(), PassStats::default());
    let mut after_first = tap.counts();
    for_rounds(pass.seconds * 0.7, |round| {
        full_round(&shape, pass.seed, round, &untraced, &mut reference);
        registry.set_enabled(true);
        full_round(&shape, pass.seed, round, &tap, &mut traced);
        registry.set_enabled(false);
        if round == 0 {
            after_first = tap.counts();
        }
    });
    registry.set_enabled(true);
    let wire_only = wire_only_pass(&shape, pass.seed, pass.seconds * 0.2);
    registry.set_enabled(false);
    let probes = codec_probes(&shape, pass.seed, pass.seconds * 0.1);

    let msgs = traced.acked as f64;
    let counts = tap.counts();
    let layers = layer_times(&tap);
    let submit_p50 = median(&layers.submit);
    let session_p50 = median(&layers.session);
    let handoff_p50 = median(&layers.handoff);
    let bridge_p50 = median(&layers.bridge);
    let spool_p50 = median(&layers.spool);
    let explained = session_p50 + handoff_p50 + bridge_p50 + spool_p50;
    let reference_op = quiet(&reference.round_p50_us);
    let traced_op = quiet(&traced.round_p50_us);

    outcome.attempted = reference.attempted + traced.attempted;
    outcome.failed = outcome.attempted - reference.acked - traced.acked;
    outcome.metrics = vec![
        metric("smtp.session_us_p50", session_p50, "us"),
        metric("smtp.wire_only_us_p50", wire_only, "us"),
        metric(
            "smtp.client_lines_per_msg",
            counts.lines_sent as f64 / msgs,
            "count",
        ),
        metric(
            "smtp.client_reads_per_msg",
            counts.reads as f64 / msgs,
            "count",
        ),
        metric(
            "smtp.wire_bytes_per_msg",
            counts.wire_bytes as f64 / msgs,
            "B",
        ),
        metric("core.backpressure.handoff_us_p50", handoff_p50, "us"),
        metric(
            "core.backpressure.msgs_per_batch",
            msgs / traced.batches as f64,
            "count",
        ),
        metric("core.backpressure.shed", traced.shed as f64, "count"),
        metric("core.bridge.deliver_us_p50", bridge_p50, "us"),
        metric(
            "core.bridge.deliver_ns_per_rcpt",
            bridge_p50 * 1e3 / shape.recipients as f64,
            "ns",
        ),
        metric("store.spool_append_us_per_msg", spool_p50, "us"),
        metric(
            "store.spool_syncs_per_msg",
            counts.syncs as f64 / msgs,
            "count",
        ),
        metric(
            "store.spool_bytes_per_msg",
            counts.append_bytes as f64 / msgs,
            "B",
        ),
        metric(
            "wire.unexplained_share",
            (submit_p50 - explained) / submit_p50,
            "share",
        ),
        metric(
            "obs.overhead_share",
            (traced_op - reference_op) / reference_op,
            "share",
        ),
    ];
    outcome.metrics.extend(probes);
    outcome.diagnostics.extend([
        metric("op_us.untraced", reference_op, "us"),
        metric("op_us.traced", traced_op, "us"),
        metric("traced_msgs", msgs, "count"),
    ]);
    // Round 0 is a pure function of the seed, so its counts repeat
    // exactly; the self-check compares them across two runs.
    outcome.exact = vec![
        ("smtp.client_lines", after_first.lines_sent),
        ("smtp.client_reads", after_first.reads),
        ("smtp.wire_bytes", after_first.wire_bytes),
        ("store.spool_appends", after_first.appends),
        ("store.spool_syncs", after_first.syncs),
        ("store.spool_bytes", after_first.append_bytes),
    ];
    outcome.gates = reference.gates;
    outcome.gates.append(&mut traced.gates);
    outcome.tap = Some(tap);
    outcome
}
