//! E11 — Zmail over unmodified SMTP: end-to-end throughput (§1.3).
//!
//! Paper: "Zmail can be implemented on top of the current Internet email
//! protocol SMTP. Zmail requires no change to SMTP … Normal users will
//! hardly find any difference." We measure real submissions over loopback
//! TCP with and without the Zmail ledger in the path, plus the wire
//! overhead of the `X-Zmail-*` headers.
//!
//! This is a **closed-loop** measurement: the client waits for every
//! reply, so the offered rate equals the achieved rate by construction
//! and the server can never be overloaded. That is the right shape for
//! the §1.3 overhead question asked here; for behavior *past* capacity
//! (offered > achieved, shedding, CO-safe tails) see `e21_open_loop`.

use std::time::Instant;
use zmail_bench::{fmt, pct, Report};
use zmail_core::bridge::ZmailGateway;
use zmail_core::{UserAddr, ZmailConfig};
use zmail_sim::Table;
use zmail_smtp::{
    Client, CollectSink, MailMessage, TcpConnection, ThreadedConfig, ThreadedServer, ZmailHeaders,
};

const MESSAGES: u32 = 2_000;

/// Submits [`MESSAGES`] messages over one session, returning msgs/sec.
///
/// With `--metrics` the per-message client round-trip (build, send, both
/// SMTP replies) lands in the `hist_name` histogram, whose p50/p90/p99
/// the telemetry section reports alongside the server-side
/// `smtp.parse_us`/`smtp.frame_us` timings.
fn submit_batch(
    addr: std::net::SocketAddr,
    from: String,
    make_to: impl Fn(u32) -> String,
    hist_name: &str,
) -> f64 {
    let conn = TcpConnection::connect(addr).expect("connect");
    let mut client = Client::connect(conn, "bench.example").expect("greeting");
    let timing = zmail_obs::global().is_enabled();
    let send_us = zmail_obs::global().histogram(hist_name);
    let start = Instant::now();
    for k in 0..MESSAGES {
        let sent_at = timing.then(Instant::now);
        let msg = MailMessage::builder(from.clone(), make_to(k))
            .header("Subject", format!("bench {k}"))
            .body("a short representative body line\r\nand a second one\r\n")
            .build();
        client.send(&msg).expect("send");
        if let Some(at) = sent_at {
            send_us.record_duration(at.elapsed());
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    client.quit().expect("quit");
    MESSAGES as f64 / elapsed
}

fn main() {
    let experiment = Report::new(
        "E11: SMTP end-to-end throughput, plain vs Zmail ledger",
        "the e-penny ledger adds negligible overhead to real SMTP sessions; the header overhead is a few dozen bytes",
    );

    // Plain SMTP: the same server and client with a collect-only sink.
    let sink = CollectSink::shared();
    let mut plain_server =
        ThreadedServer::start("plain.example", sink.clone(), ThreadedConfig::default()).unwrap();
    let plain_rate = submit_batch(
        plain_server.addr(),
        "u0@isp0.example".into(),
        |k| format!("u{}@isp1.example", k % 50),
        "e11.plain.send_us",
    );
    plain_server.stop();

    // Zmail: the gateway runs the full §4.1 ledger per message.
    let gateway = ZmailGateway::new(
        ZmailConfig::builder(2, 50)
            .limit(1_000_000)
            .initial_balance(zmail_econ::EPennies(i64::from(MESSAGES) + 10))
            .build(),
        3,
    );
    let mut zmail_server =
        ThreadedServer::start("zmail.example", gateway.clone(), ThreadedConfig::default()).unwrap();
    let zmail_rate = submit_batch(
        zmail_server.addr(),
        ZmailGateway::address(UserAddr::new(0, 0)),
        |k| ZmailGateway::address(UserAddr::new(1, k % 50)),
        "e11.zmail.send_us",
    );
    zmail_server.stop();

    // Wire overhead of the Zmail headers.
    let mut bare = MailMessage::builder("u0@isp0.example", "u1@isp1.example")
        .header("Subject", "overhead probe")
        .body("a short representative body line\r\nand a second one\r\n")
        .build();
    let bare_len = bare.wire_len();
    ZmailHeaders {
        payment: Some(1),
        is_ack: false,
        ack_to: None,
        trace: None,
    }
    .stamp(&mut bare);
    let stamped_len = bare.wire_len();

    let mut table = Table::new(&[
        "configuration",
        "offered/s",
        "achieved/s",
        "relative",
        "wire bytes/msg",
    ]);
    table.row_owned(vec![
        "plain SMTP".into(),
        fmt(plain_rate),
        fmt(plain_rate),
        "100%".into(),
        bare_len.to_string(),
    ]);
    table.row_owned(vec![
        "zmail ledger".into(),
        fmt(zmail_rate),
        fmt(zmail_rate),
        pct(zmail_rate / plain_rate),
        stamped_len.to_string(),
    ]);
    println!("{table}");
    println!(
        "closed loop: the client waits for each reply, so offered == achieved by \
         construction and overload cannot occur; e21_open_loop sweeps offered load \
         past capacity with an open-loop generator"
    );

    if experiment.metrics_enabled() {
        zmail_obs::global()
            .gauge("e11.header_overhead_bytes")
            .set((stamped_len - bare_len) as i64);
    }

    let stats = gateway.stats();
    println!(
        "zmail run: {} paid deliveries, {} bounced; header overhead {} bytes",
        stats.delivered_paid,
        stats.bounced,
        stamped_len - bare_len
    );
    assert_eq!(stats.delivered_paid as u32, MESSAGES);

    experiment.finish(
        zmail_rate > 0.5 * plain_rate && stamped_len - bare_len < 100,
        "the full ledger path sustains the same order of throughput as plain SMTP over real sockets, and the protocol rides in <100 bytes of standard headers",
    );
}
