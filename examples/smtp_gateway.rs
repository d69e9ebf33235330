//! Zmail over unmodified SMTP (§1.3): a real TCP mail server on loopback,
//! a real SMTP client, and the e-penny ledger moving underneath.
//!
//! Run with: `cargo run --example smtp_gateway`

use zmail::core::bridge::ZmailGateway;
use zmail::core::{UserAddr, ZmailConfig};
use zmail::smtp::{Client, MailMessage, TcpConnection, ThreadedConfig, ThreadedServer};

fn main() {
    let gateway = ZmailGateway::new(ZmailConfig::builder(2, 4).build(), 1);
    let mut server = ThreadedServer::start(
        "mx.zmail.example",
        gateway.clone(),
        ThreadedConfig::default(),
    )
    .expect("bind loopback");
    println!("zmail SMTP gateway listening on {}", server.addr());

    let alice = UserAddr::new(0, 0);
    let bob = UserAddr::new(1, 2);
    println!(
        "before: {} has {}, {} has {}\n",
        ZmailGateway::address(alice),
        gateway.balance(alice),
        ZmailGateway::address(bob),
        gateway.balance(bob),
    );

    // A perfectly ordinary SMTP session — HELO, MAIL, RCPT, DATA.
    let conn = TcpConnection::connect(server.addr()).expect("connect");
    let mut client = Client::connect(conn, "laptop.example").expect("greeting");
    let message = MailMessage::builder(ZmailGateway::address(alice), ZmailGateway::address(bob))
        .header("Subject", "lunch?")
        .header("Date", "Mon, 6 Jul 2026 12:00:00 +0000")
        .body("Noon at the usual place.\r\n")
        .build();
    client.send(&message).expect("submission");

    // Mail from outside the compliant world still flows — unpaid.
    let foreign = MailMessage::builder("colleague@elsewhere.net", ZmailGateway::address(bob))
        .header("Subject", "fyi")
        .body("No e-pennies were attached to this message.\r\n")
        .build();
    client.send(&foreign).expect("foreign submission");
    client.quit().expect("quit");
    server.stop();

    println!(
        "after:  {} has {}, {} has {}",
        ZmailGateway::address(alice),
        gateway.balance(alice),
        ZmailGateway::address(bob),
        gateway.balance(bob),
    );
    for (i, mail) in gateway.inbox(bob).iter().enumerate() {
        println!(
            "inbox[{}]: from {:<28} subject {:<8} X-Zmail-Payment: {}",
            i,
            mail.from(),
            mail.header("Subject").unwrap_or("-"),
            mail.header("X-Zmail-Payment").unwrap_or("(none)"),
        );
    }
    let stats = gateway.stats();
    println!(
        "\ngateway stats: {} paid, {} unpaid, {} bounced",
        stats.delivered_paid, stats.delivered_unpaid, stats.bounced
    );
}
