//! Deployability over unmodified SMTP (§1.3): concurrent clients against a
//! real TCP mail server fronting the Zmail gateway.

use std::sync::mpsc;
use std::thread;
use zmail::core::bridge::ZmailGateway;
use zmail::core::{UserAddr, ZmailConfig};
use zmail::econ::EPennies;
use zmail::smtp::{Client, MailMessage, RelaySink, TcpConnection, ThreadedConfig, ThreadedServer};

/// Attaches a mailbox to `gateway` that keeps every copy it is handed.
fn mailbox(gateway: &ZmailGateway) -> mpsc::Receiver<(UserAddr, MailMessage)> {
    let (tx, rx) = mpsc::channel();
    gateway.attach_mailbox(move |to, mail| tx.send((to, mail)).expect("the test holds rx"));
    rx
}

#[test]
fn concurrent_clients_over_tcp_keep_the_ledger_consistent() {
    let users_per_isp = 8u32;
    let gateway = ZmailGateway::new(
        ZmailConfig::builder(2, users_per_isp).limit(1_000).build(),
        2024,
    );
    let inbox = mailbox(&gateway);
    let mut server =
        ThreadedServer::start("zmail.example", gateway.clone(), ThreadedConfig::default()).unwrap();
    let addr = server.addr();

    // Four concurrent senders, each submitting 10 messages.
    let mut handles = Vec::new();
    for sender_user in 0..4u32 {
        let handle = thread::spawn(move || {
            let conn = TcpConnection::connect(addr).unwrap();
            let mut client = Client::connect(conn, "client.example").unwrap();
            let from = UserAddr::new(0, sender_user);
            for k in 0..10u32 {
                let to = UserAddr::new(1, (sender_user + k) % 8);
                let msg =
                    MailMessage::builder(ZmailGateway::address(from), ZmailGateway::address(to))
                        .header("Subject", format!("msg {k} from {sender_user}"))
                        .body("concurrent load\r\n")
                        .build();
                client.send(&msg).unwrap();
            }
            client.quit().unwrap();
        });
        handles.push(handle);
    }
    for handle in handles {
        handle.join().expect("client thread");
    }
    server.stop();

    // 40 messages moved 40 e-pennies from ISP 0 senders to ISP 1 inboxes.
    let stats = gateway.stats();
    assert_eq!(stats.delivered_paid, 40);
    assert_eq!(stats.bounced, 0);
    let mut sender_total = 0i64;
    let mut receiver_total = 0i64;
    for u in 0..users_per_isp {
        sender_total += gateway.balance(UserAddr::new(0, u)).amount();
        receiver_total += gateway.balance(UserAddr::new(1, u)).amount();
    }
    assert_eq!(sender_total, 8 * 100 - 40);
    assert_eq!(receiver_total, 8 * 100 + 40);

    // The mailbox received the stamped copies, all for ISP 1.
    let copies: Vec<_> = inbox.try_iter().collect();
    assert_eq!(copies.len(), 40);
    assert!(copies
        .iter()
        .all(|(to, copy)| to.isp == 1 && copy.header("X-Zmail-Payment") == Some("1")));
}

#[test]
fn bounce_and_foreign_mail_coexist_on_one_server() {
    let gateway = ZmailGateway::new(
        ZmailConfig::builder(2, 2)
            .initial_balance(EPennies(1))
            .build(),
        7,
    );
    let inbox = mailbox(&gateway);
    // One worker: the pool degenerates to one session at a time.
    let sequential = ThreadedConfig {
        workers: 1,
        ..Default::default()
    };
    let mut server = ThreadedServer::start("zmail.example", gateway.clone(), sequential).unwrap();
    let addr = server.addr();

    let alice = UserAddr::new(0, 0);
    let bob = UserAddr::new(1, 0);

    let conn = TcpConnection::connect(addr).unwrap();
    let mut client = Client::connect(conn, "client.example").unwrap();

    // First paid message succeeds, second bounces (balance was 1).
    let msg = MailMessage::builder(ZmailGateway::address(alice), ZmailGateway::address(bob))
        .body("one\r\n")
        .build();
    client.send(&msg).unwrap();
    let err = client.send(&msg).unwrap_err();
    assert!(matches!(
        err,
        zmail::smtp::SmtpError::UnexpectedReply(r) if r.code == zmail::smtp::ReplyCode::ExceededAllocation
    ));

    // Foreign mail still lands (unpaid) in the same session.
    let foreign = MailMessage::builder("outsider@other.net", ZmailGateway::address(bob))
        .body("howdy\r\n")
        .build();
    client.send(&foreign).unwrap();
    client.quit().unwrap();
    server.stop();

    assert_eq!(gateway.balance(bob), EPennies(2)); // 1 initial + 1 paid
    assert_eq!(inbox.try_iter().filter(|(to, _)| *to == bob).count(), 2);
    let stats = gateway.stats();
    assert_eq!(stats.delivered_paid, 1);
    assert_eq!(stats.delivered_unpaid, 1);
    assert_eq!(stats.bounced, 1);
}

#[test]
fn zmail_works_behind_a_noncompliant_relay() {
    // §1.3: the protocol rides in ordinary headers, so a relay that has
    // never heard of Zmail carries it without modification. Chain:
    // client -> plain relay -> Zmail gateway.
    let gateway = ZmailGateway::new(ZmailConfig::builder(2, 4).build(), 77);
    let inbox = mailbox(&gateway);
    let mut terminal =
        ThreadedServer::start("zmail.example", gateway.clone(), ThreadedConfig::default()).unwrap();
    let mut relay = ThreadedServer::start(
        "relay.example",
        RelaySink::new(terminal.addr(), "relay.example"),
        ThreadedConfig::default(),
    )
    .unwrap();

    let alice = UserAddr::new(0, 1);
    let bob = UserAddr::new(1, 3);
    let conn = TcpConnection::connect(relay.addr()).unwrap();
    let mut client = Client::connect(conn, "laptop.example").unwrap();
    let msg = MailMessage::builder(ZmailGateway::address(alice), ZmailGateway::address(bob))
        .header("Subject", "via a dumb relay")
        .body("the relay never sees an e-penny\r\n")
        .build();
    client.send(&msg).unwrap();
    client.quit().unwrap();
    relay.stop();
    terminal.stop();

    // The ledger still moved: the *gateway* charged and credited.
    assert_eq!(gateway.balance(alice), EPennies(99));
    assert_eq!(gateway.balance(bob), EPennies(101));
    let copies: Vec<_> = inbox.try_iter().collect();
    assert_eq!(copies.len(), 1);
    let (to, copy) = &copies[0];
    assert_eq!(*to, bob);
    assert_eq!(copy.header("X-Zmail-Payment"), Some("1"));
    assert_eq!(copy.header("Subject"), Some("via a dumb relay"));
}

#[test]
fn gateway_bounce_propagates_back_through_the_relay() {
    // A sender with no balance gets its 552 even across a middle hop —
    // the relay surfaces the upstream refusal as its own bounce.
    let gateway = ZmailGateway::new(
        ZmailConfig::builder(2, 2)
            .initial_balance(EPennies::ZERO)
            .build(),
        78,
    );
    let mut terminal =
        ThreadedServer::start("zmail.example", gateway.clone(), ThreadedConfig::default()).unwrap();
    let mut relay = ThreadedServer::start(
        "relay.example",
        RelaySink::new(terminal.addr(), "relay.example"),
        ThreadedConfig::default(),
    )
    .unwrap();
    let conn = TcpConnection::connect(relay.addr()).unwrap();
    let mut client = Client::connect(conn, "laptop.example").unwrap();
    let msg = MailMessage::builder(
        ZmailGateway::address(UserAddr::new(0, 0)),
        ZmailGateway::address(UserAddr::new(1, 0)),
    )
    .body("cannot afford this\r\n")
    .build();
    let err = client.send(&msg).unwrap_err();
    assert!(matches!(err, zmail::smtp::SmtpError::UnexpectedReply(_)));
    client.quit().unwrap();
    relay.stop();
    terminal.stop();
    assert_eq!(gateway.stats().delivered_paid, 0);
}
