//! Distributed banks (§5 "Bank Setup"): three regional banks jointly run
//! the snapshot, catch a cross-region cheater, and settle net flows.
//!
//! Run with: `cargo run --example federated_banks`

use zmail::core::isp::{Isp, SendOutcome};
use zmail::core::{CheatMode, Federation, IspId, NetMsg, UserAddr, ZmailConfig};
use zmail::sim::{MailKind, Table};
use zmail::store::Books;

fn send(isps: &mut [Isp], books: &mut Books, from_isp: u32, to: UserAddr) {
    let outcome = isps[from_isp as usize]
        .send_email(books, 0, to, MailKind::Personal)
        .expect("funded sender");
    if let SendOutcome::Outbound {
        to: dest,
        msg: NetMsg::Email(email),
    } = outcome
    {
        isps[dest.index()].receive_email(books, IspId(from_isp), &email);
    }
}

fn main() {
    // Six ISPs, three regional banks (round-robin homes), one cheater.
    let config = ZmailConfig::builder(6, 4)
        .banks(3)
        .cheat(4, CheatMode::UnderReportSends { fraction: 1.0 })
        .build();
    let mut books = config.initial_books();
    let mut federation = Federation::new(&config, 2026);
    let mut isps: Vec<Isp> = (0..6)
        .map(|i| {
            Isp::new(
                IspId(i),
                &config,
                federation.public_key_for(IspId(i)),
                1_000 + u64::from(i),
            )
        })
        .collect();
    println!("home banks:");
    for i in 0..6u32 {
        println!("  isp[{i}] -> bank {}", federation.home_bank(IspId(i)));
    }

    // Cross-region traffic, including the cheater hiding a send.
    for _ in 0..5 {
        send(&mut isps, &mut books, 0, UserAddr::new(1, 1)); // bank0 region -> bank1
    }
    for _ in 0..2 {
        send(&mut isps, &mut books, 1, UserAddr::new(2, 0)); // bank1 -> bank2
    }
    send(&mut isps, &mut books, 2, UserAddr::new(0, 3)); // bank2 -> bank0
    send(&mut isps, &mut books, 4, UserAddr::new(0, 0)); // CHEATER (bank1) -> bank0

    // The federated snapshot round.
    let requests = federation.start_snapshot();
    println!(
        "\nfederated round: {} snapshot requests issued",
        requests.len()
    );
    let mut round = None;
    for (target, msg) in requests {
        let NetMsg::SnapshotRequest { envelope } = msg else {
            unreachable!()
        };
        let isp = &mut isps[target.index()];
        assert!(isp
            .handle_snapshot_request(&envelope)
            .expect("fresh request"));
        let (reply, _) = isp.finish_snapshot(&mut books);
        let NetMsg::SnapshotReply { from, envelope } = reply else {
            unreachable!()
        };
        if let Some(r) = federation
            .handle_snapshot_reply(from, &envelope)
            .expect("sealed reply")
        {
            round = Some(r);
        }
    }
    let round = round.expect("round completes");

    println!("\nconsistency suspects:");
    for (a, b, sum) in &round.suspects {
        println!("  ({a}, {b}) off by {sum}  <- the hidden send");
    }
    let mut table = Table::new(&["from bank", "to bank", "net e¢ owed"]);
    for &(a, b, net) in round.settlements.iter().filter(|&&(_, _, n)| n > 0) {
        table.row_owned(vec![a.to_string(), b.to_string(), net.to_string()]);
    }
    println!("\ninter-bank settlement:\n{table}");
    println!("federation net flow: {} (always zero)", round.net_flow());
    assert!(round.implicates(IspId(4)));
}
