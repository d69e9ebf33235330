//! A store-and-forward relay: the "non-compliant middle hop" of §1.3.
//!
//! Zmail's deployability story requires that ordinary SMTP relays carry
//! Zmail mail *without understanding it* — the `X-Zmail-*` headers are
//! plain RFC 822 headers, so a relay that faithfully forwards a message
//! preserves them. [`RelaySink`] is such a relay: it accepts mail like
//! any server and immediately resubmits it to an upstream server over a
//! fresh client session.

use crate::client::Client;
use crate::message::MailMessage;
use crate::server::{MailSink, SinkError};
use crate::transport::TcpConnection;
use std::net::SocketAddr;

/// A [`MailSink`] that forwards every accepted message to an upstream
/// SMTP server over TCP.
#[derive(Debug, Clone)]
pub struct RelaySink {
    upstream: SocketAddr,
    helo_domain: String,
}

impl RelaySink {
    /// Creates a relay forwarding to `upstream`, identifying itself with
    /// `helo_domain`.
    pub fn new(upstream: SocketAddr, helo_domain: impl Into<String>) -> Self {
        RelaySink {
            upstream,
            helo_domain: helo_domain.into(),
        }
    }

    /// The upstream address this relay forwards to.
    pub fn upstream(&self) -> SocketAddr {
        self.upstream
    }
}

impl MailSink for RelaySink {
    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        let conn = TcpConnection::connect(self.upstream)
            .map_err(|e| format!("relay cannot reach upstream: {e}"))?;
        let mut client = Client::connect(conn, &self.helo_domain)
            .map_err(|e| format!("upstream refused session: {e}"))?;
        client
            .send(&message)
            .map_err(|e| format!("upstream refused message: {e}"))?;
        let _ = client.quit();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CollectSink;
    use crate::threaded::{ThreadedConfig, ThreadedServer};
    use crate::zheaders::{ZmailHeaders, HEADER_PAYMENT};

    #[test]
    fn relay_forwards_message_with_headers_intact() {
        // terminal server <- relay server <- client
        let terminal_sink = CollectSink::shared();
        let mut terminal = ThreadedServer::start(
            "terminal.example",
            terminal_sink.clone(),
            ThreadedConfig::default(),
        )
        .unwrap();
        let relay_sink = RelaySink::new(terminal.addr(), "relay.example");
        let mut relay =
            ThreadedServer::start("relay.example", relay_sink, ThreadedConfig::default()).unwrap();

        let mut message = MailMessage::builder("a@x.example", "b@y.example")
            .header("Subject", "through the middle hop")
            .body("payload survives relaying\r\n")
            .build();
        // Stamp Zmail metadata the relay knows nothing about.
        ZmailHeaders {
            payment: Some(1),
            is_ack: false,
            ack_to: Some("list@l.example".into()),
            trace: None,
        }
        .stamp(&mut message);

        let conn = TcpConnection::connect(relay.addr()).unwrap();
        let mut client = Client::connect(conn, "origin.example").unwrap();
        client.send(&message).unwrap();
        client.quit().unwrap();
        relay.stop();
        terminal.stop();

        let received = terminal_sink.messages();
        assert_eq!(received.len(), 1);
        let got = &received[0];
        assert_eq!(got.from(), "a@x.example");
        assert_eq!(got.recipients(), ["b@y.example"]);
        assert_eq!(got.header("Subject"), Some("through the middle hop"));
        // The Zmail metadata crossed a hop that never heard of Zmail.
        let headers = ZmailHeaders::extract(got);
        assert_eq!(headers.payment, Some(1));
        assert_eq!(headers.ack_to.as_deref(), Some("list@l.example"));
        assert_eq!(got.body(), message.body());
        // No duplicate payment stamps appeared.
        let stamps = got
            .headers()
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(HEADER_PAYMENT))
            .count();
        assert_eq!(stamps, 1);
    }

    #[test]
    fn relay_reports_unreachable_upstream_as_bounce() {
        // Point the relay at a port nothing listens on.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let relay_sink = RelaySink::new(dead, "relay.example");
        let mut relay =
            ThreadedServer::start("relay.example", relay_sink, ThreadedConfig::default()).unwrap();
        let conn = TcpConnection::connect(relay.addr()).unwrap();
        let mut client = Client::connect(conn, "origin.example").unwrap();
        let msg = MailMessage::builder("a@x.example", "b@y.example")
            .body("doomed\r\n")
            .build();
        let err = client.send(&msg).unwrap_err();
        assert!(matches!(err, crate::SmtpError::UnexpectedReply(_)));
        client.quit().unwrap();
        relay.stop();
    }

    #[test]
    fn two_hop_relay_chain() {
        // One worker per server: the pool degenerates to serving
        // sessions sequentially, which is all a relay chain needs.
        let sequential = ThreadedConfig {
            workers: 1,
            ..Default::default()
        };
        let terminal_sink = CollectSink::shared();
        let mut terminal = ThreadedServer::start(
            "terminal.example",
            terminal_sink.clone(),
            sequential.clone(),
        )
        .unwrap();
        let mut hop2 = ThreadedServer::start(
            "hop2.example",
            RelaySink::new(terminal.addr(), "hop2"),
            sequential.clone(),
        )
        .unwrap();
        let mut hop1 = ThreadedServer::start(
            "hop1.example",
            RelaySink::new(hop2.addr(), "hop1"),
            sequential,
        )
        .unwrap();

        let conn = TcpConnection::connect(hop1.addr()).unwrap();
        let mut client = Client::connect(conn, "origin.example").unwrap();
        let msg = MailMessage::builder("a@x.example", "b@y.example")
            .header("Subject", "two hops")
            .body("still whole\r\n")
            .build();
        client.send(&msg).unwrap();
        client.quit().unwrap();
        hop1.stop();
        hop2.stop();
        terminal.stop();
        assert_eq!(terminal_sink.messages().len(), 1);
        assert_eq!(
            terminal_sink.messages()[0].header("Subject"),
            Some("two hops")
        );
    }
}
