//! A minimal RFC 821 SMTP substrate, plus the Zmail-over-SMTP mapping.
//!
//! §1.3 of the Zmail paper: *"Zmail can be implemented on top of the current
//! Internet email protocol SMTP … Zmail requires no change to SMTP."* This
//! crate exists to demonstrate that deployability claim end-to-end:
//!
//! * [`command`] / [`reply`] — the RFC 821 command and reply grammar;
//! * [`message`] — messages with headers, bodies, and dot-stuffed `DATA`
//!   framing;
//! * [`server`] — a transport-agnostic session state machine delivering to
//!   a [`MailSink`];
//! * [`client`] — a client that drives any [`Connection`] to submit mail;
//! * [`transport`] — an in-memory loopback connection for tests and
//!   simulations, and a real TCP connection (`std::net`);
//! * [`threaded`] — the TCP server: an accept loop with a bounded worker
//!   pool, per-connection timeouts, a max-connection cap, and `421` load
//!   shedding, serving the end-to-end benchmark (E11) and the open-loop
//!   overload experiments (E21);
//! * [`zheaders`] — the `X-Zmail-*` extension headers that carry payment
//!   metadata *inside* standard messages, which is precisely how Zmail
//!   rides on SMTP without modifying it.
//!
//! # Example: loopback submission
//!
//! ```rust
//! use zmail_smtp::{Client, MailMessage, MemoryTransport, SmtpServer, CollectSink};
//!
//! # fn main() -> Result<(), zmail_smtp::SmtpError> {
//! let (client_conn, server_conn) = MemoryTransport::pair();
//! let sink = CollectSink::shared();
//! let server = SmtpServer::new("mx.example.org", CollectSink::clone(&sink));
//! let handle = std::thread::spawn(move || server.serve(server_conn));
//!
//! let msg = MailMessage::builder("alice@a.example", "bob@b.example")
//!     .header("Subject", "hi")
//!     .body("hello over real SMTP framing\r\n")
//!     .build();
//! let mut client = Client::connect(client_conn, "a.example")?;
//! client.send(&msg)?;
//! client.quit()?;
//! handle.join().expect("server thread");
//! assert_eq!(sink.messages().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod command;
pub mod message;
pub mod metrics;
pub mod relay;
pub mod reply;
pub mod server;
#[cfg(test)]
pub(crate) mod testutil;
pub mod threaded;
pub mod transport;
pub mod zheaders;

pub use client::Client;
pub use command::Command;
pub use message::MailMessage;
pub use relay::RelaySink;
pub use reply::{Reply, ReplyCode};
pub use server::{CollectSink, MailSink, SinkError, SmtpServer, MAX_DATA_BYTES};
pub use threaded::{ThreadedConfig, ThreadedServer, ThreadedStats};
pub use transport::{
    bind_loopback, Connection, FaultyConnection, MemoryTransport, TcpConnection, MAX_LINE_BYTES,
};
pub use zheaders::{
    canonical_digest, extract_ack_signature, extract_signature, stamp_ack_signature,
    stamp_signature, strip_signatures, ZmailHeaders, HEADER_ACK_SIG, HEADER_ACK_TO, HEADER_KIND,
    HEADER_PAYMENT, HEADER_SIG, HEADER_TRACE,
};

use std::error::Error;
use std::fmt;

/// Errors surfaced by the SMTP substrate.
#[derive(Debug)]
pub enum SmtpError {
    /// A line could not be parsed as a command or reply.
    Syntax(String),
    /// A command arrived in a session state that does not allow it.
    BadSequence {
        /// The offending command verb.
        command: String,
        /// The state the session was in.
        state: String,
    },
    /// The peer answered with an unexpected reply code.
    UnexpectedReply(Reply),
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The connection closed before the exchange completed.
    ConnectionClosed,
}

impl fmt::Display for SmtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtpError::Syntax(line) => write!(f, "unparseable smtp line: {line:?}"),
            SmtpError::BadSequence { command, state } => {
                write!(f, "command {command} not allowed in state {state}")
            }
            SmtpError::UnexpectedReply(reply) => write!(f, "unexpected reply: {reply}"),
            SmtpError::Io(e) => write!(f, "transport error: {e}"),
            SmtpError::ConnectionClosed => write!(f, "connection closed mid-exchange"),
        }
    }
}

impl Error for SmtpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SmtpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SmtpError {
    fn from(e: std::io::Error) -> Self {
        SmtpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = SmtpError::BadSequence {
            command: "DATA".into(),
            state: "Greeted".into(),
        };
        assert!(e.to_string().contains("DATA"));
        assert!(e.to_string().contains("Greeted"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        let e: SmtpError = io.into();
        assert!(matches!(e, SmtpError::Io(_)));
        assert!(Error::source(&e).is_some());
    }
}
