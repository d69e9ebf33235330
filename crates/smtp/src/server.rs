//! The SMTP server session state machine.
//!
//! [`SmtpServer`] is transport-agnostic: `serve` drives any
//! [`Connection`] through the RFC 821 session dialogue
//! and hands completed messages to a [`MailSink`]. The sink decides
//! per-recipient acceptance — which is where a Zmail-compliant ISP hooks in
//! its e-penny balance and daily-limit checks without any change to the
//! protocol grammar itself.

use crate::command::Command;
use crate::message::MailMessage;
use crate::metrics::SmtpMetrics;
use crate::reply::{Reply, ReplyCode};
use crate::transport::Connection;
use crate::SmtpError;
use std::io;
use std::sync::{Arc, LockResult, Mutex, PoisonError};

/// The largest `DATA` payload a session buffers, dot-stuffing and line
/// ends included (Postfix's default `message_size_limit`). A bigger
/// message is read on to its terminating dot, dropped, and answered with
/// `552`; the session goes on.
pub const MAX_DATA_BYTES: usize = 10_240_000;

/// Why a sink refused a message, which decides the SMTP reply code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkError {
    /// Permanent refusal, answered with `552` — the Zmail layer's bounce
    /// when the sender's e-penny balance or daily limit is exhausted, or
    /// the message is oversized/malformed. Retrying will not help.
    Reject(String),
    /// Transient overload, answered with `452` (insufficient system
    /// storage) — the admission queue in front of the durable ledger path
    /// is full and the message was shed. The client may retry later.
    Overloaded(String),
}

impl SinkError {
    /// A permanent `552` rejection.
    pub fn reject(text: impl Into<String>) -> Self {
        SinkError::Reject(text.into())
    }

    /// A transient `452` overload shed.
    pub fn overloaded(text: impl Into<String>) -> Self {
        SinkError::Overloaded(text.into())
    }

    /// The human-readable reply text.
    pub fn text(&self) -> &str {
        match self {
            SinkError::Reject(t) | SinkError::Overloaded(t) => t,
        }
    }
}

/// Bare strings keep meaning what they always meant: a permanent bounce.
impl From<String> for SinkError {
    fn from(text: String) -> Self {
        SinkError::Reject(text)
    }
}

impl From<&str> for SinkError {
    fn from(text: &str) -> Self {
        SinkError::Reject(text.to_string())
    }
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Reject(t) => write!(f, "rejected: {t}"),
            SinkError::Overloaded(t) => write!(f, "overloaded: {t}"),
        }
    }
}

/// Where accepted mail goes, and who vets recipients.
pub trait MailSink {
    /// Whether to accept `RCPT TO:<to>` for a transaction from `from`.
    ///
    /// Returning `false` yields a `550` to the client. The default accepts
    /// everyone.
    fn accept_recipient(&self, _from: &str, _to: &str) -> bool {
        true
    }

    /// Called with each fully-received message.
    ///
    /// # Errors
    ///
    /// Returning [`SinkError::Reject`] converts the final `250` into a
    /// `552` bounce — the hook the Zmail layer uses when the sender's
    /// balance or daily limit is exhausted. [`SinkError::Overloaded`]
    /// converts it into a transient `452` shed instead, the backpressure
    /// hook a bounded admission queue uses when it is full.
    fn deliver(&self, message: MailMessage) -> Result<(), SinkError>;
}

/// Sinks compose: a shared reference to a sink is itself a sink, so
/// pooled server workers can serve through one sink without cloning it.
impl<S: MailSink + ?Sized> MailSink for &S {
    fn accept_recipient(&self, from: &str, to: &str) -> bool {
        (**self).accept_recipient(from, to)
    }

    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        (**self).deliver(message)
    }
}

impl<S: MailSink + ?Sized> MailSink for Arc<S> {
    fn accept_recipient(&self, from: &str, to: &str) -> bool {
        (**self).accept_recipient(from, to)
    }

    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        (**self).deliver(message)
    }
}

/// The one way this file takes [`CollectSink`]'s lock: past poison. Every
/// update under it is one `push`, so a guard a panicking thread left
/// behind protects nothing inconsistent.
fn held<T>(guard: LockResult<T>) -> T {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// A sink that stores everything it receives; for tests and examples.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    inner: Arc<Mutex<Vec<MailMessage>>>,
}

impl CollectSink {
    /// Creates an empty shared sink; clones observe the same storage.
    pub fn shared() -> Self {
        Self::default()
    }

    /// Snapshot of everything delivered so far.
    pub fn messages(&self) -> Vec<MailMessage> {
        held(self.inner.lock()).clone()
    }

    /// Number of delivered messages.
    pub fn len(&self) -> usize {
        held(self.inner.lock()).len()
    }

    /// Whether nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        held(self.inner.lock()).is_empty()
    }
}

impl MailSink for CollectSink {
    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        held(self.inner.lock()).push(message);
        Ok(())
    }
}

/// Session state names, used in `503` diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Connected, awaiting HELO.
    Start,
    /// Greeted, no transaction open.
    Idle,
    /// `MAIL FROM` accepted.
    HasSender,
    /// At least one `RCPT TO` accepted.
    HasRecipients,
}

impl State {
    fn name(self) -> &'static str {
        match self {
            State::Start => "Start",
            State::Idle => "Idle",
            State::HasSender => "HasSender",
            State::HasRecipients => "HasRecipients",
        }
    }
}

/// A single-session SMTP server.
#[derive(Debug)]
pub struct SmtpServer<S> {
    hostname: String,
    sink: S,
}

impl<S: MailSink> SmtpServer<S> {
    /// Creates a server identifying itself as `hostname`.
    pub fn new(hostname: impl Into<String>, sink: S) -> Self {
        SmtpServer {
            hostname: hostname.into(),
            sink,
        }
    }

    /// Runs one full session over `conn` until `QUIT` or EOF.
    ///
    /// Returns the number of messages accepted during the session.
    ///
    /// # Errors
    ///
    /// Returns transport errors; protocol errors are answered in-band with
    /// 4xx/5xx replies and do not abort the session. A line longer than
    /// the transport buffers (an [`io::ErrorKind::InvalidData`] from
    /// `recv_line`, as [`TcpConnection`](crate::TcpConnection) reports
    /// one) is answered with `500` and ends the session (RFC 5321
    /// §4.5.3.1).
    pub fn serve<C: Connection>(&self, mut conn: C) -> Result<usize, SmtpError> {
        let mut accepted = 0usize;
        match self.session(&mut conn, &mut accepted) {
            Err(SmtpError::Io(e)) if e.kind() == io::ErrorKind::InvalidData => {
                let reply = Reply::new(ReplyCode::SyntaxError, "line too long");
                conn.send_line(&reply.to_string())?;
            }
            ended => ended?,
        }
        Ok(accepted)
    }

    /// The session dialogue, counting accepted messages into `accepted`.
    fn session<C: Connection>(&self, conn: &mut C, accepted: &mut usize) -> Result<(), SmtpError> {
        let mut state = State::Start;
        let mut sender = String::new();
        let mut recipients: Vec<String> = Vec::new();

        let greeting = Reply::new(
            ReplyCode::ServiceReady,
            format!("{} zmail-smtp service ready", self.hostname),
        );
        conn.send_line(&greeting.to_string())?;

        loop {
            let Some(line) = conn.recv_line()? else {
                return Ok(()); // client went away
            };
            let metrics = SmtpMetrics::get();
            let parse_started = SmtpMetrics::timer();
            let parsed = Command::parse(&line);
            if let Some(started) = parse_started {
                metrics.parse_us.record_duration(started.elapsed());
            }
            metrics.commands.inc();
            let command = match parsed {
                Ok(c) => c,
                Err(_) => {
                    metrics.syntax_errors.inc();
                    conn.send_line(
                        &Reply::new(ReplyCode::SyntaxError, "command unrecognized").to_string(),
                    )?;
                    continue;
                }
            };
            let reply = match (&command, state) {
                (Command::Noop, _) => Reply::new(ReplyCode::Ok, "ok"),
                (Command::Quit, _) => {
                    conn.send_line(
                        &Reply::new(ReplyCode::Closing, format!("{} closing", self.hostname))
                            .to_string(),
                    )?;
                    return Ok(());
                }
                (Command::Vrfy(_), _) => {
                    Reply::new(ReplyCode::CannotVrfy, "cannot vrfy, will accept mail")
                }
                (Command::Rset, _) => {
                    sender.clear();
                    recipients.clear();
                    if state != State::Start {
                        state = State::Idle;
                    }
                    Reply::new(ReplyCode::Ok, "reset")
                }
                (Command::Helo(_domain), _) => {
                    sender.clear();
                    recipients.clear();
                    state = State::Idle;
                    Reply::new(ReplyCode::Ok, format!("{} hello", self.hostname))
                }
                (Command::MailFrom(path), State::Idle) => {
                    sender = path.clone();
                    state = State::HasSender;
                    Reply::new(ReplyCode::Ok, "sender ok")
                }
                (Command::RcptTo(path), State::HasSender | State::HasRecipients) => {
                    if self.sink.accept_recipient(&sender, path) {
                        recipients.push(path.clone());
                        state = State::HasRecipients;
                        Reply::new(ReplyCode::Ok, "recipient ok")
                    } else {
                        Reply::new(ReplyCode::MailboxUnavailable, "recipient rejected")
                    }
                }
                (Command::Data, State::HasRecipients) => {
                    conn.send_line(
                        &Reply::new(ReplyCode::StartMailInput, "end data with <CRLF>.<CRLF>")
                            .to_string(),
                    )?;
                    let frame_started = SmtpMetrics::timer();
                    let payload = read_data(conn)?;
                    let payload_bytes = payload.as_ref().map_or(0, String::len);
                    let outcome = match payload {
                        None => Err(SinkError::reject("message exceeds size limit")),
                        Some(payload) => MailMessage::from_data(
                            sender.clone(),
                            std::mem::take(&mut recipients),
                            &payload,
                        )
                        .map_err(|_| SinkError::reject("message malformed"))
                        .and_then(|msg| self.sink.deliver(msg)),
                    };
                    if let Some(started) = frame_started {
                        metrics.frame_us.record_duration(started.elapsed());
                    }
                    recipients.clear();
                    sender.clear();
                    state = State::Idle;
                    match outcome {
                        Ok(()) => {
                            *accepted += 1;
                            metrics.messages.inc();
                            metrics.data_bytes.add(payload_bytes as u64);
                            Reply::new(ReplyCode::Ok, "message accepted")
                        }
                        Err(SinkError::Reject(text)) => {
                            metrics.bounces.inc();
                            Reply::new(ReplyCode::ExceededAllocation, text)
                        }
                        Err(SinkError::Overloaded(text)) => {
                            metrics.sheds.inc();
                            Reply::new(ReplyCode::InsufficientStorage, text)
                        }
                    }
                }
                (cmd, bad_state) => Reply::new(
                    ReplyCode::BadSequence,
                    format!("{} not allowed in {}", cmd.verb(), bad_state.name()),
                ),
            };
            conn.send_line(&reply.to_string())?;
        }
    }
}

/// Reads the dot-terminated `DATA` payload, keeping dot-stuffing intact for
/// [`MailMessage::from_data`] to undo. `None` if it outgrew
/// [`MAX_DATA_BYTES`]: from there on the lines are read and dropped.
fn read_data<C: Connection>(conn: &mut C) -> Result<Option<String>, SmtpError> {
    let mut payload = Some(String::new());
    loop {
        let Some(line) = conn.recv_line()? else {
            return Err(SmtpError::ConnectionClosed);
        };
        if line == "." {
            return Ok(payload);
        }
        payload = payload
            .filter(|payload| payload.len() + line.len() + 2 <= MAX_DATA_BYTES)
            .map(|mut payload| {
                payload.push_str(&line);
                payload.push_str("\r\n");
                payload
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemoryTransport;

    /// Runs a scripted client against a fresh server; returns all raw reply
    /// lines and the sink contents.
    fn run_script(lines: &[&str]) -> (Vec<String>, CollectSink) {
        let sink = CollectSink::shared();
        let server = SmtpServer::new("mx.test", sink.clone());
        let (mut client, server_conn) = MemoryTransport::pair();
        let script: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        let client_thread = std::thread::spawn(move || {
            let mut replies = Vec::new();
            // Greeting first.
            replies.push(client.recv_line().unwrap().unwrap());
            let mut in_data = false;
            for line in script {
                client.send_line(&line).unwrap();
                let ends_data = line == ".";
                if in_data && !ends_data {
                    continue; // no reply per data line
                }
                if ends_data {
                    in_data = false;
                }
                replies.push(client.recv_line().unwrap().unwrap());
                if line.eq_ignore_ascii_case("DATA") && replies.last().unwrap().starts_with("354") {
                    in_data = true;
                }
            }
            replies
        });
        server.serve(server_conn).unwrap();
        let replies = client_thread.join().unwrap();
        (replies, sink)
    }

    #[test]
    fn happy_path_delivers_message() {
        let (replies, sink) = run_script(&[
            "HELO client.test",
            "MAIL FROM:<alice@a>",
            "RCPT TO:<bob@b>",
            "DATA",
            "Subject: hello",
            "",
            "body line",
            ".",
            "QUIT",
        ]);
        let codes: Vec<&str> = replies.iter().map(|r| &r[..3]).collect();
        assert_eq!(codes, ["220", "250", "250", "250", "354", "250", "221"]);
        let messages = sink.messages();
        assert_eq!(messages.len(), 1);
        assert_eq!(messages[0].from(), "alice@a");
        assert_eq!(messages[0].recipients(), ["bob@b"]);
        assert_eq!(messages[0].header("Subject"), Some("hello"));
        assert_eq!(messages[0].body(), "body line\r\n");
    }

    #[test]
    fn data_before_rcpt_is_bad_sequence() {
        let (replies, sink) = run_script(&["HELO c", "MAIL FROM:<a@x>", "DATA", "QUIT"]);
        assert!(replies[3].starts_with("503"));
        assert!(sink.is_empty());
    }

    #[test]
    fn mail_before_helo_is_bad_sequence() {
        let (replies, _) = run_script(&["MAIL FROM:<a@x>", "QUIT"]);
        assert!(replies[1].starts_with("503"));
    }

    #[test]
    fn rset_clears_transaction() {
        let (replies, sink) = run_script(&[
            "HELO c",
            "MAIL FROM:<a@x>",
            "RCPT TO:<b@y>",
            "RSET",
            "DATA", // must now fail: transaction gone
            "QUIT",
        ]);
        assert!(replies[4].starts_with("250"));
        assert!(replies[5].starts_with("503"));
        assert!(sink.is_empty());
    }

    #[test]
    fn unknown_command_gets_500_session_continues() {
        let (replies, sink) = run_script(&[
            "BOGUS",
            "HELO c",
            "MAIL FROM:<a@x>",
            "RCPT TO:<b@y>",
            "DATA",
            "",
            "x",
            ".",
            "QUIT",
        ]);
        assert!(replies[1].starts_with("500"));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn multiple_recipients_fan_out_in_envelope() {
        let (_, sink) = run_script(&[
            "HELO c",
            "MAIL FROM:<a@x>",
            "RCPT TO:<b@y>",
            "RCPT TO:<c@z>",
            "DATA",
            "",
            "hi all",
            ".",
            "QUIT",
        ]);
        assert_eq!(sink.messages()[0].recipients(), ["b@y", "c@z"]);
    }

    #[test]
    fn rejecting_sink_turns_delivery_into_552() {
        struct Bouncer;
        impl MailSink for Bouncer {
            fn deliver(&self, _m: MailMessage) -> Result<(), SinkError> {
                Err("insufficient e-penny balance".into())
            }
        }
        let (mut client, t) = crate::testutil::spawn_server(Bouncer);
        client.recv_line().unwrap(); // greeting
        for cmd in ["HELO c", "MAIL FROM:<a@x>", "RCPT TO:<b@y>", "DATA"] {
            client.send_line(cmd).unwrap();
            client.recv_line().unwrap();
        }
        for line in ["", "body", "."] {
            client.send_line(line).unwrap();
        }
        let final_reply = client.recv_line().unwrap().unwrap();
        assert!(final_reply.starts_with("552"), "{final_reply}");
        assert!(final_reply.contains("e-penny"));
        client.send_line("QUIT").unwrap();
        client.recv_line().unwrap();
        drop(client);
        assert_eq!(t.join().unwrap(), 0);
    }

    #[test]
    fn overloaded_sink_turns_delivery_into_452() {
        struct Shedder;
        impl MailSink for Shedder {
            fn deliver(&self, _m: MailMessage) -> Result<(), SinkError> {
                Err(SinkError::overloaded("admission queue full"))
            }
        }
        let (mut client, t) = crate::testutil::spawn_server(Shedder);
        client.recv_line().unwrap(); // greeting
        for cmd in ["HELO c", "MAIL FROM:<a@x>", "RCPT TO:<b@y>", "DATA"] {
            client.send_line(cmd).unwrap();
            client.recv_line().unwrap();
        }
        for line in ["", "body", "."] {
            client.send_line(line).unwrap();
        }
        let final_reply = client.recv_line().unwrap().unwrap();
        assert!(final_reply.starts_with("452"), "{final_reply}");
        assert!(final_reply.contains("queue"));
        // The session survives a shed: the next submission is attempted.
        client.send_line("MAIL FROM:<a@x>").unwrap();
        assert!(client.recv_line().unwrap().unwrap().starts_with("250"));
        client.send_line("QUIT").unwrap();
        client.recv_line().unwrap();
        drop(client);
        assert_eq!(t.join().unwrap(), 0);
    }

    #[test]
    fn recipient_veto_gives_550_but_other_rcpts_continue() {
        #[derive(Clone)]
        struct Picky(CollectSink);
        impl MailSink for Picky {
            fn accept_recipient(&self, _from: &str, to: &str) -> bool {
                to != "blocked@y"
            }
            fn deliver(&self, m: MailMessage) -> Result<(), SinkError> {
                self.0.deliver(m)
            }
        }
        let collect = CollectSink::shared();
        let (mut client, t) = crate::testutil::spawn_server(Picky(collect.clone()));
        client.recv_line().unwrap();
        let send = |c: &mut MemoryTransport, line: &str| {
            c.send_line(line).unwrap();
            c.recv_line().unwrap().unwrap()
        };
        send(&mut client, "HELO c");
        send(&mut client, "MAIL FROM:<a@x>");
        assert!(send(&mut client, "RCPT TO:<blocked@y>").starts_with("550"));
        assert!(send(&mut client, "RCPT TO:<ok@y>").starts_with("250"));
        assert!(send(&mut client, "DATA").starts_with("354"));
        for line in ["", "hello", "."] {
            client.send_line(line).unwrap();
        }
        assert!(client.recv_line().unwrap().unwrap().starts_with("250"));
        send(&mut client, "QUIT");
        drop(client);
        t.join().unwrap();
        assert_eq!(collect.messages()[0].recipients(), ["ok@y"]);
    }

    #[test]
    fn eof_mid_data_returns_connection_closed() {
        let server = SmtpServer::new("mx.test", CollectSink::shared());
        let (mut client, server_conn) = MemoryTransport::pair();
        let t = std::thread::spawn(move || server.serve(server_conn));
        client.recv_line().unwrap();
        for cmd in ["HELO c", "MAIL FROM:<a@x>", "RCPT TO:<b@y>", "DATA"] {
            client.send_line(cmd).unwrap();
            client.recv_line().unwrap();
        }
        client.send_line("partial body").unwrap();
        drop(client); // vanish before the dot
        let err = t.join().unwrap().unwrap_err();
        assert!(matches!(err, SmtpError::ConnectionClosed));
    }

    #[test]
    fn a_message_one_byte_past_the_cap_gets_552_and_the_session_goes_on() {
        let sink = CollectSink::shared();
        let (mut client, t) = crate::testutil::spawn_server(sink.clone());
        client.recv_line().unwrap();
        client.send_line("HELO c").unwrap();
        client.recv_line().unwrap();
        let mut submit = |body: &[String]| {
            for line in ["MAIL FROM:<a@x>", "RCPT TO:<b@y>", "DATA"] {
                client.send_line(line).unwrap();
                client.recv_line().unwrap();
            }
            client.send_line("").unwrap();
            for line in body {
                client.send_line(line).unwrap();
            }
            client.send_line(".").unwrap();
            client.recv_line().unwrap().unwrap()
        };
        // The blank line, 10,239 lines of 1,000 bytes with their CRLF,
        // and a last line of `last` bytes: MAX_DATA_BYTES - 996 + `last`.
        let payload = |last: usize| -> Vec<String> {
            let mut body = vec!["x".repeat(998); (MAX_DATA_BYTES - 1_000) / 1_000];
            body.push("x".repeat(last));
            body
        };
        assert!(submit(&payload(996)).starts_with("250"), "at the cap");
        let over = submit(&payload(997));
        assert!(over.starts_with("552"), "{over}");
        assert!(over.contains("size"));
        assert!(submit(&["tiny".to_string()]).starts_with("250"));
        client.send_line("QUIT").unwrap();
        client.recv_line().unwrap();
        drop(client);
        assert_eq!(t.join().unwrap(), 2);
        let messages = sink.messages();
        assert_eq!(messages[0].body().len(), MAX_DATA_BYTES - 2);
        assert_eq!(messages[1].body(), "tiny\r\n");
    }

    #[test]
    fn session_counts_accepted_messages() {
        let (_, sink) = run_script(&[
            "HELO c",
            "MAIL FROM:<a@x>",
            "RCPT TO:<b@y>",
            "DATA",
            "",
            "one",
            ".",
            "MAIL FROM:<a@x>",
            "RCPT TO:<b@y>",
            "DATA",
            "",
            "two",
            ".",
            "QUIT",
        ]);
        assert_eq!(sink.len(), 2);
    }
}
