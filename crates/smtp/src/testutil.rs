//! Shared test helpers for the in-crate unit tests.
//!
//! The `spawn_server` helper used to be copied verbatim into every test
//! module that needed a live session over [`MemoryTransport`]; it lives
//! here once now. TCP-based tests should go through
//! [`crate::transport::bind_loopback`], which retries transient bind
//! failures so parallel test runs cannot collide on ephemeral ports.

use crate::server::{MailSink, SmtpServer};
use crate::transport::MemoryTransport;
use std::thread::JoinHandle;

/// Spawns a single-session server over a fresh in-memory transport.
///
/// Returns the client endpoint and the server thread, which yields the
/// number of messages the session accepted. The session must end cleanly
/// (`QUIT` or client drop); a transport error panics the server thread.
pub fn spawn_server<S: MailSink + Send + 'static>(sink: S) -> (MemoryTransport, JoinHandle<usize>) {
    let (client_conn, server_conn) = MemoryTransport::pair();
    let handle =
        std::thread::spawn(move || SmtpServer::new("mx.test", sink).serve(server_conn).unwrap());
    (client_conn, handle)
}
