//! Transports: line-based connections over memory channels or real TCP.
//!
//! The substrate separates the SMTP state machines from byte transport via
//! the [`Connection`] trait. [`MemoryTransport`] gives tests and simulations
//! a zero-cost loopback; [`TcpConnection`] runs the same state machines
//! over real sockets — [`crate::ThreadedServer`] is the accept loop that
//! serves them — for the end-to-end deployability experiment (E11).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use zmail_fault::{LineFaults, LineVerdict};
use zmail_sim::Sampler;

/// A bidirectional, line-oriented connection (CRLF framing handled by the
/// implementation).
pub trait Connection {
    /// Sends one line; the implementation appends CRLF.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the peer is gone.
    fn send_line(&mut self, line: &str) -> io::Result<()>;

    /// Receives one line without its CRLF; `Ok(None)` signals a clean EOF.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the transport fails mid-line.
    fn recv_line(&mut self) -> io::Result<Option<String>>;
}

/// An in-memory duplex connection built from two channel pairs.
///
/// Dropping one endpoint makes the peer's `recv_line` return `Ok(None)`.
#[derive(Debug)]
pub struct MemoryTransport {
    tx: Sender<String>,
    rx: Receiver<String>,
}

impl MemoryTransport {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (MemoryTransport, MemoryTransport) {
        let (a_tx, a_rx) = channel();
        let (b_tx, b_rx) = channel();
        (
            MemoryTransport { tx: a_tx, rx: b_rx },
            MemoryTransport { tx: b_tx, rx: a_rx },
        )
    }
}

impl Connection for MemoryTransport {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.tx
            .send(line.to_string())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer endpoint dropped"))
    }

    fn recv_line(&mut self) -> io::Result<Option<String>> {
        match self.rx.recv() {
            Ok(line) => Ok(Some(line)),
            Err(_) => Ok(None), // peer dropped: clean EOF
        }
    }
}

/// A [`Connection`] wrapper that injects deterministic line-level faults
/// on the **send** path: drops, duplicates, and single-byte garbling, all
/// drawn from a seeded [`Sampler`] so any failure replays exactly.
///
/// The receive path is untouched — wrap both endpoints to fault both
/// directions. Counters record what was injected so tests can assert the
/// server survived *actual* noise, not a lucky all-clean run.
#[derive(Debug)]
pub struct FaultyConnection<C: Connection> {
    inner: C,
    faults: LineFaults,
    sampler: Sampler,
    /// Lines silently swallowed on send.
    pub dropped: u64,
    /// Lines sent twice.
    pub duplicated: u64,
    /// Lines with one byte corrupted.
    pub garbled: u64,
}

impl<C: Connection> FaultyConnection<C> {
    /// Wraps `inner`, drawing every fault decision from `sampler`.
    pub fn new(inner: C, faults: LineFaults, sampler: Sampler) -> Self {
        FaultyConnection {
            inner,
            faults,
            sampler,
            dropped: 0,
            duplicated: 0,
            garbled: 0,
        }
    }

    /// Unwraps back to the underlying transport.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Connection> Connection for FaultyConnection<C> {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        match self.faults.decide(&mut self.sampler, line.len()) {
            LineVerdict::Deliver => self.inner.send_line(line),
            LineVerdict::Drop => {
                self.dropped += 1;
                Ok(())
            }
            LineVerdict::Duplicate => {
                self.duplicated += 1;
                self.inner.send_line(line)?;
                self.inner.send_line(line)
            }
            LineVerdict::Garble {
                pos,
                byte,
                duplicated,
            } => {
                self.garbled += 1;
                let mut bytes = line.as_bytes().to_vec();
                bytes[pos] = byte;
                // The replacement byte is printable ASCII, so the line
                // stays valid UTF-8 unless it lands inside a multi-byte
                // sequence — fall back to lossy decoding in that case.
                let garbled_line = String::from_utf8_lossy(&bytes).into_owned();
                self.inner.send_line(&garbled_line)?;
                if duplicated {
                    self.duplicated += 1;
                    self.inner.send_line(&garbled_line)?;
                }
                Ok(())
            }
        }
    }

    fn recv_line(&mut self) -> io::Result<Option<String>> {
        self.inner.recv_line()
    }
}

/// Binds a fresh loopback listener (`127.0.0.1:0`), retrying transient
/// failures.
///
/// Port 0 asks the kernel for a free ephemeral port, but a heavily
/// parallel test run can momentarily exhaust the ephemeral range
/// (`AddrInUse`/`AddrNotAvailable`). Rather than every caller handling
/// that, bind attempts back off deterministically (5 ms × attempt) and
/// retry up to `attempts` times, so concurrent test processes cannot
/// flake on a port collision.
///
/// # Errors
///
/// Returns the last bind error once the attempts are exhausted.
pub fn bind_loopback(attempts: u32) -> io::Result<TcpListener> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match TcpListener::bind("127.0.0.1:0") {
            Ok(listener) => return Ok(listener),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(5 * u64::from(attempt + 1)));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::new(io::ErrorKind::AddrInUse, "bind failed")))
}

/// The most a [`TcpConnection`] buffers of one line, CRLF included: RFC
/// 5321 §4.5.3.1.6's text-line limit (the longest line this repository
/// sends is under 200). A longer line is an [`io::ErrorKind::InvalidData`]
/// error from `recv_line`, which [`SmtpServer`](crate::SmtpServer)
/// answers with `500` before it closes the session.
pub const MAX_LINE_BYTES: usize = 1000;

/// A line-framed connection over a real TCP stream.
#[derive(Debug)]
pub struct TcpConnection {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl TcpConnection {
    /// Wraps an accepted or connected stream.
    ///
    /// Disables Nagle's algorithm: SMTP is a lockstep request/reply
    /// protocol of small lines, the worst case for delayed-ACK
    /// interaction.
    pub fn new(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        TcpConnection {
            stream,
            buffer: Vec::with_capacity(8 * 1024),
        }
    }

    /// Connects to a listening server.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self::new(TcpStream::connect(addr)?))
    }
}

impl Connection for TcpConnection {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\r\n")?;
        Ok(())
    }

    fn recv_line(&mut self) -> io::Result<Option<String>> {
        loop {
            let end = self.buffer.windows(2).position(|w| w == b"\r\n");
            if end.map_or(self.buffer.len(), |pos| pos + 2) > MAX_LINE_BYTES {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
            }
            if let Some(pos) = end {
                let line = String::from_utf8_lossy(&self.buffer[..pos]).into_owned();
                self.buffer.drain(..pos + 2);
                return Ok(Some(line));
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Ok(None);
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pair_exchanges_lines_both_ways() {
        let (mut a, mut b) = MemoryTransport::pair();
        a.send_line("ping").unwrap();
        assert_eq!(b.recv_line().unwrap(), Some("ping".into()));
        b.send_line("pong").unwrap();
        assert_eq!(a.recv_line().unwrap(), Some("pong".into()));
    }

    #[test]
    fn memory_eof_on_peer_drop() {
        let (mut a, b) = MemoryTransport::pair();
        drop(b);
        assert!(a.send_line("into the void").is_err());
        assert_eq!(a.recv_line().unwrap(), None);
    }

    #[test]
    fn memory_lines_are_fifo() {
        let (mut a, mut b) = MemoryTransport::pair();
        for i in 0..10 {
            a.send_line(&format!("l{i}")).unwrap();
        }
        for i in 0..10 {
            assert_eq!(b.recv_line().unwrap(), Some(format!("l{i}")));
        }
    }

    #[test]
    fn faulty_connection_is_transparent_with_no_faults() {
        let (a, mut b) = MemoryTransport::pair();
        let mut a = FaultyConnection::new(a, LineFaults::none(), Sampler::new(1));
        a.send_line("MAIL FROM:<u@x>").unwrap();
        assert_eq!(b.recv_line().unwrap(), Some("MAIL FROM:<u@x>".into()));
        assert_eq!((a.dropped, a.duplicated, a.garbled), (0, 0, 0));
    }

    #[test]
    fn faulty_connection_drops_and_duplicates_deterministically() {
        let run = |seed| {
            let (a, mut b) = MemoryTransport::pair();
            let faults = LineFaults {
                drop: 0.3,
                duplicate: 0.3,
                garble: 0.0,
            };
            let mut a = FaultyConnection::new(a, faults, Sampler::new(seed));
            for i in 0..50 {
                a.send_line(&format!("line {i}")).unwrap();
            }
            drop(a.into_inner());
            let mut received = Vec::new();
            while let Some(line) = b.recv_line().unwrap() {
                received.push(line);
            }
            received
        };
        let first = run(42);
        // Byte-identical replay from the same seed.
        assert_eq!(first, run(42));
        // With 50 lines at 30%/30%, both fault kinds fire.
        assert!(first.len() != 50, "faults should change the line count");
    }

    #[test]
    fn faulty_connection_garbles_exactly_one_byte() {
        let (a, mut b) = MemoryTransport::pair();
        let faults = LineFaults {
            drop: 0.0,
            duplicate: 0.0,
            garble: 1.0,
        };
        let mut a = FaultyConnection::new(a, faults, Sampler::new(7));
        a.send_line("HELO example.org").unwrap();
        let got = b.recv_line().unwrap().unwrap();
        assert_eq!(got.len(), "HELO example.org".len());
        let differing = got
            .bytes()
            .zip("HELO example.org".bytes())
            .filter(|(x, y)| x != y)
            .count();
        assert_eq!(differing, 1);
        assert_eq!(a.garbled, 1);
    }

    #[test]
    fn tcp_connection_roundtrips_lines() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpConnection::new(stream);
            let got = conn.recv_line().unwrap().unwrap();
            conn.send_line(&format!("echo: {got}")).unwrap();
            // Two lines arriving in one TCP segment must both frame.
            let one = conn.recv_line().unwrap().unwrap();
            let two = conn.recv_line().unwrap().unwrap();
            conn.send_line(&format!("{one}+{two}")).unwrap();
        });
        let mut client = TcpConnection::connect(addr).unwrap();
        client.send_line("hello").unwrap();
        assert_eq!(client.recv_line().unwrap(), Some("echo: hello".into()));
        // Write both lines in a single syscall to exercise buffering.
        client.stream.write_all(b"a\r\nb\r\n").unwrap();
        assert_eq!(client.recv_line().unwrap(), Some("a+b".into()));
        server.join().unwrap();
    }

    #[test]
    fn tcp_eof_reported_as_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
        });
        let mut client = TcpConnection::connect(addr).unwrap();
        assert_eq!(client.recv_line().unwrap(), None);
        server.join().unwrap();
    }
}
