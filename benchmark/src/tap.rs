//! Outside-in instrumentation: the benchmark's own spans and exact
//! counts, taken by wrapping the program's public traits.
//!
//! A [`Tap`] is shared by every decorator of one pass. In the untraced
//! pass it is off and the decorators forward without reading a clock, so
//! both passes run the same types; in the traced pass each decorator
//! records one span per call and adds to the exact counters. Spans stay
//! in memory until the run ends ([`Tap::write_chrome`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use zmail_load::HEADER_LOAD_SEQ;
use zmail_smtp::{Connection, MailMessage, MailSink, SinkError};
use zmail_store::Storage;

/// One harness-side span. `id` groups the spans of one message (its
/// `X-Load-Seq`) or one repetition; `parent` names the enclosing span of
/// the same `id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: Option<&'static str>,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Exact counts taken at the wrapped boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `Connection::send_line` calls on the client.
    pub lines_sent: u64,
    /// `Connection::recv_line` calls on the client.
    pub reads: u64,
    /// Bytes crossing the client connection, both ways, CRLF included.
    pub wire_bytes: u64,
    /// `Storage::append` calls and their bytes.
    pub appends: u64,
    pub append_bytes: u64,
    /// `Storage::sync` calls.
    pub syncs: u64,
    /// `Storage::write` calls (checkpoint images) and their bytes.
    pub writes: u64,
    pub write_bytes: u64,
}

pub struct Tap {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Id given to storage spans: the message the outer sink is inside.
    /// Exact because every wire workload keeps one message in flight.
    current: AtomicU64,
    counts: Mutex<Counts>,
}

impl Tap {
    pub fn new(on: bool) -> Tap {
        Tap {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicU64::new(0),
            counts: Mutex::new(Counts::default()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the id later storage spans are filed under.
    pub fn set_current(&self, id: u64) {
        self.current.store(id, Ordering::Relaxed);
    }

    /// Records a finished span; a no-op when the tap is off.
    pub fn span(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<&'static str>,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            layer,
            parent,
            id,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Runs `op` inside a span filed under `id`.
    pub fn timed<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<&'static str>,
        id: u64,
        op: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return op();
        }
        let start = Instant::now();
        let out = op();
        self.span(name, layer, parent, id, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span buffer lock")
    }

    /// Adds to the exact counts; a no-op when the tap is off.
    fn count(&self, add: impl FnOnce(&mut Counts)) {
        if self.on {
            add(&mut self.counts.lock().expect("counts lock"));
        }
    }

    pub fn counts(&self) -> Counts {
        *self.counts.lock().expect("counts lock")
    }

    /// Writes the first `limit` spans in the Chrome-trace shape
    /// `zmail_obs::export::chrome_trace` produces (one process per layer,
    /// complete `X` events, `args.trace`/`span`/`parent`), with `ts` and
    /// `dur` in microseconds.
    pub fn write_chrome(&self, path: &Path, limit: usize) -> io::Result<()> {
        let spans = self.spans();
        let spans = &spans[..spans.len().min(limit)];
        let mut layers: Vec<&'static str> = spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let index_of: HashMap<(u64, &'static str), usize> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.id, s.name), i))
            .collect();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (pid, layer) in layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":\"{layer}\"}}}},",
                pid + 1
            );
        }
        for (i, s) in spans.iter().enumerate() {
            let pid = layers.binary_search(&s.layer).expect("layer listed") + 1;
            let parent = s
                .parent
                .and_then(|p| index_of.get(&(s.id, p)))
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"zmail\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"trace\":{},\"span\":{i},\"parent\":{parent}}}}}{comma}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Times every `deliver` through `inner` as one span named `name`.
pub struct TimedSink<S> {
    inner: S,
    tap: Arc<Tap>,
    name: &'static str,
    layer: &'static str,
    parent: Option<&'static str>,
    /// The outermost sink names the message storage spans belong to.
    outermost: bool,
}

impl<S: Clone> Clone for TimedSink<S> {
    fn clone(&self) -> Self {
        TimedSink {
            inner: self.inner.clone(),
            tap: Arc::clone(&self.tap),
            name: self.name,
            layer: self.layer,
            parent: self.parent,
            outermost: self.outermost,
        }
    }
}

impl<S> TimedSink<S> {
    pub fn new(
        inner: S,
        tap: &Arc<Tap>,
        name: &'static str,
        layer: &'static str,
        parent: Option<&'static str>,
    ) -> Self {
        TimedSink {
            inner,
            tap: Arc::clone(tap),
            name,
            layer,
            parent,
            outermost: false,
        }
    }

    pub fn outermost(mut self) -> Self {
        self.outermost = true;
        self
    }
}

impl<S: MailSink> MailSink for TimedSink<S> {
    fn accept_recipient(&self, from: &str, to: &str) -> bool {
        self.inner.accept_recipient(from, to)
    }

    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        if !self.tap.is_on() {
            return self.inner.deliver(message);
        }
        let id = message
            .header(HEADER_LOAD_SEQ)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if self.outermost {
            self.tap.set_current(id);
        }
        let start = Instant::now();
        let result = self.inner.deliver(message);
        self.tap.span(
            self.name,
            self.layer,
            self.parent,
            id,
            start,
            Instant::now(),
        );
        result
    }
}

/// Counts and times every mutating call on a [`Storage`] backend.
pub struct TimedStorage<S> {
    inner: S,
    tap: Arc<Tap>,
    layer: &'static str,
    parent: Option<&'static str>,
}

impl<S> TimedStorage<S> {
    pub fn new(
        inner: S,
        tap: &Arc<Tap>,
        layer: &'static str,
        parent: Option<&'static str>,
    ) -> Self {
        TimedStorage {
            inner,
            tap: Arc::clone(tap),
            layer,
            parent,
        }
    }

    fn op<T>(&mut self, name: &'static str, op: impl FnOnce(&mut S) -> T) -> T {
        let id = self.tap.current.load(Ordering::Relaxed);
        let inner = &mut self.inner;
        self.tap
            .timed(name, self.layer, self.parent, id, || op(inner))
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn read(&self, name: &str) -> Vec<u8> {
        self.inner.read(name)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        self.tap.count(|c| {
            c.writes += 1;
            c.write_bytes += bytes.len() as u64;
        });
        self.op("storage.write", |s| s.write(name, bytes));
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        self.tap.count(|c| {
            c.appends += 1;
            c.append_bytes += bytes.len() as u64;
        });
        self.op("storage.append", |s| s.append(name, bytes));
    }

    fn sync(&mut self, name: &str) {
        self.tap.count(|c| c.syncs += 1);
        self.op("storage.sync", |s| s.sync(name));
    }

    fn len(&self, name: &str) -> u64 {
        self.inner.len(name)
    }

    fn truncate(&mut self, name: &str, len: u64) {
        self.inner.truncate(name, len);
    }
}

/// Counts the lines, reads and bytes of the client side of a connection.
pub struct CountingConnection<C> {
    inner: C,
    tap: Arc<Tap>,
}

impl<C> CountingConnection<C> {
    pub fn new(inner: C, tap: &Arc<Tap>) -> Self {
        CountingConnection {
            inner,
            tap: Arc::clone(tap),
        }
    }
}

impl<C: Connection> Connection for CountingConnection<C> {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.tap.count(|c| {
            c.lines_sent += 1;
            c.wire_bytes += line.len() as u64 + 2;
        });
        self.inner.send_line(line)
    }

    fn recv_line(&mut self) -> io::Result<Option<String>> {
        let line = self.inner.recv_line()?;
        self.tap.count(|c| {
            c.reads += 1;
            c.wire_bytes += line.as_ref().map_or(0, |l| l.len() as u64 + 2);
        });
        Ok(line)
    }
}

/// Accepts and drops everything: the sink of the wire-only probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl MailSink for NoopSink {
    fn deliver(&self, _message: MailMessage) -> Result<(), SinkError> {
        Ok(())
    }
}
