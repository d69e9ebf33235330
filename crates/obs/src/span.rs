//! Causal span tracing: a deterministic flight recorder for message
//! lifecycles.
//!
//! This module records **trees**: a [`FlightRecorder`] mints a
//! [`TraceId`] at message submission and tracks every hop of that
//! message's life — queue wait, bank round-trip, WAL group-commit,
//! delivery, ack — as parent/child [`SpanRecord`]s. Finished spans land
//! in a bounded ring;
//! [`SpanLog::validate`] checks the structural invariants (balance,
//! nesting, bank-request links) that the proptests assert.
//!
//! Determinism is the design constraint everything else bends around:
//!
//! - **Timestamps are caller-supplied** sim-clock milliseconds, never
//!   wall time.
//! - **Ids are sequence numbers.** Trace ids count submissions; span ids
//!   count span begins. Both are minted on the serial apply path of the
//!   simulator, so they are identical at any thread count.
//! - **Sampling is head-based and hash-derived**: a trace is kept iff
//!   `mix(trace_id) % sample_every == 0`, decided once at mint time, so
//!   the kept set is a pure function of the workload, not of load.
//! - **All interior iteration is over `BTreeMap`s**, so drain order is
//!   stable.
//!
//! Two runs of the same plan and seed therefore produce byte-identical
//! span logs — the property the trace-determinism CI gate asserts at
//! 1/2/4/8 threads.
//!
//! # Span lifecycle
//!
//! A parent span with live children does not close when asked to — it is
//! marked *deferred* and closes (with the requested status) at the
//! timestamp of its last child's close. This keeps the nesting invariant
//! `child.end <= parent.end` true by construction, even for
//! asynchronous tails like ack delivery. Crash faults use
//! [`FlightRecorder::close_node`], which force-closes every open span on
//! the crashed node *and all their open descendants* with
//! [`SpanStatus::Crashed`] so crashes truncate traces instead of leaking
//! open spans.

use crate::held;
use crate::metrics::Registry;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one message lifecycle: a submission sequence number.
///
/// Minted for **every** submission even when sampling discards the
/// trace, so ids are stable across sampling rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identity of one span: a global begin-order sequence number.
///
/// Span begins happen only on the simulator's serial apply path, so the
/// numbering is identical at any thread count. A child's id is always
/// greater than its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The context carried on in-flight messages: which trace, which span.
///
/// Small and `Copy` so it can ride on sim events, SMTP headers
/// (`X-Zmail-Trace: <trace>-<span>`), and bank request metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanCtx {
    /// The owning trace.
    pub trace: TraceId,
    /// This span.
    pub span: SpanId,
}

impl SpanCtx {
    /// Renders the wire form used by the `X-Zmail-Trace` header.
    pub fn wire(&self) -> String {
        format!("{}-{}", self.trace.0, self.span.0)
    }

    /// Parses the wire form (`<trace>-<span>`), `None` on malformed
    /// input.
    pub fn parse(s: &str) -> Option<SpanCtx> {
        let (t, sp) = s.split_once('-')?;
        Some(SpanCtx {
            trace: TraceId(t.trim().parse().ok()?),
            span: SpanId(sp.trim().parse().ok()?),
        })
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// Open when its node crashed; the trace is truncated here.
    Crashed,
    /// The message (or the run) was dropped before completion.
    Dropped,
}

impl SpanStatus {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Crashed => "crashed",
            SpanStatus::Dropped => "dropped",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Lifecycle phase: `submit`, `queue`, `bank_rtt`, `wal_commit`,
    /// `delivery`, `ack`, ...
    pub phase: &'static str,
    /// Where the span ran (`isp3`, `bank`, `wal`).
    pub node: String,
    /// Sim-clock start, milliseconds.
    pub start: u64,
    /// Sim-clock end, milliseconds (`>= start`).
    pub end: u64,
    /// How the span ended.
    pub status: SpanStatus,
    /// Free-form annotations (`req=<nonce>`, `to=2.7`, ...).
    pub detail: String,
}

impl SpanRecord {
    /// Span duration in sim milliseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
struct OpenSpan {
    trace: TraceId,
    parent: Option<SpanId>,
    phase: &'static str,
    node: String,
    start: u64,
    detail: String,
    /// Children begun and not yet finished.
    open_children: u32,
    /// Close requested while children were still open; the span closes
    /// with this status when its last child closes.
    deferred: Option<SpanStatus>,
}

#[derive(Debug)]
struct Inner {
    /// Open spans by id — `BTreeMap` for deterministic iteration.
    open: BTreeMap<u64, OpenSpan>,
    /// Finished-span ring.
    ring: Vec<SpanRecord>,
    head: usize,
    /// Total finished spans ever written (`dropped = written - len`).
    written: u64,
    next_trace: u64,
    next_span: u64,
    /// Keep one trace in `sample_every` (1 = keep all).
    sample_every: u64,
}

/// SplitMix64 finalizer: decorrelates sequential trace ids so `1/N`
/// head sampling keeps a well-spread subset instead of every N-th
/// submission.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A drained, ordered copy of a recorder's finished spans.
///
/// Spans appear in **close order** (a parent therefore always appears
/// after its last child). `dropped` counts spans overwritten by ring
/// wraparound before this drain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanLog {
    /// Finished spans, oldest close first.
    pub spans: Vec<SpanRecord>,
    /// Spans lost to ring overflow before this drain.
    pub dropped: u64,
}

/// The causal flight recorder.
///
/// Cloning shares the underlying state, so a recorder can be handed to
/// the world and kept by the harness. Recording when disabled is a
/// single relaxed load. All mutation must happen on the simulator's
/// serial apply path for the determinism guarantees to hold.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    enabled: Arc<AtomicBool>,
    inner: Arc<Mutex<Inner>>,
    capacity: usize,
}

impl FlightRecorder {
    /// Creates an **enabled** recorder retaining at most `capacity`
    /// finished spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "recorder capacity must be non-zero");
        FlightRecorder {
            enabled: Arc::new(AtomicBool::new(true)),
            inner: Arc::new(Mutex::new(Inner {
                open: BTreeMap::new(),
                ring: Vec::new(),
                head: 0,
                written: 0,
                next_trace: 0,
                next_span: 0,
                sample_every: 1,
            })),
            capacity,
        }
    }

    /// Creates a disabled recorder (every call is a cheap no-op until
    /// enabled).
    pub fn disabled(capacity: usize) -> Self {
        let r = Self::new(capacity);
        r.set_enabled(false);
        r
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Keep one trace in `n` (head-based, by trace-id hash). `1` keeps
    /// everything.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — use [`FlightRecorder::set_enabled`] to
    /// turn the recorder off entirely.
    pub fn set_sampling(&self, n: u64) {
        assert!(
            n > 0,
            "sample_every must be >= 1 (disable to record nothing)"
        );
        held(self.inner.lock()).sample_every = n;
    }

    /// Maximum retained finished spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mints the next trace id and, if the trace is sampled, opens its
    /// root span. Returns `None` when disabled or when sampling
    /// discards the trace (the id is still consumed, so ids are stable
    /// across sampling rates). Here and in every method below, `node`
    /// and text arguments are formatted only once a span is actually
    /// written to: pass the cheap value, not a `String` made of it.
    pub fn begin_trace(
        &self,
        ts: u64,
        phase: &'static str,
        node: impl fmt::Display,
        detail: impl fmt::Display,
    ) -> Option<SpanCtx> {
        if !self.is_enabled() {
            return None;
        }
        let mut inner = held(self.inner.lock());
        let trace = TraceId(inner.next_trace);
        inner.next_trace += 1;
        if inner.sample_every > 1 && !mix(trace.0).is_multiple_of(inner.sample_every) {
            return None;
        }
        Some(Self::open_span(
            &mut inner,
            trace,
            None,
            ts,
            phase,
            node.to_string(),
            detail.to_string(),
        ))
    }

    /// Opens a child span under `parent`. Returns `None` when disabled
    /// or when the parent is no longer open (e.g. it was force-closed by
    /// a crash) — the caller then treats the work as untraced.
    pub fn child(
        &self,
        ts: u64,
        parent: SpanCtx,
        phase: &'static str,
        node: impl fmt::Display,
        detail: impl fmt::Display,
    ) -> Option<SpanCtx> {
        if !self.is_enabled() {
            return None;
        }
        let mut inner = held(self.inner.lock());
        let p = inner.open.get_mut(&parent.span.0)?;
        p.open_children += 1;
        let trace = p.trace;
        Some(Self::open_span(
            &mut inner,
            trace,
            Some(parent.span),
            ts,
            phase,
            node.to_string(),
            detail.to_string(),
        ))
    }

    fn open_span(
        inner: &mut Inner,
        trace: TraceId,
        parent: Option<SpanId>,
        ts: u64,
        phase: &'static str,
        node: String,
        detail: String,
    ) -> SpanCtx {
        let span = SpanId(inner.next_span);
        inner.next_span += 1;
        inner.open.insert(
            span.0,
            OpenSpan {
                trace,
                parent,
                phase,
                node,
                start: ts,
                detail,
                open_children: 0,
                deferred: None,
            },
        );
        SpanCtx { trace, span }
    }

    /// Appends `; extra` to an open span's detail. No-op if the span is
    /// already closed.
    pub fn annotate(&self, ctx: SpanCtx, extra: impl fmt::Display) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = held(self.inner.lock());
        if let Some(open) = inner.open.get_mut(&ctx.span.0) {
            if !open.detail.is_empty() {
                open.detail.push_str("; ");
            }
            let _ = write!(open.detail, "{extra}"); // a `String` takes it all
        }
    }

    /// Closes a span with [`SpanStatus::Ok`] at `ts`.
    pub fn end(&self, ts: u64, ctx: SpanCtx) {
        self.end_with(ts, ctx, SpanStatus::Ok);
    }

    /// Closes a span with an explicit status.
    ///
    /// If the span still has open children, the close is deferred: the
    /// span stays open and closes with `status` at the timestamp of its
    /// last child's close, keeping `child.end <= parent.end` true by
    /// construction. Closing an already-closed span is a no-op (crash
    /// truncation and duplicate deliveries both rely on this).
    pub fn end_with(&self, ts: u64, ctx: SpanCtx, status: SpanStatus) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = held(self.inner.lock());
        let Some(open) = inner.open.get_mut(&ctx.span.0) else {
            return;
        };
        if open.open_children > 0 {
            open.deferred = Some(status);
            return;
        }
        Self::finish(&mut inner, self.capacity, ctx.span.0, ts, status);
    }

    /// Removes span `id` from the open table, records it, and cascades:
    /// if this was the parent's last open child and the parent's close
    /// was deferred, the parent finishes too (at the same timestamp).
    fn finish(inner: &mut Inner, capacity: usize, id: u64, ts: u64, status: SpanStatus) {
        let open = inner.open.remove(&id).expect("finish of unopened span");
        let record = SpanRecord {
            trace: open.trace,
            span: SpanId(id),
            parent: open.parent,
            phase: open.phase,
            node: open.node,
            start: open.start,
            end: ts.max(open.start),
            status,
            detail: open.detail,
        };
        inner.written += 1;
        if inner.ring.len() < capacity {
            inner.ring.push(record);
        } else {
            let head = inner.head;
            inner.ring[head] = record;
            inner.head = (head + 1) % capacity;
        }
        if let Some(parent) = open.parent {
            if let Some(p) = inner.open.get_mut(&parent.0) {
                p.open_children -= 1;
                if p.open_children == 0 {
                    if let Some(st) = p.deferred {
                        Self::finish(inner, capacity, parent.0, ts, st);
                    }
                }
            }
        }
    }

    /// Force-closes every open span on `node` **and all their open
    /// descendants** (on any node) with `status` at `ts`. Crash faults
    /// call this so traces are truncated rather than leaked; later
    /// closes of the truncated spans become no-ops.
    pub fn close_node(&self, ts: u64, node: impl fmt::Display, status: SpanStatus) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = held(self.inner.lock());
        if inner.open.is_empty() {
            return;
        }
        let node = node.to_string();
        // Seed with spans on the crashed node, then grow to the full
        // open-descendant closure.
        let mut doomed: std::collections::BTreeSet<u64> = inner
            .open
            .iter()
            .filter(|(_, s)| s.node == node)
            .map(|(&id, _)| id)
            .collect();
        loop {
            let grow: Vec<u64> = inner
                .open
                .iter()
                .filter(|(id, s)| {
                    !doomed.contains(id) && s.parent.is_some_and(|p| doomed.contains(&p.0))
                })
                .map(|(&id, _)| id)
                .collect();
            if grow.is_empty() {
                break;
            }
            doomed.extend(grow);
        }
        // Children first: span ids are begin-ordered, so descending id
        // order guarantees every child closes before its parent and the
        // parent's open_children count has drained by the time we reach
        // it.
        for id in doomed.into_iter().rev() {
            if inner.open.contains_key(&id) {
                Self::finish(&mut inner, self.capacity, id, ts, status);
            }
        }
    }

    /// Closes every still-open span with [`SpanStatus::Dropped`] at
    /// `ts`. Call at end of run so span starts and ends balance even
    /// for messages still queued when the horizon hit.
    pub fn finalize(&self, ts: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = held(self.inner.lock());
        let ids: Vec<u64> = inner.open.keys().rev().copied().collect();
        for id in ids {
            if inner.open.contains_key(&id) {
                Self::finish(&mut inner, self.capacity, id, ts, SpanStatus::Dropped);
            }
        }
    }

    /// Number of finished spans currently retained.
    pub fn len(&self) -> usize {
        held(self.inner.lock()).ring.len()
    }

    /// Whether no finished spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spans currently open.
    pub fn open_spans(&self) -> usize {
        held(self.inner.lock()).open.len()
    }

    /// Total traces minted so far (sampled or not).
    pub fn traces_minted(&self) -> u64 {
        held(self.inner.lock()).next_trace
    }

    /// Copies out finished spans oldest-close-first and clears the ring.
    /// Open spans are untouched — call [`FlightRecorder::finalize`]
    /// first if the run is over.
    pub fn drain(&self) -> SpanLog {
        let mut inner = held(self.inner.lock());
        let mut spans = Vec::with_capacity(inner.ring.len());
        spans.extend_from_slice(&inner.ring[inner.head..]);
        spans.extend_from_slice(&inner.ring[..inner.head]);
        let dropped = inner.written - spans.len() as u64;
        inner.ring.clear();
        inner.head = 0;
        inner.written = 0;
        SpanLog { spans, dropped }
    }
}

impl SpanLog {
    /// Groups spans by trace id (sorted).
    pub fn traces(&self) -> BTreeMap<u64, Vec<&SpanRecord>> {
        let mut map: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &self.spans {
            map.entry(s.trace.0).or_default().push(s);
        }
        map
    }

    /// Checks the structural invariants every emitted log must satisfy:
    ///
    /// - span ids are unique and `end >= start` everywhere;
    /// - every non-root span's parent is present, in the same trace,
    ///   and the child nests inside it (`parent.start <= child.start`
    ///   and `child.end <= parent.end`);
    /// - every trace has exactly one root among its recorded spans;
    /// - every `bank_rtt` span carries a parseable `req=<id>` link to
    ///   the bank request it measures.
    ///
    /// A log with ring overflow (`dropped > 0`) skips the
    /// parent-presence and single-root checks — the missing spans may
    /// simply have been overwritten.
    pub fn validate(&self) -> Result<(), String> {
        let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
        for s in &self.spans {
            if s.end < s.start {
                return Err(format!("span {} ends before it starts", s.span.0));
            }
            if by_id.insert(s.span.0, s).is_some() {
                return Err(format!("span id {} recorded twice", s.span.0));
            }
            if s.phase == "bank_rtt" {
                let ok = s
                    .detail
                    .split(|c: char| c == ';' || c.is_whitespace())
                    .filter_map(|tok| tok.trim().strip_prefix("req="))
                    .any(|v| v.parse::<u64>().is_ok());
                if !ok {
                    return Err(format!(
                        "bank_rtt span {} lacks a req=<id> link (detail: {:?})",
                        s.span.0, s.detail
                    ));
                }
            }
        }
        for s in &self.spans {
            let Some(parent) = s.parent else { continue };
            match by_id.get(&parent.0) {
                None if self.dropped > 0 => {} // overwritten by the ring
                None => {
                    return Err(format!(
                        "span {} references missing parent {}",
                        s.span.0, parent.0
                    ));
                }
                Some(p) => {
                    if p.trace != s.trace {
                        return Err(format!(
                            "span {} crosses traces ({} -> {})",
                            s.span.0, s.trace.0, p.trace.0
                        ));
                    }
                    if s.start < p.start || s.end > p.end {
                        return Err(format!(
                            "span {} [{}, {}] escapes parent {} [{}, {}]",
                            s.span.0, s.start, s.end, parent.0, p.start, p.end
                        ));
                    }
                }
            }
        }
        if self.dropped == 0 {
            for (trace, spans) in self.traces() {
                let roots = spans.iter().filter(|s| s.parent.is_none()).count();
                if roots != 1 {
                    return Err(format!("trace {trace} has {roots} roots (want 1)"));
                }
            }
        }
        Ok(())
    }

    /// Per-trace summaries of the `n` slowest traces (by root-to-last
    /// span wall), slowest first; ties break toward the older trace.
    pub fn slowest_traces(&self, n: usize) -> Vec<TraceSummary> {
        let mut out: Vec<TraceSummary> = self
            .traces()
            .into_iter()
            .map(|(trace, spans)| {
                let start = spans.iter().map(|s| s.start).min().unwrap_or(0);
                let end = spans.iter().map(|s| s.end).max().unwrap_or(0);
                let root = spans.iter().find(|s| s.parent.is_none());
                TraceSummary {
                    trace,
                    start,
                    end,
                    spans: spans.len(),
                    crashed: spans.iter().any(|s| s.status == SpanStatus::Crashed),
                    detail: root.map(|r| r.detail.clone()).unwrap_or_default(),
                    node: root.map(|r| r.node.clone()).unwrap_or_default(),
                }
            })
            .collect();
        out.sort_by(|a, b| {
            (b.end - b.start)
                .cmp(&(a.end - a.start))
                .then(a.trace.cmp(&b.trace))
        });
        out.truncate(n);
        out
    }

    /// The critical path of one trace: from the root, repeatedly follow
    /// the child whose close is latest (ties toward the later span id).
    /// Returns the chain root-first; empty if the trace is unknown or
    /// rootless.
    pub fn critical_path(&self, trace: u64) -> Vec<&SpanRecord> {
        let spans: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.trace.0 == trace).collect();
        let Some(root) = spans.iter().find(|s| s.parent.is_none()) else {
            return Vec::new();
        };
        let mut path = vec![*root];
        loop {
            let here = path.last().expect("non-empty path");
            let next = spans
                .iter()
                .filter(|s| s.parent == Some(here.span))
                .max_by_key(|s| (s.end, s.span.0));
            match next {
                Some(s) => path.push(*s),
                None => return path,
            }
        }
    }
}

/// One row of [`SpanLog::slowest_traces`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace id.
    pub trace: u64,
    /// Earliest span start in the trace (sim ms).
    pub start: u64,
    /// Latest span end in the trace (sim ms).
    pub end: u64,
    /// Number of recorded spans.
    pub spans: usize,
    /// Whether any span ended with [`SpanStatus::Crashed`].
    pub crashed: bool,
    /// Root span detail (submission annotation).
    pub detail: String,
    /// Root span node.
    pub node: String,
}

impl TraceSummary {
    /// Total trace wall in sim milliseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Folds a finished span log into latency-attribution metrics:
/// `trace.phase.<phase>` histograms of span durations (sim ms), plus
/// `trace.spans` / `trace.traces` / `trace.crashed` / `trace.dropped`
/// counters. Deterministic logs fold to `==` snapshots.
pub fn attribute(log: &SpanLog, registry: &Registry) {
    let mut roots = 0u64;
    let mut crashed = 0u64;
    for span in &log.spans {
        registry
            .histogram(&format!("trace.phase.{}", span.phase))
            .record(span.duration());
        if span.parent.is_none() {
            roots += 1;
        }
        if span.status == SpanStatus::Crashed {
            crashed += 1;
        }
    }
    registry.counter("trace.spans").add(log.spans.len() as u64);
    registry.counter("trace.traces").add(roots);
    registry.counter("trace.crashed").add(crashed);
    registry.counter("trace.dropped").add(log.dropped);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorder_poisoned_from_another_thread_still_answers() {
        let r = FlightRecorder::new(8);
        let root = r.begin_trace(1, "submit", "gateway", "").unwrap();
        let poisoner = r.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.inner.lock();
            panic!("under the recorder lock");
        })
        .join()
        .expect_err("the poisoner panics");
        assert!(r.inner.is_poisoned());
        // Every entry point looks through the poison, as the gateway —
        // which calls these under its ledger lock — needs it to.
        r.set_sampling(1);
        r.annotate(root, "after the panic");
        let child = r.child(2, root, "delivery", "isp1", "").unwrap();
        r.end(3, child);
        r.end_with(3, root, SpanStatus::Ok);
        assert_eq!((r.open_spans(), r.len(), r.traces_minted()), (0, 2, 1));
        let straggler = r.begin_trace(4, "submit", "gateway", "").unwrap();
        r.close_node(5, "nowhere", SpanStatus::Dropped);
        r.finalize(6);
        let log = r.drain();
        log.validate().expect("well-formed");
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[2].span, straggler.span);
        assert!(log.spans[0].detail.is_empty() && log.spans[1].detail == "after the panic");
    }

    #[test]
    fn begin_child_end_records_a_nested_trace() {
        let r = FlightRecorder::new(64);
        let root = r.begin_trace(10, "submit", "isp0", "to=1.2").unwrap();
        let child = r.child(12, root, "delivery", "isp1", "").unwrap();
        r.end(20, child);
        r.end(20, root);
        let log = r.drain();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.dropped, 0);
        // Close order: child first.
        assert_eq!(log.spans[0].phase, "delivery");
        assert_eq!(log.spans[1].phase, "submit");
        assert_eq!(log.spans[0].parent, Some(root.span));
        log.validate().unwrap();
    }

    #[test]
    fn parent_close_defers_until_last_child() {
        let r = FlightRecorder::new(64);
        let root = r.begin_trace(0, "submit", "isp0", "").unwrap();
        let child = r.child(5, root, "ack", "isp1", "").unwrap();
        r.end(7, root); // deferred: child still open
        assert_eq!(r.len(), 0);
        r.end(30, child);
        let log = r.drain();
        assert_eq!(log.spans.len(), 2);
        let parent = &log.spans[1];
        assert_eq!(parent.phase, "submit");
        assert_eq!(parent.end, 30, "parent end stretches to last child");
        log.validate().unwrap();
    }

    #[test]
    fn close_node_truncates_subtrees_as_crashed() {
        let r = FlightRecorder::new(64);
        let root = r.begin_trace(0, "submit", "isp0", "").unwrap();
        let bank = r.child(1, root, "bank_rtt", "isp0", "req=42").unwrap();
        let other = r.begin_trace(2, "submit", "isp1", "").unwrap();
        r.close_node(9, "isp0", SpanStatus::Crashed);
        // Both isp0 spans are closed crashed; the isp1 trace is intact.
        assert_eq!(r.open_spans(), 1);
        // Closing a truncated span later is a no-op.
        r.end(20, bank);
        r.end(20, root);
        r.end(25, other);
        let log = r.drain();
        assert_eq!(log.spans.len(), 3);
        assert!(log.spans[..2]
            .iter()
            .all(|s| s.status == SpanStatus::Crashed && s.end == 9));
        assert_eq!(log.spans[2].status, SpanStatus::Ok);
        log.validate().unwrap();
    }

    #[test]
    fn finalize_closes_leftovers_as_dropped() {
        let r = FlightRecorder::new(64);
        let root = r.begin_trace(0, "submit", "isp0", "").unwrap();
        r.child(1, root, "queue", "isp0", "").unwrap();
        r.finalize(100);
        assert_eq!(r.open_spans(), 0);
        let log = r.drain();
        assert_eq!(log.spans.len(), 2);
        assert!(log.spans.iter().all(|s| s.status == SpanStatus::Dropped));
        log.validate().unwrap();
    }

    #[test]
    fn sampling_is_deterministic_and_ids_are_stable() {
        let sampled_at = |n: u64| -> Vec<u64> {
            let r = FlightRecorder::new(1024);
            r.set_sampling(n);
            let mut kept = Vec::new();
            for i in 0..200 {
                if let Some(ctx) = r.begin_trace(i, "submit", "isp0", "") {
                    r.end(i + 1, ctx);
                    kept.push(ctx.trace.0);
                }
            }
            kept
        };
        let all = sampled_at(1);
        assert_eq!(all.len(), 200);
        let eighth = sampled_at(8);
        assert_eq!(eighth, sampled_at(8), "same ids kept on every run");
        assert!(eighth.len() < 60, "1/8 sampling keeps roughly 1/8");
        assert!(!eighth.is_empty());
        // Sampled subset uses the same id space.
        assert!(eighth.iter().all(|id| all.contains(id)));
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            let ctx = r.begin_trace(i, "submit", "isp0", "").unwrap();
            r.end(i, ctx);
        }
        let log = r.drain();
        assert_eq!(log.spans.len(), 4);
        assert_eq!(log.dropped, 6);
    }

    #[test]
    fn validate_rejects_escaping_children() {
        let mk = |end| SpanLog {
            spans: vec![
                SpanRecord {
                    trace: TraceId(0),
                    span: SpanId(1),
                    parent: Some(SpanId(0)),
                    phase: "delivery",
                    node: "isp1".into(),
                    start: 5,
                    end,
                    status: SpanStatus::Ok,
                    detail: String::new(),
                },
                SpanRecord {
                    trace: TraceId(0),
                    span: SpanId(0),
                    parent: None,
                    phase: "submit",
                    node: "isp0".into(),
                    start: 0,
                    end: 10,
                    status: SpanStatus::Ok,
                    detail: String::new(),
                },
            ],
            dropped: 0,
        };
        mk(10).validate().unwrap();
        assert!(mk(11).validate().is_err());
    }

    #[test]
    fn validate_requires_bank_links() {
        let log = SpanLog {
            spans: vec![SpanRecord {
                trace: TraceId(0),
                span: SpanId(0),
                parent: None,
                phase: "bank_rtt",
                node: "isp0".into(),
                start: 0,
                end: 3,
                status: SpanStatus::Ok,
                detail: "retry".into(),
            }],
            dropped: 0,
        };
        assert!(log.validate().is_err());
        let mut ok = log.clone();
        ok.spans[0].detail = "req=7; retry".into();
        ok.validate().unwrap();
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled(8);
        assert!(r.begin_trace(0, "submit", "isp0", "").is_none());
        assert_eq!(r.traces_minted(), 0);
        r.set_enabled(true);
        assert!(r.begin_trace(0, "submit", "isp0", "").is_some());
    }

    /// Node names and texts are converted only for a span that is
    /// written to: a recorder that is off, a trace sampling discards, a
    /// parent already closed and a node sweep with nothing open all
    /// leave their arguments unbuilt.
    #[test]
    fn text_is_built_only_for_a_span_that_is_written_to() {
        struct Unbuilt;
        impl fmt::Display for Unbuilt {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("text built")
            }
        }
        let r = FlightRecorder::new(8);
        let root = r.begin_trace(0, "submit", "isp0", "").unwrap();
        r.end(1, root);
        assert!(r.child(1, root, "ack", Unbuilt, Unbuilt).is_none());
        r.annotate(root, Unbuilt);
        r.close_node(1, Unbuilt, SpanStatus::Crashed);
        r.set_sampling(u64::MAX);
        assert!(r.begin_trace(2, "submit", Unbuilt, Unbuilt).is_none());
        let open = {
            r.set_sampling(1);
            r.begin_trace(3, "submit", "isp0", "").unwrap()
        };
        r.set_enabled(false);
        assert!(r.begin_trace(4, "submit", Unbuilt, Unbuilt).is_none());
        assert!(r.child(4, open, "ack", Unbuilt, Unbuilt).is_none());
        r.annotate(open, Unbuilt);
        r.close_node(4, Unbuilt, SpanStatus::Crashed);
        assert_eq!((r.open_spans(), r.traces_minted()), (1, 3));
    }

    #[test]
    fn attribute_folds_phases_and_counts() {
        let r = FlightRecorder::new(64);
        let root = r.begin_trace(0, "submit", "isp0", "").unwrap();
        let d = r.child(2, root, "delivery", "isp1", "").unwrap();
        r.end(9, d);
        r.end(9, root);
        let registry = Registry::new();
        attribute(&r.drain(), &registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["trace.spans"], 2);
        assert_eq!(snap.counters["trace.traces"], 1);
        assert_eq!(snap.counters["trace.dropped"], 0);
        assert_eq!(snap.histograms["trace.phase.delivery"].max, 7);
        assert_eq!(snap.histograms["trace.phase.submit"].max, 9);
    }

    #[test]
    fn critical_path_and_slowest() {
        let r = FlightRecorder::new(64);
        let root = r.begin_trace(0, "submit", "isp0", "m0").unwrap();
        let fast = r.child(1, root, "wal_commit", "wal", "").unwrap();
        r.end(1, fast);
        let slow = r.child(2, root, "delivery", "isp1", "").unwrap();
        r.end(40, slow);
        r.end(40, root);
        let quick = r.begin_trace(50, "submit", "isp1", "m1").unwrap();
        r.end(51, quick);
        let log = r.drain();
        let slowest = log.slowest_traces(10);
        assert_eq!(slowest.len(), 2);
        assert_eq!(slowest[0].trace, root.trace.0);
        assert_eq!(slowest[0].duration(), 40);
        let path = log.critical_path(root.trace.0);
        let phases: Vec<&str> = path.iter().map(|s| s.phase).collect();
        assert_eq!(phases, vec!["submit", "delivery"]);
    }

    #[test]
    fn span_ctx_wire_roundtrip() {
        let ctx = SpanCtx {
            trace: TraceId(17),
            span: SpanId(93),
        };
        assert_eq!(ctx.wire(), "17-93");
        assert_eq!(SpanCtx::parse("17-93"), Some(ctx));
        assert_eq!(SpanCtx::parse("17"), None);
        assert_eq!(SpanCtx::parse("a-b"), None);
    }
}
