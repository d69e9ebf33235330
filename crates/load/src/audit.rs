//! Conservation audit: the server's half of the accepted-message ledger.
//!
//! The generator records every schedule seq that got a `250`
//! ([`LoadReport::acked_seqs`](crate::runner::LoadReport::acked_seqs));
//! this sink records every [`HEADER_LOAD_SEQ`] the server-side sink chain
//! actually committed. After a run the two lists must match **exactly** —
//! every acked message present once, no duplicates, no ghosts. A shed or
//! bounced message appears in neither.

use crate::runner::HEADER_LOAD_SEQ;
use std::sync::{Arc, LockResult, Mutex, PoisonError};
use zmail_smtp::{MailMessage, MailSink, SinkError};

/// The one way this file takes the record's lock: past poison. Every
/// update under it is one `push`, so a guard a panicking thread left
/// behind protects nothing inconsistent.
fn held<T>(guard: LockResult<T>) -> T {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// A pass-through sink that records the `X-Load-Seq` of every message the
/// inner sink accepted. Clones share the same record.
#[derive(Debug, Clone)]
pub struct SeqAuditSink<S> {
    inner: S,
    seen: Arc<Mutex<Vec<u64>>>,
}

impl<S> SeqAuditSink<S> {
    /// Wraps `inner`; only deliveries `inner` accepts are recorded.
    pub fn new(inner: S) -> Self {
        SeqAuditSink {
            inner,
            seen: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The inner sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// All recorded seqs, sorted ascending (duplicates preserved, so a
    /// double delivery is visible as a repeated entry).
    pub fn seqs(&self) -> Vec<u64> {
        let mut out = held(self.seen.lock()).clone();
        out.sort_unstable();
        out
    }
}

impl<S: MailSink> MailSink for SeqAuditSink<S> {
    fn accept_recipient(&self, from: &str, to: &str) -> bool {
        self.inner.accept_recipient(from, to)
    }

    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        let seq = message
            .header(HEADER_LOAD_SEQ)
            .and_then(|v| v.parse::<u64>().ok());
        self.inner.deliver(message)?;
        if let Some(seq) = seq {
            held(self.seen.lock()).push(seq);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmail_smtp::CollectSink;

    fn msg(seq: u64) -> MailMessage {
        MailMessage::builder("a@x", "b@y")
            .header(HEADER_LOAD_SEQ, seq.to_string())
            .body("hi")
            .build()
    }

    #[test]
    fn records_only_accepted_seqs() {
        let audit = SeqAuditSink::new(CollectSink::shared());
        audit.deliver(msg(3)).unwrap();
        audit.deliver(msg(1)).unwrap();
        assert_eq!(audit.seqs(), vec![1, 3]);
        assert_eq!(audit.inner().len(), 2);
    }

    #[test]
    fn rejected_deliveries_are_not_recorded() {
        struct RejectAll;
        impl MailSink for RejectAll {
            fn deliver(&self, _m: MailMessage) -> Result<(), SinkError> {
                Err(SinkError::reject("no"))
            }
        }
        let audit = SeqAuditSink::new(RejectAll);
        assert!(audit.deliver(msg(7)).is_err());
        assert!(audit.seqs().is_empty());
    }

    #[test]
    fn clones_share_the_record_and_duplicates_stay_visible() {
        let audit = SeqAuditSink::new(CollectSink::shared());
        let other = audit.clone();
        audit.deliver(msg(5)).unwrap();
        other.deliver(msg(5)).unwrap();
        assert_eq!(audit.seqs(), vec![5, 5]);
    }

    #[test]
    fn messages_without_the_header_pass_through_unrecorded() {
        let audit = SeqAuditSink::new(CollectSink::shared());
        audit
            .deliver(MailMessage::builder("a@x", "b@y").body("plain").build())
            .unwrap();
        assert!(audit.seqs().is_empty());
        assert_eq!(audit.inner().len(), 1);
    }
}
