//! The declarative workload specification.
//!
//! A workload is described by one flat struct — the same idea as
//! berserker's workload configs: everything that shapes the traffic is
//! data, so a run is reproducible from `(spec, seed)` alone.

use std::fmt;

/// How send instants are drawn. See [`crate::arrival`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless Poisson arrivals: i.i.d. exponential interarrivals at
    /// the configured rate.
    Poisson,
    /// Poisson baseline with periodic bursts at `multiplier ×` the rate.
    Bursty,
}

/// The burst shape for [`ArrivalKind::Bursty`].
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSpec {
    /// Full burst cycle length, milliseconds.
    pub period_ms: u64,
    /// Leading slice of each cycle that bursts, milliseconds.
    pub burst_ms: u64,
    /// Rate multiplier inside the burst slice.
    pub multiplier: f64,
}

impl Default for BurstSpec {
    fn default() -> Self {
        BurstSpec {
            period_ms: 1_000,
            burst_ms: 200,
            multiplier: 5.0,
        }
    }
}

/// A complete open-loop workload description.
///
/// The schedule a spec produces is a pure function of the spec (see
/// [`crate::arrival::schedule`]): same spec, same bytes, regardless of
/// how many worker threads later execute it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable run label.
    pub name: String,
    /// Seed for every random draw in the schedule.
    pub seed: u64,
    /// Open-loop offered rate, messages per second.
    pub rate_per_sec: f64,
    /// Schedule horizon, milliseconds.
    pub duration_ms: u64,
    /// Worker threads executing the schedule.
    pub workers: usize,
    /// SMTP connections each worker keeps pooled.
    pub connections_per_worker: usize,
    /// Size of the sender population (Zipf-weighted).
    pub senders: u32,
    /// Size of the recipient population (Zipf-weighted).
    pub recipients: u32,
    /// Zipf exponent for both populations (`1.0` ≈ classic web skew).
    pub zipf_s: f64,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Burst shape, used only when `arrival = "bursty"`.
    pub burst: BurstSpec,
    /// Sender mailbox template; `{}` is replaced by the drawn index.
    pub sender_template: String,
    /// Recipient mailbox template; `{}` is replaced by the drawn index.
    pub recipient_template: String,
    /// Message body sent with every message.
    pub body: String,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "workload".into(),
            seed: 1,
            rate_per_sec: 200.0,
            duration_ms: 1_000,
            workers: 2,
            connections_per_worker: 2,
            senders: 100,
            recipients: 100,
            zipf_s: 1.1,
            arrival: ArrivalKind::Poisson,
            burst: BurstSpec::default(),
            sender_template: "sender{}@load.example".into(),
            recipient_template: "rcpt{}@sink.example".into(),
            body: "open-loop probe body\r\n".into(),
        }
    }
}

impl WorkloadSpec {
    /// Total connections across the worker pool.
    pub fn total_connections(&self) -> usize {
        self.workers.max(1) * self.connections_per_worker.max(1)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let bad = |field: &str, why: &str| {
            Err(SpecError {
                message: format!("{field}: {why}"),
            })
        };
        if !(self.rate_per_sec.is_finite() && self.rate_per_sec > 0.0) {
            return bad("rate_per_sec", "must be a positive finite number");
        }
        if self.duration_ms == 0 {
            return bad("duration_ms", "must be positive");
        }
        if self.senders == 0 || self.recipients == 0 {
            return bad("senders/recipients", "populations must be nonempty");
        }
        if self.zipf_s <= 0.0 {
            return bad("zipf_s", "must be positive");
        }
        if self.arrival == ArrivalKind::Bursty {
            if self.burst.period_ms == 0 || self.burst.burst_ms == 0 {
                return bad("burst", "period_ms and burst_ms must be positive");
            }
            if self.burst.burst_ms > self.burst.period_ms {
                return bad("burst", "burst_ms cannot exceed period_ms");
            }
            if self.burst.multiplier < 1.0 {
                return bad("burst.multiplier", "must be >= 1");
            }
        }
        if !self.sender_template.contains("{}") || !self.recipient_template.contains("{}") {
            return bad("templates", "must contain a {} index placeholder");
        }
        Ok(())
    }
}

/// A [`WorkloadSpec::validate`] failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending field and what is wrong with it.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload spec invalid: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_nonsense() {
        let zero_rate = WorkloadSpec {
            rate_per_sec: 0.0,
            ..WorkloadSpec::default()
        };
        assert!(zero_rate.validate().is_err());
        let mut overlong_burst = WorkloadSpec {
            arrival: ArrivalKind::Bursty,
            ..WorkloadSpec::default()
        };
        overlong_burst.burst.burst_ms = overlong_burst.burst.period_ms + 1;
        assert!(overlong_burst.validate().is_err());
        let no_placeholder = WorkloadSpec {
            sender_template: "no-placeholder@x".into(),
            ..WorkloadSpec::default()
        };
        assert!(no_placeholder.validate().is_err());
    }
}
