//! Deterministic arrival schedules: when to send, from whom, to whom.
//!
//! The whole schedule is generated **up front, single-threaded**, as a
//! pure function of the workload spec — then partitioned across the
//! worker pool's connections. That ordering is the determinism contract:
//! the bytes of the schedule are identical no matter how many worker
//! threads later execute it, so a run is reproducible from `(spec, seed)`
//! and thread-count changes never move a single send instant.
//!
//! Two processes are provided, both with Zipf-weighted sender and
//! recipient popularity (a handful of hot accounts dominate, the long
//! tail trickles — the shape real mail traffic and the paper's spam
//! scenarios share):
//!
//! * **Poisson** — i.i.d. exponential interarrivals at `rate_per_sec`;
//!   the memoryless baseline.
//! * **Bursty** — Poisson modulated by a periodic square wave: inside the
//!   leading `burst_ms` of every `period_ms` cycle the instantaneous rate
//!   is `multiplier ×` the base rate. Overload arrives in slams, which is
//!   what actually exposes queue limits.

use crate::spec::{ArrivalKind, WorkloadSpec};
use zmail_sim::{Sampler, Zipf};

/// One scheduled submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledSend {
    /// Send instant, microseconds from run start.
    pub at_us: u64,
    /// Position in the global schedule (also the conservation id).
    pub seq: u64,
    /// Zipf-drawn sender index into the sender population.
    pub sender: u32,
    /// Zipf-drawn recipient index into the recipient population.
    pub recipient: u32,
}

/// Derivation streams, fixed so schedule bytes never depend on call order.
const STREAM_TIMES: u64 = 0xA001;
const STREAM_SENDERS: u64 = 0xA002;
const STREAM_RECIPIENTS: u64 = 0xA003;

/// Generates the full schedule for `spec`.
///
/// Pure: same spec in, same `Vec` out, on every call, every thread count,
/// every host. Instants are strictly within `duration_ms`; `seq` is the
/// index in ascending time order.
///
/// # Panics
///
/// Panics if the spec fails [`WorkloadSpec::validate`].
pub fn schedule(spec: &WorkloadSpec) -> Vec<ScheduledSend> {
    spec.validate().expect("workload spec must be valid");
    let sampler = Sampler::new(spec.seed);
    let mut times = sampler.derive(STREAM_TIMES);
    let mut senders = sampler.derive(STREAM_SENDERS);
    let mut recipients = sampler.derive(STREAM_RECIPIENTS);
    let sender_law = Zipf::new(spec.senders as usize, spec.zipf_s);
    let recipient_law = Zipf::new(spec.recipients as usize, spec.zipf_s);

    let horizon_us = spec.duration_ms * 1_000;
    let mut out = Vec::new();
    let mut t_us = 0f64;
    loop {
        let rate = instantaneous_rate(spec, t_us);
        // Exponential interarrival at the current instantaneous rate.
        let gap_us = times.exponential(1_000_000.0 / rate);
        t_us += gap_us;
        if t_us >= horizon_us as f64 {
            break;
        }
        out.push(ScheduledSend {
            at_us: t_us as u64,
            seq: out.len() as u64,
            sender: sender_law.sample(&mut senders) as u32,
            recipient: recipient_law.sample(&mut recipients) as u32,
        });
    }
    out
}

/// The rate in effect at `t_us` for the spec's arrival process.
fn instantaneous_rate(spec: &WorkloadSpec, t_us: f64) -> f64 {
    match spec.arrival {
        ArrivalKind::Poisson => spec.rate_per_sec,
        ArrivalKind::Bursty => {
            let period_us = (spec.burst.period_ms * 1_000) as f64;
            let burst_us = (spec.burst.burst_ms * 1_000) as f64;
            let phase = t_us % period_us;
            if phase < burst_us {
                spec.rate_per_sec * spec.burst.multiplier
            } else {
                spec.rate_per_sec
            }
        }
    }
}

/// Splits a schedule across `lanes` connections, round-robin by `seq`.
///
/// Each lane's ops stay in ascending time order; flattening the lanes and
/// sorting by `seq` reproduces the input exactly, whatever `lanes` is —
/// the other half of the determinism contract.
pub fn partition(schedule: &[ScheduledSend], lanes: usize) -> Vec<Vec<ScheduledSend>> {
    let lanes = lanes.max(1);
    let mut out = vec![Vec::with_capacity(schedule.len() / lanes + 1); lanes];
    for op in schedule {
        out[(op.seq % lanes as u64) as usize].push(*op);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BurstSpec;

    fn base_spec() -> WorkloadSpec {
        WorkloadSpec {
            rate_per_sec: 2_000.0,
            duration_ms: 2_000,
            seed: 7,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = base_spec();
        assert_eq!(schedule(&spec), schedule(&spec));
        let mut other = base_spec();
        other.seed += 1;
        assert_ne!(schedule(&spec), schedule(&other));
    }

    #[test]
    fn partition_is_lossless_for_any_lane_count() {
        let spec = base_spec();
        let full = schedule(&spec);
        for lanes in [1, 2, 3, 8, 17] {
            let parts = partition(&full, lanes);
            assert_eq!(parts.len(), lanes);
            let mut merged: Vec<ScheduledSend> =
                parts.iter().flat_map(|lane| lane.iter().copied()).collect();
            merged.sort_by_key(|op| op.seq);
            assert_eq!(merged, full, "lanes={lanes}");
            for lane in &parts {
                assert!(lane.windows(2).all(|w| w[0].at_us <= w[1].at_us));
            }
        }
    }

    #[test]
    fn schedule_stays_inside_the_horizon_and_is_sorted() {
        let spec = base_spec();
        let full = schedule(&spec);
        assert!(!full.is_empty());
        assert!(full.iter().all(|op| op.at_us < spec.duration_ms * 1_000));
        assert!(full.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(full.iter().enumerate().all(|(i, op)| op.seq == i as u64));
    }

    #[test]
    fn zipf_populations_are_skewed_toward_low_indices() {
        let spec = WorkloadSpec {
            senders: 1_000,
            zipf_s: 1.2,
            ..base_spec()
        };
        let full = schedule(&spec);
        let hot = full.iter().filter(|op| op.sender < 10).count();
        // Under a uniform draw 10/1000 of sends would hit the top 10
        // senders; Zipf at s=1.2 concentrates far more there.
        assert!(
            hot as f64 > 0.2 * full.len() as f64,
            "only {hot}/{} hot-sender hits",
            full.len()
        );
        assert!(full.iter().all(|op| op.sender < spec.senders));
        assert!(full.iter().all(|op| op.recipient < spec.recipients));
    }

    #[test]
    fn bursty_bursts_are_denser_than_the_baseline() {
        let spec = WorkloadSpec {
            arrival: ArrivalKind::Bursty,
            burst: BurstSpec {
                period_ms: 500,
                burst_ms: 100,
                multiplier: 8.0,
            },
            ..base_spec()
        };
        let full = schedule(&spec);
        let period_us = spec.burst.period_ms * 1_000;
        let burst_us = spec.burst.burst_ms * 1_000;
        let in_burst = full
            .iter()
            .filter(|op| op.at_us % period_us < burst_us)
            .count();
        let out_of_burst = full.len() - in_burst;
        // Burst windows are 1/5 of the time at 8× the rate: the in-burst
        // *density* (count per unit time) must clearly exceed off-burst.
        let burst_density = in_burst as f64 / burst_us as f64;
        let base_density = out_of_burst as f64 / (period_us - burst_us) as f64;
        assert!(
            burst_density > 3.0 * base_density,
            "burst density {burst_density:.6} vs base {base_density:.6}"
        );
    }
}
