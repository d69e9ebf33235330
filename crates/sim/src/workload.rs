//! Email traffic models.
//!
//! The paper argues about four populations: normal users (who "receive as
//! much email as they send, on average"), bulk senders/spammers, mailing
//! lists, and zombified PCs. [`TrafficGenerator`] turns a [`TrafficConfig`]
//! describing those populations into a time-ordered stream of [`SendEvent`]s
//! that the protocol simulation in `zmail-core` (or a baseline) consumes.
//!
//! Model choices (all standard for email workloads):
//!
//! * personal mail arrives per-user Poisson with a configurable daily mean;
//! * recipients are Zipf-popular with a same-ISP affinity knob;
//! * spammers blast campaigns of uniform-random targets at a fixed rate;
//! * zombies behave like normal users until an infection instant, then
//!   blast like spammers until disinfected.
//!
//! **Ordering contract.** A trace is in `(at, generation order)` order:
//! by send instant, and sends at one instant in the order the generator
//! drew them — personal mail user by user in row-major order, then each
//! campaign, then each infection. That is the order a stable sort of the
//! drawn sends by `at` leaves. The generator reaches it without sorting
//! sends or building `(at, index)` keys: it counts the sends per bucket
//! of `at`, writes each send's 4-byte index into its bucket in drawing
//! order, sorts each bucket stably by `at` and gathers the sends once
//! into a vector of exactly the trace's length. Every model draws from
//! the one [`Sampler`] in that same generation order, so a trace is a
//! pure function of `(config, seed)`.
//!
//! **Cost.** A personal send costs one exponential gap (one `ln`), one
//! affinity trial and one Zipf draw against a law built once per trace
//! (usually two uniforms and one `powf`, see [`Zipf`]), plus its share
//! of the ordering: two bucket passes, a sort of about four indices and
//! a gather. Beside the drawn sends and the trace, the ordering holds
//! 5 bytes a send (an index and a quarter of a bucket counter). The
//! `sim_world` benchmark's 320k-send trace takes 58–64 ms
//! (`sim.workload.generate_ms`, four traced runs in a release build on a
//! 2-thread Xeon VM), against 62–69 ms when the ordering sorted 16-byte
//! `(at, index)` keys.

use crate::clock::{SimDuration, SimTime};
use crate::rng::{Sampler, Zipf};
use std::fmt;

/// A fully-qualified user address: user `user` of ISP `isp`.
///
/// This mirrors the paper's "user s of isp\[i\]" addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserAddr {
    /// The ISP index (the paper's `i` in `isp[i]`).
    pub isp: u32,
    /// The user index within the ISP (the paper's `s`, `r`, or `t`).
    pub user: u32,
}

impl UserAddr {
    /// Creates an address.
    pub fn new(isp: u32, user: u32) -> Self {
        UserAddr { isp, user }
    }
}

impl fmt::Display for UserAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}@isp{}", self.user, self.isp)
    }
}

/// The nature of a message, used for accounting in experiments.
///
/// The protocol itself is deliberately blind to this distinction — that is
/// the paper's "no definition of spam required" property — but experiments
/// need ground truth to measure delivery and cost outcomes per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MailKind {
    /// One-to-one personal or business mail.
    Personal,
    /// Solicited bulk mail (newsletters, receipts).
    Newsletter,
    /// A post submitted to a mailing-list distributor.
    ListPost,
    /// An automatic acknowledgment returning an e-penny to a distributor.
    Ack,
    /// Unsolicited bulk mail.
    Spam,
    /// Spam sent by a zombified PC at its owner's expense.
    VirusSpam,
}

impl MailKind {
    /// Whether the ground truth classifies this message as unsolicited.
    pub fn is_unsolicited(self) -> bool {
        matches!(self, MailKind::Spam | MailKind::VirusSpam)
    }
}

impl fmt::Display for MailKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MailKind::Personal => "personal",
            MailKind::Newsletter => "newsletter",
            MailKind::ListPost => "list-post",
            MailKind::Ack => "ack",
            MailKind::Spam => "spam",
            MailKind::VirusSpam => "virus-spam",
        };
        f.write_str(s)
    }
}

/// One message-send intent produced by the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendEvent {
    /// When the sender hands the message to its ISP.
    pub at: SimTime,
    /// The sending user.
    pub from: UserAddr,
    /// The receiving user.
    pub to: UserAddr,
    /// Ground-truth class of the message.
    pub kind: MailKind,
}

/// A spam campaign: a sender, a start time, a volume, and a rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    /// Which user runs the campaign.
    pub sender: UserAddr,
    /// When the blast begins.
    pub start: SimTime,
    /// Total messages in the campaign.
    pub volume: u64,
    /// Messages per second while blasting.
    pub rate_per_sec: f64,
}

/// A zombie infection: a victim, an infection instant, and blast parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Infection {
    /// The compromised user.
    pub victim: UserAddr,
    /// When the PC becomes a zombie.
    pub at: SimTime,
    /// Messages per hour the zombie attempts.
    pub rate_per_hour: f64,
    /// How long the infection lasts if never detected.
    pub duration: SimDuration,
}

/// Parameters of a synthetic email population.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Number of ISPs (the paper's `n`).
    pub isps: u32,
    /// Users per ISP (the paper's `m`).
    pub users_per_isp: u32,
    /// Length of the generated trace.
    pub horizon: SimDuration,
    /// Mean personal messages per user per day.
    pub personal_per_user_day: f64,
    /// Probability a personal message stays within the sender's ISP.
    pub same_isp_affinity: f64,
    /// Zipf exponent for recipient popularity.
    pub popularity_exponent: f64,
    /// Spam campaigns to run.
    pub campaigns: Vec<Campaign>,
    /// Zombie infections to inject.
    pub infections: Vec<Infection>,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            isps: 2,
            users_per_isp: 100,
            horizon: SimDuration::from_days(7),
            personal_per_user_day: 10.0,
            same_isp_affinity: 0.3,
            popularity_exponent: 1.05,
            campaigns: Vec::new(),
            infections: Vec::new(),
        }
    }
}

impl TrafficConfig {
    /// Total user population.
    pub fn population(&self) -> u64 {
        u64::from(self.isps) * u64::from(self.users_per_isp)
    }

    /// A uniformly random user that is not `excluded` (spammers and
    /// zombies never target themselves). Falls back to `excluded` only in
    /// a degenerate single-user world.
    pub fn random_target_excluding(&self, sampler: &mut Sampler, excluded: UserAddr) -> UserAddr {
        if self.population() == 1 {
            return excluded;
        }
        loop {
            let candidate = self.user_at(sampler.uniform_range(0, self.population()));
            if candidate != excluded {
                return candidate;
            }
        }
    }

    /// The address of the `index`-th user in row-major (isp, user) order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= population()`.
    pub fn user_at(&self, index: u64) -> UserAddr {
        assert!(index < self.population(), "user index out of range");
        UserAddr {
            isp: (index / u64::from(self.users_per_isp)) as u32,
            user: (index % u64::from(self.users_per_isp)) as u32,
        }
    }
}

/// Generates time-ordered [`SendEvent`] traces from a [`TrafficConfig`].
///
/// # Example
///
/// ```rust
/// use zmail_sim::{Sampler, SimDuration};
/// use zmail_sim::workload::{TrafficConfig, TrafficGenerator};
///
/// let config = TrafficConfig {
///     isps: 2,
///     users_per_isp: 10,
///     horizon: SimDuration::from_days(1),
///     personal_per_user_day: 8.0,
///     ..TrafficConfig::default()
/// };
/// let trace = TrafficGenerator::new(config).generate(&mut Sampler::new(1));
/// assert!(!trace.is_empty());
/// assert!(trace.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: TrafficConfig,
}

impl TrafficGenerator {
    /// Creates a generator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty.
    pub fn new(config: TrafficConfig) -> Self {
        assert!(config.population() > 0, "population must be nonempty");
        TrafficGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Generates the full trace in time order, sends at one instant in
    /// the order they were generated (see the module docs).
    pub fn generate(&self, sampler: &mut Sampler) -> Vec<SendEvent> {
        let mut events = Vec::new();
        self.generate_personal(sampler, &mut events);
        self.generate_campaigns(sampler, &mut events);
        self.generate_zombies(sampler, &mut events);
        time_order(&events)
    }

    /// Picks a recipient for `from`: Zipf-popular, never self, honoring the
    /// same-ISP affinity knob.
    pub fn pick_recipient(&self, sampler: &mut Sampler, from: UserAddr) -> UserAddr {
        self.pick(&Popularity::of(&self.config), sampler, from)
    }

    fn pick(&self, popularity: &Popularity, sampler: &mut Sampler, from: UserAddr) -> UserAddr {
        let c = &self.config;
        loop {
            let to = if c.isps > 1 && !sampler.bernoulli(c.same_isp_affinity) {
                // Remote: Zipf over the whole population.
                c.user_at(popularity.remote.sample(sampler) as u64)
            } else {
                // Local: Zipf within the sender's ISP.
                UserAddr::new(from.isp, popularity.local.sample(sampler) as u32)
            };
            if to != from {
                return to;
            }
            if c.population() == 1 {
                return to; // degenerate single-user world: self-mail allowed
            }
        }
    }

    fn generate_personal(&self, sampler: &mut Sampler, out: &mut Vec<SendEvent>) {
        let c = &self.config;
        if c.personal_per_user_day <= 0.0 {
            return;
        }
        let mean_gap_ms = 86_400_000.0 / c.personal_per_user_day;
        let popularity = Popularity::of(c);
        for idx in 0..c.population() {
            let from = c.user_at(idx);
            let mut t = 0.0f64;
            loop {
                t += sampler.exponential(mean_gap_ms);
                if t >= c.horizon.as_millis() as f64 {
                    break;
                }
                let to = self.pick(&popularity, sampler, from);
                out.push(SendEvent {
                    at: SimTime::from_millis(t as u64),
                    from,
                    to,
                    kind: MailKind::Personal,
                });
            }
        }
    }

    fn generate_campaigns(&self, sampler: &mut Sampler, out: &mut Vec<SendEvent>) {
        let c = &self.config;
        for campaign in &c.campaigns {
            assert!(
                campaign.rate_per_sec > 0.0,
                "campaign rate must be positive"
            );
            let gap_ms = 1_000.0 / campaign.rate_per_sec;
            for k in 0..campaign.volume {
                let at = campaign.start + SimDuration::from_millis((k as f64 * gap_ms) as u64);
                if at.as_millis() >= c.horizon.as_millis() {
                    break;
                }
                let target = c.random_target_excluding(sampler, campaign.sender);
                out.push(SendEvent {
                    at,
                    from: campaign.sender,
                    to: target,
                    kind: MailKind::Spam,
                });
            }
        }
    }

    fn generate_zombies(&self, sampler: &mut Sampler, out: &mut Vec<SendEvent>) {
        let c = &self.config;
        for infection in &c.infections {
            assert!(
                infection.rate_per_hour > 0.0,
                "infection rate must be positive"
            );
            let gap_ms = 3_600_000.0 / infection.rate_per_hour;
            let end = infection.at + infection.duration;
            let mut t = infection.at.as_millis() as f64;
            loop {
                t += sampler.exponential(gap_ms);
                let at = SimTime::from_millis(t as u64);
                if at >= end || at.as_millis() >= c.horizon.as_millis() {
                    break;
                }
                let target = c.random_target_excluding(sampler, infection.victim);
                out.push(SendEvent {
                    at,
                    from: infection.victim,
                    to: target,
                    kind: MailKind::VirusSpam,
                });
            }
        }
    }
}

/// Recipient popularity: one Zipf law over the whole population, one
/// over a single ISP's users.
struct Popularity {
    remote: Zipf,
    local: Zipf,
}

impl Popularity {
    fn of(c: &TrafficConfig) -> Popularity {
        Popularity {
            remote: Zipf::new(c.population() as usize, c.popularity_exponent),
            local: Zipf::new(c.users_per_isp as usize, c.popularity_exponent),
        }
    }
}

/// About how many sends share a bucket of [`time_order`].
const SENDS_PER_BUCKET: usize = 4;

/// `events` in time order, events at one instant in the order they come
/// in: the order `slice::sort_by_key(|e| e.at)` leaves. One pass counts
/// the events in each bucket of `at` (a power-of-two width, with about
/// [`SENDS_PER_BUCKET`] events a bucket), a second writes each event's
/// index into its bucket's range in input order, a stable sort by `at`
/// orders each bucket, and one gather copies the events into a vector of
/// exactly their length. Beside that vector it holds a 4-byte index per
/// event and a 4-byte counter per bucket.
fn time_order(events: &[SendEvent]) -> Vec<SendEvent> {
    let Some(first) = events.first() else {
        return Vec::new();
    };
    let len = u32::try_from(events.len()).expect("fewer than 2^32 sends");
    let (min, max) = events.iter().fold((first.at, first.at), |(lo, hi), e| {
        (lo.min(e.at), hi.max(e.at))
    });
    let span = max.as_millis() - min.as_millis();
    // At least two buckets wanted, so a shift of 63 always fits.
    let wanted = (events.len() / SENDS_PER_BUCKET).max(2) as u64;
    let shift = (0..64)
        .find(|&s| span >> s < wanted)
        .expect("span >> 63 < 2");
    let bucket = |e: &SendEvent| ((e.at.as_millis() - min.as_millis()) >> shift) as usize;
    let mut ends = vec![0u32; (span >> shift) as usize + 1];
    for e in events {
        ends[bucket(e)] += 1;
    }
    // Each bucket's start, advanced to its end as the bucket fills.
    let mut start = 0;
    for slot in &mut ends {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut order = vec![0u32; events.len()];
    for (i, e) in (0..len).zip(events) {
        let slot = &mut ends[bucket(e)];
        order[*slot as usize] = i;
        *slot += 1;
    }
    let mut start = 0;
    for &end in &ends {
        order[start..end as usize].sort_by_key(|&i| events[i as usize].at);
        start = end as usize;
    }
    order.iter().map(|&i| events[i as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_config() -> TrafficConfig {
        TrafficConfig {
            isps: 3,
            users_per_isp: 20,
            horizon: SimDuration::from_days(2),
            personal_per_user_day: 5.0,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn user_addr_display() {
        assert_eq!(UserAddr::new(2, 17).to_string(), "u17@isp2");
    }

    #[test]
    fn user_at_row_major() {
        let c = small_config();
        assert_eq!(c.user_at(0), UserAddr::new(0, 0));
        assert_eq!(c.user_at(19), UserAddr::new(0, 19));
        assert_eq!(c.user_at(20), UserAddr::new(1, 0));
        assert_eq!(c.user_at(59), UserAddr::new(2, 19));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn user_at_out_of_range_panics() {
        small_config().user_at(60);
    }

    #[test]
    fn trace_is_sorted_and_in_horizon() {
        let generator = TrafficGenerator::new(small_config());
        let mut sampler = Sampler::new(1);
        let events = generator.generate(&mut sampler);
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        let horizon = small_config().horizon.as_millis();
        assert!(events.iter().all(|e| e.at.as_millis() < horizon));
    }

    #[test]
    fn personal_volume_tracks_mean() {
        let config = small_config();
        let expected = config.population() as f64
            * config.personal_per_user_day
            * config.horizon.as_days_f64();
        let generator = TrafficGenerator::new(config);
        let mut sampler = Sampler::new(2);
        let n = generator.generate(&mut sampler).len() as f64;
        assert!(
            (n - expected).abs() / expected < 0.15,
            "generated {n}, expected about {expected}"
        );
    }

    #[test]
    fn no_self_mail() {
        let generator = TrafficGenerator::new(small_config());
        let mut sampler = Sampler::new(3);
        let events = generator.generate(&mut sampler);
        assert!(events.iter().all(|e| e.from != e.to));
    }

    #[test]
    fn campaign_produces_spam_at_rate() {
        let mut config = small_config();
        let spammer = UserAddr::new(0, 0);
        config.campaigns.push(Campaign {
            sender: spammer,
            start: SimTime::ZERO + SimDuration::from_hours(1),
            volume: 500,
            rate_per_sec: 10.0,
        });
        config.personal_per_user_day = 0.0;
        let generator = TrafficGenerator::new(config);
        let mut sampler = Sampler::new(4);
        let events = generator.generate(&mut sampler);
        assert_eq!(events.len(), 500);
        assert!(events.iter().all(|e| e.kind == MailKind::Spam));
        assert!(events.iter().all(|e| e.from == spammer));
        let first = events.first().unwrap().at;
        let last = events.last().unwrap().at;
        // 500 messages at 10/sec span ~50 seconds.
        assert_eq!((last - first).as_secs(), 49);
    }

    #[test]
    fn campaign_truncated_at_horizon() {
        let mut config = small_config();
        config.personal_per_user_day = 0.0;
        config.campaigns.push(Campaign {
            sender: UserAddr::new(0, 0),
            start: SimTime::ZERO + SimDuration::from_days(2) + SimDuration::ZERO,
            volume: 100,
            rate_per_sec: 1.0,
        });
        let generator = TrafficGenerator::new(config);
        let mut sampler = Sampler::new(5);
        assert!(generator.generate(&mut sampler).is_empty());
    }

    #[test]
    fn zombies_blast_within_infection_window() {
        let mut config = small_config();
        config.personal_per_user_day = 0.0;
        let victim = UserAddr::new(1, 5);
        let at = SimTime::ZERO + SimDuration::from_hours(6);
        let duration = SimDuration::from_hours(12);
        config.infections.push(Infection {
            victim,
            at,
            rate_per_hour: 100.0,
            duration,
        });
        let generator = TrafficGenerator::new(config);
        let mut sampler = Sampler::new(6);
        let events = generator.generate(&mut sampler);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.kind == MailKind::VirusSpam));
        assert!(events.iter().all(|e| e.from == victim));
        assert!(events.iter().all(|e| e.at >= at && e.at < at + duration));
        // Roughly rate * duration messages.
        let expected = 100.0 * 12.0;
        let n = events.len() as f64;
        assert!((n - expected).abs() / expected < 0.3, "got {n} events");
    }

    #[test]
    fn unsolicited_classification() {
        assert!(MailKind::Spam.is_unsolicited());
        assert!(MailKind::VirusSpam.is_unsolicited());
        assert!(!MailKind::Personal.is_unsolicited());
        assert!(!MailKind::Ack.is_unsolicited());
    }

    #[test]
    fn same_seed_same_trace() {
        let generator = TrafficGenerator::new(small_config());
        let a = generator.generate(&mut Sampler::new(9));
        let b = generator.generate(&mut Sampler::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn affinity_one_keeps_mail_local() {
        let mut config = small_config();
        config.same_isp_affinity = 1.0;
        let generator = TrafficGenerator::new(config);
        let events = generator.generate(&mut Sampler::new(10));
        assert!(events.iter().all(|e| e.from.isp == e.to.isp));
    }

    /// Sends at `at(pick)`, told apart only by sender, recipient and kind.
    fn sends(raw: &[(u64, u32, u32, u8)], at: impl Fn(u64) -> u64) -> Vec<SendEvent> {
        raw.iter()
            .map(|&(pick, from, to, spam)| SendEvent {
                at: SimTime::from_millis(at(pick)),
                from: UserAddr::new(0, from),
                to: UserAddr::new(1, to),
                kind: if spam == 1 {
                    MailKind::Spam
                } else {
                    MailKind::Personal
                },
            })
            .collect()
    }

    /// `time_order` leaves what a stable sort of whole events leaves,
    /// in a vector of exactly their length.
    fn is_the_stable_sort(events: &[SendEvent]) -> Result<(), TestCaseError> {
        let mut stable = events.to_vec();
        stable.sort_by_key(|e| e.at);
        let ordered = time_order(events);
        prop_assert_eq!(ordered.len(), ordered.capacity());
        prop_assert_eq!(ordered, stable);
        Ok(())
    }

    #[test]
    fn time_order_of_no_send_and_of_one_send() {
        assert_eq!(time_order(&[]).capacity(), 0);
        for at in [0, 1, u64::MAX] {
            let one = sends(&[(at, 1, 2, 1)], |at| at);
            assert_eq!(time_order(&one), one);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On lists where most instants are shared: few distinct times,
        /// events told apart only by sender, recipient and kind.
        #[test]
        fn time_order_is_the_stable_sort(
            raw in proptest::collection::vec((0u64..8, 0u32..4, 0u32..4, 0u8..2), 0..300),
        ) {
            is_the_stable_sort(&sends(&raw, |at| at))?;
        }

        /// Instants anywhere in `u64`, a few sends apart or most of the
        /// range apart, and up to its last value: a pick past `bases`
        /// counts down from `u64::MAX`. Ties stay common.
        #[test]
        fn time_order_is_the_stable_sort_over_wide_ranges(
            bases in proptest::collection::vec(any::<u64>(), 1..6),
            raw in proptest::collection::vec((0u64..64, 0u32..4, 0u32..4, 0u8..2), 0..300),
        ) {
            let at = |pick: u64| {
                let offset = pick % 8;
                bases
                    .get((pick / 8) as usize)
                    .map_or(u64::MAX - offset, |base| base.saturating_add(offset))
            };
            is_the_stable_sort(&sends(&raw, at))?;
        }

        /// Every send at one instant makes one bucket of them all, which
        /// must come out in input order.
        #[test]
        fn time_order_keeps_one_instant_in_input_order(
            at in any::<u64>(),
            raw in proptest::collection::vec((0u64..1, 0u32..4, 0u32..4, 0u8..2), 1..3000),
        ) {
            let events = sends(&raw, |_| at);
            prop_assert_eq!(time_order(&events), events.clone());
            is_the_stable_sort(&events)?;
        }
    }
}
