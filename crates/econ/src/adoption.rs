//! Incremental-deployment dynamics: from two compliant ISPs to the Internet.
//!
//! §5 of the paper: *"Zmail can be deployed incrementally, starting with two
//! compliant ISPs … As more and more ISPs become compliant, more people
//! would choose not to accept any email from a non-compliant ISP, which in
//! turn causes more people to use compliant ISPs and more ISPs to become
//! compliant."*
//!
//! [`AdoptionModel`] is a discrete-time (daily) model of that positive
//! feedback. Each day:
//!
//! 1. compliant users experience essentially no spam; non-compliant users
//!    experience the ambient spam level;
//! 2. users start *demanding* compliant service at a rate set by the
//!    utility gap — the spam they suffer plus the network reach compliant
//!    service offers, which grows with adoption (the paper's feedback
//!    loop);
//! 3. non-compliant ISPs convert a fraction of the *unmet* demand into
//!    compliance each day (supply inertia).
//!
//! The model produces the S-shaped adoption curve experiment E6 tabulates
//! and reports the crossing times (10%, 50%, 90% compliant).

/// Parameters of the adoption dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdoptionParams {
    /// Total number of ISPs in the market.
    pub isps: u32,
    /// ISPs compliant at day 0 (the paper bootstraps with 2).
    pub initially_compliant: u32,
    /// Ambient probability that a message reaching a non-compliant user is
    /// spam (the paper cites >60% in 2004).
    pub ambient_spam_share: f64,
    /// Daily fraction of not-yet-demanding users who start demanding a
    /// compliant ISP, per unit of utility gap.
    pub switch_rate: f64,
    /// Daily fraction of *unmet demand* that non-compliant ISPs convert
    /// into compliance (supply inertia).
    pub supply_rate: f64,
    /// Weight of the network effect: how much value a compliant user gets
    /// from each additional fraction of compliant peers (mail from
    /// non-compliant ISPs is segregated/filtered, so reach grows with
    /// adoption).
    pub network_effect: f64,
}

impl Default for AdoptionParams {
    fn default() -> Self {
        AdoptionParams {
            isps: 100,
            initially_compliant: 2,
            ambient_spam_share: 0.6,
            switch_rate: 0.008,
            supply_rate: 0.08,
            network_effect: 0.8,
        }
    }
}

/// One day of model output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdoptionPoint {
    /// Day index (0-based).
    pub day: u32,
    /// Fraction of ISPs that are compliant.
    pub compliant_isp_fraction: f64,
    /// Fraction of users on compliant ISPs.
    pub compliant_user_fraction: f64,
    /// Average spam share experienced across all users.
    pub mean_spam_exposure: f64,
}

/// The adoption dynamics model.
///
/// # Example
///
/// ```rust
/// use zmail_econ::{AdoptionModel, AdoptionParams};
///
/// let trajectory = AdoptionModel::new(AdoptionParams::default()).run(3650);
/// let end = trajectory.last().unwrap();
/// assert!(end.compliant_isp_fraction > 0.99, "full deployment in a decade");
/// assert!(end.mean_spam_exposure < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdoptionModel {
    params: AdoptionParams,
    /// Fraction of users currently demanding a compliant ISP.
    demand: f64,
    /// Fractional count of compliant ISPs (supply chases demand).
    compliant_isps: f64,
    day: u32,
}

impl AdoptionModel {
    /// Creates the model at day 0.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than 2 ISPs, if `initially_compliant`
    /// exceeds `isps`, or if rates are outside `[0, 1]`.
    pub fn new(params: AdoptionParams) -> Self {
        assert!(params.isps >= 2, "need at least two ISPs");
        assert!(
            params.initially_compliant <= params.isps,
            "more compliant ISPs than ISPs"
        );
        assert!(
            (0.0..=1.0).contains(&params.ambient_spam_share)
                && (0.0..=1.0).contains(&params.switch_rate)
                && (0.0..=1.0).contains(&params.supply_rate),
            "rates must be within [0, 1]"
        );
        let demand = params.initially_compliant as f64 / params.isps as f64;
        AdoptionModel {
            params,
            demand,
            compliant_isps: f64::from(params.initially_compliant),
            day: 0,
        }
    }

    /// Fraction of ISPs currently compliant.
    pub fn compliant_fraction(&self) -> f64 {
        self.compliant_isps / f64::from(self.params.isps)
    }

    /// Current observation of the model.
    pub fn observe(&self) -> AdoptionPoint {
        let isp_fraction = self.compliant_fraction();
        // Users are on compliant ISPs when they both demand one and one
        // exists to serve them.
        let user_fraction = self.demand.min(isp_fraction).min(1.0);
        let exposure = (1.0 - user_fraction) * self.params.ambient_spam_share;
        AdoptionPoint {
            day: self.day,
            compliant_isp_fraction: isp_fraction,
            compliant_user_fraction: user_fraction,
            mean_spam_exposure: exposure,
        }
    }

    /// Advances one day and returns the new observation.
    ///
    /// Demand side: users start demanding compliance at a rate set by the
    /// utility gap — the spam they suffer plus the network reach compliant
    /// service offers (which grows with adoption: that is the paper's
    /// positive feedback). Supply side: non-compliant ISPs convert a
    /// fraction of the *unmet* demand each day.
    pub fn step(&mut self) -> AdoptionPoint {
        let p = self.params;
        let isp_fraction = self.compliant_fraction();
        let gap = p.ambient_spam_share + p.network_effect * isp_fraction;
        self.demand = (self.demand + p.switch_rate * gap * (1.0 - self.demand)).min(1.0);
        let unmet = (self.demand - isp_fraction).max(0.0);
        self.compliant_isps = (self.compliant_isps + p.supply_rate * unmet * f64::from(p.isps))
            .min(f64::from(p.isps));
        self.day += 1;
        self.observe()
    }

    /// Runs `days` steps, returning the daily trajectory (including day 0).
    pub fn run(mut self, days: u32) -> Vec<AdoptionPoint> {
        let mut out = Vec::with_capacity(days as usize + 1);
        out.push(self.observe());
        for _ in 0..days {
            out.push(self.step());
        }
        out
    }

    /// First day on which the compliant ISP fraction reaches `target`, if
    /// reached within `max_days`.
    pub fn days_to_reach(params: AdoptionParams, target: f64, max_days: u32) -> Option<u32> {
        let mut model = AdoptionModel::new(params);
        if model.compliant_fraction() >= target {
            return Some(0);
        }
        for day in 1..=max_days {
            model.step();
            if model.compliant_fraction() >= target {
                return Some(day);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_seed_isps() {
        let model = AdoptionModel::new(AdoptionParams::default());
        let p0 = model.observe();
        assert!((p0.compliant_isp_fraction - 0.02).abs() < 1e-12);
        assert_eq!(p0.day, 0);
    }

    #[test]
    fn adoption_is_monotonic_and_reaches_full() {
        let trajectory = AdoptionModel::new(AdoptionParams::default()).run(3_650);
        for w in trajectory.windows(2) {
            assert!(
                w[1].compliant_isp_fraction >= w[0].compliant_isp_fraction,
                "adoption regressed on day {}",
                w[1].day
            );
        }
        let last = trajectory.last().unwrap();
        assert!(
            last.compliant_isp_fraction > 0.99,
            "only reached {:.3} after 10 years",
            last.compliant_isp_fraction
        );
    }

    #[test]
    fn spam_exposure_falls_as_adoption_grows() {
        let trajectory = AdoptionModel::new(AdoptionParams::default()).run(3_650);
        let first = trajectory.first().unwrap().mean_spam_exposure;
        let last = trajectory.last().unwrap().mean_spam_exposure;
        assert!(first > 0.5, "initial exposure should be near ambient");
        assert!(
            last < 0.05,
            "final exposure should be near zero, was {last}"
        );
    }

    #[test]
    fn s_curve_midpoint_after_start_before_end() {
        let d10 = AdoptionModel::days_to_reach(AdoptionParams::default(), 0.1, 10_000).unwrap();
        let d50 = AdoptionModel::days_to_reach(AdoptionParams::default(), 0.5, 10_000).unwrap();
        let d90 = AdoptionModel::days_to_reach(AdoptionParams::default(), 0.9, 10_000).unwrap();
        assert!(d10 < d50 && d50 < d90, "{d10} {d50} {d90}");
    }

    #[test]
    fn stronger_network_effect_accelerates_adoption() {
        let slow = AdoptionParams {
            network_effect: 0.0,
            ..AdoptionParams::default()
        };
        let fast = AdoptionParams {
            network_effect: 1.0,
            ..AdoptionParams::default()
        };
        let d_slow = AdoptionModel::days_to_reach(slow, 0.9, 100_000).unwrap();
        let d_fast = AdoptionModel::days_to_reach(fast, 0.9, 100_000).unwrap();
        assert!(
            d_fast < d_slow,
            "positive feedback must accelerate adoption ({d_fast} vs {d_slow})"
        );
    }

    #[test]
    fn unreachable_target_returns_none() {
        let frozen = AdoptionParams {
            switch_rate: 0.0,
            ambient_spam_share: 0.0,
            network_effect: 0.0,
            ..AdoptionParams::default()
        };
        assert_eq!(AdoptionModel::days_to_reach(frozen, 0.9, 1_000), None);
    }

    #[test]
    #[should_panic(expected = "at least two ISPs")]
    fn one_isp_panics() {
        AdoptionModel::new(AdoptionParams {
            isps: 1,
            initially_compliant: 1,
            ..AdoptionParams::default()
        });
    }

    #[test]
    fn run_includes_day_zero() {
        let traj = AdoptionModel::new(AdoptionParams::default()).run(10);
        assert_eq!(traj.len(), 11);
        assert_eq!(traj[0].day, 0);
        assert_eq!(traj[10].day, 10);
    }
}
