//! The intro's cost-of-spam figures as a parametric model.
//!
//! §1.1 of the paper cites three numbers: $10 billion of extra mail-server
//! cost in the U.S. in 2003 (Ferris Research), $20.5 billion worldwide
//! (Radicati), and $300,000 of lost productivity per year for a business of
//! 1,000 employees (Gartner). [`ProductivityModel`] expresses the mechanism
//! behind such figures — seconds of attention per spam message times loaded
//! labor cost — so experiment E10 can report how the burden scales with the
//! spam share and validate against the Gartner figure.

/// Attention-cost model for spam handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductivityModel {
    /// Legitimate messages received per employee per working day.
    pub legit_per_day: f64,
    /// Seconds an employee spends recognizing and deleting one spam.
    pub seconds_per_spam: f64,
    /// Loaded labor cost per employee-hour, in dollars.
    pub hourly_cost: f64,
    /// Working days per year.
    pub work_days: f64,
}

impl Default for ProductivityModel {
    fn default() -> Self {
        // Calibrated to land near Gartner's $300/employee/year at a 60%
        // spam share: ~25 legit msgs/day, ~3s per spam, $37.5/h loaded.
        ProductivityModel {
            legit_per_day: 25.0,
            seconds_per_spam: 3.0,
            hourly_cost: 37.5,
            work_days: 250.0,
        }
    }
}

impl ProductivityModel {
    /// Spam messages per employee per day implied by a spam share of all
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics unless `share` is in `[0, 1)`.
    pub fn spam_per_day(&self, share: f64) -> f64 {
        assert!((0.0..1.0).contains(&share), "share must be in [0, 1)");
        // If share s of all mail is spam, a user receiving L legit messages
        // receives L * s / (1 - s) spam.
        self.legit_per_day * share / (1.0 - share)
    }

    /// Annual productivity loss per employee, in dollars, at a spam share.
    pub fn annual_loss_per_employee(&self, share: f64) -> f64 {
        let spam = self.spam_per_day(share);
        let hours = spam * self.seconds_per_spam / 3_600.0;
        hours * self.hourly_cost * self.work_days
    }

    /// Annual loss for a business of `employees` at a spam share.
    pub fn annual_loss(&self, employees: u64, share: f64) -> f64 {
        self.annual_loss_per_employee(share) * employees as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_gartner_order_of_magnitude() {
        // Gartner: a 1,000-employee business loses ~$300k/year at the 2004
        // spam level (~60% of traffic).
        let model = ProductivityModel::default();
        let loss = model.annual_loss(1_000, 0.6);
        assert!(
            (150_000.0..=600_000.0).contains(&loss),
            "loss ${loss:.0} is not within 2x of Gartner's $300k"
        );
    }

    #[test]
    fn loss_is_zero_without_spam() {
        let model = ProductivityModel::default();
        assert_eq!(model.annual_loss_per_employee(0.0), 0.0);
    }

    #[test]
    fn loss_grows_superlinearly_in_share() {
        let model = ProductivityModel::default();
        let at_30 = model.annual_loss_per_employee(0.3);
        let at_60 = model.annual_loss_per_employee(0.6);
        assert!(
            at_60 > 2.0 * at_30,
            "spam/legit ratio is convex in share: {at_30} vs {at_60}"
        );
    }

    #[test]
    fn spam_per_day_at_even_split() {
        let model = ProductivityModel::default();
        // At 50% share, spam equals legit volume.
        assert!((model.spam_per_day(0.5) - model.legit_per_day).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "share must be in [0, 1)")]
    fn full_share_panics() {
        ProductivityModel::default().spam_per_day(1.0);
    }
}
