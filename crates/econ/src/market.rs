//! The spam market: share of traffic as spammer profitability changes.
//!
//! §1.1 of the paper cites Brightmail: spam was 8% of all email traffic in
//! 2001 and over 60% by April 2004 — the trajectory of a market where the
//! marginal message is nearly free. [`MarketModel`] reproduces that shape
//! and runs the counterfactual: what happens to the spam share when every
//! message costs an e-penny.
//!
//! The model is a monthly entry/exit process. Spammers enter while expected
//! campaign profit is positive (at a rate proportional to profitability)
//! and exit when campaigns lose money. Response rates *erode* as users are
//! saturated with spam, which is what caps the legacy share below 100%.

use crate::spammer::{CampaignEconomics, SendingRegime};

/// Parameters of the spam market model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketParams {
    /// Legitimate messages per month (normalizing constant).
    pub legit_volume_per_month: f64,
    /// Messages one spammer sends per month.
    pub spammer_volume_per_month: f64,
    /// Spammers active in month 0.
    pub initial_spammers: f64,
    /// Base response rate when spam is rare.
    pub base_response_rate: f64,
    /// How fast the response rate erodes with the spam share: effective
    /// rate = base · (1 − share)^erosion.
    pub response_erosion: f64,
    /// Monthly growth rate of the spammer population while profitable.
    pub entry_rate: f64,
    /// Monthly decay rate while unprofitable.
    pub exit_rate: f64,
    /// The campaign cost structure.
    pub economics: CampaignEconomics,
    /// The sending regime for this run.
    pub regime: SendingRegime,
}

impl MarketParams {
    /// A legacy-regime market calibrated so spam grows from under 10% to
    /// over 60% of traffic in roughly 36 months — the Brightmail shape.
    pub fn legacy_2001() -> Self {
        MarketParams {
            legit_volume_per_month: 1e9,
            spammer_volume_per_month: 1e7,
            initial_spammers: 8.7, // ≈ 8% share at t=0
            base_response_rate: 1e-4,
            response_erosion: 2.5,
            entry_rate: 0.14,
            exit_rate: 0.30,
            economics: CampaignEconomics {
                volume: 10_000_000,
                infra_cost_per_msg: 1e-4,
                response_rate: 1e-4, // replaced by the eroding effective rate
                profit_per_response: 20.0,
            },
            regime: SendingRegime::Legacy,
        }
    }

    /// The same market under Zmail at `epenny_price` dollars per message.
    pub fn zmail(epenny_price: f64) -> Self {
        MarketParams {
            regime: SendingRegime::Zmail { epenny_price },
            ..Self::legacy_2001()
        }
    }
}

/// One month of market output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketPoint {
    /// Month index (0-based).
    pub month: u32,
    /// Active spammer count.
    pub spammers: f64,
    /// Spam share of all traffic in `[0, 1]`.
    pub spam_share: f64,
    /// Expected profit of one campaign this month, in dollars.
    pub campaign_profit: f64,
}

/// The entry/exit market model.
///
/// # Example
///
/// ```rust
/// use zmail_econ::{MarketModel, MarketParams};
///
/// // The Brightmail shape: ~8% of traffic in 2001, >60% three years on.
/// let legacy = MarketModel::new(MarketParams::legacy_2001()).run(36);
/// assert!(legacy.last().unwrap().spam_share > 0.60);
/// // The counterfactual at one cent per message.
/// let zmail = MarketModel::new(MarketParams::zmail(0.01)).run(36);
/// assert!(zmail.last().unwrap().spam_share < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarketModel {
    params: MarketParams,
    spammers: f64,
    month: u32,
}

impl MarketModel {
    /// Creates the model at month 0.
    ///
    /// # Panics
    ///
    /// Panics if volumes or the initial population are not positive.
    pub fn new(params: MarketParams) -> Self {
        assert!(
            params.legit_volume_per_month > 0.0 && params.spammer_volume_per_month > 0.0,
            "volumes must be positive"
        );
        assert!(params.initial_spammers >= 0.0, "negative population");
        MarketModel {
            spammers: params.initial_spammers,
            params,
            month: 0,
        }
    }

    /// Spam share implied by the current population.
    pub fn spam_share(&self) -> f64 {
        let spam = self.spammers * self.params.spammer_volume_per_month;
        spam / (spam + self.params.legit_volume_per_month)
    }

    fn campaign_profit(&self, share: f64) -> f64 {
        let p = &self.params;
        let effective_rate = p.base_response_rate * (1.0 - share).powf(p.response_erosion);
        let econ = CampaignEconomics {
            volume: p.spammer_volume_per_month as u64,
            response_rate: effective_rate,
            ..p.economics
        };
        econ.evaluate(p.regime).profit
    }

    /// Current observation.
    pub fn observe(&self) -> MarketPoint {
        let share = self.spam_share();
        MarketPoint {
            month: self.month,
            spammers: self.spammers,
            spam_share: share,
            campaign_profit: self.campaign_profit(share),
        }
    }

    /// Advances one month and returns the new observation.
    pub fn step(&mut self) -> MarketPoint {
        let share = self.spam_share();
        let profit = self.campaign_profit(share);
        let p = &self.params;
        if profit > 0.0 {
            self.spammers *= 1.0 + p.entry_rate;
        } else {
            self.spammers *= 1.0 - p.exit_rate;
        }
        self.spammers = self.spammers.max(0.0);
        self.month += 1;
        self.observe()
    }

    /// Runs `months` steps, returning the monthly trajectory including
    /// month 0.
    pub fn run(mut self, months: u32) -> Vec<MarketPoint> {
        let mut out = Vec::with_capacity(months as usize + 1);
        out.push(self.observe());
        for _ in 0..months {
            out.push(self.step());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_market_reproduces_brightmail_shape() {
        // 8%-ish at month 0, above 60% three years later.
        let trajectory = MarketModel::new(MarketParams::legacy_2001()).run(36);
        let start = trajectory.first().unwrap().spam_share;
        let end = trajectory.last().unwrap().spam_share;
        assert!(
            (0.05..=0.12).contains(&start),
            "start share {start} not near 8%"
        );
        assert!(end > 0.60, "end share {end} did not exceed 60%");
    }

    #[test]
    fn legacy_share_saturates_below_one() {
        let trajectory = MarketModel::new(MarketParams::legacy_2001()).run(240);
        let end = trajectory.last().unwrap().spam_share;
        assert!(end < 0.999, "share should saturate, was {end}");
        // Saturation: growth in the last year is small.
        let year_ago = trajectory[trajectory.len() - 13].spam_share;
        assert!(
            (end - year_ago).abs() < 0.06,
            "not saturated: {year_ago} -> {end}"
        );
    }

    #[test]
    fn zmail_collapses_the_market() {
        let trajectory = MarketModel::new(MarketParams::zmail(0.01)).run(36);
        let start = trajectory.first().unwrap().spam_share;
        let end = trajectory.last().unwrap().spam_share;
        assert!(end < start / 10.0, "share {start} only fell to {end}");
        assert!(
            end < 0.01,
            "share under Zmail should be negligible, was {end}"
        );
    }

    #[test]
    fn zmail_campaigns_lose_money_from_month_zero() {
        let model = MarketModel::new(MarketParams::zmail(0.01));
        assert!(model.observe().campaign_profit < 0.0);
    }

    #[test]
    fn cheaper_epennies_weaker_suppression() {
        let at_penny = MarketModel::new(MarketParams::zmail(0.01)).run(36);
        let at_tenth = MarketModel::new(MarketParams::zmail(0.001)).run(36);
        assert!(
            at_tenth.last().unwrap().spam_share >= at_penny.last().unwrap().spam_share,
            "a cheaper e-penny should suppress spam no more strongly"
        );
    }

    #[test]
    fn population_never_negative() {
        let trajectory = MarketModel::new(MarketParams::zmail(1.0)).run(600);
        assert!(trajectory.iter().all(|p| p.spammers >= 0.0));
    }

    #[test]
    #[should_panic(expected = "volumes must be positive")]
    fn zero_volume_panics() {
        MarketModel::new(MarketParams {
            legit_volume_per_month: 0.0,
            ..MarketParams::legacy_2001()
        });
    }
}
