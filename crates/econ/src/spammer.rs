//! Spam-campaign economics: the paper's two-orders-of-magnitude claim.
//!
//! §1.2, claim 1: *"The cost of sending spam will increase by at least two
//! orders of magnitude … The response rate required to break even will
//! increase similarly."*
//!
//! [`CampaignEconomics`] models a bulk-mail campaign in the two regimes:
//! legacy SMTP, where the marginal cost of a message is infrastructure only
//! (industry estimates in the mid-2000s put bulk sending at a few hundredths
//! of a cent per message), and Zmail, where every message additionally costs
//! one e-penny. The model yields cost per message, total campaign cost,
//! expected profit, and the break-even response rate — the quantities
//! experiment E1 tabulates.

use std::fmt;

/// Which sending regime a campaign operates under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendingRegime {
    /// Plain SMTP: infrastructure cost only.
    Legacy,
    /// Zmail: infrastructure cost plus one e-penny per message at the given
    /// dollar price per e-penny.
    Zmail {
        /// Dollar price of one e-penny (the paper assumes 0.01).
        epenny_price: f64,
    },
}

impl fmt::Display for SendingRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendingRegime::Legacy => write!(f, "legacy"),
            SendingRegime::Zmail { epenny_price } => write!(f, "zmail(${epenny_price:.3})"),
        }
    }
}

/// Parameters of a bulk-mail campaign.
///
/// # Example
///
/// ```rust
/// use zmail_econ::{CampaignEconomics, SendingRegime};
///
/// let campaign = CampaignEconomics::default();
/// let legacy = campaign.evaluate(SendingRegime::Legacy);
/// let zmail = campaign.evaluate(SendingRegime::Zmail { epenny_price: 0.01 });
/// assert!(legacy.profit > 0.0, "free sending makes spam pay");
/// assert!(zmail.profit < 0.0, "one cent per message kills it");
/// assert!(campaign.cost_increase_factor(0.01) >= 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignEconomics {
    /// Messages sent in the campaign.
    pub volume: u64,
    /// Infrastructure cost per message in dollars (bandwidth, lists,
    /// botnet rental). Mid-2000s industry estimates are around 1e-4.
    pub infra_cost_per_msg: f64,
    /// Fraction of recipients who respond (purchase).
    pub response_rate: f64,
    /// Profit per response in dollars, before sending costs.
    pub profit_per_response: f64,
}

impl Default for CampaignEconomics {
    fn default() -> Self {
        CampaignEconomics {
            volume: 1_000_000,
            infra_cost_per_msg: 1e-4,
            response_rate: 1e-5,
            profit_per_response: 20.0,
        }
    }
}

/// The computed outcome of a campaign under some regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignOutcome {
    /// Marginal cost of one message in dollars.
    pub cost_per_msg: f64,
    /// Total sending cost in dollars.
    pub total_cost: f64,
    /// Expected gross revenue in dollars.
    pub revenue: f64,
    /// Expected profit (revenue − cost) in dollars.
    pub profit: f64,
    /// Response rate at which profit is exactly zero.
    pub break_even_response_rate: f64,
}

impl CampaignEconomics {
    /// Marginal cost per message under `regime`.
    pub fn cost_per_msg(&self, regime: SendingRegime) -> f64 {
        match regime {
            SendingRegime::Legacy => self.infra_cost_per_msg,
            SendingRegime::Zmail { epenny_price } => self.infra_cost_per_msg + epenny_price,
        }
    }

    /// Evaluates the campaign under `regime`.
    ///
    /// # Panics
    ///
    /// Panics if `profit_per_response` is not positive (break-even would be
    /// undefined).
    pub fn evaluate(&self, regime: SendingRegime) -> CampaignOutcome {
        assert!(
            self.profit_per_response > 0.0,
            "profit per response must be positive"
        );
        let cost_per_msg = self.cost_per_msg(regime);
        let total_cost = cost_per_msg * self.volume as f64;
        let revenue = self.response_rate * self.volume as f64 * self.profit_per_response;
        CampaignOutcome {
            cost_per_msg,
            total_cost,
            revenue,
            profit: revenue - total_cost,
            break_even_response_rate: cost_per_msg / self.profit_per_response,
        }
    }

    /// The factor by which the per-message cost rises moving from legacy to
    /// Zmail at `epenny_price`. The paper claims ≥ 100 at one cent.
    pub fn cost_increase_factor(&self, epenny_price: f64) -> f64 {
        self.cost_per_msg(SendingRegime::Zmail { epenny_price }) / self.infra_cost_per_msg
    }

    /// The largest campaign volume that remains profitable under `regime`
    /// given a fixed advertising budget in dollars, or `None` if every
    /// message is profitable (profit grows with volume).
    ///
    /// With linear costs and revenue, profitability is volume-independent:
    /// this returns `Some(0)` when each message loses money and `None` when
    /// each message at least breaks even — the knife-edge the market model
    /// builds on.
    pub fn profitable(&self, regime: SendingRegime) -> bool {
        self.response_rate * self.profit_per_response >= self.cost_per_msg(regime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CampaignEconomics {
        CampaignEconomics::default()
    }

    #[test]
    fn legacy_costs_are_infrastructure_only() {
        let out = base().evaluate(SendingRegime::Legacy);
        assert!((out.cost_per_msg - 1e-4).abs() < 1e-12);
        assert!((out.total_cost - 100.0).abs() < 1e-6); // 1M * $0.0001
    }

    #[test]
    fn zmail_adds_epenny_to_each_message() {
        let out = base().evaluate(SendingRegime::Zmail { epenny_price: 0.01 });
        assert!((out.cost_per_msg - 0.0101).abs() < 1e-12);
        assert!((out.total_cost - 10_100.0).abs() < 1e-6);
    }

    #[test]
    fn cost_increase_is_at_least_two_orders_of_magnitude() {
        // The headline claim of §1.2 at the paper's one-cent price.
        let factor = base().cost_increase_factor(0.01);
        assert!(factor >= 100.0, "factor was only {factor}");
    }

    #[test]
    fn break_even_response_rate_scales_with_cost() {
        let legacy = base().evaluate(SendingRegime::Legacy);
        let zmail = base().evaluate(SendingRegime::Zmail { epenny_price: 0.01 });
        let ratio = zmail.break_even_response_rate / legacy.break_even_response_rate;
        assert!(ratio >= 100.0, "break-even ratio was {ratio}");
        // Sanity: legacy break-even = 1e-4 / 20 = 5e-6.
        assert!((legacy.break_even_response_rate - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn typical_campaign_flips_from_profit_to_loss() {
        let econ = base();
        let legacy = econ.evaluate(SendingRegime::Legacy);
        let zmail = econ.evaluate(SendingRegime::Zmail { epenny_price: 0.01 });
        assert!(legacy.profit > 0.0, "legacy spam should be profitable");
        assert!(zmail.profit < 0.0, "zmail should make this campaign a loss");
    }

    #[test]
    fn high_response_targeted_mail_stays_profitable() {
        // The paper: "incentives will favor more targeted advertising".
        let targeted = CampaignEconomics {
            response_rate: 0.01, // 1% — a real opt-in list
            ..base()
        };
        let out = targeted.evaluate(SendingRegime::Zmail { epenny_price: 0.01 });
        assert!(out.profit > 0.0, "targeted mail should survive Zmail");
    }

    #[test]
    fn profitable_predicate_matches_evaluate_sign() {
        for rate in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
            let econ = CampaignEconomics {
                response_rate: rate,
                ..base()
            };
            for regime in [
                SendingRegime::Legacy,
                SendingRegime::Zmail { epenny_price: 0.01 },
            ] {
                let out = econ.evaluate(regime);
                assert_eq!(econ.profitable(regime), out.profit >= 0.0, "rate={rate}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "profit per response")]
    fn nonpositive_profit_per_response_panics() {
        CampaignEconomics {
            profit_per_response: 0.0,
            ..base()
        }
        .evaluate(SendingRegime::Legacy);
    }

    #[test]
    fn regime_display() {
        assert_eq!(SendingRegime::Legacy.to_string(), "legacy");
        assert_eq!(
            SendingRegime::Zmail { epenny_price: 0.01 }.to_string(),
            "zmail($0.010)"
        );
    }
}
