//! Money newtypes: e-pennies and real pennies.
//!
//! The paper keeps two ledgers per user — `balance` in e-pennies and
//! `account` in real money — and a conversion between them at the bank.
//! [`EPennies`] and [`RealPennies`] make the two statically distinct so a
//! settlement amount can never be credited to a scrip balance by accident.
//! Both are signed: the protocol itself never drives a balance negative
//! (an invariant the tests check), but deltas and audit sums need sign.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An amount of e-pennies, the scrip in which email is paid for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EPennies(pub i64);

/// An amount of real money, in U.S. pennies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RealPennies(pub i64);

macro_rules! impl_money_ops {
    ($ty:ident) => {
        impl $ty {
            /// The zero amount.
            pub const ZERO: $ty = $ty(0);

            /// One unit.
            pub const ONE: $ty = $ty(1);

            /// The raw signed count.
            pub const fn amount(self) -> i64 {
                self.0
            }

            /// Whether the amount is negative.
            pub const fn is_negative(self) -> bool {
                self.0 < 0
            }

            /// Checked addition.
            pub fn checked_add(self, rhs: $ty) -> Option<$ty> {
                self.0.checked_add(rhs.0).map($ty)
            }

            /// Checked subtraction.
            pub fn checked_sub(self, rhs: $ty) -> Option<$ty> {
                self.0.checked_sub(rhs.0).map($ty)
            }
        }

        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }
        impl Mul<i64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: i64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|x| x.0).sum())
            }
        }
        impl From<i64> for $ty {
            fn from(v: i64) -> $ty {
                $ty(v)
            }
        }
    };
}

impl_money_ops!(EPennies);
impl_money_ops!(RealPennies);

impl fmt::Display for EPennies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} e¢", self.0)
    }
}

impl fmt::Display for RealPennies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{sign}${}.{:02}", abs / 100, abs % 100)
    }
}

/// The bank's exchange rate between real pennies and e-pennies.
///
/// The paper assumes one e-penny costs $0.01, i.e. a 1:1 rate with real
/// pennies; the type keeps the rate explicit so experiments can sweep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExchangeRate {
    /// Real pennies charged per e-penny bought (and paid per e-penny sold).
    pub real_per_epenny: i64,
}

impl Default for ExchangeRate {
    fn default() -> Self {
        ExchangeRate { real_per_epenny: 1 }
    }
}

impl ExchangeRate {
    /// Creates a rate of `real_per_epenny` real pennies per e-penny.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive.
    pub fn new(real_per_epenny: i64) -> Self {
        assert!(real_per_epenny > 0, "exchange rate must be positive");
        ExchangeRate { real_per_epenny }
    }

    /// Real cost of buying `e` e-pennies.
    ///
    /// # Panics
    ///
    /// Panics if the cost does not fit an `i64`; see
    /// [`checked_to_real`](Self::checked_to_real).
    pub fn to_real(self, e: EPennies) -> RealPennies {
        self.checked_to_real(e)
            .expect("the real cost does not fit an i64")
    }

    /// Real cost of buying `e` e-pennies, or `None` if it does not fit an
    /// `i64`.
    pub fn checked_to_real(self, e: EPennies) -> Option<RealPennies> {
        e.0.checked_mul(self.real_per_epenny).map(RealPennies)
    }

    /// E-pennies purchasable with `r` real pennies (truncating).
    pub fn to_epennies(self, r: RealPennies) -> EPennies {
        EPennies(r.0 / self.real_per_epenny)
    }

    /// The dollar price of one e-penny (for economics math).
    pub fn epenny_price_dollars(self) -> f64 {
        self.real_per_epenny as f64 / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ordering() {
        let a = EPennies(5);
        let b = EPennies(3);
        assert_eq!(a + b, EPennies(8));
        assert_eq!(a - b, EPennies(2));
        assert_eq!(-a, EPennies(-5));
        assert_eq!(a * 4, EPennies(20));
        assert!(b < a);
        let total: EPennies = [a, b, EPennies(2)].into_iter().sum();
        assert_eq!(total, EPennies(10));
    }

    #[test]
    fn assign_ops() {
        let mut x = RealPennies(100);
        x += RealPennies(50);
        x -= RealPennies(30);
        assert_eq!(x, RealPennies(120));
    }

    #[test]
    fn checked_ops_catch_overflow() {
        assert_eq!(EPennies(i64::MAX).checked_add(EPennies(1)), None);
        assert_eq!(EPennies(i64::MIN).checked_sub(EPennies(1)), None);
        assert_eq!(EPennies(1).checked_add(EPennies(2)), Some(EPennies(3)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(EPennies(7).to_string(), "7 e¢");
        assert_eq!(RealPennies(1234).to_string(), "$12.34");
        assert_eq!(RealPennies(5).to_string(), "$0.05");
        assert_eq!(RealPennies(-250).to_string(), "-$2.50");
    }

    #[test]
    fn exchange_roundtrip_at_default_rate() {
        let rate = ExchangeRate::default();
        assert_eq!(rate.to_real(EPennies(42)), RealPennies(42));
        assert_eq!(rate.to_epennies(RealPennies(42)), EPennies(42));
        assert!((rate.epenny_price_dollars() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn exchange_non_unit_rate_truncates() {
        let rate = ExchangeRate::new(3);
        assert_eq!(rate.to_real(EPennies(10)), RealPennies(30));
        assert_eq!(rate.to_epennies(RealPennies(10)), EPennies(3));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_panics() {
        ExchangeRate::new(0);
    }

    #[test]
    fn negativity_flag() {
        assert!(EPennies(-1).is_negative());
        assert!(!EPennies(0).is_negative());
    }
}
