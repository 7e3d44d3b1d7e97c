//! Civil (proleptic Gregorian) dates and compact month indices.
//!
//! Every dataset in the study is longitudinal; the unifying x-axis is the
//! *month*. [`MonthStamp`] is a single `i32` counting months since
//! 0000-01, which makes month ranges, differences, and `BTreeMap` keys
//! trivial. [`Date`] provides exact day arithmetic (via the standard
//! days-from-civil algorithm) for the few places the paper needs days —
//! e.g. "first five days of each month" Atlas sampling and ready-for-service
//! dates of submarine cables.

use crate::error::{Error, Result};
use std::fmt;
use std::str::FromStr;

/// A civil calendar date in the proleptic Gregorian calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

/// Days in each month of a non-leap year.
const MONTH_LEN: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Whether `year` is a leap year in the Gregorian calendar.
pub const fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` of `year` (1-based month).
pub const fn days_in_month(year: i32, month: u8) -> u8 {
    if month == 2 && is_leap_year(year) {
        29
    } else {
        MONTH_LEN[(month - 1) as usize]
    }
}

impl Date {
    /// Construct a date, validating month and day ranges.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self> {
        if month == 0 || month > 12 {
            return Err(Error::invalid("month must be in 1..=12"));
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(Error::invalid("day out of range for month"));
        }
        Ok(Date { year, month, day })
    }

    /// Construct without validation; panics on invalid input. Intended for
    /// literals in tests and generators where the values are static.
    pub fn ymd(year: i32, month: u8, day: u8) -> Self {
        Self::new(year, month, day).expect("invalid date literal")
    }

    /// Year component.
    pub const fn year(self) -> i32 {
        self.year
    }

    /// Month component (1-based).
    pub const fn month(self) -> u8 {
        self.month
    }

    /// Day component (1-based).
    pub const fn day(self) -> u8 {
        self.day
    }

    /// Days since 1970-01-01 (can be negative). Standard days-from-civil
    /// algorithm (era/year-of-era decomposition), exact over the full i32
    /// year range used here.
    pub fn days_since_epoch(self) -> i64 {
        let y = self.year as i64 - if self.month <= 2 { 1 } else { 0 };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    /// Inverse of [`Date::days_since_epoch`].
    pub fn from_days_since_epoch(days: i64) -> Self {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        let year = (y + if m <= 2 { 1 } else { 0 }) as i32;
        Date {
            year,
            month: m,
            day: d,
        }
    }

    /// The date `n` days after this one (`n` may be negative).
    pub fn plus_days(self, n: i64) -> Self {
        Self::from_days_since_epoch(self.days_since_epoch() + n)
    }

    /// Signed number of days from `self` to `other`.
    pub fn days_until(self, other: Date) -> i64 {
        other.days_since_epoch() - self.days_since_epoch()
    }

    /// The month this date falls in.
    pub const fn month_stamp(self) -> MonthStamp {
        MonthStamp::new(self.year, self.month)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl FromStr for Date {
    type Err = Error;

    /// Parses `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self> {
        let mut parts = s.splitn(3, '-');
        let (Some(y), Some(m), Some(d)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(Error::parse("date (YYYY-MM-DD)", s));
        };
        let year: i32 = y.parse().map_err(|_| Error::parse("date year", s))?;
        let month: u8 = m.parse().map_err(|_| Error::parse("date month", s))?;
        let day: u8 = d.parse().map_err(|_| Error::parse("date day", s))?;
        Date::new(year, month, day).map_err(|_| Error::parse("valid calendar date", s))
    }
}

/// A calendar month encoded as a single integer: `year * 12 + (month - 1)`.
///
/// This is the x-axis unit for every time series in the study. Supports
/// ordering, arithmetic, and iteration over inclusive ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonthStamp(i32);

impl MonthStamp {
    /// Construct from year and 1-based month. `month` must be in 1..=12;
    /// callers with untrusted input should use [`MonthStamp::try_new`].
    pub const fn new(year: i32, month: u8) -> Self {
        MonthStamp(year * 12 + month as i32 - 1)
    }

    /// Validating constructor.
    pub fn try_new(year: i32, month: u8) -> Result<Self> {
        if month == 0 || month > 12 {
            return Err(Error::invalid("month must be in 1..=12"));
        }
        Ok(Self::new(year, month))
    }

    /// The raw month index.
    pub const fn index(self) -> i32 {
        self.0
    }

    /// Rebuild from a raw index.
    pub const fn from_index(index: i32) -> Self {
        MonthStamp(index)
    }

    /// Year component.
    pub const fn year(self) -> i32 {
        self.0.div_euclid(12)
    }

    /// Month component (1-based).
    pub const fn month(self) -> u8 {
        (self.0.rem_euclid(12) + 1) as u8
    }

    /// First day of this month.
    pub fn first_day(self) -> Date {
        Date {
            year: self.year(),
            month: self.month(),
            day: 1,
        }
    }

    /// Last day of this month.
    pub fn last_day(self) -> Date {
        let y = self.year();
        let m = self.month();
        Date {
            year: y,
            month: m,
            day: days_in_month(y, m),
        }
    }

    /// The month `n` months later (`n` may be negative).
    pub const fn plus(self, n: i32) -> Self {
        MonthStamp(self.0 + n)
    }

    /// Signed number of months from `self` to `other`.
    pub const fn months_until(self, other: MonthStamp) -> i32 {
        other.0 - self.0
    }

    /// Inclusive iterator over `[self, end]`. Empty if `end < self`.
    pub fn through(self, end: MonthStamp) -> impl Iterator<Item = MonthStamp> {
        (self.0..=end.0).map(MonthStamp)
    }

    /// Fractional years since `origin` — convenient for growth-model math.
    pub fn years_since(self, origin: MonthStamp) -> f64 {
        (self.0 - origin.0) as f64 / 12.0
    }
}

impl fmt::Display for MonthStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year(), self.month())
    }
}

impl FromStr for MonthStamp {
    type Err = Error;

    /// Parses `YYYY-MM`.
    fn from_str(s: &str) -> Result<Self> {
        let Some((y, m)) = s.split_once('-') else {
            return Err(Error::parse("month (YYYY-MM)", s));
        };
        let year: i32 = y.parse().map_err(|_| Error::parse("month year", s))?;
        let month: u8 = m.parse().map_err(|_| Error::parse("month number", s))?;
        MonthStamp::try_new(year, month).map_err(|_| Error::parse("month in 1..=12", s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::ymd(1970, 1, 1).days_since_epoch(), 0);
        assert_eq!(Date::from_days_since_epoch(0), Date::ymd(1970, 1, 1));
    }

    #[test]
    fn known_day_counts() {
        assert_eq!(Date::ymd(2000, 3, 1).days_since_epoch(), 11017);
        assert_eq!(Date::ymd(2024, 8, 4).days_since_epoch(), 19939); // SIGCOMM'24 day 1
        assert_eq!(Date::ymd(1969, 12, 31).days_since_epoch(), -1);
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2024));
        assert!(!is_leap_year(2023));
        assert_eq!(days_in_month(2024, 2), 29);
        assert_eq!(days_in_month(2023, 2), 28);
        assert_eq!(days_in_month(2023, 12), 31);
    }

    #[test]
    fn rejects_invalid_dates() {
        assert!(Date::new(2023, 2, 29).is_err());
        assert!(Date::new(2023, 13, 1).is_err());
        assert!(Date::new(2023, 0, 1).is_err());
        assert!(Date::new(2023, 6, 31).is_err());
        assert!(Date::new(2024, 2, 29).is_ok());
    }

    #[test]
    fn date_parse_roundtrip() {
        let d: Date = "2013-02-28".parse().unwrap();
        assert_eq!(d, Date::ymd(2013, 2, 28));
        assert_eq!(d.to_string(), "2013-02-28");
        assert!("2013-2".parse::<Date>().is_err());
        assert!("2013-02-30".parse::<Date>().is_err());
    }

    #[test]
    fn month_stamp_components() {
        let m = MonthStamp::new(2013, 1);
        assert_eq!(m.year(), 2013);
        assert_eq!(m.month(), 1);
        assert_eq!(m.plus(11).month(), 12);
        assert_eq!(m.plus(12), MonthStamp::new(2014, 1));
        assert_eq!(m.plus(-1), MonthStamp::new(2012, 12));
    }

    #[test]
    fn month_stamp_range_iteration() {
        let months: Vec<_> = MonthStamp::new(2023, 11)
            .through(MonthStamp::new(2024, 2))
            .collect();
        assert_eq!(months.len(), 4);
        assert_eq!(months[0].to_string(), "2023-11");
        assert_eq!(months[3].to_string(), "2024-02");
        // Empty when reversed.
        assert_eq!(
            MonthStamp::new(2024, 2)
                .through(MonthStamp::new(2023, 11))
                .count(),
            0
        );
    }

    #[test]
    fn month_first_and_last_day() {
        let m = MonthStamp::new(2024, 2);
        assert_eq!(m.first_day(), Date::ymd(2024, 2, 1));
        assert_eq!(m.last_day(), Date::ymd(2024, 2, 29));
    }

    #[test]
    fn month_parse_roundtrip() {
        let m: MonthStamp = "2018-04".parse().unwrap();
        assert_eq!(m, MonthStamp::new(2018, 4));
        assert!("2018-13".parse::<MonthStamp>().is_err());
        assert!("2018".parse::<MonthStamp>().is_err());
    }

    #[test]
    fn years_since_fractional() {
        let origin = MonthStamp::new(2013, 1);
        assert_eq!(MonthStamp::new(2014, 1).years_since(origin), 1.0);
        assert_eq!(MonthStamp::new(2013, 7).years_since(origin), 0.5);
    }

    proptest! {
        #[test]
        fn civil_days_roundtrip(days in -800_000i64..800_000) {
            let d = Date::from_days_since_epoch(days);
            prop_assert_eq!(d.days_since_epoch(), days);
        }

        #[test]
        fn date_roundtrip(y in 1900i32..2100, m in 1u8..=12, d in 1u8..=28) {
            let date = Date::new(y, m, d).unwrap();
            let back = Date::from_days_since_epoch(date.days_since_epoch());
            prop_assert_eq!(date, back);
        }

        #[test]
        fn successive_days_differ_by_one(days in -800_000i64..800_000) {
            let d0 = Date::from_days_since_epoch(days);
            let d1 = Date::from_days_since_epoch(days + 1);
            prop_assert_eq!(d0.days_until(d1), 1);
            prop_assert!(d1 > d0);
        }

        #[test]
        fn month_stamp_index_roundtrip(y in -5000i32..5000, m in 1u8..=12) {
            let ms = MonthStamp::new(y, m);
            prop_assert_eq!(MonthStamp::from_index(ms.index()), ms);
            prop_assert_eq!(ms.year(), y);
            prop_assert_eq!(ms.month(), m);
        }
    }
}
