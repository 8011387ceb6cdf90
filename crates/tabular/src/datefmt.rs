//! Date/time parsing and formatting with Java `SimpleDateFormat`-style
//! patterns.
//!
//! The paper's `date` map operator (§3.7.1, figure 21) is configured with
//! patterns like `'E MMM dd HH:mm:ss Z yyyy'` (the Twitter `created_at`
//! format) and `yyyy-MM-dd`. This module implements the subset of pattern
//! letters those pipelines need, from scratch: `yyyy`, `yy`, `MM`, `MMM`,
//! `dd`, `d`, `HH`, `mm`, `ss`, `SSS`, `Z`, `E`/`EEE`, plus literal text and
//! `''`-quoted sections.
//!
//! Civil-calendar conversion uses the classic days-from-civil algorithm
//! (era/day-of-era arithmetic), valid across the full `i32` day range.

use crate::error::{Result, TabularError};
use std::fmt;

/// A timestamp in milliseconds since the Unix epoch, UTC.
pub type EpochMillis = i64;

const MILLIS_PER_DAY: i64 = 86_400_000;

/// Convert a civil date to days since the Unix epoch.
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era * 146097 + doe - 719468) as i32
}

/// Convert days since the Unix epoch back to a civil `(year, month, day)`.
pub fn civil_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// Day of week for an epoch-day count; 0 = Monday … 6 = Sunday
/// (1970-01-01 was a Thursday).
pub fn weekday_from_days(days: i32) -> u32 {
    ((days as i64 + 3).rem_euclid(7)) as u32
}

const MONTHS_ABBREV: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];
const WEEKDAYS_ABBREV: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];

/// A broken-down UTC datetime used internally by the formatter/parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DateTime {
    /// Civil year (proleptic Gregorian).
    pub year: i32,
    /// Month 1–12.
    pub month: u32,
    /// Day of month 1–31.
    pub day: u32,
    /// Hour 0–23.
    pub hour: u32,
    /// Minute 0–59.
    pub minute: u32,
    /// Second 0–59.
    pub second: u32,
    /// Millisecond 0–999.
    pub millis: u32,
    /// UTC offset in minutes east of Greenwich.
    pub offset_minutes: i32,
}

impl DateTime {
    /// Midnight UTC on the given civil date.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        DateTime {
            year,
            month,
            day,
            hour: 0,
            minute: 0,
            second: 0,
            millis: 0,
            offset_minutes: 0,
        }
    }

    /// Milliseconds since the Unix epoch, honouring the offset.
    pub fn to_epoch_millis(&self) -> EpochMillis {
        let days = days_from_civil(self.year, self.month, self.day) as i64;
        let local = days * MILLIS_PER_DAY
            + self.hour as i64 * 3_600_000
            + self.minute as i64 * 60_000
            + self.second as i64 * 1_000
            + self.millis as i64;
        local - self.offset_minutes as i64 * 60_000
    }

    /// Rebuild a UTC broken-down datetime from epoch milliseconds.
    pub fn from_epoch_millis(ms: EpochMillis) -> Self {
        let days = ms.div_euclid(MILLIS_PER_DAY);
        let rem = ms.rem_euclid(MILLIS_PER_DAY);
        let (year, month, day) = civil_from_days(days as i32);
        DateTime {
            year,
            month,
            day,
            hour: (rem / 3_600_000) as u32,
            minute: (rem / 60_000 % 60) as u32,
            second: (rem / 1_000 % 60) as u32,
            millis: (rem % 1_000) as u32,
            offset_minutes: 0,
        }
    }

    /// The same instant with its offset folded into UTC: what the `date`
    /// map operator re-formats (matches Pig/Java behaviour for `Z`
    /// patterns).
    pub fn to_utc(&self) -> DateTime {
        DateTime::from_epoch_millis(self.to_epoch_millis())
    }

    /// Days since the Unix epoch for the date part (UTC).
    pub fn epoch_days(&self) -> i32 {
        (self.to_epoch_millis().div_euclid(MILLIS_PER_DAY)) as i32
    }
}

/// One compiled token of a date pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Year4,
    Year2,
    Month2,
    MonthAbbrev,
    Day2,
    Day1,
    Hour2,
    Minute2,
    Second2,
    Millis3,
    ZoneRfc822,
    WeekdayAbbrev,
    Literal(String),
}

/// A compiled date format pattern, reusable across rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatePattern {
    tokens: Vec<Token>,
    source: String,
}

impl DatePattern {
    /// Compile a Java-style pattern string.
    pub fn compile(pattern: &str) -> Result<Self> {
        let mut tokens = Vec::new();
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c == '\'' {
                // Quoted literal section; '' is an escaped quote.
                let mut lit = String::new();
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\'' {
                        if i + 1 < chars.len() && chars[i + 1] == '\'' {
                            lit.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        lit.push(chars[i]);
                        i += 1;
                    }
                }
                tokens.push(Token::Literal(lit));
                continue;
            }
            if c.is_ascii_alphabetic() {
                let mut run = 1;
                while i + run < chars.len() && chars[i + run] == c {
                    run += 1;
                }
                let tok = match (c, run) {
                    ('y', 4) => Token::Year4,
                    ('y', 2) => Token::Year2,
                    ('M', 2) => Token::Month2,
                    ('M', n) if n >= 3 => Token::MonthAbbrev,
                    ('d', 2) => Token::Day2,
                    ('d', 1) => Token::Day1,
                    ('H', 2) => Token::Hour2,
                    ('m', 2) => Token::Minute2,
                    ('s', 2) => Token::Second2,
                    ('S', 3) => Token::Millis3,
                    ('Z', _) => Token::ZoneRfc822,
                    ('E', _) => Token::WeekdayAbbrev,
                    _ => return Err(TabularError::BadDatePattern(pattern.to_string())),
                };
                tokens.push(tok);
                i += run;
                continue;
            }
            // Unquoted literal character (separators like '-', ':', ' ').
            match tokens.last_mut() {
                Some(Token::Literal(l)) => l.push(c),
                _ => tokens.push(Token::Literal(c.to_string())),
            }
            i += 1;
        }
        Ok(DatePattern {
            tokens,
            source: pattern.to_string(),
        })
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Parse `input` against this pattern into a broken-down datetime.
    pub fn parse(&self, input: &str) -> Result<DateTime> {
        let err = || TabularError::DateParse {
            input: input.to_string(),
            pattern: self.source.clone(),
        };
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let mut dt = DateTime::from_ymd(1970, 1, 1);

        let read_digits = |pos: &mut usize, min: usize, max: usize| -> Option<i64> {
            let start = *pos;
            let mut end = start;
            while end < bytes.len() && end - start < max && bytes[end].is_ascii_digit() {
                end += 1;
            }
            if end - start < min {
                return None;
            }
            *pos = end;
            input[start..end].parse::<i64>().ok()
        };

        for tok in &self.tokens {
            match tok {
                Token::Year4 => dt.year = read_digits(&mut pos, 4, 4).ok_or_else(err)? as i32,
                Token::Year2 => {
                    let y = read_digits(&mut pos, 2, 2).ok_or_else(err)?;
                    dt.year = 2000 + y as i32;
                }
                Token::Month2 => dt.month = read_digits(&mut pos, 2, 2).ok_or_else(err)? as u32,
                Token::MonthAbbrev => {
                    let rest = &input[pos..];
                    let idx = MONTHS_ABBREV
                        .iter()
                        .position(|m| rest.len() >= 3 && rest[..3].eq_ignore_ascii_case(m))
                        .ok_or_else(err)?;
                    dt.month = idx as u32 + 1;
                    pos += 3;
                }
                Token::Day2 => dt.day = read_digits(&mut pos, 2, 2).ok_or_else(err)? as u32,
                Token::Day1 => dt.day = read_digits(&mut pos, 1, 2).ok_or_else(err)? as u32,
                Token::Hour2 => dt.hour = read_digits(&mut pos, 2, 2).ok_or_else(err)? as u32,
                Token::Minute2 => dt.minute = read_digits(&mut pos, 2, 2).ok_or_else(err)? as u32,
                Token::Second2 => dt.second = read_digits(&mut pos, 2, 2).ok_or_else(err)? as u32,
                Token::Millis3 => dt.millis = read_digits(&mut pos, 3, 3).ok_or_else(err)? as u32,
                Token::ZoneRfc822 => {
                    // +0530 / -0800 / Z
                    if pos < bytes.len() && (bytes[pos] == b'Z' || bytes[pos] == b'z') {
                        dt.offset_minutes = 0;
                        pos += 1;
                    } else {
                        if pos >= bytes.len() || (bytes[pos] != b'+' && bytes[pos] != b'-') {
                            return Err(err());
                        }
                        let sign: i32 = if bytes[pos] == b'-' { -1 } else { 1 };
                        pos += 1;
                        let hhmm = read_digits(&mut pos, 4, 4).ok_or_else(err)?;
                        dt.offset_minutes = sign * ((hhmm / 100 * 60) + hhmm % 100) as i32;
                    }
                }
                Token::WeekdayAbbrev => {
                    let rest = &input[pos..];
                    let ok = WEEKDAYS_ABBREV
                        .iter()
                        .any(|w| rest.len() >= 3 && rest[..3].eq_ignore_ascii_case(w));
                    if !ok {
                        return Err(err());
                    }
                    pos += 3;
                }
                Token::Literal(l) => {
                    if !input[pos..].starts_with(l.as_str()) {
                        return Err(err());
                    }
                    pos += l.len();
                }
            }
        }
        if pos != bytes.len() {
            return Err(err());
        }
        if dt.month == 0 || dt.month > 12 || dt.day == 0 || dt.day > 31 {
            return Err(err());
        }
        Ok(dt)
    }

    /// Format a broken-down datetime with this pattern.
    pub fn format(&self, dt: &DateTime) -> String {
        let mut out = String::new();
        self.write_to(dt, &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// `dt` under this pattern as a [`fmt::Display`] value, for `write!`
    /// and for appending a cell to a column's string arena.
    pub fn display<'a>(&'a self, dt: &'a DateTime) -> impl fmt::Display + 'a {
        struct Formatted<'a>(&'a DatePattern, &'a DateTime);
        impl fmt::Display for Formatted<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.write_to(self.1, f)
            }
        }
        Formatted(self, dt)
    }

    /// [`format`](DatePattern::format) straight into `out`, without an
    /// intermediate `String`.
    pub fn write_to(&self, dt: &DateTime, out: &mut impl fmt::Write) -> fmt::Result {
        for tok in &self.tokens {
            match tok {
                Token::Year4 => write!(out, "{:04}", dt.year)?,
                Token::Year2 => write!(out, "{:02}", dt.year.rem_euclid(100))?,
                Token::Month2 => write!(out, "{:02}", dt.month)?,
                Token::MonthAbbrev => {
                    out.write_str(MONTHS_ABBREV[(dt.month as usize - 1).min(11)])?
                }
                Token::Day2 => write!(out, "{:02}", dt.day)?,
                Token::Day1 => write!(out, "{}", dt.day)?,
                Token::Hour2 => write!(out, "{:02}", dt.hour)?,
                Token::Minute2 => write!(out, "{:02}", dt.minute)?,
                Token::Second2 => write!(out, "{:02}", dt.second)?,
                Token::Millis3 => write!(out, "{:03}", dt.millis)?,
                Token::ZoneRfc822 => {
                    let sign = if dt.offset_minutes < 0 { '-' } else { '+' };
                    let m = dt.offset_minutes.abs();
                    write!(out, "{sign}{:02}{:02}", m / 60, m % 60)?;
                }
                Token::WeekdayAbbrev => {
                    let days = days_from_civil(dt.year, dt.month, dt.day);
                    out.write_str(WEEKDAYS_ABBREV[weekday_from_days(days) as usize])?;
                }
                Token::Literal(l) => out.write_str(l)?,
            }
        }
        Ok(())
    }
}

/// Parse with `input_pattern` and re-format with `output_pattern` — the exact
/// behaviour of the paper's `date` map operator.
pub fn reformat(
    input: &str,
    input_pattern: &DatePattern,
    output_pattern: &DatePattern,
) -> Result<String> {
    Ok(output_pattern.format(&input_pattern.parse(input)?.to_utc()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip_epoch() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
        for days in [-1_000_000, -1, 0, 1, 365, 10_000, 1_000_000] {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days, "roundtrip {days}");
        }
    }

    #[test]
    fn leap_years() {
        assert_eq!(
            days_from_civil(2000, 2, 29) + 1,
            days_from_civil(2000, 3, 1)
        );
        assert_eq!(
            days_from_civil(1900, 2, 28) + 1,
            days_from_civil(1900, 3, 1),
            "1900 is not a leap year"
        );
    }

    #[test]
    fn weekday() {
        // 1970-01-01 was a Thursday (index 3).
        assert_eq!(weekday_from_days(0), 3);
        // 2013-05-02 was a Thursday.
        assert_eq!(weekday_from_days(days_from_civil(2013, 5, 2)), 3);
    }

    #[test]
    fn parse_twitter_created_at() {
        let p = DatePattern::compile("E MMM dd HH:mm:ss Z yyyy").unwrap();
        let dt = p.parse("Thu May 02 19:30:05 +0530 2013").unwrap();
        assert_eq!((dt.year, dt.month, dt.day), (2013, 5, 2));
        assert_eq!(dt.offset_minutes, 330);
        let out = DatePattern::compile("yyyy-MM-dd").unwrap();
        assert_eq!(
            reformat("Thu May 02 19:30:05 +0530 2013", &p, &out).unwrap(),
            "2013-05-02"
        );
    }

    #[test]
    fn offset_fold_crosses_midnight() {
        let p = DatePattern::compile("E MMM dd HH:mm:ss Z yyyy").unwrap();
        let out = DatePattern::compile("yyyy-MM-dd").unwrap();
        // 01:30 IST on May 3 is 20:00 UTC on May 2.
        assert_eq!(
            reformat("Fri May 03 01:30:00 +0530 2013", &p, &out).unwrap(),
            "2013-05-02"
        );
    }

    #[test]
    fn iso_roundtrip() {
        let p = DatePattern::compile("yyyy-MM-dd").unwrap();
        let dt = p.parse("2015-05-31").unwrap();
        assert_eq!(p.format(&dt), "2015-05-31");
    }

    #[test]
    fn quoted_literals() {
        let p = DatePattern::compile("yyyy'T'MM").unwrap();
        let dt = p.parse("2015T06").unwrap();
        assert_eq!((dt.year, dt.month), (2015, 6));
        assert_eq!(p.format(&dt), "2015T06");
    }

    #[test]
    fn parse_rejects_garbage() {
        let p = DatePattern::compile("yyyy-MM-dd").unwrap();
        assert!(p.parse("2015-13-01").is_err(), "month 13");
        assert!(p.parse("2015-05-00").is_err(), "day 0");
        assert!(p.parse("2015-05").is_err(), "truncated");
        assert!(p.parse("2015-05-01X").is_err(), "trailing junk");
        assert!(p.parse("not a date").is_err());
    }

    #[test]
    fn bad_pattern_rejected() {
        assert!(DatePattern::compile("QQQQ").is_err());
    }

    #[test]
    fn zone_z_literal() {
        let p = DatePattern::compile("yyyy-MM-dd HH:mm Z").unwrap();
        let dt = p.parse("2015-01-01 10:00 Z").unwrap();
        assert_eq!(dt.offset_minutes, 0);
        let dt = p.parse("2015-01-01 10:00 -0800").unwrap();
        assert_eq!(dt.offset_minutes, -480);
    }

    #[test]
    fn epoch_millis_roundtrip() {
        for ms in [-86_400_000i64, -1, 0, 1, 1_368_536_405_000] {
            let dt = DateTime::from_epoch_millis(ms);
            assert_eq!(dt.to_epoch_millis(), ms, "roundtrip {ms}");
        }
    }
}
