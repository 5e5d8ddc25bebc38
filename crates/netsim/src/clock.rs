//! Virtual time.
//!
//! All studies run on simulated time so that "four weeks of observation"
//! completes in milliseconds and is perfectly reproducible. `SimTime` is
//! anchored at the start of the Internet-wide scan (June 03, 2021, 00:00
//! UTC); the honeypot study begins six days later (June 09, 2021).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in seconds (may be negative for arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimDuration(pub i64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);
    pub const SECOND: SimDuration = SimDuration(1);
    pub const MINUTE: SimDuration = SimDuration(60);
    pub const HOUR: SimDuration = SimDuration(3600);
    pub const DAY: SimDuration = SimDuration(86_400);
    pub const WEEK: SimDuration = SimDuration(7 * 86_400);

    pub fn seconds(s: i64) -> Self {
        SimDuration(s)
    }

    pub fn minutes(m: i64) -> Self {
        SimDuration(m * 60)
    }

    pub fn hours(h: i64) -> Self {
        SimDuration(h * 3600)
    }

    pub fn days(d: i64) -> Self {
        SimDuration(d * 86_400)
    }

    /// Fractional hours — the unit of Table 6.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    pub fn as_secs(self) -> i64 {
        self.0
    }

    /// Scale by a float (used when sampling lifecycle horizons).
    pub fn mul_f64(self, f: f64) -> Self {
        SimDuration((self.0 as f64 * f).round() as i64)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        let sign = if total < 0 { "-" } else { "" };
        let total = total.abs();
        let (d, rem) = (total / 86_400, total % 86_400);
        let (h, rem) = (rem / 3600, rem % 3600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{sign}{d}d {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{sign}{h:02}:{m:02}:{s:02}")
        }
    }
}

/// An instant of virtual time: seconds since the scan epoch
/// (2021-06-03 00:00 UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimTime(pub i64);

impl SimTime {
    /// Start of the Internet-wide scan (June 03, 2021).
    pub const SCAN_START: SimTime = SimTime(0);
    /// Start of the honeypot study (June 09, 2021) — six days after the
    /// scan epoch.
    pub const HONEYPOT_START: SimTime = SimTime(6 * 86_400);
    /// End of both four-week observation windows, relative to their
    /// respective starts.
    pub const OBSERVATION: SimDuration = SimDuration(28 * 86_400);

    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    pub fn as_secs(self) -> i64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::SCAN_START + SimDuration::hours(3);
        assert_eq!(t.as_secs(), 10_800);
        assert_eq!(t.since(SimTime::SCAN_START), SimDuration::hours(3));
        assert_eq!((t - SimDuration::hours(1)).as_secs(), 7200);
    }

    #[test]
    fn honeypot_starts_six_days_in() {
        assert_eq!(
            SimTime::HONEYPOT_START.since(SimTime::SCAN_START),
            SimDuration::days(6)
        );
    }

    #[test]
    fn duration_units_and_hours() {
        assert_eq!(SimDuration::DAY, SimDuration::hours(24));
        assert_eq!(SimDuration::WEEK, SimDuration::days(7));
        assert!((SimDuration::minutes(90).as_hours_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::seconds(59).to_string(), "00:00:59");
        assert_eq!(SimDuration::hours(25).to_string(), "1d 01:00:00");
        assert_eq!(SimDuration::seconds(-60).to_string(), "-00:01:00");
        assert_eq!((SimTime(3600)).to_string(), "T+01:00:00");
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration::hours(1).mul_f64(0.5), SimDuration::minutes(30));
    }
}
