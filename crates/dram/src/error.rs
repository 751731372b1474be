//! Error and timing-violation types.

use std::error::Error;
use std::fmt;

/// The JEDEC timing rule a command would (or did) violate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingRule {
    /// ACT to column command (row-to-column delay).
    Trcd,
    /// PRE to ACT (precharge time).
    Trp,
    /// ACT to PRE (row restoration time).
    Tras,
    /// Column-to-column spacing (same bank group).
    TccdL,
    /// Column-to-column spacing (different bank group).
    TccdS,
    /// ACT-to-ACT spacing (same bank group).
    TrrdL,
    /// ACT-to-ACT spacing (different bank group).
    TrrdS,
    /// Four-activate window.
    Tfaw,
    /// Write recovery before PRE.
    Twr,
    /// Read-to-precharge delay.
    Trtp,
    /// Write-to-read turnaround.
    Twtr,
    /// Refresh cycle time (commands during tRFC).
    Trfc,
    /// Command requires an open row but the bank is precharged.
    BankClosed,
    /// ACT issued to a bank that already has an open row.
    BankOpen,
    /// REF issued while one or more banks have open rows.
    RefWithOpenRows,
}

impl fmt::Display for TimingRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TimingRule::Trcd => "tRCD",
            TimingRule::Trp => "tRP",
            TimingRule::Tras => "tRAS",
            TimingRule::TccdL => "tCCD_L",
            TimingRule::TccdS => "tCCD_S",
            TimingRule::TrrdL => "tRRD_L",
            TimingRule::TrrdS => "tRRD_S",
            TimingRule::Tfaw => "tFAW",
            TimingRule::Twr => "tWR",
            TimingRule::Trtp => "tRTP",
            TimingRule::Twtr => "tWTR",
            TimingRule::Trfc => "tRFC",
            TimingRule::BankClosed => "bank-closed",
            TimingRule::BankOpen => "bank-open",
            TimingRule::RefWithOpenRows => "refresh-with-open-rows",
        };
        f.write_str(s)
    }
}

/// A single timing-rule violation observed when issuing a command.
///
/// Violations are not necessarily errors: DRAM techniques work *by* violating
/// timings (paper §1), so [`crate::DramDevice::issue_raw`] executes violating
/// commands with defined behavioural consequences and reports what was
/// violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingViolation {
    /// Which rule was violated.
    pub rule: TimingRule,
    /// The earliest time the command would have been legal, in picoseconds.
    pub earliest_legal_ps: u64,
    /// The time the command was actually issued, in picoseconds.
    pub issued_ps: u64,
}

impl TimingViolation {
    /// How early the command was, in picoseconds.
    #[must_use]
    pub fn margin_ps(&self) -> u64 {
        self.earliest_legal_ps.saturating_sub(self.issued_ps)
    }
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated: issued at {} ps, legal at {} ps ({} ps early)",
            self.rule,
            self.issued_ps,
            self.earliest_legal_ps,
            self.margin_ps()
        )
    }
}

/// Errors returned by the device and its configuration checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramError {
    /// A command addressed a bank/row/column outside the configured geometry.
    OutOfRange {
        /// What was out of range (`"bank"`, `"row"`, or `"col"`).
        what: &'static str,
        /// The offending value.
        value: u64,
        /// The exclusive limit.
        limit: u64,
    },
    /// Command issue times must be monotonically non-decreasing.
    TimeWentBackwards {
        /// The device's current time.
        now_ps: u64,
        /// The (earlier) requested issue time.
        requested_ps: u64,
    },
    /// An issue time past what the picosecond clock can take: the timing
    /// tracker adds distances to recorded times, and must not wrap.
    TimeOutOfRange {
        /// The requested issue time.
        requested_ps: u64,
        /// The latest time the device accepts.
        limit_ps: u64,
    },
    /// The configuration failed validation.
    InvalidConfig(String),
    /// The timing parameter set failed the static contradiction checker
    /// ([`crate::consistency`]): the diagnostic carries the violated rule
    /// id, the offending parameters, and the implied contradiction.
    InvalidTiming(crate::consistency::TimingContradiction),
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::OutOfRange { what, value, limit } => {
                write!(f, "{what} {value} out of range (limit {limit})")
            }
            DramError::TimeWentBackwards {
                now_ps,
                requested_ps,
            } => write!(
                f,
                "command issued at {requested_ps} ps but device time is already {now_ps} ps"
            ),
            DramError::TimeOutOfRange {
                requested_ps,
                limit_ps,
            } => write!(
                f,
                "command issued at {requested_ps} ps, past the clock's limit of {limit_ps} ps"
            ),
            DramError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DramError::InvalidTiming(c) => write!(f, "contradictory timing configuration: {c}"),
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_margin() {
        let v = TimingViolation {
            rule: TimingRule::Trcd,
            earliest_legal_ps: 100,
            issued_ps: 40,
        };
        assert_eq!(v.margin_ps(), 60);
        assert!(v.to_string().contains("tRCD"));
        assert!(v.to_string().contains("60 ps early"));
    }

    #[test]
    fn margin_saturates_when_legal() {
        let v = TimingViolation {
            rule: TimingRule::Trp,
            earliest_legal_ps: 10,
            issued_ps: 40,
        };
        assert_eq!(v.margin_ps(), 0);
    }

    #[test]
    fn error_display_nonempty() {
        let e = DramError::OutOfRange {
            what: "bank",
            value: 99,
            limit: 16,
        };
        assert!(e.to_string().contains("bank 99"));
        let e = DramError::TimeWentBackwards {
            now_ps: 5,
            requested_ps: 3,
        };
        assert!(e.to_string().contains("5 ps"));
    }

    #[test]
    fn rules_display_distinctly() {
        use std::collections::BTreeSet;
        let rules = [
            TimingRule::Trcd,
            TimingRule::Trp,
            TimingRule::Tras,
            TimingRule::TccdL,
            TimingRule::TccdS,
            TimingRule::TrrdL,
            TimingRule::TrrdS,
            TimingRule::Tfaw,
            TimingRule::Twr,
            TimingRule::Trtp,
            TimingRule::Twtr,
            TimingRule::Trfc,
            TimingRule::BankClosed,
            TimingRule::BankOpen,
            TimingRule::RefWithOpenRows,
        ];
        let names: BTreeSet<String> = rules.iter().map(ToString::to_string).collect();
        assert_eq!(names.len(), rules.len());
    }
}
