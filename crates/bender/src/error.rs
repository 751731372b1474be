//! Bender error types.

use std::error::Error;
use std::fmt;

use easydram_dram::DramError;

/// Errors from building or executing a DRAM Bender program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenderError {
    /// The program exceeded the command-buffer capacity (paper §5.1 ⑦).
    ProgramTooLong {
        /// The configured capacity in instructions.
        capacity: usize,
    },
    /// More reads were issued than the readback buffer can hold (§5.1 ⑧).
    ReadbackOverflow {
        /// The configured readback capacity in cache lines.
        capacity: usize,
    },
    /// A sleep or delay carried the picosecond clock past `u64::MAX`.
    TimeOverflow,
    /// The underlying device rejected a command (out of range coordinates or
    /// a backwards-moving clock).
    Device(DramError),
}

impl fmt::Display for BenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenderError::ProgramTooLong { capacity } => {
                write!(
                    f,
                    "program exceeds command buffer capacity of {capacity} instructions"
                )
            }
            BenderError::ReadbackOverflow { capacity } => {
                write!(f, "readback buffer capacity of {capacity} lines exceeded")
            }
            BenderError::TimeOverflow => {
                write!(f, "a sleep or delay overflows the picosecond clock")
            }
            BenderError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl Error for BenderError {}

impl From<DramError> for BenderError {
    fn from(e: DramError) -> Self {
        BenderError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(BenderError::ProgramTooLong { capacity: 4 }
            .to_string()
            .contains('4'));
        assert!(BenderError::ReadbackOverflow { capacity: 9 }
            .to_string()
            .contains('9'));
        assert!(BenderError::TimeOverflow.to_string().contains("overflows"));
        let e = DramError::TimeWentBackwards {
            now_ps: 9,
            requested_ps: 4,
        };
        assert_eq!(
            BenderError::from(e.clone()).to_string(),
            format!("device error: {e}")
        );
    }
}
