//! Replayable counterexample traces.
//!
//! A trace is the `(command, issue_ps)` sequence the `fig14_sim_speed`
//! kernels replay ([`easydram_bench::ScheduledCmd`] semantics): each line is the
//! command's canonical [`Display`] form followed by ` @ ` and the absolute
//! issue time in picoseconds. Replaying a trace means applying each command
//! at its printed time against fresh trackers.
//!
//! [`easydram_bench::ScheduledCmd`]: https://docs.rs/easydram-bench
//! [`Display`]: std::fmt::Display

use easydram_dram::DramCommand;

/// One step of a counterexample: a command and its absolute issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The issued command.
    pub cmd: DramCommand,
    /// Absolute issue time, picoseconds.
    pub at_ps: u64,
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ {}", self.cmd, self.at_ps)
    }
}

/// Renders a trace one step per line, in replay order.
#[must_use]
pub fn format_trace(steps: &[Step]) -> String {
    let mut out = String::new();
    for s in steps {
        out.push_str(&s.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_display_matches_replay_format() {
        let s = Step {
            cmd: DramCommand::Activate { bank: 0, row: 1 },
            at_ps: 13_500,
        };
        assert_eq!(s.to_string(), "ACT b0 r1 @ 13500");
        let s = Step {
            cmd: DramCommand::Refresh,
            at_ps: 0,
        };
        assert_eq!(s.to_string(), "REF @ 0");
    }

    #[test]
    fn trace_is_one_step_per_line() {
        let t = [
            Step {
                cmd: DramCommand::Activate { bank: 1, row: 0 },
                at_ps: 0,
            },
            Step {
                cmd: DramCommand::Precharge { bank: 1 },
                at_ps: 36_000,
            },
        ];
        assert_eq!(format_trace(&t), "ACT b1 r0 @ 0\nPRE b1 @ 36000\n");
    }
}
