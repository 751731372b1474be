//! The closed rule catalog. Every diagnostic the linter can emit carries one
//! of these rules; ids are stable and are the grammar of `allow(...)` pragmas
//! and `--disable` flags.

/// A lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `HashMap`/`HashSet` in simulation code: iteration order is seeded per
    /// process, so any traversal leaks nondeterminism into the simulation.
    DetHashOrder,
    /// `SystemTime`/`Instant` in simulation code: wall-clock reads make runs
    /// irreproducible.
    DetWallClock,
    /// Randomness constructed outside `easydram_dram::det` in simulation
    /// code: all stochastic behaviour must derive from the config seed.
    DetStrayRng,
    /// `std::thread::spawn`/`scope`/`Builder`, `rayon::...`, or a
    /// `JoinHandle` in simulation code: OS scheduling order leaks into
    /// simulated state unless the threads are serialised by a
    /// baton-scheduled harness. No file is exempt: every site needs a
    /// justified allow pragma.
    DetThreadSpawn,
    /// `Vec::new`/`vec!`/`String::from`/`format!`/`.to_vec()`/… in a
    /// `// lint: no_alloc` region.
    AllocVecNew,
    /// `Box::new`/`Rc::new`/`Arc::new` in a `// lint: no_alloc` region.
    AllocBoxNew,
    /// `.clone()` in a `// lint: no_alloc` region.
    AllocClone,
    /// `.collect()` in a `// lint: no_alloc` region.
    AllocCollect,
    /// An `allow(...)` pragma with no justification text after the rule list.
    PragmaAllowNeedsReason,
    /// A pragma naming a rule id outside the closed catalog, or with a body
    /// the grammar does not recognize.
    PragmaUnknownRule,
    /// An `allow(...)` pragma whose target line raised no finding of the
    /// allowed rule — stale escapes must be deleted, not accumulated.
    PragmaUnusedAllow,
    /// A trace-event or switch-log record constructed from a host clock
    /// type in simulation code: observability timestamps must be emulated
    /// picoseconds (or cycles), never `Instant`/`Duration` readings.
    ObsEmulatedTimeOnly,
}

impl Rule {
    /// Every rule, in reporting order.
    #[must_use]
    pub fn all() -> &'static [Rule] {
        &[
            Rule::DetHashOrder,
            Rule::DetWallClock,
            Rule::DetStrayRng,
            Rule::DetThreadSpawn,
            Rule::AllocVecNew,
            Rule::AllocBoxNew,
            Rule::AllocClone,
            Rule::AllocCollect,
            Rule::PragmaAllowNeedsReason,
            Rule::PragmaUnknownRule,
            Rule::PragmaUnusedAllow,
            Rule::ObsEmulatedTimeOnly,
        ]
    }

    /// Stable id, as used in `allow(...)` pragmas and `--disable`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::DetHashOrder => "det/hash-order",
            Rule::DetWallClock => "det/wall-clock",
            Rule::DetStrayRng => "det/stray-rng",
            Rule::DetThreadSpawn => "det/thread-spawn",
            Rule::AllocVecNew => "alloc/vec-new",
            Rule::AllocBoxNew => "alloc/box-new",
            Rule::AllocClone => "alloc/clone",
            Rule::AllocCollect => "alloc/collect",
            Rule::PragmaAllowNeedsReason => "pragma/allow-needs-reason",
            Rule::PragmaUnknownRule => "pragma/unknown-rule",
            Rule::PragmaUnusedAllow => "pragma/unused-allow",
            Rule::ObsEmulatedTimeOnly => "obs/emulated-time-only",
        }
    }

    /// One-line description for `--list-rules` and the docs.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::DetHashOrder => {
                "HashMap/HashSet in simulation code (hash iteration order is \
                 nondeterministic; use BTreeMap/BTreeSet or a direct-indexed \
                 table)"
            }
            Rule::DetWallClock => {
                "SystemTime/Instant in simulation code (wall-clock reads make \
                 runs irreproducible)"
            }
            Rule::DetStrayRng => {
                "randomness constructed outside easydram_dram::det in \
                 simulation code (all stochastic behaviour must derive from \
                 the config seed)"
            }
            Rule::DetThreadSpawn => {
                "std::thread::spawn/scope/Builder, rayon, or a JoinHandle in \
                 simulation code (OS scheduling order is nondeterministic; \
                 threads must be serialised by a baton-scheduled harness, \
                 justified with an allow pragma)"
            }
            Rule::AllocVecNew => {
                "Vec/String/format! construction inside a `// lint: no_alloc` \
                 region"
            }
            Rule::AllocBoxNew => "Box/Rc/Arc construction inside a `// lint: no_alloc` region",
            Rule::AllocClone => ".clone() inside a `// lint: no_alloc` region",
            Rule::AllocCollect => ".collect() inside a `// lint: no_alloc` region",
            Rule::PragmaAllowNeedsReason => {
                "allow(...) pragma without a justification after the rule list"
            }
            Rule::PragmaUnknownRule => {
                "pragma naming a rule outside the closed catalog (or an \
                 unrecognized pragma body)"
            }
            Rule::PragmaUnusedAllow => {
                "allow(...) pragma whose target line raised no finding of the \
                 allowed rule"
            }
            Rule::ObsEmulatedTimeOnly => {
                "trace-event construction fed from a host clock \
                 (Instant/Duration/elapsed/as_nanos) in simulation code \
                 (observability timestamps must be emulated picoseconds or \
                 cycles, so traces replay byte-identically)"
            }
        }
    }

    /// Looks a rule up by its stable id.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::all().iter().copied().find(|r| r.id() == id)
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_distinct() {
        let ids: Vec<&str> = Rule::all().iter().map(|r| r.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate rule id");
        assert_eq!(Rule::all().len(), 12);
        for r in Rule::all() {
            assert_eq!(Rule::from_id(r.id()), Some(*r));
        }
        assert_eq!(Rule::from_id("det/hash-order"), Some(Rule::DetHashOrder));
        assert_eq!(Rule::from_id("no/such-rule"), None);
    }
}
