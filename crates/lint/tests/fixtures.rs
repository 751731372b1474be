//! Fixture-based self-tests: one seeded violation per rule, asserted down to
//! the exact rule id, file path, and line number — plus the proof that each
//! finding disappears when its rule is disabled.

use std::collections::BTreeSet;

use easydram_lint::{lint_source, FileScope, Rule};

const SIM: FileScope = FileScope {
    sim: true,
    rng_exempt: false,
};

fn all_rules() -> BTreeSet<Rule> {
    Rule::all().iter().copied().collect()
}

/// Lints a fixture and returns `(rule id, line)` pairs, sorted.
fn findings(path: &str, src: &str) -> Vec<(&'static str, u32)> {
    let diags = lint_source(path, src, SIM, &all_rules());
    for d in &diags {
        assert_eq!(d.path, path, "diagnostic must carry the fixture path");
    }
    diags.iter().map(|d| (d.rule.id(), d.line)).collect()
}

/// Lints a fixture with `disabled` switched off.
fn findings_without(path: &str, src: &str, disabled: Rule) -> Vec<(&'static str, u32)> {
    let mut enabled = all_rules();
    enabled.remove(&disabled);
    lint_source(path, src, SIM, &enabled)
        .iter()
        .map(|d| (d.rule.id(), d.line))
        .collect()
}

macro_rules! fixture {
    ($name:ident, $file:literal, $rule:expr, $expected:expr) => {
        #[test]
        fn $name() {
            let path = concat!("crates/lint/tests/fixtures/", $file);
            let src = include_str!(concat!("fixtures/", $file));
            let expected: &[(&str, u32)] = &$expected;
            assert_eq!(findings(path, src), expected, "fixture {}", $file);
            // The same fixture goes quiet when its rule is disabled — this is
            // the "fixture test fails if the rule is wired off" guarantee.
            assert!(
                findings_without(path, src, $rule)
                    .iter()
                    .all(|(id, _)| *id != $rule.id()),
                "disabling {} must silence it",
                $rule.id()
            );
        }
    };
}

fixture!(
    det_hash_order,
    "det_hash_order.rs",
    Rule::DetHashOrder,
    [("det/hash-order", 1), ("det/hash-order", 3)]
);
fixture!(
    det_wall_clock,
    "det_wall_clock.rs",
    Rule::DetWallClock,
    [("det/wall-clock", 2)]
);
fixture!(
    det_stray_rng,
    "det_stray_rng.rs",
    Rule::DetStrayRng,
    [("det/stray-rng", 2)]
);
fixture!(
    det_thread_spawn,
    "det_thread_spawn.rs",
    Rule::DetThreadSpawn,
    [
        ("det/thread-spawn", 2),
        ("det/thread-spawn", 3),
        ("det/thread-spawn", 6),
        ("det/thread-spawn", 7)
    ]
);
fixture!(
    alloc_vec_new,
    "alloc_vec_new.rs",
    Rule::AllocVecNew,
    [("alloc/vec-new", 3)]
);
fixture!(
    alloc_box_new,
    "alloc_box_new.rs",
    Rule::AllocBoxNew,
    [("alloc/box-new", 3)]
);
fixture!(
    alloc_clone,
    "alloc_clone.rs",
    Rule::AllocClone,
    [("alloc/clone", 3)]
);
fixture!(
    alloc_collect,
    "alloc_collect.rs",
    Rule::AllocCollect,
    [("alloc/collect", 3)]
);
fixture!(
    pragma_allow_needs_reason,
    "pragma_allow_needs_reason.rs",
    Rule::PragmaAllowNeedsReason,
    [("pragma/allow-needs-reason", 2)]
);
fixture!(
    pragma_unknown_rule,
    "pragma_unknown_rule.rs",
    Rule::PragmaUnknownRule,
    [("pragma/unknown-rule", 1)]
);
fixture!(
    pragma_unused_allow,
    "pragma_unused_allow.rs",
    Rule::PragmaUnusedAllow,
    [("pragma/unused-allow", 1)]
);
fixture!(
    obs_emulated_time_only,
    "obs_emulated_time_only.rs",
    Rule::ObsEmulatedTimeOnly,
    [("obs/emulated-time-only", 5), ("obs/emulated-time-only", 7)]
);

#[test]
fn clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/clean.rs");
    assert_eq!(findings("crates/lint/tests/fixtures/clean.rs", src), []);
}

#[test]
fn every_rule_has_a_seeded_fixture() {
    // The macro invocations above cover the catalog; this guards against a
    // rule being added without a fixture.
    let seeded: BTreeSet<&str> = [
        "det/hash-order",
        "det/wall-clock",
        "det/stray-rng",
        "det/thread-spawn",
        "alloc/vec-new",
        "alloc/box-new",
        "alloc/clone",
        "alloc/collect",
        "pragma/allow-needs-reason",
        "pragma/unknown-rule",
        "pragma/unused-allow",
        "obs/emulated-time-only",
    ]
    .into_iter()
    .collect();
    let catalog: BTreeSet<&str> = Rule::all().iter().map(|r| r.id()).collect();
    assert_eq!(seeded, catalog);
}

#[test]
fn det_rules_only_fire_in_sim_scope() {
    let src = include_str!("fixtures/det_hash_order.rs");
    let host = FileScope {
        sim: false,
        rng_exempt: false,
    };
    let diags = lint_source("crates/bench/src/x.rs", src, host, &all_rules());
    assert!(
        diags.is_empty(),
        "det rules must not fire outside sim crates"
    );
}

#[test]
fn rng_home_is_exempt_from_stray_rng() {
    let src = include_str!("fixtures/det_stray_rng.rs");
    let det_home = FileScope {
        sim: true,
        rng_exempt: true,
    };
    let diags = lint_source("crates/dram/src/det.rs", src, det_home, &all_rules());
    assert!(diags.is_empty(), "det.rs may construct RNG state");
}

#[test]
fn stray_spawn_elsewhere_in_core_still_fires() {
    // End-to-end through the walker's own scope derivation: the spawn and the
    // held JoinHandle fire in every crates/core module. No path is exempt,
    // `par.rs` (which owns no thread) included.
    let src = include_str!("fixtures/det_thread_spawn_core.rs");
    for path in ["crates/core/src/smc/mod.rs", "crates/core/src/par.rs"] {
        let diags = lint_source(path, src, easydram_lint::scope_for(path), &all_rules());
        let got: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule.id(), d.line)).collect();
        assert_eq!(
            got,
            [("det/thread-spawn", 2), ("det/thread-spawn", 6)],
            "stray thread ownership must fire at {path}"
        );
    }
}

#[test]
fn justified_allow_suppresses_and_is_not_stale() {
    let src = "pub struct Cache {\n    // lint: allow(det/hash-order) — lookup-only, never iterated\n    map: std::collections::HashMap<u64, u32>,\n}\n";
    let diags = lint_source("x.rs", src, SIM, &all_rules());
    assert!(diags.is_empty(), "justified allow must be clean: {diags:?}");
}

#[test]
fn trailing_allow_targets_its_own_line() {
    let src = "use std::collections::HashMap; // lint: allow(det/hash-order) — import for a justified field\n";
    let diags = lint_source("x.rs", src, SIM, &all_rules());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allow_list_covers_multiple_rules() {
    let src = "// lint: allow(alloc/vec-new, alloc/collect) — cold error path\n// lint: no_alloc\npub fn hot(n: u32) -> usize {\n    let v: Vec<u32> = (0..n).collect();\n    v.len()\n}\n";
    // Own-line allow targets the next *code* line (line 3, `pub fn`), not the
    // violation on line 4 — so both findings survive and both allows go stale.
    let diags = lint_source("x.rs", src, SIM, &all_rules());
    let ids: Vec<&str> = diags.iter().map(|d| d.rule.id()).collect();
    assert!(ids.contains(&"alloc/collect"));
    assert!(ids.contains(&"pragma/unused-allow"));
}

#[test]
fn no_alloc_region_ends_at_closing_brace() {
    let src = "// lint: no_alloc\npub fn hot() -> u32 {\n    7\n}\npub fn cold() -> Vec<u8> {\n    Vec::new()\n}\n";
    let diags = lint_source("x.rs", src, SIM, &all_rules());
    assert!(
        diags.is_empty(),
        "allocation after the region must be fine: {diags:?}"
    );
}
