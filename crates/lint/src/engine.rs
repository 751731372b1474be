//! The rule engine: takes one file's token stream + pragmas and produces
//! diagnostics.
//!
//! Pass structure per file:
//! 1. mask out `#[cfg(test)]` / `#[test]` items (tokens *and* pragmas),
//! 2. resolve `// lint: no_alloc` regions to token-index ranges,
//! 3. parse `allow(...)` pragmas (emitting pragma-hygiene findings),
//! 4. scan tokens for determinism and allocation findings,
//! 5. apply allow suppressions, flag stale allows, sort.

use std::collections::BTreeSet;

use crate::lexer::{lex, Pragma, Token};
use crate::rules::Rule;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative path (always `/`-separated).
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Per-file lint scope, derived from the file's path by the walker.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// Whether the determinism rules apply (simulation crates only).
    pub sim: bool,
    /// Whether `det/stray-rng` is exempt (`easydram_dram::det` itself — the
    /// one place allowed to construct RNG state).
    pub rng_exempt: bool,
}

/// Lints one file's source text. `path` is only used for labeling
/// diagnostics; scoping decisions come from `scope`.
#[must_use]
pub fn lint_source(
    path: &str,
    src: &str,
    scope: FileScope,
    enabled: &BTreeSet<Rule>,
) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let tokens = lexed.tokens;

    // 1. Test-gated code is out of scope for every rule.
    let (live, test_lines) = mask_test_items(&tokens);
    let pragmas: Vec<&Pragma> = lexed
        .pragmas
        .iter()
        .filter(|p| !test_lines.iter().any(|r| r.contains(&p.line)))
        .collect();

    // 2/3. Resolve pragmas.
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut no_alloc_regions: Vec<(usize, usize)> = Vec::new();
    let mut allows: Vec<AllowEntry> = Vec::new();
    for p in &pragmas {
        parse_pragma(
            p,
            &tokens,
            path,
            enabled,
            &mut no_alloc_regions,
            &mut allows,
            &mut diags,
        );
    }

    // 4. Token scans.
    let mut raw: Vec<Diagnostic> = Vec::new();
    if scope.sim {
        scan_determinism(path, &tokens, &live, scope, enabled, &mut raw);
        scan_obs(path, &tokens, &live, enabled, &mut raw);
    }
    scan_allocations(path, &tokens, &live, &no_alloc_regions, enabled, &mut raw);
    raw.sort();
    raw.dedup();

    // 5. Suppression: an allow eats every finding of its rule on its target
    // line; an allow that eats nothing is itself a finding.
    for a in &allows {
        let before = raw.len();
        raw.retain(|d| !(d.rule == a.rule && d.line == a.target_line));
        let used = raw.len() != before;
        if !used && enabled.contains(&Rule::PragmaUnusedAllow) && enabled.contains(&a.rule) {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: a.pragma_line,
                rule: Rule::PragmaUnusedAllow,
                message: format!(
                    "allow({}) matched no finding on line {} — remove the stale escape",
                    a.rule.id(),
                    a.target_line
                ),
            });
        }
    }

    diags.extend(raw);
    diags.sort();
    diags.dedup();
    diags
}

/// One parsed `allow(rule)` with its resolved target line.
struct AllowEntry {
    rule: Rule,
    pragma_line: u32,
    target_line: u32,
}

/// Validates one pragma and records its effect.
fn parse_pragma(
    p: &Pragma,
    tokens: &[Token],
    path: &str,
    enabled: &BTreeSet<Rule>,
    no_alloc_regions: &mut Vec<(usize, usize)>,
    allows: &mut Vec<AllowEntry>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut emit = |rule: Rule, message: String| {
        if enabled.contains(&rule) {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: p.line,
                rule,
                message,
            });
        }
    };
    // `no_alloc` admits an optional trailing rationale: `no_alloc — ...`.
    if p.body.split_whitespace().next() == Some("no_alloc") {
        // Binds to the next brace block: the body of the item that starts at
        // or after the pragma line.
        if let Some(region) = brace_block_from_line(tokens, p.line) {
            no_alloc_regions.push(region);
        } else {
            emit(
                Rule::PragmaUnknownRule,
                "`no_alloc` pragma is not followed by a `{ ... }` block".to_string(),
            );
        }
        return;
    }
    if let Some(rest) = p.body.strip_prefix("allow(") {
        let Some(close) = rest.find(')') else {
            emit(
                Rule::PragmaUnknownRule,
                "unterminated allow(...) pragma".to_string(),
            );
            return;
        };
        let list = &rest[..close];
        let reason = rest[close + 1..]
            .trim_start_matches(|c: char| {
                c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ',' | '.')
            })
            .trim();
        if reason.is_empty() {
            emit(
                Rule::PragmaAllowNeedsReason,
                format!("allow({list}) needs a justification after the rule list"),
            );
        }
        let names: Vec<&str> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if names.is_empty() {
            emit(
                Rule::PragmaUnknownRule,
                "allow() pragma with an empty rule list".to_string(),
            );
            return;
        }
        // Own-line pragma targets the next code line; trailing targets its
        // own line.
        let target_line = if p.own_line {
            tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > p.line)
                .unwrap_or(p.line)
        } else {
            p.line
        };
        for name in names {
            match Rule::from_id(name) {
                Some(rule) => allows.push(AllowEntry {
                    rule,
                    pragma_line: p.line,
                    target_line,
                }),
                None => emit(
                    Rule::PragmaUnknownRule,
                    format!("allow names unknown rule `{name}`"),
                ),
            }
        }
        return;
    }
    emit(
        Rule::PragmaUnknownRule,
        format!("unrecognized pragma `lint: {}`", p.body),
    );
}

/// Finds the token-index range (inclusive) of the first `{ ... }` block whose
/// opening brace sits on `line` or later.
fn brace_block_from_line(tokens: &[Token], line: u32) -> Option<(usize, usize)> {
    let open = tokens
        .iter()
        .position(|t| t.line >= line && t.text == "{")?;
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
    }
    None
}

/// Returns a per-token "live" mask with `#[test]`/`#[cfg(test)]`-gated items
/// masked out, plus the masked line ranges (used to drop pragmas in test
/// code).
fn mask_test_items(tokens: &[Token]) -> (Vec<bool>, Vec<std::ops::RangeInclusive<u32>>) {
    let mut live = vec![true; tokens.len()];
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Collect the attribute body up to the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut gates_test = false;
        let mut negated = false;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" => gates_test = true,
                "not" => negated = true,
                _ => {}
            }
            j += 1;
        }
        if !gates_test || negated {
            i = j + 1;
            continue;
        }
        // Mask from the `#` through the end of the gated item: its first
        // brace block, or a `;` if the item has no body.
        let start = i;
        let mut k = j + 1;
        let mut end = tokens.len().saturating_sub(1);
        let mut bdepth = 0usize;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => bdepth += 1,
                "}" => {
                    bdepth -= 1;
                    if bdepth == 0 {
                        end = k;
                        break;
                    }
                }
                ";" if bdepth == 0 => {
                    end = k;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for slot in &mut live[start..=end] {
            *slot = false;
        }
        ranges.push(tokens[start].line..=tokens[end].line);
        i = end + 1;
    }
    (live, ranges)
}

/// Idents that construct or seed randomness; `rand` itself is matched as a
/// path root (`rand::...`).
const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "StdRng",
    "SmallRng",
    "OsRng",
    "RandomState",
    "getrandom",
];

fn scan_determinism(
    path: &str,
    tokens: &[Token],
    live: &[bool],
    scope: FileScope,
    enabled: &BTreeSet<Rule>,
    out: &mut Vec<Diagnostic>,
) {
    let mut emit = |rule: Rule, line: u32, message: String| {
        if enabled.contains(&rule) {
            out.push(Diagnostic {
                path: path.to_string(),
                line,
                rule,
                message,
            });
        }
    };
    for (i, t) in tokens.iter().enumerate() {
        if !live[i] {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => emit(
                Rule::DetHashOrder,
                t.line,
                format!(
                    "{} in simulation code: hash iteration order is \
                     nondeterministic — use BTreeMap/BTreeSet or a \
                     direct-indexed table",
                    t.text
                ),
            ),
            "SystemTime" | "Instant" => emit(
                Rule::DetWallClock,
                t.line,
                format!(
                    "{} in simulation code: wall-clock reads are \
                     irreproducible — derive time from the simulated clock",
                    t.text
                ),
            ),
            // `thread::spawn`/`scope`/`Builder` (paths like `std::thread::scope`
            // land here at the `thread` segment); bare `scope.spawn(..)` inside
            // an already-flagged `thread::scope` block stays quiet — the lint
            // fires once, where the OS thread machinery is entered.
            "thread"
                if tokens.get(i + 1).map(|n| n.text.as_str()) == Some("::")
                    && matches!(
                        tokens.get(i + 2).map(|n| n.text.as_str()),
                        Some("spawn" | "scope" | "Builder")
                    ) =>
            {
                emit(
                    Rule::DetThreadSpawn,
                    t.line,
                    format!(
                        "thread::{} in simulation code: OS scheduling order is \
                         nondeterministic — route parallelism through the \
                         baton-scheduled harness, or justify with an allow \
                         pragma",
                        tokens[i + 2].text
                    ),
                );
            }
            // Owning a join handle is owning an OS thread: every
            // `JoinHandle` site needs a justified allow, so stray thread
            // ownership cannot hide behind a handle passed in from elsewhere.
            "JoinHandle" => emit(
                Rule::DetThreadSpawn,
                t.line,
                "JoinHandle in simulation code: owning an OS thread — route \
                 parallelism through the baton-scheduled harness, or justify \
                 with an allow pragma"
                    .to_string(),
            ),
            "rayon" if tokens.get(i + 1).map(|n| n.text.as_str()) == Some("::") => {
                emit(
                    Rule::DetThreadSpawn,
                    t.line,
                    "rayon in simulation code: work-stealing order is \
                     nondeterministic — route parallelism through the \
                     baton-scheduled harness"
                        .to_string(),
                );
            }
            name if !scope.rng_exempt
                && (RNG_IDENTS.contains(&name)
                    || (name == "rand"
                        && tokens.get(i + 1).map(|n| n.text.as_str()) == Some("::"))) =>
            {
                emit(
                    Rule::DetStrayRng,
                    t.line,
                    format!(
                        "`{name}` constructs randomness outside \
                         easydram_dram::det — route it through the seeded \
                         DetRng"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Host-clock idents that must never feed a structured trace record. The
/// wall-clock rule already catches `Instant`/`SystemTime` anywhere in sim
/// code; this list extends coverage to the `Duration` readings a clock
/// produces, which are just as irreproducible as the clock itself.
const CLOCK_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "Duration",
    "elapsed",
    "as_nanos",
    "as_micros",
    "as_millis",
    "as_secs",
];

/// The structured observability records whose timestamps are part of the
/// determinism contract: they carry emulated picoseconds or cycles, so any
/// host-clock value flowing into a construction makes traces irreproducible.
const OBS_CONSTRUCTORS: &[&str] = &["TraceEvent", "CmdRecord", "QuantumSwitch"];

/// Flags trace-record constructions fed from a host clock. Fires on an
/// [`OBS_CONSTRUCTORS`] ident followed by `::` (constructor call) or `{`
/// (struct literal), with a [`CLOCK_IDENTS`] token in the rest of the
/// statement (lookahead capped, stopping at `;`).
fn scan_obs(
    path: &str,
    tokens: &[Token],
    live: &[bool],
    enabled: &BTreeSet<Rule>,
    out: &mut Vec<Diagnostic>,
) {
    let mut emit = |line: u32, message: String| {
        if enabled.contains(&Rule::ObsEmulatedTimeOnly) {
            out.push(Diagnostic {
                path: path.to_string(),
                line,
                rule: Rule::ObsEmulatedTimeOnly,
                message,
            });
        }
    };
    for (i, t) in tokens.iter().enumerate() {
        if !live[i] || !OBS_CONSTRUCTORS.contains(&t.text.as_str()) {
            continue;
        }
        if !matches!(tokens.get(i + 1).map(|n| n.text.as_str()), Some("::" | "{")) {
            continue;
        }
        for j in (i + 2)..tokens.len().min(i + 2 + 40) {
            if !live[j] {
                continue;
            }
            let tj = tokens[j].text.as_str();
            if tj == ";" {
                break;
            }
            if CLOCK_IDENTS.contains(&tj) {
                emit(
                    t.line,
                    format!(
                        "{} built from host clock `{tj}` — observability \
                         timestamps must be emulated picoseconds or cycles",
                        t.text
                    ),
                );
                break;
            }
        }
    }
}

fn scan_allocations(
    path: &str,
    tokens: &[Token],
    live: &[bool],
    regions: &[(usize, usize)],
    enabled: &BTreeSet<Rule>,
    out: &mut Vec<Diagnostic>,
) {
    let mut emit = |rule: Rule, line: u32, message: String| {
        if enabled.contains(&rule) {
            out.push(Diagnostic {
                path: path.to_string(),
                line,
                rule,
                message,
            });
        }
    };
    let text = |i: usize| tokens.get(i).map_or("", |t: &Token| t.text.as_str());
    for &(start, end) in regions {
        let mut i = start;
        while i <= end.min(tokens.len().saturating_sub(1)) {
            if !live[i] {
                i += 1;
                continue;
            }
            let t0 = text(i);
            let t1 = text(i + 1);
            let t2 = text(i + 2);
            match (t0, t1, t2) {
                ("Vec" | "String", "::", "new" | "with_capacity" | "from") => {
                    let l = tokens[i].line;
                    emit(
                        Rule::AllocVecNew,
                        l,
                        format!("{t0}::{t2} allocates inside a no_alloc region"),
                    );
                    i += 3;
                    continue;
                }
                ("vec" | "format", "!", _) => {
                    let l = tokens[i].line;
                    emit(
                        Rule::AllocVecNew,
                        l,
                        format!("{t0}! allocates inside a no_alloc region"),
                    );
                    i += 2;
                    continue;
                }
                (".", "to_vec" | "to_string" | "to_owned", _) => {
                    let l = tokens[i + 1].line;
                    emit(
                        Rule::AllocVecNew,
                        l,
                        format!(".{t1}() allocates inside a no_alloc region"),
                    );
                    i += 2;
                    continue;
                }
                ("Box" | "Rc" | "Arc", "::", "new" | "leak") => {
                    let l = tokens[i].line;
                    emit(
                        Rule::AllocBoxNew,
                        l,
                        format!("{t0}::{t2} allocates inside a no_alloc region"),
                    );
                    i += 3;
                    continue;
                }
                (".", "clone", "(") => {
                    let l = tokens[i + 1].line;
                    emit(
                        Rule::AllocClone,
                        l,
                        ".clone() allocates inside a no_alloc region".to_string(),
                    );
                    i += 3;
                    continue;
                }
                (".", "collect", _) => {
                    let l = tokens[i + 1].line;
                    emit(
                        Rule::AllocCollect,
                        l,
                        ".collect() allocates inside a no_alloc region".to_string(),
                    );
                    i += 2;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
    }
}
