//! `compare <a.json> <b.json>`: judges set `b` against set `a` with each
//! end-to-end metric's bound and direction, then lists the per-layer deltas.

use crate::json::{self, Value};
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed relative change of `b` against `a`, positive when `b` is better.
fn gain(m: &Metric, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a;
    if m.higher_is_better {
        rel
    } else {
        -rel
    }
}

/// Judges one end-to-end metric. `noise` is the larger of the two runs' own
/// op-time spreads: a host-time change beyond the bound is only called
/// better or worse when the runs themselves were steadier than the bound.
pub fn judge(m: &Metric, a: Option<f64>, b: Option<f64>, noise: f64) -> Verdict {
    let bound = m.bound.expect("only end-to-end metrics are judged");
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    if !(a.is_finite() && b.is_finite()) || a == 0.0 {
        return Verdict::Unresolved;
    }
    let g = gain(m, a, b);
    let host_time = m.name != "peak_rss_mib";
    if g.abs() <= bound {
        Verdict::Same
    } else if host_time && noise > bound {
        Verdict::Unresolved
    } else if g > 0.0 {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

fn reading(set: &Value, workload: &str, kind: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(kind)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn field(set: &Value, workload: &str, key: &str) -> Option<f64> {
    set.get("workloads")?.get(workload)?.get(key)?.as_f64()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison and returns whether `b` is acceptable: no metric
/// worse, no rise in the share of failed ops.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut acceptable = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "a", "b", "change"
    );
    for w in NAMES {
        let noise = f64::max(
            field(&a, w, "op_ms_iqr_share").unwrap_or(0.0),
            field(&b, w, "op_ms_iqr_share").unwrap_or(0.0),
        );
        for m in &END_TO_END {
            let (va, vb) = (
                reading(&a, w, "end_to_end", m.name),
                reading(&b, w, "end_to_end", m.name),
            );
            let verdict = judge(m, va, vb, noise);
            acceptable &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>+7.1}%  {}",
                w,
                m.name,
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                va.zip(vb).map_or(f64::NAN, |(x, y)| (y - x) / x * 100.0),
                verdict.label()
            );
        }
        let fail_share = |s: &Value| Some(field(s, w, "failed")? / field(s, w, "attempted")?);
        match (fail_share(&a), fail_share(&b)) {
            (Some(fa), Some(fb)) if fb <= fa => {}
            (fa, fb) => {
                acceptable = false;
                println!("{w:<16} failed_ops / ops rose or is missing: {fa:?} -> {fb:?}");
            }
        }
    }
    println!("\nper-layer deltas (no bounds; b against a)");
    for w in NAMES {
        for m in &PER_LAYER {
            let (Some(x), Some(y)) = (
                reading(&a, w, "per_layer", m.name),
                reading(&b, w, "per_layer", m.name),
            ) else {
                continue;
            };
            let change = if x == 0.0 { 0.0 } else { (y - x) / x * 100.0 };
            println!(
                "{:<16} {:<36} {:>14.4} {:>14.4} {:>+7.1}% {}",
                w, m.name, x, y, change, m.unit
            );
        }
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_and_directions_decide_the_verdict() {
        let rate = &END_TO_END[0]; // higher is better, bound 0.25
        let rss = &END_TO_END[2]; // lower is better, bound 0.25
        assert_eq!(judge(rate, Some(100.0), Some(120.0), 0.0), Verdict::Same);
        assert_eq!(judge(rate, Some(100.0), Some(140.0), 0.0), Verdict::Better);
        assert_eq!(judge(rate, Some(100.0), Some(60.0), 0.0), Verdict::Worse);
        assert_eq!(judge(rss, Some(100.0), Some(140.0), 0.0), Verdict::Worse);
        assert_eq!(judge(rss, Some(100.0), Some(60.0), 0.0), Verdict::Better);
        // A noisy pair of runs cannot resolve a host-time change...
        assert_eq!(
            judge(rate, Some(100.0), Some(60.0), 0.3),
            Verdict::Unresolved
        );
        // ...but memory does not depend on op-time noise.
        assert_eq!(judge(rss, Some(100.0), Some(140.0), 0.3), Verdict::Worse);
        assert_eq!(judge(rate, None, Some(1.0), 0.0), Verdict::Unresolved);
        assert_eq!(judge(rate, Some(0.0), Some(1.0), 0.0), Verdict::Unresolved);
    }
}
