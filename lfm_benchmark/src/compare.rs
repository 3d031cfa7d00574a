//! `--compare <a.json> <b.json>`: is `b` worse than `a`?
//!
//! Host-clock metrics compare by median against the metric's bound.
//! Sim-clock metrics, exact counts and the `sim_digest` must not differ at
//! all when both files ran the same seed: an engine-only change leaves
//! every simulated statistic identical. Across seeds they compare against
//! their bound like the rest.

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};
use crate::suite::RESULTS_SCHEMA;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound (and the floor).
    Worse,
    /// The spread between a side's own runs exceeds the bound, and the
    /// runs do not all read better: the data cannot tell.
    Unresolved,
    /// A simulated statistic changed between two runs of one seed.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// Judge one end-to-end metric. `exact` demands bit-equal values (a
/// sim-clock metric at one seed).
pub fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    floor: f64,
    exact: bool,
) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if exact {
        return if ma.to_bits() == mb.to_bits() {
            Verdict::Ok
        } else {
            Verdict::Differs
        };
    }
    let worse_by = if lower_is_better { mb - ma } else { ma - mb };
    if worse_by > bound * ma.abs() && worse_by > floor {
        return Verdict::Worse;
    }
    if spread(a).max(spread(b)) > bound {
        let all_better = b.iter().all(|&y| {
            a.iter()
                .all(|&x| if lower_is_better { y < x } else { y > x })
        });
        if !all_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Ok
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("schema").and_then(Value::as_str) != Some(RESULTS_SCHEMA) {
        return Err(format!(
            "{}: not a {RESULTS_SCHEMA} file (write one with --out)",
            path.display()
        ));
    }
    Ok(v)
}

fn by_name<'a>(list: Option<&'a Value>, name: &str) -> Option<&'a Value> {
    list?
        .as_array()?
        .iter()
        .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
}

fn values(metric: &Value) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Compare two results files; `Ok(true)` when `b` is no worse than `a`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = a.get("seed") == b.get("seed");
    println!(
        "baseline {} (seed {}), candidate {} (seed {}): sim-clock metrics compare {}",
        a_path.display(),
        a.get("seed").and_then(Value::as_str).unwrap_or("?"),
        b_path.display(),
        b.get("seed").and_then(Value::as_str).unwrap_or("?"),
        if same_seed {
            "exactly"
        } else {
            "within their bounds"
        }
    );
    let mut ok = true;
    let empty = Vec::new();
    let a_workloads = a
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    for wa in a_workloads {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = by_name(b.get("workloads"), name) else {
            println!("{name}: missing from the candidate");
            ok = false;
            continue;
        };
        if same_seed && wa.get("sim_digest") != wb.get("sim_digest") {
            println!("{name} sim_digest DIFFERS");
            ok = false;
        }
        let failed = |w: &Value| w.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            println!(
                "{name} failed operations rose from {} to {}",
                failed(wa),
                failed(wb)
            );
            ok = false;
        }
        for ma in wa
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap_or(&empty)
        {
            let metric = ma.get("name").and_then(Value::as_str).unwrap_or("?");
            let Some(mb) = by_name(wb.get("end_to_end"), metric) else {
                println!("{name} {metric}: missing from the candidate");
                ok = false;
                continue;
            };
            let (va, vb) = (values(ma), values(mb));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name} {metric}: no values recorded"));
            }
            let num = |key: &str| ma.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let sim = ma.get("clock").and_then(Value::as_str) == Some("sim");
            let lower = ma.get("better").and_then(Value::as_str) == Some("lower");
            let verdict = judge(
                &va,
                &vb,
                lower,
                num("bound"),
                num("floor"),
                sim && same_seed,
            );
            let (a1, a3) = quartiles(&va);
            let (b1, b3) = quartiles(&vb);
            println!(
                "{name} {metric} {} -> {} [{a1} .. {a3}] -> [{b1} .. {b3}] {} bound {} {}",
                median(&va),
                median(&vb),
                ma.get("unit").and_then(Value::as_str).unwrap_or(""),
                num("bound"),
                verdict.label()
            );
            ok &= !verdict.fails();
        }
        // Exact counts from the reports: sim-clock per-layer metrics.
        for la in wa
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap_or(&empty)
        {
            if !same_seed || la.get("clock").and_then(Value::as_str) != Some("sim") {
                continue;
            }
            let metric = la.get("name").and_then(Value::as_str).unwrap_or("?");
            let vb = by_name(wb.get("per_layer"), metric).and_then(|m| m.get("value"));
            if vb != la.get("value") {
                println!("{name} {metric} {:?} -> {vb:?} DIFFERS", la.get("value"));
                ok = false;
            }
        }
    }
    println!("{}", if ok { "no regression" } else { "REGRESSION" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_decides_worse() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.00];
        // 5 % slower on a 10 % bound: fine. 15 % slower: worse.
        assert_eq!(judge(&a, &[1.05; 5], true, 0.10, 0.0, false), Verdict::Ok);
        assert_eq!(
            judge(&a, &[1.15; 5], true, 0.10, 0.0, false),
            Verdict::Worse
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&a, &[0.85; 5], false, 0.10, 0.0, false),
            Verdict::Worse
        );
        assert_eq!(judge(&a, &[1.15; 5], false, 0.10, 0.0, false), Verdict::Ok);
    }

    #[test]
    fn setup_floor_absorbs_small_absolute_differences() {
        // 50 % worse, but 5 ms: under setup_s's 20 ms floor.
        let (a, b) = ([0.010; 5], [0.015; 5]);
        assert_eq!(judge(&a, &b, true, 0.25, 0.02, false), Verdict::Ok);
        assert_eq!(judge(&a, &b, true, 0.25, 0.0, false), Verdict::Worse);
        // 50 % worse and 50 ms: over the floor.
        assert_eq!(
            judge(&[0.10; 5], &[0.15; 5], true, 0.25, 0.02, false),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [1.0, 1.3, 0.8, 1.1, 0.9];
        assert_eq!(
            judge(
                &noisy,
                &[1.0, 1.2, 0.85, 1.05, 0.95],
                true,
                0.10,
                0.0,
                false
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[0.5; 5], true, 0.10, 0.0, false),
            Verdict::Ok
        );
    }

    #[test]
    fn sim_clock_compares_exactly_at_one_seed() {
        let a = [548.34; 5];
        assert_eq!(judge(&a, &[548.34; 5], true, 0.10, 0.0, true), Verdict::Ok);
        assert_eq!(
            judge(&a, &[548.340_000_000_1; 5], true, 0.10, 0.0, true),
            Verdict::Differs
        );
        // Across seeds the same difference is far inside the bound.
        assert_eq!(
            judge(&a, &[548.340_000_000_1; 5], true, 0.10, 0.0, false),
            Verdict::Ok
        );
    }
}
