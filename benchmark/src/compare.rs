//! `--compare A.json B.json`: hold one result file against another by the
//! bounds `BENCHMARK.json` fixes.

use crate::json::{self, Value};
use crate::report::human;
use std::fmt::Write;

/// Metrics that must repeat exactly between two runs of the same code on
/// the same seed. They sit among the per-layer metrics because the
/// driver's contract has no place for an end-to-end metric that is 0.
pub const EXACT: [&str; 3] = [
    "bench.allocs_per_item",
    "bench.alloc_bytes_per_item",
    "oracle.failed_share",
];

/// The end-to-end metric that comes from pass times, and the spread of
/// those pass times recorded beside it.
const FROM_PASSES: &str = "items_per_s";
const SPREAD: &str = "bench.pass_iqr_share";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Within the bound, but the runs' own spread is wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
    /// Worse by more than the bound, or an exact metric that moved.
    Worse,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// The comparison: one row per (workload, metric).
pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn violated(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<12} {:<28} {:>18} {:>18} {:>8}  verdict\n",
            "workload", "metric", "A", "B", "B/A"
        );
        for r in &self.rows {
            let ratio = if r.a == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", r.b / r.a)
            };
            let verdict = match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved (spread wider than bound)",
                Verdict::Worse => "WORSE",
            };
            writeln!(
                out,
                "{:<12} {:<28} {:>18} {:>18} {ratio:>8}  {verdict}",
                r.workload,
                r.metric,
                human(r.a),
                human(r.b)
            )
            .expect("write to string");
        }
        out
    }
}

fn metric_value(workload: &Value, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compare result file `b` against `a` under the `end_to_end` bounds of
/// `benchmark` (the text of `BENCHMARK.json`).
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<Report, String> {
    let (a, b, benchmark) = (json::parse(a)?, json::parse(b)?, json::parse(benchmark)?);
    let bounded = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = |file: &Value| {
        file.get("workloads")
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
            .ok_or("result file has no workloads")
    };
    let (in_a, in_b) = (workloads(&a)?, workloads(&b)?);

    let mut rows = Vec::new();
    for (workload, wa) in &in_a {
        let Some((_, wb)) = in_b.iter().find(|(name, _)| name == workload) else {
            return Err(format!(
                "workload {workload} is missing from the second file"
            ));
        };
        let spread = |w: &Value| metric_value(w, SPREAD).unwrap_or(0.0);
        for entry in bounded {
            let field = |key: &str| entry.get(key).and_then(Value::as_str);
            let (Some(metric), Some(better), Some(bound)) = (
                field("name"),
                field("better"),
                entry.get("bound").and_then(Value::as_f64),
            ) else {
                return Err("BENCHMARK.json: end_to_end entry without name/better/bound".into());
            };
            let (Some(va), Some(vb)) = (metric_value(wa, metric), metric_value(wb, metric)) else {
                return Err(format!(
                    "{workload}: metric {metric} is missing from a file"
                ));
            };
            let worse_by = match better {
                "lower" => (vb - va) / va,
                _ => (va - vb) / va,
            };
            let noisy = metric == FROM_PASSES && spread(wa).max(spread(wb)) > bound;
            let verdict = if worse_by > bound {
                Verdict::Worse
            } else if noisy {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                verdict,
            });
        }
        for metric in EXACT {
            if let (Some(va), Some(vb)) = (metric_value(wa, metric), metric_value(wb, metric)) {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.to_string(),
                    a: va,
                    b: vb,
                    verdict: if va == vb {
                        Verdict::Ok
                    } else {
                        Verdict::Worse
                    },
                });
            }
        }
    }
    Ok(Report { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#;

    fn file(items_per_s: f64, setup_s: f64, spread: f64, allocs: f64) -> String {
        format!(
            r#"{{"machine": {{}}, "workloads": {{"wild_mix": {{"metrics": {{
                "items_per_s": {{"value": {items_per_s}, "unit": "items/s"}},
                "setup_s": {{"value": {setup_s}, "unit": "s"}},
                "bench.pass_iqr_share": {{"value": {spread}, "unit": "ratio"}},
                "bench.allocs_per_item": {{"value": {allocs}, "unit": "count"}}}}}}}}}}"#
        )
    }

    fn verdicts(a: &str, b: &str) -> Vec<Verdict> {
        let report = compare(a, b, BOUNDS).unwrap();
        assert!(report.table().lines().count() == report.rows.len() + 1);
        report.rows.iter().map(|r| r.verdict).collect()
    }

    #[test]
    fn flags_an_eleven_percent_drop_and_passes_a_nine_percent_one() {
        let base = file(1000.0, 1.0, 0.01, 2.0);
        let report = compare(&base, &file(890.0, 1.0, 0.01, 2.0), BOUNDS).unwrap();
        assert!(report.violated());
        assert_eq!(report.rows[0].verdict, Verdict::Worse);
        let report = compare(&base, &file(910.0, 1.0, 0.01, 2.0), BOUNDS).unwrap();
        assert!(!report.violated());
        assert_eq!(report.rows[0].verdict, Verdict::Ok);
        // A gain is never a violation.
        assert!(!compare(&base, &file(2000.0, 0.5, 0.01, 2.0), BOUNDS)
            .unwrap()
            .violated());
    }

    #[test]
    fn lower_is_better_for_setup_and_exact_metrics_may_not_move() {
        let base = file(1000.0, 1.0, 0.01, 2.0);
        use Verdict::{Ok, Worse};
        assert_eq!(
            verdicts(&base, &file(1000.0, 1.25, 0.01, 2.0)),
            [Ok, Worse, Ok]
        );
        assert_eq!(
            verdicts(&base, &file(1000.0, 1.15, 0.01, 2.0)),
            [Ok, Ok, Ok]
        );
        assert_eq!(
            verdicts(&base, &file(1000.0, 1.0, 0.01, 2.5)),
            [Ok, Ok, Worse]
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let base = file(1000.0, 1.0, 0.01, 2.0);
        let noisy = file(990.0, 1.0, 0.15, 2.0);
        assert_eq!(verdicts(&base, &noisy)[0], Verdict::Unresolved);
        assert!(!compare(&base, &noisy, BOUNDS).unwrap().violated());
        // A drop beyond the bound is still reported as one.
        assert_eq!(
            verdicts(&base, &file(800.0, 1.0, 0.15, 2.0))[0],
            Verdict::Worse
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_pass() {
        let base = file(1000.0, 1.0, 0.01, 2.0);
        assert!(compare(&base, "{}", BOUNDS).is_err());
        assert!(compare(&base, &base, "{}").is_err());
        assert!(compare("not json", &base, BOUNDS).is_err());
        let other = base.replace("wild_mix", "tiny_bodies");
        assert!(compare(&base, &other, BOUNDS).is_err());
    }
}
