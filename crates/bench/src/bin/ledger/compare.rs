//! `ledger compare A.json B.json`: applies the catalog's bounds to two files
//! of `--json` records (A the baseline, B the candidate).
//!
//! One row per workload × metric. Counts, QoR values and result digests must
//! be equal for equal seeds; timings and memory are compared by their
//! medians against the metric's bound, and a row whose own min–max ranges
//! reach across that bound is reported as unresolved instead of unchanged.

use crate::catalog::{self, Kind};
use crate::median;
use serde::value::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One metric of one side, pooled over the records of a workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    pub values: Vec<f64>,
    pub min: f64,
    pub max: f64,
}

impl Samples {
    #[cfg(test)]
    fn of(values: &[f64]) -> Self {
        let mut samples = Samples {
            values: Vec::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        for &v in values {
            samples.push(v, None);
        }
        samples
    }

    fn push(&mut self, value: f64, range: Option<(f64, f64)>) {
        let (lo, hi) = range.unwrap_or((value, value));
        if self.values.is_empty() {
            (self.min, self.max) = (lo, hi);
        }
        self.values.push(value);
        self.min = self.min.min(lo).min(value);
        self.max = self.max.max(hi).max(value);
    }

    fn median(&self) -> f64 {
        median(&self.values)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, same value.
    Equal,
    /// Within the bound, and the ranges leave no doubt about it.
    Ok,
    /// Every candidate run reads better than every baseline run.
    Better,
    /// The medians are within the bound but the ranges reach across it.
    Unresolved,
    /// Worse than the bound allows.
    Worse,
    /// An exact metric changed.
    Differs,
    /// No bound applies (per-layer timing): the ratio is informational.
    Info,
}

impl Verdict {
    pub fn is_violation(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// The bound rule for a timed metric. `a` is the baseline.
pub fn timed_verdict(
    a: &Samples,
    b: &Samples,
    bound: Option<f64>,
    higher_is_better: bool,
) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    // Fold "higher is better" onto "lower is better" by negating.
    let orient = |s: &Samples| {
        if higher_is_better {
            (-s.median(), -s.max, -s.min)
        } else {
            (s.median(), s.min, s.max)
        }
    };
    let (a_med, a_lo, _) = orient(a);
    let (b_med, _, b_hi) = orient(b);
    let allowed = |base: f64| base + base.abs() * bound;
    if b_med > allowed(a_med) {
        Verdict::Worse
    } else if b_hi < a_lo {
        Verdict::Better
    } else if b_hi > allowed(a_lo) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The rule for an exact metric: equal per seed, else within the bound if
/// the metric has one (QoR), else a difference.
pub fn exact_verdict(
    a: &Samples,
    b: &Samples,
    bound: Option<f64>,
    higher_is_better: bool,
) -> Verdict {
    if a.values == b.values {
        return Verdict::Equal;
    }
    match bound {
        Some(_) => match timed_verdict(a, b, bound, higher_is_better) {
            Verdict::Worse => Verdict::Worse,
            _ => Verdict::Differs,
        },
        None => Verdict::Differs,
    }
}

struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    clean: bool,
    digests: Vec<(String, String)>,
    metrics: Vec<RecordMetric>,
}

/// One metric of a record: name, value and the per-pass range if stored.
type RecordMetric = (String, f64, Option<(f64, f64)>);

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(x) => Some(*x),
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        _ => None,
    }
}

fn parse_record(line: &str) -> Result<Record, String> {
    let doc = serde_json::parse_value_text(line).map_err(|e| e.to_string())?;
    let text = |key: &str| match doc.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("record has no string {key:?}")),
    };
    let entries = |key: &str| match doc.get(key) {
        Some(Value::Object(entries)) => Ok(entries.clone()),
        _ => Err(format!("record has no object {key:?}")),
    };
    let metrics = entries("metrics")?
        .into_iter()
        .filter_map(|(name, m)| {
            let value = number(m.get("value"))?;
            let range = number(m.get("min")).zip(number(m.get("max")));
            Some((name, value, range))
        })
        .collect();
    let digests = match doc.get("circuits") {
        Some(Value::Array(rows)) => rows
            .iter()
            .filter_map(|row| match (row.get("label"), row.get("digest")) {
                (Some(Value::Str(label)), Some(Value::Str(digest))) => {
                    Some((label.clone(), digest.clone()))
                }
                _ => None,
            })
            .collect(),
        _ => return Err("record has no array \"circuits\"".into()),
    };
    Ok(Record {
        workload: text("workload")?,
        seed: number(doc.get("seed")).ok_or("record has no seed")? as u64,
        trace: number(doc.get("trace")) == Some(1.0),
        clean: doc.get("correct") == Some(&Value::Bool(true)),
        digests,
        metrics,
    })
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| parse_record(line).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// (workload, metric) → samples, pooled in (seed, record) order so that
/// exact metrics compare seed by seed.
type Table = BTreeMap<(String, String), Samples>;

fn tabulate(records: &[Record], seeds: &[(String, u64, bool)]) -> Table {
    let mut table = Table::new();
    for key in seeds {
        for record in records
            .iter()
            .filter(|r| (r.workload.clone(), r.seed, r.trace) == *key)
        {
            for (name, value, range) in &record.metrics {
                table
                    .entry((record.workload.clone(), name.clone()))
                    .or_default()
                    .push(*value, *range);
            }
        }
    }
    table
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger compare: {e}");
            return ExitCode::from(2);
        }
    };
    // Only (workload, seed, mode) keys present on both sides are compared.
    let keys = |records: &[Record]| -> Vec<(String, u64, bool)> {
        let mut keys: Vec<_> = records
            .iter()
            .map(|r| (r.workload.clone(), r.seed, r.trace))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    };
    let keys_a = keys(&a);
    let shared: Vec<_> = keys(&b)
        .into_iter()
        .filter(|k| keys_a.contains(k))
        .collect();
    if shared.is_empty() {
        eprintln!("ledger compare: the files share no (workload, seed, trace) run");
        return ExitCode::from(2);
    }

    let mut violations = 0usize;
    let mut unresolved = 0usize;
    for (side, records) in [(path_a, &a), (path_b, &b)] {
        for record in records.iter().filter(|r| !r.clean) {
            println!(
                "FAILED   {side}: {} seed {} reports failed operations or drift",
                record.workload, record.seed
            );
            violations += 1;
        }
    }
    for key in &shared {
        let digests = |records: &[Record]| -> Vec<Vec<(String, String)>> {
            records
                .iter()
                .filter(|r| (r.workload.clone(), r.seed, r.trace) == *key)
                .map(|r| r.digests.clone())
                .collect()
        };
        let (da, db) = (digests(&a), digests(&b));
        let same = da.iter().chain(&db).all(|d| *d == da[0]);
        if !same {
            println!("DIFFERS  {} seed {}: result digests", key.0, key.1);
            violations += 1;
        }
    }

    let (table_a, table_b) = (tabulate(&a, &shared), tabulate(&b, &shared));
    println!(
        "{:<10} {:<16} {:<32} {:>14} {:>14} {:>8}  bound",
        "verdict", "workload", "metric", "A median", "B median", "B/A"
    );
    for ((workload, name), sa) in &table_a {
        let (Some(sb), Some(metric)) = (
            table_b.get(&(workload.clone(), name.clone())),
            catalog::find(name),
        ) else {
            continue;
        };
        let verdict = match metric.kind {
            Kind::Timed => timed_verdict(sa, sb, metric.bound, metric.higher_is_better),
            Kind::Exact => exact_verdict(sa, sb, metric.bound, metric.higher_is_better),
        };
        violations += usize::from(verdict.is_violation());
        unresolved += usize::from(verdict == Verdict::Unresolved);
        let (ma, mb) = (sa.median(), sb.median());
        println!(
            "{:<10} {:<16} {:<32} {:>14.6} {:>14.6} {:>8.4}  {}",
            format!("{verdict:?}").to_uppercase(),
            workload,
            name,
            ma,
            mb,
            if ma != 0.0 { mb / ma } else { f64::NAN },
            metric
                .bound
                .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    println!("{violations} violation(s), {unresolved} unresolved");
    if violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranged(value: f64, lo: f64, hi: f64) -> Samples {
        let mut s = Samples::default();
        s.push(value, Some((lo, hi)));
        s
    }

    #[test]
    fn timed_bound_logic() {
        let base = ranged(10.0, 9.9, 10.1);
        // Within 10 %, ranges clear of the bound.
        assert_eq!(
            timed_verdict(&base, &ranged(10.3, 10.2, 10.4), Some(0.10), false),
            Verdict::Ok
        );
        // Median beyond the bound.
        assert_eq!(
            timed_verdict(&base, &ranged(11.2, 11.1, 11.3), Some(0.10), false),
            Verdict::Worse
        );
        // Median inside, but the slowest candidate run is more than 10 %
        // above the fastest baseline run.
        assert_eq!(
            timed_verdict(&base, &ranged(10.5, 10.0, 11.0), Some(0.10), false),
            Verdict::Unresolved
        );
        // Every candidate run faster than every baseline run.
        assert_eq!(
            timed_verdict(&base, &ranged(9.0, 8.9, 9.5), Some(0.10), false),
            Verdict::Better
        );
        // No bound: informational.
        assert_eq!(
            timed_verdict(&base, &ranged(50.0, 50.0, 50.0), None, false),
            Verdict::Info
        );
        // Higher is better: a drop beyond the bound is worse, a rise better.
        let rate = ranged(100.0, 99.0, 101.0);
        assert_eq!(
            timed_verdict(&rate, &ranged(85.0, 84.0, 86.0), Some(0.10), true),
            Verdict::Worse
        );
        assert_eq!(
            timed_verdict(&rate, &ranged(120.0, 119.0, 121.0), Some(0.10), true),
            Verdict::Better
        );
    }

    #[test]
    fn exact_metrics_must_repeat() {
        let a = Samples::of(&[100.0, 200.0]);
        assert_eq!(
            exact_verdict(&a, &Samples::of(&[100.0, 200.0]), None, false),
            Verdict::Equal
        );
        assert_eq!(
            exact_verdict(&a, &Samples::of(&[100.0, 201.0]), None, false),
            Verdict::Differs
        );
        // A QoR value inside its bound still differs; outside it is worse.
        assert_eq!(
            exact_verdict(&a, &Samples::of(&[100.5, 200.5]), Some(0.02), false),
            Verdict::Differs
        );
        assert_eq!(
            exact_verdict(&a, &Samples::of(&[110.0, 220.0]), Some(0.02), false),
            Verdict::Worse
        );
        assert!(Verdict::Differs.is_violation() && Verdict::Worse.is_violation());
        assert!(!Verdict::Unresolved.is_violation() && !Verdict::Info.is_violation());
    }

    #[test]
    fn records_round_trip_through_the_parser() {
        let line = r#"{"workload":"map-verify","seed":2,"trace":0,"passes":3,"input_ands":10,"correct":true,"attempted":9,"failed":0,"drift":0,"failures":[],"circuits":[{"label":"divider12","seconds":1.2,"area_um2":5.0,"delay_ps":6.0,"levels":7.0,"digest":"00ff"}],"metrics":{"wall_s":{"value":3.5,"unit":"s","min":3.4,"max":3.9},"peak_rss_mb":{"value":120.0,"unit":"MB"}}}"#;
        let record = parse_record(line).expect("parse");
        assert_eq!(record.workload, "map-verify");
        assert_eq!(record.seed, 2);
        assert!(!record.trace && record.clean);
        assert_eq!(
            record.digests,
            vec![("divider12".to_string(), "00ff".to_string())]
        );
        assert_eq!(
            record.metrics[0],
            ("wall_s".to_string(), 3.5, Some((3.4, 3.9)))
        );
        assert_eq!(record.metrics[1], ("peak_rss_mb".to_string(), 120.0, None));
        let table = tabulate(&[record], &[("map-verify".to_string(), 2, false)]);
        let wall = &table[&("map-verify".to_string(), "wall_s".to_string())];
        assert_eq!((wall.min, wall.max), (3.4, 3.9));
    }
}
