//! Quality-of-results records and table helpers.

use serde::{Deserialize, Serialize};

/// Post-mapping quality metrics of one design (one row of the paper's
/// Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Qor {
    /// Design name.
    pub name: String,
    /// Total standard-cell area in µm².
    pub area_um2: f64,
    /// Critical-path delay in ps.
    pub delay_ps: f64,
    /// Number of logic levels on the critical path.
    pub levels: u32,
    /// Number of mapped gates.
    pub gates: usize,
}

impl Qor {
    /// Computes the geometric mean of a sequence of QoR records (the
    /// `GEOMEAN` row of Table II). Zero entries are clamped to a small
    /// epsilon so all-constant designs do not zero out the mean.
    pub fn geomean(rows: &[Qor]) -> Option<Qor> {
        if rows.is_empty() {
            return None;
        }
        let n = rows.len() as f64;
        let gm = |f: &dyn Fn(&Qor) -> f64| -> f64 {
            (rows.iter().map(|r| f(r).max(1e-9).ln()).sum::<f64>() / n).exp()
        };
        Some(Qor {
            name: "GEOMEAN".to_string(),
            area_um2: gm(&|r| r.area_um2),
            delay_ps: gm(&|r| r.delay_ps),
            levels: gm(&|r| f64::from(r.levels)).round() as u32,
            gates: gm(&|r| r.gates as f64).round() as usize,
        })
    }

    /// Relative improvement of `self` over `baseline` in percent, per metric
    /// (positive = better, i.e. smaller).
    pub fn improvement_over(&self, baseline: &Qor) -> QorImprovement {
        let pct = |new: f64, old: f64| {
            if old <= 0.0 {
                0.0
            } else {
                (old - new) / old * 100.0
            }
        };
        QorImprovement {
            area_pct: pct(self.area_um2, baseline.area_um2),
            delay_pct: pct(self.delay_ps, baseline.delay_ps),
            level_pct: pct(f64::from(self.levels), f64::from(baseline.levels)),
        }
    }
}

impl std::fmt::Display for Qor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<12} area = {:>12.2} um2  delay = {:>10.2} ps  lev = {:>4}  gates = {:>7}",
            self.name, self.area_um2, self.delay_ps, self.levels, self.gates
        )
    }
}

/// Percentage improvements between two QoR records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QorImprovement {
    /// Area reduction in percent (positive = smaller area).
    pub area_pct: f64,
    /// Delay reduction in percent.
    pub delay_pct: f64,
    /// Level reduction in percent.
    pub level_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str, area: f64, delay: f64, lev: u32) -> Qor {
        Qor {
            name: name.into(),
            area_um2: area,
            delay_ps: delay,
            levels: lev,
            gates: 10,
        }
    }

    #[test]
    fn geomean_of_identical_rows_is_identity() {
        let rows = vec![q("a", 100.0, 50.0, 5), q("b", 100.0, 50.0, 5)];
        let gm = Qor::geomean(&rows).unwrap();
        assert!((gm.area_um2 - 100.0).abs() < 1e-6);
        assert!((gm.delay_ps - 50.0).abs() < 1e-6);
        assert_eq!(gm.levels, 5);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let rows = vec![q("a", 10.0, 1.0, 2), q("b", 1000.0, 100.0, 50)];
        let gm = Qor::geomean(&rows).unwrap();
        assert!(gm.area_um2 > 10.0 && gm.area_um2 < 1000.0);
        assert!((gm.area_um2 - 100.0).abs() < 1e-6);
        assert!(Qor::geomean(&[]).is_none());
    }

    #[test]
    fn improvement_percentages() {
        let base = q("x", 200.0, 100.0, 10);
        let better = q("x", 150.0, 90.0, 10);
        let imp = better.improvement_over(&base);
        assert!((imp.area_pct - 25.0).abs() < 1e-6);
        assert!((imp.delay_pct - 10.0).abs() < 1e-6);
        assert!((imp.level_pct - 0.0).abs() < 1e-6);
        // A worse result yields negative improvement.
        let worse = q("x", 250.0, 120.0, 12);
        let imp2 = worse.improvement_over(&base);
        assert!(imp2.area_pct < 0.0);
    }

    #[test]
    fn display_contains_all_metrics() {
        let line = q("adder", 1206.99, 584.53, 57).to_string();
        assert!(line.contains("adder"));
        assert!(line.contains("1206.99"));
        assert!(line.contains("584.53"));
        assert!(line.contains("57"));
    }
}
