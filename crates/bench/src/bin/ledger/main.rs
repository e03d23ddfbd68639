//! `ledger`: the repository's benchmark. One command, five named workloads,
//! end-to-end metrics from untraced passes and per-layer metrics from one
//! traced pass, for AIG in → verified netlist out. See `README.md` in this
//! directory for the glossary, the workloads and how to read the trace.
//!
//! ```text
//! ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!            [--json FILE] [--spans FILE] [--smoke]
//! ledger list
//! ledger compare A.json B.json
//! ```

mod catalog;
mod compare;
mod inputs;
mod trace;
mod workloads;

use catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Span, Tracer};
use workloads::{Pass, Setup};

/// Set-ups per block; `setup_s` is the fastest set-up of all blocks of a run.
/// A set-up takes 1-5 ms and the host's slow bursts last seconds, so one block
/// runs before the first pass and one after every untraced pass: samples from
/// 5-8 moments of the run instead of one.
const SETUPS_PER_BLOCK: usize = 25;

/// Shortest-roundtrip rendering of a finite number (JSON has no NaN/inf).
pub fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let text = x.to_string();
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct RunOptions {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    spans: Option<String>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        workload: String::new(),
        seed: 1,
        seconds: 24.0,
        trace: false,
        json: None,
        spans: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad("a number"))?;
                if options.seconds.is_nan() || options.seconds < 0.0 {
                    return Err(bad("a non-negative number"));
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--json" => options.json = Some(value.clone()),
            "--spans" => options.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == options.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--workload must be one of {}; got {:?}",
            names.join(", "),
            options.workload
        ));
    }
    Ok(options)
}

/// One metric value of a run, with the per-pass range where there is one.
pub struct Measured {
    pub metric: &'static Metric,
    pub value: f64,
    pub range: Option<(f64, f64)>,
}

/// One circuit's (or distinct server result's) own row.
pub struct CircuitRow {
    pub label: String,
    pub seconds: f64,
    pub qor: [f64; 3],
    pub digest: u64,
}

/// Everything one `ledger run` measured.
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub passes: usize,
    /// Median untraced pass, printed beside `wall_s` (the fastest one).
    pub median_pass_s: f64,
    pub input_ands: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Operations whose digest differs between passes of this run.
    pub drift: usize,
    pub failures: Vec<String>,
    /// One row per operation that produced a netlist (first pass; seconds
    /// are the median over the untraced passes).
    pub circuits: Vec<CircuitRow>,
    pub metrics: Vec<Measured>,
    pub spans: Vec<Span>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.drift == 0
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.metric.name,
                    json_number(m.value),
                    m.metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The record `--json` appends and `ledger compare` reads.
    fn record_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let range = m.range.map_or_else(String::new, |(lo, hi)| {
                    format!(",\"min\":{},\"max\":{}", json_number(lo), json_number(hi))
                });
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"{range}}}",
                    m.metric.name,
                    json_number(m.value),
                    m.metric.unit
                )
            })
            .collect();
        let circuits: Vec<String> = self
            .circuits
            .iter()
            .map(|c| {
                format!(
                    "{{\"label\":\"{}\",\"seconds\":{},\"area_um2\":{},\"delay_ps\":{},\
                     \"levels\":{},\"digest\":\"{:016x}\"}}",
                    c.label,
                    json_number(c.seconds),
                    json_number(c.qor[0]),
                    json_number(c.qor[1]),
                    json_number(c.qor[2]),
                    c.digest
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| format!("{f:?}")).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"passes\":{},\
             \"median_pass_s\":{},\"input_ands\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"drift\":{},\"failures\":[{}],\
             \"circuits\":[{}],\"metrics\":{{{}}}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.passes,
            json_number(self.median_pass_s),
            self.input_ands,
            self.correct(),
            self.attempted,
            self.failed,
            self.drift,
            failures.join(","),
            circuits.join(","),
            metrics.join(","),
        )
    }

    fn print_summary(&self) {
        eprintln!(
            "{} seed {} ({}): {} passes (median untraced pass {:.4} s) over {} input ANDs; \
             {} of {} operations failed (failed_share {:.4}), result_drift {}",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.passes,
            self.median_pass_s,
            self.input_ands,
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.drift,
        );
        for m in &self.metrics {
            let range = m.range.map_or_else(String::new, |(lo, hi)| {
                format!("  (min {lo:.4}, max {hi:.4})")
            });
            eprintln!(
                "  {:<32} {:>16.6} {}{range}",
                m.metric.name, m.value, m.metric.unit
            );
        }
        for c in &self.circuits {
            eprintln!(
                "  {:<22} {:>9.4} s  area {:>10.2} um2  delay {:>9.2} ps  levels {:>4}  digest {:016x}",
                c.label, c.seconds, c.qor[0], c.qor[1], c.qor[2], c.digest
            );
        }
        for failure in &self.failures {
            eprintln!("  FAILED {failure}");
        }
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.max(1e-12).ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Folds the traced pass's spans into the per-layer metric table.
fn layer_metrics(
    spans: &[Span],
    untraced_median_s: f64,
    traced_program_s: f64,
    generate_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut table: BTreeMap<&'static str, f64> = BTreeMap::new();
    let self_us = trace::self_times_us(spans);
    for (span, own_us) in spans.iter().zip(self_us) {
        // A span named `x.y` feeds the metric `x.y_s`, if the catalog has it.
        if let Some(metric) = catalog::find(&format!("{}_s", span.name)) {
            *table.entry(metric.name).or_default() += span.duration_us() as f64 / 1e6;
        }
        if span.parent.is_none() && span.name.starts_with("pass.") {
            *table.entry("core.glue_s").or_default() += own_us as f64 / 1e6;
        }
        for &(key, value) in span.counts.iter().chain(&span.reported) {
            debug_assert!(catalog::find(key).is_some(), "{key} is not in the catalog");
            *table.entry(key).or_default() += value;
        }
    }
    let ratio = |table: &BTreeMap<&'static str, f64>, num: &str, den: &str| match (
        table.get(num),
        table.get(den),
    ) {
        (Some(num), Some(den)) if *den > 0.0 => num / den,
        _ => 0.0,
    };
    for (name, num, den) in [
        ("egraph.enodes_per_s", "egraph.enodes", "egraph.saturate_s"),
        (
            "core.extract_evals_per_s",
            "core.extract_nodes_evaluated",
            "core.extract_s",
        ),
        ("techmap.cuts_per_s", "techmap.cuts", "techmap.cuts_probe_s"),
        (
            "cec.sat_calls_per_proved",
            "cec.sweep_sat_calls",
            "cec.sweep_proved",
        ),
        (
            "sat.propagations_per_s",
            "sat.probe_propagations",
            "sat.probe_solve_s",
        ),
        (
            "server.warm_jobs_per_s",
            "server.warm_jobs",
            "server.warm_phase_s",
        ),
    ] {
        let value = ratio(&table, num, den);
        table.insert(name, value);
    }
    table.insert("benchgen.generate_s", generate_s);
    table.insert(
        "trace.overhead_share",
        if untraced_median_s > 0.0 {
            traced_program_s / untraced_median_s - 1.0
        } else {
            0.0
        },
    );
    table
}

pub fn run(options: &RunOptions) -> Result<RunReport, String> {
    // Set-up, in blocks: the first block's last one is kept, the fastest of
    // all of them reported (for the reason `wall_s` is the fastest pass).
    let samples = if options.smoke { 3 } else { SETUPS_PER_BLOCK };
    let mut setup_times = Vec::new();
    let mut generate_times = Vec::new();
    let mut setup_block = || -> Result<Setup, String> {
        let mut kept = None;
        for _ in 0..samples {
            let t = Instant::now();
            let setup = workloads::setup(&options.workload, options.seed, options.smoke)
                .ok_or_else(|| format!("unknown workload {:?}", options.workload))?;
            setup_times.push(t.elapsed().as_secs_f64());
            generate_times.push(setup.generate_s);
            kept = Some(setup);
        }
        kept.ok_or_else(|| "no set-up sample".to_string())
    };
    let setup = setup_block()?;

    // Untraced passes: at least one, then as many as finish inside the
    // budget (half of it when a traced pass follows).
    let budget_s = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let measure = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // The peak resident set is read after the first pass: later passes run
    // on a heap that holds what the allocator kept of the earlier ones, and
    // their peaks move with it (serve-mix: 75-96 MB against 73-76 MB).
    let mut peak_rss = 0.0;
    loop {
        passes.push(workloads::run_untraced(&setup));
        if passes.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        if options.smoke {
            break;
        }
        setup_block()?;
        // Another pass while the fastest one so far still fits.
        let fastest = passes
            .iter()
            .map(|p| p.program_s)
            .fold(f64::INFINITY, f64::min);
        if measure.elapsed().as_secs_f64() + fastest > budget_s {
            break;
        }
    }
    let untraced_passes = passes.len();
    // `wall_s` is the fastest pass: on a shared host interference only ever
    // adds time, in bursts of seconds, so the fastest of the passes is the
    // steadiest reading of the program's own time (see the README's noise
    // table). The median pass is printed beside it.
    let walls: Vec<f64> = passes.iter().map(|p| p.program_s).collect();
    let wall_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let median_wall_s = median(&walls);

    // Traced pass with the same-program guard against the first pass.
    let mut tracer = Tracer::new();
    if options.trace {
        let mut traced = workloads::run_traced(&setup, &mut tracer);
        for (outcome, reference) in traced.outcomes.iter_mut().zip(&passes[0].outcomes) {
            if outcome.failures.is_empty()
                && reference.failures.is_empty()
                && outcome.digest != reference.digest
            {
                outcome
                    .failures
                    .push("traced recomposition differs from the untraced flow".into());
            }
        }
        passes.push(traced);
    }

    let first = &passes[0];
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    let mut drifted = vec![false; first.outcomes.len()];
    for (index, pass) in passes.iter().enumerate() {
        attempted += pass.outcomes.len();
        for (slot, outcome) in pass.outcomes.iter().enumerate() {
            if !outcome.failures.is_empty() {
                failed += 1;
                for why in &outcome.failures {
                    failures.push(format!("pass {index} {}: {why}", outcome.label));
                }
            }
            if index < untraced_passes
                && first.outcomes.get(slot).map(|o| o.digest) != Some(outcome.digest)
            {
                drifted[slot] = true;
            }
        }
    }
    let drift = drifted.iter().filter(|&&d| d).count();
    for (slot, _) in drifted.iter().enumerate().filter(|(_, &d)| d) {
        failures.push(format!(
            "{}: result digest differs between passes",
            first.outcomes[slot].label
        ));
    }

    let metrics: Vec<Measured> = if options.trace {
        let traced_program_s = passes.last().map_or(0.0, |p| p.program_s);
        let table = layer_metrics(
            &tracer.spans,
            median_wall_s,
            traced_program_s,
            median(&generate_times),
        );
        PER_LAYER
            .iter()
            .map(|metric| Measured {
                metric,
                value: table.get(metric.name).copied().unwrap_or(0.0),
                range: None,
            })
            .collect()
    } else {
        let column = |i: usize| geomean(first.outcomes.iter().filter_map(|o| o.qor).map(|q| q[i]));
        let min_max = |values: &[f64]| {
            (
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        END_TO_END
            .iter()
            .map(|metric| {
                let (value, range) = match metric.name {
                    "setup_s" => {
                        let range = min_max(&setup_times);
                        (range.0, Some(range))
                    }
                    "wall_s" => (wall_s, Some(min_max(&walls))),
                    "area_um2_geomean" => (column(0), None),
                    "delay_ps_geomean" => (column(1), None),
                    "levels_geomean" => (column(2), None),
                    "peak_rss_mb" => (peak_rss, None),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                Measured {
                    metric,
                    value,
                    range,
                }
            })
            .collect()
    };

    Ok(RunReport {
        workload: options.workload.clone(),
        seed: options.seed,
        trace: options.trace,
        passes: passes.len(),
        median_pass_s: median_wall_s,
        input_ands: setup.input_ands(),
        attempted,
        failed,
        drift,
        failures,
        circuits: first
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(slot, o)| {
                let per_pass: Vec<f64> = passes[..untraced_passes]
                    .iter()
                    .filter_map(|p| p.outcomes.get(slot).map(|o| o.seconds))
                    .collect();
                o.qor.map(|qor| CircuitRow {
                    label: o.label.clone(),
                    seconds: median(&per_pass),
                    qor,
                    digest: o.digest,
                })
            })
            .collect(),
        metrics,
        spans: tracer.spans,
    })
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<16} {why}");
    }
    for (title, table) in [
        (
            "end-to-end metrics (untraced passes, --trace 0)",
            END_TO_END,
        ),
        ("per-layer metrics (traced pass, --trace 1)", PER_LAYER),
    ] {
        println!("{title}:");
        for m in table {
            let bound = m
                .bound
                .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "  {:<32} {:<7} {:<7} bound {:<5} {}",
                m.name,
                m.unit,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                bound,
                m.meaning
            );
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
         [--json FILE] [--spans FILE] [--smoke]\n       ledger list\n       ledger compare A.json B.json"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let options = match parse_run(&args[1..]) {
                Ok(options) => options,
                Err(e) => {
                    eprintln!("ledger run: {e}");
                    return usage();
                }
            };
            let report = match run(&options) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("ledger run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            report.print_summary();
            let written = (|| -> std::io::Result<()> {
                if let Some(path) = &options.json {
                    let mut file = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)?;
                    writeln!(file, "{}", report.record_line())?;
                }
                if let Some(path) = &options.spans {
                    std::fs::write(
                        path,
                        trace::to_json_lines(&report.workload, report.passes - 1, &report.spans),
                    )?;
                }
                Ok(())
            })();
            if let Err(e) = written {
                eprintln!("ledger run: cannot write output file: {e}");
                return ExitCode::FAILURE;
            }
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::main(a, b),
            _ => usage(),
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> RunReport {
        let report = run(&RunOptions {
            workload: workload.to_string(),
            seed: 1,
            seconds: 0.0,
            trace,
            json: None,
            spans: None,
            smoke: true,
        })
        .expect("run");
        assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
        assert_eq!(report.drift, 0, "{workload}: {:?}", report.failures);
        assert!(report.attempted >= 1);
        assert!(serde_json::parse_value_text(&report.result_line()).is_ok());
        assert!(serde_json::parse_value_text(&report.record_line()).is_ok());
        report
    }

    /// One untraced and one traced smoke pass of every workload, with the
    /// same-program guard between them.
    #[test]
    fn smoke_pass_of_every_workload_is_clean() {
        for (name, _) in WORKLOADS {
            let report = smoke(name, true);
            assert_eq!(report.passes, 2);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.metric.name).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            assert!(report.spans.iter().any(|s| s.name.starts_with("pass.")));
        }
    }

    #[test]
    fn end_to_end_metrics_are_never_zero() {
        let report = smoke("windowed-scale", false);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.metric.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{} is {}", m.metric.name, m.value);
        }
    }

    #[test]
    fn median_and_number_rendering() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
