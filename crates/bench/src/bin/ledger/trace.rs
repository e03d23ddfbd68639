//! In-memory span recorder for the traced pass.
//!
//! The harness wraps every call into a layer in a span (name, start, end,
//! parent) and attaches the counts the call returns. Spans stay in memory
//! until the run ends; untraced passes never construct a [`Tracer`].

use std::time::Instant;

/// One recorded interval. `name` is the metric stem: the aggregation turns a
/// span called `cec.verify` into the per-layer metric `cec.verify_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub circuit: String,
    pub parent: Option<usize>,
    pub start_us: u64,
    pub end_us: u64,
    /// Exact counts measured at this boundary, keyed by full metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Values the called function reports about itself (seconds or counts),
    /// keyed by full metric name; kept apart so a reader of the trace can
    /// tell a harness measurement from a self-report.
    pub reported: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Records spans against one clock; nesting follows the enter/exit order.
pub struct Tracer {
    epoch: Instant,
    circuit: String,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            circuit: String::new(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Names the circuit (or server phase) later spans belong to.
    pub fn set_circuit(&mut self, circuit: &str) {
        self.circuit = circuit.to_string();
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name,
            circuit: self.circuit.clone(),
            parent: self.stack.last().copied(),
            start_us: now,
            end_us: now,
            counts: Vec::new(),
            reported: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and anything still open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_us = now;
            if open == id {
                break;
            }
        }
    }

    /// Runs `f` inside a leaf span and returns the span index with the value.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (usize, T) {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        (id, out)
    }

    pub fn count(&mut self, span: usize, key: &'static str, value: f64) {
        self.spans[span].counts.push((key, value));
    }

    pub fn report(&mut self, span: usize, key: &'static str, value: f64) {
        self.spans[span].reported.push((key, value));
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_us.max(p.start_us);
            let end = span.end_us.min(p.end_us);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_us;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_us().saturating_sub(covered)
        })
        .collect()
}

/// Renders the spans as JSON lines, one object per span.
pub fn to_json_lines(workload: &str, pass: usize, spans: &[Span]) -> String {
    let pairs = |items: &[(&'static str, f64)]| {
        let body: Vec<String> = items
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", crate::json_number(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    };
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"workload\":\"{workload}\",\"circuit\":\"{}\",\"pass\":{pass},\
             \"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{},\
             \"counts\":{},\"reported\":{}}}\n",
            span.circuit,
            span.name,
            span.start_us,
            span.end_us,
            pairs(&span.counts),
            pairs(&span.reported),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span {
            name,
            circuit: "c".into(),
            parent,
            start_us,
            end_us,
            counts: Vec::new(),
            reported: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // root 0..100; children 10..30 and 20..50 overlap (union 40),
        // a third 70..80; a grandchild must not reduce the root.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 70, 80),
            span("a.inner", Some(1), 12, 20),
        ];
        assert_eq!(self_times_us(&spans), vec![50, 12, 30, 10, 8]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times_us(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_nests_by_enter_exit_order() {
        let mut tracer = Tracer::new();
        tracer.set_circuit("adder");
        let outer = tracer.enter("outer");
        let (inner, value) = tracer.time("inner", || 7);
        tracer.count(inner, "x.count", 3.0);
        tracer.exit(outer);
        let (after, ()) = tracer.time("after", || ());
        assert_eq!(value, 7);
        assert_eq!(tracer.spans[inner].parent, Some(outer));
        assert_eq!(tracer.spans[after].parent, None);
        assert_eq!(tracer.spans[inner].counts, vec![("x.count", 3.0)]);
        assert!(tracer.spans[outer].end_us >= tracer.spans[inner].end_us);
        let lines = to_json_lines("w", 1, &tracer.spans);
        assert_eq!(lines.lines().count(), 3);
        for line in lines.lines() {
            assert!(serde_json::parse_value_text(line).is_ok(), "{line}");
        }
    }
}
