//! In-memory spans recorded by the runner around its calls into the engine,
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in the recorder (its identifier).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, such as `engine.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Numeric attributes (counts, phase times) attached on close.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The attribute `name`, when attached.
    pub fn attr(&self, name: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
    }
}

/// Records nested spans; a disabled recorder records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.open.push(id);
    }

    /// Close the innermost open span, attaching `attrs`.
    pub fn close(&mut self, attrs: Vec<(&'static str, f64)>) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("close matches an open span");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.attrs = attrs;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Append `value` to `out` as a JSON string literal.
pub fn json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `value` to `out` as a JSON number (`null` when not finite).
pub fn json_number(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Render the spans as JSON lines sharing `run_id`, each with its parent
/// link, duration and self time.
pub fn to_json_lines(run_id: &str, spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::new();
    for (span, self_ns) in spans.iter().zip(self_ns) {
        out.push_str("{\"run_id\":");
        json_string(&mut out, run_id);
        let _ = write!(out, ",\"span_id\":{},\"parent_id\":", span.id);
        match span.parent {
            Some(parent) => {
                let _ = write!(out, "{parent}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        json_string(&mut out, span.name);
        let _ = write!(
            out,
            ",\"start_ns\":{},\"end_ns\":{},\"dur_ns\":{},\"self_ns\":{self_ns},\"attrs\":{{",
            span.start_ns,
            span.end_ns,
            span.duration_ns()
        );
        for (i, (key, value)) in span.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, key);
            out.push(':');
            json_number(&mut out, *value);
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps its sibling: the shared 30..40 is covered once.
            span(2, Some(0), 30, 60),
            span(3, Some(1), 15, 25),
            span(4, Some(0), 90, 100),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 10]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(0, None, 5, 9)]), vec![4]);
    }

    #[test]
    fn tracer_links_parents_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.open("root");
        tracer.open("child");
        tracer.close(vec![("n", 2.0)]);
        tracer.close(Vec::new());
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].attr("n"), Some(2.0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        off.open("root");
        off.close(Vec::new());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn json_lines_carry_run_id_and_parent_links() {
        let mut spans = vec![span(0, None, 0, 10), span(1, Some(0), 2, 4)];
        spans[1].attrs = vec![("probes", 3.0), ("ratio", f64::NAN)];
        let text = to_json_lines("r\"1", &spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"run_id\":\"r\\\"1\",\"span_id\":0,\"parent_id\":null"));
        assert!(lines[1].contains("\"parent_id\":0"));
        assert!(lines[1].contains("\"self_ns\":2"));
        assert!(lines[0].contains("\"self_ns\":8"));
        assert!(lines[1].ends_with("\"attrs\":{\"probes\":3,\"ratio\":null}}"));
    }
}
