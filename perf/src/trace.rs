//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is opened by [`Tracer::span`] around one public call; spans
//! opened inside the closure become its children. Spans stay in memory
//! and are written out as JSON lines when the run ends. An untraced run
//! keeps no spans and reads no clock here.

use std::collections::BTreeMap;
use std::time::Instant;

use presat_obs::JsonObject;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer boundary, e.g. `preimage.encode`.
    pub name: &'static str,
    /// The workload operation the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSON line (no newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("id", self.id as u64);
        match self.parent {
            Some(p) => o.field_u64("parent", p as u64),
            None => o.field_raw("parent", "null"),
        };
        o.field_str("name", self.name)
            .field_u64("op", self.op)
            .field_u64("start_ns", self.start_ns)
            .field_u64("end_ns", self.end_ns);
        o.finish()
    }
}

/// Records spans when tracing is on; otherwise only runs the closures.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: on.then(Vec::new),
            open: Vec::new(),
        }
    }

    /// `true` if spans are recorded.
    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if self.spans.is_none() {
            return f(self);
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        let id = self.spans.as_ref().map_or(0, Vec::len);
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                id,
                parent,
                name,
                op,
                start_ns,
                end_ns: start_ns,
            });
        }
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.as_mut().and_then(|s| s.get_mut(id)) {
            span.end_ns = end_ns;
        }
        out
    }

    /// The recorded spans (empty when tracing is off).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Takes the recorded spans out of the tracer.
    pub fn take(&mut self) -> Vec<Span> {
        self.spans.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per-name totals of a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Totals per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.total_ns += s.duration_ns();
        t.self_ns += own;
        t.count += 1;
    }
    out
}

/// Share of root-span time that child spans cover, over all root spans.
pub fn child_coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut covered) = (0u64, 0u64);
    for (s, o) in spans.iter().zip(own) {
        if s.parent.is_none() {
            total += s.duration_ns();
            covered += s.duration_ns() - o;
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,40) and [30,60) overlap, so they
        // cover [10,60) = 50; grandchild [15,25) belongs to the first
        // child only.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 30, 60),
            span(3, Some(1), "c", 15, 25),
            span(4, None, "root", 200, 260),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10, 60]);
        let layers = by_name(&spans);
        assert_eq!(
            layers["root"],
            LayerTime {
                total_ns: 160,
                self_ns: 110,
                count: 2
            }
        );
        assert!((child_coverage(&spans) - 50.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(0, None, "root", 10, 20), span(1, Some(0), "a", 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        presat_obs::json::validate(&spans[1].to_json()).expect("span line is JSON");

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |_| 1), 1);
        assert!(off.spans().is_empty() && !off.on());
    }
}
