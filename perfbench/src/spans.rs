//! In-memory span recorder and self-time accounting.
//!
//! The benchmark wraps each call into a library layer in a span: name,
//! start, end, parent span and the pass (sweeps) or request (serve) it
//! belongs to. A disabled recorder runs the same closures and records
//! nothing, so a traced and an untraced run make identical library calls
//! and differ only by the recording itself.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by the union of its children — children may run on other
//! threads and overlap each other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (0 is never issued).
pub type SpanId = u64;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Layer name, e.g. `"capture"` or `"serve.evaluate"`.
    pub name: &'static str,
    /// Pass index (sweeps) or request index (serve).
    pub group: u64,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id (to parent spans opened on other threads), or `None` when the
    /// recorder is disabled.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span log lock").push(Span {
            id,
            parent,
            name,
            group,
            start,
            end,
        });
        out
    }

    /// Nanoseconds since the recorder's epoch.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log lock"))
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals within it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<SpanId, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            s.duration() - covered(kids, s.start, s.end)
        })
        .collect()
}

/// Renders spans as one JSON document (`{"spans":[...]}`), with self
/// times, for offline inspection.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"spans\":[");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"group\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.group,
            s.start,
            s.end,
            self_ns
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            group: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two children on different threads overlapping in [20, 30),
            // plus one nested inside the first: union = [10, 50).
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 12, 18),
            // A grandchild does not count against the root.
            span(5, Some(2), 10, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 0, 30, 6, 20]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 50, 120),
            span(3, Some(1), 190, 260),
            span(4, Some(1), 300, 400),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn disabled_recorder_runs_the_closure_and_records_nothing() {
        let off = Recorder::new(false);
        assert!(off.span("x", None, 0, |id| id.is_none()));
        assert!(off.take().is_empty());

        let on = Recorder::new(true);
        let inner = on.span("outer", None, 3, |outer| {
            on.span("inner", outer, 3, |inner| (outer, inner))
        });
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, inner.0);
        assert_eq!(Some(spans[0].id), inner.1);
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);
        assert!(to_json(&spans).contains("\"name\":\"outer\""));
    }
}
