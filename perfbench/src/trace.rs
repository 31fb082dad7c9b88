//! In-memory spans recorded around the harness's calls into each layer.
//!
//! A span has a layer name, a call name, the workload/point id it served,
//! start and end offsets from the tracer's creation, and the index of the
//! span that was open when it began (its parent). Spans stay in memory
//! until the run ends and are then written out as JSON lines. A layer's
//! self time is the duration of its spans minus the parts their direct
//! children cover. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the call went into (`engine`, `build`, …).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Workload and point the call served, e.g. `fig5_sweep/Lm=256@1e-4`.
    pub id: String,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use = "an open span must be closed with Tracer::exit"]
#[derive(Debug)]
pub struct Open(Option<usize>);

/// Span recorder. Spans must nest: each [`Tracer::exit`] closes the most
/// recently opened span.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, id: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            id: id.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` names, which must be the innermost one.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(layer, name, id);
        let out = f();
        self.exit(open);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every closed span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\": {i}, \"layer\": {}, \"name\": {}, \"id\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                json_str(s.layer),
                json_str(s.name),
                json_str(&s.id),
                s.start_ns,
                s.end_ns,
            )?;
        }
        w.flush()
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Seconds of self time per layer: each span's duration minus the
/// durations of its direct children, summed by layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}
