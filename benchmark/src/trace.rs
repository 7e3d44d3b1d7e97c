//! In-memory spans for the traced replay.
//!
//! A span brackets one call into a layer's public functions. Spans nest
//! on one thread (the replay calls layers one after another; a layer may
//! fan out internally, inside its span), share a trace id per replayed
//! request or pipeline pass, and stay in memory until the run ends, when
//! they are written out as JSON lines. A layer is the span name up to
//! its first `.`; its self time is its spans' durations minus the time
//! their child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: u64,
    /// Span id, unique in the run.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.operation`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work items the call handled, where that is countable.
    pub count: Option<u64>,
    /// Bytes the call read or produced, where that is countable.
    pub bytes: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Counts a span body reports about its work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Work items handled.
    pub count: Option<u64>,
    /// Bytes read or produced.
    pub bytes: Option<u64>,
}

/// Collects spans for one run.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u64>>,
    trace: Cell<u64>,
    next_id: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; times count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            trace: Cell::new(0),
            next_id: Cell::new(1),
        }
    }

    /// Start a new trace: root spans opened from now on get a fresh id.
    pub fn new_trace(&self) {
        self.trace.set(self.trace.get() + 1);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `body` inside a span named `name`; `body` may report its
    /// work through the [`Work`] it is handed.
    pub fn span<T>(&self, name: &str, body: impl FnOnce(&mut Work) -> T) -> T {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.stack.borrow().last().copied();
        self.stack.borrow_mut().push(id);
        let start_ns = self.now_ns();
        let mut work = Work::default();
        let out = body(&mut work);
        let end_ns = self.now_ns();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut().push(Span {
            trace: self.trace.get(),
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
            count: work.count,
            bytes: work.bytes,
        });
        out
    }

    /// How many spans have finished so far.
    pub fn finished(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every span finished so far, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The first finished span named `name`.
    pub fn first(&self, name: &str) -> Option<Span> {
        self.spans.borrow().iter().find(|s| s.name == name).cloned()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let mut line = format!(
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.trace,
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            );
            if let Some(c) = s.count {
                let _ = write!(line, ",\"count\":{c}");
            }
            if let Some(b) = s.bytes {
                let _ = write!(line, ",\"bytes\":{b}");
            }
            line.push('}');
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time per span id: duration minus the time its direct children
/// cover. Children of one span run one after another on the replay
/// thread, so their durations add up without overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut own: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.secs())).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if let Some(t) = own.get_mut(&parent) {
                *t -= s.secs();
            }
        }
    }
    own
}

/// Self time per layer over `spans`, in seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let own = self_times(spans);
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        *layers.entry(s.layer().to_owned()).or_default() += own[&s.id];
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children() {
        let tracer = Tracer::new();
        tracer.new_trace();
        tracer.span("replay.all", |_| {
            tracer.span("source.load", |w| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                w.count = Some(3);
            });
            tracer.span("experiments.all", |_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let root = tracer.first("replay.all").unwrap();
        let load = tracer.first("source.load").unwrap();
        assert_eq!(load.parent, Some(root.id));
        assert_eq!(load.trace, root.trace);
        assert_eq!(load.count, Some(3));
        let layers = layer_self_times(&spans);
        let covered = layers["source"] + layers["experiments"];
        assert!(layers["replay"] >= 0.0);
        assert!((covered + layers["replay"] - root.secs()).abs() < 1e-9);
        assert!(covered / root.secs() > 0.9, "{layers:?}");
    }
}
