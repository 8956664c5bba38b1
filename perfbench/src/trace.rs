//! In-memory spans around the benchmark's own calls into each crate.
//!
//! A span has a name, start, end, parent and op id; spans stay in memory
//! and are written out once, when the run ends. A layer's self time is its
//! span's duration minus the time its direct children cover. With tracing
//! off, [`Tracer::span`] only runs the closure.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    op: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate over every span of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
}

impl Totals {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ms() * 1e3
    }
}

/// Single-threaded span recorder (spans are recorded on the thread that
/// drives the workload; the serve load threads are timed separately).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: Cell<u64>,
    stack: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new op: spans recorded from here on share its id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                op: self.op.get(),
                parent: self.stack.borrow().last().copied(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    fn self_times(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    pub fn totals(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for s in self.spans.borrow().iter().filter(|s| s.name == name) {
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
        }
        t
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.borrow().iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
