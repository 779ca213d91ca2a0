//! Spans recorded around calls into the system's public functions.
//!
//! A span holds its name (`layer.call`), start, end, parent and the id of
//! the operation it belongs to. Spans stay in memory while the workload
//! runs and are written out once it ends; each layer's self time is a
//! span's duration minus the part of it that its children cover.
//!
//! With tracing off, [`Tracer::span`] is one branch around the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for an operation's root span.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// (span id, op id) of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as the root span of a new operation; returns the op id
    /// (0 when tracing is off) with `f`'s result.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (u64, R) {
        if !self.on {
            return (0, f());
        }
        let op = self.next_id.fetch_add(1, Ordering::Relaxed);
        let r = self.record(name, 0, op, f);
        (op, r)
    }

    /// Run `f` as a child of the innermost open span on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (parent, op) = OPEN.with(|o| o.borrow().last().copied().unwrap_or((0, 0)));
        self.record(name, parent, op, f)
    }

    /// Run `f` as a root span attached to an existing operation `op` —
    /// used for work re-invoked after the operation to split its time
    /// into stages, which must not count in the operation's own time.
    pub fn detached<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.record(name, 0, op, f)
    }

    /// A new operation id, for operations whose spans are recorded with
    /// [`Tracer::interval`] (0 when tracing is off).
    pub fn new_op(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a span whose start and end were observed on different
    /// threads (a pipelined request: sent by one, answered on another).
    /// Returns its id, for use as a parent.
    pub fn interval(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking workload thread")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns: ns(start),
                end_ns: ns(end).max(ns(start)),
            });
        id
    }

    fn record<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push((id, op)));
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking workload thread")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        r
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock poisoned"))
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on other threads may overlap).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
        })
        .collect()
}

/// Write the spans as JSON lines to `path` (one span per line).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
