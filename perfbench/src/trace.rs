//! The benchmark's own span recorder for traced runs.
//!
//! A span wraps one call into a layer's public function and records its
//! name, start, end, parent and an optional unit count (bytes, values or
//! rows handled). Spans live in memory and are written out once, at the
//! end of the run, as Chrome trace-event JSON. With tracing off a span
//! is one relaxed atomic load, so untraced runs pay nothing measurable.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// Enclosing span on the same thread, 0 at the root.
    pub parent: u32,
    /// Outermost enclosing span (itself at the root): the spans of one
    /// operation share it.
    pub root: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub units: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; closes when dropped.
pub struct Guard(Option<Open>);

struct Open {
    name: &'static str,
    id: u32,
    parent: u32,
    root: u32,
    start_ns: u64,
    units: u64,
}

/// Opens a span named `name` under the innermost open span of this
/// thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, root) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let ends = (s.last().copied().unwrap_or(0), s.first().copied().unwrap_or(id));
        s.push(id);
        ends
    });
    Guard(Some(Open { name, id, parent, root, start_ns: now_ns(), units: 0 }))
}

impl Guard {
    /// Records how many bytes/values/rows the call handled.
    pub fn units(&mut self, n: u64) {
        if let Some(open) = &mut self.0 {
            open.units = n;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.truncate(pos);
            }
        });
        SPANS.lock().unwrap().push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            root: open.root,
            start_ns: open.start_ns,
            end_ns,
            units: open.units,
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Every closed span named `name`, in closing order.
pub fn spans_named(name: &str) -> Vec<Span> {
    SPANS.lock().unwrap().iter().filter(|s| s.name == name).cloned().collect()
}

/// Number of spans recorded so far.
pub fn count() -> usize {
    SPANS.lock().unwrap().len()
}

/// Writes every span as Chrome trace-event JSON (`X` events; times in
/// microseconds; id, parent, root and units in `args`).
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<()> {
    let spans = SPANS.lock().unwrap();
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"root\": {}, \"units\": {}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.root,
            s.units
        ));
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
