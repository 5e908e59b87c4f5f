//! Benchmark-side tracing: spans around every call the benchmark makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! Spans nest per thread; a span's parent is the innermost span open on
//! the same thread, and spans of one request share its request id.
//! Disabled (the untraced run), entering a span costs one atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id.
    pub id: u64,
    /// The enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// The request this span belongs to (0 = none).
    pub request: u64,
    /// Layer-qualified name, e.g. `f2db.parse`.
    pub name: &'static str,
    /// Recording thread (small integer).
    pub thread: u64,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn store() -> &'static Mutex<Vec<Span>> {
    static STORE: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_ID.fetch_add(1, Ordering::Relaxed);
}

/// Turns span recording on (the traced run) or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closing (dropping) records it.
#[must_use = "bind the guard: `let _s = spans::enter(..)`"]
pub struct Guard {
    open: Option<(u64, u64, u64, &'static str, Instant)>,
}

/// Opens span `name` for request `request` under the innermost open
/// span of this thread.
pub fn enter(name: &'static str, request: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, request, name, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, request, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        let base = epoch();
        let span = Span {
            id,
            parent,
            request,
            name,
            thread: THREAD.with(|t| *t),
            start_ns: start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
        };
        store().lock().unwrap().push(span);
    }
}

/// Every closed span so far.
pub fn collected() -> Vec<Span> {
    store().lock().unwrap().clone()
}

/// Per span name: count, total time and self time (total minus the
/// time covered by child spans), in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus child coverage.
    pub self_ns: u64,
}

/// Totals per span name over `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// Renders spans as a Chrome `trace_event` document (complete events,
/// microseconds), loadable in Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.request
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                request: 7,
                name: "client.query",
                thread: 1,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                request: 7,
                name: "f2db.parse",
                thread: 1,
                start_ns: 10,
                end_ns: 40,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["client.query"].self_ns, 70);
        assert_eq!(t["f2db.parse"].total_ns, 30);
        assert!(chrome_json(&spans).contains("\"request\":7"));
    }
}
