//! In-memory span recorder and the counting allocator.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer; nothing inside the crates is instrumented. They
//! stay in memory and are written to `<out-dir>/<workload>.trace.json`
//! when the run ends.

use crate::json::{self, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span recorded where no `&mut Tracer` is reachable (rank 0's fiber
/// inside a simulated world); attached under the world's span afterwards.
pub struct RawSpan {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Span {
    name: String,
    /// The repetition or probe group this span belongs to.
    request: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. Ids are indices into the span list. Switched off (the
/// default) it records nothing and reads no clock.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: String,
}

impl Tracer {
    /// A recorder that records.
    pub fn recording() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Name the request (repetition, probe group) later spans belong to.
    pub fn set_request(&mut self, request: &str) {
        self.request = request.to_string();
    }

    /// Record `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            request: self.request.clone(),
            parent: self.stack.last().copied(),
            start_ns: now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = now_ns();
        out
    }

    /// Attach already-measured spans under the innermost open span.
    pub fn attach(&mut self, raw: Vec<RawSpan>) {
        let parent = self.stack.last().copied();
        for r in raw {
            self.spans.push(Span {
                name: r.name,
                request: self.request.clone(),
                parent,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
            });
        }
    }

    /// Durations in ns of `request`'s spans named one of `names`, in order.
    pub fn durations_ns(&self, request: &str, names: &[&str]) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.request == request && names.contains(&s.name.as_str()))
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The spans as a JSON array; `self_ns` is the span's duration minus
    /// the part its children cover.
    pub fn to_json(&self, workload: &str) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let dur = s.end_ns - s.start_ns;
                    json::object([
                        ("id", Value::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("name", Value::Str(s.name.clone())),
                        ("workload", Value::Str(workload.to_string())),
                        ("request", Value::Str(s.request.clone())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "self_ns",
                            Value::Num(dur.saturating_sub(child_ns[id]) as f64),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// `System`, counting allocations while switched on (the traced pair
/// only, so the timed repetitions pay one relaxed load per allocation).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (that is, from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Count allocations made by `f`: `(result, allocations, bytes)`.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOC_COUNT.load(Ordering::Relaxed) - c0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}
