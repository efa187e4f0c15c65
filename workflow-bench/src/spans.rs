//! In-memory span log of a traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public entry point; the library is not instrumented.
//! Every span carries its name, start and end (nanoseconds since the log
//! was created), its parent and the iteration it belongs to. Layer spans
//! also carry the allocator high-water mark reached during the call,
//! above the live bytes at its start. The log stays in memory until the
//! run ends and is then written out as JSON lines.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use cahd_obs::memtrack;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole iteration of the workload's chain (the root).
    Iteration,
    /// One stage of the chain: publish, audit, evaluate or attack.
    Stage,
    /// One call into a layer's public function.
    Layer,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Iteration => "iteration",
            Kind::Stage => "stage",
            Kind::Layer => "layer",
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `iteration`, a stage name, or `<module>.<function>` for a layer.
    pub name: String,
    /// What the span covers.
    pub kind: Kind,
    /// The iteration the span belongs to.
    pub iteration: u32,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
    /// Allocator high-water mark during the call above the live bytes at
    /// its start (layer spans only; 0 for the others).
    pub peak_bytes: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log. Shared by reference through one iteration; interior
/// mutability keeps the recording calls usable from nested closures.
pub struct SpanLog {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    iteration: Cell<u32>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            iteration: Cell::new(0),
        }
    }

    /// Sets the iteration id stamped on the spans recorded from now on.
    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.set(iteration);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. `f` must not unwind: callers
    /// catch panics inside the span so the open-span stack stays sound.
    pub fn record<T>(&self, kind: Kind, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                kind,
                iteration: self.iteration.get(),
                parent: open.last().copied(),
                start_ns: 0,
                end_ns: 0,
                peak_bytes: 0,
            });
            let idx = spans.len() - 1;
            open.push(idx);
            idx
        };
        // Layer spans never nest, so resetting the high-water mark here
        // cannot hide an enclosing layer's peak.
        let live_before = if kind == Kind::Layer {
            memtrack::reset_peak();
            memtrack::stats().live_bytes
        } else {
            0
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let peak = if kind == Kind::Layer {
            memtrack::stats().peak_bytes.saturating_sub(live_before)
        } else {
            0
        };
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        span.peak_bytes = peak;
        out
    }

    /// Per-iteration totals of every layer, keyed by layer name: self time
    /// in nanoseconds and the largest peak of its calls. The `unattributed`
    /// entry holds iteration time that no layer span covers.
    pub fn layer_totals(&self) -> BTreeMap<u32, BTreeMap<String, LayerTotal>> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<String, LayerTotal>> = BTreeMap::new();
        let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
        let mut roots: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            match s.kind {
                Kind::Layer => {
                    let t = out
                        .entry(s.iteration)
                        .or_default()
                        .entry(s.name.clone())
                        .or_default();
                    t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
                    t.peak_bytes = t.peak_bytes.max(s.peak_bytes);
                    *covered.entry(s.iteration).or_default() += s.duration_ns();
                }
                Kind::Iteration => *roots.entry(s.iteration).or_default() += s.duration_ns(),
                Kind::Stage => {}
            }
        }
        for (it, root_ns) in roots {
            let cov = covered.get(&it).copied().unwrap_or(0);
            out.entry(it).or_default().insert(
                UNATTRIBUTED.to_string(),
                LayerTotal {
                    self_ns: root_ns.saturating_sub(cov),
                    peak_bytes: 0,
                },
            );
        }
        out
    }

    /// Writes the log as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"parent\":{parent},\"iteration\":{},\"kind\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"peak_bytes\":{}}}",
                s.iteration,
                s.kind.as_str(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.peak_bytes
            );
        }
        std::fs::write(path, text)
    }
}

/// Name of the pseudo-layer holding iteration time outside every layer.
pub const UNATTRIBUTED: &str = "unattributed";

/// One layer's totals within one iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    /// Self time: span time not covered by child spans.
    pub self_ns: u64,
    /// Largest allocator high-water mark of the layer's calls.
    pub peak_bytes: u64,
}
