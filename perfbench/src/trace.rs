//! The traced run's span recorder.
//!
//! Spans live in memory — name, crate layer, start, end, parent — and are
//! written out as JSONL when the run ends. The benchmark records them from
//! its own code, around each call it makes into a crate's public API. A
//! span's **self time** is its duration minus its direct children's; the
//! per-layer budget of a subtree sums self times by layer, and whatever the
//! subtree root's own code spent between its children is reported as the
//! unattributed remainder.

use serde::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the span timed (`combinat.construct`, `serve.submit`, …).
    pub name: String,
    /// The crate layer the time belongs to (`combinat`, `harness`, …).
    pub layer: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (equal to the start while open).
    pub end_ns: u64,
    /// Whether the duration was derived rather than timed: a library call
    /// that does two layers' work (the structure store constructs before it
    /// publishes) gets a child carrying the other layer's separately timed
    /// share, so the parent's self time excludes it.
    pub estimated: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer self times of one span subtree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Duration of the subtree's root span.
    pub wall_ns: u64,
    /// Self time per layer, sorted by layer name.
    pub layers: Vec<(&'static str, u64)>,
    /// `wall_ns` minus the sum of the layers' self times.
    pub unattributed_ns: i64,
}

impl Budget {
    /// Self time of one layer (0 when it recorded nothing).
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.layers
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(0, |(_, ns)| *ns)
    }

    /// The layer with the largest self time.
    pub fn dominant(&self) -> Option<&'static str> {
        self.layers
            .iter()
            .max_by_key(|(_, ns)| *ns)
            .map(|(name, _)| *name)
    }
}

/// An in-memory span recorder for one workload.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, layer: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            parent,
            start_ns: now,
            end_ns: now,
            estimated: false,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `body` as one span.
    pub fn record<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        body: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, layer, parent);
        let value = body();
        self.end(id);
        value
    }

    /// Adds a derived child of `duration_ns` at the start of `parent` (see
    /// [`Span::estimated`]), clamped to the parent's duration.
    pub fn estimated_child(
        &mut self,
        parent: usize,
        name: &str,
        layer: &'static str,
        duration_ns: u64,
    ) {
        let host = &self.spans[parent];
        let start_ns = host.start_ns;
        let end_ns = start_ns + duration_ns.min(host.duration_ns());
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            parent: Some(parent),
            start_ns,
            end_ns,
            estimated: true,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Whether `id` lies strictly below `root`.
    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        while let Some(parent) = self.spans[id].parent {
            if parent == root {
                return true;
            }
            id = parent;
        }
        false
    }

    /// The per-layer self-time budget of the subtree under `root`.
    pub fn budget(&self, root: usize) -> Budget {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.duration_ns();
            }
        }
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            if !self.descends_from(id, root) {
                continue;
            }
            let own = span.duration_ns().saturating_sub(children_ns[id]);
            match layers.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, total)) => *total += own,
                None => layers.push((span.layer, own)),
            }
        }
        layers.sort_by_key(|(layer, _)| *layer);
        let wall_ns = self.spans[root].duration_ns();
        let attributed: u64 = layers.iter().map(|(_, ns)| ns).sum();
        Budget {
            wall_ns,
            layers,
            unattributed_ns: wall_ns as i64 - attributed as i64,
        }
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let value = Value::Object(vec![
                ("id".into(), Value::Uint(id as u64)),
                (
                    "parent".into(),
                    span.parent.map_or(Value::Null, |p| Value::Uint(p as u64)),
                ),
                ("name".into(), Value::Str(span.name.clone())),
                ("layer".into(), Value::Str(span.layer.into())),
                ("workload".into(), Value::Str(self.workload.into())),
                ("start_ns".into(), Value::Uint(span.start_ns)),
                ("end_ns".into(), Value::Uint(span.end_ns)),
                ("estimated".into(), Value::Bool(span.estimated)),
            ]);
            out.push_str(&serde_json::to_string(&value).expect("serializable span"));
            out.push('\n');
        }
        out
    }
}
