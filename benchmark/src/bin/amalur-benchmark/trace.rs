//! Spans recorded from outside the program, around each call into a
//! layer's public function.
//!
//! Spans stay in memory and are written out once, at exit. With tracing
//! off `span` is a plain call, so the end-to-end run pays nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers the benchmark calls into directly (integration and matrix
/// are only reached through these, so their time comes from replays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own glue (job envelopes, gates); never a metric.
    Harness,
    Relational,
    Catalog,
    Cost,
    Core,
    Factorize,
    Ml,
    Serve,
    Federated,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Relational => "relational",
            Layer::Catalog => "catalog",
            Layer::Cost => "cost",
            Layer::Core => "core",
            Layer::Factorize => "factorize",
            Layer::Ml => "ml",
            Layer::Serve => "serve",
            Layer::Federated => "federated",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// The job (or pass, or round) the span belongs to.
    pub job: u32,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Traced runs switch recording off for every other operation, so
    /// spans-on and spans-off are timed under the same conditions.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span. `f` receives the tracer back so calls it
    /// makes nest under this span.
    pub fn span<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        job: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            job,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover (children never overlap: one recorder is one
/// thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Durations (ms) of every span with the given name, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// The trace file: one JSON array of span objects.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.name,
            s.layer.name(),
            s.job,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // job [0,100) ─┬ integrate [10,70) ─┬ child [20,50)
        //              │                    └ child [50,60)
        //              └ train     [70,95)
        let spans = vec![
            span(Layer::Harness, None, 0, 100),
            span(Layer::Core, Some(0), 10, 70),
            span(Layer::Catalog, Some(1), 20, 50),
            span(Layer::Catalog, Some(1), 50, 60),
            span(Layer::Ml, Some(0), 70, 95),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 20, 30, 10, 25]);
        let by_layer = layer_self_ms(&spans);
        assert_eq!(by_layer[&Layer::Catalog], 40.0 / 1e6);
        assert_eq!(by_layer[&Layer::Core], 20.0 / 1e6);
        // Self times partition the root span.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_links_parents_and_is_free_when_off() {
        let mut t = Tracer::new(true);
        let v = t.span(Layer::Harness, "job", 3, |t| {
            t.span(Layer::Relational, "read_csv", 3, |_| 1)
                + t.span(Layer::Core, "integrate", 3, |t| {
                    t.span(Layer::Cost, "plan", 3, |_| 2)
                })
        });
        assert_eq!(v, 3);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.job == 3));

        let mut off = Tracer::new(false);
        assert_eq!(off.span(Layer::Core, "x", 0, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
