//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and a parent.  The first segment of
//! the name (`graph`, `sim`, `noc`, `bench`) is the layer it belongs to.
//! Spans stay in memory while the workload runs and are written out once it
//! has finished, so the recorder costs two clock reads and a push per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A parent index meaning "no parent".
const ROOT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Wraps the calls a workload makes into a layer.  The untraced
/// implementation, `()`, compiles to the bare call.
pub trait Probe {
    /// Runs `f` inside a span called `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

impl Probe for () {
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The in-memory span recorder of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Seconds covered by all spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).sum::<u64>() as f64 * 1e-9
    }

    /// Durations in nanoseconds of the spans called `name`, in start order.
    pub fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// its child spans cover, summed over the spans of the layer.
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *layers.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        layers
    }

    /// Writes every span as one CSV line `id,parent,name,start_ns,end_ns`
    /// (`parent` is empty for a root span).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                ROOT => String::new(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{id},{parent},{},{},{}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

impl Probe for Tracer {
    #[inline]
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_per_layer() {
        let mut tracer = Tracer::new();
        tracer.enter("bench.workload");
        tracer.span("graph.build", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("sim.run", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        tracer.exit();
        let layers = tracer.self_s_by_layer();
        let total = tracer.total_s("bench.workload");
        let sum: f64 = layers.values().sum();
        assert!(
            (sum - total).abs() < 1e-9,
            "self times {sum} must add up to the root {total}"
        );
        assert!(layers["graph"] >= 0.002 && layers["sim"] >= 0.003);
        assert!(layers["bench"] < layers["sim"]);
    }
}
