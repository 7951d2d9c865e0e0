//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into the workspace crates' public
//! functions. Each records its name, start, end and parent; a span's
//! self time is its duration minus the time its child spans cover. The
//! sum of self times over every span equals the summed duration of the
//! root spans, so comparing it with the traced wall time shows how much
//! of the run no span accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records nested spans against one origin instant.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Every span of one name, folded.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    /// Duration of each span, seconds, in the order they closed.
    pub durations: Vec<f64>,
    /// Summed self time, seconds.
    pub self_s: f64,
}

impl SpanStats {
    /// Summed duration, seconds.
    pub fn total_s(&self) -> f64 {
        self.durations.iter().sum()
    }

    /// Longest single span, seconds.
    pub fn max_s(&self) -> f64 {
        self.durations.iter().copied().fold(0.0, f64::max)
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`. Spans opened by `f` through
    /// the tracer it is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(idx) {
            span.end_ns = end_ns;
        }
        out
    }

    /// Fold the spans by name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.durations.push(dur as f64 * 1e-9);
            entry.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_roots() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            spin(5);
            tr.span("inner", |_| spin(10));
            tr.span("inner", |_| spin(10));
        });
        let stats = tr.stats();
        let outer = &stats["outer"];
        let inner = &stats["inner"];
        assert_eq!(inner.durations.len(), 2);
        assert!(outer.self_s < outer.total_s() - inner.total_s() + 1e-6);
        let self_sum: f64 = stats.values().map(|s| s.self_s).sum();
        assert!((self_sum - outer.total_s()).abs() < 1e-6);
        assert!(inner.max_s() >= 0.010);
    }
}
