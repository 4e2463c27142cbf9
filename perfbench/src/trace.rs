//! In-memory span recorder for traced runs.
//!
//! Every span wraps one call the benchmark makes into a public function of
//! the layer the span is named after; nothing is recorded inside the
//! program. Spans are pushed to one vector behind a mutex and written out
//! as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` and `req` are 0 when absent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f(span_id)` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time in microseconds of every span called `name`: its duration
    /// minus the part of its interval that its child spans cover (children
    /// may overlap when they ran on parallel threads).
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.snapshot();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == s.id)
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect();
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in kids {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.dur_ns() - covered) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.snapshot();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when a tracer is given, as a plain call otherwise, so
/// traced and untraced loops share one code path. The span id handed to
/// `f` is 0 when untraced.
pub fn traced<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tr {
        Some(t) => t.span(name, parent, req, f),
        None => f(0),
    }
}

/// [`traced`] that also returns the call's own wall time in microseconds.
pub fn timed<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    traced(tr, name, parent, req, |_| {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64() * 1e6)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let t = Tracer::new();
        let push = |id, parent, start_ns, end_ns| {
            t.spans.lock().unwrap().push(Span {
                id,
                parent,
                req: 0,
                name: if parent == 0 { "root" } else { "kid" },
                start_ns,
                end_ns,
            })
        };
        push(1, 0, 0, 100_000);
        push(2, 1, 10_000, 40_000);
        push(3, 1, 30_000, 50_000); // overlaps span 2
        push(4, 1, 90_000, 120_000); // runs past the parent's end
                                     // Covered: [10, 50] from the overlapping pair, [90, 100] from the clipped one.
        assert_eq!(t.self_times_us("root"), vec![50.0]);
        assert_eq!(t.durations_us("kid").len(), 3);
    }
}
