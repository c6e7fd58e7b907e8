//! In-memory spans for traced runs.
//!
//! A span records one call into a layer: its name, start and end (ns
//! since the tracer's epoch), the span that caused it, and the request it
//! belongs to. Spans are kept in memory and written out once, when the
//! run ends. Untraced runs never construct a [`Tracer`].

use crate::report::Outcome;
use crate::Args;
use iim_bench::json::Json;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request.
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder owned by one thread (merge with [`Tracer::absorb`]).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-timed interval (e.g. a request timed from its
    /// scheduled send time rather than from now).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    /// Moves another tracer's spans into this one (re-basing parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (µs) of every span called `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(i as f64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request".into(), Json::Num(s.request as f64)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Arr(spans).render())
    }
}

/// Writes the spans under the work directory and notes where.
pub fn write_run_trace(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let path = args
        .work_dir
        .join("traces")
        .join(format!("{}-{}.json", args.workload, args.seed));
    match tracer.write_json(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("could not write spans: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open("request", None, 7);
        a.span("child", Some(root), 7, || std::hint::black_box(1 + 1));
        a.close(root);
        let mut b = Tracer::new(epoch);
        let r2 = b.open("request", None, 8);
        b.span("child", Some(r2), 8, || ());
        b.close(r2);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.micros_of("child").len(), 2);
        assert!(a.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
