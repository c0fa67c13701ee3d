//! In-memory spans around calls into the program's layers.
//!
//! A span records its layer name, the operation it belongs to, the
//! span that encloses it, and its start and end. Spans stay in memory
//! while the workload runs and are written out once at the end.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Every span as one tab-separated line
    /// (`index parent op name start_ns end_ns`) under a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tparent\top\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Writes [`to_tsv`](Self::to_tsv) to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_tsv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_record_their_parent_and_total_time() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            spin(2_000_000);
            t.span("inner", 7, |_| spin(3_000_000));
        });
        let (outer, inner) = (t.total_s("outer"), t.total_s("inner"));
        assert!(inner >= 0.003 && outer >= inner + 0.002, "{outer} {inner}");
        assert_eq!(t.total_s("absent"), 0.0);
        let text = t.to_tsv();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0\t-\t7\touter\t"), "{}", lines[1]);
        assert!(lines[2].starts_with("1\t0\t7\tinner\t"), "{}", lines[2]);
    }
}
