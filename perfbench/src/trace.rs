//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer started),
//! the span that caused it, and a request id shared by every span of one
//! request or op. Spans stay in memory until the run ends and are then
//! written out as JSON lines; a layer's self time is its span's duration
//! minus the part of that interval its children cover.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// ns since the tracer started.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span whose ends are already known; returns its id.
    pub fn add(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let now = self.ns(Instant::now());
        self.add(name, parent, req, now, now)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span; returns its result and the span's duration
    /// in ns.
    pub fn time<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        (r, self.spans[id].end_ns - self.spans[id].start_ns)
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// `(spans, total self ns)` per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name.to_string()).or_default();
            e.0 += 1;
            e.1 += st;
        }
        out
    }

    /// Write every span as one JSON line, after a header line carrying
    /// `header` (already JSON) and a per-name self-time summary.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (name, (n, ns)) in self.self_time_by_name() {
            writeln!(
                w,
                "{{\"self_time\": {name:?}, \"spans\": {n}, \"self_ns\": {ns}}}"
            )?;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": {:?}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.add("op", None, 1, 0, 100);
        // Overlapping children [10, 30) and [20, 50) cover 40 ns; [60, 70)
        // covers 10; one child sticks out past the parent's end.
        let a = t.add("a", Some(root), 1, 10, 30);
        t.add("b", Some(root), 1, 20, 50);
        t.add("c", Some(root), 1, 60, 70);
        t.add("d", Some(root), 1, 95, 120);
        t.add("a.inner", Some(a), 1, 12, 18);
        let st = t.self_times();
        assert_eq!(st[root], 100 - 40 - 10 - 5);
        assert_eq!(st[a], 20 - 6);
        assert_eq!(st[2], 30);
        let by = t.self_time_by_name();
        assert_eq!(by["op"], (1, 45));
        assert_eq!(by["a.inner"], (1, 6));
    }

    #[test]
    fn leaf_self_time_is_duration_and_time_records_a_span() {
        let mut t = Tracer::new();
        let (v, ns) = t.time("work", None, 7, || (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].req, 7);
        assert_eq!(t.self_times()[0], ns);
    }
}
