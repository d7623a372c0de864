//! Spans recorded by the harness around its calls into each layer.
//!
//! Held in memory and written out when the run ends. A span's self time
//! is its duration minus the part its children cover; children never
//! overlap, because the harness thread opens and closes them in order.

use std::time::Instant;

use crate::json;

/// One timed call (or group of calls).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The crate the call went into, or `cli`/`replay`/`fs` for the
    /// harness's own groupings.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub records: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// What a call moved, for its span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Moved {
    pub records: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

/// The span log of one traced run.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, layer: &'static str, name: &str, start: Instant) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            records: 0,
            bytes_in: 0,
            bytes_out: 0,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a leaf span under whatever group is open. `f` reports
    /// what it moved; its result is returned with the span's seconds.
    pub fn leaf<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> (R, Moved),
    ) -> (R, f64) {
        let start = Instant::now();
        let (r, moved) = f();
        let end = Instant::now();
        let id = self.push(layer, name, start);
        let s = &mut self.spans[id];
        s.end_ns = s.start_ns + (end - start).as_nanos() as u64;
        (s.records, s.bytes_in, s.bytes_out) = (moved.records, moved.bytes_in, moved.bytes_out);
        (r, (end - start).as_secs_f64())
    }

    /// Records a span measured elsewhere (a CLI command of the traced rep).
    pub fn record(&mut self, layer: &'static str, name: &str, start: Instant, end: Instant) {
        let id = self.push(layer, name, start);
        self.spans[id].end_ns = self.ns(end);
    }

    /// Runs `f` inside a group span; leaves and groups opened by `f`
    /// become its children.
    pub fn group<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.push(layer, name, Instant::now());
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        r
    }

    /// Nanoseconds of span `id` not covered by its children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \
                     \"end_ns\": {}, \"parent\": {}, \"self_ns\": {}, \"records\": {}, \
                     \"bytes_in\": {}, \"bytes_out\": {}}}",
                    json::quote(&s.name),
                    json::quote(s.layer),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self.self_ns(id),
                    s.records,
                    s.bytes_in,
                    s.bytes_out
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        t.group("replay", "replay.merge", |t| {
            t.leaf("fs", "fs.read", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                (
                    (),
                    Moved {
                        bytes_in: 7,
                        ..Moved::default()
                    },
                )
            });
            t.group("replay", "inner", |t| {
                t.leaf("merge", "merge.kway", || ((), Moved::default()));
            });
        });
        assert_eq!(t.spans.len(), 4);
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        let children =
            (t.spans[1].end_ns - t.spans[1].start_ns) + (t.spans[2].end_ns - t.spans[2].start_ns);
        assert_eq!(
            t.self_ns(0) + children,
            t.spans[0].end_ns - t.spans[0].start_ns
        );
        assert!(t.spans[1].secs() >= 0.002);
        assert_eq!(t.spans[1].bytes_in, 7);
        let j = Json::parse(&t.to_json()).unwrap();
        assert_eq!(j.as_arr().unwrap().len(), 4);
        assert_eq!(
            j.as_arr().unwrap()[3].get("parent").unwrap().as_f64(),
            Some(2.0)
        );
    }
}
