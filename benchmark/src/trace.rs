//! In-memory spans around the benchmark's own calls into each layer,
//! written out when the run ends. Tracing is off for every end-to-end
//! metric; a separate `--trace 1` run turns it on.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Milliseconds since `t_ns`, a reading of [`now_ns`].
pub fn ms_since(t_ns: u64) -> f64 {
    (now_ns() - t_ns) as f64 / 1e6
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The frame (or tick) the span belongs to; spans of one frame share it.
    pub frame: u64,
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::default()
    }

    pub fn on() -> Self {
        Self {
            on: true,
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, frame: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: parent.0,
            frame,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i as usize].end_ns = now_ns();
        }
    }

    /// Forgets the span just begun (nothing else was begun since): an
    /// empty poll is not worth a span.
    pub fn cancel(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            debug_assert_eq!(i as usize + 1, self.spans.len());
            self.spans.truncate(i as usize);
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        frame: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, frame);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span: its duration minus what its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time of layer `name` per frame, in µs: the spans of one frame
    /// are summed (a frame is seven hub packets), frames stay apart.
    pub fn self_us_per_frame(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per_frame: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *per_frame.entry(s.frame).or_default() += ns;
            }
        }
        per_frame.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"frame\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.frame
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_per_frame() {
        let span = |name, start_ns, end_ns, parent, frame| Span {
            name,
            start_ns,
            end_ns,
            parent,
            frame,
        };
        let tracer = Tracer {
            on: true,
            spans: vec![
                span("tick", 0, 10_000, None, 0),
                span("send", 1_000, 3_000, Some(0), 0),
                span("send", 3_000, 4_000, Some(0), 0),
                span("tick", 20_000, 25_000, None, 1),
                span("send", 21_000, 22_000, Some(3), 1),
            ],
        };
        assert_eq!(tracer.self_us_per_frame("send"), [3.0, 1.0]);
        assert_eq!(tracer.self_us_per_frame("tick"), [7.0, 4.0]);
        assert!(tracer.self_us_per_frame("absent").is_empty());
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tracer = Tracer::off();
        let id = tracer.begin("tick", SpanId::NONE, 0);
        assert_eq!(tracer.leaf("send", id, 0, || 7), 7);
        tracer.end(id);
        assert!(tracer.spans.is_empty());
    }
}
