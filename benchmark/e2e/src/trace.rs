//! The benchmark's own tracing: spans recorded around the calls it makes
//! into each layer, an in-memory sink for the events the library already
//! emits, and the self-time arithmetic that turns spans into table rows.

use magic_obs::{Event, Recorder};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed region. Times are microseconds since the run's clock
/// origin; the spans of one request, listing or epoch share `trace`.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the clock origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
        });
        id
    }

    /// Records a span between two instants.
    pub fn push_between(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (s, e) = (self.at(start), self.at(end));
        self.push(trace, parent, name, s, e)
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.trace, s.id, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_us() - covered(s.start_us, s.end_us, &mut kids))
        })
        .collect()
}

/// Mean duration and mean self time of the spans called `name`.
pub fn mean_by_name(spans: &[Span], self_time: &HashMap<u64, f64>, name: &str) -> (f64, f64) {
    let picked: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    if picked.is_empty() {
        return (0.0, 0.0);
    }
    let n = picked.len() as f64;
    let dur = picked.iter().map(|s| s.dur_us()).sum::<f64>() / n;
    let own = picked.iter().map(|s| self_time[&s.id]).sum::<f64>() / n;
    (dur, own)
}

/// A recorder that keeps every library event in memory, for the trainer's
/// `op_profile` rows, its epoch histograms and the cache counters.
#[derive(Debug, Default)]
pub struct EventSink {
    events: Mutex<Vec<Event>>,
}

impl EventSink {
    /// Takes every event recorded so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("event sink unpoisoned"))
    }
}

impl Recorder for EventSink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("event sink unpoisoned")
            .push(event.clone());
    }
}

/// An additive attribution of one unit of work: rows plus the residual
/// that makes them sum to the unit.
#[derive(Debug, Clone)]
pub struct Table {
    /// What one unit is ("request", "listing", "epoch x lanes").
    pub unit: String,
    /// Unit total the rows attribute, in `scale` units.
    pub total: f64,
    pub scale: &'static str,
    pub rows: Vec<(String, f64)>,
    pub residual_name: String,
}

impl Table {
    /// The unattributed remainder: total minus the sum of the rows.
    pub fn residual(&self) -> f64 {
        self.total - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// Every row, then the residual, as (name, value, share of total %).
    pub fn shares(&self) -> Vec<(String, f64, f64)> {
        let pct = |v: f64| {
            if self.total > 0.0 {
                100.0 * v / self.total
            } else {
                0.0
            }
        };
        self.rows
            .iter()
            .map(|(n, v)| (n.clone(), *v, pct(*v)))
            .chain(std::iter::once((
                self.residual_name.clone(),
                self.residual(),
                pct(self.residual()),
            )))
            .collect()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "per-layer attribution of one {} ({:.3} {}):\n",
            self.unit, self.total, self.scale
        );
        for (name, value, share) in self.shares() {
            out.push_str(&format!(
                "  {name:<28} {value:>12.3} {:<3} {share:>7.2} %\n",
                self.scale
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, s: f64, e: f64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name: name.into(),
            start_us: s,
            end_us: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "request", 0.0, 100.0),
            span(2, Some(1), "server", 20.0, 100.0),
            // Overlapping children count once; parts outside the parent
            // do not count at all.
            span(3, Some(2), "read", 20.0, 30.0),
            span(4, Some(2), "extract", 25.0, 50.0),
            span(5, Some(2), "write", 90.0, 120.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 20.0);
        assert_eq!(own[&2], 80.0 - 30.0 - 10.0);
        assert_eq!(own[&3], 10.0);
        assert_eq!(own[&5], 30.0);
        let (dur, own_mean) = mean_by_name(&spans, &own, "server");
        assert_eq!((dur, own_mean), (80.0, 40.0));
        assert_eq!(mean_by_name(&spans, &own, "absent"), (0.0, 0.0));
    }

    #[test]
    fn residual_makes_rows_sum_to_the_total() {
        let table = Table {
            unit: "listing".into(),
            total: 10.0,
            scale: "us",
            rows: vec![("asm.parse".into(), 4.0), ("model.predict".into(), 5.0)],
            residual_name: "classify.residual".into(),
        };
        assert_eq!(table.residual(), 1.0);
        let shares = table.shares();
        assert_eq!(shares.len(), 3);
        assert_eq!(shares[2], ("classify.residual".to_string(), 1.0, 10.0));
        assert!((shares.iter().map(|r| r.2).sum::<f64>() - 100.0).abs() < 1e-9);
        // Rows that overrun the total leave a negative residual, shown as
        // such rather than clamped.
        let over = Table {
            total: 8.0,
            ..table
        };
        assert_eq!(over.residual(), -1.0);
        assert!(over.render().contains("classify.residual"));
    }

    #[test]
    fn spans_serialize_one_line_each() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.push(7, None, "epoch", 0.0, 10.0);
        spans.push(7, Some(root), "train.epoch", 1.0, 9.0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/e2e-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":1") && lines[1].contains("\"trace\":7"));
        for line in lines {
            magic_json::from_str(line).expect("valid JSON");
        }
    }
}
