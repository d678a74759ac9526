//! Trace aggregation: fold a `magic-trace/3` JSONL stream (or an older
//! `/1` or `/2` one) into per-stage timing and per-op profile tables —
//! the engine behind `magic report` and `magic profile`.

use crate::event::{read_events, Event};
use std::collections::HashMap;

/// Aggregated timings for one span stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name (see [`crate::stage`]).
    pub stage: String,
    /// Closed spans observed.
    pub count: u64,
    /// Sum of span durations, µs.
    pub total_us: u64,
    /// Sum of durations minus time spent in child spans, µs — where the
    /// time actually went.
    pub self_us: u64,
    /// Shortest span, µs.
    pub min_us: u64,
    /// Longest span, µs.
    pub max_us: u64,
}

/// Aggregated deltas for one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterStats {
    /// Counter name.
    pub name: String,
    /// Number of delta events.
    pub count: u64,
    /// Sum of deltas.
    pub total: f64,
}

/// Aggregated observations for one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Histogram name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub total: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

/// Aggregated `op_profile` rows for one `(kind, phase, shape class)`.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfileStats {
    /// Op kind name (tape op or host pseudo-op).
    pub kind: String,
    /// `"fwd"`, `"bwd"`, or `"host"`.
    pub phase: String,
    /// Output-size bucket label (e.g. `"≤4Ki"`).
    pub shape_class: String,
    /// Op executions aggregated into this row.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed floating-point operations.
    pub flops: u64,
    /// Summed output bytes.
    pub bytes_out: u64,
}

/// Everything `magic report` knows about one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// The `command` from the stream's meta header, if present.
    pub command: Option<String>,
    /// The kernel instance from the stream's meta header, if recorded.
    pub isa: Option<String>,
    /// Total events parsed.
    pub events: u64,
    /// Wall-clock between the first and last event timestamp, µs.
    pub wall_us: u64,
    /// Wall-clock covered by *top-level* spans (no parent), µs: the
    /// length of the union of their intervals, so at most `wall_us`.
    /// Spans opened on worker threads have no parent either and overlap
    /// the span that spawned them; the union counts that time once.
    pub top_level_us: u64,
    /// Per-stage timings, largest total first.
    pub stages: Vec<StageStats>,
    /// Counters, by name.
    pub counters: Vec<CounterStats>,
    /// Histograms, by name.
    pub histograms: Vec<HistogramStats>,
    /// Per-op profile rows (schema v2), largest self time first.
    pub ops: Vec<OpProfileStats>,
    /// Spans that were opened but never closed (crash, or a still-open
    /// guard when the recorder was removed).
    pub unclosed_spans: u64,
    /// Fields of the first `train.run` span (`workers`, `isa`, …), empty
    /// when the trace has none. Readers normalize lane time by `workers`.
    pub train_fields: Vec<(String, f64)>,
    /// Lines skipped instead of aborting on: events of an unknown type
    /// (a newer minor schema addition), plus an unparseable *final* line
    /// (the truncated tail a killed run leaves behind). Malformed lines
    /// anywhere else are still a hard error.
    pub malformed_lines: u64,
}

impl TraceSummary {
    /// Aggregates an iterator of JSONL lines. Blank lines are skipped.
    ///
    /// Two classes of damage are tolerated rather than fatal, so reports
    /// still work on traces from killed runs and from newer writers:
    /// events of an unknown type (valid JSON, accepted schema version)
    /// are skipped anywhere, and the *final* non-blank line may be
    /// unparseable (a process killed mid-write truncates it). Both are
    /// counted in [`TraceSummary::malformed_lines`].
    ///
    /// # Errors
    ///
    /// Returns `"line N: <why>"` for the first malformed line that is
    /// neither of the above — including any line with an unsupported
    /// schema version, which signals a reader too old for the whole file.
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Self, String> {
        let mut summary = TraceSummary::default();
        let mut first_ts: Option<u64> = None;
        let mut last_ts: u64 = 0;
        // id -> (stage, parent)
        let mut open: HashMap<u64, (String, Option<u64>)> = HashMap::new();
        // (stage, dur) of every closed span
        let mut closed: Vec<(String, u64)> = Vec::new();
        // (start, end) of every closed top-level span, µs
        let mut top_level: Vec<(u64, u64)> = Vec::new();
        // parent id -> sum of closed children durations
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        // id -> index into `closed` (to look up own children afterwards)
        let mut closed_by_id: HashMap<u64, usize> = HashMap::new();
        let mut counters: HashMap<String, CounterStats> = HashMap::new();
        let mut histograms: HashMap<String, HistogramStats> = HashMap::new();
        let mut ops: HashMap<(String, String, String), OpProfileStats> = HashMap::new();

        let (events, malformed_lines) = read_events(lines)?;
        summary.malformed_lines = malformed_lines;
        for event in events {
            summary.events += 1;
            let ts = match &event {
                Event::Meta { .. } => None,
                Event::SpanStart { ts_us, .. }
                | Event::SpanEnd { ts_us, .. }
                | Event::Counter { ts_us, .. }
                | Event::Histogram { ts_us, .. }
                | Event::OpProfile { ts_us, .. }
                | Event::ServeAccess { ts_us, .. } => Some(*ts_us),
            };
            if let Some(ts) = ts {
                first_ts = Some(first_ts.map_or(ts, |f| f.min(ts)));
                last_ts = last_ts.max(ts);
            }
            match event {
                Event::Meta { command, isa } => {
                    summary.command = Some(command);
                    summary.isa = isa;
                }
                Event::SpanStart { id, parent, stage, fields, .. } => {
                    if stage == crate::stage::TRAIN && summary.train_fields.is_empty() {
                        summary.train_fields = fields;
                    }
                    open.insert(id, (stage, parent));
                }
                Event::SpanEnd { id, stage, ts_us, dur_us } => {
                    let (stage, parent) = open.remove(&id).unwrap_or((stage, None));
                    match parent {
                        Some(p) => *child_us.entry(p).or_insert(0) += dur_us,
                        None => top_level.push((ts_us.saturating_sub(dur_us), ts_us)),
                    }
                    closed_by_id.insert(id, closed.len());
                    closed.push((stage, dur_us));
                }
                Event::Counter { name, delta, .. } => {
                    let entry = counters
                        .entry(name.clone())
                        .or_insert(CounterStats { name, count: 0, total: 0.0 });
                    entry.count += 1;
                    entry.total += delta;
                }
                Event::Histogram { name, value, .. } => {
                    let entry = histograms.entry(name.clone()).or_insert(HistogramStats {
                        name,
                        count: 0,
                        total: 0.0,
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                    });
                    entry.count += 1;
                    entry.total += value;
                    entry.min = entry.min.min(value);
                    entry.max = entry.max.max(value);
                }
                Event::OpProfile { kind, phase, shape_class, calls, self_ns, flops, bytes_out, .. } => {
                    let entry = ops
                        .entry((kind.clone(), phase.clone(), shape_class.clone()))
                        .or_insert(OpProfileStats {
                            kind,
                            phase,
                            shape_class,
                            calls: 0,
                            self_ns: 0,
                            flops: 0,
                            bytes_out: 0,
                        });
                    entry.calls += calls;
                    entry.self_ns += self_ns;
                    entry.flops += flops;
                    entry.bytes_out += bytes_out;
                }
                Event::ServeAccess { status, total_us, .. } => {
                    // Access-log lines embedded in a general trace fold
                    // into the existing tables: a per-status counter
                    // plus an end-to-end latency histogram. The full
                    // stage breakdown lives in `magic report --serve`
                    // ([`crate::serve_report::ServeLogSummary`]).
                    let name = format!("serve.access.{status}");
                    let entry = counters
                        .entry(name.clone())
                        .or_insert(CounterStats { name, count: 0, total: 0.0 });
                    entry.count += 1;
                    entry.total += 1.0;
                    let name = "serve.access.total_us".to_string();
                    let entry = histograms.entry(name.clone()).or_insert(HistogramStats {
                        name,
                        count: 0,
                        total: 0.0,
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                    });
                    entry.count += 1;
                    entry.total += total_us as f64;
                    entry.min = entry.min.min(total_us as f64);
                    entry.max = entry.max.max(total_us as f64);
                }
            }
        }

        summary.wall_us = last_ts.saturating_sub(first_ts.unwrap_or(0));
        summary.unclosed_spans = open.len() as u64;
        summary.top_level_us = union_len(&mut top_level);

        let mut stages: HashMap<String, StageStats> = HashMap::new();
        for (id, &(ref stage, dur_us)) in
            closed_by_id.iter().map(|(id, &i)| (id, &closed[i]))
        {
            let children = child_us.get(id).copied().unwrap_or(0);
            let entry = stages.entry(stage.clone()).or_insert(StageStats {
                stage: stage.clone(),
                count: 0,
                total_us: 0,
                self_us: 0,
                min_us: u64::MAX,
                max_us: 0,
            });
            entry.count += 1;
            entry.total_us += dur_us;
            entry.self_us += dur_us.saturating_sub(children);
            entry.min_us = entry.min_us.min(dur_us);
            entry.max_us = entry.max_us.max(dur_us);
        }

        summary.stages = stages.into_values().collect();
        summary.stages.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.stage.cmp(&b.stage)));
        summary.counters = counters.into_values().collect();
        summary.counters.sort_by(|a, b| a.name.cmp(&b.name));
        summary.histograms = histograms.into_values().collect();
        summary.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        summary.ops = ops.into_values().collect();
        summary.ops.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then(a.kind.cmp(&b.kind))
                .then(a.phase.cmp(&b.phase))
                .then(a.shape_class.cmp(&b.shape_class))
        });
        Ok(summary)
    }

    /// Sum of self time over all op-profile rows, nanoseconds.
    pub fn ops_total_self_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.self_ns).sum()
    }

    /// Fraction of wall-clock covered by top-level spans, in `[0, 1]` —
    /// the acceptance metric for "the trace explains where time went".
    pub fn coverage(&self) -> f64 {
        if self.wall_us == 0 {
            0.0
        } else {
            self.top_level_us as f64 / self.wall_us as f64
        }
    }

    /// Renders the human-readable aggregation table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(command) = &self.command {
            match &self.isa {
                Some(isa) => out.push_str(&format!("trace of: {command} (isa: {isa})\n")),
                None => out.push_str(&format!("trace of: {command}\n")),
            }
        }
        out.push_str(&format!(
            "{} events · wall {} · top-level span coverage {:.1}%\n",
            self.events,
            fmt_us(self.wall_us),
            self.coverage() * 100.0
        ));
        if self.unclosed_spans > 0 {
            out.push_str(&format!("warning: {} span(s) never closed\n", self.unclosed_spans));
        }
        if self.malformed_lines > 0 {
            out.push_str(&format!(
                "warning: {} malformed/unknown line(s) skipped\n",
                self.malformed_lines
            ));
        }

        if !self.stages.is_empty() {
            out.push_str(&format!(
                "\n{:<28} {:>7} {:>10} {:>10} {:>10} {:>7}\n",
                "SPAN STAGE", "count", "total", "mean", "self", "%wall"
            ));
            for s in &self.stages {
                let mean = s.total_us / s.count.max(1);
                let pct = if self.wall_us == 0 {
                    0.0
                } else {
                    100.0 * s.total_us as f64 / self.wall_us as f64
                };
                out.push_str(&format!(
                    "{:<28} {:>7} {:>10} {:>10} {:>10} {:>7.1}\n",
                    s.stage,
                    s.count,
                    fmt_us(s.total_us),
                    fmt_us(mean),
                    fmt_us(s.self_us),
                    pct
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<28} {:>14} {:>7}\n", "COUNTER", "total", "events"));
            for c in &self.counters {
                out.push_str(&format!("{:<28} {:>14} {:>7}\n", c.name, c.total, c.count));
            }
        }

        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "\n{:<28} {:>7} {:>12} {:>12} {:>12}\n",
                "HISTOGRAM", "count", "mean", "min", "max"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<28} {:>7} {:>12.1} {:>12.1} {:>12.1}\n",
                    h.name,
                    h.count,
                    h.total / h.count.max(1) as f64,
                    h.min,
                    h.max
                ));
            }
        }

        if !self.ops.is_empty() {
            out.push('\n');
            out.push_str(&self.render_ops());
        }
        out
    }

    /// Renders the per-op profile table (schema v2 `op_profile` rows):
    /// self time, share of total op self time, call count, achieved
    /// FLOP/s, and output bytes, largest self time first.
    pub fn render_ops(&self) -> String {
        let mut out = String::new();
        let total_ns = self.ops_total_self_ns();
        out.push_str(&format!(
            "{:<22} {:>5} {:>8} {:>9} {:>6} {:>10} {:>10} {:>10}\n",
            "OP", "phase", "shape", "calls", "self%", "self", "flop/s", "bytes"
        ));
        for o in &self.ops {
            let pct = if total_ns == 0 {
                0.0
            } else {
                100.0 * o.self_ns as f64 / total_ns as f64
            };
            let flops_per_s = if o.self_ns == 0 {
                0.0
            } else {
                o.flops as f64 / (o.self_ns as f64 / 1e9)
            };
            out.push_str(&format!(
                "{:<22} {:>5} {:>8} {:>9} {:>6.1} {:>10} {:>10} {:>10}\n",
                o.kind,
                o.phase,
                o.shape_class,
                o.calls,
                pct,
                fmt_us(o.self_ns / 1_000),
                fmt_rate(flops_per_s),
                fmt_bytes(o.bytes_out),
            ));
        }
        out
    }
}

/// Total length of the union of `[start, end]` intervals (sorts them).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut covered_to = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(covered_to);
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total
}

/// Formats a byte quantity at a human scale (`1.5GiB`, `32KiB`, …).
fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= (1u64 << 30) as f64 {
        format!("{:.2}GiB", b / (1u64 << 30) as f64)
    } else if b >= (1u64 << 20) as f64 {
        format!("{:.1}MiB", b / (1u64 << 20) as f64)
    } else if b >= 1024.0 {
        format!("{:.1}KiB", b / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

/// Formats an ops-per-second rate at a human scale (`1.2G`, `340M`, …).
fn fmt_rate(per_s: f64) -> String {
    if per_s >= 1e9 {
        format!("{:.2}G", per_s / 1e9)
    } else if per_s >= 1e6 {
        format!("{:.1}M", per_s / 1e6)
    } else if per_s >= 1e3 {
        format!("{:.1}K", per_s / 1e3)
    } else {
        format!("{per_s:.0}")
    }
}

/// Formats a microsecond quantity at a human scale.
fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(events: &[Event]) -> String {
        events.iter().map(|e| e.to_jsonl_line() + "\n").collect()
    }

    fn sample_trace() -> String {
        lines_of(&[
            Event::Meta { command: "magic train --corpus mskcfg".into(), isa: None },
            Event::SpanStart {
                id: 1,
                parent: None,
                stage: "train.run".into(),
                ts_us: 0,
                fields: vec![],
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                stage: "train.epoch".into(),
                ts_us: 10,
                fields: vec![("epoch".into(), 0.0)],
            },
            Event::SpanEnd { id: 2, stage: "train.epoch".into(), ts_us: 60, dur_us: 50 },
            Event::SpanStart {
                id: 3,
                parent: Some(1),
                stage: "train.epoch".into(),
                ts_us: 60,
                fields: vec![("epoch".into(), 1.0)],
            },
            Event::SpanEnd { id: 3, stage: "train.epoch".into(), ts_us: 90, dur_us: 30 },
            Event::SpanEnd { id: 1, stage: "train.run".into(), ts_us: 100, dur_us: 100 },
            Event::Counter { name: "train.samples".into(), ts_us: 60, delta: 16.0 },
            Event::Counter { name: "train.samples".into(), ts_us: 90, delta: 16.0 },
            Event::Histogram {
                name: "train.worker_busy_us".into(),
                ts_us: 60,
                value: 40.0,
                fields: vec![("worker".into(), 0.0)],
            },
            Event::Histogram {
                name: "train.worker_busy_us".into(),
                ts_us: 60,
                value: 20.0,
                fields: vec![("worker".into(), 1.0)],
            },
        ])
    }

    #[test]
    fn header_names_the_isa_when_the_meta_event_has_one() {
        let with = lines_of(&[Event::Meta { command: "magic train".into(), isa: Some("avx2".into()) }]);
        let summary = TraceSummary::from_lines(with.lines()).unwrap();
        assert!(summary.render().starts_with("trace of: magic train (isa: avx2)\n"));
        // A trace from before the field existed still reads, without it.
        let summary = TraceSummary::from_lines(sample_trace().lines()).unwrap();
        assert_eq!(summary.isa, None);
        assert!(summary.render().starts_with("trace of: magic train --corpus mskcfg\n"));
    }

    #[test]
    fn aggregates_stages_counters_and_histograms() {
        let summary = TraceSummary::from_lines(sample_trace().lines()).unwrap();
        assert_eq!(summary.events, 11);
        assert_eq!(summary.wall_us, 100);
        assert_eq!(summary.top_level_us, 100);
        assert!((summary.coverage() - 1.0).abs() < 1e-9);
        assert_eq!(summary.unclosed_spans, 0);
        assert_eq!(summary.command.as_deref(), Some("magic train --corpus mskcfg"));

        let run = summary.stages.iter().find(|s| s.stage == "train.run").unwrap();
        assert_eq!((run.count, run.total_us), (1, 100));
        // 100us total minus 50+30 in child epochs = 20us self time.
        assert_eq!(run.self_us, 20);
        let epoch = summary.stages.iter().find(|s| s.stage == "train.epoch").unwrap();
        assert_eq!((epoch.count, epoch.total_us, epoch.min_us, epoch.max_us), (2, 80, 30, 50));
        assert_eq!(epoch.self_us, 80);

        let samples = &summary.counters[0];
        assert_eq!((samples.name.as_str(), samples.count, samples.total), ("train.samples", 2, 32.0));
        let busy = &summary.histograms[0];
        assert_eq!((busy.count, busy.total, busy.min, busy.max), (2, 60.0, 20.0, 40.0));
    }

    #[test]
    fn coverage_counts_overlapping_top_level_spans_once() {
        // Spans opened on worker lanes have no parent and overlap the
        // top-level span that fanned them out: [0, 80] holds [10, 60]
        // and [20, 70]. With [90, 100] that covers 90 of 100 µs; a sum
        // of durations would claim 190.
        let span = |id: u64, stage: &str, start: u64, end: u64| {
            let (stage, fields) = (stage.to_string(), vec![]);
            [
                Event::SpanStart { id, parent: None, stage: stage.clone(), ts_us: start, fields },
                Event::SpanEnd { id, stage, ts_us: end, dur_us: end - start },
            ]
        };
        let events: Vec<Event> = [
            span(1, "corpus.extract", 0, 80),
            span(2, "pipeline.extract_acfg", 10, 60),
            span(3, "pipeline.extract_acfg", 20, 70),
            span(4, "train.run", 90, 100),
        ]
        .into_iter()
        .flatten()
        .collect();
        let summary = TraceSummary::from_lines(lines_of(&events).lines()).unwrap();
        assert_eq!((summary.wall_us, summary.top_level_us), (100, 90));
        assert!(summary.render().contains("top-level span coverage 90.0%"));
        let extract = summary.stages.iter().find(|s| s.stage == "pipeline.extract_acfg").unwrap();
        assert_eq!((extract.count, extract.total_us), (2, 100), "stage totals still sum");
    }

    #[test]
    fn stages_sort_by_total_descending() {
        let summary = TraceSummary::from_lines(sample_trace().lines()).unwrap();
        assert_eq!(summary.stages[0].stage, "train.run");
        assert_eq!(summary.stages[1].stage, "train.epoch");
    }

    #[test]
    fn render_mentions_every_section() {
        let summary = TraceSummary::from_lines(sample_trace().lines()).unwrap();
        let table = summary.render();
        assert!(table.contains("SPAN STAGE"));
        assert!(table.contains("train.epoch"));
        assert!(table.contains("COUNTER"));
        assert!(table.contains("HISTOGRAM"));
        assert!(table.contains("coverage 100.0%"));
        assert!(!table.contains("warning"));
    }

    #[test]
    fn unclosed_spans_are_counted_not_fatal() {
        let text = lines_of(&[Event::SpanStart {
            id: 1,
            parent: None,
            stage: "train.run".into(),
            ts_us: 0,
            fields: vec![],
        }]);
        let summary = TraceSummary::from_lines(text.lines()).unwrap();
        assert_eq!(summary.unclosed_spans, 1);
        assert!(summary.render().contains("warning: 1 span(s) never closed"));
    }

    #[test]
    fn malformed_mid_file_lines_are_reported_with_their_number() {
        // An invalid-JSON line that is NOT the last non-blank line is a
        // hard error, reported with its 1-based line number.
        let err = TraceSummary::from_lines("\nnot json\n{\"v\":1,\"t\":\"counter\",\"name\":\"x\",\"ts_us\":1,\"delta\":1}\n".lines())
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // So is an unsupported schema version, anywhere.
        let err = TraceSummary::from_lines(
            "{\"v\":99,\"t\":\"meta\"}\n{\"v\":1,\"t\":\"counter\",\"name\":\"x\",\"ts_us\":1,\"delta\":1}\n"
                .lines(),
        )
        .unwrap_err();
        assert!(err.contains("unsupported schema version"), "{err}");
    }

    #[test]
    fn truncated_final_line_is_skipped_and_counted() {
        // A killed run truncates the last line mid-write; the rest of
        // the trace must still aggregate.
        let mut text = sample_trace();
        text.push_str("{\"v\":2,\"t\":\"span_en"); // no trailing newline either
        let summary = TraceSummary::from_lines(text.lines()).unwrap();
        assert_eq!(summary.malformed_lines, 1);
        assert_eq!(summary.events, 11, "all intact events still counted");
        assert_eq!(summary.wall_us, 100);
        assert!(summary.render().contains("1 malformed/unknown line(s) skipped"));
    }

    #[test]
    fn unknown_event_types_are_skipped_anywhere() {
        // A newer writer may add event types; readers skip + count them
        // even mid-file.
        let mut lines = sample_trace();
        let tail = lines.split_off(lines.find('\n').unwrap() + 1);
        lines.push_str("{\"v\":2,\"t\":\"from_the_future\",\"ts_us\":5}\n");
        lines.push_str(&tail);
        let summary = TraceSummary::from_lines(lines.lines()).unwrap();
        assert_eq!(summary.malformed_lines, 1);
        assert_eq!(summary.events, 11);
    }

    #[test]
    fn op_profile_rows_aggregate_and_render() {
        let text = lines_of(&[
            Event::OpProfile {
                kind: "matmul".into(),
                phase: "fwd".into(),
                shape_class: "≤4Ki".into(),
                ts_us: 1,
                calls: 10,
                self_ns: 30_000,
                flops: 600_000,
                bytes_out: 4_096,
                fields: vec![("epoch".into(), 0.0)],
            },
            Event::OpProfile {
                kind: "matmul".into(),
                phase: "fwd".into(),
                shape_class: "≤4Ki".into(),
                ts_us: 2,
                calls: 10,
                self_ns: 30_000,
                flops: 600_000,
                bytes_out: 4_096,
                fields: vec![("epoch".into(), 1.0)],
            },
            Event::OpProfile {
                kind: "relu".into(),
                phase: "bwd".into(),
                shape_class: "≤1Ki".into(),
                ts_us: 2,
                calls: 10,
                self_ns: 10_000,
                flops: 10_240,
                bytes_out: 1_024,
                fields: vec![],
            },
        ]);
        let summary = TraceSummary::from_lines(text.lines()).unwrap();
        assert_eq!(summary.ops.len(), 2, "same key rows merged across epochs");
        assert_eq!(summary.ops[0].kind, "matmul", "largest self time first");
        assert_eq!(summary.ops[0].calls, 20);
        assert_eq!(summary.ops[0].self_ns, 60_000);
        assert_eq!(summary.ops_total_self_ns(), 70_000);

        let table = summary.render();
        assert!(table.contains("OP"), "{table}");
        assert!(table.contains("matmul"));
        let ops_table = summary.render_ops();
        assert!(ops_table.contains("85.7"), "matmul share of self time: {ops_table}");
    }

    #[test]
    fn empty_trace_is_an_empty_summary() {
        let summary = TraceSummary::from_lines("".lines()).unwrap();
        assert_eq!(summary.events, 0);
        assert_eq!(summary.coverage(), 0.0);
    }

    #[test]
    fn fmt_us_picks_readable_units() {
        assert_eq!(fmt_us(950), "950us");
        assert_eq!(fmt_us(25_000), "25.0ms");
        assert_eq!(fmt_us(12_340_000), "12.34s");
    }

    #[test]
    fn fmt_bytes_picks_readable_units() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4_096), "4.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00GiB");
    }
}
