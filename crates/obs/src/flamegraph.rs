//! Collapsed-stack export: turn a trace into the `stack;stack;frame N`
//! line format consumed by standard flamegraph tooling (Brendan Gregg's
//! `flamegraph.pl`, inferno, speedscope).
//!
//! Each output line is a semicolon-joined path of frames and a sample
//! value in **microseconds**. Span nesting gives the path: a span's
//! frame is its stage name, with `train.epoch` frames disambiguated per
//! epoch (`train.epoch#3`) so epochs appear side by side. Schema v2
//! `op_profile` events become leaf frames `<phase>.<kind>` (e.g.
//! `fwd.matmul`) under the epoch they were flushed in, and their self
//! time is deducted from that epoch's own frame so nothing is counted
//! twice.
//!
//! Lines are merged by path and emitted in lexicographic order, so the
//! output is deterministic and diff-friendly.

use crate::event::{read_events, Event};
use crate::stage;
use std::collections::HashMap;

/// One open span while streaming the trace.
struct OpenSpan {
    path: String,
    stage: String,
    parent: Option<u64>,
    /// Epoch annotation, for attaching `op_profile` events.
    epoch: Option<f64>,
    /// Summed duration of already-closed direct children, µs.
    child_us: u64,
    /// Op self time already attributed to leaf frames under this span, µs.
    op_us: u64,
}

/// Builds collapsed-stack lines from parsed trace events.
///
/// Returns merged `path value_us` lines sorted lexicographically by
/// path. Zero-valued frames are dropped. Spans closed without a
/// matching start (possible in a truncated trace) become top-level
/// frames.
pub fn collapsed_from_events(events: impl Iterator<Item = Event>) -> Vec<String> {
    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    let mut weights: HashMap<String, u64> = HashMap::new();

    for event in events {
        match event {
            Event::SpanStart { id, parent, stage, fields, .. } => {
                let epoch = fields.iter().find(|(k, _)| k == "epoch").map(|(_, v)| *v);
                let frame = match epoch {
                    Some(e) if stage == stage::TRAIN_EPOCH => format!("{stage}#{e}"),
                    _ => stage.clone(),
                };
                let path = match parent.and_then(|p| open.get(&p)) {
                    Some(enclosing) => format!("{};{frame}", enclosing.path),
                    None => frame,
                };
                open.insert(id, OpenSpan { path, stage, parent, epoch, child_us: 0, op_us: 0 });
            }
            Event::SpanEnd { id, stage, dur_us, .. } => {
                let span = open.remove(&id).unwrap_or(OpenSpan {
                    path: stage.clone(),
                    stage,
                    parent: None,
                    epoch: None,
                    child_us: 0,
                    op_us: 0,
                });
                if let Some(parent) = span.parent.and_then(|p| open.get_mut(&p)) {
                    parent.child_us += dur_us;
                }
                let self_us = dur_us.saturating_sub(span.child_us).saturating_sub(span.op_us);
                *weights.entry(span.path).or_insert(0) += self_us;
            }
            Event::OpProfile { kind, phase, self_ns, fields, .. } => {
                // The evaluate pseudo-op mirrors the train.evaluate
                // span; keeping both would count that time twice.
                if kind == stage::OP_HOST_EVALUATE {
                    continue;
                }
                let epoch = fields.iter().find(|(k, _)| k == "epoch").map(|(_, v)| *v);
                // Attach to the open train.epoch span this row was
                // flushed for (matching epoch field), falling back to
                // any open epoch, then to a top-level frame.
                let host = open
                    .values_mut()
                    .filter(|s| s.stage == stage::TRAIN_EPOCH)
                    .filter(|s| epoch.is_none() || s.epoch == epoch)
                    .map(|s| &mut *s)
                    .next();
                let us = self_ns / 1_000;
                let path = match host {
                    Some(span) => {
                        span.op_us += us;
                        format!("{};{phase}.{kind}", span.path)
                    }
                    None => format!("{phase}.{kind}"),
                };
                *weights.entry(path).or_insert(0) += us;
            }
            Event::Meta { .. }
            | Event::Counter { .. }
            | Event::Histogram { .. }
            | Event::ServeAccess { .. } => {}
        }
    }

    let mut lines: Vec<String> = weights
        .into_iter()
        .filter(|(_, us)| *us > 0)
        .map(|(path, us)| format!("{path} {us}"))
        .collect();
    lines.sort();
    lines
}

/// Builds collapsed-stack lines straight from JSONL trace lines, read
/// with [`read_events`]' damage tolerance: unknown event types are
/// skipped anywhere, and an unparseable final line is skipped (the
/// truncated tail of a killed run).
///
/// # Errors
///
/// Returns `"line N: <why>"` for any other malformed line.
pub fn collapsed_from_lines<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<String>, String> {
    let (events, _) = read_events(lines)?;
    Ok(collapsed_from_events(events.into_iter()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_start(id: u64, parent: Option<u64>, stage: &str, fields: Vec<(String, f64)>) -> Event {
        Event::SpanStart { id, parent, stage: stage.into(), ts_us: 0, fields }
    }

    fn span_end(id: u64, stage: &str, dur_us: u64) -> Event {
        Event::SpanEnd { id, stage: stage.into(), ts_us: 0, dur_us }
    }

    fn op(kind: &str, phase: &str, self_ns: u64, epoch: f64) -> Event {
        Event::OpProfile {
            kind: kind.into(),
            phase: phase.into(),
            shape_class: "≤1Ki".into(),
            ts_us: 0,
            calls: 1,
            self_ns,
            flops: 0,
            bytes_out: 0,
            fields: vec![("epoch".into(), epoch)],
        }
    }

    #[test]
    fn output_is_sorted_merged_and_epoch_disambiguated() {
        // train.run > two epochs; ops flushed inside each epoch. The op
        // events arrive *before* their epoch's span_end, as the trainer
        // emits them.
        let events = vec![
            span_start(1, None, "train.run", vec![]),
            span_start(2, Some(1), "train.epoch", vec![("epoch".into(), 0.0)]),
            op("matmul", "fwd", 40_000, 0.0),
            op("relu", "bwd", 10_000, 0.0),
            span_end(2, "train.epoch", 100),
            span_start(3, Some(1), "train.epoch", vec![("epoch".into(), 1.0)]),
            op("matmul", "fwd", 30_000, 1.0),
            op("matmul", "fwd", 30_000, 1.0), // merged with the line above
            span_end(3, "train.epoch", 80),
            span_end(1, "train.run", 200),
        ];
        let lines = collapsed_from_events(events.into_iter());
        assert_eq!(
            lines,
            vec![
                // 100 - 40 - 10 = 50 self for epoch 0; 80 - 60 = 20 for epoch 1;
                // 200 - 100 - 80 = 20 self for the run.
                "train.run 20",
                "train.run;train.epoch#0 50",
                "train.run;train.epoch#0;bwd.relu 10",
                "train.run;train.epoch#0;fwd.matmul 40",
                "train.run;train.epoch#1 20",
                "train.run;train.epoch#1;fwd.matmul 60",
            ]
        );
        // Lexicographic order is part of the contract.
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn orphan_ops_and_ends_become_top_level_frames() {
        let events = vec![
            op("matmul", "fwd", 5_000, 0.0),
            span_end(9, "asm.parse", 7),
        ];
        let lines = collapsed_from_events(events.into_iter());
        assert_eq!(lines, vec!["asm.parse 7", "fwd.matmul 5"]);
    }

    #[test]
    fn evaluate_pseudo_op_is_skipped_in_favor_of_its_span() {
        let events = vec![
            span_start(1, None, "train.epoch", vec![("epoch".into(), 0.0)]),
            span_start(2, Some(1), "train.evaluate", vec![]),
            span_end(2, "train.evaluate", 30),
            op(stage::OP_HOST_EVALUATE, "host", 30_000, 0.0),
            span_end(1, "train.epoch", 100),
        ];
        let lines = collapsed_from_events(events.into_iter());
        assert_eq!(lines, vec!["train.epoch#0 70", "train.epoch#0;train.evaluate 30"]);
    }

    #[test]
    fn zero_weight_frames_are_dropped() {
        let events = vec![
            span_start(1, None, "train.run", vec![]),
            span_start(2, Some(1), "train.evaluate", vec![]),
            span_end(2, "train.evaluate", 50),
            span_end(1, "train.run", 50), // all time in the child
        ];
        let lines = collapsed_from_events(events.into_iter());
        assert_eq!(lines, vec!["train.run;train.evaluate 50"]);
    }

    #[test]
    fn lines_wrapper_applies_trace_tolerance() {
        let text = "{\"v\":2,\"t\":\"span_start\",\"id\":1,\"parent\":null,\"stage\":\"train.run\",\"ts_us\":0}\n\
                    {\"v\":2,\"t\":\"from_the_future\",\"ts_us\":1}\n\
                    {\"v\":2,\"t\":\"span_end\",\"id\":1,\"stage\":\"train.run\",\"ts_us\":9,\"dur_us\":9}\n\
                    {\"v\":2,\"t\":\"span_en";
        let lines = collapsed_from_lines(text.lines()).unwrap();
        assert_eq!(lines, vec!["train.run 9"]);
        assert!(collapsed_from_lines("nope\n{\"v\":1,\"t\":\"meta\"}".lines()).is_err());
    }
}
