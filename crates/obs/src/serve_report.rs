//! Offline aggregation of `magic serve` access logs: fold the
//! [`Event::ServeAccess`] JSONL stream written by `--access-log` into
//! per-status counts, a stage-latency breakdown table, and a
//! slowest-requests table — the `magic report --serve <access.jsonl>`
//! backend.
//!
//! Unlike the live `/metrics` window (approximate quantiles from the
//! log-linear histogram), this reader holds every sample, so the
//! percentiles here are exact nearest-rank statistics — the offline
//! ground truth to reconcile live telemetry against.

use crate::event::{read_events, Event};

/// Exact percentile statistics over one lifecycle stage.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name (`parse`, `extract`, `queue`, `execute`, `write`,
    /// `total`).
    pub stage: &'static str,
    /// Samples aggregated (one per 200 predict response).
    pub count: u64,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Exact median, µs.
    pub p50_us: u64,
    /// Exact 90th percentile, µs.
    pub p90_us: u64,
    /// Exact 99th percentile, µs.
    pub p99_us: u64,
    /// Largest observed duration, µs.
    pub max_us: u64,
}

/// One row of the slowest-requests table.
#[derive(Debug, Clone)]
pub struct SlowRow {
    /// Request id from the access log.
    pub id: u64,
    /// HTTP status.
    pub status: u16,
    /// Batch size that carried the forward pass.
    pub batch: u64,
    /// End-to-end duration, µs.
    pub total_us: u64,
    /// Queue-wait share of the total, µs.
    pub queue_us: u64,
    /// Execute share of the total, µs.
    pub execute_us: u64,
    /// Predicted family, when the request got one.
    pub family: Option<String>,
}

/// Aggregated view of one access-log file.
#[derive(Debug, Clone, Default)]
pub struct ServeLogSummary {
    /// Access events aggregated.
    pub requests: u64,
    /// `(status, count)` pairs, ascending by status.
    pub statuses: Vec<(u16, u64)>,
    /// Stage-latency breakdown over 200 `/v1/predict` responses.
    pub stages: Vec<StageRow>,
    /// The slowest requests by `total_us`, descending (up to 10).
    pub slowest: Vec<SlowRow>,
    /// Total request bytes read.
    pub bytes_in: u64,
    /// Total response bytes written.
    pub bytes_out: u64,
    /// Non-access events in the stream (a mixed `--trace` file is
    /// fine; they are counted and skipped).
    pub other_events: u64,
    /// Unknown-event or truncated-tail lines skipped.
    pub malformed_lines: u64,
}

/// Exact nearest-rank percentile of a sorted sample vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn stage_row(stage: &'static str, mut samples: Vec<u64>) -> StageRow {
    samples.sort_unstable();
    let count = samples.len() as u64;
    let mean_us = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    };
    StageRow {
        stage,
        count,
        mean_us,
        p50_us: percentile(&samples, 0.50),
        p90_us: percentile(&samples, 0.90),
        p99_us: percentile(&samples, 0.99),
        max_us: samples.last().copied().unwrap_or(0),
    }
}

impl ServeLogSummary {
    /// Folds access-log JSONL lines into a summary.
    ///
    /// Mirrors [`crate::report::TraceSummary`]'s tolerance rules: an
    /// unknown event type on an accepted schema version is skipped and
    /// counted, a malformed *final* line (a crash mid-write) is
    /// tolerated, and any earlier malformed line is a hard error with
    /// its line number.
    ///
    /// # Errors
    ///
    /// Returns the first hard decode error, prefixed `line N:`.
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Self, String> {
        let (events, malformed_lines) = read_events(lines)?;
        let mut summary = ServeLogSummary { malformed_lines, ..ServeLogSummary::default() };
        let mut statuses: Vec<(u16, u64)> = Vec::new();
        let mut parse = Vec::new();
        let mut extract = Vec::new();
        let mut queue = Vec::new();
        let mut execute = Vec::new();
        let mut write = Vec::new();
        let mut total = Vec::new();
        let mut slow: Vec<SlowRow> = Vec::new();

        for event in events {
            let Event::ServeAccess {
                id,
                status,
                path,
                batch,
                bytes_in,
                bytes_out,
                parse_us,
                extract_us,
                queue_us,
                execute_us,
                write_us,
                total_us,
                family,
                ..
            } = event
            else {
                summary.other_events += 1;
                continue;
            };
            summary.requests += 1;
            summary.bytes_in += bytes_in;
            summary.bytes_out += bytes_out;
            match statuses.iter_mut().find(|(s, _)| *s == status) {
                Some((_, n)) => *n += 1,
                None => statuses.push((status, 1)),
            }
            if status == 200 && path == "/v1/predict" {
                parse.push(parse_us);
                extract.push(extract_us);
                queue.push(queue_us);
                execute.push(execute_us);
                write.push(write_us);
                total.push(total_us);
            }
            slow.push(SlowRow { id, status, batch, total_us, queue_us, execute_us, family });
        }

        statuses.sort_unstable_by_key(|&(s, _)| s);
        summary.statuses = statuses;
        summary.stages = vec![
            stage_row("parse", parse),
            stage_row("extract", extract),
            stage_row("queue", queue),
            stage_row("execute", execute),
            stage_row("write", write),
            stage_row("total", total),
        ];
        slow.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.id.cmp(&b.id)));
        slow.truncate(10);
        summary.slowest = slow;
        Ok(summary)
    }

    /// Renders the human-readable breakdown tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "access log: {} request(s), {} bytes in, {} bytes out\n",
            self.requests, self.bytes_in, self.bytes_out
        ));
        if self.other_events > 0 {
            out.push_str(&format!("  ({} non-access event(s) skipped)\n", self.other_events));
        }
        if self.malformed_lines > 0 {
            out.push_str(&format!("  ({} malformed line(s) skipped)\n", self.malformed_lines));
        }

        out.push_str("\nSTATUS       count\n");
        for &(status, count) in &self.statuses {
            out.push_str(&format!("{status:<10} {count:>7}\n"));
        }

        out.push_str(
            "\nSTAGE (200 /v1/predict)   count     mean_us      p50_us      p90_us      \
             p99_us      max_us\n",
        );
        for row in &self.stages {
            out.push_str(&format!(
                "{:<24} {:>7} {:>11.1} {:>11} {:>11} {:>11} {:>11}\n",
                row.stage, row.count, row.mean_us, row.p50_us, row.p90_us, row.p99_us, row.max_us
            ));
        }

        if !self.slowest.is_empty() {
            out.push_str(
                "\nSLOWEST REQUESTS          id  status  batch    total_us    queue_us  \
                 execute_us  family\n",
            );
            for row in &self.slowest {
                out.push_str(&format!(
                    "{:>28} {:>7} {:>6} {:>11} {:>11} {:>11}  {}\n",
                    row.id,
                    row.status,
                    row.batch,
                    row.total_us,
                    row.queue_us,
                    row.execute_us,
                    row.family.as_deref().unwrap_or("-")
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(id: u64, status: u16, total_us: u64, queue_us: u64) -> Event {
        Event::ServeAccess {
            id,
            ts_us: id * 100,
            status,
            path: "/v1/predict".into(),
            batch: 2,
            bytes_in: 100,
            bytes_out: 50,
            parse_us: 10,
            extract_us: 20,
            queue_us,
            execute_us: 30,
            write_us: 5,
            total_us,
            family: if status == 200 { Some("Family0".into()) } else { None },
        }
    }

    fn lines_of(events: &[Event]) -> String {
        events.iter().map(|e| e.to_jsonl_line() + "\n").collect()
    }

    #[test]
    fn aggregates_statuses_stages_and_slowest() {
        let text = lines_of(&[
            access(1, 200, 1_000, 100),
            access(2, 200, 3_000, 900),
            access(3, 400, 50, 0),
            access(4, 200, 2_000, 400),
        ]);
        let summary = ServeLogSummary::from_lines(text.lines()).unwrap();
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.statuses, vec![(200, 3), (400, 1)]);
        let total = summary.stages.iter().find(|r| r.stage == "total").unwrap();
        assert_eq!(total.count, 3); // the 400 is excluded from the breakdown
        assert_eq!(total.p50_us, 2_000);
        assert_eq!(total.max_us, 3_000);
        assert_eq!(summary.slowest[0].id, 2);
        assert_eq!(summary.slowest[0].total_us, 3_000);
        let rendered = summary.render();
        assert!(rendered.contains("access log: 4 request(s)"));
        assert!(rendered.contains("execute"));
        assert!(rendered.contains("Family0"));
    }

    #[test]
    fn non_access_events_are_counted_and_skipped() {
        let text = lines_of(&[
            Event::Meta { command: "magic serve".into(), isa: None },
            access(1, 200, 500, 10),
        ]);
        let summary = ServeLogSummary::from_lines(text.lines()).unwrap();
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.other_events, 1);
    }

    #[test]
    fn truncated_final_line_is_tolerated_but_earlier_garbage_is_fatal() {
        let mut text = lines_of(&[access(1, 200, 500, 10)]);
        text.push_str("{\"v\":3,\"t\":\"serve_ac"); // crash mid-write
        let summary = ServeLogSummary::from_lines(text.lines()).unwrap();
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.malformed_lines, 1);

        let bad = format!("not json\n{}", lines_of(&[access(1, 200, 500, 10)]));
        let err = ServeLogSummary::from_lines(bad.lines()).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn empty_log_renders_without_panicking() {
        let summary = ServeLogSummary::from_lines("".lines()).unwrap();
        assert_eq!(summary.requests, 0);
        assert!(summary.render().contains("access log: 0 request(s)"));
    }
}
