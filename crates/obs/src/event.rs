//! Trace events and their JSONL encoding — the versioned wire format.
//!
//! Every event serializes to exactly one JSON line. The field layout is a
//! public contract, documented in `docs/OBSERVABILITY.md` and versioned
//! through [`SCHEMA_VERSION`]: readers must ignore unknown fields and
//! reject unknown major versions.

use magic_json::{Map, Value};

/// Version stamp written into every event line (the `"v"` field).
///
/// Version 2 added the [`Event::OpProfile`] event; version 3 added the
/// [`Event::ServeAccess`] access-log event. Every older event is
/// unchanged across bumps, so readers accept all versions back to
/// [`MIN_SCHEMA_VERSION`].
pub const SCHEMA_VERSION: u64 = 3;

/// Oldest schema version readers still accept.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Schema identifier written into the stream's `meta` header event.
pub const SCHEMA_NAME: &str = "magic-trace/3";

/// One structured telemetry event.
///
/// Timestamps (`ts_us`) are microseconds since the trace epoch — the
/// instant the first recorder of the process was installed — so event
/// times are directly comparable within one trace file. Durations
/// (`dur_us`) are measured with a monotonic clock.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Stream header, written once when a recorder is installed.
    Meta {
        /// The command line (or free-form description) that produced the
        /// trace.
        command: String,
        /// The kernel instance (`magic_tensor::simd::Isa` name, e.g.
        /// `avx2`) the producing process ran. Absent from traces written
        /// before the field existed.
        isa: Option<String>,
    },
    /// A span opened: a named stage of the pipeline began.
    SpanStart {
        /// Process-unique span id.
        id: u64,
        /// Id of the enclosing span on the *same thread*, if any. Spans
        /// opened on worker threads have no parent.
        parent: Option<u64>,
        /// Stage name from the registry in [`crate::stage`].
        stage: String,
        /// Microseconds since the trace epoch.
        ts_us: u64,
        /// Small numeric annotations (epoch index, sample count, …).
        fields: Vec<(String, f64)>,
    },
    /// A span closed.
    SpanEnd {
        /// Id of the matching [`Event::SpanStart`].
        id: u64,
        /// Stage name, repeated so single lines aggregate without a join.
        stage: String,
        /// Microseconds since the trace epoch.
        ts_us: u64,
        /// Monotonic-elapsed duration of the span in microseconds.
        dur_us: u64,
    },
    /// A monotonically accumulating count (instructions parsed, samples
    /// trained, …). Aggregators sum the deltas.
    Counter {
        /// Counter name from the registry in [`crate::stage`].
        name: String,
        /// Microseconds since the trace epoch.
        ts_us: u64,
        /// Amount to add to the running total.
        delta: f64,
    },
    /// One observation of a distribution (a timing, a size). Aggregators
    /// report count/mean/min/max over the observations.
    Histogram {
        /// Histogram name from the registry in [`crate::stage`].
        name: String,
        /// Microseconds since the trace epoch.
        ts_us: u64,
        /// The observed value (unit is part of the name, e.g. `_us`).
        value: f64,
        /// Small numeric annotations (worker lane, epoch index, …).
        fields: Vec<(String, f64)>,
    },
    /// Aggregated per-op profiling row (schema v2): everything the tape
    /// profiler learned about one `(kind, phase, shape class)` cell since
    /// the previous flush. Flushed by the trainer at epoch boundaries.
    OpProfile {
        /// Stable op kind name from the registry in
        /// `docs/OBSERVABILITY.md` (e.g. `"matmul"`, or a host pseudo-op
        /// like `"grad.reduce"`).
        kind: String,
        /// `"fwd"`, `"bwd"`, or `"host"`.
        phase: String,
        /// Power-of-two output-size bucket label (e.g. `"≤4Ki"`).
        shape_class: String,
        /// Microseconds since the trace epoch, at flush time.
        ts_us: u64,
        /// Op executions aggregated into this row.
        calls: u64,
        /// Summed self time, nanoseconds.
        self_ns: u64,
        /// Summed floating-point operations.
        flops: u64,
        /// Summed output bytes.
        bytes_out: u64,
        /// Small numeric annotations (epoch index, …).
        fields: Vec<(String, f64)>,
    },
    /// One served request's full lifecycle record (schema v3): the
    /// access-log line `magic serve --access-log` emits after the
    /// response bytes are on the wire. Aggregate offline with
    /// `magic report --serve` ([`crate::serve_report`]).
    ServeAccess {
        /// Process-unique request id (also echoed in the predict
        /// response body, so clients can correlate).
        id: u64,
        /// Microseconds since the trace epoch, stamped when the
        /// response write completed.
        ts_us: u64,
        /// HTTP status the request was answered with.
        status: u16,
        /// Request path (`/v1/predict`, `/metrics`, …).
        path: String,
        /// Size of the fused batch that carried the forward pass
        /// (0 when no forward pass ran, e.g. errors or admin routes).
        batch: u64,
        /// Request body bytes read.
        bytes_in: u64,
        /// Response body bytes written.
        bytes_out: u64,
        /// Time reading + decoding the HTTP request and body, µs.
        parse_us: u64,
        /// Time in ACFG extraction (parse → CFG → attributes), µs.
        extract_us: u64,
        /// Time from enqueue until a model worker picked the job, µs.
        queue_us: u64,
        /// Time inside the batched forward pass, µs.
        execute_us: u64,
        /// Time writing the response bytes, µs.
        write_us: u64,
        /// End-to-end accept → response-written duration, µs.
        total_us: u64,
        /// Predicted family, present on 200 predict responses.
        family: Option<String>,
    },
}

fn fields_to_json(fields: &[(String, f64)]) -> Value {
    let mut map = Map::new();
    for (k, v) in fields {
        map.insert(k.clone(), Value::Number(*v));
    }
    Value::Object(map)
}

fn fields_from_json(value: &Value) -> Vec<(String, f64)> {
    match value.as_object() {
        Some(map) => map
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.to_string(), v)))
            .collect(),
        None => Vec::new(),
    }
}

impl Event {
    /// Encodes the event as a JSON [`Value`] following the
    /// `magic-trace/3` schema.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("v", Value::Number(SCHEMA_VERSION as f64));
        match self {
            Event::Meta { command, isa } => {
                map.insert("t", Value::String("meta".into()));
                map.insert("schema", Value::String(SCHEMA_NAME.into()));
                map.insert("command", Value::String(command.clone()));
                if let Some(isa) = isa {
                    map.insert("isa", Value::String(isa.clone()));
                }
            }
            Event::SpanStart { id, parent, stage, ts_us, fields } => {
                map.insert("t", Value::String("span_start".into()));
                map.insert("id", Value::Number(*id as f64));
                map.insert(
                    "parent",
                    parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                );
                map.insert("stage", Value::String(stage.clone()));
                map.insert("ts_us", Value::Number(*ts_us as f64));
                if !fields.is_empty() {
                    map.insert("fields", fields_to_json(fields));
                }
            }
            Event::SpanEnd { id, stage, ts_us, dur_us } => {
                map.insert("t", Value::String("span_end".into()));
                map.insert("id", Value::Number(*id as f64));
                map.insert("stage", Value::String(stage.clone()));
                map.insert("ts_us", Value::Number(*ts_us as f64));
                map.insert("dur_us", Value::Number(*dur_us as f64));
            }
            Event::Counter { name, ts_us, delta } => {
                map.insert("t", Value::String("counter".into()));
                map.insert("name", Value::String(name.clone()));
                map.insert("ts_us", Value::Number(*ts_us as f64));
                map.insert("delta", Value::Number(*delta));
            }
            Event::Histogram { name, ts_us, value, fields } => {
                map.insert("t", Value::String("hist".into()));
                map.insert("name", Value::String(name.clone()));
                map.insert("ts_us", Value::Number(*ts_us as f64));
                map.insert("value", Value::Number(*value));
                if !fields.is_empty() {
                    map.insert("fields", fields_to_json(fields));
                }
            }
            Event::OpProfile {
                kind,
                phase,
                shape_class,
                ts_us,
                calls,
                self_ns,
                flops,
                bytes_out,
                fields,
            } => {
                map.insert("t", Value::String("op_profile".into()));
                map.insert("kind", Value::String(kind.clone()));
                map.insert("phase", Value::String(phase.clone()));
                map.insert("shape_class", Value::String(shape_class.clone()));
                map.insert("ts_us", Value::Number(*ts_us as f64));
                map.insert("calls", Value::Number(*calls as f64));
                map.insert("self_ns", Value::Number(*self_ns as f64));
                map.insert("flops", Value::Number(*flops as f64));
                map.insert("bytes_out", Value::Number(*bytes_out as f64));
                if !fields.is_empty() {
                    map.insert("fields", fields_to_json(fields));
                }
            }
            Event::ServeAccess {
                id,
                ts_us,
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
            } => {
                map.insert("t", Value::String("serve_access".into()));
                map.insert("id", Value::Number(*id as f64));
                map.insert("ts_us", Value::Number(*ts_us as f64));
                map.insert("status", Value::Number(*status as f64));
                map.insert("path", Value::String(path.clone()));
                map.insert("batch", Value::Number(*batch as f64));
                map.insert("bytes_in", Value::Number(*bytes_in as f64));
                map.insert("bytes_out", Value::Number(*bytes_out as f64));
                map.insert("parse_us", Value::Number(*parse_us as f64));
                map.insert("extract_us", Value::Number(*extract_us as f64));
                map.insert("queue_us", Value::Number(*queue_us as f64));
                map.insert("execute_us", Value::Number(*execute_us as f64));
                map.insert("write_us", Value::Number(*write_us as f64));
                map.insert("total_us", Value::Number(*total_us as f64));
                if let Some(family) = family {
                    map.insert("family", Value::String(family.clone()));
                }
            }
        }
        Value::Object(map)
    }

    /// Serializes the event as one compact JSON line (no trailing
    /// newline).
    pub fn to_jsonl_line(&self) -> String {
        magic_json::to_string(&self.to_json())
    }

    /// Decodes an event from its JSON form.
    ///
    /// Unknown fields are ignored (forward compatibility within a major
    /// version); an unknown `"v"` or `"t"` is an error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(value: &Value) -> Result<Event, String> {
        let version = value["v"].as_u64().ok_or("missing schema version \"v\"")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(format!("unsupported schema version {version}"));
        }
        let kind = value["t"].as_str().ok_or("missing event type \"t\"")?;
        let ts_us = || value["ts_us"].as_u64().ok_or("missing ts_us");
        match kind {
            "meta" => Ok(Event::Meta {
                command: value["command"].as_str().unwrap_or_default().to_string(),
                isa: value["isa"].as_str().map(str::to_string),
            }),
            "span_start" => Ok(Event::SpanStart {
                id: value["id"].as_u64().ok_or("missing span id")?,
                parent: value["parent"].as_u64(),
                stage: value["stage"].as_str().ok_or("missing stage")?.to_string(),
                ts_us: ts_us()?,
                fields: fields_from_json(&value["fields"]),
            }),
            "span_end" => Ok(Event::SpanEnd {
                id: value["id"].as_u64().ok_or("missing span id")?,
                stage: value["stage"].as_str().ok_or("missing stage")?.to_string(),
                ts_us: ts_us()?,
                dur_us: value["dur_us"].as_u64().ok_or("missing dur_us")?,
            }),
            "counter" => Ok(Event::Counter {
                name: value["name"].as_str().ok_or("missing name")?.to_string(),
                ts_us: ts_us()?,
                delta: value["delta"].as_f64().ok_or("missing delta")?,
            }),
            "hist" => Ok(Event::Histogram {
                name: value["name"].as_str().ok_or("missing name")?.to_string(),
                ts_us: ts_us()?,
                value: value["value"].as_f64().ok_or("missing value")?,
                fields: fields_from_json(&value["fields"]),
            }),
            "op_profile" => Ok(Event::OpProfile {
                kind: value["kind"].as_str().ok_or("missing kind")?.to_string(),
                phase: value["phase"].as_str().ok_or("missing phase")?.to_string(),
                shape_class: value["shape_class"].as_str().unwrap_or_default().to_string(),
                ts_us: ts_us()?,
                calls: value["calls"].as_u64().ok_or("missing calls")?,
                self_ns: value["self_ns"].as_u64().ok_or("missing self_ns")?,
                flops: value["flops"].as_u64().unwrap_or(0),
                bytes_out: value["bytes_out"].as_u64().unwrap_or(0),
                fields: fields_from_json(&value["fields"]),
            }),
            "serve_access" => Ok(Event::ServeAccess {
                id: value["id"].as_u64().ok_or("missing request id")?,
                ts_us: ts_us()?,
                status: value["status"].as_u64().ok_or("missing status")? as u16,
                path: value["path"].as_str().unwrap_or_default().to_string(),
                batch: value["batch"].as_u64().unwrap_or(0),
                bytes_in: value["bytes_in"].as_u64().unwrap_or(0),
                bytes_out: value["bytes_out"].as_u64().unwrap_or(0),
                parse_us: value["parse_us"].as_u64().unwrap_or(0),
                extract_us: value["extract_us"].as_u64().unwrap_or(0),
                queue_us: value["queue_us"].as_u64().unwrap_or(0),
                execute_us: value["execute_us"].as_u64().unwrap_or(0),
                write_us: value["write_us"].as_u64().unwrap_or(0),
                total_us: value["total_us"].as_u64().ok_or("missing total_us")?,
                family: value["family"].as_str().map(str::to_string),
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }

    /// Parses an event from one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid JSON or a malformed event.
    pub fn from_jsonl_line(line: &str) -> Result<Event, String> {
        let value = magic_json::from_str(line).map_err(|e| e.to_string())?;
        Event::from_json(&value)
    }

    /// Leniently parses one JSONL line for tolerant readers.
    ///
    /// `Ok(None)` means the line is valid JSON carrying an accepted
    /// schema version but an event type this reader does not know — a
    /// *newer minor addition*, safe to skip (and count) rather than
    /// abort on.
    ///
    /// # Errors
    ///
    /// Everything else that [`Event::from_jsonl_line`] rejects: invalid
    /// JSON, an unsupported schema version, or a known event type with
    /// malformed fields.
    pub fn from_jsonl_line_lenient(line: &str) -> Result<Option<Event>, String> {
        let value = magic_json::from_str(line).map_err(|e| e.to_string())?;
        let version = value["v"].as_u64().ok_or("missing schema version \"v\"")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(format!("unsupported schema version {version}"));
        }
        match Event::from_json(&value) {
            Ok(event) => Ok(Some(event)),
            Err(e) if e.starts_with("unknown event type") => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Decodes a JSONL trace or access log with the damage tolerance every
/// reader shares: blank lines are ignored, an event type this reader
/// does not know is skipped anywhere (a newer writer's addition), and an
/// undecodable final line is skipped (the truncated tail of a killed
/// run). Returns the events in order and the number of skipped lines.
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first other malformed line —
/// including any line with an unsupported schema version, which signals
/// a reader too old for the whole file.
pub fn read_events<'a>(lines: impl Iterator<Item = &'a str>) -> Result<(Vec<Event>, u64), String> {
    let numbered: Vec<(usize, &str)> =
        lines.enumerate().filter(|(_, line)| !line.trim().is_empty()).collect();
    let last = numbered.len().saturating_sub(1);
    let mut events = Vec::with_capacity(numbered.len());
    let mut malformed = 0;
    for (pos, &(lineno, line)) in numbered.iter().enumerate() {
        match Event::from_jsonl_line_lenient(line) {
            Ok(Some(event)) => events.push(event),
            Ok(None) => malformed += 1,
            Err(_) if pos == last => malformed += 1,
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok((events, malformed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: Event) {
        let line = event.to_jsonl_line();
        assert!(!line.contains('\n'), "one event per line: {line:?}");
        let back = Event::from_jsonl_line(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn every_event_kind_roundtrips_through_magic_json() {
        roundtrip(Event::Meta { command: "magic train --corpus mskcfg".into(), isa: None });
        roundtrip(Event::Meta { command: "magic train".into(), isa: Some("avx2".into()) });
        roundtrip(Event::SpanStart {
            id: 3,
            parent: Some(1),
            stage: "train.epoch".into(),
            ts_us: 1234,
            fields: vec![("epoch".into(), 4.0)],
        });
        roundtrip(Event::SpanStart {
            id: 9,
            parent: None,
            stage: "asm.parse".into(),
            ts_us: 0,
            fields: vec![],
        });
        roundtrip(Event::SpanEnd { id: 3, stage: "train.epoch".into(), ts_us: 99, dur_us: 42 });
        roundtrip(Event::Counter { name: "asm.instructions".into(), ts_us: 7, delta: 450.0 });
        roundtrip(Event::Histogram {
            name: "train.worker_busy_us".into(),
            ts_us: 8,
            value: 1250.5,
            fields: vec![("worker".into(), 1.0)],
        });
        roundtrip(Event::OpProfile {
            kind: "matmul".into(),
            phase: "fwd".into(),
            shape_class: "≤4Ki".into(),
            ts_us: 10,
            calls: 128,
            self_ns: 48_000,
            flops: 2_097_152,
            bytes_out: 65_536,
            fields: vec![("epoch".into(), 2.0)],
        });
        roundtrip(Event::ServeAccess {
            id: 42,
            ts_us: 1_000,
            status: 200,
            path: "/v1/predict".into(),
            batch: 4,
            bytes_in: 1_024,
            bytes_out: 256,
            parse_us: 12,
            extract_us: 340,
            queue_us: 1_800,
            execute_us: 950,
            write_us: 8,
            total_us: 3_110,
            family: Some("Ramnit".into()),
        });
        roundtrip(Event::ServeAccess {
            id: 43,
            ts_us: 2_000,
            status: 400,
            path: "/v1/predict".into(),
            batch: 0,
            bytes_in: 16,
            bytes_out: 40,
            parse_us: 5,
            extract_us: 0,
            queue_us: 0,
            execute_us: 0,
            write_us: 3,
            total_us: 8,
            family: None,
        });
    }

    #[test]
    fn unknown_version_and_type_are_rejected() {
        assert!(Event::from_jsonl_line(r#"{"v":4,"t":"meta"}"#).is_err());
        assert!(Event::from_jsonl_line(r#"{"v":0,"t":"meta"}"#).is_err());
        assert!(Event::from_jsonl_line(r#"{"v":1,"t":"frob"}"#).is_err());
        assert!(Event::from_jsonl_line("not json").is_err());
    }

    #[test]
    fn lenient_readers_skip_unknown_types_on_accepted_versions() {
        // A hypothetical v3 minor addition this reader doesn't know:
        // skipped, not fatal.
        assert_eq!(Event::from_jsonl_line_lenient(r#"{"v":3,"t":"frob"}"#), Ok(None));
        // But an unknown *version* is still fatal.
        assert!(Event::from_jsonl_line_lenient(r#"{"v":4,"t":"meta"}"#).is_err());
    }

    #[test]
    fn absent_family_is_omitted_from_the_wire() {
        let event = Event::ServeAccess {
            id: 1,
            ts_us: 0,
            status: 503,
            path: "/v1/predict".into(),
            batch: 0,
            bytes_in: 0,
            bytes_out: 0,
            parse_us: 0,
            extract_us: 0,
            queue_us: 0,
            execute_us: 0,
            write_us: 0,
            total_us: 1,
            family: None,
        };
        assert!(!event.to_jsonl_line().contains("family"));
    }

    #[test]
    fn v1_lines_still_parse() {
        // A line exactly as a magic-trace/1 writer produced it.
        let line = r#"{"v":1,"t":"span_end","id":3,"stage":"train.epoch","ts_us":99,"dur_us":42}"#;
        let event = Event::from_jsonl_line(line).unwrap();
        assert_eq!(
            event,
            Event::SpanEnd { id: 3, stage: "train.epoch".into(), ts_us: 99, dur_us: 42 }
        );
    }

    #[test]
    fn empty_fields_are_omitted_from_the_wire() {
        let event =
            Event::SpanStart { id: 1, parent: None, stage: "x".into(), ts_us: 0, fields: vec![] };
        assert!(!event.to_jsonl_line().contains("fields"));
    }
}
