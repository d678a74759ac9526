//! Recorder backends: where trace events go.

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A sink for telemetry events.
///
/// Implementations must be cheap and infallible from the caller's point
/// of view: recording telemetry must never abort or perturb the
/// pipeline, so I/O errors are swallowed (a recorder may track them
/// internally).
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output. Called on [`crate::uninstall`] and by
    /// [`crate::flush`]; a no-op by default.
    fn flush(&self) {}
}

/// Discards every event — the explicit "telemetry off" backend.
///
/// Installing a `NullRecorder` exercises the full instrumentation path
/// (span ids, timestamps) without producing output; it exists so tests
/// can prove instrumentation does not perturb results.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: &Event) {}
}

/// Streams events as JSON Lines (`magic-trace/3` schema) to a writer.
///
/// One event becomes exactly one `\n`-terminated line, serialized with
/// the `magic-json` compact writer, so a trace file is parseable line by
/// line with [`magic_json::from_str`]. Writes are serialized through an
/// internal mutex; I/O errors are counted, not propagated.
pub struct JsonlRecorder {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Creates a recorder streaming to a buffered file at `path`,
    /// creating parent directories as needed and truncating any existing
    /// file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(BufWriter::new(file))))
    }

    /// Creates a recorder streaming to an arbitrary writer (a socket, an
    /// in-memory buffer in tests, …).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlRecorder { out: Mutex::new(writer) }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event) {
        let line = event.to_jsonl_line();
        let mut out = self.out.lock().expect("unpoisoned trace writer");
        // Telemetry is best-effort: a full disk must not kill training.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("unpoisoned trace writer").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handle that appends into a shared buffer, so tests can
    /// read back what a recorder wrote.
    #[derive(Clone, Default)]
    pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_recorder_writes_one_parseable_line_per_event() {
        let buf = SharedBuf::default();
        let recorder = JsonlRecorder::from_writer(Box::new(buf.clone()));
        let events = [
            Event::Meta { command: "test".into(), isa: None },
            Event::Counter { name: "c".into(), ts_us: 1, delta: 2.0 },
            Event::SpanEnd { id: 1, stage: "s".into(), ts_us: 5, dur_us: 4 },
        ];
        for e in &events {
            recorder.record(e);
        }
        recorder.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let parsed: Vec<Event> =
            text.lines().map(|l| Event::from_jsonl_line(l).unwrap()).collect();
        assert_eq!(parsed, events);
    }

    #[test]
    fn create_makes_parent_directories() {
        let dir = std::env::temp_dir().join("magic-obs-test").join("nested");
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = JsonlRecorder::create(&path).unwrap();
        recorder.record(&Event::Meta { command: "t".into(), isa: None });
        recorder.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
