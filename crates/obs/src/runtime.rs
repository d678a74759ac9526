//! The process-global telemetry runtime: recorder installation, the
//! zero-cost-when-disabled fast path, span guards, and stderr logging.
//!
//! # Cost model
//!
//! Every instrumentation entry point ([`span`], [`counter`],
//! [`histogram`]) first loads one relaxed [`AtomicBool`]. With no
//! recorder installed that load is the *entire* cost — no clock read, no
//! allocation, no lock — so instrumented code paths are free to call
//! these functions unconditionally, even per sample.

use crate::event::Event;
use crate::recorder::Recorder;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
/// Set once, by the first `install` of the process; all timestamps are
/// measured from here so events across recorders stay comparable.
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();
static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

thread_local! {
    /// Open spans on this thread, innermost last — gives `SpanStart`
    /// events their `parent` link.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Verbosity of stderr progress logging (`--log-level` on the CLI).
///
/// Ordered: every level includes the ones before it, and [`Level::Off`]
/// silences everything. This gates only human-readable stderr lines —
/// trace *events* are controlled by installing or not installing a
/// recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No stderr output at all.
    Off = 0,
    /// Failures only.
    Error = 1,
    /// High-level progress (the default): corpus sizes, final metrics.
    Info = 2,
    /// Per-epoch training statistics.
    Debug = 3,
    /// Everything, including per-stage notes.
    Trace = 4,
}

impl std::str::FromStr for Level {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(Level::Off),
            "error" => Ok(Level::Error),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!("unknown log level {other:?} (off|error|info|debug|trace)")),
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        })
    }
}

/// Sets the global stderr log level.
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current stderr log level.
pub fn log_level() -> Level {
    match LOG_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Error,
        2 => Level::Info,
        3 => Level::Debug,
        _ => Level::Trace,
    }
}

/// Whether a message at `level` would currently print — use to skip
/// building expensive log strings.
pub fn log_enabled(level: Level) -> bool {
    level != Level::Off && level <= log_level()
}

/// Prints `message` to stderr if the global level admits it.
pub fn log(level: Level, message: impl AsRef<str>) {
    if log_enabled(level) {
        eprintln!("{}", message.as_ref());
    }
}

/// Installs `recorder` as the process-global event sink and enables the
/// instrumentation fast path. Replaces any previous recorder (the old
/// one is flushed).
pub fn install(recorder: Arc<dyn Recorder>) {
    TRACE_EPOCH.get_or_init(Instant::now);
    let previous = RECORDER.write().expect("unpoisoned recorder slot").replace(recorder);
    ENABLED.store(true, Ordering::SeqCst);
    if let Some(old) = previous {
        old.flush();
    }
}

/// Disables instrumentation and drops the global recorder, flushing it
/// first. Safe to call when nothing is installed.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    let previous = RECORDER.write().expect("unpoisoned recorder slot").take();
    if let Some(old) = previous {
        old.flush();
    }
}

/// Whether a recorder is installed. The one-atomic-load fast path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flushes the installed recorder, if any.
pub fn flush() {
    if let Some(recorder) = RECORDER.read().expect("unpoisoned recorder slot").as_ref() {
        recorder.flush();
    }
}

/// Microseconds since the trace epoch (0 before the first install).
fn now_us() -> u64 {
    TRACE_EPOCH.get().map_or(0, |epoch| epoch.elapsed().as_micros() as u64)
}

/// Sends one event to the installed recorder; a no-op when disabled.
pub fn record(event: &Event) {
    if !is_enabled() {
        return;
    }
    if let Some(recorder) = RECORDER.read().expect("unpoisoned recorder slot").as_ref() {
        recorder.record(event);
    }
}

/// Emits the stream-header [`Event::Meta`] describing the command that
/// produces the trace and the kernel instance (`isa`) it runs.
pub fn meta(command: impl Into<String>, isa: &str) {
    if is_enabled() {
        record(&Event::Meta { command: command.into(), isa: Some(isa.to_string()) });
    }
}

/// An RAII guard for one pipeline stage: emits `span_start` on creation
/// (via [`span`]/[`span_fields`]) and `span_end` with the monotonic
/// elapsed time when dropped. Guards close in drop order, so nested
/// stages nest LIFO per thread.
#[derive(Debug)]
#[must_use = "a span measures the scope it is held in"]
pub struct Span {
    id: u64,
    stage: &'static str,
    start: Option<Instant>,
}

/// Opens a span for `stage` (a name from [`crate::stage`]).
pub fn span(stage: &'static str) -> Span {
    span_fields(stage, &[])
}

/// Opens a span with numeric annotations, e.g.
/// `span_fields(stage::TRAIN_EPOCH, &[("epoch", 3.0)])`.
pub fn span_fields(stage: &'static str, fields: &[(&str, f64)]) -> Span {
    if !is_enabled() {
        return Span { id: 0, stage, start: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    record(&Event::SpanStart {
        id,
        parent,
        stage: stage.to_string(),
        ts_us: now_us(),
        fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    });
    Span { id, stage, start: Some(Instant::now()) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop LIFO, so the top of the stack is this span;
            // `retain` covers a guard moved across an early return.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                stack.retain(|&open| open != self.id);
            }
        });
        record(&Event::SpanEnd {
            id: self.id,
            stage: self.stage.to_string(),
            ts_us: now_us(),
            dur_us: start.elapsed().as_micros() as u64,
        });
    }
}

/// Adds `delta` to the counter `name`.
pub fn counter(name: &'static str, delta: f64) {
    if is_enabled() {
        record(&Event::Counter { name: name.to_string(), ts_us: now_us(), delta });
    }
}

/// Records one observation of the distribution `name`.
pub fn histogram(name: &'static str, value: f64) {
    histogram_fields(name, value, &[]);
}

/// Records one observation with numeric annotations, e.g.
/// `histogram_fields(stage::H_WORKER_BUSY_US, busy, &[("worker", 1.0)])`.
pub fn histogram_fields(name: &'static str, value: f64, fields: &[(&str, f64)]) {
    if is_enabled() {
        record(&Event::Histogram {
            name: name.to_string(),
            ts_us: now_us(),
            value,
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }
}

/// Flushes one aggregated per-op profiling row (schema v2 `op_profile`
/// event). Called by the trainer at epoch boundaries with the drained
/// tape profiles; `kind`/`phase`/`shape_class` follow the op-kind
/// registry in `docs/OBSERVABILITY.md`.
#[allow(clippy::too_many_arguments)]
pub fn op_profile(
    kind: &str,
    phase: &str,
    shape_class: &str,
    calls: u64,
    self_ns: u64,
    flops: u64,
    bytes_out: u64,
    fields: &[(&str, f64)],
) {
    if is_enabled() {
        record(&Event::OpProfile {
            kind: kind.to_string(),
            phase: phase.to_string(),
            shape_class: shape_class.to_string(),
            ts_us: now_us(),
            calls,
            self_ns,
            flops,
            bytes_out,
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that install a global recorder must not interleave.
    static GLOBAL: Mutex<()> = Mutex::new(());

    /// Collects events in memory for assertions.
    #[derive(Default)]
    struct VecRecorder(Mutex<Vec<Event>>);

    impl Recorder for VecRecorder {
        fn record(&self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn disabled_runtime_records_nothing_and_allocates_no_ids() {
        let _guard = GLOBAL.lock().unwrap();
        uninstall();
        let before = NEXT_SPAN_ID.load(Ordering::Relaxed);
        {
            let _span = span("asm.parse");
            counter("asm.instructions", 3.0);
            histogram("train.worker_busy_us", 1.0);
        }
        assert_eq!(NEXT_SPAN_ID.load(Ordering::Relaxed), before);
        assert!(!is_enabled());
    }

    #[test]
    fn nested_spans_link_parents_and_close_lifo() {
        let _guard = GLOBAL.lock().unwrap();
        let recorder = Arc::new(VecRecorder::default());
        install(recorder.clone());
        {
            let _outer = span("pipeline.extract_acfg");
            {
                let _inner = span_fields("asm.parse", &[("lines", 2.0)]);
            }
            let _sibling = span("asm.cfg_build");
        }
        uninstall();

        let events = recorder.0.lock().unwrap().clone();
        let mut open: Vec<u64> = Vec::new();
        let mut parents: Vec<(String, Option<u64>)> = Vec::new();
        let mut closed: Vec<u64> = Vec::new();
        for event in &events {
            match event {
                Event::SpanStart { id, parent, stage, .. } => {
                    assert_eq!(*parent, open.last().copied(), "parent is the enclosing span");
                    parents.push((stage.clone(), *parent));
                    open.push(*id);
                }
                Event::SpanEnd { id, .. } => {
                    assert_eq!(open.pop(), Some(*id), "spans close in LIFO order");
                    closed.push(*id);
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "every span closed");
        assert_eq!(closed.len(), 3);
        let outer_id = match &events[0] {
            Event::SpanStart { id, .. } => *id,
            other => panic!("first event should open the outer span, got {other:?}"),
        };
        assert_eq!(
            parents,
            vec![
                ("pipeline.extract_acfg".to_string(), None),
                ("asm.parse".to_string(), Some(outer_id)),
                ("asm.cfg_build".to_string(), Some(outer_id)),
            ]
        );
    }

    #[test]
    fn span_end_reports_a_plausible_duration() {
        let _guard = GLOBAL.lock().unwrap();
        let recorder = Arc::new(VecRecorder::default());
        install(recorder.clone());
        {
            let _span = span("train.epoch");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        uninstall();
        let events = recorder.0.lock().unwrap().clone();
        let dur = events
            .iter()
            .find_map(|e| match e {
                Event::SpanEnd { dur_us, .. } => Some(*dur_us),
                _ => None,
            })
            .expect("span closed");
        assert!(dur >= 4_000, "slept 5ms but measured {dur}us");
    }

    #[test]
    fn log_level_parses_and_filters() {
        assert_eq!("debug".parse::<Level>().unwrap(), Level::Debug);
        assert_eq!("TRACE".parse::<Level>().unwrap(), Level::Trace);
        assert!("loud".parse::<Level>().is_err());
        assert!(Level::Error < Level::Info && Level::Info < Level::Debug);
        assert_eq!(Level::Debug.to_string(), "debug");

        let saved = log_level();
        set_log_level(Level::Error);
        assert!(log_enabled(Level::Error));
        assert!(!log_enabled(Level::Info));
        set_log_level(Level::Off);
        assert!(!log_enabled(Level::Error));
        assert!(!log_enabled(Level::Off), "Off is never printable");
        set_log_level(saved);
    }

    #[test]
    fn meta_and_flush_are_safe_without_a_recorder() {
        let _guard = GLOBAL.lock().unwrap();
        uninstall();
        meta("magic test", "baseline");
        flush();
    }
}
