//! The serving runtime: listener, IO thread pool, and model workers
//! around the micro-batching queue.
//!
//! ```text
//! accept loop ──► mpsc<TcpStream> ──► IO threads (parse HTTP, extract
//!     ACFG, build GraphInput) ──► BoundedQueue<Job> ──► model workers
//!     (pop_batch → predict_batch_sorted on a warm tape) ──► per-job
//!     reply channel ──► the IO thread writes the HTTP response
//! ```
//!
//! Each model worker owns one long-lived [`Tape`], so after the first
//! few batches every workspace checkout is a pool hit — the serving
//! counterpart of the training-loop zero-steady-state-allocation
//! contract (asserted by the serve integration tests via `/metrics`).
//!
//! Every request is assigned a process-unique id and stamped through
//! its lifecycle stages (`parse → extract → queue → execute → write`);
//! the stamps feed the windowed stage histograms behind
//! `GET /metrics`, the slow-request exemplar ring behind
//! `GET /debug/slow`, and — when `--access-log` is set — one
//! [`Event::ServeAccess`](magic_obs::Event) JSONL line per request.
//! Each response is counted once by its status, just before it is
//! written ([`ServeStats::record_response`]).
//! Telemetry is observational only: it takes no locks on the model
//! path and never changes what the model computes, so predictions are
//! bitwise identical with it on or off.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`] or
//! `POST /admin/shutdown`) closes the queue so new work sheds with 503,
//! lets the workers drain every queued job to a real response, unblocks
//! the accept loop with a loopback self-connect, and joins all threads.
//! While draining, `GET /healthz` answers 503 `{"status":"draining"}`
//! so load balancers stop routing to the instance.

use crate::http::{read_request, write_response_typed, HttpError, Request};
use crate::metrics::{render_metrics, METRICS_CONTENT_TYPE};
use crate::protocol::{encode_error, encode_prediction, parse_predict_request, RequestInput};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::{LifecycleStage, ServeStats, SlowExemplar};
use magic::MagicPipeline;
use magic_autograd::Tape;
use magic_model::GraphInput;
use magic_obs::timeseries::MonotonicClock;
use magic_obs::{stage, Event, JsonlRecorder, Recorder};
use std::cell::Cell;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read and write timeout set on every accepted connection. A client
/// that stalls longer than this between bytes is dropped, so idle
/// connections cannot pin the IO threads or hold up graceful shutdown.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The one route that runs the model.
const PREDICT_PATH: &str = "/v1/predict";

/// Tuning knobs for one server instance. Defaults match the CLI
/// defaults documented in `docs/SERVING.md`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8787`. Port 0 picks an ephemeral
    /// port (the bound address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// IO threads reading requests and writing responses. Also the cap
    /// on concurrently in-flight requests, and therefore on the batch
    /// sizes the queue can accumulate.
    pub io_threads: usize,
    /// Model workers, each owning one warm tape. One worker maximizes
    /// batching; more trade batch size for parallel forward passes.
    pub workers: usize,
    /// Most requests fused into one forward pass.
    pub max_batch: usize,
    /// How long a worker lingers for stragglers after the first job of
    /// a batch, in microseconds. `0` = never wait (latency-optimal,
    /// batches only form from genuine backlog).
    pub batch_window_us: u64,
    /// Bounded queue capacity; a full queue sheds with HTTP 503.
    pub queue_depth: usize,
    /// Per-request deadline. Requests still queued when it expires are
    /// answered 504 instead of occupying a batch slot.
    pub deadline_ms: u64,
    /// Largest accepted request body; larger uploads get HTTP 413.
    pub max_body_bytes: usize,
    /// Path to append the JSONL access log to (`--access-log`). `None`
    /// disables access logging.
    pub access_log: Option<String>,
    /// Span of the sliding telemetry window behind the `/metrics` rates
    /// and quantiles, in seconds (`--metrics-window`).
    pub metrics_window_s: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8787".to_string(),
            io_threads: 8,
            workers: 2,
            max_batch: 16,
            batch_window_us: 2_000,
            queue_depth: 64,
            deadline_ms: 10_000,
            max_body_bytes: 16 * 1024 * 1024,
            access_log: None,
            metrics_window_s: 60,
        }
    }
}

/// What a model worker sends back for one job.
enum Reply {
    /// A served prediction plus its worker-side stage timings.
    Probs {
        /// Per-family probabilities for this job's graph.
        probs: Vec<f32>,
        /// Number of requests fused into the carrying batch.
        batch_size: usize,
        /// Time this job waited in the queue before its batch popped, µs.
        queue_wait_us: u64,
        /// Wall-clock of the batch forward pass, µs (shared by every
        /// job in the batch).
        execute_us: u64,
    },
    /// The deadline passed before the job reached a forward pass.
    Expired,
    /// The forward pass of this job's batch panicked.
    Failed,
}

/// One queued prediction. The IO thread that enqueued it blocks on the
/// other end of `reply` and owns the latency measurement.
struct Job {
    input: GraphInput,
    enqueued: Instant,
    deadline: Instant,
    reply: mpsc::Sender<Reply>,
}

/// Per-request lifecycle stamps, carried from `read_request` through
/// response write and then flushed into the windowed stage histograms,
/// the slow-exemplar ring, and the access log.
struct RequestTrace {
    id: u64,
    path: String,
    bytes_in: u64,
    parse_us: u64,
    extract_us: u64,
    queue_us: u64,
    execute_us: u64,
    batch: u64,
    family: Option<String>,
}

struct Shared {
    config: ServeConfig,
    pipeline: MagicPipeline,
    queue: BoundedQueue<Job>,
    stats: ServeStats,
    draining: AtomicBool,
    bound_addr: SocketAddr,
    access_log: Option<JsonlRecorder>,
    /// Test/bench knob: sleep this long inside every batch execution,
    /// making saturation (503) and drain behavior deterministic.
    inject_execute_delay: Duration,
    /// Test hook: this many batch executions still to panic before the
    /// forward pass, exercising the model workers' panic recovery.
    inject_panics: AtomicU64,
    /// Test hook: this many predict requests still to panic on their IO
    /// thread before extraction, exercising the IO threads' panic
    /// recovery.
    inject_request_panics: AtomicU64,
}

impl Shared {
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // The accept loop blocks in `accept`; a throwaway loopback
        // connection wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.bound_addr);
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] (or hit `POST /admin/shutdown` and
/// then [`ServerHandle::wait`]).
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.bound_addr
    }

    /// Requests a graceful shutdown and blocks until every in-flight
    /// request has been answered and all threads have exited.
    pub fn shutdown(self) {
        self.shared.begin_drain();
        self.join_threads();
    }

    /// Blocks until the server shuts down (normally via
    /// `POST /admin/shutdown` starting the drain).
    pub fn wait(self) {
        self.join_threads();
    }

    fn join_threads(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(log) = &self.shared.access_log {
            log.flush();
        }
    }
}

/// Binds the listener and spawns the serving threads.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the open
/// error if the configured access log cannot be created.
pub fn start(pipeline: MagicPipeline, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let bound_addr = listener.local_addr()?;
    let inject_execute_delay = std::env::var("MAGIC_SERVE_INJECT_EXECUTE_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::ZERO);
    let injected =
        |var: &str| std::env::var(var).ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let access_log = match &config.access_log {
        Some(path) => {
            let recorder = JsonlRecorder::create(path)?;
            recorder.record(&Event::Meta {
                command: "magic serve".to_string(),
                isa: Some(magic_tensor::simd::isa().name().to_string()),
            });
            Some(recorder)
        }
        None => None,
    };
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_depth),
        stats: ServeStats::with_window(config.metrics_window_s, Arc::new(MonotonicClock::new())),
        draining: AtomicBool::new(false),
        bound_addr,
        access_log,
        inject_execute_delay,
        inject_panics: AtomicU64::new(injected("MAGIC_SERVE_INJECT_PANIC_BATCHES")),
        inject_request_panics: AtomicU64::new(injected("MAGIC_SERVE_INJECT_PANIC_REQUESTS")),
        config,
        pipeline,
    });

    let mut threads = Vec::new();
    let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    for worker in 0..shared.config.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-model-{worker}"))
                .spawn(move || model_worker_loop(&shared))?,
        );
    }
    for io in 0..shared.config.io_threads.max(1) {
        let shared = Arc::clone(&shared);
        let conn_rx = Arc::clone(&conn_rx);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-io-{io}"))
                .spawn(move || io_loop(&shared, &conn_rx))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                // `conn_tx` moves in here; when the accept loop exits it
                // drops, which ends the IO threads after they drain.
                .spawn(move || accept_loop(&shared, &listener, conn_tx))?,
        );
    }
    Ok(ServerHandle { shared, threads })
}

fn accept_loop(shared: &Shared, listener: &TcpListener, conn_tx: mpsc::Sender<TcpStream>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up self-connect (or a late client) lands here;
            // drop it and stop accepting.
            return;
        }
        match stream {
            Ok(stream) => {
                if conn_tx.send(stream).is_err() {
                    return;
                }
            }
            Err(_) => continue,
        }
    }
}

fn io_loop(shared: &Shared, conn_rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        // A receive leaves the receiver whole, so a lock poisoned by a
        // panicking holder still guards a usable channel.
        let stream = match conn_rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(s) => s,
            Err(_) => return, // accept loop gone: drain complete
        };
        // The IO thread parses, builds the CFG of and reduces untrusted
        // listings. A panic there costs only its request: a 500 unless
        // the response is already out, and the thread goes on serving.
        let responded = Cell::new(false);
        let served =
            catch_unwind(AssertUnwindSafe(|| handle_connection(shared, &stream, &responded)));
        if served.is_err() && !responded.get() {
            shared.stats.record_response(500, false);
            let body = encode_error("request handler panicked");
            let _ = write_response_typed(&mut &stream, 500, "application/json", &[], &body);
        }
    }
}

/// Reads one request from `stream`, answers it, and records it. Sets
/// `responded` just before the response is written.
fn handle_connection(shared: &Shared, stream: &TcpStream, responded: &Cell<bool>) {
    let _span = magic_obs::span(stage::SERVE_REQUEST);
    let accepted = Instant::now();
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut trace = RequestTrace {
        id: shared.stats.next_request_id(),
        path: "-".to_string(),
        bytes_in: 0,
        parse_us: 0,
        extract_us: 0,
        queue_us: 0,
        execute_us: 0,
        batch: 0,
        family: None,
    };
    let result = read_request(&mut reader, shared.config.max_body_bytes);
    trace.parse_us = accepted.elapsed().as_micros() as u64;
    let (status, content_type, extra, body) = match result {
        Ok(request) => {
            trace.path = request.path.clone();
            trace.bytes_in = request.body.len() as u64;
            let content_type = if request.method == "GET" && request.path == "/metrics" {
                METRICS_CONTENT_TYPE
            } else {
                "application/json"
            };
            let (status, extra, body) = route(shared, &request, &mut trace);
            (status, content_type, extra, body)
        }
        Err(HttpError::ConnectionClosed) | Err(HttpError::Io(_)) => return,
        Err(e @ HttpError::Malformed(_)) => {
            (400, "application/json", Vec::new(), encode_error(&e.to_string()))
        }
        Err(e @ HttpError::BodyTooLarge { .. }) => {
            (413, "application/json", Vec::new(), encode_error(&e.to_string()))
        }
    };
    shared.stats.record_response(status, trace.path == PREDICT_PATH);
    responded.set(true);
    let write_start = Instant::now();
    let _ = write_response_typed(&mut writer, status, content_type, &extra, &body);
    let write_us = write_start.elapsed().as_micros() as u64;
    let total_us = accepted.elapsed().as_micros() as u64;
    finish_request(shared, trace, status, write_us, total_us, body.len() as u64);
}

/// Flushes one finished request into the windowed telemetry, the
/// slow-exemplar ring, and the access log.
fn finish_request(
    shared: &Shared,
    trace: RequestTrace,
    status: u16,
    write_us: u64,
    total_us: u64,
    bytes_out: u64,
) {
    let is_predict = trace.path == PREDICT_PATH;
    // In `LifecycleStage::ALL` order.
    let stages_us =
        [trace.parse_us, trace.extract_us, trace.queue_us, trace.execute_us, write_us];
    if is_predict && status == 200 {
        // End-to-end latency + stage breakdown feed the windowed
        // quantiles; only successful predictions count, so tail shifts
        // are model-path signal rather than error-path noise.
        shared.stats.record_latency_us(total_us);
        for (stage, us) in LifecycleStage::ALL.into_iter().zip(stages_us) {
            shared.stats.record_stage_us(stage, us);
        }
    }
    if is_predict {
        // 504s and 500s are slow-by-definition and belong in the
        // exemplar ring alongside slow 200s.
        shared.stats.offer_slow(SlowExemplar {
            id: trace.id,
            ts_us: shared.stats.now_us(),
            status,
            batch: trace.batch,
            stages_us,
            total_us,
            family: trace.family.clone(),
        });
    }
    if let Some(log) = &shared.access_log {
        log.record(&Event::ServeAccess {
            id: trace.id,
            ts_us: shared.stats.now_us(),
            status,
            path: trace.path,
            batch: trace.batch,
            bytes_in: trace.bytes_in,
            bytes_out,
            parse_us: trace.parse_us,
            extract_us: trace.extract_us,
            queue_us: trace.queue_us,
            execute_us: trace.execute_us,
            write_us,
            total_us,
            family: trace.family,
        });
    }
}

type Response = (u16, Vec<(&'static str, String)>, String);

fn route(shared: &Shared, request: &Request, trace: &mut RequestTrace) -> Response {
    let draining = shared.draining.load(Ordering::SeqCst);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            // 503 while draining so load balancers take the instance
            // out of rotation during the shutdown grace period.
            if draining {
                (503, Vec::new(), "{\"status\":\"draining\"}".to_string())
            } else {
                (200, Vec::new(), "{\"status\":\"ok\"}".to_string())
            }
        }
        ("GET", "/metrics") => {
            let body = render_metrics(
                &shared.stats,
                shared.queue.depth(),
                shared.queue.high_water() as u64,
                draining,
            );
            (200, Vec::new(), body)
        }
        ("GET", "/debug/slow") => (200, Vec::new(), shared.stats.render_slow()),
        ("POST", "/admin/shutdown") => {
            shared.begin_drain();
            (200, Vec::new(), "{\"status\":\"draining\"}".to_string())
        }
        ("POST", PREDICT_PATH) => handle_predict(shared, request, trace),
        (_, "/healthz" | "/metrics" | "/debug/slow" | "/admin/shutdown" | PREDICT_PATH) => {
            (405, Vec::new(), encode_error("method not allowed"))
        }
        (_, path) => (404, Vec::new(), encode_error(&format!("no such endpoint: {path}"))),
    }
}

fn shed(shared: &Shared, why: &str) -> Response {
    shared.stats.record_shed();
    (503, vec![("retry-after", "1".to_string())], encode_error(why))
}

fn handle_predict(shared: &Shared, request: &Request, trace: &mut RequestTrace) -> Response {
    let input = match parse_predict_request(request.header("content-type"), &request.body) {
        Ok(input) => input,
        Err(why) => return (400, Vec::new(), encode_error(&why)),
    };
    // Extraction (parse → CFG → ACFG) runs here on the IO thread, in
    // parallel across the IO pool; only the forward pass is batched.
    let extract_start = Instant::now();
    let inject = shared.inject_request_panics.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
        n.checked_sub(1)
    });
    if inject.is_ok() {
        panic!("injected IO thread panic");
    }
    let acfg = match input {
        RequestInput::Listing(listing) => match magic::extract_acfg(&listing) {
            Ok(acfg) => acfg,
            Err(e) => return (400, Vec::new(), encode_error(&e.to_string())),
        },
        RequestInput::Acfg(acfg) => acfg,
    };
    // `input_for` applies the pipeline's graph-reduction strategy, so a
    // served model sees exactly the graphs it was trained on — whether
    // the client sent a raw listing or a pre-extracted (even
    // pre-reduced: the strategies are idempotent) ACFG.
    let graph_input = shared.pipeline.input_for(&acfg);
    trace.extract_us = extract_start.elapsed().as_micros() as u64;

    if shared.draining.load(Ordering::SeqCst) {
        return shed(shared, "server is draining for shutdown");
    }
    let enqueued = Instant::now();
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        input: graph_input,
        enqueued,
        deadline: enqueued + Duration::from_millis(shared.config.deadline_ms),
        reply: reply_tx,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => shared.stats.record_request(depth),
        Err(PushError::Full) => return shed(shared, "queue full"),
        Err(PushError::Closed) => return shed(shared, "server is draining for shutdown"),
    }
    // A worker is guaranteed to answer every popped job, and the close
    // protocol drains the queue before workers exit, so this only fails
    // if a worker thread died mid-batch.
    match reply_rx.recv() {
        Ok(Reply::Probs { probs, batch_size, queue_wait_us, execute_us }) => {
            let queue_us = enqueued.elapsed().as_micros() as u64;
            trace.queue_us = queue_wait_us;
            trace.execute_us = execute_us;
            trace.batch = batch_size as u64;
            let body = encode_prediction(
                shared.pipeline.family_names(),
                &probs,
                batch_size,
                queue_us,
                trace.id,
            );
            trace.family =
                magic_tensor::argmax(&probs).map(|i| shared.pipeline.family_names()[i].clone());
            (200, Vec::new(), body)
        }
        Ok(Reply::Expired) => {
            (504, Vec::new(), encode_error("deadline exceeded before execution"))
        }
        Ok(Reply::Failed) => (500, Vec::new(), encode_error("model worker panicked")),
        Err(_) => (500, Vec::new(), encode_error("model worker lost")),
    }
}

fn model_worker_loop(shared: &Shared) {
    let mut tape = Tape::new();
    let window = Duration::from_micros(shared.config.batch_window_us);
    while let Some(jobs) = shared.queue.pop_batch(shared.config.max_batch, window) {
        if jobs.is_empty() {
            continue;
        }
        let now = Instant::now();
        let (live, expired): (Vec<Job>, Vec<Job>) =
            jobs.into_iter().partition(|j| j.deadline > now);
        for job in expired {
            let _ = job.reply.send(Reply::Expired);
        }
        if live.is_empty() {
            continue;
        }
        let execute_start = Instant::now();
        if !shared.inject_execute_delay.is_zero() {
            std::thread::sleep(shared.inject_execute_delay);
        }
        let inputs: Vec<&GraphInput> = live.iter().map(|j| &j.input).collect();
        let vertices: usize = inputs.iter().map(|i| i.vertex_count()).sum();
        let before = tape.workspace_stats();
        // A panic in the forward pass costs only this batch: its jobs get
        // a 500, the worker drops the tape the panic may have left
        // half-recorded, and it goes on popping batches.
        let probs = catch_unwind(AssertUnwindSafe(|| {
            let _span = magic_obs::span_fields(
                stage::SERVE_BATCH_EXECUTE,
                &[("batch", live.len() as f64), ("vertices", vertices as f64)],
            );
            let inject = shared.inject_panics.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                n.checked_sub(1)
            });
            if inject.is_ok() {
                panic!("injected model worker panic");
            }
            shared.pipeline.model().predict_batch_sorted(&mut tape, &inputs)
        }));
        let Ok(probs) = probs else {
            tape = Tape::new();
            for job in live {
                let _ = job.reply.send(Reply::Failed);
            }
            continue;
        };
        let execute_us = execute_start.elapsed().as_micros() as u64;
        let after = tape.workspace_stats();
        let batch_size = live.len();
        shared.stats.record_batch(
            batch_size,
            after.hits - before.hits,
            after.misses - before.misses,
        );
        for (job, probs) in live.into_iter().zip(probs) {
            let queue_wait_us = now.saturating_duration_since(job.enqueued).as_micros() as u64;
            let _ = job.reply.send(Reply::Probs {
                probs,
                batch_size,
                queue_wait_us,
                execute_us,
            });
        }
    }
}
