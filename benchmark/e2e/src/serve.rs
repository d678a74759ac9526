//! `serve-asm`: request accept → response through an in-process
//! `magic serve`, with raw `.asm` listings as request bodies.

use crate::common::{self, describe, Ctx};
use crate::metrics::{Checks, Report};
use crate::probe::Probes;
use crate::stats::{self, DueTiming};
use crate::trace::{self, Span, Spans, Table};
use magic::MagicPipeline;
use magic_graph::ReduceStrategy;
use magic_model::{Dgcnn, GraphInput};
use magic_obs::Event;
use magic_serve::{start, ServeConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// 1093 listings. The median request latency follows the corpus the seed
/// draws; at half this size it varied 8 % between seeds.
const SCALE: f64 = 0.1;
const WARMUP_REQUESTS: usize = 100;
/// Open-loop arrival rate: well under the one-worker capacity, so the
/// diagnostic shows queueing from bursts, not from overload.
const OPEN_LOOP_RATE: f64 = 120.0;

/// The corpus every server of a run answers from.
struct Corpus {
    listings: Vec<String>,
    /// Seeded request order, cycled.
    order: Vec<usize>,
    /// Model inputs, for the offline reference predictions.
    inputs: Vec<GraphInput>,
    counts: common::CorpusCounts,
    names: Vec<String>,
    seed: u64,
}

impl Corpus {
    fn build(ctx: &Ctx) -> Corpus {
        let (listings, _labels) = common::generate(ctx.seed, ctx.scale(SCALE));
        let (inputs, counts) = common::extract(&listings, ReduceStrategy::None);
        let order = stats::SplitMix::new(ctx.seed).permutation(listings.len());
        Corpus {
            listings,
            order,
            inputs,
            counts,
            names: common::family_names(),
            seed: ctx.seed,
        }
    }

    fn model(&self) -> Dgcnn {
        let sizes: Vec<usize> = self.inputs.iter().map(GraphInput::vertex_count).collect();
        common::model(&sizes, self.seed)
    }
}

/// A running server plus the request cursor shared by its phases.
struct Server {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    cursor: AtomicUsize,
    /// `magic_serve_pool_misses_total` once the warm-up has finished.
    misses_after_warmup: f64,
    warmup: Vec<Sample>,
}

impl Server {
    /// Starts a server for the Table II model (`reduce none`) and sends
    /// the warm-up requests.
    fn start(corpus: &Corpus, access_log: Option<&Path>, warmup: usize) -> Server {
        let pipeline =
            MagicPipeline::with_reduce(corpus.model(), corpus.names.clone(), ReduceStrategy::None);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            io_threads: 2,
            workers: 1,
            max_batch: 16,
            batch_window_us: 0,
            queue_depth: 64,
            access_log: access_log.map(|p| p.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let handle = start(pipeline, config).expect("bind the benchmark server on loopback");
        let mut server = Server {
            addr: handle.addr(),
            handle: Some(handle),
            cursor: AtomicUsize::new(0),
            misses_after_warmup: 0.0,
            warmup: Vec::new(),
        };
        server.warmup = drive(
            &server,
            corpus,
            1,
            Pace::Closed {
                until: None,
                count: warmup,
            },
        );
        server.misses_after_warmup = server.pool_misses();
        server
    }

    fn pool_misses(&self) -> f64 {
        get(self.addr, "/metrics")
            .ok()
            .and_then(|body| scrape(&body, "magic_serve_pool_misses_total"))
            .unwrap_or(f64::NAN)
    }

    /// Graceful shutdown; flushes the access log.
    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    listing: usize,
    /// When an open-loop request was due to be sent.
    due: Option<Instant>,
    start: Instant,
    end: Instant,
    reply: Result<Reply, String>,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    fn request_id(&self) -> Option<u64> {
        self.reply.as_ref().ok().map(|r| r.request_id)
    }

    /// Latency and lateness timed from the due time.
    fn due_timing(&self) -> Option<DueTiming> {
        let due = self.due?;
        let at = |t: Instant| match t.checked_duration_since(due) {
            Some(d) => d.as_secs_f64(),
            None => -(due - t).as_secs_f64(),
        };
        Some(DueTiming::new(0.0, at(self.start), at(self.end)))
    }
}

/// A 200 predict response, decoded.
#[derive(Debug, Clone)]
struct Reply {
    request_id: u64,
    /// Probabilities in family order.
    probs: Vec<f32>,
}

struct Response {
    status: u16,
    body: String,
}

fn exchange(addr: SocketAddr, request: &[u8]) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status")?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}

fn post(addr: SocketAddr, listing: &str) -> Result<Response, String> {
    let mut request = format!(
        "POST /v1/predict HTTP/1.1\r\nhost: e2e\r\ncontent-length: {}\r\n\r\n",
        listing.len()
    )
    .into_bytes();
    request.extend_from_slice(listing.as_bytes());
    exchange(addr, &request)
}

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: e2e\r\ncontent-length: 0\r\n\r\n").as_bytes(),
    )
    .map(|r| r.body)
}

/// Reads one unlabeled sample from a Prometheus exposition.
fn scrape(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Decodes a predict response; anything but a 200 is an error.
fn decode(response: Result<Response, String>, names: &[String]) -> Result<Reply, String> {
    let response = response?;
    if response.status != 200 {
        return Err(format!("status {}: {}", response.status, response.body));
    }
    let body = magic_json::from_str(&response.body).map_err(|e| format!("bad JSON: {e}"))?;
    let probs = names
        .iter()
        .map(|name| {
            body["scores"][name.as_str()]
                .as_f64()
                .map(|p| p as f32)
                .ok_or(format!("no score for {name}"))
        })
        .collect::<Result<_, _>>()?;
    let request_id = body["request_id"].as_u64().ok_or("no request_id")?;
    Ok(Reply { request_id, probs })
}

/// Checks every answered request: a 200 whose probabilities are bitwise
/// the offline prediction for its listing.
fn verify(samples: &[Sample], reference: &[Vec<f32>], checks: &mut Checks) {
    for s in samples {
        let ok = s.reply.as_ref().is_ok_and(|r| {
            r.probs
                .iter()
                .zip(&reference[s.listing])
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        checks.check(ok, || match &s.reply {
            Ok(r) => format!(
                "listing {}: served {:?}, offline {:?}",
                s.listing, r.probs, reference[s.listing]
            ),
            Err(e) => format!("listing {}: {e}", s.listing),
        });
    }
}

/// How a load phase sends: closed loop (each sender waits for its
/// answer, until a deadline or a request count) or open loop (senders
/// follow a schedule of due times, seconds from the phase start).
enum Pace<'a> {
    Closed {
        until: Option<Duration>,
        count: usize,
    },
    Open(&'a [f64]),
}

/// Runs one load phase with `senders` client threads.
fn drive(server: &Server, corpus: &Corpus, senders: usize, pace: Pace) -> Vec<Sample> {
    let begun = Instant::now();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let due = match pace {
                            Pace::Closed { until, count } => {
                                if k >= count || until.is_some_and(|d| begun.elapsed() >= d) {
                                    break;
                                }
                                None
                            }
                            Pace::Open(schedule) => {
                                let Some(&at) = schedule.get(k) else { break };
                                let due = begun + Duration::from_secs_f64(at);
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                Some(due)
                            }
                        };
                        let i = corpus.order
                            [server.cursor.fetch_add(1, Ordering::Relaxed) % corpus.order.len()];
                        let start = Instant::now();
                        let response = post(server.addr, &corpus.listings[i]);
                        let end = Instant::now();
                        out.push(Sample {
                            listing: i,
                            due,
                            start,
                            end,
                            reply: decode(response, &corpus.names),
                        });
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    })
}

fn closed(server: &Server, corpus: &Corpus, clients: usize, seconds: f64) -> Vec<Sample> {
    let until = Some(Duration::from_secs_f64(seconds));
    drive(
        server,
        corpus,
        clients,
        Pace::Closed {
            until,
            count: usize::MAX,
        },
    )
}

/// Blocks each closed-loop phase is cut into.
const BLOCKS: usize = 10;

/// The two closed-loop phases, interleaved in blocks so that both see
/// the same machine: per block, a 1-client block (latency) and a
/// 2-client block (throughput), each after a one-thread probe. A request
/// crosses its threads one after another, and the single model worker
/// bounds the 2-client throughput, so one thread is the resource a
/// slower machine slows.
struct Phases {
    one: Vec<Sample>,
    two: Vec<Sample>,
    probes: Probes,
    /// Time the 2-client blocks took, seconds.
    two_elapsed: f64,
}

impl Phases {
    fn run(ctx: &Ctx, server: &Server, corpus: &Corpus) -> Phases {
        let blocks = if ctx.tiny { 1 } else { BLOCKS };
        let block_s = ctx.seconds / (2 * blocks) as f64;
        let mut phases = Phases {
            one: Vec::new(),
            two: Vec::new(),
            probes: ctx.probes(),
            two_elapsed: 0.0,
        };
        for _ in 0..blocks {
            phases.probes.take(1);
            phases.one.extend(closed(server, corpus, 1, block_s));
            phases.probes.take(1);
            let block = closed(server, corpus, 2, block_s);
            let first = block
                .iter()
                .map(|s| s.start)
                .min()
                .expect("a block sends requests");
            let last = block
                .iter()
                .map(|s| s.end)
                .max()
                .expect("a block sends requests");
            phases.two_elapsed += (last - first).as_secs_f64();
            phases.two.extend(block);
        }
        phases
    }

    fn one_ms(&self) -> Vec<f64> {
        self.one.iter().map(Sample::ms).collect()
    }

    /// Requests per second over the 2-client blocks.
    fn throughput(&self) -> f64 {
        self.two.len() as f64 / self.two_elapsed
    }

    fn describe(&self, report: &mut Report, which: &str) {
        report.note(describe(
            &format!("{which}latency, 1 client, closed loop"),
            &self.one_ms(),
            "ms",
        ));
        let two_ms: Vec<f64> = self.two.iter().map(Sample::ms).collect();
        report.note(describe(
            &format!("{which}latency, 2 clients, closed loop"),
            &two_ms,
            "ms",
        ));
        report.note(format!(
            "{which}throughput, 2 clients: {:.2} requests/s, n={}",
            self.throughput(),
            self.two.len()
        ));
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let warmup = if ctx.tiny { 5 } else { WARMUP_REQUESTS };
    let ((corpus, mut server), setup_times) = common::repeated_setup(ctx, 1, || {
        let corpus = Corpus::build(ctx);
        let server = Server::start(&corpus, None, warmup);
        (corpus, server)
    });
    let phases = Phases::run(ctx, &server, &corpus);
    server.stop();
    phases.describe(&mut report, "");
    let reference = common::reference_probs(&corpus.model(), &corpus.inputs);
    for samples in [&server.warmup, &phases.one, &phases.two] {
        verify(samples, &reference, &mut report.checks);
    }

    if !ctx.trace {
        let latency = stats::median(&phases.one_ms());
        let throughput = phases.throughput();
        common::report_end_to_end(
            &mut report,
            &setup_times,
            latency,
            throughput,
            &phases.probes,
        );
        return report;
    }

    // Traced: the same phases against a second server that writes its
    // access log, then the open-loop diagnostic; the first server's
    // latency is the untraced reference.
    let log_path = ctx.out_dir.join("serve-asm.access.jsonl");
    std::fs::remove_file(&log_path).ok();
    let mut traced = Server::start(&corpus, Some(&log_path), warmup);
    let traced_phases = Phases::run(ctx, &traced, &corpus);
    let schedule =
        stats::poisson_schedule(corpus.seed ^ 0x0BE1_100B, OPEN_LOOP_RATE, ctx.seconds * 0.4);
    let open = drive(&traced, &corpus, 2, Pace::Open(&schedule));
    let misses = traced.pool_misses() - traced.misses_after_warmup;
    traced.stop();
    traced_phases.describe(&mut report, "traced ");
    for samples in [
        &traced.warmup,
        &traced_phases.one,
        &traced_phases.two,
        &open,
    ] {
        verify(samples, &reference, &mut report.checks);
    }

    let log = read_access_log(&log_path);
    let (one_t, two_t) = (&traced_phases.one, &traced_phases.two);
    let mut spans = Spans::new(one_t[0].start);
    add_request_spans(&mut spans, one_t, &log);
    let table = attribution(spans.all());
    report.note(table.render());
    report.set_shares(&table);
    report.set(
        "trace.overhead_ratio",
        stats::median(&traced_phases.one_ms()) / stats::median(&phases.one_ms()),
    );
    let queue: Vec<f64> = one_t
        .iter()
        .filter_map(|s| log.get(&s.request_id()?))
        .map(|r| r.queue_us)
        .collect();
    if !queue.is_empty() {
        report.note(describe("serve.queue_wait, 1 client", &queue, "us"));
    }

    let batches: Vec<f64> = two_t
        .iter()
        .filter_map(|s| log.get(&s.request_id()?))
        .map(|r| r.batch)
        .collect();
    report.set("serve.batch_size_mean", stats::mean(&batches));
    report.set(
        "serve.shed",
        log.values().filter(|r| r.status == 503).count() as f64,
    );
    report.set("serve.pool_misses_steady", misses);

    let timings: Vec<DueTiming> = open.iter().filter_map(Sample::due_timing).collect();
    let open_ms: Vec<f64> = timings.iter().map(|t| t.latency * 1e3).collect();
    let late_ms: Vec<f64> = timings.iter().map(|t| t.late * 1e3).collect();
    report.note(describe(
        &format!("openloop latency from due time at {OPEN_LOOP_RATE}/s"),
        &open_ms,
        "ms",
    ));
    report.note(describe("loadgen lateness", &late_ms, "ms"));
    corpus.counts.report(&mut report);

    add_request_spans(&mut spans, two_t, &log);
    add_request_spans(&mut spans, &open, &log);
    common::write_spans(ctx, "serve-asm", &spans, &mut report);
    report
}

/// One access-log line, durations in microseconds.
struct Access {
    status: u16,
    batch: f64,
    read_us: f64,
    extract_us: f64,
    queue_us: f64,
    execute_us: f64,
    write_us: f64,
    total_us: f64,
}

fn read_access_log(path: &Path) -> HashMap<u64, Access> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|line| match Event::from_jsonl_line(line).ok()? {
            Event::ServeAccess {
                id,
                status,
                batch,
                parse_us,
                extract_us,
                queue_us,
                execute_us,
                write_us,
                total_us,
                ..
            } => Some((
                id,
                Access {
                    status,
                    batch: batch as f64,
                    read_us: parse_us as f64,
                    extract_us: extract_us as f64,
                    queue_us: queue_us as f64,
                    execute_us: execute_us as f64,
                    write_us: write_us as f64,
                    total_us: total_us as f64,
                },
            )),
            _ => None,
        })
        .collect()
}

/// Spans of answered requests: the client's `request`, the server's
/// accept → written `server` interval ending with it, and the server's
/// stages laid end to end inside that. The server stamps durations, not
/// times, so stage offsets are reconstructed; durations are exact.
fn add_request_spans(spans: &mut Spans, samples: &[Sample], log: &HashMap<u64, Access>) {
    for s in samples {
        let Some(id) = s.request_id() else { continue };
        let Some(a) = log.get(&id) else { continue };
        let (start, end) = (spans.at(s.start), spans.at(s.end));
        let root = spans.push(id, None, "request", start, end);
        let server_start = end - a.total_us.min(end - start);
        let server = spans.push(id, Some(root), "server", server_start, end);
        let mut t = server_start;
        for (name, us) in [
            ("serve.read", a.read_us),
            ("serve.extract", a.extract_us),
            ("serve.queue_wait", a.queue_us),
            ("serve.execute", a.execute_us),
            ("serve.write", a.write_us),
        ] {
            spans.push(id, Some(server), name, t, t + us);
            t += us;
        }
    }
}

/// The 1-client request broken into stages: mean stage durations, the
/// server's own gaps (its self time) and the client-side remainder
/// (the request's self time: connect, accept queue, close).
fn attribution(spans: &[Span]) -> Table {
    let own = trace::self_times(spans);
    let mut rows = Vec::new();
    for name in [
        "serve.read",
        "serve.extract",
        "serve.queue_wait",
        "serve.execute",
        "serve.write",
    ] {
        rows.push((name.to_string(), trace::mean_by_name(spans, &own, name).0));
    }
    rows.push((
        "serve.server_other".to_string(),
        trace::mean_by_name(spans, &own, "server").1,
    ));
    Table {
        unit: "request, 1 client".to_string(),
        total: trace::mean_by_name(spans, &own, "request").0,
        scale: "us",
        rows,
        residual_name: "serve.unattributed".to_string(),
    }
}
