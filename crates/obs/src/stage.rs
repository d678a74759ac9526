//! The stage/metric name registry — the vocabulary of the telemetry
//! contract.
//!
//! Instrumentation sites must name spans, counters, and histograms with
//! these constants so traces from different builds aggregate under the
//! same keys. Names are `dotted.paths` rooted at the subsystem; the
//! unit of a numeric metric is suffixed to its name (`_us` =
//! microseconds). The full semantics of each stage are documented in
//! `docs/OBSERVABILITY.md`; adding a constant here is a schema change
//! and must update that document.

// ---- spans -------------------------------------------------------------

/// Parse one IDA-style `.asm` listing into a `Program`: one
/// address-sorted instruction vector, each instruction classified once
/// (Algorithm 1's input). Child of [`EXTRACT_ACFG`].
pub const ASM_PARSE: &str = "asm.parse";

/// Build basic blocks and edges from a parsed program (Algorithm 2).
/// Child of [`EXTRACT_ACFG`].
pub const CFG_BUILD: &str = "asm.cfg_build";

/// Attribute each basic block with the Table I feature vector.
/// Child of [`EXTRACT_ACFG`].
pub const ACFG_ATTRIBUTES: &str = "graph.acfg_attributes";

/// End-to-end listing → attributed CFG extraction (the front half of
/// the paper's Fig. 1).
pub const EXTRACT_ACFG: &str = "pipeline.extract_acfg";

/// Apply one `--reduce` graph-reduction strategy to one ACFG (chain
/// collapse, leaf pruning, or WL coarsening). Fields: `nodes_before`,
/// `edges_before`; removals are reported through the
/// [`C_REDUCE_NODES_REMOVED`] / [`C_REDUCE_EDGES_REMOVED`] counters.
/// Emitted only when the strategy is not `none`.
pub const REDUCE_APPLY: &str = "reduce.apply";

/// Build one synthetic corpus (`magic::corpus_cache::generate` and
/// `build`): the generator's serial plan, then [`CORPUS_EXTRACT`].
pub const CORPUS_GENERATE: &str = "corpus.generate";

/// Render, extract and reduce every planned sample of a corpus across
/// worker lanes (wraps many [`EXTRACT_ACFG`]). Child of
/// [`CORPUS_GENERATE`]; fields: `samples`, `workers`.
pub const CORPUS_EXTRACT: &str = "corpus.extract";

/// One full training run (`Trainer::train`).
pub const TRAIN: &str = "train.run";

/// One pass over the training split. Child of [`TRAIN`];
/// fields: `epoch`.
pub const TRAIN_EPOCH: &str = "train.epoch";

/// Loss/accuracy evaluation over a validation or test split.
/// Fields: `samples`.
pub const EVALUATE: &str = "train.evaluate";

/// Serialize model weights to the checkpoint format.
pub const CHECKPOINT_SAVE: &str = "checkpoint.save";

/// Parse checkpoint text back into model weights.
pub const CHECKPOINT_LOAD: &str = "checkpoint.load";

/// Classify one listing through a trained pipeline.
pub const PREDICT: &str = "pipeline.predict";

/// One HTTP request handled by `magic serve`, from parsed request line
/// to response written.
pub const SERVE_REQUEST: &str = "serve.request";

/// One fused micro-batch executed by a `magic serve` model worker:
/// block-diagonal assembly + batched forward. Fields: `batch` (number
/// of requests fused), `vertices` (total vertex count).
pub const SERVE_BATCH_EXECUTE: &str = "serve.batch_execute";

/// Build the sharded binary ACFG cache for one corpus (`magic cache
/// build`): plan + render + extract + shard writes. Fields: `samples`,
/// `shards`.
pub const CACHE_BUILD: &str = "cache.build";

/// Encode and write one binary ACFG shard (`magic-acfg/1`), including
/// the checksum footer. Fields: `shard`, `records`, `bytes`.
pub const CACHE_WRITE: &str = "cache.write";

/// Decode every record of a shard cache back into `Acfg` records, in
/// sample order, after the shards were opened and checksummed: one
/// span per full cache load (`corpus_cache::load` / `read_graphs`), on
/// the caller's thread. Fields: `records`, `bytes`.
pub const CACHE_READ: &str = "cache.read";

// ---- counters ----------------------------------------------------------

/// Instructions accepted by the listing parser.
pub const C_ASM_INSTRUCTIONS: &str = "asm.instructions";

/// Basic blocks produced by the CFG builder.
pub const C_CFG_BLOCKS: &str = "cfg.blocks";

/// Edges produced by the CFG builder.
pub const C_CFG_EDGES: &str = "cfg.edges";

/// Training samples processed (one delta per epoch).
pub const C_TRAIN_SAMPLES: &str = "train.samples";

/// Predict requests accepted into the `magic serve` batching queue.
pub const C_SERVE_REQUESTS: &str = "serve.requests";

/// Predict requests load-shed with HTTP 503 because the bounded queue
/// was full (or the server was draining for shutdown).
pub const C_SERVE_SHED: &str = "serve.shed";

/// Bytes of binary ACFG shard data written by cache builds (header +
/// index + payload + footer).
pub const C_CACHE_BYTES_WRITTEN: &str = "cache.bytes_written";

/// Bytes of binary ACFG shard data read back by cache loads and
/// streamed record fetches.
pub const C_CACHE_BYTES_READ: &str = "cache.bytes_read";

/// Vertices removed by graph reduction (`--reduce`), summed over every
/// [`REDUCE_APPLY`] application.
pub const C_REDUCE_NODES_REMOVED: &str = "reduce.nodes_removed";

/// Edges removed by graph reduction (`--reduce`), summed over every
/// [`REDUCE_APPLY`] application.
pub const C_REDUCE_EDGES_REMOVED: &str = "reduce.edges_removed";

// ---- histograms --------------------------------------------------------

/// Per-worker busy time over one epoch's forward/backward jobs, in
/// microseconds. Fields: `worker`, `epoch`. The spread across workers
/// is the load imbalance of the data-parallel executor.
pub const H_WORKER_BUSY_US: &str = "train.worker_busy_us";

/// Wall-clock the epoch spent inside mini-batch fan-out (the parallel
/// region), in microseconds. Fields: `epoch`. Fan-out × lanes less the
/// summed [`H_WORKER_BUSY_US`] is the time lanes waited at batch
/// barriers (`magic profile` prints it as lane wait).
pub const H_EPOCH_FANOUT_US: &str = "train.fanout_us";

/// Time the epoch spent in the gradient reduce + clip + optimizer step,
/// in microseconds: the sum of the epoch's [`OP_HOST_REDUCE`],
/// [`OP_HOST_CLIP`] and [`OP_HOST_STEP`] rows. The reduce and the step
/// run split across the lanes and count their summed lane time; the
/// clip norm runs on one thread. Fields: `epoch`.
pub const H_EPOCH_UPDATE_US: &str = "train.update_us";

/// High-water mark of live tensor element bytes over one epoch, as
/// reported by `magic_tensor::mem` (peak reset at each epoch start).
/// Fields: `epoch`. Only emitted when tensor memory accounting is
/// enabled alongside the recorder.
pub const H_MEM_PEAK_BYTES: &str = "train.mem_peak_bytes";

/// Tensor buffers heap-allocated during one epoch (delta of
/// `magic_tensor::mem` `allocations`). Fields: `epoch`. Only emitted
/// when tensor memory accounting is enabled. A warm workspace pool
/// should pin this near the non-pooled residue (leaf clones, op glue);
/// a regression here means per-sample buffers stopped recycling.
pub const H_ALLOC_COUNT: &str = "train.alloc_count";

/// Workspace-pool checkouts served from recycled buffers during one
/// epoch, summed over worker-lane tapes. Fields: `epoch`.
pub const H_POOL_HITS: &str = "train.pool_hits";

/// Workspace-pool checkouts that fell through to a fresh heap
/// allocation during one epoch, summed over worker-lane tapes. Fields:
/// `epoch`. After the first (warm-up) epoch this should be zero for a
/// fixed workload shape.
pub const H_POOL_MISSES: &str = "train.pool_misses";

/// Number of requests fused into one `magic serve` micro-batch, one
/// observation per executed batch. The mean is the effective batching
/// factor; compare against `--max-batch` to see whether the window or
/// the cap is binding.
pub const H_SERVE_BATCH_SIZE: &str = "serve.batch_size";

/// End-to-end request latency observed by `magic serve` (enqueue →
/// response written), in microseconds, one observation per 2xx
/// response.
pub const H_SERVE_LATENCY_US: &str = "serve.latency_us";

/// Queue depth sampled at each successful enqueue — the backlog a new
/// request joins. Persistent values near `--queue-depth` mean the
/// server is saturated and about to shed.
pub const H_SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";

/// Time one predict request spent reading + decoding HTTP, in
/// microseconds (the `parse` lifecycle stage; schema v3).
pub const H_SERVE_PARSE_US: &str = "serve.parse_us";

/// Time one predict request spent in ACFG extraction (listing parse →
/// CFG → attributes) on the IO thread, in microseconds (the `extract`
/// lifecycle stage; schema v3).
pub const H_SERVE_EXTRACT_US: &str = "serve.extract_us";

/// Time one predict request waited in the batching queue before a model
/// worker picked it up, in microseconds (the `queue` lifecycle stage;
/// schema v3). Grows with `--batch-window-us` by design.
pub const H_SERVE_QUEUE_WAIT_US: &str = "serve.queue_wait_us";

/// Time one predict request spent inside the fused forward pass, in
/// microseconds (the `execute` lifecycle stage; schema v3). Shared by
/// every request in the batch.
pub const H_SERVE_EXECUTE_US: &str = "serve.execute_us";

/// Time one predict request spent writing its response bytes, in
/// microseconds (the `write` lifecycle stage; schema v3).
pub const H_SERVE_WRITE_US: &str = "serve.write_us";

// ---- op profile (schema v2) --------------------------------------------

/// Host-side pseudo-op kinds used by `op_profile` events (phase
/// `"host"`) to attribute per-epoch wall-clock that falls outside the
/// tape: parameter binding, streamed-sample decoding, gradient
/// accumulation/reduction, gradient clipping, the optimizer step, and
/// split evaluation. Tape op kinds (`"matmul"`, `"conv2d"`, …) are
/// defined by the autograd op registry; the full list lives in
/// `docs/OBSERVABILITY.md`.
pub const OP_HOST_BIND: &str = "param.bind";
/// Decoding a streamed sample's cache record into a model input, on
/// the lane that trains it; one call per training sample (phase
/// `"host"`).
pub const OP_HOST_DECODE: &str = "sample.decode";
/// Per-sample move of the parameter gradients into their batch slot
/// (phase `"host"`).
pub const OP_HOST_ACCUMULATE: &str = "grad.accumulate";
/// The batch-order gradient reduction across slots into the store, from
/// zero, one call per mini-batch split across the lanes; its time is
/// their summed lane time (phase `"host"`).
pub const OP_HOST_REDUCE: &str = "grad.reduce";
/// Global gradient-norm clipping, one call per mini-batch; absent when
/// clipping is off (phase `"host"`).
pub const OP_HOST_CLIP: &str = "grad.clip";
/// Optimizer parameter update, one call per mini-batch split across the
/// lanes; its time is their summed lane time (phase `"host"`).
pub const OP_HOST_STEP: &str = "optimizer.step";
/// Train/validation split evaluation (phase `"host"`).
pub const OP_HOST_EVALUATE: &str = "evaluate";
/// Worker busy time not attributable to any named op: tape bookkeeping,
/// forward glue between ops, the backward walk, and the profiling
/// timestamps themselves (phase `"host"`).
pub const OP_HOST_SAMPLE_OVERHEAD: &str = "sample.overhead";
