//! Model training: Adam over the Eq. (5) loss with the Section V-B
//! learning-rate schedule.
//!
//! # Threading model
//!
//! The mini-batch loop fans its samples across [`Lanes`], MAGIC's one
//! parallelism mechanism; each lane runs its sample through the model's
//! one forward pass as a [`GraphBatch`] of one. Lanes share the read-only
//! parameter store (`ParamStore::bind` takes `&self`) and each batch
//! position owns a [`GradBuffer`] that is folded back into the store
//! **in batch order** once all samples finish. Because the float
//! additions happen in the same order as the serial loop, and dropout
//! noise comes from per-sample [`Rng64::for_sample`] streams rather than
//! a shared generator, training is bitwise identical for any
//! `train_workers` value. The kernels themselves are single-threaded:
//! all parallelism is across samples.
//!
//! # Telemetry
//!
//! Host rows are timed by one helper, [`profile::time_host`]: lane work
//! (`param.bind`, `grad.accumulate`) records into the lane tape's
//! profile via [`Tape::host`], the serial reduce, clip, step and
//! evaluation into one trainer-owned [`OpProfile`] merged with the lanes
//! at epoch end. The only other epoch timer is the fan-out wall-clock.
//! Untraced, a timed region is one branch and a direct call.

use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use magic_autograd::{profile, OpProfile, Tape};
use magic_data::{batches, StreamedCorpus};
use magic_model::{Dgcnn, GraphBatch, GraphInput};
use magic_nn::{Adam, GradBuffer, ReduceLrOnPlateau};
use magic_tensor::Rng64;

use crate::executor::Lanes;

/// Where training samples come from: a fully materialized in-memory
/// slice, or a `magic-acfg/1` cache streamed record-by-record.
///
/// The two sources are bitwise interchangeable: sample identity is the
/// *global index*, which addresses the same canonical corpus order
/// either way, so shuffling, batching, dropout streams
/// ([`Rng64::for_sample`]), and every reduction order are untouched by
/// the choice of source.
#[derive(Clone, Copy)]
enum SampleSource<'a> {
    /// All graph inputs resident in memory.
    Ram(&'a [GraphInput]),
    /// Graph inputs decoded on demand from cache shards.
    Stream(&'a StreamedCorpus),
}

impl SampleSource<'_> {
    fn len(&self) -> usize {
        match self {
            SampleSource::Ram(inputs) => inputs.len(),
            SampleSource::Stream(corpus) => corpus.len(),
        }
    }

    /// Runs `consume` over `idx` in `chunk_size` chunks, handing in each
    /// chunk's global indices and its inputs (parallel to the indices):
    /// borrowed from the resident slice, or decoded by the prefetch
    /// thread for a streamed source.
    fn for_each_chunk(
        self,
        idx: &[usize],
        chunk_size: usize,
        mut consume: impl FnMut(&[usize], &[&GraphInput]),
    ) {
        match self {
            SampleSource::Ram(inputs) => {
                for chunk in batches(idx, chunk_size) {
                    let chunk_inputs: Vec<&GraphInput> =
                        chunk.iter().map(|&i| &inputs[i]).collect();
                    consume(&chunk, &chunk_inputs);
                }
            }
            SampleSource::Stream(corpus) => {
                with_prefetched_chunks(corpus, idx, chunk_size, |chunk, fetched| {
                    consume(chunk, &fetched.iter().collect::<Vec<_>>())
                });
            }
        }
    }
}

/// Iterates `idx` in `chunk_size` chunks, decoding each chunk's records
/// into [`GraphInput`]s on a background thread one chunk ahead of the
/// consumer (double-buffering through a bounded channel of depth 1), so
/// the next chunk's IO + decode overlaps the consumer's compute when a
/// core is spare.
///
/// # Panics
///
/// Panics if a record fails to decode mid-run (shards are fully
/// validated when the corpus is opened, so this means the cache changed
/// underneath the trainer).
fn with_prefetched_chunks(
    corpus: &StreamedCorpus,
    idx: &[usize],
    chunk_size: usize,
    mut consume: impl FnMut(&[usize], &[GraphInput]),
) {
    let chunk_list: Vec<Vec<usize>> = batches(idx, chunk_size);
    std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<Vec<GraphInput>>(1);
        let fetch_list = chunk_list.clone();
        scope.spawn(move || {
            for chunk in &fetch_list {
                let fetched =
                    corpus.fetch(chunk).expect("validated cache shard failed mid-epoch");
                if tx.send(fetched).is_err() {
                    break;
                }
            }
        });
        for chunk in &chunk_list {
            let fetched = rx.recv().expect("prefetch thread delivers every chunk");
            consume(chunk, &fetched);
        }
    });
}

/// Training hyperparameters not covered by the model architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training split (the paper uses 100).
    pub epochs: usize,
    /// Mini-batch size (Table II: 10 or 40).
    pub batch_size: usize,
    /// Initial Adam learning rate.
    pub learning_rate: f32,
    /// L2 weight regularization factor (Table II: 1e-4 or 5e-4).
    pub weight_decay: f32,
    /// Seed for shuffling and the per-sample dropout streams.
    pub seed: u64,
    /// Cap on the global gradient norm (0 disables clipping).
    pub grad_clip: f32,
    /// Learning-rate decay divisor on plateau (paper: 10).
    pub lr_decay_factor: f32,
    /// Consecutive rising-validation-loss epochs before decaying
    /// (paper: 2). On very small validation splits the loss is noisy
    /// enough that the paper's setting fires spuriously; raise this when
    /// training on reduced-scale corpora.
    pub lr_patience: usize,
    /// Worker lanes for mini-batch fan-out and evaluation. `0` means
    /// "auto" (the machine's available parallelism); `1` trains on the
    /// calling thread. The result is bitwise identical for every value —
    /// this knob only changes wall-clock time.
    pub train_workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 10,
            learning_rate: 1e-3,
            weight_decay: 1e-4,
            seed: 0,
            grad_clip: 5.0,
            lr_decay_factor: 10.0,
            lr_patience: 2,
            train_workers: 0,
        }
    }
}

/// Per-epoch bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index, from 0.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Mean validation loss (the model-selection criterion of V-B).
    pub val_loss: f32,
    /// Validation accuracy.
    pub val_accuracy: f64,
    /// Learning rate in effect during the epoch.
    pub learning_rate: f32,
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// One entry per epoch.
    pub history: Vec<EpochStats>,
    /// Minimum validation loss over all epochs (the paper's model score).
    pub best_val_loss: f32,
}

impl TrainOutcome {
    /// The *first* epoch achieving the minimum validation loss.
    ///
    /// Ties go to the earliest epoch: with an identical score, the model
    /// that got there in fewer updates is the one early stopping would
    /// have kept.
    pub fn best_epoch(&self) -> usize {
        let mut best = 0;
        let mut best_loss = f32::INFINITY;
        for stats in &self.history {
            if stats.val_loss < best_loss {
                best_loss = stats.val_loss;
                best = stats.epoch;
            }
        }
        best
    }
}

/// Trains a [`Dgcnn`] on pre-extracted graph inputs.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics on a zero batch size or zero epochs.
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.epochs > 0, "need at least one epoch");
        Trainer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on `train_idx` and validates on `val_idx` after
    /// every epoch, decaying the learning rate 10× after two consecutive
    /// epochs of rising validation loss (Section V-B).
    ///
    /// Per-sample work runs on the [`Lanes`] selected by
    /// [`TrainConfig::train_workers`]; the outcome (losses, weights,
    /// history) is bitwise independent of the worker count.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or a label exceeds the model's
    /// class count.
    pub fn train(
        &self,
        model: &mut Dgcnn,
        inputs: &[GraphInput],
        labels: &[usize],
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> TrainOutcome {
        self.train_source(model, SampleSource::Ram(inputs), labels, train_idx, val_idx)
    }

    /// [`train`](Self::train), but streaming samples from a validated
    /// `magic-acfg/1` cache instead of a resident slice: each
    /// mini-batch's records are decoded by a background prefetch thread
    /// one batch ahead of the compute (double-buffered through a
    /// bounded channel), so resident memory stays bounded by two
    /// batches plus the shard indices. The prefetch hides the decode
    /// only when a core is spare; with every core training, a streamed
    /// epoch is slower than one from RAM (docs/PERFORMANCE.md § 7).
    ///
    /// Because samples are addressed by the same global indices as the
    /// in-memory path — same shuffle, same batch composition, same
    /// [`Rng64::for_sample`] dropout streams, same reduction orders —
    /// the outcome is **bitwise identical** to [`train`](Self::train)
    /// on the equivalently ordered in-memory corpus, for every worker
    /// count.
    ///
    /// # Panics
    ///
    /// As [`train`](Self::train); additionally panics if a cache record
    /// fails to decode mid-run (the corpus is fully validated at open,
    /// so this means the shard files changed underneath the trainer).
    pub fn train_streamed(
        &self,
        model: &mut Dgcnn,
        corpus: &StreamedCorpus,
        labels: &[usize],
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> TrainOutcome {
        self.train_source(model, SampleSource::Stream(corpus), labels, train_idx, val_idx)
    }

    fn train_source(
        &self,
        model: &mut Dgcnn,
        source: SampleSource<'_>,
        labels: &[usize],
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> TrainOutcome {
        assert_eq!(source.len(), labels.len(), "one label per input");
        let num_classes = model.config().num_classes;
        for &l in labels {
            assert!(l < num_classes, "label {l} exceeds {num_classes} classes");
        }

        let lanes = Lanes::new(self.config.train_workers);
        // One reusable tape per worker lane (lanes run their jobs
        // sequentially, so the lock is never contended) and one gradient
        // buffer per batch position, so the reduction below can replay
        // the serial float-addition order exactly.
        let lane_state: Vec<Mutex<Lane>> = (0..lanes.workers()).map(|_| Mutex::default()).collect();
        let grad_slots: Vec<Mutex<GradBuffer>> = (0..self.config.batch_size)
            .map(|_| Mutex::new(GradBuffer::for_store(model.store())))
            .collect();
        // Host rows timed on this thread: reduce, clip, step, evaluate.
        let mut host = OpProfile::new();

        let mut rng = Rng64::new(self.config.seed);
        let mut optimizer = Adam::new(self.config.learning_rate, self.config.weight_decay);
        let mut scheduler =
            ReduceLrOnPlateau::new(self.config.lr_decay_factor, self.config.lr_patience, 1e-7);
        let mut history = Vec::with_capacity(self.config.epochs);
        let mut best_val_loss = f32::INFINITY;

        let _train_span = magic_obs::span_fields(
            magic_obs::stage::TRAIN,
            &[
                ("epochs", self.config.epochs as f64),
                ("train_samples", train_idx.len() as f64),
                ("workers", lanes.workers() as f64),
                ("isa", f64::from(magic_tensor::simd::isa().code())),
            ],
        );

        let run_start = Instant::now();
        let mut order: Vec<usize> = train_idx.to_vec();
        // Running totals behind the per-epoch allocation histograms: lane
        // workspace stats and the global `mem` counters are cumulative, so
        // each epoch emits the delta against the previous epoch's total.
        let mut prev_pool = magic_tensor::WorkspaceStats::default();
        let mut prev_allocations = magic_tensor::mem::stats().allocations;
        for epoch in 0..self.config.epochs {
            // Telemetry is observational only: timers are read but never
            // feed back into the numerics, so a traced run stays bitwise
            // identical to an untraced one.
            let traced = magic_obs::is_enabled();
            let _epoch_span =
                magic_obs::span_fields(magic_obs::stage::TRAIN_EPOCH, &[("epoch", epoch as f64)]);
            for lane in &lane_state {
                lane.lock().expect("unpoisoned lane").tape.set_profiling(traced);
            }
            if traced {
                magic_tensor::mem::reset_peak();
            }

            rng.shuffle(&mut order);
            let mut train_loss_total = 0.0;
            let mut fanout = Duration::ZERO;
            // The mini-batch body, generic over where samples live.
            // Everything numeric — batch composition, dropout streams,
            // reduction orders — depends only on the global indices in
            // `batch`, which is what keeps the two sources bitwise
            // identical.
            source.for_each_chunk(&order, self.config.batch_size, |batch, inputs| {
                let store = model.store();
                let fanout_start = traced.then(Instant::now);
                let losses: Vec<f32> = lanes.run(batch.len(), |worker, j| {
                    let mut lane = lane_state[worker].lock().expect("unpoisoned lane");
                    lane.job(|tape| {
                        let i = batch[j];
                        tape.reset();
                        let binding =
                            tape.host(magic_obs::stage::OP_HOST_BIND, |tape| store.bind(tape));
                        // Dropout draws come from a stream keyed on
                        // (seed, epoch, sample), not on batch composition
                        // or scheduling, so every worker count sees the
                        // same noise.
                        let mut sample_rng =
                            Rng64::for_sample(self.config.seed, epoch as u64, i as u64);
                        let lp = model.forward(
                            tape,
                            &binding,
                            &GraphBatch::single(inputs[j]),
                            true,
                            std::slice::from_mut(&mut sample_rng),
                        );
                        let row_loss = tape.nll_loss_rows(lp, vec![labels[i]]);
                        let loss = tape.sum(row_loss);
                        let item = tape.value(loss).item();
                        tape.backward(loss);
                        tape.host(magic_obs::stage::OP_HOST_ACCUMULATE, |tape| {
                            let mut buffer = grad_slots[j].lock().expect("unpoisoned grad slot");
                            buffer.zero();
                            buffer.accumulate(tape, &binding);
                        });
                        item
                    })
                });
                if let Some(start) = fanout_start {
                    fanout += start.elapsed();
                }

                let store = model.store_mut();
                host.time_host(traced, magic_obs::stage::OP_HOST_REDUCE, || {
                    store.zero_grads();
                    for (j, loss) in losses.iter().enumerate() {
                        train_loss_total += loss;
                        // Reduce in batch order — this is what makes the
                        // sum bitwise identical to the serial loop.
                        store.reduce(&grad_slots[j].lock().expect("unpoisoned grad slot"));
                    }
                });
                if self.config.grad_clip > 0.0 {
                    let clip = self.config.grad_clip * batch.len() as f32;
                    host.time_host(traced, magic_obs::stage::OP_HOST_CLIP, || {
                        store.clip_grad_norm(clip)
                    });
                }
                host.time_host(traced, magic_obs::stage::OP_HOST_STEP, || {
                    optimizer.step(store, batch.len())
                });
            });
            let train_loss = train_loss_total / train_idx.len().max(1) as f32;
            // So far this epoch `host` holds exactly the reduce, clip and
            // step rows.
            let update_ns = host.total_self_ns();

            let (val_loss, val_accuracy) =
                host.time_host(traced, magic_obs::stage::OP_HOST_EVALUATE, || {
                    // Evaluation reuses the warm worker-lane tapes so
                    // inference buffers also come from the recycled pools.
                    // Profiling is switched off first: eval time is
                    // already attributed to the `evaluate` host row, so
                    // letting eval ops record into the lane profiles
                    // would double-count it.
                    for lane in &lane_state {
                        lane.lock().expect("unpoisoned lane").tape.set_profiling(false);
                    }
                    evaluate_source(
                        lanes,
                        &lane_state,
                        self.config.batch_size,
                        model,
                        source,
                        labels,
                        val_idx,
                    )
                });
            let learning_rate = optimizer.learning_rate();
            scheduler.observe(val_loss, &mut optimizer);
            best_val_loss = best_val_loss.min(val_loss);

            if traced {
                let epoch_field = ("epoch", epoch as f64);
                let mut pool_total = magic_tensor::WorkspaceStats::default();
                for (worker, lane) in lane_state.iter().enumerate() {
                    let lane = lane.lock().expect("unpoisoned lane");
                    magic_obs::histogram_fields(
                        magic_obs::stage::H_WORKER_BUSY_US,
                        (lane.busy_ns / 1_000) as f64,
                        &[("worker", worker as f64), epoch_field],
                    );
                    let pool = lane.tape.workspace_stats();
                    pool_total.hits += pool.hits;
                    pool_total.misses += pool.misses;
                }
                magic_obs::histogram_fields(
                    magic_obs::stage::H_EPOCH_FANOUT_US,
                    fanout.as_micros() as f64,
                    &[epoch_field],
                );
                magic_obs::histogram_fields(
                    magic_obs::stage::H_EPOCH_UPDATE_US,
                    (update_ns / 1_000) as f64,
                    &[epoch_field],
                );
                magic_obs::counter(magic_obs::stage::C_TRAIN_SAMPLES, order.len() as f64);
                magic_obs::histogram_fields(
                    magic_obs::stage::H_POOL_HITS,
                    (pool_total.hits - prev_pool.hits) as f64,
                    &[epoch_field],
                );
                magic_obs::histogram_fields(
                    magic_obs::stage::H_POOL_MISSES,
                    (pool_total.misses - prev_pool.misses) as f64,
                    &[epoch_field],
                );
                prev_pool = pool_total;
                if magic_tensor::mem::is_enabled() {
                    let stats = magic_tensor::mem::stats();
                    magic_obs::histogram_fields(
                        magic_obs::stage::H_MEM_PEAK_BYTES,
                        stats.peak_bytes as f64,
                        &[epoch_field],
                    );
                    magic_obs::histogram_fields(
                        magic_obs::stage::H_ALLOC_COUNT,
                        stats.allocations.saturating_sub(prev_allocations) as f64,
                        &[epoch_field],
                    );
                    prev_allocations = stats.allocations;
                }
                flush_op_profiles(&lane_state, host.take(), epoch, order.len() as u64);
            }
            if magic_obs::log_enabled(magic_obs::Level::Info) {
                // Live progress/ETA line: mean epoch time so far projects
                // the remaining wall-clock.
                let done = epoch + 1;
                let elapsed = run_start.elapsed().as_secs_f64();
                let per_epoch = elapsed / done as f64;
                let eta = per_epoch * (self.config.epochs - done) as f64;
                magic_obs::log(
                    magic_obs::Level::Info,
                    format!(
                        "epoch {done}/{}: train loss {train_loss:.4}, val loss {val_loss:.4}, \
                         val accuracy {:.1}%, lr {learning_rate:.2e} · {:.2}s/epoch · ETA {}",
                        self.config.epochs,
                        val_accuracy * 100.0,
                        per_epoch,
                        fmt_eta(eta),
                    ),
                );
            }
            history.push(EpochStats { epoch, train_loss, val_loss, val_accuracy, learning_rate });
        }
        TrainOutcome { history, best_val_loss }
    }
}

/// One worker lane's tape, and the wall-clock it spent in training jobs
/// since the last flush (counted only while the tape profiles).
#[derive(Default)]
struct Lane {
    tape: Tape,
    busy_ns: u64,
}

impl Lane {
    /// Runs one training sample's job on this lane's tape.
    fn job<R>(&mut self, f: impl FnOnce(&mut Tape) -> R) -> R {
        let start = self.tape.profiling().then(Instant::now);
        let out = f(&mut self.tape);
        if let Some(start) = start {
            self.busy_ns += start.elapsed().as_nanos() as u64;
        }
        out
    }
}

/// Drains every lane's tape profile and busy time into `merged` (the
/// trainer's own host rows) and flushes one `op_profile` event per row;
/// host rows are labelled `-`. Then flushes `sample.overhead`: lane busy
/// time that no lane-profile row explains (tape bookkeeping, forward
/// wiring, the backward walk), so the profile sums to the epoch. Called
/// once per traced epoch, inside the epoch span (so flamegraphs can
/// attach the rows to it).
fn flush_op_profiles(
    lane_state: &[Mutex<Lane>],
    mut merged: OpProfile,
    epoch: usize,
    samples: u64,
) {
    let (mut busy_ns, mut lane_self_ns) = (0u64, 0u64);
    for lane in lane_state {
        let mut lane = lane.lock().expect("unpoisoned lane");
        let lane_profile = lane.tape.take_profile();
        busy_ns += std::mem::take(&mut lane.busy_ns);
        lane_self_ns += lane_profile.total_self_ns();
        merged.merge(&lane_profile);
    }
    let epoch_field = [("epoch", epoch as f64)];
    for (key, stat) in merged.sorted_rows() {
        let shape_class = if key.phase == profile::PHASE_HOST {
            "-".to_string()
        } else {
            profile::bucket_label(key.shape_bucket)
        };
        magic_obs::op_profile(
            key.kind,
            key.phase,
            &shape_class,
            stat.calls,
            stat.self_ns,
            stat.flops,
            stat.bytes_out,
            &epoch_field,
        );
    }
    let overhead_ns = busy_ns.saturating_sub(lane_self_ns);
    if overhead_ns > 0 {
        magic_obs::op_profile(
            magic_obs::stage::OP_HOST_SAMPLE_OVERHEAD,
            profile::PHASE_HOST,
            "-",
            samples,
            overhead_ns,
            0,
            0,
            &epoch_field,
        );
    }
}

/// Formats a projected remaining duration at a human scale.
fn fmt_eta(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.1}h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.1}m", seconds / 60.0)
    } else {
        format!("{seconds:.0}s")
    }
}

/// Mean validation loss and accuracy of `model` on `idx`, fanning
/// per-sample inference across `workers` lanes (`0` = auto; `1` runs on
/// the calling thread).
///
/// Per-sample losses are summed in index order afterwards, so the result
/// is identical for any worker count.
pub fn evaluate_with(
    workers: usize,
    model: &Dgcnn,
    inputs: &[GraphInput],
    labels: &[usize],
    idx: &[usize],
) -> (f32, f64) {
    let lanes = Lanes::new(workers);
    let lane_state: Vec<Mutex<Lane>> = (0..lanes.workers()).map(|_| Mutex::default()).collect();
    evaluate_source(lanes, &lane_state, idx.len(), model, SampleSource::Ram(inputs), labels, idx)
}

/// The one evaluation loop: mean loss and accuracy of `model` on `idx`,
/// each sample predicted as a batch of one on a worker lane's tape (warm
/// trainer tapes serve inference from their recycled pools; pooled
/// buffers are zero-filled on checkout, so reuse never changes a bit).
/// A streamed source is decoded `chunk_size` records at a time, one
/// chunk ahead of the compute. Chunking only bounds how many records are
/// alive at once: losses are accumulated in `idx` order across chunk
/// boundaries, so the result is bitwise identical for every source,
/// chunk size and lane count.
fn evaluate_source(
    lanes: Lanes,
    lane_state: &[Mutex<Lane>],
    chunk_size: usize,
    model: &Dgcnn,
    source: SampleSource<'_>,
    labels: &[usize],
    idx: &[usize],
) -> (f32, f64) {
    if idx.is_empty() {
        return (0.0, 0.0);
    }
    let _span =
        magic_obs::span_fields(magic_obs::stage::EVALUATE, &[("samples", idx.len() as f64)]);
    let mut loss_total = 0.0f32;
    let mut correct = 0usize;
    source.for_each_chunk(idx, chunk_size, |chunk, inputs| {
        let per_sample: Vec<(f32, bool)> = lanes.run(chunk.len(), |worker, j| {
            let label = labels[chunk[j]];
            let mut lane = lane_state[worker].lock().expect("unpoisoned lane");
            let probs = model.predict_with(&mut lane.tape, inputs[j]);
            let p = probs[label].clamp(1e-15, 1.0);
            let arg = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(c, _)| c)
                .unwrap_or(0);
            (-p.ln(), arg == label)
        });
        for &(loss, hit) in &per_sample {
            loss_total += loss;
            correct += usize::from(hit);
        }
    });
    (loss_total / idx.len() as f32, correct as f64 / idx.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_graph::{Acfg, DiGraph, NUM_ATTRIBUTES};
    use magic_model::{DgcnnConfig, PoolingHead};
    use magic_tensor::Tensor;

    /// Two easily separable synthetic classes.
    fn toy_data() -> (Vec<GraphInput>, Vec<usize>) {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let label = i % 2;
            let mut rng = Rng64::new(500 + i as u64);
            let n = 8;
            let mut g = DiGraph::new(n);
            for v in 0..n - 1 {
                g.add_edge(v, v + 1);
            }
            if label == 1 {
                // Class 1 is loop-shaped.
                g.add_edge(n - 1, 0);
            }
            let hi = if label == 1 { 6.0 } else { 1.5 };
            let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, hi, &mut rng);
            inputs.push(GraphInput::from_acfg(&Acfg::new(g, attrs)));
            labels.push(label);
        }
        (inputs, labels)
    }

    #[test]
    fn training_converges_on_toy_classes() {
        let (inputs, labels) = toy_data();
        let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
        let mut model = Dgcnn::new(&config, 9);
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 4,
            learning_rate: 0.02,
            weight_decay: 1e-4,
            seed: 1,
            grad_clip: 5.0,
            train_workers: 1,
            ..TrainConfig::default()
        });
        let train_idx: Vec<usize> = (0..16).collect();
        let val_idx: Vec<usize> = (16..20).collect();
        let outcome = trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
        assert_eq!(outcome.history.len(), 30);
        assert!(outcome.best_val_loss < outcome.history[0].val_loss);
        let (_, acc) = evaluate_with(1, &model, &inputs, &labels, &val_idx);
        assert!(acc >= 0.75, "val accuracy {acc}");
    }

    #[test]
    fn history_tracks_learning_rate_decay() {
        let (inputs, labels) = toy_data();
        let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
        let mut model = Dgcnn::new(&config, 10);
        // Absurdly high LR forces the validation loss to bounce, which
        // must trigger the 10x decay.
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            batch_size: 4,
            learning_rate: 1.0,
            weight_decay: 0.0,
            seed: 2,
            grad_clip: 0.0,
            train_workers: 1,
            ..TrainConfig::default()
        });
        let idx: Vec<usize> = (0..20).collect();
        let outcome = trainer.train(&mut model, &inputs, &labels, &idx, &idx);
        let first = outcome.history.first().unwrap().learning_rate;
        let last = outcome.history.last().unwrap().learning_rate;
        assert!(last <= first, "lr {first} -> {last}");
    }

    /// The core determinism guarantee of the data-parallel engine: the
    /// entire epoch history (losses, accuracies, learning rates) and the
    /// final weights are bitwise identical for 1, 2, and 4 workers.
    #[test]
    fn worker_count_does_not_change_training_bitwise() {
        use magic_autograd::first_bitwise_mismatch;
        let (inputs, labels) = toy_data();
        let train_idx: Vec<usize> = (0..16).collect();
        let val_idx: Vec<usize> = (16..20).collect();

        let run = |workers: usize| {
            let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
            let mut model = Dgcnn::new(&config, 9);
            let trainer = Trainer::new(TrainConfig {
                epochs: 4,
                batch_size: 4,
                learning_rate: 0.02,
                seed: 3,
                train_workers: workers,
                ..TrainConfig::default()
            });
            let outcome = trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
            (outcome, model)
        };

        let (serial_outcome, serial_model) = run(1);
        for workers in [2, 4] {
            let (outcome, model) = run(workers);
            assert_eq!(
                outcome.history, serial_outcome.history,
                "history diverged with {workers} workers"
            );
            assert_eq!(outcome.best_val_loss, serial_outcome.best_val_loss);
            for (name, value) in model.store().iter() {
                let reference = serial_model.store();
                let id = reference.find(name).expect("same parameter set");
                assert_eq!(
                    first_bitwise_mismatch(value, reference.value(id)),
                    None,
                    "weights for {name} diverged with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn best_epoch_points_at_minimum_val_loss() {
        let outcome = TrainOutcome {
            history: vec![
                EpochStats { epoch: 0, train_loss: 1.0, val_loss: 0.9, val_accuracy: 0.5, learning_rate: 0.1 },
                EpochStats { epoch: 1, train_loss: 0.8, val_loss: 0.4, val_accuracy: 0.7, learning_rate: 0.1 },
                EpochStats { epoch: 2, train_loss: 0.6, val_loss: 0.5, val_accuracy: 0.7, learning_rate: 0.1 },
            ],
            best_val_loss: 0.4,
        };
        assert_eq!(outcome.best_epoch(), 1);
    }

    #[test]
    fn best_epoch_breaks_ties_towards_the_first_minimum() {
        let stats = |epoch: usize, val_loss: f32| EpochStats {
            epoch,
            train_loss: 1.0,
            val_loss,
            val_accuracy: 0.5,
            learning_rate: 0.1,
        };
        let outcome = TrainOutcome {
            history: vec![stats(0, 0.9), stats(1, 0.4), stats(2, 0.4), stats(3, 0.4)],
            best_val_loss: 0.4,
        };
        assert_eq!(outcome.best_epoch(), 1);
    }

    #[test]
    fn parallel_evaluate_matches_serial() {
        let (inputs, labels) = toy_data();
        let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
        let model = Dgcnn::new(&config, 4);
        let idx: Vec<usize> = (0..20).collect();
        let serial = evaluate_with(1, &model, &inputs, &labels, &idx);
        for workers in [2, 3, 8] {
            let parallel = evaluate_with(workers, &model, &inputs, &labels, &idx);
            assert_eq!(parallel, serial, "evaluate diverged with {workers} workers");
        }
    }

    #[test]
    fn evaluate_on_empty_set_is_zero() {
        let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
        let model = Dgcnn::new(&config, 0);
        assert_eq!(evaluate_with(1, &model, &[], &[], &[]), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn train_rejects_out_of_range_labels() {
        let (inputs, _) = toy_data();
        let labels = vec![9; inputs.len()];
        let config = DgcnnConfig::new(2, PoolingHead::sort_pool_weighted(8));
        let mut model = Dgcnn::new(&config, 0);
        Trainer::new(TrainConfig::default()).train(&mut model, &inputs, &labels, &[0], &[1]);
    }
}
