//! Model training: Adam over the Eq. (5) loss with the Section V-B
//! learning-rate schedule.
//!
//! # Threading model
//!
//! The mini-batch loop fans its samples across [`Lanes`], MAGIC's one
//! parallelism mechanism, largest graph first; each lane runs its sample
//! through the model's one forward pass as a [`GraphBatch`] of one. Lanes
//! share the parameter store: `ParamStore::bind` leafs each parameter as
//! a shared reference, not a copy. Each batch position owns a
//! [`GradBuffer`] that the lane moves the sample's gradients into, and
//! the lane tape drops its binding at the end of the job. Once all
//! samples finish, the buffers are folded back into the store **in batch
//! order** and Adam steps, both split across the lanes by element range,
//! while the clip norm sums on one thread in its serial order. Because
//! every float addition happens in the same order as the serial loop,
//! and dropout noise comes from per-sample [`Rng64::for_sample`] streams
//! rather than a shared generator, training is bitwise identical for any
//! `train_workers` value. A streamed sample is decoded from its cache
//! shard inside its own lane job, so the lanes are the trainer's only
//! threads. The kernels themselves are single-threaded: all parallelism
//! is across samples and, in the update, across weights.
//!
//! # Telemetry
//!
//! Host rows are timed by one helper, [`profile::time_host`]: lane work
//! (`sample.decode`, `param.bind`, `grad.accumulate`) records into the
//! lane tape's profile via [`Tape::host`], the clip and evaluation into
//! one trainer-owned [`OpProfile`] merged with the lanes at epoch end.
//! The reduce and step rows are charged the lane time their element
//! ranges took, summed over the lanes. The only other epoch timer is the
//! fan-out wall-clock. Untraced, a timed region is one branch and a
//! direct call.

use std::borrow::Cow;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use magic_autograd::{profile, OpProfile, Tape};
use magic_data::StreamedCorpus;
use magic_model::{Dgcnn, GraphBatch, GraphInput};
use magic_nn::{Adam, GradBuffer, PartJob, ReduceLrOnPlateau};
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

impl<'a> SampleSource<'a> {
    fn len(&self) -> usize {
        match self {
            SampleSource::Ram(inputs) => inputs.len(),
            SampleSource::Stream(corpus) => corpus.len(),
        }
    }

    /// Vertex count of sample `i`, without decoding it.
    fn vertex_count(&self, i: usize) -> usize {
        match self {
            SampleSource::Ram(inputs) => inputs[i].vertex_count(),
            SampleSource::Stream(corpus) => corpus.vertex_counts()[i],
        }
    }

    /// Positions of `indices` in the order the lanes are dealt them:
    /// largest graph first, ties in position order, so the lane that
    /// draws the last job draws a small one.
    fn largest_first(&self, indices: &[usize]) -> Vec<usize> {
        let mut deal: Vec<usize> = (0..indices.len()).collect();
        deal.sort_by_key(|&j| std::cmp::Reverse(self.vertex_count(indices[j])));
        deal
    }

    /// Sample `i` for a job on a lane's `tape`: borrowed from the
    /// resident slice, or decoded from its shard on the lane itself and
    /// timed as the tape's `sample.decode` host row. A streamed source
    /// thus holds one decoded sample per busy lane.
    ///
    /// # Panics
    ///
    /// Panics if a record fails to decode mid-run (shards are fully
    /// validated when the corpus is opened, so this means the cache
    /// changed underneath the trainer).
    fn sample(self, tape: &mut Tape, i: usize) -> Cow<'a, GraphInput> {
        match self {
            SampleSource::Ram(inputs) => Cow::Borrowed(&inputs[i]),
            SampleSource::Stream(corpus) => {
                let mut fetched = tape.host(magic_obs::stage::OP_HOST_DECODE, |_| {
                    corpus.fetch(&[i]).expect("validated cache shard failed mid-epoch")
                });
                Cow::Owned(fetched.pop().expect("one input per index"))
            }
        }
    }
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
    /// `magic-acfg/1` cache instead of a resident slice: each lane job
    /// decodes its own sample by global index, on the lane, before
    /// training on it, so resident memory stays bounded by one sample
    /// per lane plus the shard indices, and the decode work splits
    /// across the lanes like the rest of the per-sample work
    /// (docs/PERFORMANCE.md § 7).
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
        let mut grad_slots: Vec<Mutex<GradBuffer>> = (0..self.config.batch_size)
            .map(|_| Mutex::new(GradBuffer::for_store(model.store())))
            .collect();
        // Host rows of the update and evaluation: reduce, clip, step,
        // evaluate.
        let mut host = OpProfile::new();
        // The reduce and the step run as one element range per lane; when
        // traced, a row is charged the lane time its ranges took in total.
        let on_lanes = |traced: bool| {
            move |parts: usize, job: PartJob<'_>| -> u64 {
                let lane_ns = lanes.run(parts, |_, p| {
                    let start = traced.then(Instant::now);
                    job(p);
                    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
                });
                lane_ns.iter().sum()
            }
        };

        let mut rng = Rng64::new(self.config.seed);
        let mut optimizer = Adam::new(self.config.learning_rate, self.config.weight_decay);
        let mut scheduler = ReduceLrOnPlateau::new(self.config.lr_patience, 1e-7);
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
            for batch in order.chunks(self.config.batch_size) {
                let store = model.store();
                let deal = source.largest_first(batch);
                let fanout_start = traced.then(Instant::now);
                let losses = run_dealt(lanes, &deal, |worker, j| {
                    let mut lane = lane_state[worker].lock().expect("unpoisoned lane");
                    lane.job(|tape| {
                        let i = batch[j];
                        let input = source.sample(tape, i);
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
                            &GraphBatch::single(&input),
                            true,
                            std::slice::from_mut(&mut sample_rng),
                        );
                        let row_loss = tape.nll_loss_rows(lp, vec![labels[i]]);
                        let loss = tape.sum(row_loss);
                        let item = tape.value(loss).item();
                        tape.backward(loss);
                        tape.host(magic_obs::stage::OP_HOST_ACCUMULATE, |tape| {
                            let mut slot = grad_slots[j].lock().expect("unpoisoned grad slot");
                            slot.take_from(tape, &binding);
                        });
                        // Drop the shared parameter leaves, so the step
                        // below updates every parameter in place.
                        tape.reset();
                        item
                    })
                });
                if let Some(start) = fanout_start {
                    fanout += start.elapsed();
                }

                let store = model.store_mut();
                for loss in &losses {
                    train_loss_total += loss;
                }
                let slots: Vec<&GradBuffer> = grad_slots[..batch.len()]
                    .iter_mut()
                    .map(|slot| &*slot.get_mut().expect("unpoisoned grad slot"))
                    .collect();
                // Reduce in batch order — this is what makes the sum
                // bitwise identical to the serial loop.
                let reduce_ns = store.reduce(&slots, lanes.workers(), on_lanes(traced));
                if traced {
                    host.record_host(magic_obs::stage::OP_HOST_REDUCE, reduce_ns);
                }
                if self.config.grad_clip > 0.0 {
                    let clip = self.config.grad_clip * batch.len() as f32;
                    host.time_host(traced, magic_obs::stage::OP_HOST_CLIP, || {
                        store.clip_grad_norm(clip)
                    });
                }
                let step_ns =
                    optimizer.step_parts(store, batch.len(), lanes.workers(), on_lanes(traced));
                if traced {
                    host.record_host(magic_obs::stage::OP_HOST_STEP, step_ns);
                }
            }
            let train_loss = train_loss_total / train_idx.len().max(1) as f32;
            // So far this epoch `host` holds exactly the reduce, clip and
            // step rows (reduce and step in lane time).
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
                    evaluate_source(lanes, &lane_state, model, source, labels, val_idx)
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

/// Runs `f(lane, j)` for every batch position `j`, dealing the positions
/// to the lanes in `deal`'s order, and returns the results by position,
/// so what the caller sums does not depend on the deal.
fn run_dealt<T: Send>(
    lanes: Lanes,
    deal: &[usize],
    f: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    let mut dealt = lanes.run(deal.len(), |lane, k| (deal[k], f(lane, deal[k])));
    dealt.sort_unstable_by_key(|&(j, _)| j);
    dealt.into_iter().map(|(_, out)| out).collect()
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
    evaluate_source(lanes, &lane_state, model, SampleSource::Ram(inputs), labels, idx)
}

/// The one evaluation loop: mean loss and accuracy of `model` on `idx`,
/// each sample predicted as a batch of one on a worker lane's tape (warm
/// trainer tapes serve inference from their recycled pools; pooled
/// buffers are zero-filled on checkout, so reuse never changes a bit).
/// A streamed sample is decoded on the lane that predicts it. Losses are
/// summed in `idx` order afterwards, so the result is bitwise identical
/// for every source and lane count.
fn evaluate_source(
    lanes: Lanes,
    lane_state: &[Mutex<Lane>],
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
    let deal = source.largest_first(idx);
    let per_sample: Vec<(f32, bool)> = run_dealt(lanes, &deal, |worker, j| {
        let i = idx[j];
        let mut lane = lane_state[worker].lock().expect("unpoisoned lane");
        let input = source.sample(&mut lane.tape, i);
        let probs = model.predict_with(&mut lane.tape, &input);
        // Drop the shared parameter leaves before the next step.
        lane.tape.reset();
        let p = probs[labels[i]].clamp(1e-15, 1.0);
        (-p.ln(), magic_tensor::argmax(&probs) == Some(labels[i]))
    });
    let mut loss_total = 0.0f32;
    let mut correct = 0usize;
    for &(loss, hit) in &per_sample {
        loss_total += loss;
        correct += usize::from(hit);
    }
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
        // A high rate with patience 1 makes the validation loss rise
        // within a few epochs, which must cut the rate tenfold.
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            batch_size: 4,
            learning_rate: 0.1,
            weight_decay: 0.0,
            seed: 2,
            grad_clip: 0.0,
            lr_patience: 1,
            train_workers: 1,
        });
        let idx: Vec<usize> = (0..20).collect();
        let history = trainer.train(&mut model, &inputs, &labels, &idx, &idx).history;
        let rates: Vec<f32> = history.iter().map(|e| e.learning_rate).collect();
        assert_eq!(rates[0], 0.1);
        let cut = rates
            .iter()
            .position(|&lr| lr < rates[0])
            .unwrap_or_else(|| panic!("the decay never fired: {rates:?}"));
        assert_eq!(rates[cut], rates[0] / magic_nn::LR_DECAY_FACTOR, "{rates:?}");
        // The cut follows an epoch whose validation loss rose.
        assert!(history[cut - 1].val_loss > history[cut - 2].val_loss, "{history:?}");
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

    /// Twenty chain graphs of 4 to 40 vertices, so one batch holds
    /// graphs a tenfold apart and largest-first dealing reorders it.
    fn uneven_data() -> (Vec<GraphInput>, Vec<usize>) {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let n = [4, 40, 7, 22, 13, 31, 5, 18][i % 8] + i / 8;
            let mut g = DiGraph::new(n);
            for v in 0..n - 1 {
                g.add_edge(v, v + 1);
            }
            if i % 3 == 0 {
                g.add_edge(n - 1, 0);
            }
            let mut rng = Rng64::new(900 + i as u64);
            let attrs = Tensor::rand_uniform([n, NUM_ATTRIBUTES], 0.0, 4.0, &mut rng);
            inputs.push(GraphInput::from_acfg(&Acfg::new(g, attrs)));
            labels.push(usize::from(i % 3 == 0));
        }
        (inputs, labels)
    }

    /// Largest-first dealing and the range-split reduce and step leave
    /// no trace in the result: 1, 2 and 3 lanes (3 cuts the weights into
    /// uneven parts) train bitwise alike, for a SortPool head and the
    /// adaptive head.
    #[test]
    fn uneven_batches_train_bitwise_alike_at_1_2_and_3_lanes() {
        let (inputs, labels) = uneven_data();
        let train_idx: Vec<usize> = (0..15).collect();
        let val_idx: Vec<usize> = (15..20).collect();
        for head in [PoolingHead::sort_pool_weighted(8), PoolingHead::adaptive_max_pool(3)] {
            let run = |workers: usize| {
                let mut model = Dgcnn::new(&DgcnnConfig::new(2, head.clone()), 21);
                let trainer = Trainer::new(TrainConfig {
                    epochs: 3,
                    batch_size: 5,
                    learning_rate: 0.01,
                    seed: 4,
                    train_workers: workers,
                    ..TrainConfig::default()
                });
                let outcome = trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
                let weights: Vec<u32> = model
                    .store()
                    .iter()
                    .flat_map(|(_, t)| t.as_slice().iter().map(|x| x.to_bits()))
                    .collect();
                (outcome.history, weights)
            };
            let serial = run(1);
            for workers in [2, 3] {
                assert!(run(workers) == serial, "{head:?}: {workers} lanes diverged");
            }
        }
    }

    /// Dealing sets the order the lanes take the jobs in, never where a
    /// result lands: losses are summed by batch position.
    #[test]
    fn run_dealt_runs_in_deal_order_and_returns_by_position() {
        let ran = Mutex::new(Vec::new());
        let deal = [2, 0, 3, 1];
        let out = run_dealt(Lanes::new(1), &deal, |_, j| {
            ran.lock().unwrap().push(j);
            j * 10
        });
        assert_eq!(*ran.lock().unwrap(), deal);
        assert_eq!(out, [0, 10, 20, 30]);
        assert_eq!(run_dealt(Lanes::new(3), &deal, |_, j| j * 10), [0, 10, 20, 30]);
    }

    #[test]
    fn largest_first_deals_by_vertex_count_then_position() {
        let (inputs, _) = uneven_data();
        // Vertex counts 4, 40, 7, 22 and, at index 8, 4 + 1 = 5.
        let deal = SampleSource::Ram(&inputs).largest_first(&[0, 1, 2, 3, 8, 0]);
        assert_eq!(deal, [1, 3, 2, 4, 0, 5]);
    }

    /// Lane tapes drop their binding after every job and evaluation, so
    /// `Arc::make_mut` in the step never finds a parameter shared: each
    /// one keeps its buffer across 2-lane epochs. Batches of 5 fan out
    /// on both lanes; batches of 1 run on lane 0 alone, so lane 1 goes
    /// from one epoch's evaluation into the next epoch's steps.
    #[test]
    fn two_lane_epochs_update_every_parameter_in_place() {
        let (inputs, labels) = uneven_data();
        let config = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
        let buffers = |model: &Dgcnn| -> Vec<*const f32> {
            model.store().iter().map(|(_, t)| t.as_slice().as_ptr()).collect()
        };
        for batch_size in [5, 1] {
            let mut model = Dgcnn::new(&config, 8);
            let before = buffers(&model);
            let weights = model.store().iter().map(|(_, t)| t.clone()).collect::<Vec<_>>();
            let trainer = Trainer::new(TrainConfig {
                epochs: 2,
                batch_size,
                train_workers: 2,
                ..TrainConfig::default()
            });
            let train_idx: Vec<usize> = (0..15).collect();
            trainer.train(&mut model, &inputs, &labels, &train_idx, &[15, 16, 17]);
            assert_eq!(buffers(&model), before, "batches of {batch_size}: a step copied");
            let store = model.store();
            let moved = store.iter().zip(&weights).filter(|((_, now), was)| now != was).count();
            assert!(moved > 0, "batches of {batch_size}: no weight changed");
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
