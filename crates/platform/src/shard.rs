//! Sharded fleet replay: fleet-scale traces across OS threads with a
//! deterministic merge.
//!
//! # Model
//!
//! A fleet trace (e.g. the Azure-style workload of `xanadu-workloads`)
//! is a set of workflows, each with its own trigger schedule and — by
//! construction in every fleet experiment — its own function namespace,
//! so warm sandboxes are never shared across workflows. That makes the
//! *workflow* the natural unit of parallelism: each becomes a **logical
//! shard** owning a full [`Platform`] (event queue, worker pool, host
//! registry, RNG streams). Shards share nothing, so no shard ever waits
//! on another.
//!
//! The driver is a **work queue**: shards are sorted largest-first (by
//! trigger count, ties by shard index) and `threads` OS threads claim
//! them one at a time from a single atomic cursor, each running its
//! shard to idle. Largest-first keeps the tail short: the last shards
//! claimed are the smallest, so threads finish close together.
//!
//! # Determinism
//!
//! The merged [`PlatformReport`] is **byte-identical for any thread
//! count**: each logical shard's simulation is a self-contained
//! deterministic event loop seeded from `(seed, workflow-name)`, and the
//! merge is canonical —
//!
//! * global request ids are assigned by sorting *all* triggers by
//!   `(time, shard, local sequence)`, shards ordered by workflow name;
//! * worker ids are remapped by prefix sums of per-shard worker counts
//!   in the same shard order;
//! * results are emitted in global-request-id order.
//!
//! Shards record no per-request traces (each shard's config has
//! [`record_traces`](PlatformConfig::record_traces) off), so memory grows
//! with the fleet's results, not with its timelines. A fleet-wide audit
//! streams instead: set [`ShardTelemetry::streaming`].
//!
//! Thread scheduling can only change which thread runs a shard and
//! when, never which events a shard sees or in what order.
//!
//! Note that a sharded replay is a different composition than feeding
//! the same fleet into one shared [`Platform`]: the single-platform run
//! interleaves all workflows through one RNG/pool/cluster, so its
//! report is *internally* deterministic but not byte-comparable with
//! the sharded one. The legacy path remains the default; sharding is
//! opt-in for fleet-scale runs (CLI `--shards`).

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use xanadu_chain::WorkflowDag;
use xanadu_sandbox::WorkerId;
use xanadu_simcore::{RngStream, SimDuration, SimTime};

use crate::config::PlatformConfig;
use crate::hosts::ClusterReport;
use crate::obs::MetricsRegistry;
use crate::result::{PlatformReport, RunResult};
use crate::sim::{Platform, PlatformError};
use crate::stream::{SloConfig, SloMonitor, StreamingAudit, StreamingConfig};

/// One logical shard's input: a workflow and its trigger schedule.
#[derive(Debug, Clone)]
pub struct ShardWorkload {
    /// The workflow to deploy on this shard.
    pub dag: WorkflowDag,
    /// Trigger times (any order; the driver sorts them ascending).
    pub triggers: Vec<SimTime>,
}

/// Driver knobs for a sharded replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// OS threads that claim logical shards from the work queue.
    /// Clamped to `[1, logical shards]`; the thread count never affects
    /// report bytes, only wall-clock time.
    pub threads: usize,
    /// Has no effect: the work-queue driver runs every shard to idle and
    /// has no time windows. Kept only so existing struct literals still
    /// compile; set fields with `..ShardOptions::default()` instead.
    pub window: SimDuration,
}

impl Default for ShardOptions {
    /// Single thread.
    fn default() -> Self {
        ShardOptions {
            threads: 1,
            window: SimDuration::from_mins(1),
        }
    }
}

/// Optional per-shard telemetry attached by the driver. Everything here
/// streams in bounded memory and merges canonically, so enabling it
/// never perturbs report bytes or the byte-identity guarantee of its own
/// exports.
#[derive(Debug, Clone, Default)]
pub struct ShardTelemetry {
    /// Attach a [`StreamingAudit`] to every shard; the merged audit lands
    /// in [`ShardedRun::streaming`].
    pub streaming: Option<StreamingConfig>,
    /// Attach a collector-mode [`SloMonitor`] to every shard; the merged
    /// monitor lands in [`ShardedRun::slo`].
    pub slo: Option<SloConfig>,
    /// Attach a [`MetricsRegistry`] to every shard; the merged registry
    /// lands in [`ShardedRun::metrics`] (the report's own `metrics` field
    /// stays `None`, keeping report bytes unchanged).
    pub metrics: bool,
    /// Print a wall-clock-gated heartbeat (shards finished, events/sec,
    /// ETA) to stderr at most once a second. Diagnostics only: never
    /// written to any export.
    pub progress: bool,
}

/// Deterministic per-shard kernel counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShardProfile {
    /// Shard index in canonical (workflow-name) order.
    pub index: usize,
    /// The workflow this shard simulated.
    pub workflow: String,
    /// Simulation events the shard processed.
    pub events: u64,
    /// High-water mark of the shard's event queue.
    pub queue_peak: u64,
}

/// The kernel self-profile of a sharded replay: deterministic per-shard
/// counters plus wall-clock driver costs.
///
/// The per-shard counters (`shards`) depend only on the event streams
/// and are safe to include in deterministic exports via
/// [`deterministic_registry`](Self::deterministic_registry). The
/// wall-clock numbers (`barrier_wait_us`, `merge_us`) vary run to run and
/// belong only in bench output.
#[derive(Debug, Clone, Default, Serialize)]
pub struct KernelProfile {
    /// Per-shard counters, shard-index order.
    pub shards: Vec<ShardProfile>,
    /// OS threads the fleet ran on.
    pub threads: usize,
    /// Always 0: the work-queue driver has no time windows. Kept only
    /// for source compatibility.
    pub windows: u64,
    /// Wall-clock microseconds each OS thread sat idle at the final
    /// join, waiting for the last thread to finish its shards
    /// (nondeterministic).
    pub barrier_wait_us: Vec<u64>,
    /// Wall-clock microseconds the canonical merge took
    /// (nondeterministic).
    pub merge_us: u64,
}

impl KernelProfile {
    /// Total events processed across all shards.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Largest event-queue high-water mark across shards.
    pub fn queue_peak(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_peak).max().unwrap_or(0)
    }

    /// The deterministic subset as `kernel.*` counters, suitable for
    /// merging into a metrics export without breaking byte identity.
    pub fn deterministic_registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::default();
        registry.incr("kernel.shards", self.shards.len() as u64);
        registry.incr("kernel.events", self.events());
        registry.incr("kernel.queue_peak", self.queue_peak());
        registry
    }
}

/// Outcome of a sharded replay.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The canonically merged report: results in global-request-id
    /// order, worker ids remapped by shard prefix sums, `metrics`
    /// always `None`. Byte-identical for any `threads`.
    pub report: PlatformReport,
    /// Number of logical shards (= workflows) the fleet was split into.
    pub logical_shards: usize,
    /// Total simulation events processed across all shards.
    pub events_processed: u64,
    /// Merged streaming audit (exemplar ids remapped to global request
    /// ids), when [`ShardTelemetry::streaming`] was set.
    pub streaming: Option<StreamingAudit>,
    /// Merged SLO collector, when [`ShardTelemetry::slo`] was set. Call
    /// [`SloMonitor::report`] to evaluate it.
    pub slo: Option<SloMonitor>,
    /// Merged per-shard metrics, when [`ShardTelemetry::metrics`] was
    /// set.
    pub metrics: Option<MetricsRegistry>,
    /// Kernel self-profile (always populated).
    pub profile: KernelProfile,
}

/// Everything a worker thread needs to build and run one shard.
struct ShardInput {
    /// Index in name-sorted shard order (the canonical merge order).
    index: usize,
    name: String,
    dag: WorkflowDag,
    triggers: Vec<SimTime>,
}

/// A shard's raw output before merging.
struct ShardOutput {
    index: usize,
    name: String,
    triggers: Vec<SimTime>,
    report: PlatformReport,
    events: u64,
    queue_peak: u64,
    streaming: Option<StreamingAudit>,
    slo: Option<SloMonitor>,
    metrics: Option<MetricsRegistry>,
}

/// Replays a fleet of independent workflows as logical shards over
/// `opts.threads` OS threads and merges the outcome deterministically.
///
/// Each workflow runs on its own [`Platform`] cloned from `base` with
/// per-shard seeds derived from `(base.seed, workflow name)` (and
/// likewise for the fault seed), so adding, removing or renaming one
/// workflow never perturbs the others' simulations. Shards never record
/// per-request traces, whatever `base.record_traces` says; audit a fleet
/// with [`replay_sharded_with`] and [`ShardTelemetry::streaming`].
///
/// # Errors
///
/// [`PlatformError::AlreadyDeployed`] if two workloads share a
/// workflow name — shards are keyed by name, so duplicates would
/// collide in the merge.
///
/// # Example
///
/// ```
/// use xanadu_chain::{linear_chain, FunctionSpec};
/// use xanadu_core::speculation::ExecutionMode;
/// use xanadu_platform::shard::{replay_sharded, ShardOptions, ShardWorkload};
/// use xanadu_platform::PlatformConfig;
/// use xanadu_simcore::SimTime;
///
/// let workloads: Vec<ShardWorkload> = (0..4)
///     .map(|i| ShardWorkload {
///         dag: linear_chain(
///             &format!("wf{i}"),
///             3,
///             &FunctionSpec::new(format!("wf{i}-f")).service_ms(300.0),
///         )
///         .unwrap(),
///         triggers: vec![SimTime::from_secs(i)],
///     })
///     .collect();
/// let config = PlatformConfig::for_mode(ExecutionMode::Jit, 42);
/// let run = replay_sharded(&config, workloads, &ShardOptions::default()).unwrap();
/// assert_eq!(run.report.results.len(), 4);
/// assert_eq!(run.logical_shards, 4);
/// ```
pub fn replay_sharded(
    base: &PlatformConfig,
    workloads: Vec<ShardWorkload>,
    opts: &ShardOptions,
) -> Result<ShardedRun, PlatformError> {
    replay_sharded_with(base, workloads, opts, &ShardTelemetry::default())
}

/// [`replay_sharded`] with per-shard telemetry: streaming audits, SLO
/// collectors and metrics registries are attached to every shard's
/// platform and merged canonically into the [`ShardedRun`].
///
/// The merged report bytes are identical to a telemetry-free run — the
/// observers only *read* the event stream — and every telemetry export
/// is itself byte-identical at any `threads` width. The streaming audit
/// is the fleet's audit: shards keep no traces to build one from.
pub fn replay_sharded_with(
    base: &PlatformConfig,
    workloads: Vec<ShardWorkload>,
    opts: &ShardOptions,
    telemetry: &ShardTelemetry,
) -> Result<ShardedRun, PlatformError> {
    // Canonical shard order: by workflow name. Everything downstream
    // (seeds, global ids, worker-id offsets) keys off this order, so the
    // caller's workload order is irrelevant to the output.
    let mut inputs: Vec<ShardInput> = workloads
        .into_iter()
        .map(|w| ShardInput {
            index: 0,
            name: w.dag.name().to_string(),
            dag: w.dag,
            triggers: {
                let mut t = w.triggers;
                t.sort();
                t
            },
        })
        .collect();
    inputs.sort_by(|a, b| a.name.cmp(&b.name));
    for pair in inputs.windows(2) {
        if pair[0].name == pair[1].name {
            return Err(PlatformError::AlreadyDeployed(pair[0].name.clone()));
        }
    }
    for (i, input) in inputs.iter_mut().enumerate() {
        input.index = i;
    }
    let logical_shards = inputs.len();
    if logical_shards == 0 {
        return Ok(ShardedRun {
            report: PlatformReport::default(),
            logical_shards: 0,
            events_processed: 0,
            streaming: telemetry.streaming.map(StreamingAudit::new),
            slo: telemetry.slo.clone().map(SloMonitor::collector),
            metrics: telemetry.metrics.then(MetricsRegistry::new),
            profile: KernelProfile::default(),
        });
    }

    let threads = opts.threads.clamp(1, logical_shards);
    let progress = telemetry.progress.then(|| Progress {
        start: Instant::now(),
        shards: logical_shards,
        triggers: inputs.iter().map(|i| i.triggers.len() as u64).sum(),
        state: Mutex::new((Instant::now(), 0, 0, 0)),
    });
    // Claim order: largest first, so the tail of the queue is short work.
    inputs.sort_by_key(|i| (Reverse(i.triggers.len()), i.index));
    let queue: Vec<Mutex<Option<ShardInput>>> =
        inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let slot = queue.get(cursor.fetch_add(1, Ordering::Relaxed))?;
        slot.lock().expect("queue slot lock").take()
    };
    let outputs = Mutex::new(Vec::with_capacity(logical_shards));
    let finished: Vec<Instant> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    while let Some(input) = claim() {
                        let output = run_shard(base, input, telemetry);
                        if let Some(progress) = &progress {
                            progress.shard_done(&output);
                        }
                        outputs.lock().expect("outputs lock").push(output);
                    }
                    Instant::now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    // The only wait left: each thread idles from running out of shards
    // until the last thread finishes.
    let last = *finished.iter().max().expect("at least one thread ran");
    let barrier_wait_us = finished
        .iter()
        .map(|&t| (last - t).as_micros() as u64)
        .collect();
    let mut outputs: Vec<ShardOutput> = outputs.into_inner().expect("outputs lock");
    outputs.sort_by_key(|o| o.index);

    let merge_start = Instant::now();
    let mut run = merge(outputs, logical_shards);
    run.profile.threads = threads;
    run.profile.barrier_wait_us = barrier_wait_us;
    run.profile.merge_us = merge_start.elapsed().as_micros() as u64;
    Ok(run)
}

/// Builds one shard's platform, runs it to idle and finishes it.
fn run_shard(base: &PlatformConfig, input: ShardInput, telemetry: &ShardTelemetry) -> ShardOutput {
    let mut config = base.clone();
    // FNV-stable per-shard sub-seeds: a shard's draws depend only on the
    // master seed and its own name, never on fleet composition or thread
    // placement.
    config.seed = RngStream::derive(base.seed, &input.name).next_u64();
    config.faults.seed = RngStream::derive(base.faults.seed, &input.name).next_u64();
    config.record_traces = false;
    let mut platform = Platform::new(config);
    platform.reserve_invocations(input.triggers.len());
    platform
        .deploy(input.dag)
        .expect("fresh platform has no deployments");
    for &at in &input.triggers {
        platform
            .trigger_at(&input.name, at)
            .expect("workflow was just deployed");
    }
    // Telemetry observers: collector-mode SLO (evaluation happens once,
    // post-merge) and a plain metrics observer (not `attach_metrics`,
    // which would embed the registry into the report and change its
    // bytes).
    let streaming = telemetry
        .streaming
        .map(|cfg| platform.attach_observer(StreamingAudit::new(cfg)));
    let slo = telemetry
        .slo
        .clone()
        .map(|cfg| platform.attach_observer(SloMonitor::collector(cfg)));
    let metrics = telemetry
        .metrics
        .then(|| platform.attach_observer(MetricsRegistry::new()));
    let events = platform.run_until_idle();
    let queue_peak = platform.queue_peak() as u64;
    ShardOutput {
        index: input.index,
        name: input.name,
        triggers: input.triggers,
        report: platform.finish(),
        events,
        queue_peak,
        streaming: streaming.map(|h| h.snapshot()),
        slo: slo.map(|h| h.snapshot()),
        metrics: metrics.map(|h| h.snapshot()),
    }
}

/// The `--progress` heartbeat: fleet totals and running counts.
struct Progress {
    start: Instant,
    shards: usize,
    triggers: u64,
    /// Last beat, then shards, triggers and events finished so far.
    state: Mutex<(Instant, usize, u64, u64)>,
}

impl Progress {
    /// Counts a finished shard and, at most once a second, prints one
    /// stderr line. Wall-clock only — never touches exports.
    fn shard_done(&self, output: &ShardOutput) {
        let mut state = self.state.lock().expect("heartbeat lock");
        let (last_beat, shards, triggers, events) = &mut *state;
        *shards += 1;
        *triggers += output.triggers.len() as u64;
        *events += output.events;
        if last_beat.elapsed().as_secs() < 1 {
            return;
        }
        *last_beat = Instant::now();
        // ETA from the finished shards' share of the fleet's triggers.
        let elapsed = self.start.elapsed().as_secs_f64();
        let left = elapsed * (self.triggers - *triggers) as f64 / (*triggers).max(1) as f64;
        eprintln!(
            "replay: {shards}/{} shards finished, {events} events @ {:.0}/s, eta ~{left:.0}s",
            self.shards,
            *events as f64 / elapsed,
        );
    }
}

/// Canonical merge of per-shard outputs (inputs sorted by shard index).
fn merge(outputs: Vec<ShardOutput>, logical_shards: usize) -> ShardedRun {
    // Global request ids: all triggers sorted by (time, shard, local
    // sequence). Local ids within a shard are already trigger-time
    // ordered, so this is a stable k-way interleave.
    let mut order: Vec<(SimTime, usize, u64)> = Vec::new();
    for out in &outputs {
        for (local, &at) in out.triggers.iter().enumerate() {
            order.push((at, out.index, local as u64));
        }
    }
    order.sort();
    let mut global: Vec<Vec<u64>> = outputs.iter().map(|o| vec![0; o.triggers.len()]).collect();
    for (gid, &(_, shard, local)) in order.iter().enumerate() {
        global[shard][local as usize] = gid as u64;
    }

    let mut results: Vec<RunResult> = Vec::with_capacity(order.len());
    let mut records = Vec::new();
    let mut events_processed = 0u64;
    let mut worker_offset = 0u64;
    let mut shard_profiles: Vec<ShardProfile> = Vec::new();
    let mut streaming: Option<StreamingAudit> = None;
    let mut slo: Option<SloMonitor> = None;
    let mut metrics: Option<MetricsRegistry> = None;
    let mut cluster: Option<ClusterReport> = None;
    for out in outputs {
        let map = &global[out.index];
        for mut r in out.report.results {
            r.request = map[r.request as usize];
            results.push(r);
        }
        // finish() sorts records by id and ids are dense per platform,
        // so offsetting by (max id + 1) keeps the merged ledger dense.
        let next_offset = out
            .report
            .worker_records
            .last()
            .map_or(worker_offset, |r| worker_offset + r.id.0 + 1);
        for mut r in out.report.worker_records {
            r.id = WorkerId(r.id.0 + worker_offset);
            records.push(r);
        }
        worker_offset = next_offset;
        events_processed += out.events;
        shard_profiles.push(ShardProfile {
            index: out.index,
            workflow: out.name,
            events: out.events,
            queue_peak: out.queue_peak,
        });
        // Telemetry merges in shard-index order — the same canonical
        // order as everything above, so merged telemetry is as
        // thread-invariant as the report itself.
        if let Some(mut audit) = out.streaming {
            audit.remap_exemplar_requests(|local| map[local as usize]);
            match &mut streaming {
                None => streaming = Some(audit),
                Some(acc) => acc.merge_from(&audit),
            }
        }
        if let Some(monitor) = out.slo {
            match &mut slo {
                None => slo = Some(monitor),
                Some(acc) => acc.merge_from(&monitor),
            }
        }
        if let Some(registry) = out.metrics {
            match &mut metrics {
                None => metrics = Some(registry),
                Some(acc) => acc.merge_from(&registry),
            }
        }
        // Every logical shard runs its own replica of the configured
        // cluster, so host rows fold by id and counters sum.
        if let Some(report) = out.report.cluster {
            match &mut cluster {
                None => cluster = Some(report),
                Some(acc) => acc.merge_from(&report),
            }
        }
    }
    results.sort_by_key(|r| r.request);

    ShardedRun {
        report: PlatformReport {
            results,
            worker_records: records,
            metrics: None,
            cluster,
        },
        logical_shards,
        events_processed,
        streaming,
        slo,
        metrics,
        profile: KernelProfile {
            shards: shard_profiles,
            threads: 0,
            windows: 0,
            barrier_wait_us: Vec::new(),
            merge_us: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use xanadu_chain::{linear_chain, FunctionSpec};
    use xanadu_core::speculation::ExecutionMode;

    fn fleet(workflows: usize, triggers_each: usize) -> Vec<ShardWorkload> {
        (0..workflows)
            .map(|i| {
                let name = format!("wf{i}");
                let template = FunctionSpec::new(format!("{name}-f")).service_ms(300.0);
                ShardWorkload {
                    dag: linear_chain(&name, 4, &template).expect("valid chain"),
                    triggers: (0..triggers_each)
                        .map(|k| SimTime::from_secs((k * 40 + i) as u64))
                        .collect(),
                }
            })
            .collect()
    }

    fn config(faults: bool) -> PlatformConfig {
        let mut builder = PlatformConfig::builder().for_mode(ExecutionMode::Jit, 77);
        if faults {
            builder = builder.faults(FaultConfig::with_rate(0.25, 5));
        }
        builder.build().expect("valid config")
    }

    fn run_with(threads: usize, faults: bool) -> ShardedRun {
        let opts = ShardOptions {
            threads,
            ..ShardOptions::default()
        };
        replay_sharded(&config(faults), fleet(5, 6), &opts).expect("replay succeeds")
    }

    #[test]
    fn thread_count_never_changes_report_bytes() {
        let baseline = run_with(1, false);
        let expected = serde_json::to_string(&baseline.report).unwrap();
        for threads in [2, 3, 5, 8] {
            let run = run_with(threads, false);
            assert_eq!(
                serde_json::to_string(&run.report).unwrap(),
                expected,
                "threads={threads}"
            );
            assert_eq!(run.events_processed, baseline.events_processed);
        }
    }

    /// Under faults, reports are thread-invariant and match an
    /// independent oracle: each shard's slice of the merged report equals
    /// a standalone platform built with that shard's derived seeds and
    /// run to idle, once its request and worker ids are remapped by the
    /// documented rules. The driver adds nothing of its own.
    #[test]
    fn deterministic_under_faults() {
        let run = run_with(1, true);
        assert_eq!(
            serde_json::to_string(&run.report).unwrap(),
            serde_json::to_string(&run_with(4, true).report).unwrap()
        );
        let base = config(true);
        // `fleet` is already in name order with ascending triggers.
        let mut order: Vec<(SimTime, usize, usize)> = Vec::new();
        for (shard, w) in fleet(5, 6).iter().enumerate() {
            order.extend(w.triggers.iter().enumerate().map(|(l, &at)| (at, shard, l)));
        }
        order.sort();
        let mut worker_offset = 0;
        for (shard, w) in fleet(5, 6).into_iter().enumerate() {
            let name = w.dag.name().to_string();
            let mut config = base.clone();
            config.seed = RngStream::derive(base.seed, &name).next_u64();
            config.faults.seed = RngStream::derive(base.faults.seed, &name).next_u64();
            let mut platform = Platform::new(config);
            platform.deploy(w.dag).unwrap();
            for &at in &w.triggers {
                platform.trigger_at(&name, at).unwrap();
            }
            platform.run_until_idle();
            let mut alone = platform.finish();
            for r in &mut alone.results {
                let local = r.request as usize;
                let gid = order.iter().position(|&(_, s, l)| (s, l) == (shard, local));
                r.request = gid.unwrap() as u64;
            }
            for rec in &mut alone.worker_records {
                rec.id = WorkerId(rec.id.0 + worker_offset);
            }
            worker_offset += alone.worker_records.len() as u64;

            let results: Vec<RunResult> = run
                .report
                .results
                .iter()
                .filter(|r| r.workflow == name)
                .cloned()
                .collect();
            assert_eq!(results, alone.results, "results of {name}");
            let prefix = format!("{name}-f");
            let records: Vec<_> = run
                .report
                .worker_records
                .iter()
                .filter(|r| r.function.starts_with(&prefix))
                .cloned()
                .collect();
            assert_eq!(records, alone.worker_records, "worker records of {name}");
        }
        assert!(
            run.report.worker_records.iter().any(|r| r.crashed),
            "faults are on"
        );
    }

    #[test]
    fn global_request_ids_follow_trigger_order() {
        let run = run_with(2, false);
        assert_eq!(run.logical_shards, 5);
        assert_eq!(run.report.results.len(), 30);
        for (gid, r) in run.report.results.iter().enumerate() {
            assert_eq!(r.request, gid as u64);
        }
        for pair in run.report.results.windows(2) {
            assert!(pair[0].trigger <= pair[1].trigger, "sorted by trigger");
        }
    }

    #[test]
    fn worker_ids_are_dense_after_merge() {
        let run = run_with(3, false);
        for (i, r) in run.report.worker_records.iter().enumerate() {
            assert_eq!(r.id.0, i as u64, "dense remapped worker ids");
        }
    }

    #[test]
    fn trace_recording_in_the_base_config_never_changes_report_bytes() {
        let opts = ShardOptions {
            threads: 2,
            ..ShardOptions::default()
        };
        let mut base = config(true);
        assert!(base.record_traces, "on by default");
        let recorded = replay_sharded(&base, fleet(5, 6), &opts).expect("replay");
        base.record_traces = false;
        let silent = replay_sharded(&base, fleet(5, 6), &opts).expect("replay");
        assert_eq!(silent.report.results.len(), 30);
        assert_eq!(
            serde_json::to_string(&recorded.report).unwrap(),
            serde_json::to_string(&silent.report).unwrap()
        );
        assert_eq!(recorded.events_processed, silent.events_processed);
    }

    fn run_with_telemetry(threads: usize) -> ShardedRun {
        let config = PlatformConfig::for_mode(ExecutionMode::Jit, 77);
        let opts = ShardOptions {
            threads,
            ..ShardOptions::default()
        };
        let telemetry = ShardTelemetry {
            streaming: Some(crate::stream::StreamingConfig { exemplars: 3 }),
            slo: Some(crate::stream::SloConfig::default()),
            metrics: true,
            progress: false,
        };
        replay_sharded_with(&config, fleet(5, 6), &opts, &telemetry).expect("replay succeeds")
    }

    #[test]
    fn telemetry_is_thread_invariant() {
        let baseline = run_with_telemetry(1);
        let summary = baseline.streaming.as_ref().unwrap().summary();
        assert_eq!(summary.requests, 30);
        let slo_report = baseline.slo.as_ref().unwrap().report();
        let metrics = baseline.metrics.clone().unwrap();
        assert!(metrics.counters["requests.completed"] == 30);
        for threads in [2, 4, 8] {
            let run = run_with_telemetry(threads);
            assert_eq!(
                run.streaming.as_ref().unwrap().summary(),
                summary,
                "threads={threads}"
            );
            assert_eq!(run.slo.as_ref().unwrap().report(), slo_report);
            assert_eq!(run.metrics.clone().unwrap(), metrics);
            let a: Vec<(u64, u64)> = baseline
                .streaming
                .as_ref()
                .unwrap()
                .exemplars()
                .iter()
                .map(|e| (e.request, e.end_to_end_us))
                .collect();
            let b: Vec<(u64, u64)> = run
                .streaming
                .as_ref()
                .unwrap()
                .exemplars()
                .iter()
                .map(|e| (e.request, e.end_to_end_us))
                .collect();
            assert_eq!(a, b, "exemplar reservoir is thread-invariant");
        }
    }

    #[test]
    fn telemetry_never_perturbs_report_bytes() {
        let plain = run_with(1, false);
        let observed = run_with_telemetry(4);
        assert_eq!(
            serde_json::to_string(&plain.report).unwrap(),
            serde_json::to_string(&observed.report).unwrap()
        );
    }

    #[test]
    fn kernel_profile_counts_the_fleet() {
        let run = run_with_telemetry(3);
        assert_eq!(run.profile.shards.len(), 5);
        assert_eq!(run.profile.threads, 3);
        assert_eq!(run.profile.windows, 0, "the work queue has no windows");
        assert_eq!(run.profile.events(), run.events_processed);
        assert_eq!(
            run.profile.barrier_wait_us.len(),
            3,
            "one join wait per thread"
        );
        // Every trigger is scheduled before the shard runs, so the exact
        // high-water mark is at least the largest shard's trigger count.
        assert!(run.profile.queue_peak() >= 6);
        let names: Vec<&str> = run
            .profile
            .shards
            .iter()
            .map(|s| s.workflow.as_str())
            .collect();
        assert_eq!(
            names,
            ["wf0", "wf1", "wf2", "wf3", "wf4"],
            "canonical order"
        );
        let registry = run.profile.deterministic_registry();
        assert_eq!(registry.counters["kernel.shards"], 5);
        assert_eq!(registry.counters["kernel.events"], run.events_processed);
        assert!(registry.counters["kernel.queue_peak"] > 0);
        assert!(!registry.counters.contains_key("kernel.windows"));
    }

    #[test]
    fn exemplar_requests_use_global_ids() {
        let run = run_with_telemetry(2);
        let audit = run.streaming.as_ref().unwrap();
        for e in audit.exemplars() {
            assert!(e.request < 30, "global request id in range");
            let tree = e.span_tree().expect("span tree");
            assert!(tree.root.name.contains(&format!("request {}", e.request)));
        }
    }

    #[test]
    fn duplicate_workflow_names_are_rejected() {
        let mut workloads = fleet(2, 1);
        workloads.push(workloads[0].clone());
        let config = PlatformConfig::for_mode(ExecutionMode::Jit, 1);
        let err = replay_sharded(&config, workloads, &ShardOptions::default()).unwrap_err();
        assert!(matches!(err, PlatformError::AlreadyDeployed(name) if name == "wf0"));
    }

    #[test]
    fn empty_fleet_yields_empty_report() {
        let config = PlatformConfig::for_mode(ExecutionMode::Jit, 1);
        let run = replay_sharded(&config, Vec::new(), &ShardOptions::default()).unwrap();
        assert_eq!(run.logical_shards, 0);
        assert!(run.report.results.is_empty());
        assert_eq!(run.events_processed, 0);
    }
}
