//! Streaming telemetry: bounded-memory audits and live SLO gates.
//!
//! The batch audit tier ([`analysis`](crate::analysis)) derives its
//! numbers from full per-request [`Trace`]s, which is exact but cannot
//! survive fleet-scale replays — a 1M-invocation run would retain a
//! million timelines. This module recomputes the same accounting *online*
//! from the typed [`BusEvent`] stream via the [`Observer`] trait:
//!
//! - [`StreamingAudit`] keeps O(1) state per in-flight request plus O(1)
//!   state per function — fixed-bucket [`Histogram`]s of end-to-end
//!   latency and critical-path components, per-edge MLP hit/miss
//!   counters, wasted-deploy CPU accumulators, and a deterministic
//!   reservoir of the K worst requests (kept as reconstructed traces, so
//!   exemplar [`SpanTree`]s survive without retaining everything else).
//! - [`SloMonitor`] folds completed requests into tumbling windows and
//!   evaluates [`DiffThresholds`] against the first non-empty window; in
//!   live mode every breach becomes a typed
//!   [`BusEvent::SloAlert`](crate::events::BusEvent::SloAlert).
//!
//! Agreement with the exact audit is by construction: the per-request
//! tracker replays the *identical* interval-partition algorithm
//! (`RequestAudit::from_trace`), fed by bus events instead of trace
//! events, so every count, component total and MLP/JIT/waste statistic
//! matches exactly (totals up to float rounding of the accumulation
//! order). Only the latency *quantiles* are approximate: they are
//! bucket-interpolated from [`LATENCY_BUCKET_BOUNDS_MS`]-shaped
//! histograms, so a streaming quantile is guaranteed to land in (or
//! adjacent to, on bucket-boundary ties) the fixed bucket containing the
//! exact order statistic.
//!
//! Everything here merges canonically: per-shard state is a deterministic
//! function of the shard's event stream, and the sharded replay driver
//! merges shard states in canonical (workflow-name) shard order, so
//! exports are byte-identical at any `--shards`/`--jobs` width.

use crate::analysis::{
    drop_regression, pct_regression, DiffThresholds, JitSample, MlpStats, WasteStats, ABS_FLOOR_MS,
};
use crate::events::BusEvent;
use crate::obs::{Histogram, Observer, LATENCY_BUCKET_BOUNDS_MS};
use crate::timeline::{SpanTree, Trace, TraceEventKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use xanadu_simcore::{SimDuration, SimTime};

// ---------------------------------------------------------------------
// Per-request tracker (shared by StreamingAudit and SloMonitor)
// ---------------------------------------------------------------------

/// One deployment attributed to an in-flight request.
#[derive(Debug, Clone)]
struct DeployRec {
    function: String,
    start_us: u64,
    ready_us: u64,
    on_demand: bool,
    used: bool,
}

/// Bookkeeping for one in-flight request. Dropped (and folded into the
/// aggregates) the moment its `RequestCompleted` event arrives, so live
/// memory is bounded by in-flight concurrency, not by run length.
#[derive(Debug, Clone, Default)]
struct PendingRequest {
    t0_us: u64,
    deploys: Vec<DeployRec>,
    open_waits: Vec<(String, u64)>,
    open_execs: Vec<(String, u64)>,
    exec_iv: Vec<(u64, u64)>,
    cold_iv: Vec<(u64, u64)>,
    warm_iv: Vec<(u64, u64)>,
    predicted: Vec<String>,
    invoked: Vec<String>,
    invoke_at: Vec<(String, u64)>,
    missed: Vec<String>,
    /// Reconstructed timeline, recorded only when the tracker keeps
    /// traces (exemplar reservoir enabled).
    trace: Trace,
}

/// The finished accounting of one request — the streaming equivalent of
/// `RequestAudit`, produced the instant the request completes.
#[derive(Debug, Clone)]
pub(crate) struct RequestDigest {
    request: u64,
    completed_us: u64,
    end_to_end_us: u64,
    exec_us: u64,
    cold_us: u64,
    queue_us: u64,
    stall_us: u64,
    predicted: Vec<String>,
    invoked: Vec<String>,
    missed: Vec<String>,
    unused_deploys: u64,
    wasted_us: u64,
    jit: Vec<JitSample>,
    trace: Option<Trace>,
}

/// Converts an event-time ready-delay (milliseconds, produced from
/// integer microseconds by the platform) back to integer microseconds.
fn ms_to_us(ms: f64) -> u64 {
    (ms * 1000.0).round().max(0.0) as u64
}

/// Streams [`BusEvent`]s into per-request digests using the same
/// interval-partition algorithm as the exact audit.
#[derive(Debug, Clone, Default)]
struct RequestTracker {
    pending: BTreeMap<u64, PendingRequest>,
    keep_traces: bool,
}

impl RequestTracker {
    fn new(keep_traces: bool) -> Self {
        RequestTracker {
            pending: BTreeMap::new(),
            keep_traces,
        }
    }

    fn on_event(&mut self, at: SimTime, event: &BusEvent) -> Option<RequestDigest> {
        let at_us = at.as_micros();
        match event {
            BusEvent::RequestTriggered { request, .. } => {
                let mut p = PendingRequest {
                    t0_us: at_us,
                    ..PendingRequest::default()
                };
                if self.keep_traces {
                    p.trace.record(at, TraceEventKind::Triggered);
                }
                self.pending.insert(*request, p);
                None
            }
            BusEvent::PlanComputed {
                request, planned, ..
            } => {
                if self.keep_traces {
                    if let Some(p) = self.pending.get_mut(request) {
                        p.trace
                            .record(at, TraceEventKind::PlanComputed { planned: *planned });
                    }
                }
                None
            }
            BusEvent::FunctionInvoked {
                request, function, ..
            } => {
                let p = self.pending.get_mut(request)?;
                if !p.invoked.contains(function) {
                    p.invoked.push(function.clone());
                    p.invoke_at.push((function.clone(), at_us));
                }
                p.open_waits.push((function.clone(), at_us));
                if self.keep_traces {
                    p.trace.record(
                        at,
                        TraceEventKind::Invoked {
                            function: function.clone(),
                        },
                    );
                }
                None
            }
            BusEvent::WorkerProvisioned {
                request,
                function,
                ready_in_ms,
                on_demand,
                ..
            } => {
                // Pool-owned provisions (request == u64::MAX) have no
                // pending entry and are skipped, exactly as they have no
                // trace in the batch tier.
                let p = self.pending.get_mut(request)?;
                if !*on_demand && !p.predicted.contains(function) {
                    p.predicted.push(function.clone());
                }
                let ready_us = at_us + ms_to_us(*ready_in_ms);
                p.deploys.push(DeployRec {
                    function: function.clone(),
                    start_us: at_us,
                    ready_us,
                    on_demand: *on_demand,
                    used: false,
                });
                if self.keep_traces {
                    p.trace.record(
                        at,
                        TraceEventKind::DeployStarted {
                            function: function.clone(),
                            on_demand: *on_demand,
                            ready_at: SimTime::from_micros(ready_us),
                        },
                    );
                }
                None
            }
            BusEvent::ExecStarted {
                request,
                function,
                warm,
                ..
            } => {
                let p = self.pending.get_mut(request)?;
                if let Some(d) = p
                    .deploys
                    .iter_mut()
                    .find(|d| d.function == *function && !d.used)
                {
                    d.used = true;
                }
                if let Some(i) = p.open_waits.iter().position(|(f, _)| f == function) {
                    let (_, start) = p.open_waits.remove(i);
                    if *warm {
                        p.warm_iv.push((start, at_us));
                    } else {
                        p.cold_iv.push((start, at_us));
                    }
                }
                p.open_execs.push((function.clone(), at_us));
                if self.keep_traces {
                    p.trace.record(
                        at,
                        TraceEventKind::ExecStarted {
                            function: function.clone(),
                            warm: *warm,
                        },
                    );
                }
                None
            }
            BusEvent::ExecEnded {
                request, function, ..
            } => {
                let p = self.pending.get_mut(request)?;
                if let Some(i) = p.open_execs.iter().position(|(f, _)| f == function) {
                    let (_, start) = p.open_execs.remove(i);
                    p.exec_iv.push((start, at_us));
                }
                if self.keep_traces {
                    p.trace.record(
                        at,
                        TraceEventKind::ExecEnded {
                            function: function.clone(),
                        },
                    );
                }
                None
            }
            BusEvent::InvokeTimeout {
                request,
                function,
                attempt,
            } => {
                let p = self.pending.get_mut(request)?;
                if let Some(i) = p.open_execs.iter().position(|(f, _)| f == function) {
                    let (_, start) = p.open_execs.remove(i);
                    p.exec_iv.push((start, at_us));
                }
                if self.keep_traces {
                    p.trace.record(
                        at,
                        TraceEventKind::TimedOut {
                            function: function.clone(),
                            attempt: *attempt,
                        },
                    );
                }
                None
            }
            BusEvent::PredictionMiss {
                request, function, ..
            } => {
                let p = self.pending.get_mut(request)?;
                if !p.missed.contains(function) {
                    p.missed.push(function.clone());
                }
                if self.keep_traces {
                    p.trace.record(
                        at,
                        TraceEventKind::PredictionMiss {
                            function: function.clone(),
                        },
                    );
                }
                None
            }
            BusEvent::InvokeRetried {
                request,
                function,
                attempt,
                ..
            } => {
                if self.keep_traces {
                    if let Some(p) = self.pending.get_mut(request) {
                        p.trace.record(
                            at,
                            TraceEventKind::Retried {
                                function: function.clone(),
                                attempt: *attempt,
                            },
                        );
                    }
                }
                None
            }
            BusEvent::RequestCompleted { request, .. } => {
                let mut p = self.pending.remove(request)?;
                if self.keep_traces {
                    p.trace.record(at, TraceEventKind::Completed);
                }
                Some(finalize_request(*request, p, at_us, self.keep_traces))
            }
            BusEvent::WorkerReady { .. }
            | BusEvent::WorkerCrashed { .. }
            | BusEvent::SloAlert { .. }
            | BusEvent::HostUp { .. }
            | BusEvent::HostDown { .. }
            | BusEvent::WorkerPlaced { .. }
            | BusEvent::WorkerEvicted { .. }
            | BusEvent::PolicyDecision { .. }
            | BusEvent::CheckpointWritten { .. }
            | BusEvent::CheckpointRestored { .. }
            | BusEvent::SketchEviction { .. } => None,
        }
    }
}

/// Closes the request's open intervals at `tn` and partitions `[t0, tn]`
/// into exec / cold / warm / stall — the same dominance order and
/// cut-point construction as `RequestAudit::from_trace`, so the span-sum
/// invariant holds in integer microseconds here too.
fn finalize_request(request: u64, p: PendingRequest, tn: u64, keep_trace: bool) -> RequestDigest {
    let PendingRequest {
        t0_us,
        deploys,
        open_waits,
        open_execs,
        mut exec_iv,
        mut cold_iv,
        warm_iv,
        predicted,
        invoked,
        invoke_at,
        missed,
        trace,
    } = p;
    exec_iv.extend(open_execs.into_iter().map(|(_, s)| (s, tn)));
    cold_iv.extend(open_waits.into_iter().map(|(_, s)| (s, tn)));

    let mut cuts: Vec<u64> = vec![t0_us, tn];
    for &(s, e) in exec_iv.iter().chain(&cold_iv).chain(&warm_iv) {
        cuts.push(s.clamp(t0_us, tn));
        cuts.push(e.clamp(t0_us, tn));
    }
    cuts.sort_unstable();
    cuts.dedup();
    let covers = |iv: &[(u64, u64)], a: u64, b: u64| iv.iter().any(|&(s, e)| s <= a && e >= b);
    let (mut exec_us, mut cold_us, mut queue_us, mut stall_us) = (0u64, 0u64, 0u64, 0u64);
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let len = b - a;
        if covers(&exec_iv, a, b) {
            exec_us += len;
        } else if covers(&cold_iv, a, b) {
            cold_us += len;
        } else if covers(&warm_iv, a, b) {
            queue_us += len;
        } else {
            stall_us += len;
        }
    }

    let mut unused_deploys = 0u64;
    let mut wasted_us = 0u64;
    for d in deploys.iter().filter(|d| !d.used && !d.on_demand) {
        unused_deploys += 1;
        wasted_us += tn - d.start_us;
    }

    let mut jit = Vec::new();
    for (function, inv_us) in &invoke_at {
        if let Some(d) = deploys.iter().find(|d| d.function == *function) {
            jit.push(JitSample {
                function: function.clone(),
                on_demand: d.on_demand,
                lateness_ms: (d.ready_us as f64 - *inv_us as f64) / 1000.0,
            });
        }
    }

    RequestDigest {
        request,
        completed_us: tn,
        end_to_end_us: tn - t0_us,
        exec_us,
        cold_us,
        queue_us,
        stall_us,
        predicted,
        invoked,
        missed,
        unused_deploys,
        wasted_us,
        jit,
        trace: keep_trace.then_some(trace),
    }
}

// ---------------------------------------------------------------------
// StreamingAudit
// ---------------------------------------------------------------------

/// Configuration of a [`StreamingAudit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Size of the worst-request exemplar reservoir (0 disables trace
    /// reconstruction entirely).
    pub exemplars: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig { exemplars: 4 }
    }
}

/// One entry of the worst-request reservoir: the reconstructed timeline
/// of a completed request, kept so its [`SpanTree`] can be exported.
/// Serializable so the service tier can checkpoint the reservoir.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// Request id (global after a sharded merge).
    pub request: u64,
    /// End-to-end latency, integer microseconds — the reservoir's sort
    /// key (descending, ties broken by ascending request id).
    pub end_to_end_us: u64,
    trace: Trace,
}

impl Exemplar {
    /// The span decomposition of the exemplar's reconstructed timeline.
    pub fn span_tree(&self) -> Option<SpanTree> {
        SpanTree::from_trace(self.request, &self.trace)
    }
}

/// JIT timing aggregates with streaming (histogram) distributions.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamingJitStats {
    /// Planned (non-on-demand) deployments that served an invocation.
    pub planned: u64,
    /// Of those, sandboxes ready after their invocation.
    pub late: u64,
    /// Sandboxes ready at or before their invocation.
    pub on_time: u64,
    /// Distribution of positive lateness (ms), late deployments only.
    pub late_ms: Histogram,
    /// Distribution of pre-warm slack (ms), on-time deployments only.
    pub slack_ms: Histogram,
}

/// Cluster-scheduling activity observed on the event stream: host churn
/// and placement/eviction traffic. All counters stay zero on a default
/// single-testbed run (the platform gates Host*/Placed/Evicted emission
/// on an explicit cluster), so the summary serializes unchanged there.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterActivity {
    /// Host activations (autoscaled boots and post-failure reboots).
    pub hosts_up: u64,
    /// Injected host failures.
    pub hosts_down: u64,
    /// Workers lost to host failures.
    pub workers_lost: u64,
    /// Successful worker placements.
    pub placed: u64,
    /// Forced evictions (capacity/quota/warm-cap pressure).
    pub evicted: u64,
}

impl ClusterActivity {
    /// Whether no cluster activity was observed (serialization gate).
    pub fn is_empty(&self) -> bool {
        *self == ClusterActivity::default()
    }

    fn merge_from(&mut self, other: &ClusterActivity) {
        self.hosts_up += other.hosts_up;
        self.hosts_down += other.hosts_down;
        self.workers_lost += other.workers_lost;
        self.placed += other.placed;
        self.evicted += other.evicted;
    }
}

/// The run-level aggregates a [`StreamingAudit`] maintains — the
/// bounded-memory analogue of `AuditSummary`.
///
/// Counts (`requests`, `mlp`, `waste.deploys`, `jit.planned/late/on_time`)
/// and integer-microsecond component totals agree with the exact audit
/// exactly; `waste.cpu_ms` and histogram means agree up to float rounding
/// of the accumulation order; quantiles are bucket-interpolated and agree
/// within one [`LATENCY_BUCKET_BOUNDS_MS`] bucket.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamingSummary {
    /// Completed requests folded in.
    pub requests: u64,
    /// End-to-end latency distribution.
    pub end_to_end: Histogram,
    /// Per-request exec-time distribution.
    pub exec: Histogram,
    /// Per-request cold-start-wait distribution.
    pub cold_start_wait: Histogram,
    /// Per-request warm-queueing distribution.
    pub queue_wait: Histogram,
    /// Per-request stall distribution.
    pub stall: Histogram,
    /// Total milliseconds attributed to execution.
    pub exec_ms: f64,
    /// Total milliseconds attributed to cold-start waits.
    pub cold_start_wait_ms: f64,
    /// Total milliseconds attributed to warm-dispatch queueing.
    pub queue_wait_ms: f64,
    /// Total milliseconds attributed to stalls.
    pub stall_ms: f64,
    /// MLP prediction quality (exact).
    pub mlp: MlpStats,
    /// Wasted-deploy accounting (exact).
    pub waste: WasteStats,
    /// JIT timing quality with streaming distributions.
    pub jit: StreamingJitStats,
    /// Cluster scheduling activity (host churn, placements, evictions).
    /// Omitted from serialization when all-zero, so summaries from
    /// single-testbed runs keep their pre-cluster shape.
    #[serde(default, skip_serializing_if = "ClusterActivity::is_empty")]
    pub cluster: ClusterActivity,
}

/// Bounded-memory audit over the live event stream.
///
/// Attach with `Platform::attach_observer(StreamingAudit::new(cfg))`; per
/// logical shard the state is a deterministic function of the shard's
/// event stream, and [`merge_from`](StreamingAudit::merge_from) folds
/// shard states in canonical order.
#[derive(Debug, Clone)]
pub struct StreamingAudit {
    tracker: RequestTracker,
    state: AuditAggregates,
}

impl Default for StreamingAudit {
    fn default() -> Self {
        StreamingAudit::new(StreamingConfig::default())
    }
}

impl StreamingAudit {
    /// An empty audit with the given configuration.
    pub fn new(config: StreamingConfig) -> Self {
        StreamingAudit {
            tracker: RequestTracker::new(config.exemplars > 0),
            state: AuditAggregates {
                exemplars_cap: config.exemplars,
                requests: 0,
                end_to_end: Histogram::latency(),
                exec: Histogram::latency(),
                cold_start_wait: Histogram::latency(),
                queue_wait: Histogram::latency(),
                stall: Histogram::latency(),
                exec_us: 0,
                cold_us: 0,
                queue_us: 0,
                stall_us: 0,
                mlp: MlpStats::default(),
                waste_deploys: 0,
                wasted_us: 0,
                jit_planned: 0,
                jit_late: 0,
                jit_on_time: 0,
                late_ms: Histogram::latency(),
                slack_ms: Histogram::latency(),
                cluster: ClusterActivity::default(),
                exemplars: Vec::new(),
            },
        }
    }

    /// The configured exemplar-reservoir size.
    pub fn config(&self) -> StreamingConfig {
        StreamingConfig {
            exemplars: self.state.exemplars_cap,
        }
    }

    /// Requests currently in flight (bounded by concurrency; 0 once the
    /// platform has drained).
    pub fn in_flight(&self) -> usize {
        self.tracker.pending.len()
    }

    fn fold(&mut self, digest: RequestDigest) {
        let agg = &mut self.state;
        agg.requests += 1;
        agg.end_to_end.observe(digest.end_to_end_us as f64 / 1000.0);
        agg.exec.observe(digest.exec_us as f64 / 1000.0);
        agg.cold_start_wait.observe(digest.cold_us as f64 / 1000.0);
        agg.queue_wait.observe(digest.queue_us as f64 / 1000.0);
        agg.stall.observe(digest.stall_us as f64 / 1000.0);
        agg.exec_us += digest.exec_us;
        agg.cold_us += digest.cold_us;
        agg.queue_us += digest.queue_us;
        agg.stall_us += digest.stall_us;

        for f in &digest.predicted {
            let edge = agg.mlp.per_function.entry(f.clone()).or_default();
            edge.predicted += 1;
            agg.mlp.predicted += 1;
            if digest.invoked.contains(f) {
                edge.hits += 1;
                agg.mlp.hits += 1;
            }
        }
        for (depth, f) in digest.invoked.iter().enumerate() {
            let edge = agg.mlp.per_function.entry(f.clone()).or_default();
            edge.invoked += 1;
            agg.mlp.invoked += 1;
            if digest.missed.contains(f) {
                edge.misses += 1;
                agg.mlp.misses += 1;
                if agg.mlp.miss_depth.len() <= depth {
                    agg.mlp.miss_depth.resize(depth + 1, 0);
                }
                agg.mlp.miss_depth[depth] += 1;
            }
        }

        agg.waste_deploys += digest.unused_deploys;
        agg.wasted_us += digest.wasted_us;

        for s in digest.jit.iter().filter(|s| !s.on_demand) {
            agg.jit_planned += 1;
            if s.lateness_ms > 0.0 {
                agg.jit_late += 1;
                agg.late_ms.observe(s.lateness_ms);
            } else {
                agg.jit_on_time += 1;
                agg.slack_ms.observe(-s.lateness_ms);
            }
        }

        if agg.exemplars_cap > 0 {
            if let Some(trace) = digest.trace {
                agg.exemplars.push(Exemplar {
                    request: digest.request,
                    end_to_end_us: digest.end_to_end_us,
                    trace,
                });
                self.sort_exemplars();
            }
        }
    }

    fn sort_exemplars(&mut self) {
        self.state.exemplars.sort_unstable_by(|a, b| {
            b.end_to_end_us
                .cmp(&a.end_to_end_us)
                .then(a.request.cmp(&b.request))
        });
        self.state.exemplars.truncate(self.state.exemplars_cap);
    }

    /// The worst-request reservoir, worst first.
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.state.exemplars
    }

    /// Rewrites exemplar request ids (the sharded merge maps shard-local
    /// ids to global trigger-order ids), then restores the canonical
    /// reservoir order.
    pub(crate) fn remap_exemplar_requests(&mut self, mut map: impl FnMut(u64) -> u64) {
        for e in &mut self.state.exemplars {
            e.request = map(e.request);
        }
        self.sort_exemplars();
    }

    /// Folds another audit's aggregates into this one. Both must be
    /// drained (no in-flight requests) — callers merge per-shard audits
    /// after the fleet is idle, in canonical shard order.
    pub fn merge_from(&mut self, other: &StreamingAudit) {
        assert!(
            self.tracker.pending.is_empty() && other.tracker.pending.is_empty(),
            "merging streaming audits with in-flight requests"
        );
        let (acc, theirs) = (&mut self.state, &other.state);
        acc.requests += theirs.requests;
        acc.end_to_end.merge_from(&theirs.end_to_end);
        acc.exec.merge_from(&theirs.exec);
        acc.cold_start_wait.merge_from(&theirs.cold_start_wait);
        acc.queue_wait.merge_from(&theirs.queue_wait);
        acc.stall.merge_from(&theirs.stall);
        acc.exec_us += theirs.exec_us;
        acc.cold_us += theirs.cold_us;
        acc.queue_us += theirs.queue_us;
        acc.stall_us += theirs.stall_us;
        for (name, edge) in &theirs.mlp.per_function {
            let mine = acc.mlp.per_function.entry(name.clone()).or_default();
            mine.predicted += edge.predicted;
            mine.hits += edge.hits;
            mine.invoked += edge.invoked;
            mine.misses += edge.misses;
        }
        acc.mlp.predicted += theirs.mlp.predicted;
        acc.mlp.hits += theirs.mlp.hits;
        acc.mlp.invoked += theirs.mlp.invoked;
        acc.mlp.misses += theirs.mlp.misses;
        if acc.mlp.miss_depth.len() < theirs.mlp.miss_depth.len() {
            acc.mlp.miss_depth.resize(theirs.mlp.miss_depth.len(), 0);
        }
        for (d, n) in theirs.mlp.miss_depth.iter().enumerate() {
            acc.mlp.miss_depth[d] += n;
        }
        acc.waste_deploys += theirs.waste_deploys;
        acc.wasted_us += theirs.wasted_us;
        acc.jit_planned += theirs.jit_planned;
        acc.jit_late += theirs.jit_late;
        acc.jit_on_time += theirs.jit_on_time;
        acc.late_ms.merge_from(&theirs.late_ms);
        acc.slack_ms.merge_from(&theirs.slack_ms);
        acc.cluster.merge_from(&theirs.cluster);
        acc.exemplars.extend(theirs.exemplars.iter().cloned());
        self.sort_exemplars();
    }

    /// The current run-level aggregates.
    pub fn summary(&self) -> StreamingSummary {
        let agg = &self.state;
        let mut mlp = agg.mlp.clone();
        mlp.precision = if mlp.predicted == 0 {
            1.0
        } else {
            mlp.hits as f64 / mlp.predicted as f64
        };
        mlp.recall = if mlp.invoked == 0 {
            1.0
        } else {
            1.0 - mlp.misses as f64 / mlp.invoked as f64
        };
        StreamingSummary {
            requests: agg.requests,
            end_to_end: agg.end_to_end.clone(),
            exec: agg.exec.clone(),
            cold_start_wait: agg.cold_start_wait.clone(),
            queue_wait: agg.queue_wait.clone(),
            stall: agg.stall.clone(),
            exec_ms: agg.exec_us as f64 / 1000.0,
            cold_start_wait_ms: agg.cold_us as f64 / 1000.0,
            queue_wait_ms: agg.queue_us as f64 / 1000.0,
            stall_ms: agg.stall_us as f64 / 1000.0,
            mlp,
            waste: WasteStats {
                deploys: agg.waste_deploys,
                cpu_ms: agg.wasted_us as f64 / 1000.0,
            },
            jit: StreamingJitStats {
                planned: agg.jit_planned,
                late: agg.jit_late,
                on_time: agg.jit_on_time,
                late_ms: agg.late_ms.clone(),
                slack_ms: agg.slack_ms.clone(),
            },
            cluster: agg.cluster.clone(),
        }
    }
}

/// The aggregates of a [`StreamingAudit`]: everything but its in-flight
/// tracker.
#[derive(Debug, Clone, PartialEq)]
struct AuditAggregates {
    /// Exemplar-reservoir capacity the audit was configured with.
    exemplars_cap: usize,
    /// Completed requests folded in.
    requests: u64,
    /// End-to-end latency distribution.
    end_to_end: Histogram,
    /// Per-request exec-time distribution.
    exec: Histogram,
    /// Per-request cold-start-wait distribution.
    cold_start_wait: Histogram,
    /// Per-request warm-queueing distribution.
    queue_wait: Histogram,
    /// Per-request stall distribution.
    stall: Histogram,
    /// Total exec microseconds.
    exec_us: u64,
    /// Total cold-start-wait microseconds.
    cold_us: u64,
    /// Total warm-queueing microseconds.
    queue_us: u64,
    /// Total stall microseconds.
    stall_us: u64,
    /// MLP prediction quality.
    mlp: MlpStats,
    /// Unused speculative deployments.
    waste_deploys: u64,
    /// Wasted deploy CPU microseconds.
    wasted_us: u64,
    /// Planned deployments that served an invocation.
    jit_planned: u64,
    /// Of those, sandboxes ready after their invocation.
    jit_late: u64,
    /// Sandboxes ready at or before their invocation.
    jit_on_time: u64,
    /// Positive-lateness distribution (ms).
    late_ms: Histogram,
    /// Pre-warm slack distribution (ms).
    slack_ms: Histogram,
    /// Cluster scheduling activity.
    cluster: ClusterActivity,
    /// The worst-request reservoir.
    exemplars: Vec<Exemplar>,
}

impl Observer for StreamingAudit {
    fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        match event {
            BusEvent::HostUp { .. } => self.state.cluster.hosts_up += 1,
            BusEvent::HostDown { workers_lost, .. } => {
                self.state.cluster.hosts_down += 1;
                self.state.cluster.workers_lost += u64::from(*workers_lost);
            }
            BusEvent::WorkerPlaced { .. } => self.state.cluster.placed += 1,
            BusEvent::WorkerEvicted { .. } => self.state.cluster.evicted += 1,
            _ => {}
        }
        if let Some(digest) = self.tracker.on_event(at, event) {
            self.fold(digest);
        }
    }
}

/// Index of the bucket a millisecond value falls into under the standard
/// latency bounds (the overflow bucket is `bounds.len()`). Tests use this
/// to state the documented quantile tolerance: a streaming quantile lands
/// in the same or an adjacent bucket as the exact order statistic.
pub fn latency_bucket(ms: f64) -> usize {
    LATENCY_BUCKET_BOUNDS_MS
        .iter()
        .position(|&b| ms <= b)
        .unwrap_or(LATENCY_BUCKET_BOUNDS_MS.len())
}

// ---------------------------------------------------------------------
// SloMonitor
// ---------------------------------------------------------------------

/// Configuration of a [`SloMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Width of the tumbling evaluation windows (must be positive).
    pub window: SimDuration,
    /// The gates each window is held to, relative to the baseline (first
    /// non-empty) window.
    pub thresholds: DiffThresholds,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            window: SimDuration::from_mins(1),
            thresholds: DiffThresholds::default(),
        }
    }
}

/// One tumbling window's accumulated telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloWindow {
    /// Window index (`completion time / window width`).
    pub index: u64,
    /// Requests that completed inside the window.
    pub requests: u64,
    /// End-to-end latency distribution of those requests.
    pub end_to_end: Histogram,
    /// Wasted-deploy CPU, integer microseconds.
    pub wasted_us: u64,
    /// Function invocations.
    pub invoked: u64,
    /// Prediction misses.
    pub misses: u64,
}

impl SloWindow {
    fn new(index: u64) -> Self {
        SloWindow {
            index,
            requests: 0,
            end_to_end: Histogram::latency(),
            wasted_us: 0,
            invoked: 0,
            misses: 0,
        }
    }

    /// Plan coverage inside the window (1 when nothing was invoked).
    pub fn recall(&self) -> f64 {
        if self.invoked == 0 {
            1.0
        } else {
            1.0 - self.misses as f64 / self.invoked as f64
        }
    }

    /// Wasted CPU-ms per completed request (0 when empty).
    pub fn waste_per_request_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.wasted_us as f64 / 1000.0 / self.requests as f64
        }
    }
}

/// One SLO breach: a window whose telemetry crossed a threshold relative
/// to the baseline window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloAlert {
    /// Index of the breaching window.
    pub window: u64,
    /// JSONPath-style pointer to the violated gate.
    pub path: String,
    /// Baseline-window value.
    pub baseline: f64,
    /// Breaching-window value.
    pub candidate: f64,
    /// Human-readable statement of the exceeded limit.
    pub allowed: String,
}

impl SloAlert {
    /// The typed bus event announcing this breach.
    pub fn into_event(self) -> BusEvent {
        BusEvent::SloAlert {
            window: self.window,
            path: self.path,
            baseline: self.baseline,
            candidate: self.candidate,
            allowed: self.allowed,
        }
    }
}

/// Scalar view of one window, as exported in the SLO report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloWindowSummary {
    /// Window index.
    pub index: u64,
    /// Window start, milliseconds of simulation time.
    pub start_ms: f64,
    /// Requests completed inside the window.
    pub requests: u64,
    /// Bucket-interpolated median end-to-end latency.
    pub p50_ms: f64,
    /// Bucket-interpolated p95 end-to-end latency.
    pub p95_ms: f64,
    /// Mean end-to-end latency.
    pub mean_ms: f64,
    /// Wasted-deploy CPU-ms charged to requests completing here.
    pub wasted_cpu_ms: f64,
    /// Function invocations.
    pub invoked: u64,
    /// Prediction misses.
    pub misses: u64,
    /// Plan coverage (1 − misses/invoked; 1 when idle).
    pub recall: f64,
}

/// The windowed SLO export (`docs/schemas/slo.schema.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Tumbling-window width in milliseconds.
    pub window_ms: f64,
    /// The gates applied to every window.
    pub thresholds: DiffThresholds,
    /// Index of the baseline (first non-empty) window, if any window saw
    /// traffic.
    pub baseline_window: Option<u64>,
    /// Every non-empty window, index-ordered.
    pub windows: Vec<SloWindowSummary>,
    /// Every breach, in (window, gate) order. Empty means the stream
    /// stayed inside its envelope.
    pub alerts: Vec<SloAlert>,
}

/// Evaluates windowed telemetry against [`DiffThresholds`], live or
/// post-merge.
///
/// Requests are bucketed into tumbling windows by *completion* time. The
/// first non-empty window becomes the baseline; every later non-empty
/// window is gated against it with the same comparison semantics as
/// `xanadu diff` (p50/p95 relative regression, wasted-CPU-per-request
/// relative regression, absolute recall drop).
///
/// In live mode (attached via `Platform::attach_slo`) a window is
/// evaluated the moment a completion lands in a later window, and the
/// resulting [`SloAlert`]s are re-emitted by the platform as typed
/// [`BusEvent::SloAlert`]s. In collector mode (sharded replay) windows
/// only accumulate; the driver merges per-shard windows canonically and
/// evaluates once, which yields the identical alert list because
/// evaluation is a pure function of the merged windows.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    tracker: RequestTracker,
    config: SloConfig,
    windows: BTreeMap<u64, SloWindow>,
    live: bool,
    baseline: Option<u64>,
    /// Highest window index already evaluated (live mode).
    evaluated: Option<u64>,
    alerts: Vec<SloAlert>,
    /// Alerts raised but not yet drained by the platform (live mode).
    pending_alerts: Vec<SloAlert>,
}

impl SloMonitor {
    fn with_mode(config: SloConfig, live: bool) -> Self {
        assert!(
            config.window > SimDuration::ZERO,
            "SLO window must be positive"
        );
        SloMonitor {
            tracker: RequestTracker::new(false),
            config,
            windows: BTreeMap::new(),
            live,
            baseline: None,
            evaluated: None,
            alerts: Vec::new(),
            pending_alerts: Vec::new(),
        }
    }

    /// A live monitor: evaluates each window as it closes (attach via
    /// `Platform::attach_slo` so breaches are re-emitted as bus events).
    pub fn live(config: SloConfig) -> Self {
        SloMonitor::with_mode(config, true)
    }

    /// A collector: accumulates windows without evaluating. Used by the
    /// sharded replay driver, which merges shard collectors canonically
    /// and evaluates once via [`report`](Self::report).
    pub fn collector(config: SloConfig) -> Self {
        SloMonitor::with_mode(config, false)
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// The accumulated windows, index-ordered.
    pub fn windows(&self) -> impl Iterator<Item = &SloWindow> {
        self.windows.values()
    }

    fn fold(&mut self, digest: &RequestDigest) {
        let width = self.config.window.as_micros();
        let index = digest.completed_us / width;
        assert!(
            self.evaluated.is_none_or(|e| index > e),
            "a completion landed in SLO window {index}, which is already final"
        );
        if self.live {
            self.close_windows_below(index);
        }
        let w = self
            .windows
            .entry(index)
            .or_insert_with(|| SloWindow::new(index));
        w.requests += 1;
        w.end_to_end.observe(digest.end_to_end_us as f64 / 1000.0);
        w.wasted_us += digest.wasted_us;
        w.invoked += digest.invoked.len() as u64;
        w.misses += digest.missed.len() as u64;
    }

    /// Live mode: evaluates every not-yet-evaluated non-empty window with
    /// index below `upto` (they can no longer receive completions —
    /// completion times are nondecreasing).
    fn close_windows_below(&mut self, upto: u64) {
        let ready: Vec<u64> = self
            .windows
            .keys()
            .copied()
            .filter(|&i| i < upto && self.evaluated.is_none_or(|e| i > e))
            .collect();
        for index in ready {
            self.evaluate_window(index);
            self.evaluated = Some(index);
        }
    }

    fn evaluate_window(&mut self, index: u64) {
        let Some(window) = self.windows.get(&index) else {
            return;
        };
        if window.requests == 0 {
            return;
        }
        match self.baseline {
            None => self.baseline = Some(index),
            Some(b) if b == index => {}
            Some(b) => {
                let baseline = self.windows.get(&b).expect("baseline window exists");
                let fresh = gate_window(baseline, window, &self.config.thresholds);
                self.pending_alerts.extend(fresh.iter().cloned());
                self.alerts.extend(fresh);
            }
        }
    }

    /// Drains alerts raised since the last call (live mode; the platform
    /// calls this after every delivery and re-emits them as bus events).
    pub fn take_alerts(&mut self) -> Vec<SloAlert> {
        std::mem::take(&mut self.pending_alerts)
    }

    /// Evaluates every not-yet-evaluated window strictly below `horizon`
    /// and returns the fresh alerts, in (window, gate) order; those
    /// windows become final.
    ///
    /// The service tier calls this at each cut of its stream, once the
    /// platform has handled every event before the next trigger time:
    /// every completion still to come lands at or after that time, so
    /// windows below `floor(next trigger time / width)` are final. That is
    /// the caller's precondition, and a completion that breaks it panics
    /// when it is folded. Evaluation is incremental and index-ordered
    /// against the same first-non-empty baseline as
    /// [`report`](Self::report), so the union of all `evaluate_below`
    /// results equals the report's alert list exactly.
    pub fn evaluate_below(&mut self, horizon: u64) -> Vec<SloAlert> {
        let ready: Vec<u64> = self
            .windows
            .keys()
            .copied()
            .filter(|&i| i < horizon && self.evaluated.is_none_or(|e| i > e))
            .collect();
        for index in ready {
            self.evaluate_window(index);
            self.evaluated = Some(index);
        }
        self.take_alerts()
    }

    /// Every alert raised so far, in emission order.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Closes the stream: evaluates the final (still-open) window and
    /// returns any remaining alerts. Collector-mode monitors defer all
    /// evaluation to [`report`](Self::report) and return nothing.
    pub fn finish_stream(&mut self) -> Vec<SloAlert> {
        if self.live {
            let open: Vec<u64> = self
                .windows
                .keys()
                .copied()
                .filter(|&i| self.evaluated.is_none_or(|e| i > e))
                .collect();
            for index in open {
                self.evaluate_window(index);
                self.evaluated = Some(index);
            }
        }
        self.take_alerts()
    }

    /// Folds another monitor's windows into this one (shard merge; both
    /// must be drained). Window width must match, and no incoming window
    /// may be final here (index at or below [`evaluated`](Self::evaluated)).
    pub fn merge_from(&mut self, other: &SloMonitor) {
        assert!(
            self.tracker.pending.is_empty() && other.tracker.pending.is_empty(),
            "merging SLO monitors with in-flight requests"
        );
        assert_eq!(
            self.config.window, other.config.window,
            "merging SLO monitors with different window widths"
        );
        assert!(
            other
                .windows
                .keys()
                .next()
                .is_none_or(|&first| self.evaluated.is_none_or(|e| first > e)),
            "merging into an SLO window that is already final"
        );
        for (index, theirs) in &other.windows {
            let mine = self
                .windows
                .entry(*index)
                .or_insert_with(|| SloWindow::new(*index));
            mine.requests += theirs.requests;
            mine.end_to_end.merge_from(&theirs.end_to_end);
            mine.wasted_us += theirs.wasted_us;
            mine.invoked += theirs.invoked;
            mine.misses += theirs.misses;
        }
    }

    /// Builds the windowed export: every non-empty window summarized, plus
    /// the full evaluation (pure function of the windows, so a live
    /// monitor's report lists exactly the alerts it already emitted).
    pub fn report(&self) -> SloReport {
        let window_ms = self.config.window.as_micros() as f64 / 1000.0;
        let occupied: Vec<&SloWindow> = self.windows.values().filter(|w| w.requests > 0).collect();
        let baseline_window = occupied.first().map(|w| w.index);
        let mut alerts = Vec::new();
        if let Some(baseline) = occupied.first() {
            for window in occupied.iter().skip(1) {
                alerts.extend(gate_window(baseline, window, &self.config.thresholds));
            }
        }
        let windows = occupied
            .iter()
            .map(|w| SloWindowSummary {
                index: w.index,
                start_ms: w.index as f64 * window_ms,
                requests: w.requests,
                p50_ms: w.end_to_end.quantile_ms(0.50),
                p95_ms: w.end_to_end.quantile_ms(0.95),
                mean_ms: w.end_to_end.mean_ms(),
                wasted_cpu_ms: w.wasted_us as f64 / 1000.0,
                invoked: w.invoked,
                misses: w.misses,
                recall: w.recall(),
            })
            .collect();
        SloReport {
            window_ms,
            thresholds: self.config.thresholds.clone(),
            baseline_window,
            windows,
            alerts,
        }
    }
}

impl Observer for SloMonitor {
    fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        if let Some(digest) = self.tracker.on_event(at, event) {
            self.fold(&digest);
        }
    }
}

/// Applies the diff gates to one window against the baseline window.
fn gate_window(baseline: &SloWindow, window: &SloWindow, t: &DiffThresholds) -> Vec<SloAlert> {
    let i = window.index;
    let mut out = Vec::new();
    out.extend(pct_regression(
        &format!("$.windows[{i}].end_to_end_ms.p50"),
        baseline.end_to_end.quantile_ms(0.50),
        window.end_to_end.quantile_ms(0.50),
        t.max_p95_regress_pct,
    ));
    out.extend(pct_regression(
        &format!("$.windows[{i}].end_to_end_ms.p95"),
        baseline.end_to_end.quantile_ms(0.95),
        window.end_to_end.quantile_ms(0.95),
        t.max_p95_regress_pct,
    ));
    // Windowed waste baselines are routinely zero (a window with no
    // speculative deploys wastes nothing), so the whole-run diff's
    // grew-from-~0 escalation would alert on every later window no
    // matter how loose the configured percentage. Flooring the baseline
    // at the noise floor keeps this gate relative: the threshold always
    // applies, measured against at least 1ms of waste per request.
    out.extend(pct_regression(
        &format!("$.windows[{i}].waste.cpu_ms_per_request"),
        baseline.waste_per_request_ms().max(ABS_FLOOR_MS),
        window.waste_per_request_ms(),
        t.max_wasted_cpu_regress_pct,
    ));
    out.extend(drop_regression(
        &format!("$.windows[{i}].mlp.recall"),
        baseline.recall(),
        window.recall(),
        t.max_recall_drop,
    ));
    out.into_iter()
        .map(|r| SloAlert {
            window: i,
            path: r.path,
            baseline: r.baseline,
            candidate: r.candidate,
            allowed: r.allowed,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn feed(obs: &mut impl Observer, events: &[(SimTime, BusEvent)]) {
        for (t, e) in events {
            obs.on_event(*t, e);
        }
    }

    /// One request with a hit, an on-demand miss, and an unused planned
    /// deploy — every accounting path in a single stream.
    fn mixed_request(request: u64, base_ms: u64) -> Vec<(SimTime, BusEvent)> {
        let t = |d: u64| at(base_ms + d);
        vec![
            (
                t(0),
                BusEvent::RequestTriggered {
                    request,
                    workflow: "wf".into(),
                },
            ),
            (
                t(0),
                BusEvent::PlanComputed {
                    request,
                    workflow: "wf".into(),
                    planned: 2,
                },
            ),
            (
                t(0),
                BusEvent::FunctionInvoked {
                    request,
                    function: "a".into(),
                    node: 0,
                },
            ),
            (
                t(0),
                BusEvent::WorkerProvisioned {
                    worker: 1,
                    request,
                    function: "a".into(),
                    cold_start_ms: 100.0,
                    ready_in_ms: 100.0,
                    on_demand: false,
                },
            ),
            (
                t(0),
                BusEvent::WorkerProvisioned {
                    worker: 3,
                    request,
                    function: "c".into(),
                    cold_start_ms: 50.0,
                    ready_in_ms: 50.0,
                    on_demand: false,
                },
            ),
            (
                t(100),
                BusEvent::ExecStarted {
                    request,
                    function: "a".into(),
                    worker: 1,
                    warm: false,
                    queue_wait_ms: 100.0,
                },
            ),
            (
                t(150),
                BusEvent::ExecEnded {
                    request,
                    function: "a".into(),
                    worker: 1,
                    exec_ms: 50.0,
                },
            ),
            (
                t(150),
                BusEvent::FunctionInvoked {
                    request,
                    function: "b".into(),
                    node: 1,
                },
            ),
            (
                t(150),
                BusEvent::PredictionMiss {
                    request,
                    function: "b".into(),
                    node: 1,
                },
            ),
            (
                t(150),
                BusEvent::WorkerProvisioned {
                    worker: 2,
                    request,
                    function: "b".into(),
                    cold_start_ms: 80.0,
                    ready_in_ms: 80.0,
                    on_demand: true,
                },
            ),
            (
                t(230),
                BusEvent::ExecStarted {
                    request,
                    function: "b".into(),
                    worker: 2,
                    warm: false,
                    queue_wait_ms: 80.0,
                },
            ),
            (
                t(280),
                BusEvent::ExecEnded {
                    request,
                    function: "b".into(),
                    worker: 2,
                    exec_ms: 50.0,
                },
            ),
            (
                t(280),
                BusEvent::RequestCompleted {
                    request,
                    workflow: "wf".into(),
                    overhead_ms: 180.0,
                    end_to_end_ms: 280.0,
                },
            ),
        ]
    }

    /// Minimal request: triggered, one exec covering `[0, e2e]`, completed.
    fn simple_request(request: u64, base_ms: u64, e2e_ms: u64) -> Vec<(SimTime, BusEvent)> {
        vec![
            (
                at(base_ms),
                BusEvent::RequestTriggered {
                    request,
                    workflow: "wf".into(),
                },
            ),
            (
                at(base_ms),
                BusEvent::FunctionInvoked {
                    request,
                    function: "a".into(),
                    node: 0,
                },
            ),
            (
                at(base_ms),
                BusEvent::ExecStarted {
                    request,
                    function: "a".into(),
                    worker: 1,
                    warm: true,
                    queue_wait_ms: 0.0,
                },
            ),
            (
                at(base_ms + e2e_ms),
                BusEvent::ExecEnded {
                    request,
                    function: "a".into(),
                    worker: 1,
                    exec_ms: e2e_ms as f64,
                },
            ),
            (
                at(base_ms + e2e_ms),
                BusEvent::RequestCompleted {
                    request,
                    workflow: "wf".into(),
                    overhead_ms: 0.0,
                    end_to_end_ms: e2e_ms as f64,
                },
            ),
        ]
    }

    #[test]
    fn streaming_audit_accounts_a_mixed_request_exactly() {
        let mut audit = StreamingAudit::default();
        feed(&mut audit, &mixed_request(1, 0));
        assert_eq!(audit.in_flight(), 0);
        let s = audit.summary();
        assert_eq!(s.requests, 1);
        assert_eq!(s.exec_ms, 100.0, "two 50ms execs");
        assert_eq!(s.cold_start_wait_ms, 180.0, "100ms hit + 80ms on-demand");
        assert_eq!(s.queue_wait_ms, 0.0);
        assert_eq!(s.stall_ms, 0.0);
        assert_eq!(
            s.exec_ms + s.cold_start_wait_ms + s.queue_wait_ms + s.stall_ms,
            280.0,
            "span-sum invariant"
        );
        assert_eq!(s.mlp.predicted, 2, "a and the unused c");
        assert_eq!(s.mlp.hits, 1);
        assert_eq!(s.mlp.invoked, 2);
        assert_eq!(s.mlp.misses, 1);
        assert_eq!(s.mlp.precision, 0.5);
        assert_eq!(s.mlp.recall, 0.5);
        assert_eq!(s.mlp.miss_depth, vec![0, 1], "b missed at depth 1");
        assert_eq!(s.mlp.per_function["b"].misses, 1);
        assert_eq!(s.waste.deploys, 1, "c never served");
        assert_eq!(s.waste.cpu_ms, 280.0, "charged to request end");
        assert_eq!(s.jit.planned, 1, "on-demand b excluded");
        assert_eq!(s.jit.late, 1, "a ready 100ms after its invoke");
        assert_eq!(s.jit.on_time, 0);
        assert_eq!(s.end_to_end.count, 1);
    }

    #[test]
    fn exemplar_reservoir_keeps_worst_requests_with_span_trees() {
        let mut audit = StreamingAudit::new(StreamingConfig { exemplars: 2 });
        feed(&mut audit, &simple_request(1, 0, 50));
        feed(&mut audit, &simple_request(2, 1_000, 400));
        feed(&mut audit, &simple_request(3, 2_000, 200));
        let ex = audit.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].request, 2, "worst first");
        assert_eq!(ex[1].request, 3);
        assert_eq!(ex[0].end_to_end_us, 400_000);
        let tree = ex[0].span_tree().expect("reconstructed trace spans");
        assert!(tree.root.name.contains("request 2"));
    }

    #[test]
    fn pool_owned_provisions_are_ignored() {
        let mut audit = StreamingAudit::default();
        let mut events = simple_request(1, 0, 50);
        events.insert(
            1,
            (
                at(0),
                BusEvent::WorkerProvisioned {
                    worker: 9,
                    request: u64::MAX,
                    function: "a".into(),
                    cold_start_ms: 10.0,
                    ready_in_ms: 10.0,
                    on_demand: false,
                },
            ),
        );
        feed(&mut audit, &events);
        let s = audit.summary();
        assert_eq!(s.mlp.predicted, 0);
        assert_eq!(s.waste.deploys, 0);
    }

    #[test]
    fn merged_shard_audits_equal_the_single_stream_audit() {
        let r1 = mixed_request(1, 0);
        let r2 = simple_request(2, 500, 120);
        let r3 = mixed_request(3, 1_000);

        let mut whole = StreamingAudit::default();
        feed(&mut whole, &r1);
        feed(&mut whole, &r2);
        feed(&mut whole, &r3);

        let mut shard_a = StreamingAudit::default();
        feed(&mut shard_a, &r1);
        feed(&mut shard_a, &r2);
        let mut shard_b = StreamingAudit::default();
        feed(&mut shard_b, &r3);
        shard_a.merge_from(&shard_b);

        assert_eq!(shard_a.summary(), whole.summary());
        assert_eq!(
            shard_a.exemplars().len(),
            whole.exemplars().len(),
            "reservoirs merge canonically"
        );
        for (a, b) in shard_a.exemplars().iter().zip(whole.exemplars()) {
            assert_eq!(a.request, b.request);
            assert_eq!(a.end_to_end_us, b.end_to_end_us);
        }
    }

    fn slo_config(window_secs: u64) -> SloConfig {
        SloConfig {
            window: SimDuration::from_secs(window_secs),
            thresholds: DiffThresholds::default(),
        }
    }

    #[test]
    fn clean_stream_raises_no_alerts() {
        let mut slo = SloMonitor::live(slo_config(1));
        for (i, base) in [100u64, 1_100, 2_100, 3_100].iter().enumerate() {
            feed(&mut slo, &simple_request(i as u64 + 1, *base, 100));
            assert!(slo.take_alerts().is_empty());
        }
        assert!(slo.finish_stream().is_empty());
        let report = slo.report();
        assert_eq!(report.baseline_window, Some(0));
        assert_eq!(report.windows.len(), 4);
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn degraded_window_raises_alert_in_the_correct_window() {
        let mut slo = SloMonitor::live(slo_config(1));
        // Window 0: healthy baseline (100ms).
        for (req, base) in [(1u64, 100u64), (2, 300), (3, 500)] {
            feed(&mut slo, &simple_request(req, base, 100));
        }
        // Window 2: 3x p95 degradation (300ms → a different bucket).
        for (req, base) in [(4u64, 2_100u64), (5, 2_300), (6, 2_500)] {
            feed(&mut slo, &simple_request(req, base, 300));
        }
        assert!(
            slo.take_alerts().is_empty(),
            "window 2 still open, nothing evaluated yet"
        );
        // Window 3: healthy again; its arrival closes window 2 live.
        feed(&mut slo, &simple_request(7, 3_100, 100));
        let live = slo.take_alerts();
        assert!(!live.is_empty(), "closing window 2 evaluates it");
        assert!(live.iter().all(|a| a.window == 2));
        assert!(live
            .iter()
            .any(|a| a.path == "$.windows[2].end_to_end_ms.p95"));
        // The final (healthy) window closes without alerts.
        assert!(slo.finish_stream().is_empty());
        let report = slo.report();
        assert_eq!(report.baseline_window, Some(0));
        assert_eq!(report.alerts, live, "batch evaluation matches live");
        let w2 = report.windows.iter().find(|w| w.index == 2).unwrap();
        assert!(w2.p95_ms > report.windows[0].p95_ms * 2.0);
    }

    #[test]
    fn alert_converts_into_typed_bus_event() {
        let alert = SloAlert {
            window: 2,
            path: "$.windows[2].end_to_end_ms.p95".into(),
            baseline: 100.0,
            candidate: 300.0,
            allowed: "+200.0% > allowed +10.0%".into(),
        };
        match alert.clone().into_event() {
            BusEvent::SloAlert { window, path, .. } => {
                assert_eq!(window, 2);
                assert_eq!(path, alert.path);
            }
            other => panic!("expected SloAlert, got {other:?}"),
        }
    }

    #[test]
    fn collector_merge_reproduces_the_live_report() {
        let streams: Vec<Vec<(SimTime, BusEvent)>> = vec![
            simple_request(1, 100, 100),
            simple_request(2, 2_100, 300),
            simple_request(3, 2_400, 320),
        ];
        let mut live = SloMonitor::live(slo_config(1));
        for s in &streams {
            feed(&mut live, s);
        }
        live.finish_stream();

        let mut shard_a = SloMonitor::collector(slo_config(1));
        feed(&mut shard_a, &streams[0]);
        feed(&mut shard_a, &streams[1]);
        let mut shard_b = SloMonitor::collector(slo_config(1));
        feed(&mut shard_b, &streams[2]);
        assert!(shard_a.finish_stream().is_empty(), "collectors never alert");
        assert!(shard_b.finish_stream().is_empty());
        shard_a.merge_from(&shard_b);

        assert_eq!(shard_a.report(), live.report());
        assert!(!live.report().alerts.is_empty());
    }

    /// A collector holding one request completing in each listed window
    /// (1 s windows, request ids starting at `first_request`). Requests
    /// take 100 ms, except in window 4, where a 300 ms request breaches
    /// the p95 gate against the baseline.
    fn collector_with(first_request: u64, windows: &[u64]) -> SloMonitor {
        let mut slo = SloMonitor::collector(slo_config(1));
        for (i, w) in windows.iter().enumerate() {
            let e2e = if *w == 4 { 300 } else { 100 };
            feed(
                &mut slo,
                &simple_request(first_request + i as u64, w * 1_000 + 100, e2e),
            );
        }
        slo
    }

    #[test]
    #[should_panic(expected = "already final")]
    fn a_late_fold_below_the_evaluation_cursor_is_rejected() {
        let mut slo = collector_with(1, &[0, 3]);
        slo.evaluate_below(2);
        assert_eq!(slo.evaluated, Some(0));
        slo.merge_from(&collector_with(10, &[0]));
    }

    #[test]
    #[should_panic(expected = "which is already final")]
    fn a_completion_in_a_final_window_is_rejected() {
        let mut slo = collector_with(1, &[0, 3]);
        slo.evaluate_below(2);
        feed(&mut slo, &simple_request(10, 200, 100));
    }

    #[test]
    fn latency_bucket_indexes_the_standard_bounds() {
        assert_eq!(latency_bucket(0.5), 0);
        assert_eq!(latency_bucket(1.0), 0);
        assert_eq!(latency_bucket(75.0), 6);
        assert_eq!(latency_bucket(1e9), LATENCY_BUCKET_BOUNDS_MS.len());
    }
}
