//! The traced run: spans around every call into a layer, plus the
//! per-layer probes that the spans alone cannot give (thread scaling,
//! telemetry cost, observer self time, checkpoint appends, and
//! microbenchmarks of the planner, the worker pool and host placement
//! on the workload's own shapes).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use xanadu::xanadu_chain::{IsolationLevel, NodeId, WorkflowDag};
use xanadu::xanadu_core::policy::{PlanContext, PolicyRegistry, PolicySpec};
use xanadu::xanadu_core::speculation::{ExecutionMode, SpeculationConfig};
use xanadu::xanadu_core::{NodeEstimate, StaticEstimates};
use xanadu::xanadu_platform::events::BusEvent;
use xanadu::xanadu_platform::shard::ShardTelemetry;
use xanadu::xanadu_platform::{
    DiffThresholds, HostRegistry, HostSpec, Observer, PlacementPolicy, SegmentLog, SloConfig,
    SloMonitor, StreamingAudit, StreamingConfig,
};
use xanadu::xanadu_sandbox::{PoolConfig, Worker, WorkerId, WorkerPool};
use xanadu::xanadu_simcore::{SimDuration, SimTime};

use crate::metrics::{Values, PER_LAYER};
use crate::oracle::{Verdict, CHECKPOINTS};
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use crate::workloads::{
    iteration, replay_iteration, serve_iteration, serve_reference_platform, trigger_stream, Detail,
    Inputs, Kind, Outcome, ReplayInputs, ServeInputs, Size,
};
use crate::{setup, WorkDir};

/// Result of the traced run.
pub struct Traced {
    pub verdict: Verdict,
    pub values: Values,
    /// The spans document written when the run ends.
    pub spans: Value,
}

/// Runs untraced/traced iteration pairs until `seconds` have passed (at
/// least two pairs), then the workload's layer probes.
pub fn traced_run(kind: Kind, seed: u64, seconds: u64, work: &WorkDir) -> Result<Traced, String> {
    let mut tracer = Tracer::on();
    let (inputs, _) = setup(kind, seed, Size::BENCH, &mut tracer);
    let mut values = Values::default();
    for (name, _) in PER_LAYER {
        values.set(name, 0.0);
    }
    for (span, metric) in [
        ("workloads.trace_build", "workloads.trace_build_s"),
        ("workloads.stream_build", "workloads.stream_build_s"),
        ("chain.dag_build", "chain.dag_build_s"),
    ] {
        let d = tracer.durations_s(span);
        if !d.is_empty() {
            values.set(metric, median(&d));
        }
    }

    let mut verdict = Verdict::default();
    let mut walls_off = Vec::new();
    let mut walls_on = Vec::new();
    let mut extra = PairExtras::default();
    let mut first_digest: Option<String> = None;
    let mut last: Option<Outcome> = None;
    let started = Instant::now();
    while walls_on.len() < 2 || started.elapsed() < Duration::from_secs(seconds) {
        let off = iteration(&inputs, &work.dir("off"), &mut Tracer::off())?;
        let on = iteration(&inputs, &work.dir("on"), &mut tracer)?;
        verdict.add(off.verdict);
        let mut v = on.verdict;
        let digest = first_digest.get_or_insert_with(|| off.digest.clone());
        if on.digest != off.digest || on.sim != off.sim || off.digest != *digest {
            v.fail_run("traced output differs from the untraced output");
        }
        verdict.add(v);
        walls_off.push(off.wall_s);
        walls_on.push(on.wall_s);
        if let Detail::Replay { run, .. } = &on.detail {
            extra
                .barrier_s
                .push(run.profile.barrier_wait_us.iter().sum::<u64>() as f64 / 1e6);
            extra.merge_s.push(run.profile.merge_us as f64 / 1e6);
        }
        pair_probe(&inputs, &on, work, &mut extra, &mut verdict)?;
        last = Some(on);
    }
    let last = last.expect("at least two pairs ran");

    for (span, metric) in [
        (
            "platform.export.report_serialize",
            "platform.export.report_serialize_s",
        ),
        ("platform.export.digest", "platform.export.digest_s"),
        (
            "platform.export.audit_serialize",
            "platform.export.audit_serialize_s",
        ),
        ("platform.shard.replay", "platform.shard.replay_s"),
    ] {
        let d = tracer.durations_s(span);
        if !d.is_empty() {
            values.set(metric, median(&d));
        }
    }
    let overhead_s = median(&walls_on) - median(&walls_off);
    values.set("bench.tracing_overhead_s", overhead_s);

    match (&inputs, &last.detail) {
        (Inputs::Replay(inp), Detail::Replay { run, report_bytes }) => {
            let requests = last.requests.max(1) as f64;
            let report = &run.report;
            let events = run.events_processed as f64;
            let replay_s = values.get("platform.shard.replay_s").unwrap_or(0.0);
            values.set("platform.shard.des_events", events);
            values.set("platform.shard.des_events_per_request", events / requests);
            values.set("platform.shard.des_events_per_sec", events / replay_s);
            values.set("platform.shard.barrier_wait_s", median(&extra.barrier_s));
            values.set("platform.shard.windows", run.profile.windows as f64);
            values.set("platform.shard.merge_s", median(&extra.merge_s));
            values.set("platform.shard.queue_peak", run.profile.queue_peak() as f64);
            values.set("platform.export.report_bytes", *report_bytes as f64);
            let sum = |f: fn(&xanadu::xanadu_platform::RunResult) -> u32| {
                report.results.iter().map(|r| f64::from(f(r))).sum::<f64>()
            };
            values.set("core.mlp.misses_per_request", sum(|r| r.misses) / requests);
            values.set(
                "sandbox.workers_spawned_per_request",
                sum(|r| r.workers_spawned) / requests,
            );
            let used = report.worker_records.iter().filter(|w| w.ever_used).count();
            values.set(
                "sandbox.workers.useful_ratio",
                used as f64 / report.worker_records.len().max(1) as f64,
            );
            let (faults, retries) = report.fault_counts();
            values.set("platform.faults.injected", f64::from(faults));
            values.set("platform.faults.retries", f64::from(retries));
            if let Some(cluster) = &report.cluster {
                values.set(
                    "platform.hosts.cross_host_cold",
                    cluster.cross_host_cold as f64,
                );
                values.set(
                    "platform.hosts.retargets_colocated",
                    cluster.retargets_colocated as f64,
                );
            }

            let dags: Vec<&WorkflowDag> = inp.workloads.iter().map(|w| &w.dag).collect();
            let (p50, p99) = plan_us(&dags, inp.service_ms);
            values.set("core.policy.plan_us_p50", p50);
            values.set("core.policy.plan_us_p99", p99);
            let resident = report
                .worker_records
                .len()
                .div_ceil(run.logical_shards.max(1));
            let functions: Vec<String> = inp.workloads[0]
                .dag
                .node_ids()
                .map(|n| inp.workloads[0].dag.node(n).spec().name().to_string())
                .collect();
            values.set(
                "sandbox.pool.dispatch_us",
                pool_dispatch_us(&functions, resident),
            );

            if kind == Kind::FleetReplay {
                let bare = median(&extra.bare_replay_s);
                values.set("platform.stream.audit_overhead_s", replay_s - bare);
                let single = single_thread_events_per_sec(inp, &last, &mut verdict)?;
                values.set(
                    "platform.shard.scaling_efficiency",
                    (events / replay_s) / (inp.opts.threads as f64 * single),
                );
            } else {
                values.set("platform.hosts.place_us", place_us());
            }
        }
        (Inputs::Serve(inp), Detail::Serve { dir, audit }) => {
            let requests = audit["requests"].as_u64().unwrap_or(0).max(1) as f64;
            values.set(
                "core.mlp.misses_per_request",
                audit["mlp"]["misses"].as_u64().unwrap_or(0) as f64 / requests,
            );
            values.set(
                "xanadu.serve.epoch_overhead_s",
                median(&walls_off) - median(&extra.single_epoch_s),
            );
            let (checkpoints, mut appends_ms, bytes) =
                reappend_segments(&dir.join(CHECKPOINTS), work)?;
            values.set("xanadu.serve.checkpoints", checkpoints as f64);
            appends_ms.sort_by(f64::total_cmp);
            if let Some(&max) = appends_ms.last() {
                values.set(
                    "platform.metastore.append_ms_p50",
                    nearest_rank(&appends_ms, 0.5),
                );
                values.set("platform.metastore.append_ms_max", max);
            }
            values.set("platform.metastore.checkpoint_bytes", bytes as f64);
            let (busy_ns, delivered) = observer_self_time(inp)?;
            values.set("platform.stream.audit_self_s", busy_ns as f64 / 1e9);
            values.set("platform.bus.events_delivered", delivered as f64);
            values.set(
                "platform.stream.ns_per_event",
                busy_ns as f64 / delivered.max(1) as f64,
            );
        }
        _ => unreachable!("an iteration's detail matches its inputs"),
    }

    let spans = spans_document(kind, seed, &tracer, &walls_off, &walls_on);
    Ok(Traced {
        verdict,
        values,
        spans,
    })
}

/// Samples gathered once per untraced/traced pair.
#[derive(Default)]
struct PairExtras {
    barrier_s: Vec<f64>,
    merge_s: Vec<f64>,
    /// `fleet-replay` without streaming/SLO telemetry.
    bare_replay_s: Vec<f64>,
    /// `serve-checkpoint` as a single epoch.
    single_epoch_s: Vec<f64>,
}

/// The per-pair comparison run: `fleet-replay` without telemetry (its
/// report digest must not change), or `serve-checkpoint` as one epoch.
fn pair_probe(
    inputs: &Inputs,
    traced: &Outcome,
    work: &WorkDir,
    extra: &mut PairExtras,
    verdict: &mut Verdict,
) -> Result<(), String> {
    match inputs {
        Inputs::Replay(inp) if inp.telemetry.streaming.is_some() => {
            let mut t = Tracer::on();
            let bare = replay_iteration(inp, inp.opts.threads, &ShardTelemetry::default(), &mut t)?;
            let mut v = bare.verdict;
            if bare.digest != traced.digest {
                v.fail_run("telemetry changed the report digest");
            }
            verdict.add(v);
            extra
                .bare_replay_s
                .extend(t.durations_s("platform.shard.replay"));
        }
        Inputs::Replay(_) => {}
        Inputs::Serve(inp) => {
            let every = inp.events.len() as u64;
            let single = serve_iteration(inp, every, &work.dir("single"), &mut Tracer::off())?;
            verdict.add(single.verdict);
            extra.single_epoch_s.push(single.wall_s);
        }
    }
    Ok(())
}

/// DES events per second of the same fleet on one shard thread; its
/// report digest must equal the multi-threaded one.
fn single_thread_events_per_sec(
    inp: &ReplayInputs,
    traced: &Outcome,
    verdict: &mut Verdict,
) -> Result<f64, String> {
    let mut t = Tracer::on();
    let one = replay_iteration(inp, 1, &inp.telemetry, &mut t)?;
    let mut v = one.verdict;
    if one.digest != traced.digest {
        v.fail_run("report digest differs between 1 and 2 shard threads");
    }
    verdict.add(v);
    let Detail::Replay { run, .. } = &one.detail else {
        unreachable!("a replay iteration yields replay detail")
    };
    Ok(run.events_processed as f64 / median(&t.durations_s("platform.shard.replay")))
}

/// Planner cost: `SpeculationPolicy::plan` of the default Xanadu JIT
/// policy, plan cache off, over every workload DAG with static
/// estimates. Returns `(p50, p99)` in microseconds.
fn plan_us(dags: &[&WorkflowDag], service_ms: f64) -> (f64, f64) {
    const SAMPLES: usize = 20_000;
    let mut policy = PolicyRegistry::build(
        &PolicySpec::Xanadu,
        SpeculationConfig::for_mode(ExecutionMode::Jit),
    );
    policy.set_plan_cache(false);
    let estimates = StaticEstimates::uniform(NodeEstimate {
        cold_start_ms: 2500.0,
        startup_ms: 2500.0,
        warm_runtime_ms: service_ms,
    });
    let ctx = PlanContext {
        now: SimTime::ZERO,
        estimates_epoch: 0,
        prob_epoch: 0,
    };
    let mut samples = Vec::with_capacity(SAMPLES + dags.len());
    while samples.len() < SAMPLES {
        for dag in dags {
            let mut rho = |_: NodeId, _: NodeId| None;
            let t0 = Instant::now();
            let plan = policy.plan(&ctx, dag, &estimates, &mut rho);
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(plan);
        }
    }
    samples.sort_by(f64::total_cmp);
    (nearest_rank(&samples, 0.5), nearest_rank(&samples, 0.99))
}

/// Median cost in microseconds of one warm dispatch cycle
/// (`find_warm` + `begin_exec` + `end_exec`) on a pool holding
/// `resident` warm workers spread over `functions`.
fn pool_dispatch_us(functions: &[String], resident: usize) -> f64 {
    const BATCH: usize = 1000;
    let mut pool = WorkerPool::new(PoolConfig {
        keep_alive: SimDuration::from_secs(24 * 3600),
        max_warm: None,
    });
    for i in 0..resident.max(functions.len()) {
        let id = pool.next_worker_id();
        let function = &functions[i % functions.len()];
        pool.insert(Worker::provisioning(
            id,
            function,
            IsolationLevel::Container,
            256,
            SimTime::ZERO,
            SimTime::ZERO,
        ));
        pool.mark_ready(id);
    }
    let mut now = SimTime::from_secs(1);
    let batches: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            for k in 0..BATCH {
                let function = &functions[k % functions.len()];
                let id = pool
                    .find_warm(function, now)
                    .expect("a warm worker is resident");
                let began = now;
                pool.begin_exec(id, began);
                now += SimDuration::from_millis(1);
                pool.end_exec(id, began, now);
            }
            t0.elapsed().as_nanos() as f64 / 1e3 / BATCH as f64
        })
        .collect();
    median(&batches)
}

/// Median cost in microseconds of a `place` + `release` cycle on a
/// half-full 4-host affinity registry.
fn place_us() -> f64 {
    const BATCH: u64 = 1000;
    let mut registry = HostRegistry::new(PlacementPolicy::Affinity);
    for i in 0..4 {
        registry.add_host(HostSpec::new(format!("host-{i}"), 4096));
    }
    let mut next = 0u64;
    for _ in 0..32 {
        registry
            .place(WorkerId(next), 256)
            .expect("half-full cluster has room");
        next += 1;
    }
    let batches: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                let host = registry
                    .place(WorkerId(next), 256)
                    .expect("room for one more");
                std::hint::black_box(host);
                registry.release(WorkerId(next));
                next += 1;
            }
            t0.elapsed().as_nanos() as f64 / 1e3 / BATCH as f64
        })
        .collect();
    median(&batches)
}

/// Re-appends the documents of every segment a serve run wrote into a
/// fresh log, timing each `SegmentLog::append`. Returns the segment
/// count, the append times in ms, and the written segments' byte total.
fn reappend_segments(dir: &Path, work: &WorkDir) -> Result<(usize, Vec<f64>, u64), String> {
    let err = |e: &dyn std::fmt::Display| format!("checkpoint probe: {e}");
    let source = SegmentLog::open(dir).map_err(|e| err(&e))?;
    let manifest = source.manifest().map_err(|e| err(&e))?;
    let target_dir = work.dir("reappend");
    let _ = std::fs::remove_dir_all(&target_dir);
    let target = SegmentLog::open(&target_dir).map_err(|e| err(&e))?;
    let mut times = Vec::with_capacity(manifest.segments.len());
    let mut bytes = 0u64;
    for seg in &manifest.segments {
        let text = std::fs::read_to_string(dir.join(&seg.file)).map_err(|e| err(&e))?;
        bytes += text.len() as u64;
        let body: Value = serde_json::from_str(&text).map_err(|e| err(&format!("{e:?}")))?;
        let docs: Vec<(String, Value)> = body
            .as_object()
            .ok_or_else(|| err(&"segment is not an object"))?
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let t0 = Instant::now();
        target.append(&docs).map_err(|e| err(&e))?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((manifest.segments.len(), times, bytes))
}

/// Times an observer's `on_event` calls.
struct Timed<O> {
    inner: O,
    busy_ns: u64,
    delivered: u64,
}

impl<O: Observer> Observer for Timed<O> {
    fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        let t0 = Instant::now();
        self.inner.on_event(at, event);
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        self.delivered += 1;
    }
}

fn timed<O>(inner: O) -> Timed<O> {
    Timed {
        inner,
        busy_ns: 0,
        delivered: 0,
    }
}

/// Feeds the serve stream through one long-lived platform with a timed
/// `StreamingAudit` and `SloMonitor` attached, as serve attaches them.
/// Returns their summed busy nanoseconds and event deliveries.
fn observer_self_time(inp: &ServeInputs) -> Result<(u64, u64), String> {
    let mut platform = serve_reference_platform(inp)?;
    let audit = platform.attach_observer(timed(StreamingAudit::new(StreamingConfig::default())));
    let slo = platform.attach_observer(timed(SloMonitor::collector(SloConfig {
        window: SimDuration::from_secs(inp.args.slo_window_secs),
        thresholds: DiffThresholds::default(),
    })));
    trigger_stream(&mut platform, inp)?;
    platform.run_until_idle();
    let (a_ns, a_n) = audit.with(|t| (t.busy_ns, t.delivered));
    let (s_ns, s_n) = slo.with(|t| (t.busy_ns, t.delivered));
    Ok((a_ns + s_ns, a_n + s_n))
}

/// The spans file: every span with its self time, per-name self-time
/// totals, and the tracing overhead.
fn spans_document(
    kind: Kind,
    seed: u64,
    tracer: &Tracer,
    walls_off: &[f64],
    walls_on: &[f64],
) -> Value {
    let selfs = tracer.self_times_ns();
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let spans: Vec<Value> = tracer
        .spans()
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, &self_ns))| {
            *by_name.entry(s.name).or_default() += self_ns as f64 / 1e9;
            json!({
                "id": id,
                "name": s.name,
                "parent": s.parent,
                "start_us": s.start_ns as f64 / 1e3,
                "end_us": s.end_ns as f64 / 1e3,
                "self_us": self_ns as f64 / 1e3,
            })
        })
        .collect();
    let by_name: serde_json::Map<String, Value> = by_name
        .into_iter()
        .map(|(k, v)| (k.to_string(), json!(v)))
        .collect();
    json!({
        "workload": kind.name(),
        "seed": seed,
        "untraced_wall_s": walls_off,
        "traced_wall_s": walls_on,
        "tracing_overhead_s": median(walls_on) - median(walls_off),
        "self_time_s": Value::Object(by_name),
        "spans": spans,
    })
}
