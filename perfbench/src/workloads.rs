//! The three workloads: inputs generated from a seed, one timed
//! iteration through the public library surface, the oracle pass over
//! its output, and the simulated (`sim_*`) metrics it produced.
//!
//! All simulated load is open-loop: triggers fire on their precomputed
//! Azure or Poisson schedule whatever the platform's state, and simulated
//! latency counts from each trigger time. Host-side, an iteration is a
//! batch job timed from the first call into the system until its output
//! digest is computed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::Value;
use xanadu::cli::ExportFile;
use xanadu::serve::{run_serve, ServeArgs};
use xanadu::xanadu_chain::{linear_chain, FunctionSpec};
use xanadu::xanadu_core::speculation::{ExecutionMode, MissPolicy, SpeculationConfig};
use xanadu::xanadu_platform::export::{slo_json_string, streaming_json_string};
use xanadu::xanadu_platform::shard::{
    replay_sharded_with, ShardOptions, ShardTelemetry, ShardWorkload, ShardedRun,
};
use xanadu::xanadu_platform::{
    ClusterConfig, DiffThresholds, FaultConfig, PlacementPolicy, Platform, PlatformConfig,
    PlatformReport, SloConfig, StreamingConfig,
};
use xanadu::xanadu_simcore::SimDuration;
use xanadu::xanadu_workloads::azure::{generate_trace, scale_to_invocations, AzureTraceConfig};
use xanadu::xanadu_workloads::stream::{GeneratedStream, StreamEvent, StreamHeader};
use xanadu::xanadu_workloads::{random_binary_tree, RandomTreeConfig};

use crate::metrics::Values;
use crate::oracle::{
    check_replay, check_serve, summary_digest, ServeOutputs, Verdict, ALERTS, AUDIT, CHECKPOINTS,
};
use crate::stats::{fnv1a64, nearest_rank};
use crate::trace::Tracer;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Azure-style fleet of depth-5 linear chains, 2 shard threads,
    /// streaming audit and SLO telemetry attached.
    FleetReplay,
    /// The same arrival schedule over 10-node XOR trees on a 4-host
    /// affinity cluster with replan-and-reuse and 20% fault injection.
    BranchyCluster,
    /// `xanadu serve` over a generated stream, checkpointing every
    /// 1000 events.
    ServeCheckpoint,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [
        Kind::FleetReplay,
        Kind::BranchyCluster,
        Kind::ServeCheckpoint,
    ];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetReplay => "fleet-replay",
            Kind::BranchyCluster => "branchy-cluster",
            Kind::ServeCheckpoint => "serve-checkpoint",
        }
    }
}

/// Input sizes of one iteration.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Target fleet size of the replays (Azure trace scaled to it).
    pub invocations: u64,
    /// Generated stream length of `serve-checkpoint`.
    pub stream_events: u64,
    /// Stream events per serve checkpoint epoch.
    pub checkpoint_every: u64,
}

impl Size {
    /// The sizes the benchmark measures.
    pub const BENCH: Size = Size {
        invocations: 50_000,
        stream_events: 40_000,
        checkpoint_every: 1_000,
    };
}

/// Chain depth of every `fleet-replay` workflow (the `xanadu replay`
/// default).
pub const FLEET_DEPTH: u32 = 5;
/// Shard threads of `fleet-replay`.
pub const FLEET_THREADS: usize = 2;
/// Service time of every fleet and serve chain function (`xanadu
/// replay` / `xanadu serve`).
pub const CHAIN_SERVICE_MS: f64 = 400.0;
/// The `xanadu serve` default population.
pub const SERVE_WORKFLOWS: u32 = 6;
pub const SERVE_DEPTH: u32 = 4;
pub const SERVE_RATE_PER_HOUR: f64 = 120.0;

/// Generated inputs of one workload.
pub enum Inputs {
    Replay(ReplayInputs),
    Serve(ServeInputs),
}

pub struct ReplayInputs {
    pub workloads: Vec<ShardWorkload>,
    pub config: PlatformConfig,
    pub opts: ShardOptions,
    pub telemetry: ShardTelemetry,
    /// `Some(depth)` when every workflow is a linear chain.
    pub linear_depth: Option<u32>,
    /// Service time the planner estimates are built from.
    pub service_ms: f64,
}

pub struct ServeInputs {
    /// Everything but the per-iteration output paths.
    pub args: ServeArgs,
    /// The stream, generated independently of `run_serve` for the oracle.
    pub header: StreamHeader,
    pub events: Vec<StreamEvent>,
}

impl Inputs {
    /// Builds a workload's inputs from its seed. Deterministic in
    /// `(kind, seed, size)`.
    pub fn build(kind: Kind, seed: u64, size: Size, tracer: &mut Tracer) -> Inputs {
        match kind {
            Kind::FleetReplay | Kind::BranchyCluster => {
                Inputs::Replay(replay_inputs(kind, seed, size, tracer))
            }
            Kind::ServeCheckpoint => Inputs::Serve(serve_inputs(seed, size, tracer)),
        }
    }

    /// FNV-1a over the generated schedule and workflow names.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        match self {
            Inputs::Replay(r) => {
                for w in &r.workloads {
                    bytes.extend_from_slice(w.dag.name().as_bytes());
                    for t in &w.triggers {
                        bytes.extend_from_slice(&t.as_micros().to_le_bytes());
                    }
                }
            }
            Inputs::Serve(s) => {
                for e in &s.events {
                    bytes.extend_from_slice(&e.at_us.to_le_bytes());
                    bytes.extend_from_slice(&e.wf.to_le_bytes());
                }
            }
        }
        fnv1a64(&bytes)
    }
}

fn replay_inputs(kind: Kind, seed: u64, size: Size, tracer: &mut Tracer) -> ReplayInputs {
    let traces = tracer.span("workloads.trace_build", |_| {
        generate_trace(
            &scale_to_invocations(&AzureTraceConfig::default(), size.invocations),
            seed,
        )
    });
    let tree = RandomTreeConfig {
        bias_lo: 0.5,
        bias_hi: 0.95,
        ..RandomTreeConfig::default()
    };
    let workloads: Vec<ShardWorkload> = tracer.span("chain.dag_build", |_| {
        traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let dag = match kind {
                    // One function namespace per workflow, as `xanadu
                    // replay` builds its fleet.
                    Kind::FleetReplay => linear_chain(
                        &t.name,
                        FLEET_DEPTH as usize,
                        &FunctionSpec::new(format!("{}-f", t.name)).service_ms(CHAIN_SERVICE_MS),
                    ),
                    // Trees are named `tree-<tree seed>`; the index in the
                    // low bits keeps names unique within a fleet.
                    _ => random_binary_tree(&tree, (seed << 20) | i as u64),
                }
                .expect("generated workflows are valid");
                ShardWorkload {
                    dag,
                    triggers: t.arrivals,
                }
            })
            .collect()
    });

    let window = SimDuration::from_secs(60);
    let builder = PlatformConfig::builder().for_mode(ExecutionMode::Jit, seed);
    match kind {
        Kind::FleetReplay => ReplayInputs {
            workloads,
            config: builder
                .speculation(SpeculationConfig::for_mode(ExecutionMode::Jit))
                .plan_cache(true)
                .cluster(ClusterConfig::uniform(PlacementPolicy::default(), 0, 4096))
                .build()
                .expect("fleet config is valid"),
            opts: ShardOptions {
                threads: FLEET_THREADS,
                window,
            },
            telemetry: ShardTelemetry {
                streaming: Some(StreamingConfig::default()),
                slo: Some(SloConfig {
                    window,
                    thresholds: DiffThresholds::default(),
                }),
                metrics: false,
                progress: false,
            },
            linear_depth: Some(FLEET_DEPTH),
            service_ms: CHAIN_SERVICE_MS,
        },
        _ => ReplayInputs {
            workloads,
            config: builder
                .speculation(SpeculationConfig {
                    miss_policy: MissPolicy::ReplanAndReuse,
                    ..SpeculationConfig::for_mode(ExecutionMode::Jit)
                })
                .plan_cache(true)
                .cluster(ClusterConfig::uniform(PlacementPolicy::Affinity, 4, 4096))
                .faults(FaultConfig::with_rate(0.2, seed ^ 0xFA17))
                .build()
                .expect("cluster config is valid"),
            opts: ShardOptions { threads: 1, window },
            telemetry: ShardTelemetry::default(),
            linear_depth: None,
            service_ms: tree.service_ms,
        },
    }
}

fn serve_inputs(seed: u64, size: Size, tracer: &mut Tracer) -> ServeInputs {
    let (header, events) = tracer.span("workloads.stream_build", |_| {
        GeneratedStream::new(
            SERVE_WORKFLOWS,
            SERVE_DEPTH,
            SERVE_RATE_PER_HOUR,
            seed,
            size.stream_events,
        )
        .collect_events()
    });
    let args = ServeArgs {
        stream: None,
        events: size.stream_events,
        workflows: SERVE_WORKFLOWS,
        depth: SERVE_DEPTH,
        rate_per_hour: SERVE_RATE_PER_HOUR,
        seed,
        mode: ExecutionMode::Jit,
        checkpoint_dir: String::new(),
        checkpoint_every: size.checkpoint_every,
        alerts_out: None,
        metrics_text: None,
        audit_out: None,
        slo_out: None,
        slo: None,
        slo_window_secs: 60,
        stop_after_checkpoints: 0,
        status_every: 0,
        sketch_edges: 64,
        bench_out: None,
        fail_on_alert: false,
    };
    ServeInputs {
        args,
        header,
        events,
    }
}

/// One finished iteration.
pub struct Outcome {
    /// Host seconds from the first call into the system to the digest.
    pub wall_s: f64,
    /// Simulated requests completed.
    pub requests: u64,
    /// Output digest: the merged report's on replays, the audit's on serve.
    pub digest: String,
    pub verdict: Verdict,
    /// The `sim_*` metrics.
    pub sim: Values,
    pub detail: Detail,
}

/// What the traced run's layer probes read from an iteration.
pub enum Detail {
    Replay {
        run: Box<ShardedRun>,
        report_bytes: usize,
    },
    Serve {
        /// The iteration's output directory: checkpoint log, alerts,
        /// metrics text and the audit export.
        dir: PathBuf,
        audit: Value,
    },
}

impl Outcome {
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }
}

/// Runs one replay iteration on `threads` shard threads with
/// `telemetry`, then checks its output.
pub fn replay_iteration(
    inp: &ReplayInputs,
    threads: usize,
    telemetry: &ShardTelemetry,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let workloads = inp.workloads.clone();
    let opts = ShardOptions {
        threads,
        ..inp.opts
    };
    let started = Instant::now();
    let (run, report_bytes, digest) = tracer.span("iteration", |t| {
        let run = t
            .span("platform.shard.replay", |_| {
                replay_sharded_with(&inp.config, workloads, &opts, telemetry)
            })
            .map_err(|e| e.to_string())?;
        let report_json = t.span("platform.export.report_serialize", |_| {
            serde_json::to_value(&run.report)
                .expect("report serializes")
                .to_json_string_pretty()
                + "\n"
        });
        if run.streaming.is_some() || run.slo.is_some() {
            t.span("platform.export.audit_serialize", |_| {
                let audit = run.streaming.as_ref().map(streaming_json_string);
                let slo = run.slo.as_ref().map(|m| slo_json_string(&m.report()));
                std::hint::black_box((audit, slo));
            });
        }
        let digest = t.span("platform.export.digest", |_| {
            fnv1a64(report_json.as_bytes())
        });
        Ok::<_, String>((run, report_json.len(), digest))
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Outcome {
        wall_s,
        requests: run.report.results.len() as u64,
        digest: format!("fnv1a64:{digest:016x}"),
        verdict: check_replay(&inp.workloads, &run.report, inp.linear_depth),
        sim: replay_sim(&run.report),
        detail: Detail::Replay {
            run: Box::new(run),
            report_bytes,
        },
    })
}

/// The `sim_*` metrics of a replay, exact from the merged report.
pub fn replay_sim(report: &PlatformReport) -> Values {
    let mut e2e: Vec<f64> = report
        .results
        .iter()
        .map(|r| r.end_to_end.as_millis_f64())
        .collect();
    e2e.sort_by(f64::total_cmp);
    let (cold, warm) = report.start_counts();
    let mut v = Values::default();
    v.set("sim_overhead_mean_ms", report.mean_overhead_ms());
    if !e2e.is_empty() {
        v.set("sim_e2e_p50_ms", nearest_rank(&e2e, 0.5));
        v.set("sim_e2e_p999_ms", nearest_rank(&e2e, 0.999));
    }
    v.set(
        "sim_cold_start_ratio",
        f64::from(cold) / f64::from((cold + warm).max(1)),
    );
    v.set("sim_cpu_cost_s", report.total_resources().cpu_s);
    v
}

/// Runs `run_serve` once into a fresh `dir` with the workload's outputs
/// switched on (checkpoint log, alerts, metrics text and audit export,
/// which is written to `audit.json` as the CLI writes staged exports).
/// Returns the host seconds `run_serve` took and its summary text.
pub fn run_serve_into(
    inp: &ServeInputs,
    checkpoint_every: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(f64, String), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let args = ServeArgs {
        checkpoint_dir: path(CHECKPOINTS),
        checkpoint_every,
        alerts_out: Some(path(ALERTS)),
        metrics_text: Some(path("metrics.prom")),
        audit_out: Some(path(AUDIT)),
        ..inp.args.clone()
    };
    let source = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let mut exports: Vec<ExportFile> = Vec::new();
    let started = Instant::now();
    let summary = tracer
        .span("iteration", |t| {
            t.span("xanadu.serve.run_serve", |_| {
                run_serve(&args, &source, &mut exports)
            })
        })
        .map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    for export in exports {
        std::fs::write(&export.path, export.contents)
            .map_err(|e| format!("{}: {e}", export.path))?;
    }
    Ok((wall_s, summary))
}

/// Runs `run_serve` once into `dir` and checks what it left behind.
pub fn serve_iteration(
    inp: &ServeInputs,
    checkpoint_every: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let (wall_s, summary) = run_serve_into(inp, checkpoint_every, dir, tracer)?;
    let verdict = check_serve(&ServeOutputs {
        stream_events: inp.events.len() as u64,
        checkpoint_every,
        summary: &summary,
        dir,
    });
    let audit_json =
        std::fs::read_to_string(dir.join(AUDIT)).map_err(|e| format!("audit export: {e}"))?;
    let audit: Value =
        serde_json::from_str(&audit_json).map_err(|e| format!("audit export: {e:?}"))?;
    Ok(Outcome {
        wall_s,
        requests: audit["requests"].as_u64().unwrap_or(0),
        digest: summary_digest(&summary).unwrap_or_default().to_string(),
        verdict,
        sim: serve_sim(&audit),
        detail: Detail::Serve {
            dir: dir.to_path_buf(),
            audit,
        },
    })
}

/// The `sim_*` metrics of a serve run, from its streaming audit. Serve
/// keeps no per-request results, so the percentiles are the audit's
/// bucketed ones and the cold-start ratio counts requests that waited at
/// least 1 ms on a cold start. Serve exports no resource accounting:
/// `sim_cpu_cost_s` comes from [`serve_reference_cpu_s`] instead.
pub fn serve_sim(audit: &Value) -> Values {
    let requests = audit["requests"].as_u64().unwrap_or(0).max(1) as f64;
    let comp = |c: &str| audit["components"][c]["total_ms"].as_f64().unwrap_or(0.0);
    let cold_hist = &audit["components"]["cold_start_wait"]["hist"];
    let no_wait = cold_hist["counts"][0].as_u64().unwrap_or(0) as f64;
    let mut v = Values::default();
    v.set(
        "sim_overhead_mean_ms",
        (comp("cold_start_wait") + comp("queue_wait") + comp("stall")) / requests,
    );
    let e2e = &audit["end_to_end_ms"];
    v.set("sim_e2e_p50_ms", e2e["p50_ms"].as_f64().unwrap_or(0.0));
    v.set("sim_e2e_p999_ms", e2e["p99_9_ms"].as_f64().unwrap_or(0.0));
    v.set("sim_cold_start_ratio", 1.0 - no_wait / requests);
    v
}

/// A platform deployed with the serve population (one implicit linear
/// chain per workflow, as each serve epoch deploys them) and not yet
/// triggered.
pub fn serve_reference_platform(inp: &ServeInputs) -> Result<Platform, String> {
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, inp.args.seed)
        .record_traces(false)
        .build()
        .map_err(|e| e.to_string())?;
    let mut platform = Platform::new(config);
    for wf in 0..inp.header.workflows {
        let name = inp.header.workflow_name(wf);
        let template = FunctionSpec::new(format!("{name}-f")).service_ms(CHAIN_SERVICE_MS);
        let dag =
            linear_chain(&name, inp.header.depth as usize, &template).map_err(|e| e.to_string())?;
        platform.deploy_implicit(dag).map_err(|e| e.to_string())?;
    }
    Ok(platform)
}

/// Triggers every stream event on `platform` at its stream time.
pub fn trigger_stream(platform: &mut Platform, inp: &ServeInputs) -> Result<(), String> {
    for ev in &inp.events {
        platform
            .trigger_at(&inp.header.workflow_name(ev.wf), ev.at())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `C_R_cpu` (CPU-s) of the serve stream replayed through one
/// long-lived platform, the batch reference `xanadu serve` itself uses
/// for its streaming-versus-batch p95 delta.
pub fn serve_reference_cpu_s(inp: &ServeInputs) -> Result<f64, String> {
    let mut platform = serve_reference_platform(inp)?;
    trigger_stream(&mut platform, inp)?;
    Ok(platform.finish().total_resources().cpu_s)
}

/// Runs one iteration of whichever workload `inputs` holds, as the
/// untraced run measures it; `dir` is scratch space for serve's outputs.
pub fn iteration(inputs: &Inputs, dir: &Path, tracer: &mut Tracer) -> Result<Outcome, String> {
    match inputs {
        Inputs::Replay(r) => replay_iteration(r, r.opts.threads, &r.telemetry, tracer),
        Inputs::Serve(s) => serve_iteration(s, s.args.checkpoint_every, dir, tracer),
    }
}
