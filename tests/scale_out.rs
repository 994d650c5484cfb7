//! Scale-out integration: fan-out/fan-in workloads and multi-host
//! clusters, exercising the m:n relationships of §2.1 together with the
//! Dispatch-Daemon placement layer of Figure 11.

use xanadu::prelude::*;
use xanadu_platform::export::streaming_json_string;
use xanadu_platform::hosts::{HostSpec, PlacementPolicy};
use xanadu_platform::shard::{replay_sharded_with, ShardOptions, ShardTelemetry, ShardWorkload};
use xanadu_platform::stream::StreamingConfig;
use xanadu_workloads::azure::{generate_trace, AzureTraceConfig};
use xanadu_workloads::{fan_out_fan_in, layered_fan};

fn run(mut platform: Platform, dag: WorkflowDag) -> RunResult {
    let name = dag.name().to_string();
    platform.deploy(dag).unwrap();
    platform.trigger_at(&name, SimTime::ZERO).unwrap();
    platform.run_until_idle();
    platform.finish().results.remove(0)
}

#[test]
fn wide_fan_speculation_avoids_cascades() {
    let dag = fan_out_fan_in("fan", 12, 100.0, 2000.0).unwrap();
    let cold = run(
        Platform::new(PlatformConfig::for_mode(ExecutionMode::Cold, 3)),
        dag.clone(),
    );
    let spec = run(
        Platform::new(PlatformConfig::for_mode(ExecutionMode::Speculative, 3)),
        dag,
    );
    assert_eq!(cold.executed_functions, 14);
    assert_eq!(spec.executed_functions, 14);
    // Cold: split's cold start, then 12 *parallel* cold starts (one wave,
    // not a cascade — our provider contends but runs them concurrently),
    // then join's. Speculation still wins by overlapping all of it.
    assert!(
        spec.overhead.as_millis_f64() < cold.overhead.as_millis_f64() * 0.7,
        "spec {spec:?} vs cold {cold:?}"
    );
    // The fan's reference is split + slowest worker + join.
    assert_eq!(spec.exec_reference.as_millis_f64(), 2200.0);
}

#[test]
fn layered_fan_executes_all_stages() {
    let dag = layered_fan("layers", 3, 4, 100.0, 800.0).unwrap();
    let expected = dag.len() as u32;
    let r = run(
        Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 5)),
        dag,
    );
    assert_eq!(r.executed_functions, expected);
    assert_eq!(r.misses, 0, "deterministic m:n workflow never misses");
    assert_eq!(r.exec_reference.as_millis_f64(), 4.0 * 100.0 + 3.0 * 800.0);
}

#[test]
fn small_cluster_survives_wide_fan() {
    // A 12-wide fan of 512 MB workers against a 4 GB, two-host cluster:
    // placement pressure forces evictions, but the request completes and
    // memory accounting stays within capacity.
    let cfg = PlatformConfig::builder()
        .for_mode(ExecutionMode::Speculative, 7)
        .cluster(ClusterConfig {
            policy: PlacementPolicy::RoundRobin,
            hosts: vec![
                HostSpec::new("small-a", 2048),
                HostSpec::new("small-b", 2048),
            ],
            ..ClusterConfig::default()
        })
        .build()
        .unwrap();
    let mut platform = Platform::new(cfg);
    let dag = fan_out_fan_in("fan", 12, 100.0, 1500.0).unwrap();
    platform.deploy(dag).unwrap();
    platform.trigger_at("fan", SimTime::ZERO).unwrap();
    platform.run_until_idle();
    assert_eq!(platform.results()[0].executed_functions, 14);
    assert!(platform.cluster().total_used_mb() <= 4096);
}

/// A small Azure-style fleet for the shard sweep: real trace arrivals,
/// per-workflow function namespaces.
fn azure_fleet() -> Vec<ShardWorkload> {
    let cfg = AzureTraceConfig {
        workflows: 8,
        duration: SimDuration::from_mins(2 * 60),
        ..AzureTraceConfig::default()
    };
    generate_trace(&cfg, 17)
        .into_iter()
        .map(|t| {
            let template = FunctionSpec::new(format!("{}-f", t.name)).service_ms(350.0);
            ShardWorkload {
                dag: linear_chain(&t.name, 4, &template).expect("valid chain"),
                triggers: t.arrivals,
            }
        })
        .collect()
}

/// Replays the fleet and returns `(report JSON, streaming audit JSON)`.
fn sharded_snapshot(threads: usize, fault_rate: f64, plan_cache: bool) -> (String, String) {
    let mut builder = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 99)
        .plan_cache(plan_cache);
    if fault_rate > 0.0 {
        builder = builder.faults(FaultConfig::with_rate(fault_rate, 0xFA17));
    }
    let config = builder.build().expect("valid config");
    let opts = ShardOptions {
        threads,
        ..ShardOptions::default()
    };
    let telemetry = ShardTelemetry {
        streaming: Some(StreamingConfig::default()),
        ..ShardTelemetry::default()
    };
    let run =
        replay_sharded_with(&config, azure_fleet(), &opts, &telemetry).expect("replay succeeds");
    let streaming = run.streaming.as_ref().expect("streaming audit attached");
    assert_eq!(
        streaming.summary().requests,
        run.report.results.len() as u64,
        "the audit covers every request"
    );
    let report = serde_json::to_string(&run.report).expect("report serializes");
    (report, streaming_json_string(streaming))
}

/// The tentpole guarantee of the sharded kernel: `PlatformReport` and
/// streaming audit bytes are identical at any shard count — the same contract PR 1
/// established for `--jobs` — including under fault injection and with
/// the plan cache off.
#[test]
fn shard_sweep_is_byte_identical() {
    for &(fault_rate, plan_cache) in &[(0.0, true), (0.0, false), (0.15, true), (0.15, false)] {
        let baseline = sharded_snapshot(1, fault_rate, plan_cache);
        assert!(
            baseline.0.contains("\"results\""),
            "report should be populated"
        );
        for threads in [2, 4, 8] {
            let candidate = sharded_snapshot(threads, fault_rate, plan_cache);
            assert_eq!(
                baseline.0, candidate.0,
                "report bytes diverged at {threads} shards \
                 (fault_rate {fault_rate}, plan_cache {plan_cache})"
            );
            assert_eq!(
                baseline.1, candidate.1,
                "audit bytes diverged at {threads} shards \
                 (fault_rate {fault_rate}, plan_cache {plan_cache})"
            );
        }
    }
    // Faults actually fired in the faulty sweeps (the sweep is not
    // vacuously comparing fault-free runs).
    let (report, _) = sharded_snapshot(1, 0.15, true);
    let report: PlatformReport = serde_json::from_str(&report).expect("report parses");
    let crashed = report.worker_records.iter().filter(|r| r.crashed).count();
    assert!(crashed > 0, "fault sweep should crash some workers");
}

#[test]
fn placement_policies_spread_or_pack() {
    let hosts = vec![HostSpec::new("a", 8192), HostSpec::new("b", 8192)];
    let spread_counts = |policy: PlacementPolicy| {
        let cfg = PlatformConfig::builder()
            .for_mode(ExecutionMode::Speculative, 11)
            .cluster(ClusterConfig {
                policy,
                hosts: hosts.clone(),
                ..ClusterConfig::default()
            })
            .build()
            .unwrap();
        let mut platform = Platform::new(cfg);
        let dag = fan_out_fan_in("fan", 6, 100.0, 1000.0).unwrap();
        platform.deploy(dag).unwrap();
        platform.trigger_at("fan", SimTime::ZERO).unwrap();
        platform.run_until_idle();
        let cluster = platform.cluster();
        (0..2)
            .map(|i| cluster.worker_count(xanadu_platform::hosts::HostId(i)))
            .collect::<Vec<_>>()
    };
    let least = spread_counts(PlacementPolicy::LeastLoaded);
    assert!(least[0].abs_diff(least[1]) <= 1, "balanced: {least:?}");
    let first = spread_counts(PlacementPolicy::FirstFit);
    assert_eq!(first[1], 0, "first-fit packs host 0: {first:?}");
}
