//! Trait-conformance suite for the pluggable speculation-policy layer:
//! every registered [`SpeculationPolicy`] — the paper's MLP/JIT engine
//! (`xanadu`) and the learned planners (`mpc`, `rl`) — must uphold the
//! platform's core guarantees behind the same trait seam:
//!
//! 1. **Termination under chaos** — every triggered request completes
//!    under heavy deterministic fault injection, whichever policy plans.
//! 2. **Determinism** — the same seed produces byte-identical
//!    [`PlatformReport`] and audit bytes whether runs execute on 1 or 8
//!    worker threads, and report and streaming audit bytes at any
//!    sharded-replay width (1/4/8).
//! 3. **Default-path identity** — explicitly routing the default policy
//!    through the trait seam (`.policy(PolicySpec::Xanadu)`, or the
//!    registry's parsed `"xanadu"` spec) is byte-identical to the legacy
//!    construction path that predates the trait.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xanadu::prelude::*;
use xanadu_core::policy::{MpcConfig, RlConfig};
use xanadu_platform::export::{audit_json_string, streaming_json_string};
use xanadu_platform::shard::{replay_sharded_with, ShardOptions, ShardTelemetry, ShardWorkload};
use xanadu_platform::stream::StreamingConfig;
use xanadu_workloads::azure::{generate_trace, AzureTraceConfig};

/// The full policy registry, in registry order.
fn all_specs() -> [PolicySpec; 3] {
    [
        PolicySpec::Xanadu,
        PolicySpec::Mpc(MpcConfig::default()),
        PolicySpec::Rl(RlConfig::default()),
    ]
}

/// Depth-5 chain (crash/retry fodder) — same shape as the chaos suite.
fn chain_dag() -> WorkflowDag {
    linear_chain("chain", 5, &FunctionSpec::new("f").service_ms(1500.0)).unwrap()
}

/// XOR-branching workflow so prediction misses stay in the mix.
fn branchy_dag() -> WorkflowDag {
    let mut b = WorkflowBuilder::new("branchy");
    let head = b.add(FunctionSpec::new("head").service_ms(700.0)).unwrap();
    let hot = b.add(FunctionSpec::new("hot").service_ms(900.0)).unwrap();
    let alt = b.add(FunctionSpec::new("alt").service_ms(400.0)).unwrap();
    let tail = b.add(FunctionSpec::new("tail").service_ms(600.0)).unwrap();
    b.link_xor(head, &[(hot, 0.7), (alt, 0.3)]).unwrap();
    b.link(hot, tail).unwrap();
    b.build().unwrap()
}

/// JIT-mode config running `spec`; the default policy keeps the plain
/// builder path, learned policies route through the policy seam.
fn config_for(spec: &PolicySpec, seed: u64, faults: Option<FaultConfig>) -> PlatformConfig {
    let mut builder = PlatformConfig::builder().for_mode(ExecutionMode::Jit, seed);
    if !spec.is_default() {
        builder = builder.policy(spec.clone()).label(spec.name());
    }
    if let Some(f) = faults {
        builder = builder.faults(f);
    }
    builder.build().expect("valid policy config")
}

/// Runs the standard chaos workload under `spec` and asserts liveness;
/// returns the serialized report for determinism comparisons.
fn chaos_snapshot(spec: &PolicySpec, seed: u64, fault_rate: f64) -> String {
    let faults = FaultConfig::with_rate(fault_rate, 0xC0FFEE + seed);
    let mut platform = Platform::new(config_for(spec, seed, Some(faults)));
    platform.deploy(chain_dag()).unwrap();
    platform.deploy(branchy_dag()).unwrap();
    let mut triggered = 0usize;
    for i in 0..4u64 {
        let base = SimTime::from_secs(i * 120);
        platform.trigger_at("chain", base).unwrap();
        platform
            .trigger_at("branchy", base + SimDuration::from_secs(45))
            .unwrap();
        triggered += 2;
    }
    platform.run_until_idle();
    let report = platform.finish();
    assert_eq!(
        report.results.len(),
        triggered,
        "wedged request under policy {} (seed {seed}, rate {fault_rate}): \
         {} of {triggered} terminated",
        spec.name(),
        report.results.len(),
    );
    for r in &report.results {
        assert!(
            r.executed_functions > 0,
            "policy {}: request {} terminated without executing anything",
            spec.name(),
            r.request
        );
    }
    serde_json::to_string(&report).unwrap()
}

/// Every policy keeps every request live under light and certain fault
/// schedules — the chaos-termination half of the conformance contract.
#[test]
fn every_policy_terminates_under_chaos() {
    for spec in &all_specs() {
        for (i, &rate) in [0.3, 1.0].iter().enumerate() {
            chaos_snapshot(spec, 31 + i as u64, rate);
        }
    }
}

/// The chaos sweep is byte-identical whether the (policy, seed) points
/// run sequentially or raced across 8 worker threads — the `--jobs 1/8`
/// half of the determinism contract, per policy.
#[test]
fn chaos_sweep_is_byte_identical_at_any_jobs_width() {
    let points: Vec<(PolicySpec, u64)> = all_specs()
        .iter()
        .flat_map(|s| (0..4u64).map(move |i| (s.clone(), 51 + i)))
        .collect();
    let snapshot = |&(ref spec, seed): &(PolicySpec, u64)| chaos_snapshot(spec, seed, 0.6);

    let sequential: Vec<String> = points.iter().map(snapshot).collect();

    let raced: Vec<Mutex<Option<String>>> = points.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                *raced[i].lock().unwrap() = Some(snapshot(&points[i]));
            });
        }
    });

    for (i, (seq, raced)) in sequential.iter().zip(&raced).enumerate() {
        let raced = raced.lock().unwrap();
        assert_eq!(
            Some(seq),
            raced.as_ref(),
            "policy {} diverged between jobs widths",
            points[i].0.name()
        );
    }
}

/// A small Azure-style fleet for the shard sweep.
fn fleet() -> Vec<ShardWorkload> {
    let cfg = AzureTraceConfig {
        workflows: 6,
        duration: SimDuration::from_mins(2 * 60),
        ..AzureTraceConfig::default()
    };
    generate_trace(&cfg, 19)
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

/// Sharded replay is byte-identical at 1/4/8 shard threads for every
/// policy: the policy seam composes with the fleet kernel's merge.
#[test]
fn sharded_replay_is_byte_identical_per_policy() {
    for spec in &all_specs() {
        let config = config_for(spec, 99, None);
        let snapshot = |threads: usize| {
            let opts = ShardOptions {
                threads,
                ..ShardOptions::default()
            };
            let telemetry = ShardTelemetry {
                streaming: Some(StreamingConfig::default()),
                ..ShardTelemetry::default()
            };
            let run =
                replay_sharded_with(&config, fleet(), &opts, &telemetry).expect("replay succeeds");
            let streaming = run.streaming.as_ref().expect("streaming audit attached");
            assert_eq!(
                streaming.summary().requests,
                run.report.results.len() as u64,
                "the audit covers every request"
            );
            let report = serde_json::to_string(&run.report).expect("report serializes");
            (report, streaming_json_string(streaming))
        };
        let baseline = snapshot(1);
        assert!(baseline.0.contains("\"results\""), "populated report");
        for threads in [4, 8] {
            let candidate = snapshot(threads);
            assert_eq!(
                baseline.0,
                candidate.0,
                "policy {}: report bytes diverged at {threads} shards",
                spec.name()
            );
            assert_eq!(
                baseline.1,
                candidate.1,
                "policy {}: audit bytes diverged at {threads} shards",
                spec.name()
            );
        }
    }
}

/// Routing the default policy explicitly through the trait seam — via
/// `.policy(PolicySpec::Xanadu)` or the registry's parsed `"xanadu"`
/// spec — is byte-identical to the legacy construction path. This is the
/// refactor's core guarantee: the trait object adds no behavior.
#[test]
fn explicit_default_policy_matches_legacy_path() {
    let run = |config: PlatformConfig| {
        let mut platform = Platform::new(config);
        platform.deploy(branchy_dag()).unwrap();
        for i in 0..12u64 {
            platform
                .trigger_at("branchy", SimTime::from_mins(i * 20))
                .unwrap();
        }
        platform.run_until_idle();
        let audit = audit_json_string(&Audit::from_traces(
            &platform
                .results()
                .iter()
                .filter_map(|r| platform.trace(r.request).map(|t| (r.request, t.clone())))
                .collect::<Vec<_>>(),
        ));
        let report = serde_json::to_string(&platform.finish()).unwrap();
        (report, audit)
    };

    let legacy = run(PlatformConfig::for_mode(ExecutionMode::Jit, 7));
    let through_trait = run(PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 7)
        .policy(PolicySpec::Xanadu)
        .build()
        .unwrap());
    let parsed: ConfiguredPolicy = "xanadu".parse().unwrap();
    let through_registry = run(PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 7)
        .speculation(parsed.speculation.unwrap_or_default())
        .policy(parsed.spec)
        .build()
        .unwrap());

    assert_eq!(legacy.0, through_trait.0, "report bytes diverged");
    assert_eq!(legacy.1, through_trait.1, "audit bytes diverged");
    assert_eq!(legacy.0, through_registry.0, "registry report diverged");
    assert_eq!(legacy.1, through_registry.1, "registry audit diverged");
}

/// Each policy reports its own label through the shared seam, proving
/// the run actually planned through the selected implementation.
#[test]
fn policies_report_their_labels() {
    let expected = [("xanadu-jit"), ("mpc"), ("rl")];
    for (spec, label) in all_specs().iter().zip(expected) {
        let platform = Platform::new(config_for(spec, 3, None));
        assert_eq!(platform.policy_label(), label, "spec {}", spec.name());
    }
}
