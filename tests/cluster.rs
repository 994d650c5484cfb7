//! Cluster chaos/property suite: the multi-host scheduler under
//! deterministic host-failure injection.
//!
//! Mirrors the discipline of `tests/chaos.rs`, one layer up the stack:
//!
//! 1. **Termination** — every triggered request completes under any
//!    placement policy and any host-failure rate, including certain
//!    failure. Draining a host costs time, never liveness.
//! 2. **Determinism** — the same seeds produce a byte-identical
//!    serialized [`PlatformReport`] whether the sweep runs on 1 or 8
//!    worker threads, and the sharded replay is byte-identical at any
//!    `--shards` width.
//! 3. **Bounded degradation** — p95 end-to-end latency grows with the
//!    host-failure rate but stays bounded.
//!
//! Plus property tests over the [`HostRegistry`] invariants: capacity
//! is never exceeded, tenant quotas are never violated, affinity never
//! regresses a co-location opportunity least-loaded would take for
//! free, and autoscaled host-id assignment is deterministic under
//! boot-event reordering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use xanadu::prelude::*;
use xanadu_platform::hosts::{HostId, HostRegistry, PlacementRequest};
use xanadu_platform::shard::{replay_sharded, ShardOptions, ShardWorkload};
use xanadu_sandbox::WorkerId;

/// Depth-5 chain: deep enough that a mid-chain host failure drains
/// workers the request still needs.
fn chain_dag() -> WorkflowDag {
    linear_chain("chain", 5, &FunctionSpec::new("f").service_ms(1500.0)).unwrap()
}

/// XOR-branching workflow so prediction misses (and their retarget
/// recoveries) stay in the failure mix.
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

/// Runs the standard cluster chaos workload (3 triggers of each
/// workflow on a 3-host cluster) and asserts the liveness invariant.
fn run_cluster(
    policy: PlacementPolicy,
    platform_seed: u64,
    host_fail_rate: f64,
    fault_seed: u64,
) -> PlatformReport {
    let faults = FaultConfig {
        host_failure_rate: host_fail_rate,
        host_mtbf_ms: 60_000.0,
        host_reboot_ms: 20_000.0,
        ..FaultConfig::with_rate(0.0, fault_seed)
    };
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, platform_seed)
        .faults(faults)
        .cluster(ClusterConfig::uniform(policy, 3, 1024))
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    platform.deploy(chain_dag()).unwrap();
    platform.deploy(branchy_dag()).unwrap();
    let mut triggered = 0usize;
    for i in 0..3u64 {
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
        "wedged request: {policy:?} seed {platform_seed} host rate {host_fail_rate}: \
         {} of {triggered} requests terminated",
        report.results.len(),
    );
    for r in &report.results {
        assert!(
            r.executed_functions > 0,
            "request {} terminated without executing anything",
            r.request
        );
        assert!(
            r.end >= r.trigger,
            "request {} ended before it began",
            r.request
        );
    }
    report
}

/// The sweep's grid point: every placement policy crossed with light,
/// heavy and certain host-failure schedules.
fn sweep_point(i: u64) -> (PlacementPolicy, f64) {
    let policy = PlacementPolicy::ALL[(i % PlacementPolicy::ALL.len() as u64) as usize];
    let rate = [0.3, 0.7, 1.0][(i % 3) as usize];
    (policy, rate)
}

#[test]
fn every_request_terminates_across_policy_and_failure_sweep() {
    for i in 0..15u64 {
        let (policy, rate) = sweep_point(i);
        let report = run_cluster(policy, 11 + i, rate, 0xC0FFEE + i);
        let cluster = report
            .cluster
            .expect("a --hosts run always carries a cluster report");
        assert_eq!(cluster.policy, policy);
        assert_eq!(cluster.hosts.len(), 3, "no host row went missing");
        assert!(
            cluster.hosts_failed > 0 || rate < 1.0,
            "certain host failure injected nothing at sweep point {i}"
        );
    }
}

#[test]
fn cluster_reports_are_byte_identical_at_any_jobs_width() {
    const SEEDS: u64 = 15;
    let serialized = |i: u64| {
        let (policy, rate) = sweep_point(i);
        serde_json::to_string(&run_cluster(policy, 42 + i, rate, 0xC0FFEE + i)).unwrap()
    };

    // Jobs width 1: the sweep in submission order.
    let sequential: Vec<String> = (0..SEEDS).map(serialized).collect();

    // Jobs width 8: the same sweep raced across 8 worker threads pulling
    // from a shared queue, so completion order is arbitrary.
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![String::new(); SEEDS as usize]);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= SEEDS as usize {
                    return;
                }
                let json = serialized(i as u64);
                results.lock().unwrap()[i] = json;
            });
        }
    });
    let parallel = results.into_inner().unwrap();

    for (i, (seq, par)) in sequential.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(
            seq, par,
            "cluster sweep point {i} differs between --jobs 1 and --jobs 8"
        );
    }
}

#[test]
fn sharded_cluster_replay_is_byte_identical_at_any_shard_width() {
    let workloads = || -> Vec<ShardWorkload> {
        (0..8u64)
            .map(|i| {
                let dag = linear_chain(
                    format!("wf-{i}"),
                    3 + (i % 3) as usize,
                    &FunctionSpec::new("f").service_ms(400.0 + 100.0 * i as f64),
                )
                .unwrap();
                let triggers = (0..4u64)
                    .map(|t| SimTime::from_secs(t * 90 + i * 7))
                    .collect();
                ShardWorkload { dag, triggers }
            })
            .collect()
    };
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 77)
        .faults(FaultConfig {
            host_failure_rate: 0.8,
            host_mtbf_ms: 45_000.0,
            host_reboot_ms: 15_000.0,
            ..FaultConfig::with_rate(0.0, 0xFEED)
        })
        .cluster(ClusterConfig::uniform(PlacementPolicy::Affinity, 4, 1024))
        .build()
        .unwrap();

    let run_at = |threads: usize| {
        let opts = ShardOptions {
            threads,
            ..ShardOptions::default()
        };
        let run = replay_sharded(&config, workloads(), &opts).unwrap();
        serde_json::to_string(&run.report).unwrap()
    };

    let narrow = run_at(1);
    assert!(
        narrow.contains("\"cluster\""),
        "merged report lost its cluster section"
    );
    for width in [4usize, 8] {
        assert_eq!(
            narrow,
            run_at(width),
            "sharded cluster report differs between --shards 1 and --shards {width}"
        );
    }
}

#[test]
fn p95_degrades_monotonically_and_boundedly_with_host_failure_rate() {
    let p95 = |report: &PlatformReport| -> f64 {
        let mut v: Vec<f64> = report
            .results
            .iter()
            .map(|r| r.end_to_end.as_millis_f64())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[((v.len() as f64 * 0.95).ceil() as usize).min(v.len()) - 1]
    };
    let rates = [0.0, 0.5, 1.0];
    let p95s: Vec<f64> = rates
        .iter()
        .map(|&rate| p95(&run_cluster(PlacementPolicy::LeastLoaded, 3, rate, 0xDE6)))
        .collect();
    for w in p95s.windows(2) {
        assert!(
            w[1] >= w[0] * 0.999,
            "p95 must not improve as the host-failure rate rises: {p95s:?}"
        );
    }
    // Bounded: a drain re-places every lost worker and the reboot clock
    // is finite, so even certain failure stays within two orders of
    // magnitude of the failure-free run.
    assert!(
        p95s[rates.len() - 1] <= p95s[0] * 100.0,
        "certain host failure blew past the degradation bound: {p95s:?}"
    );
    assert!(
        p95s[rates.len() - 1] > p95s[0],
        "certain host failure must cost latency: {p95s:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No interleaving of placements and releases ever pushes a host
    /// past its memory capacity.
    #[test]
    fn no_host_ever_exceeds_its_capacity(
        capacities in proptest::collection::vec(256u64..1024, 1..5),
        ops in proptest::collection::vec((0u64..1_000_000, 64u32..512, 0u32..2), 1..80),
    ) {
        let mut reg = HostRegistry::new(PlacementPolicy::LeastLoaded);
        for (i, mb) in capacities.iter().enumerate() {
            reg.add_host(HostSpec::new(format!("h{i}"), *mb));
        }
        let mut live: Vec<(WorkerId, u32)> = Vec::new();
        let mut next = 0u64;
        for (pick, mem, release) in ops {
            let release = release == 1;
            if release && !live.is_empty() {
                let (w, _) = live.remove(pick as usize % live.len());
                reg.release(w);
            } else {
                next += 1;
                let w = WorkerId(next);
                if reg.place(w, mem).is_ok() {
                    live.push((w, mem));
                }
            }
            let mut used_sum = 0u64;
            for h in 0..reg.len() {
                let id = HostId(h as u32);
                prop_assert!(
                    reg.free_mb(id) <= reg.memory_mb(id),
                    "host {h} over capacity"
                );
                used_sum += reg.memory_mb(id) - reg.free_mb(id);
            }
            let placed_sum: u64 = live.iter().map(|(_, m)| u64::from(*m)).sum();
            prop_assert_eq!(used_sum, placed_sum, "usage accounting drifted");
        }
    }

    /// Placements charged to a quota'd tenant never push its usage past
    /// the quota, on-demand or speculative, no matter the interleaving.
    #[test]
    fn tenant_quotas_are_never_violated(
        quotas in proptest::collection::vec(256u64..768, 1..4),
        ops in proptest::collection::vec(
            ((0u64..1_000_000, 64u32..512), (0u32..4, 0u32..2, 0u32..2)),
            1..80,
        ),
    ) {
        let mut reg = HostRegistry::new(PlacementPolicy::LeastLoaded);
        reg.add_host(HostSpec::new("big-0", 8 * 1024));
        reg.add_host(HostSpec::new("big-1", 8 * 1024));
        reg.set_tenants(
            quotas
                .iter()
                .enumerate()
                .map(|(i, &q)| TenantConfig {
                    quota_mb: q,
                    weight: 1.0 + i as f64,
                    ..TenantConfig::new(format!("t{i}"))
                })
                .collect(),
        );
        let mut live: Vec<WorkerId> = Vec::new();
        let mut next = 0u64;
        for ((pick, mem), (tenant, on_demand, release)) in ops {
            if release == 1 && !live.is_empty() {
                let w = live.remove(pick as usize % live.len());
                reg.release(w);
            } else {
                next += 1;
                let w = WorkerId(next);
                let req = PlacementRequest {
                    tenant: Some(tenant % quotas.len() as u32),
                    on_demand: on_demand == 1,
                    ..PlacementRequest::bare(w, mem)
                };
                if reg.place_for(&req).is_ok() {
                    live.push(w);
                }
            }
            for (t, &quota) in quotas.iter().enumerate() {
                prop_assert!(
                    reg.tenant_used_mb(t as u32) <= quota,
                    "tenant {t} past its {quota} MB quota"
                );
            }
        }
    }

    /// Wherever least-loaded would happen to co-locate a request's next
    /// worker, affinity co-locates at least as well — it never regresses
    /// a co-location opportunity least-loaded takes for free.
    #[test]
    fn affinity_never_regresses_a_free_colocation(
        seed_placements in proptest::collection::vec(
            (0u64..6, 64u32..256),
            1..24,
        ),
        probe_request in 0u64..6,
        probe_mem in 64u32..256,
    ) {
        let mut reg = HostRegistry::new(PlacementPolicy::Affinity);
        for i in 0..3 {
            reg.add_host(HostSpec::new(format!("h{i}"), 1024));
        }
        let mut next = 0u64;
        for (request, mem) in seed_placements {
            next += 1;
            let req = PlacementRequest {
                request: Some(request),
                ..PlacementRequest::bare(WorkerId(next), mem)
            };
            let _ = reg.place_for(&req);
        }
        let probe = PlacementRequest {
            request: Some(probe_request),
            ..PlacementRequest::bare(WorkerId(next + 1), probe_mem)
        };
        if let Some(ll) = reg.peek(PlacementPolicy::LeastLoaded, &probe) {
            let af = reg.peek(PlacementPolicy::Affinity, &probe);
            prop_assert!(af.is_some(), "affinity found no host where least-loaded did");
            prop_assert!(
                reg.colocation(af.unwrap(), probe_request)
                    >= reg.colocation(ll, probe_request),
                "affinity picked {} neighbours where least-loaded had {}",
                reg.colocation(af.unwrap(), probe_request),
                reg.colocation(ll, probe_request),
            );
        }
    }

    /// Autoscaled host ids are assigned at reservation, in reservation
    /// order — delaying or reordering the boot events that follow never
    /// changes which id (or name) a host gets.
    #[test]
    fn autoscaled_host_ids_are_deterministic_under_event_reordering(
        mems in proptest::collection::vec(128u32..512, 4..40),
        boot_delay in 0usize..3,
    ) {
        let run = |boot_delay: usize| {
            let mut reg = HostRegistry::new(PlacementPolicy::LeastLoaded);
            reg.add_host(HostSpec::new("static-0", 1024));
            reg.set_autoscale(AutoscaleConfig {
                max_hosts: 8,
                host_memory_mb: 1024,
                ..AutoscaleConfig::default()
            });
            let mut pending: Vec<(HostId, usize)> = Vec::new();
            let mut names = Vec::new();
            let mut next = 0u64;
            for (step, &mem) in mems.iter().enumerate() {
                if reg.wants_scale_up() {
                    let spec = reg.autoscale_host_spec();
                    names.push(spec.name.clone());
                    pending.push((reg.reserve_host(spec), step + boot_delay));
                }
                pending.retain(|&(host, due)| {
                    if due <= step {
                        reg.activate_host(host);
                        false
                    } else {
                        true
                    }
                });
                next += 1;
                let _ = reg.place(WorkerId(next), mem);
            }
            names
        };
        let names = run(boot_delay);
        // Ids are dense and ordered: reservation k gets name `auto-{k+1}`
        // (after the one static host), whatever the boot schedule.
        for (k, name) in names.iter().enumerate() {
            prop_assert_eq!(name.clone(), format!("auto-{}", k + 1));
        }
        // And the schedule itself is reproducible run to run.
        prop_assert_eq!(names, run(boot_delay));
    }
}
