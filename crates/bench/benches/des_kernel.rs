//! Microbenchmark: discrete-event kernel throughput — raw event queue
//! operations, a full platform run of a 10-deep chain request, and the
//! sharded fleet replay that the `kernel-throughput` CI job guards.

use criterion::{criterion_group, criterion_main, Criterion};
use xanadu_chain::{linear_chain, FunctionSpec};
use xanadu_core::speculation::ExecutionMode;
use xanadu_platform::shard::{replay_sharded, ShardOptions, ShardWorkload};
use xanadu_platform::{Platform, PlatformConfig};
use xanadu_simcore::{EventQueue, SimTime};

fn bench_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_micros((i * 7919) % 10_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            std::hint::black_box(sum)
        });
    });
    // Steady-state churn: interleaved push/pop with times marching
    // forward, the access pattern the calendar queue's O(1) buckets are
    // built for (a heap pays O(log n) per op here).
    c.bench_function("event_queue_churn_16k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(64);
            let mut now = 0u64;
            let mut sum = 0u64;
            for i in 0..16_384u64 {
                q.schedule(SimTime::from_micros(now + 1 + (i * 7919) % 5_000), i);
                if i % 2 == 1 {
                    if let Some((t, e)) = q.pop() {
                        now = t.as_micros();
                        sum = sum.wrapping_add(e);
                    }
                }
            }
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            std::hint::black_box(sum)
        });
    });
}

fn bench_platform_request(c: &mut Criterion) {
    let dag = linear_chain("bench", 10, &FunctionSpec::new("f").service_ms(5000.0)).expect("chain");
    c.bench_function("platform_jit_depth10_request", |b| {
        b.iter(|| {
            let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 1));
            p.deploy(dag.clone()).expect("deploy");
            p.trigger_at("bench", SimTime::ZERO).expect("trigger");
            p.run_until_idle();
            std::hint::black_box(p.finish().results.len())
        });
    });
}

fn bench_sharded_replay(c: &mut Criterion) {
    // A miniature of the CI acceptance workload: a fleet of independent
    // linear chains replayed through the sharded engine. Guards the
    // whole event-dispatch hot path (interned trigger events, calendar
    // queue, Vec-indexed run slab) rather than one structure.
    let workloads: Vec<ShardWorkload> = (0..8)
        .map(|i| {
            let name = format!("wf{i}");
            let template = FunctionSpec::new(format!("{name}-f")).service_ms(400.0);
            ShardWorkload {
                dag: linear_chain(&name, 5, &template).expect("chain"),
                triggers: (0..50u64).map(|k| SimTime::from_secs(k * 30 + i)).collect(),
            }
        })
        .collect();
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 7)
        .record_traces(false)
        .build()
        .expect("valid config");
    c.bench_function("sharded_replay_8wf_400req", |b| {
        b.iter(|| {
            let run = replay_sharded(
                &config,
                workloads.clone(),
                &ShardOptions {
                    threads: 1,
                    ..ShardOptions::default()
                },
            )
            .expect("replay");
            std::hint::black_box(run.events_processed)
        });
    });
}

criterion_group!(
    benches,
    bench_queue,
    bench_platform_request,
    bench_sharded_replay
);
criterion_main!(benches);
