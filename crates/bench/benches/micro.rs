//! Criterion micro-benchmarks: the hot paths of the scheduler itself
//! (not part of the paper's evaluation — engineering health checks).
//!
//! - `allocate`: Pseudocode 1 over n jobs (the per-event cost of the
//!   centralized scheduler);
//! - `event_queue`: push+pop throughput of the simulation engine, over
//!   spread-out times (the heap tier) and in the decentralized shape
//!   (1 ms messages over thousands of far-future completions: the ring);
//! - `episode_decision`: the worker-side protocol pick over a deep queue;
//! - `pareto_sample`: the straggler-model duration draw.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hopper_core::{allocate, AllocConfig, FreeSlotEpisode, JobDemand, Reservation};
use hopper_sim::{rng_from_seed, EventQueue, SimTime};
use hopper_workload::Dist;
use std::hint::black_box;

fn bench_allocate(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocate");
    for n in [10usize, 100, 1000] {
        let demands: Vec<JobDemand> = (0..n)
            .map(|i| JobDemand::simple(i, ((i * 37) % 500 + 1) as f64, 1.5))
            .collect();
        let cfg = AllocConfig::default();
        g.bench_with_input(BenchmarkId::from_parameter(n), &demands, |b, d| {
            b.iter(|| allocate(black_box(d), black_box(n * 40), &cfg));
        });
    }
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_millis((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        });
    });
}

/// One pop + push in the shape of a decentralized run: 4,096 pending
/// far-future completions (payloads below `FAR`) and 16 messages in
/// flight. A popped message sends the next one network hop (1 ms)
/// ahead; a popped completion is replaced by another 1-100 s out.
/// Over 99% of the pushes are 1 ms messages.
fn bench_event_queue_near(c: &mut Criterion) {
    const FAR: u64 = 4096;
    const MSGS: u64 = 16;
    // A pseudo-random far delay, 1-100 s.
    let far_delay = |i: u64| SimTime::from_millis(1_000 + (i * 7919) % 99_000);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..FAR {
        q.push(far_delay(i), i);
    }
    for i in FAR..FAR + MSGS {
        q.push_after(SimTime::from_millis(1), i);
    }
    let mut next = FAR + MSGS;
    c.bench_function("event_queue_1ms_msgs_over_4k_far", |b| {
        b.iter(|| {
            let (_, e) = q.pop().expect("the queue never drains");
            let delay = if e >= FAR {
                SimTime::from_millis(1)
            } else {
                far_delay(next)
            };
            q.push_after(delay, black_box(e));
            next += 1;
        });
    });
}

fn bench_episode_decision(c: &mut Criterion) {
    let queue: Vec<Reservation> = (0..100)
        .map(|i| Reservation {
            scheduler: i % 10,
            job: i as u64,
            virtual_size: ((i * 31) % 200) as f64 + 1.0,
            remaining_tasks: ((i * 17) % 150) as f64 + 1.0,
        })
        .collect();
    c.bench_function("worker_episode_pick_100deep", |b| {
        let mut rng = rng_from_seed(1);
        b.iter(|| {
            let mut ep = FreeSlotEpisode::new(2);
            black_box(ep.next_action(black_box(&queue), &mut rng))
        });
    });
}

fn bench_pareto_sample(c: &mut Criterion) {
    let d = Dist::unit_mean_pareto(1.5);
    c.bench_function("pareto_sample", |b| {
        let mut rng = rng_from_seed(7);
        b.iter(|| black_box(d.sample(&mut rng)));
    });
}

criterion_group!(
    benches,
    bench_allocate,
    bench_event_queue,
    bench_event_queue_near,
    bench_episode_decision,
    bench_pareto_sample
);
criterion_main!(benches);
