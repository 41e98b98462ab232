//! Property-based tests (proptest) on the core invariants.

use hopper::cluster::{ClusterConfig, MachineId, Machines};
use hopper::core::{allocate, AllocConfig, FreeSlotEpisode, JobDemand, Reservation, WorkerAction};
use hopper::metrics::percentile;
use hopper::sim::{rng_from_seed, EventQueue, SimTime};
use hopper::workload::Dist;
use proptest::prelude::*;
use rand::Rng;

fn demand_strategy() -> impl Strategy<Value = JobDemand> {
    (
        0usize..50,
        0.0f64..2000.0,
        0.0f64..500.0,
        0.05f64..20.0,
        1.05f64..2.5,
        0.1f64..4.0,
    )
        .prop_map(|(job, rem, down, alpha, beta, weight)| JobDemand {
            job,
            remaining_tasks: rem,
            downstream_tasks: down,
            alpha,
            beta,
            weight,
        })
}

proptest! {
    /// Allocation never exceeds capacity, for any demand set and any ε.
    #[test]
    fn allocation_respects_capacity(
        demands in prop::collection::vec(demand_strategy(), 0..40),
        capacity in 0usize..5000,
        eps in 0.0f64..=1.0,
    ) {
        let cfg = AllocConfig { fairness_eps: eps, ..Default::default() };
        let allocs = allocate(&demands, capacity, &cfg);
        let total: usize = allocs.iter().map(|a| a.slots).sum();
        prop_assert!(total <= capacity, "total {total} > capacity {capacity}");
        prop_assert_eq!(allocs.len(), demands.len());
        // Output order matches input order.
        for (a, d) in allocs.iter().zip(&demands) {
            prop_assert_eq!(a.job, d.job);
        }
    }

    /// With ε-fairness on, every job gets at least its floor
    /// min((1−ε)·S·w/Σw − 1, ⌈V⌉, cap) slots (−1 absorbs integer floors).
    #[test]
    fn fairness_floor_holds(
        demands in prop::collection::vec(demand_strategy(), 1..30),
        capacity in 1usize..2000,
        eps in 0.0f64..0.9,
    ) {
        let cfg = AllocConfig { fairness_eps: eps, ..Default::default() };
        let allocs = allocate(&demands, capacity, &cfg);
        let total_w: f64 = demands.iter().map(|d| d.weight).sum();
        // Floors are trimmed only when their sum exceeds capacity; skip
        // that regime (it is exercised by the capacity property anyway).
        let floor_sum: f64 = demands
            .iter()
            .map(|d| ((1.0 - eps) * capacity as f64 * d.weight / total_w).floor())
            .sum();
        prop_assume!(floor_sum <= capacity as f64);
        for (a, d) in allocs.iter().zip(&demands) {
            let fair = capacity as f64 * d.weight / total_w;
            let floor = ((1.0 - eps) * fair).floor();
            let cap = (d.remaining_tasks * cfg.max_useful_factor).ceil();
            let entitled = floor.min(d.virtual_size().ceil()).min(cap);
            prop_assert!(
                a.slots as f64 >= entitled - 1.0,
                "job {} got {} slots, entitled to {entitled}",
                d.job, a.slots
            );
        }
    }

    /// Allocation is work-conserving in the constrained regime: if demand
    /// exceeds capacity (ΣV > S) the allocator hands out every slot.
    #[test]
    fn constrained_regime_is_work_conserving(
        demands in prop::collection::vec(demand_strategy(), 1..30),
        capacity in 1usize..1000,
    ) {
        let total_v: f64 = demands.iter().map(|d| d.virtual_size()).sum();
        prop_assume!(total_v > capacity as f64 * 1.5);
        // Also require the *useful* demand (caps) to cover capacity.
        let cfg = AllocConfig::no_fairness();
        let total_cap: f64 = demands
            .iter()
            .map(|d| (d.remaining_tasks * cfg.max_useful_factor).ceil())
            .sum();
        prop_assume!(total_cap >= capacity as f64);
        let allocs = allocate(&demands, capacity, &cfg);
        let total: usize = allocs.iter().map(|a| a.slots).sum();
        prop_assert!(
            total >= capacity.saturating_sub(demands.len()),
            "left {} slots unallocated under overload",
            capacity - total
        );
    }

    /// Jobs with no remaining work (zero remaining and downstream tasks)
    /// receive zero slots in either regime: the fairness floor is capped by
    /// ⌈V⌉ = 0 and the useful-slots cap is 0.
    #[test]
    fn zero_demand_jobs_get_zero_slots(
        demands in prop::collection::vec(demand_strategy(), 0..30),
        zeros in prop::collection::vec(0usize..30, 1..10),
        capacity in 0usize..3000,
        eps in 0.0f64..=1.0,
    ) {
        let mut demands = demands;
        // Splice zero-demand jobs in among the live ones.
        for (k, z) in zeros.iter().enumerate() {
            let mut d = JobDemand::simple(1000 + k, 0.0, 1.5);
            d.downstream_tasks = 0.0;
            let at = (*z).min(demands.len());
            demands.insert(at, d);
        }
        let cfg = AllocConfig { fairness_eps: eps, ..Default::default() };
        let allocs = allocate(&demands, capacity, &cfg);
        for (a, d) in allocs.iter().zip(&demands) {
            if d.remaining_tasks == 0.0 && d.downstream_tasks == 0.0 {
                prop_assert_eq!(
                    a.slots, 0,
                    "zero-demand job {} was granted {} slots", d.job, a.slots
                );
            }
        }
    }

    /// All allocations from one call report the same regime, and that
    /// regime agrees with the paper's switch condition ΣV vs S.
    #[test]
    fn regime_is_uniform_and_matches_total_demand(
        demands in prop::collection::vec(demand_strategy(), 1..30),
        capacity in 1usize..2000,
    ) {
        use hopper::core::Regime;
        let cfg = AllocConfig::no_fairness();
        let allocs = allocate(&demands, capacity, &cfg);
        let total_v: f64 = demands.iter().map(|d| d.virtual_size()).sum();
        let expect = if total_v > capacity as f64 {
            Regime::Constrained
        } else {
            Regime::Proportional
        };
        for a in &allocs {
            prop_assert_eq!(a.regime, expect, "job {} regime mismatch", a.job);
        }
    }

    /// The event queue pops in nondecreasing time order, FIFO on ties.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..10_000, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated on tie");
                }
            }
            last = Some((t, i));
        }
    }

    /// Random interleavings of every queue operation match a reference
    /// model (one plain heap keyed `(time, seq)`) step by step. Delays hit
    /// both edges of the near tier's ring and the far future, and
    /// `advance_to` may pass pending events, so the spill path runs too.
    #[test]
    fn event_queue_matches_reference_model(
        ops in prop::collection::vec((0u8..7, 0u8..8, 0u64..100_000), 0..400),
    ) {
        use hopper::sim::queue::NEAR_MS;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for (step, &(op, class, extra)) in ops.iter().enumerate() {
            let delay = match class {
                0 => 0,
                1 => 1,
                2 => NEAR_MS - 1,
                3 => NEAR_MS,
                4 => NEAR_MS + 1,
                5 => extra % (2 * NEAR_MS),
                6 => 1_000 + extra,
                _ => 1_000_000 + extra,
            };
            match op {
                0 | 1 => {
                    if op == 0 {
                        q.push(SimTime::from_millis(now + delay), step);
                    } else {
                        q.push_after(SimTime::from_millis(delay), step);
                    }
                    model.push(Reverse((now + delay, seq, step)));
                    seq += 1;
                }
                2 | 3 => {
                    let want = model.pop().map(|Reverse((t, _, p))| (SimTime::from_millis(t), p));
                    prop_assert_eq!(q.pop(), want, "pop at step {}", step);
                    if let Some((t, _)) = want {
                        now = t.as_millis();
                    }
                }
                4 => {
                    let want = model.peek().map(|Reverse((t, _, _))| SimTime::from_millis(*t));
                    prop_assert_eq!(q.peek_time(), want, "peek_time at step {}", step);
                }
                5 => {
                    prop_assert_eq!(q.len(), model.len(), "len at step {}", step);
                    prop_assert_eq!(q.is_empty(), model.is_empty());
                }
                _ => {
                    // Mostly short hops; a far one may pass pending events.
                    let hop = if class < 6 { delay } else { extra % 200 };
                    now += hop;
                    q.advance_to(SimTime::from_millis(now));
                }
            }
            prop_assert_eq!(q.now(), SimTime::from_millis(now), "clock at step {}", step);
            prop_assert_eq!(q.pushed(), seq);
        }
        while let Some(Reverse((t, _, p))) = model.pop() {
            prop_assert_eq!(q.pop(), Some((SimTime::from_millis(t), p)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Pareto sampler honours its analytic complementary CDF.
    #[test]
    fn pareto_tail_is_correct(shape in 1.1f64..2.5, scale in 0.1f64..10.0, seed in 0u64..50) {
        let d = Dist::Pareto { shape, scale };
        let mut rng = rng_from_seed(seed);
        let n = 4000;
        let x = scale * 4.0;
        let hits = (0..n).filter(|_| d.sample(&mut rng) > x).count() as f64 / n as f64;
        let expect = d.ccdf(x);
        prop_assert!((hits - expect).abs() < 0.05, "empirical {hits} analytic {expect}");
    }

    /// Percentile is monotone in p and bounded by the sample range.
    #[test]
    fn percentile_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let p25 = percentile(&xs, 0.25);
        let p50 = percentile(&xs, 0.50);
        let p75 = percentile(&xs, 0.75);
        prop_assert!(p25 <= p50 && p50 <= p75);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p25 >= min && p75 <= max);
    }

    /// A worker episode never responds twice to the same scheduler within
    /// an episode, and always terminates within its response bound.
    #[test]
    fn episode_terminates_and_never_reprobes(
        entries in prop::collection::vec((0usize..8, 0u64..40, 1.0f64..300.0), 0..60),
        threshold in 0usize..6,
        seed in 0u64..20,
    ) {
        let queue: Vec<Reservation> = entries
            .iter()
            .map(|&(s, j, v)| Reservation {
                scheduler: s,
                job: j,
                virtual_size: v,
                remaining_tasks: v,
            })
            .collect();
        let mut ep = FreeSlotEpisode::new(threshold);
        let mut rng = rng_from_seed(seed);
        let mut probed: Vec<usize> = Vec::new();
        let mut steps = 0;
        while let WorkerAction::Respond { scheduler, job, kind } = ep.next_action(&queue, &mut rng)
        {
            if kind == hopper::core::ResponseKind::Refusable {
                prop_assert!(!probed.contains(&scheduler), "re-probed {scheduler}");
            }
            probed.push(scheduler);
            ep.mark_probed(scheduler);
            // Simulate a refusal so the episode keeps going.
            ep.record_refusal(scheduler, job, None);
            steps += 1;
            prop_assert!(steps <= threshold + 4, "episode exceeded its bound");
        }
    }

    /// The batched pre-warm pass leaves exactly the layout of the per-row
    /// `bind_idle` loop it replaces, pass after pass, on layouts built by
    /// random occupy/release/failure/bind histories: multi-job machines,
    /// leftover unbound slots, zero holds and already-met holds.
    #[test]
    fn prewarm_matches_sequential_bind_idle(
        slots in 1usize..9,
        machines in 1usize..40,
        jobs in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let cfg = ClusterConfig { machines, slots_per_machine: slots, ..Default::default() };
        let mut fast = Machines::new(&cfg);
        let mut slow = Machines::new(&cfg);
        let mut rng = rng_from_seed(seed);
        let total = machines * slots;
        // Running copies per (machine, job), to release what was occupied.
        let mut running: Vec<(usize, usize)> = Vec::new();
        for _ in 0..6 {
            for _ in 0..rng.gen_range(0..3 * total + 1) {
                let m = rng.gen_range(0..machines);
                let job = rng.gen_range(0..jobs);
                match rng.gen_range(0..10u32) {
                    0..=3 if !fast.is_down(MachineId(m)) && fast.free_on(MachineId(m)) > 0 => {
                        prop_assert_eq!(
                            fast.occupy_for(MachineId(m), job),
                            slow.occupy_for(MachineId(m), job)
                        );
                        running.push((m, job));
                    }
                    4..=6 if !running.is_empty() => {
                        let (m, job) = running.swap_remove(rng.gen_range(0..running.len()));
                        fast.release_to(MachineId(m), job);
                        slow.release_to(MachineId(m), job);
                    }
                    7 if rng.gen_range(0..4u32) == 0 => {
                        if fast.is_down(MachineId(m)) {
                            fast.set_up(MachineId(m));
                            slow.set_up(MachineId(m));
                        } else {
                            fast.set_down(MachineId(m));
                            slow.set_down(MachineId(m));
                            running.retain(|&(rm, _)| rm != m);
                        }
                    }
                    8 => {
                        let want = rng.gen_range(0..slots + 2);
                        prop_assert_eq!(fast.bind_idle(job, want), slow.bind_idle(job, want));
                    }
                    _ => {}
                }
            }
            // Rows as the driver builds them (distinct jobs) plus, now and
            // then, a repeated job; holds of zero, already met, or beyond
            // every free slot.
            let mut rows: Vec<(usize, usize)> = Vec::new();
            for job in 0..jobs {
                if rng.gen_range(0..4u32) == 0 {
                    continue;
                }
                let have = slow.warm_total(job);
                let hold = match rng.gen_range(0..5u32) {
                    0 => 0,
                    1 => have,
                    2 => have.saturating_sub(1),
                    _ => rng.gen_range(0..total + 3),
                };
                rows.push((job, hold));
            }
            if !rows.is_empty() && rng.gen_range(0..3u32) == 0 {
                let dup = rows[rng.gen_range(0..rows.len())].0;
                rows.push((dup, rng.gen_range(0..total + 3)));
            }
            // Shuffle: the driver's priority order is not job-id order.
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.gen_range(0..i + 1));
            }
            fast.prewarm(&rows);
            for &(job, hold) in &rows {
                let have = slow.warm_total(job);
                if hold > have {
                    slow.bind_idle(job, hold - have);
                }
            }
            for m in 0..machines {
                let m = MachineId(m);
                prop_assert_eq!(fast.warm_entries(m), slow.warm_entries(m), "machine {}", m.0);
                prop_assert_eq!(fast.unbound_on(m), slow.unbound_on(m), "machine {}", m.0);
                prop_assert_eq!(fast.free_on(m), slow.free_on(m));
            }
            for job in 0..jobs {
                prop_assert_eq!(fast.warm_total(job), slow.warm_total(job), "job {}", job);
            }
        }
    }
}
