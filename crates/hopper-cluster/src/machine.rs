//! The physical cluster: machines with compute slots, and slot↔job
//! affinity ("warm" slots).
//!
//! Mirrors the paper's testbed shape (§7.1: 200 machines, multiple slots
//! each). Slots are fungible within a machine; machine identity matters
//! for data locality and for the decentralized per-worker queues.
//!
//! **Warm slots.** Handing a slot from one job to another costs a
//! scheduling round-trip plus container/executor setup (YARN heartbeat +
//! container launch; Spark executor hand-off). A slot freed by a job stays
//! *bound* (warm) to it: relaunching within the same job is instant, while
//! taking over a foreign slot pays [`ClusterConfig::handoff_ms`]. This is
//! the mechanism that makes slot *reservation* (Hopper's held slots,
//! Figure 2) physically meaningful: binding happens while the slot idles,
//! so the job's next speculative copy starts immediately.

use crate::ids::MachineId;

/// Static cluster and execution-model parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// Compute slots per machine.
    pub slots_per_machine: usize,
    /// DFS replication factor: input tasks may run locally on this many
    /// machines (3 in HDFS and in the paper's setup).
    pub dfs_replicas: usize,
    /// Duration multiplier for an input task reading its data remotely
    /// (non-local placement). ~1.1–1.3 in measurement studies.
    pub remote_read_penalty: f64,
    /// Per-slot network bandwidth in MB/s used to convert intermediate
    /// data volume into transfer time (drives α and shuffle durations).
    pub bandwidth_mbps: f64,
    /// Fraction of upstream tasks that must finish before a downstream
    /// phase becomes eligible. 1.0 = strict barrier (default); lower
    /// values emulate Hadoop "slowstart" pipelining.
    pub slowstart_fraction: f64,
    /// Upper clamp on the per-copy Pareto duration multiplier, bounding
    /// pathological tail draws (production stragglers observed up to ~8×;
    /// we allow well beyond that, the clamp only guards simulation time).
    pub max_straggle_factor: f64,
    /// Cost (ms) of handing a slot to a *different* job: scheduler
    /// round-trip plus container/executor start. Zero for long-lived
    /// shared executors (the Sparrow/decentralized setting).
    pub handoff_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            machines: 200,
            slots_per_machine: 16,
            dfs_replicas: 3,
            remote_read_penalty: 1.2,
            bandwidth_mbps: 125.0, // 1 Gbps, as in the paper's cluster
            slowstart_fraction: 1.0,
            max_straggle_factor: 40.0,
            handoff_ms: 1000,
        }
    }
}

impl ClusterConfig {
    /// Total slot count.
    pub fn total_slots(&self) -> usize {
        self.machines * self.slots_per_machine
    }

    /// Convert an intermediate data volume (MB) into transfer milliseconds
    /// at per-slot bandwidth.
    pub fn transfer_ms(&self, mb: f64) -> f64 {
        if mb <= 0.0 {
            0.0
        } else {
            mb / self.bandwidth_mbps * 1000.0
        }
    }
}

/// Whether an occupied slot was already warm for the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTemp {
    /// Slot was bound to the launching job: no handoff cost.
    Warm,
    /// Slot was unbound or bound to another job: pays the handoff cost.
    Cold,
}

/// Ascending set of machine ids as a fixed-width bitset. The slot-holding
/// bind/steal churn hits these sets on nearly every dispatch; a bitset
/// makes membership flips branchless O(1) and `first`/`next_after` a short
/// word scan (32 words for a 2 000-machine cluster), where the `BTreeSet`
/// this replaces paid a node allocation and a pointer chase per flip.
/// Iteration order is ascending machine id — identical to the tree's.
#[derive(Debug, Clone, Default)]
struct MachineSet {
    words: Vec<u64>,
}

impl MachineSet {
    fn empty(n: usize) -> Self {
        MachineSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for m in 0..n {
            s.words[m / 64] |= 1 << (m % 64);
        }
        s
    }

    #[inline]
    fn insert(&mut self, m: usize) {
        self.words[m / 64] |= 1 << (m % 64);
    }

    #[inline]
    fn remove(&mut self, m: usize) {
        self.words[m / 64] &= !(1 << (m % 64));
    }

    /// Smallest member, if any.
    fn first(&self) -> Option<usize> {
        self.scan(0, self.words.first().copied().unwrap_or(0))
    }

    /// Smallest member `>= m`, if any.
    fn next_from(&self, m: usize) -> Option<usize> {
        let wi = m / 64;
        let cur = self.words.get(wi)? & (!0u64 << (m % 64));
        self.scan(wi, cur)
    }

    fn scan(&self, mut wi: usize, mut cur: u64) -> Option<usize> {
        loop {
            if cur != 0 {
                return Some(wi * 64 + cur.trailing_zeros() as usize);
            }
            wi += 1;
            cur = *self.words.get(wi)?;
        }
    }

    /// Insert, growing the word array on demand. The per-job warm sets
    /// start as empty (zero-word) sets and only ever pay for the highest
    /// machine id they have seen, so a dense job-indexed table of them
    /// stays cheap for jobs that never hold warmth.
    #[inline]
    fn insert_grow(&mut self, m: usize) {
        let wi = m / 64;
        if self.words.len() <= wi {
            self.words.resize(wi + 1, 0);
        }
        self.words[wi] |= 1 << (m % 64);
    }

    /// Members in ascending order.
    fn iter(&self) -> MachineSetIter<'_> {
        MachineSetIter {
            words: &self.words,
            wi: 0,
            cur: self.words.first().copied().unwrap_or(0),
        }
    }
}

struct MachineSetIter<'a> {
    words: &'a [u64],
    wi: usize,
    cur: u64,
}

impl Iterator for MachineSetIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.wi * 64 + b);
            }
            self.wi += 1;
            self.cur = *self.words.get(self.wi)?;
        }
    }
}

/// One machine's warm-slot counts: `(job, count)` ascending by job id.
/// A machine has at most `slots_per_machine` warm entries (each counts a
/// *free* slot), so linear probes over an inline vector beat the
/// `BTreeMap` this replaces — the bind/steal hot path was dominated by
/// tree-node allocator traffic. The smallest-id reads (`first_job`,
/// `first_other`) that the deterministic victim picks rely on are the
/// leading elements of the sorted vector.
#[derive(Debug, Clone, Default)]
struct WarmCounts {
    e: Vec<(usize, usize)>,
}

impl WarmCounts {
    fn is_empty(&self) -> bool {
        self.e.is_empty()
    }

    fn get(&self, job: usize) -> usize {
        self.e
            .iter()
            .find(|&&(j, _)| j == job)
            .map_or(0, |&(_, c)| c)
    }

    fn contains(&self, job: usize) -> bool {
        self.e.iter().any(|&(j, _)| j == job)
    }

    /// Number of distinct jobs with warm slots here.
    fn distinct(&self) -> usize {
        self.e.len()
    }

    /// Smallest job id with a warm slot here.
    fn first_job(&self) -> Option<usize> {
        self.e.first().map(|&(j, _)| j)
    }

    /// Smallest job id with a warm slot here, excluding `job`.
    fn first_other(&self, job: usize) -> Option<usize> {
        self.e.iter().map(|&(j, _)| j).find(|&j| j != job)
    }

    /// Add `k` warm slots for `job`; returns whether the job was absent
    /// before (0 → k transition).
    fn inc_by(&mut self, job: usize, k: usize) -> bool {
        match self.e.iter().position(|&(j, _)| j >= job) {
            Some(i) if self.e[i].0 == job => {
                self.e[i].1 += k;
                false
            }
            Some(i) => {
                self.e.insert(i, (job, k));
                true
            }
            None => {
                self.e.push((job, k));
                true
            }
        }
    }

    /// Drop `k` warm slots of `job` (entry removed at zero); returns the
    /// new count. Panics if the job has fewer than `k`.
    fn dec_by(&mut self, job: usize, k: usize) -> usize {
        let i = self
            .e
            .iter()
            .position(|&(j, _)| j == job)
            .expect("warm slot to consume");
        self.e[i].1 -= k;
        let c = self.e[i].1;
        if c == 0 {
            self.e.remove(i);
        }
        c
    }

    /// Entries in ascending job order.
    fn entries(&self) -> &[(usize, usize)] {
        &self.e
    }

    fn take(&mut self) -> Vec<(usize, usize)> {
        std::mem::take(&mut self.e)
    }
}

/// One segment of the pre-warm overlay (see [`Machines::prewarm`]), over
/// *positions*: indices into [`PrewarmScratch::machines`], the bound
/// machines the pass has reached, in ascending machine id.
#[derive(Debug, Clone, Copy)]
enum Seg {
    /// Positions `[lo, hi)`: every free slot is warm for `job`.
    Run { job: usize, lo: usize, hi: usize },
    /// Position `at`: warm counts `arena[lo..hi]`, ascending job id.
    Split { at: usize, lo: usize, hi: usize },
}

/// Scratch of [`Machines::prewarm`], kept across dispatches so a pass
/// allocates nothing once the buffers have grown.
#[derive(Debug, Clone, Default)]
struct PrewarmScratch {
    /// Bound machines reached so far, ascending id.
    machines: Vec<usize>,
    /// `pre[i]` = free slots on `machines[..i]` (`pre[0] = 0`).
    pre: Vec<usize>,
    /// The overlay over positions `[0, machines.len())`, contiguous and
    /// ascending from the top of the stack (the last element) down.
    segs: Vec<Seg>,
    /// Warm counts of the `Seg::Split` machines.
    arena: Vec<(usize, usize)>,
}

/// Dynamic slot occupancy across machines, with per-job slot affinity.
///
/// Beyond the per-machine arrays, the struct maintains deterministic
/// indices — ascending-ordered sets of machines with free / unbound /
/// bound slots, plus per-job warm-machine sets and warm totals — so that
/// the hot queries (`machines_with_free`, `preferred_free_machine`,
/// `warm_total`, `bind_idle`) cost O(1)-ish instead of O(M) /
/// O(M·jobs) scans. Every index iterates in ascending machine id, the
/// exact order the replaced scans used, so placement tie-breaking is
/// bit-identical (see DESIGN.md, "Index invariants").
#[derive(Debug, Clone)]
pub struct Machines {
    /// Per machine: free slots bound (warm) per job, ascending job id (the
    /// deterministic smallest-id victim pick is a leading read).
    bound: Vec<WarmCounts>,
    /// Per machine: free slots bound to no job.
    unbound: Vec<usize>,
    /// Per machine: total free (cache of unbound + Σ bound).
    free: Vec<usize>,
    slots_per_machine: usize,
    total_free: usize,
    /// Machines with at least one free slot, ascending.
    free_set: MachineSet,
    /// Machines with at least one unbound free slot, ascending.
    unbound_set: MachineSet,
    /// Machines with at least one warm (bound) slot, ascending.
    bound_set: MachineSet,
    /// Machines whose warm slots span ≥ 2 distinct jobs, ascending. Lets
    /// the steal walk of [`Machines::bind_idle`] compute "machines with
    /// warmth foreign to job j" with pure word ops:
    /// `(bound & !warm_machines[j]) | (multi & warm_machines[j])` — a
    /// machine has foreign warmth iff someone is warm there and j is not,
    /// or j is warm there alongside at least one other job.
    multi_set: MachineSet,
    /// job → machines where the job has ≥ 1 warm slot, as an ascending
    /// bitset (dense by job id, grown on demand; empty set = no warmth).
    /// A bitset instead of a sorted vector because the steal churn of
    /// `bind_idle` flips one machine in and one out per transfer — O(1)
    /// word ops, where the vector paid a binary search plus a memmove.
    warm_machines: Vec<MachineSet>,
    /// job → total free slots bound to it (dense by job id, grown on
    /// demand; 0 = no warmth).
    warm_totals: Vec<usize>,
    /// Total bound (warm) slots across the cluster (Σ warm_totals).
    total_bound: usize,
    /// Machines currently failed (dynamics plane). A down machine has no
    /// free, unbound, or bound slots, so every index skips it naturally;
    /// the flag guards against accidental occupy/release while down.
    down: Vec<bool>,
    /// Reused buffers of [`Machines::prewarm`].
    scratch: PrewarmScratch,
}

impl Machines {
    /// All slots free and unbound.
    pub fn new(cfg: &ClusterConfig) -> Self {
        let all = if cfg.slots_per_machine > 0 {
            MachineSet::full(cfg.machines)
        } else {
            MachineSet::empty(cfg.machines)
        };
        Machines {
            bound: vec![WarmCounts::default(); cfg.machines],
            unbound: vec![cfg.slots_per_machine; cfg.machines],
            free: vec![cfg.slots_per_machine; cfg.machines],
            slots_per_machine: cfg.slots_per_machine,
            total_free: cfg.total_slots(),
            free_set: all.clone(),
            unbound_set: all,
            bound_set: MachineSet::empty(cfg.machines),
            multi_set: MachineSet::empty(cfg.machines),
            warm_machines: Vec::new(),
            warm_totals: Vec::new(),
            total_bound: 0,
            down: vec![false; cfg.machines],
            scratch: PrewarmScratch::default(),
        }
    }

    /// Grow the dense per-job indices to cover `job`.
    #[inline]
    fn ensure_job(&mut self, job: usize) {
        if self.warm_totals.len() <= job {
            self.warm_totals.resize(job + 1, 0);
            self.warm_machines.resize(job + 1, MachineSet::default());
        }
    }

    /// Take machine `m` out of the cluster (machine failure). Its free
    /// slots leave every pool and its warm bindings are forgotten; slots
    /// occupied by (now killed) copies are simply gone — the machine
    /// rejoins fully reset via [`Machines::set_up`]. Panics on double
    /// failure.
    pub fn set_down(&mut self, m: MachineId) {
        let m = m.0;
        assert!(!self.down[m], "machine {m} failed while already down");
        self.down[m] = true;
        self.total_free -= self.free[m];
        self.free[m] = 0;
        self.free_set.remove(m);
        self.unbound[m] = 0;
        self.unbound_set.remove(m);
        for (job, c) in self.bound[m].take() {
            self.total_bound -= c;
            self.warm_totals[job] -= c;
            self.warm_machines[job].remove(m);
        }
        self.bound_set.remove(m);
        self.multi_set.remove(m);
        #[cfg(debug_assertions)]
        self.debug_check_index();
    }

    /// Return a failed machine to service with every slot free and
    /// unbound (the reboot lost all executor warmth). Panics if `m` is
    /// not down.
    pub fn set_up(&mut self, m: MachineId) {
        let m = m.0;
        assert!(self.down[m], "machine {m} recovered while up");
        self.down[m] = false;
        self.free[m] = self.slots_per_machine;
        self.unbound[m] = self.slots_per_machine;
        self.total_free += self.slots_per_machine;
        if self.slots_per_machine > 0 {
            self.free_set.insert(m);
            self.unbound_set.insert(m);
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
    }

    /// Whether machine `m` is currently down (failed).
    pub fn is_down(&self, m: MachineId) -> bool {
        self.down[m.0]
    }

    /// One free slot disappears on `m`.
    fn free_dec(&mut self, m: usize) {
        self.free[m] -= 1;
        self.total_free -= 1;
        if self.free[m] == 0 {
            self.free_set.remove(m);
        }
    }

    /// One free slot appears on `m`.
    fn free_inc(&mut self, m: usize) {
        if self.free[m] == 0 {
            self.free_set.insert(m);
        }
        self.free[m] += 1;
        self.total_free += 1;
    }

    /// One unbound free slot disappears on `m`.
    fn unbound_dec(&mut self, m: usize) {
        self.unbound[m] -= 1;
        if self.unbound[m] == 0 {
            self.unbound_set.remove(m);
        }
    }

    /// Bind one free slot on `m` to `job` (warm count +1).
    fn bound_inc(&mut self, m: usize, job: usize) {
        self.bound_inc_by(m, job, 1);
    }

    /// Bind `k` free slots on `m` to `job` in one index update — the
    /// bind/steal loops transfer whole per-machine holdings at once, so
    /// batching turns per-slot index churn into per-(machine, job) churn.
    fn bound_inc_by(&mut self, m: usize, job: usize, k: usize) {
        if k == 0 {
            return;
        }
        self.ensure_job(job);
        if self.bound[m].inc_by(job, k) {
            self.warm_machines[job].insert_grow(m);
            self.bound_set.insert(m);
            self.refresh_multi(m);
        }
        self.warm_totals[job] += k;
        self.total_bound += k;
    }

    /// Keep `multi_set` consistent with the distinct-job count of `m`'s
    /// warm map after a membership change.
    #[inline]
    fn refresh_multi(&mut self, m: usize) {
        if self.bound[m].distinct() >= 2 {
            self.multi_set.insert(m);
        } else {
            self.multi_set.remove(m);
        }
    }

    /// Unbind one of `job`'s warm slots on `m` (warm count −1).
    fn bound_dec(&mut self, m: usize, job: usize) {
        self.bound_dec_by(m, job, 1);
    }

    /// Unbind `k` of `job`'s warm slots on `m` in one index update.
    fn bound_dec_by(&mut self, m: usize, job: usize, k: usize) {
        if k == 0 {
            return;
        }
        if self.bound[m].dec_by(job, k) == 0 {
            self.warm_machines[job].remove(m);
            if self.bound[m].is_empty() {
                self.bound_set.remove(m);
            }
            self.refresh_multi(m);
        }
        self.warm_totals[job] -= k;
        self.total_bound -= k;
    }

    /// Move `k` warm slots on `m` from job `from` to job `to` in one index
    /// update — the steal path of [`Machines::bind_idle`]. Equivalent to
    /// `bound_dec_by(m, from, k); bound_inc_by(m, to, k)` but skips the
    /// updates that cancel: `total_bound` is unchanged and `m` stays in
    /// `bound_set` throughout (it holds `to`'s slots the moment it loses
    /// `from`'s).
    fn bound_transfer(&mut self, m: usize, from: usize, to: usize, k: usize) {
        self.ensure_job(to);
        let mut changed = self.bound[m].dec_by(from, k) == 0;
        if changed {
            self.warm_machines[from].remove(m);
        }
        if self.bound[m].inc_by(to, k) {
            self.warm_machines[to].insert_grow(m);
            changed = true;
        }
        if changed {
            self.refresh_multi(m);
        }
        self.warm_totals[from] -= k;
        self.warm_totals[to] += k;
    }

    /// Debug-build oracle: every index must match the per-machine arrays.
    /// Sampled (every 64th mutation) — the reconciliation is O(M) and
    /// would otherwise dominate dev-profile test time on large clusters.
    #[cfg(debug_assertions)]
    fn debug_check_index(&self) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICK: AtomicU64 = AtomicU64::new(0);
        if !TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(64) {
            return;
        }
        let free_set: Vec<usize> = (0..self.free.len()).filter(|&m| self.free[m] > 0).collect();
        assert_eq!(
            free_set,
            self.free_set.iter().collect::<Vec<_>>(),
            "free_set drifted"
        );
        let unbound_set: Vec<usize> = (0..self.unbound.len())
            .filter(|&m| self.unbound[m] > 0)
            .collect();
        assert_eq!(
            unbound_set,
            self.unbound_set.iter().collect::<Vec<_>>(),
            "unbound_set drifted"
        );
        let bound_set: Vec<usize> = (0..self.bound.len())
            .filter(|&m| !self.bound[m].is_empty())
            .collect();
        assert_eq!(
            bound_set,
            self.bound_set.iter().collect::<Vec<_>>(),
            "bound_set drifted"
        );
        let multi_set: Vec<usize> = (0..self.bound.len())
            .filter(|&m| self.bound[m].distinct() >= 2)
            .collect();
        assert_eq!(
            multi_set,
            self.multi_set.iter().collect::<Vec<_>>(),
            "multi_set drifted"
        );
        let jobs = self.warm_totals.len();
        let mut warm_machines: Vec<Vec<usize>> = vec![Vec::new(); jobs];
        let mut warm_totals: Vec<usize> = vec![0; jobs];
        for (m, b) in self.bound.iter().enumerate() {
            for &(job, c) in b.entries() {
                assert!(c > 0, "zero-count bound entry survived");
                assert!(job < jobs, "bound entry beyond the dense job index");
                warm_machines[job].push(m);
                warm_totals[job] += c;
            }
        }
        for wm in &mut warm_machines {
            wm.sort_unstable();
        }
        let indexed: Vec<Vec<usize>> = self
            .warm_machines
            .iter()
            .map(|s| s.iter().collect())
            .collect();
        assert_eq!(warm_machines, indexed, "warm_machines drifted");
        assert_eq!(
            warm_totals.iter().sum::<usize>(),
            self.total_bound,
            "total_bound drifted"
        );
        assert_eq!(warm_totals, self.warm_totals, "warm_totals drifted");
        for m in 0..self.free.len() {
            let bound_sum: usize = self.bound[m].entries().iter().map(|&(_, c)| c).sum();
            assert_eq!(
                self.free[m],
                self.unbound[m] + bound_sum,
                "free/unbound/bound accounting broke on machine {m}"
            );
        }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when the cluster has no machines (degenerate configs in tests).
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Total free slots across the cluster.
    pub fn total_free(&self) -> usize {
        self.total_free
    }

    /// Free slots on one machine.
    pub fn free_on(&self, m: MachineId) -> usize {
        self.free[m.0]
    }

    /// Free slots on `m` already bound to `job`.
    pub fn warm_on(&self, m: MachineId, job: usize) -> usize {
        self.bound[m.0].get(job)
    }

    /// Free slots on `m` bound to no job.
    pub fn unbound_on(&self, m: MachineId) -> usize {
        self.unbound[m.0]
    }

    /// Warm `(job, count)` entries on `m`, ascending job id.
    pub fn warm_entries(&self, m: MachineId) -> &[(usize, usize)] {
        self.bound[m.0].entries()
    }

    /// Total free slots bound to `job` across the cluster. O(1).
    pub fn warm_total(&self, job: usize) -> usize {
        let total = self.warm_totals.get(job).copied().unwrap_or(0);
        debug_assert_eq!(total, self.bound.iter().map(|b| b.get(job)).sum::<usize>());
        total
    }

    /// Occupy one slot on `m` for `job`, consuming a warm slot when
    /// available. Returns whether the slot was warm. Panics if `m` has no
    /// free slot (callers check first).
    pub fn occupy_for(&mut self, m: MachineId, job: usize) -> SlotTemp {
        assert!(!self.down[m.0], "occupy on down machine {}", m.0);
        assert!(self.free[m.0] > 0, "occupy on full machine {}", m.0);
        self.free_dec(m.0);
        let temp = if self.bound[m.0].contains(job) {
            self.bound_dec(m.0, job);
            SlotTemp::Warm
        } else if self.unbound[m.0] > 0 {
            self.unbound_dec(m.0);
            SlotTemp::Cold
        } else {
            // Steal a slot bound to some other job (deterministic:
            // smallest id = the sorted vector's first entry).
            let victim = self.bound[m.0]
                .first_job()
                .expect("free slot must exist somewhere");
            self.bound_dec(m.0, victim);
            SlotTemp::Cold
        };
        #[cfg(debug_assertions)]
        self.debug_check_index();
        temp
    }

    /// Release one slot on `m`, leaving it warm (bound) for `job`.
    /// Panics on double release.
    pub fn release_to(&mut self, m: MachineId, job: usize) {
        assert!(!self.down[m.0], "release to down machine {}", m.0);
        assert!(
            self.free[m.0] < self.slots_per_machine,
            "double release on machine {}",
            m.0
        );
        self.free_inc(m.0);
        self.bound_inc(m.0, job);
        #[cfg(debug_assertions)]
        self.debug_check_index();
    }

    /// Re-bind up to `want` currently-free slots to `job` (Hopper's slot
    /// holding: prepare containers while the slot idles). Unbound slots are
    /// consumed first, then slots warm for other jobs. Returns how many
    /// were bound (beyond those already warm for `job`).
    ///
    /// Both passes walk machines in ascending id, exactly like the O(M)
    /// scans they replace — but only over machines that actually hold an
    /// unbound (pass 1) or foreign-warm (pass 2) slot. This is the
    /// one-job reference semantics of [`Machines::prewarm`], which the
    /// simulator drives instead; dev builds check the two against each
    /// other on every pass.
    pub fn bind_idle(&mut self, job: usize, want: usize) -> usize {
        let mut bound = self.bind_unbound(job, want);
        // Pass 2: steal from other jobs' warm slots (ascending machine,
        // smallest victim job id first on each machine). `foreign` bounds
        // the walk: once every remaining warm slot belongs to `job`
        // itself — the common steady state after a high-priority job has
        // absorbed the cluster's idle warmth — there is nothing to steal.
        // Candidate machines are found word-parallel: a machine has
        // warmth foreign to `job` iff it is bound and `job` is not warm
        // there, or `job` is warm there alongside ≥ 2 distinct jobs
        // (`multi_set`) — so whole words of `job`'s own warm machines are
        // skipped without per-machine probes. Draining a machine clears
        // its candidate bit (all its foreign warmth now belongs to
        // `job`), so re-deriving the word after each machine terminates.
        let mut foreign = self.total_bound - self.warm_totals.get(job).copied().unwrap_or(0);
        let nwords = self.bound_set.words.len();
        'words: for wi in 0..nwords {
            loop {
                if bound >= want || foreign == 0 {
                    break 'words;
                }
                let mine = self
                    .warm_machines
                    .get(job)
                    .and_then(|s| s.words.get(wi))
                    .copied()
                    .unwrap_or(0);
                let cand = (self.bound_set.words[wi] & !mine) | (self.multi_set.words[wi] & mine);
                if cand == 0 {
                    continue 'words;
                }
                let m = wi * 64 + cand.trailing_zeros() as usize;
                while bound < want {
                    let Some(v) = self.bound[m].first_other(job) else {
                        break;
                    };
                    let take = (want - bound).min(self.bound[m].get(v));
                    self.bound_transfer(m, v, job, take);
                    bound += take;
                    foreign -= take;
                }
            }
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
        bound
    }

    /// Pass 1 of [`Machines::bind_idle`]: bind up to `want` unbound slots
    /// to `job`, smallest machine first; returns how many. Draining the
    /// set head either consumes the machine's last unbound slot (removing
    /// it from the set) or satisfies `want`, so this makes progress every
    /// step without materializing the whole set.
    fn bind_unbound(&mut self, job: usize, want: usize) -> usize {
        let mut bound = 0;
        while bound < want {
            let Some(m) = self.unbound_set.first() else {
                break;
            };
            let take = (want - bound).min(self.unbound[m]);
            self.unbound[m] -= take;
            if self.unbound[m] == 0 {
                self.unbound_set.remove(m);
            }
            self.bound_inc_by(m, job, take);
            bound += take;
        }
        bound
    }

    /// Pre-warm pass: for each `(job, hold)` row in order, top the job's
    /// warm total up to `hold` — exactly
    /// `bind_idle(job, hold − warm_total(job))` per row with a positive
    /// difference, in one batched walk.
    ///
    /// Unbound slots go first and are bound in place (pass 1). Once they
    /// run out, every free slot is warm for some job, and a row's steal
    /// takes *every* foreign warm slot on a prefix of the bound machines
    /// and splits at most one machine, the one where its want runs out.
    /// The pass therefore keeps an overlay instead of touching machines:
    /// a stack of runs (positions whose free slots all belong to one job)
    /// and split machines, growing from the lowest machine id. A row pops
    /// the overlay from the left, finds its last machine in a run by
    /// binary search over prefix sums of free slots, charges each victim
    /// job from those sums, and pushes back one run of its own plus at
    /// most one split and one remainder. Rows mostly steal back what the
    /// row before them took, so only the machines whose final warm
    /// counts differ from the start of the pass are written at the end.
    pub fn prewarm(&mut self, rows: &[(usize, usize)]) {
        #[cfg(debug_assertions)]
        let reference = {
            let mut r = self.clone();
            for &(job, hold) in rows {
                let have = r.warm_total(job);
                if hold > have {
                    r.bind_idle(job, hold - have);
                }
            }
            r
        };
        let mut s = std::mem::take(&mut self.scratch);
        s.machines.clear();
        s.pre.clear();
        s.pre.push(0);
        s.segs.clear();
        s.arena.clear();
        for &(job, hold) in rows {
            let have = self.warm_totals.get(job).copied().unwrap_or(0);
            if hold <= have {
                continue;
            }
            let want = hold - have;
            let unbound = self.bind_unbound(job, want);
            if unbound < want {
                self.claim(&mut s, job, want - unbound);
            }
        }
        self.write_back(&s);
        self.scratch = s;
        #[cfg(debug_assertions)]
        {
            self.debug_check_index();
            self.assert_same_layout(&reference);
        }
    }

    /// One row's steal over the overlay: give `job` up to `want` slots
    /// warm for other jobs, ascending machine id and smallest victim id
    /// first on each machine (pass 2 of [`Machines::bind_idle`]). Only
    /// `warm_totals` is updated; the machines wait for
    /// [`Machines::write_back`].
    fn claim(&mut self, s: &mut PrewarmScratch, job: usize, want: usize) {
        debug_assert!(
            self.unbound_set.first().is_none(),
            "steal with unbound slots left"
        );
        let mut got = 0;
        // Positions [0, end) now hold only `job`'s warmth.
        let mut end = 0;
        while got < want {
            let seg = match s.segs.pop() {
                Some(seg) => seg,
                None => {
                    // The overlay is used up: reach the next bound machine
                    // with its current counts.
                    let Some(m) = self
                        .bound_set
                        .next_from(s.machines.last().map_or(0, |&m| m + 1))
                    else {
                        break;
                    };
                    let at = s.machines.len();
                    s.machines.push(m);
                    s.pre.push(s.pre[at] + self.free[m]);
                    let lo = s.arena.len();
                    s.arena.extend_from_slice(self.bound[m].entries());
                    Seg::Split {
                        at,
                        lo,
                        hi: s.arena.len(),
                    }
                }
            };
            match seg {
                Seg::Run { job: k, lo, hi } if k != job => {
                    let avail = s.pre[hi] - s.pre[lo];
                    if got + avail <= want {
                        got += avail;
                        self.warm_totals[k] -= avail;
                        end = hi;
                        continue;
                    }
                    // The want runs out inside the run: positions before
                    // `at` go whole, `at` gives up `taken` of its slots.
                    let need = want - got;
                    let at = lo + s.pre[lo + 1..=hi].partition_point(|&p| p - s.pre[lo] < need);
                    let taken = need - (s.pre[at] - s.pre[lo]);
                    let cap = s.pre[at + 1] - s.pre[at];
                    self.warm_totals[k] -= need;
                    got = want;
                    if at + 1 < hi {
                        s.segs.push(Seg::Run {
                            job: k,
                            lo: at + 1,
                            hi,
                        });
                    }
                    if taken == cap {
                        end = at + 1;
                    } else {
                        let lo = s.arena.len();
                        let (a, b) = ((job, taken), (k, cap - taken));
                        s.arena
                            .extend_from_slice(&if job < k { [a, b] } else { [b, a] });
                        s.segs.push(Seg::Split { at, lo, hi: lo + 2 });
                        end = at;
                    }
                }
                Seg::Run { hi, .. } => end = hi,
                Seg::Split { at, lo, hi } => {
                    let cap = s.pre[at + 1] - s.pre[at];
                    let mine = s.arena[lo..hi]
                        .iter()
                        .find(|&&(j, _)| j == job)
                        .map_or(0, |&(_, c)| c);
                    if got + cap - mine <= want {
                        for &(k, c) in &s.arena[lo..hi] {
                            if k != job {
                                self.warm_totals[k] -= c;
                            }
                        }
                        got += cap - mine;
                        end = at + 1;
                        continue;
                    }
                    // Partial steal, smallest victim first; the new counts
                    // go to the arena in ascending job order.
                    let stolen = want - got;
                    let mut need = stolen;
                    let new_lo = s.arena.len();
                    let mut placed = false;
                    for e in lo..hi {
                        let (k, c) = s.arena[e];
                        if !placed && k >= job {
                            s.arena.push((job, mine + stolen));
                            placed = true;
                        }
                        if k == job {
                            continue;
                        }
                        let t = need.min(c);
                        need -= t;
                        self.warm_totals[k] -= t;
                        if c > t {
                            s.arena.push((k, c - t));
                        }
                    }
                    if !placed {
                        s.arena.push((job, mine + stolen));
                    }
                    got = want;
                    s.segs.push(Seg::Split {
                        at,
                        lo: new_lo,
                        hi: s.arena.len(),
                    });
                    end = at;
                }
            }
        }
        if got > 0 {
            self.ensure_job(job);
            self.warm_totals[job] += got;
        }
        if end > 0 {
            s.segs.push(Seg::Run {
                job,
                lo: 0,
                hi: end,
            });
        }
    }

    /// Apply the overlay to the machines it reached, writing only those
    /// whose warm counts changed over the pass. Warm totals are already
    /// final, and every reached machine stays bound (its free slots just
    /// changed hands), so `bound_set` and `total_bound` hold too.
    fn write_back(&mut self, s: &PrewarmScratch) {
        for &seg in &s.segs {
            match seg {
                Seg::Run { job, lo, hi } => {
                    for at in lo..hi {
                        let cap = s.pre[at + 1] - s.pre[at];
                        self.set_warm(s.machines[at], &[(job, cap)]);
                    }
                }
                Seg::Split { at, lo, hi } => self.set_warm(s.machines[at], &s.arena[lo..hi]),
            }
        }
    }

    /// Replace `m`'s warm counts (same free total, ascending job id) and
    /// re-derive its index memberships; a no-op when nothing changed.
    fn set_warm(&mut self, m: usize, counts: &[(usize, usize)]) {
        let old = &self.bound[m].e;
        if old.as_slice() == counts {
            return;
        }
        for &(k, _) in old {
            if !counts.iter().any(|&(j, _)| j == k) {
                self.warm_machines[k].remove(m);
            }
        }
        for &(k, _) in counts {
            if !old.iter().any(|&(j, _)| j == k) {
                self.warm_machines[k].insert_grow(m);
            }
        }
        let e = &mut self.bound[m].e;
        e.clear();
        e.extend_from_slice(counts);
        self.refresh_multi(m);
    }

    /// Dev-build shadow check of [`Machines::prewarm`]: every machine's
    /// warm counts and unbound count, and every job's warm total, must
    /// match the per-row `bind_idle` replay on a clone.
    #[cfg(debug_assertions)]
    fn assert_same_layout(&self, reference: &Machines) {
        for m in 0..self.len() {
            assert_eq!(
                self.bound[m].entries(),
                reference.bound[m].entries(),
                "prewarm drifted from bind_idle: warm counts on machine {m}"
            );
            assert_eq!(
                self.unbound[m], reference.unbound[m],
                "prewarm drifted from bind_idle: unbound slots on machine {m}"
            );
        }
        let jobs = self.warm_totals.len().max(reference.warm_totals.len());
        for job in 0..jobs {
            assert_eq!(
                self.warm_totals.get(job).copied().unwrap_or(0),
                reference.warm_totals.get(job).copied().unwrap_or(0),
                "prewarm drifted from bind_idle: warm total of job {job}"
            );
        }
        assert_eq!(
            self.total_bound, reference.total_bound,
            "total_bound drifted"
        );
    }

    /// Iterate machines that currently have at least one free slot, in
    /// ascending id order. O(free machines), not O(M).
    pub fn machines_with_free(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.free_set.iter().map(MachineId)
    }

    /// A free machine for `job`, preferring one where the job has a warm
    /// slot, skipping `exclude`; falls back to the first free machine
    /// (even an excluded one) when every candidate is excluded — the
    /// historical contract of the O(M) `max_by_key` scan this replaces.
    /// `exclude` is at most a couple of busy machines, so the membership
    /// probe is a small-vec early-out, not the old full rescan.
    pub fn preferred_free_machine(&self, job: usize, exclude: &[MachineId]) -> Option<MachineId> {
        let picked = self.pick_preferred(job, exclude);
        #[cfg(debug_assertions)]
        {
            let scanned = self
                .machines_with_free()
                .filter(|m| !exclude.contains(m))
                .max_by_key(|&m| (self.warm_on(m, job).min(1), usize::MAX - m.0))
                .or_else(|| self.machines_with_free().next());
            assert_eq!(picked, scanned, "preferred_free_machine drifted");
        }
        picked
    }

    fn pick_preferred(&self, job: usize, exclude: &[MachineId]) -> Option<MachineId> {
        // Warm machines hold ≥ 1 free slot by construction (`bound` only
        // counts free slots), so the first non-excluded one wins.
        if let Some(warm) = self.warm_machines.get(job) {
            for m in warm.iter() {
                if !exclude.contains(&MachineId(m)) {
                    debug_assert!(self.free[m] > 0, "warm machine without a free slot");
                    return Some(MachineId(m));
                }
            }
        }
        self.free_set
            .iter()
            .find(|&m| !exclude.contains(&MachineId(m)))
            .or(self.free_set.first())
            .map(MachineId)
    }

    /// First free machine among `preferred`, if any.
    pub fn first_free_of(&self, preferred: &[MachineId]) -> Option<MachineId> {
        preferred.iter().copied().find(|&m| self.free[m.0] > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (ClusterConfig, Machines) {
        let cfg = ClusterConfig {
            machines: 3,
            slots_per_machine: 2,
            ..Default::default()
        };
        let m = Machines::new(&cfg);
        (cfg, m)
    }

    #[test]
    fn totals() {
        let (cfg, m) = small();
        assert_eq!(cfg.total_slots(), 6);
        assert_eq!(m.total_free(), 6);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn occupy_release_roundtrip_with_warmth() {
        let (_, mut m) = small();
        // Fresh slots are cold.
        assert_eq!(m.occupy_for(MachineId(1), 7), SlotTemp::Cold);
        assert_eq!(m.occupy_for(MachineId(1), 7), SlotTemp::Cold);
        assert_eq!(m.total_free(), 4);
        assert_eq!(m.free_on(MachineId(1)), 0);
        // Released slots are warm for the releasing job.
        m.release_to(MachineId(1), 7);
        assert_eq!(m.warm_on(MachineId(1), 7), 1);
        assert_eq!(m.occupy_for(MachineId(1), 7), SlotTemp::Warm);
        // ... but cold for another job.
        m.release_to(MachineId(1), 7);
        assert_eq!(m.occupy_for(MachineId(1), 9), SlotTemp::Cold);
        assert_eq!(m.warm_on(MachineId(1), 7), 0, "stolen by job 9");
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let (_, mut m) = small();
        m.release_to(MachineId(0), 0);
        m.release_to(MachineId(0), 0);
        m.release_to(MachineId(0), 0);
    }

    #[test]
    fn free_iteration_and_preference() {
        let (_, mut m) = small();
        m.occupy_for(MachineId(0), 1);
        m.occupy_for(MachineId(0), 1);
        let free: Vec<usize> = m.machines_with_free().map(|x| x.0).collect();
        assert_eq!(free, vec![1, 2]);
        assert_eq!(
            m.first_free_of(&[MachineId(0), MachineId(2)]),
            Some(MachineId(2))
        );
        assert_eq!(m.first_free_of(&[MachineId(0)]), None);
    }

    #[test]
    fn bind_idle_prewarns_slots() {
        let (_, mut m) = small();
        assert_eq!(m.bind_idle(3, 4), 4);
        assert_eq!(m.warm_total(3), 4);
        // Warm slots are consumed warm.
        let mm = m.preferred_free_machine(3, &[]).unwrap();
        assert_eq!(m.occupy_for(mm, 3), SlotTemp::Warm);
        // Binding beyond free capacity binds only what exists.
        assert_eq!(m.bind_idle(4, 100), 5);
        assert_eq!(m.warm_total(4), 5);
        assert_eq!(m.warm_total(3), 0, "job 4 stole job 3's idle warmth");
    }

    #[test]
    fn preferred_machine_prefers_warmth() {
        let (_, mut m) = small();
        m.occupy_for(MachineId(2), 5);
        m.release_to(MachineId(2), 5);
        assert_eq!(m.preferred_free_machine(5, &[]), Some(MachineId(2)));
        assert_eq!(
            m.preferred_free_machine(5, &[MachineId(2)]),
            Some(MachineId(0))
        );
    }

    #[test]
    fn set_down_parks_every_slot_and_forgets_warmth() {
        let (_, mut m) = small();
        m.occupy_for(MachineId(1), 7);
        m.release_to(MachineId(1), 7); // warm slot for job 7 on machine 1
        m.occupy_for(MachineId(1), 9); // one slot occupied (steals warmth)
        m.set_down(MachineId(1));
        assert!(m.is_down(MachineId(1)));
        assert_eq!(m.free_on(MachineId(1)), 0);
        assert_eq!(m.warm_on(MachineId(1), 7), 0);
        assert_eq!(m.total_free(), 4, "only machines 0 and 2 contribute");
        assert!(m.machines_with_free().all(|x| x != MachineId(1)));
        // Recovery restores a fully free, fully cold machine.
        m.set_up(MachineId(1));
        assert!(!m.is_down(MachineId(1)));
        assert_eq!(m.free_on(MachineId(1)), 2);
        assert_eq!(m.total_free(), 6);
        assert_eq!(m.occupy_for(MachineId(1), 7), SlotTemp::Cold);
    }

    #[test]
    fn bind_idle_skips_down_machines() {
        let (_, mut m) = small();
        m.set_down(MachineId(0));
        assert_eq!(m.bind_idle(3, 10), 4, "only machines 1 and 2 bind");
        assert!(m.warm_on(MachineId(0), 3) == 0);
    }

    #[test]
    #[should_panic(expected = "occupy on down machine")]
    fn occupy_on_down_machine_panics() {
        let (_, mut m) = small();
        m.set_down(MachineId(2));
        m.occupy_for(MachineId(2), 1);
    }

    #[test]
    #[should_panic(expected = "release to down machine")]
    fn release_to_down_machine_panics() {
        let (_, mut m) = small();
        m.occupy_for(MachineId(2), 1);
        m.set_down(MachineId(2));
        m.release_to(MachineId(2), 1);
    }

    #[test]
    fn transfer_time_math() {
        let cfg = ClusterConfig {
            bandwidth_mbps: 100.0,
            ..Default::default()
        };
        assert_eq!(cfg.transfer_ms(0.0), 0.0);
        assert!((cfg.transfer_ms(50.0) - 500.0).abs() < 1e-9);
    }
}
