//! Online estimation of the workload parameters Hopper depends on.
//!
//! - **β** (Pareto tail index of task durations): learned continuously from
//!   completed task copies (§7.2: "we continually fit the parameter β of
//!   task durations based on the completed tasks (including stragglers);
//!   the error in β's estimate falls to ≤ 5% after just 6% of the jobs").
//!   [`BetaEstimator`] keeps a sliding window of duration *multipliers*
//!   (observed duration over nominal work — the same normalization
//!   production systems get from input-size-based duration predictors
//!   \[16\]) and applies the standard Pareto maximum-likelihood estimator.
//!
//! - **α** (per-job DAG communication weight): predicted from recurring
//!   jobs (§6.3: "we predict intermediate data sizes based on similar jobs
//!   in the past", reporting 92% average accuracy). [`AlphaEstimator`]
//!   learns each template's intermediate output per task and serves
//!   predictions for newly-arrived jobs of the same template.

use std::collections::HashMap;
use std::collections::VecDeque;

/// Online Pareto tail-index (β) estimator over a sliding window.
#[derive(Debug, Clone)]
pub struct BetaEstimator {
    window: VecDeque<f64>,
    /// `ln(x / x_min)` for every window sample, in window order, against
    /// the current window minimum. Rebuilt in full only when the minimum
    /// changes (a new smallest sample arrives, or the old one is evicted),
    /// so each sample pays its `ln()` once instead of on every read.
    logs: VecDeque<f64>,
    /// Sliding-window minimum: `(sequence number, value)` pairs with
    /// non-decreasing values; the front is the window minimum and leaves
    /// when its sample is evicted.
    min_deque: VecDeque<(u64, f64)>,
    capacity: usize,
    min_samples: usize,
    prior: f64,
    total_observed: u64,
    /// Memoized MLE of the current window; invalidated by `observe`. The
    /// estimate is a pure function of the window, so serving the cached
    /// value between observations is exact. A read after an observation
    /// costs one O(window) sum of the cached logs (additions only, no
    /// `ln()`); every other read is an O(1) load.
    cached: std::cell::Cell<Option<f64>>,
}

impl BetaEstimator {
    /// `prior` is returned until `min_samples` observations accumulate;
    /// `capacity` bounds the sliding window (older samples are dropped so
    /// the estimate tracks time-varying straggler behaviour).
    pub fn new(prior: f64, capacity: usize, min_samples: usize) -> Self {
        assert!(prior > 1.0, "prior β must be > 1");
        assert!(capacity >= min_samples && min_samples >= 2);
        BetaEstimator {
            window: VecDeque::with_capacity(capacity),
            logs: VecDeque::with_capacity(capacity),
            // Holds only the window's running minima (a handful on a
            // random stream), so it grows on demand.
            min_deque: VecDeque::new(),
            capacity,
            min_samples,
            prior,
            total_observed: 0,
            cached: std::cell::Cell::new(None),
        }
    }

    /// Default configuration: prior β = 1.5 (mid-range of production
    /// traces), window of 2000 samples, estimates after 20.
    pub fn with_prior(prior: f64) -> Self {
        Self::new(prior, 2000, 20)
    }

    /// Record one completed copy's duration multiplier
    /// (`observed duration / nominal work`; > 0).
    pub fn observe(&mut self, multiplier: f64) {
        if !(multiplier.is_finite() && multiplier > 0.0) {
            return; // defensive: ignore garbage observations
        }
        let old_min = self.x_min();
        if self.window.len() == self.capacity {
            self.window.pop_front();
            self.logs.pop_front();
            let evicted = self.total_observed - self.capacity as u64;
            if self.min_deque.front().is_some_and(|&(s, _)| s == evicted) {
                self.min_deque.pop_front();
            }
        }
        while self.min_deque.back().is_some_and(|&(_, v)| v > multiplier) {
            self.min_deque.pop_back();
        }
        self.min_deque.push_back((self.total_observed, multiplier));
        self.window.push_back(multiplier);
        let x_min = self.x_min();
        if x_min.to_bits() == old_min.to_bits() {
            self.logs.push_back((multiplier / x_min).ln());
        } else {
            self.logs.clear();
            self.logs
                .extend(self.window.iter().map(|x| (x / x_min).ln()));
        }
        self.total_observed += 1;
        self.cached.set(None);
    }

    /// Current window minimum (+∞ on an empty window).
    fn x_min(&self) -> f64 {
        self.min_deque.front().map_or(f64::INFINITY, |&(_, v)| v)
    }

    /// Number of observations ever made.
    pub fn observations(&self) -> u64 {
        self.total_observed
    }

    /// Current β estimate.
    ///
    /// Pareto MLE with x_min taken as the window minimum and the standard
    /// small-sample correction: `β̂ = (n − 2) / Σ ln(x_i / x_min)`, clamped
    /// to `[1.05, 4.0]` so downstream math (2/β, mean factors) stays sane
    /// even on degenerate windows. The prior is served below `min_samples`
    /// observations and when every sample is identical.
    pub fn beta(&self) -> f64 {
        if let Some(v) = self.cached.get() {
            return v;
        }
        let v = self.compute_beta();
        self.cached.set(Some(v));
        v
    }

    /// The full-window MLE (memoized by [`BetaEstimator::beta`]). Sums the
    /// cached logs front to back — the order and the per-sample values of
    /// a fresh `Σ (x / x_min).ln()` over the window, so the result is
    /// bit-identical to that re-sum.
    fn compute_beta(&self) -> f64 {
        if self.window.len() < self.min_samples {
            return self.prior;
        }
        let x_min = self.x_min();
        if !(x_min.is_finite() && x_min > 0.0) {
            return self.prior;
        }
        let log_sum: f64 = self.logs.iter().sum();
        if log_sum <= 0.0 {
            return self.prior; // all samples identical: no tail information
        }
        let n = self.window.len() as f64;
        // The plain MLE is biased by the x_min plug-in; the standard
        // small-sample correction is (n-2)/n · n/Σln = (n-2)/Σln.
        let beta = (n - 2.0) / log_sum;
        beta.clamp(1.05, 4.0)
    }
}

/// Per-template α (intermediate-data) predictor.
///
/// A job's α is the ratio of remaining downstream network-transfer work to
/// remaining upstream compute work (§4.2). The part that is *unknown*
/// upfront is the intermediate output volume; this estimator learns the
/// per-task output (MB) of each recurring template from completed phases
/// and predicts it for new jobs, exactly the §6.3 strategy.
#[derive(Debug, Clone, Default)]
pub struct AlphaEstimator {
    /// Template → (sum of observed per-task output MB, count).
    history: HashMap<u32, (f64, u64)>,
    /// Running global mean as a cold-start fallback.
    global: (f64, u64),
    /// Accuracy tracking: Σ(1 − relative error), count.
    accuracy: (f64, u64),
}

impl AlphaEstimator {
    /// Fresh estimator with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observed per-task intermediate output (MB) for `template`
    /// (or `None` for a one-off job, which still feeds the global mean).
    pub fn observe(&mut self, template: Option<u32>, output_mb_per_task: f64) {
        if !(output_mb_per_task.is_finite() && output_mb_per_task >= 0.0) {
            return;
        }
        if let Some(t) = template {
            let e = self.history.entry(t).or_insert((0.0, 0));
            e.0 += output_mb_per_task;
            e.1 += 1;
        }
        self.global.0 += output_mb_per_task;
        self.global.1 += 1;
    }

    /// Predict per-task output MB for a job of `template`; `None` if there
    /// is no history at all yet.
    pub fn predict(&self, template: Option<u32>) -> Option<f64> {
        if let Some(t) = template {
            if let Some(&(sum, n)) = self.history.get(&t) {
                if n > 0 {
                    return Some(sum / n as f64);
                }
            }
        }
        (self.global.1 > 0).then(|| self.global.0 / self.global.1 as f64)
    }

    /// Score a resolved prediction against the actual value (drives the
    /// "92% accuracy on average" statistic of §6.3 / §7.2).
    pub fn record_outcome(&mut self, predicted: f64, actual: f64) {
        if actual <= 0.0 || !predicted.is_finite() {
            return;
        }
        let rel_err = ((predicted - actual).abs() / actual).min(1.0);
        self.accuracy.0 += 1.0 - rel_err;
        self.accuracy.1 += 1;
    }

    /// Mean prediction accuracy in \[0, 1\] (`None` before any outcome).
    pub fn accuracy(&self) -> Option<f64> {
        (self.accuracy.1 > 0).then(|| self.accuracy.0 / self.accuracy.1 as f64)
    }

    /// Number of templates with history.
    pub fn templates_learned(&self) -> usize {
        self.history.len()
    }
}

/// Compute α from its ingredients (pure helper shared by both drivers).
///
/// `remaining_transfer_ms` is the time to move the job's pending
/// intermediate data at the given per-slot bandwidth; `remaining_compute_ms`
/// is the nominal compute remaining in the current (upstream) phase. The
/// result is clamped to keep `√α` scaling within a sane band.
pub fn alpha_from_work(remaining_transfer_ms: f64, remaining_compute_ms: f64) -> f64 {
    if remaining_compute_ms <= 0.0 {
        return 1.0;
    }
    (remaining_transfer_ms / remaining_compute_ms).clamp(0.05, 20.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_sim::rng_from_seed;
    use rand::Rng;

    /// Draw Pareto(β, x_min=1) samples and check the estimator recovers β.
    fn pareto_recovery(beta_true: f64) -> f64 {
        let mut rng = rng_from_seed(99);
        let mut est = BetaEstimator::new(1.5, 4000, 20);
        for _ in 0..4000 {
            let u: f64 = 1.0 - rng.gen::<f64>();
            est.observe(1.0 / u.powf(1.0 / beta_true));
        }
        est.beta()
    }

    #[test]
    fn beta_mle_recovers_shape() {
        for beta in [1.2, 1.5, 1.8] {
            let hat = pareto_recovery(beta);
            assert!((hat - beta).abs() / beta < 0.08, "β={beta} estimated {hat}");
        }
    }

    #[test]
    fn beta_mle_recovery_is_scale_invariant() {
        // The MLE plugs in the window minimum as x_min, so the estimate
        // must not depend on the multiplier scale (nominal-work units).
        for scale in [0.25, 1.0, 7.5] {
            let mut rng = rng_from_seed(42);
            let mut est = BetaEstimator::new(1.5, 4000, 20);
            let beta_true = 1.4;
            for _ in 0..4000 {
                let u: f64 = 1.0 - rng.gen::<f64>();
                est.observe(scale / u.powf(1.0 / beta_true));
            }
            let hat = est.beta();
            assert!(
                (hat - beta_true).abs() / beta_true < 0.08,
                "scale {scale}: β={beta_true} estimated {hat}"
            );
        }
    }

    #[test]
    fn beta_mle_recovery_holds_across_seeds() {
        // Guard against a lucky-seed pass: recovery tolerance must hold
        // for several independent sample streams.
        let beta_true = 1.6;
        for seed in [7, 21, 303, 9999] {
            let mut rng = rng_from_seed(seed);
            let mut est = BetaEstimator::new(1.5, 4000, 20);
            for _ in 0..4000 {
                let u: f64 = 1.0 - rng.gen::<f64>();
                est.observe(1.0 / u.powf(1.0 / beta_true));
            }
            let hat = est.beta();
            assert!(
                (hat - beta_true).abs() / beta_true < 0.10,
                "seed {seed}: β={beta_true} estimated {hat}"
            );
        }
    }

    #[test]
    fn beta_prior_before_min_samples() {
        let mut est = BetaEstimator::with_prior(1.4);
        assert_eq!(est.beta(), 1.4);
        for _ in 0..5 {
            est.observe(1.0);
        }
        assert_eq!(est.beta(), 1.4, "still under min_samples");
    }

    #[test]
    fn beta_identical_samples_fall_back_to_prior() {
        let mut est = BetaEstimator::new(1.6, 100, 2);
        for _ in 0..50 {
            est.observe(2.0);
        }
        assert_eq!(est.beta(), 1.6);
    }

    #[test]
    fn beta_window_slides() {
        let mut est = BetaEstimator::new(1.5, 100, 2);
        // Fill with a light tail, then flood with a heavy tail; the window
        // must forget the old regime.
        let mut rng = rng_from_seed(3);
        for _ in 0..100 {
            let u: f64 = 1.0 - rng.gen::<f64>();
            est.observe(1.0 / u.powf(1.0 / 3.0)); // β = 3
        }
        let light = est.beta();
        for _ in 0..100 {
            let u: f64 = 1.0 - rng.gen::<f64>();
            est.observe(1.0 / u.powf(1.0 / 1.2)); // β = 1.2
        }
        let heavy = est.beta();
        assert!(heavy < light, "window did not adapt: {light} → {heavy}");
        assert!(heavy < 1.6, "heavy-tail estimate {heavy}");
    }

    #[test]
    fn beta_ignores_garbage() {
        let mut est = BetaEstimator::new(1.5, 100, 2);
        est.observe(f64::NAN);
        est.observe(-1.0);
        est.observe(0.0);
        assert_eq!(est.observations(), 0);
    }

    #[test]
    fn beta_clamped_to_sane_band() {
        let mut est = BetaEstimator::new(1.5, 100, 2);
        // Nearly identical samples → enormous raw MLE → clamped to 4.
        for i in 0..100 {
            est.observe(1.0 + (i as f64) * 1e-9);
        }
        assert!(est.beta() <= 4.0);
    }

    /// The O(window) re-sum the cached logs replace: fold the window
    /// minimum, then sum `ln(x / x_min)` front to back.
    fn resum_beta(window: &VecDeque<f64>, prior: f64, min_samples: usize) -> f64 {
        if window.len() < min_samples {
            return prior;
        }
        let x_min = window.iter().copied().fold(f64::INFINITY, f64::min);
        let log_sum: f64 = window.iter().map(|x| (x / x_min).ln()).sum();
        if log_sum <= 0.0 {
            return prior;
        }
        ((window.len() as f64 - 2.0) / log_sum).clamp(1.05, 4.0)
    }

    #[test]
    fn cached_log_beta_matches_resum_bit_for_bit() {
        for (capacity, min_samples) in [(2, 2), (20, 2), (20, 20), (2000, 20)] {
            for seed in 0..6u64 {
                let mut rng = rng_from_seed(1000 + seed);
                let mut est = BetaEstimator::new(1.5, capacity, min_samples);
                let mut window = VecDeque::new();
                // Few distinct levels: ties at the minimum, and a minimum
                // that keeps getting evicted and replaced by an equal or
                // larger value.
                let levels = [0.5, 1.0, 1.0, 2.0, 3.5];
                // A slow downward drift makes fresh minima common.
                let mut drift = 1.0;
                for i in 0..(3 * capacity + 500) {
                    let x = match rng.gen_range(0..10u32) {
                        0 => [f64::NAN, -1.0, 0.0, f64::INFINITY][i % 4],
                        1..=3 => levels[rng.gen_range(0..levels.len())],
                        4 => {
                            drift *= 0.97;
                            drift
                        }
                        _ => {
                            let u: f64 = 1.0 - rng.gen::<f64>();
                            u.powf(-1.0 / 1.3)
                        }
                    };
                    est.observe(x);
                    if x.is_finite() && x > 0.0 {
                        if window.len() == capacity {
                            window.pop_front();
                        }
                        window.push_back(x);
                    }
                    let want = resum_beta(&window, 1.5, min_samples);
                    assert_eq!(
                        est.beta().to_bits(),
                        want.to_bits(),
                        "capacity {capacity} seed {seed} step {i}: {} vs {want}",
                        est.beta()
                    );
                }
            }
        }
    }

    #[test]
    fn alpha_predicts_per_template() {
        let mut est = AlphaEstimator::new();
        est.observe(Some(1), 10.0);
        est.observe(Some(1), 12.0);
        est.observe(Some(2), 100.0);
        assert!((est.predict(Some(1)).unwrap() - 11.0).abs() < 1e-9);
        assert!((est.predict(Some(2)).unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(est.templates_learned(), 2);
    }

    #[test]
    fn alpha_falls_back_to_global_mean() {
        let mut est = AlphaEstimator::new();
        assert_eq!(est.predict(Some(5)), None);
        est.observe(Some(1), 10.0);
        est.observe(None, 20.0);
        // Unknown template → global mean of all observations.
        assert!((est.predict(Some(5)).unwrap() - 15.0).abs() < 1e-9);
        assert!((est.predict(None).unwrap() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_accuracy_tracking() {
        let mut est = AlphaEstimator::new();
        assert_eq!(est.accuracy(), None);
        est.record_outcome(9.0, 10.0); // 10% error → 0.9
        est.record_outcome(10.0, 10.0); // exact → 1.0
        assert!((est.accuracy().unwrap() - 0.95).abs() < 1e-9);
        // Catastrophic mispredictions floor at 0 accuracy, not negative.
        est.record_outcome(1000.0, 1.0);
        assert!(est.accuracy().unwrap() > 0.6);
    }

    #[test]
    fn alpha_from_work_ratio_and_clamps() {
        assert!((alpha_from_work(500.0, 1000.0) - 0.5).abs() < 1e-12);
        assert_eq!(alpha_from_work(1.0, 0.0), 1.0);
        assert_eq!(alpha_from_work(1e9, 1.0), 20.0);
        assert_eq!(alpha_from_work(0.0, 100.0), 0.05);
    }

    #[test]
    fn alpha_from_work_degenerate_inputs_stay_in_band() {
        // Negative compute means "no upstream work left": neutral α = 1.
        assert_eq!(alpha_from_work(100.0, -5.0), 1.0);
        // Negative transfer clamps to the band floor rather than going
        // negative (√α is taken downstream).
        assert_eq!(alpha_from_work(-100.0, 50.0), 0.05);
        let a = alpha_from_work(f64::INFINITY, 1.0);
        assert!((0.05..=20.0).contains(&a));
    }
}
