//! The analytical model of §6.3/6.4 (Eqs. 1–4) and Observations 1–3.
//!
//! The runtime's [`gflink_sim::Accounting`] ledgers record measured phase
//! times; this module turns pairs of ledgers (baseline vs. GFlink) into the
//! paper's derived quantities so benches and tests can assert the
//! observations hold.

use gflink_sim::{Accounting, Phase, SimTime};

/// Eq. (2): overall speedup of GFlink over the baseline.
pub fn speedup_total(flink: &Accounting, gflink: &Accounting) -> f64 {
    ratio(flink.total(), gflink.total())
}

/// Eq. (3): speedup of the map phases alone.
pub fn speedup_map(flink: &Accounting, gflink: &Accounting) -> f64 {
    ratio(flink.get(Phase::Map), gflink.get(Phase::Map))
}

/// Eq. (4) decomposition of GFlink's GPU map time: transfer in, kernel,
/// transfer out (as fractions of their sum).
pub fn map_gpu_breakdown(gflink: &Accounting) -> (f64, f64, f64) {
    let h2d = gflink.get(Phase::TransferH2D).as_secs_f64();
    let k = gflink.get(Phase::Kernel).as_secs_f64();
    let d2h = gflink.get(Phase::TransferD2H).as_secs_f64();
    let sum = h2d + k + d2h;
    if sum == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    (h2d / sum, k / sum, d2h / sum)
}

/// Observation 1: with other parameters fixed, a larger shuffle share
/// implies a smaller achievable overall speedup. This helper returns the
/// *upper bound* on speedup implied by Amdahl's law when only map+reduce
/// accelerate: `1 / (1 - accelerable_fraction)`.
pub fn amdahl_bound(flink: &Accounting) -> f64 {
    let accelerable = flink.fraction(Phase::Map) + flink.fraction(Phase::Reduce);
    if accelerable >= 1.0 {
        f64::INFINITY
    } else {
        1.0 / (1.0 - accelerable)
    }
}

/// Observation 3's fixed-cost share: the fraction of total time spent in
/// submit + IO + schedule (dominates for small inputs).
pub fn fixed_cost_share(acct: &Accounting) -> f64 {
    acct.fraction(Phase::Submit) + acct.fraction(Phase::Io) + acct.fraction(Phase::Schedule)
}

/// Relative error of a completion-time prediction against the observed
/// stage time: `|predicted − observed| / observed`. Returns 0.0 when
/// nothing was observed (a zero-length work tells us nothing about the
/// model). This is the quantity the hybrid scheduler feeds its error EWMA
/// and the rollup's basis-point histogram.
pub fn prediction_error(predicted: SimTime, observed: SimTime) -> f64 {
    if observed.is_zero() {
        return 0.0;
    }
    let p = predicted.as_secs_f64();
    let o = observed.as_secs_f64();
    (p - o).abs() / o
}

fn ratio(num: SimTime, den: SimTime) -> f64 {
    if den.is_zero() {
        return f64::INFINITY;
    }
    num.as_secs_f64() / den.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(map_ms: u64, reduce_ms: u64, shuffle_ms: u64, fixed_ms: u64) -> Accounting {
        let mut a = Accounting::new();
        a.add(Phase::Map, SimTime::from_millis(map_ms));
        a.add(Phase::Reduce, SimTime::from_millis(reduce_ms));
        a.add(Phase::Shuffle, SimTime::from_millis(shuffle_ms));
        a.add(Phase::Io, SimTime::from_millis(fixed_ms));
        a
    }

    #[test]
    fn speedups_from_ledgers() {
        let flink = acct(900, 50, 30, 20);
        let gflink = acct(100, 50, 30, 20);
        assert!((speedup_total(&flink, &gflink) - 5.0).abs() < 1e-9);
        assert!((speedup_map(&flink, &gflink) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn amdahl_bound_shrinks_with_shuffle_share() {
        // Observation 1: more shuffle ⇒ lower bound.
        let low_shuffle = acct(800, 100, 50, 50);
        let high_shuffle = acct(500, 100, 350, 50);
        assert!(amdahl_bound(&low_shuffle) > amdahl_bound(&high_shuffle));
    }

    #[test]
    fn bound_is_respected_by_any_real_speedup() {
        let flink = acct(600, 200, 150, 50);
        // Even an infinitely fast GPU cannot beat the Amdahl bound.
        let gflink = acct(0, 0, 150, 50);
        assert!(speedup_total(&flink, &gflink) <= amdahl_bound(&flink) + 1e-9);
    }

    #[test]
    fn fixed_cost_share_for_small_inputs() {
        // Observation 3: for tiny inputs, submit/IO/schedule dominate.
        let mut small = Accounting::new();
        small.add(Phase::Map, SimTime::from_millis(10));
        small.add(Phase::Submit, SimTime::from_millis(1200));
        small.add(Phase::Io, SimTime::from_millis(300));
        assert!(fixed_cost_share(&small) > 0.9);
        let mut large = acct(10_000, 1000, 500, 300);
        large.add(Phase::Submit, SimTime::from_millis(1200));
        assert!(fixed_cost_share(&large) < 0.2);
    }

    #[test]
    fn gpu_breakdown_fractions_sum_to_one() {
        let mut a = Accounting::new();
        a.add(Phase::TransferH2D, SimTime::from_millis(20));
        a.add(Phase::Kernel, SimTime::from_millis(70));
        a.add(Phase::TransferD2H, SimTime::from_millis(10));
        let (h, k, d) = map_gpu_breakdown(&a);
        assert!((h + k + d - 1.0).abs() < 1e-12);
        assert!((k - 0.7).abs() < 1e-12);
    }

    #[test]
    fn prediction_error_is_relative_and_symmetric_in_sign() {
        let obs = SimTime::from_millis(10);
        // 12 ms predicted vs 10 ms observed: 20% over.
        assert!((prediction_error(SimTime::from_millis(12), obs) - 0.2).abs() < 1e-12);
        // 8 ms predicted: 20% under — same magnitude.
        assert!((prediction_error(SimTime::from_millis(8), obs) - 0.2).abs() < 1e-12);
        // Perfect prediction.
        assert_eq!(prediction_error(obs, obs), 0.0);
        // Nothing observed ⇒ no evidence of error.
        assert_eq!(
            prediction_error(SimTime::from_millis(5), SimTime::ZERO),
            0.0
        );
    }

    #[test]
    fn empty_ledgers_are_benign() {
        let a = Accounting::new();
        assert_eq!(map_gpu_breakdown(&a), (0.0, 0.0, 0.0));
        assert_eq!(fixed_cost_share(&a), 0.0);
        assert!(speedup_total(&a, &a).is_infinite());
    }
}
