//! Availability analytics — quantifying the paper's title.
//!
//! §I motivates the whole design with outage statistics ("a 5-minute
//! failure that costs half a million dollars … 58 % of professionals in
//! SMBs can tolerate no more than four hours of downtime"). This module
//! turns redundancy layouts into read-availability numbers two ways:
//!
//! * **closed form** — providers fail independently with availability
//!   `p`; a replicated object reads if ≥1 replica is up, an
//!   erasure-coded one if ≥m of n fragment holders are up;
//! * **Monte Carlo** — alternating exponential up/down periods
//!   (MTBF/MTTR) per provider over simulated years, measuring the
//!   fraction of time each layout can serve. The two must agree, which
//!   the tests enforce.

use hyrd_workloads::rng::SplitMix64;

/// `C(n, k)` as f64 (small n only).
fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut num = 1.0;
    let mut den = 1.0;
    for i in 0..k {
        num *= (n - i) as f64;
        den *= (i + 1) as f64;
    }
    num / den
}

/// Probability that at least `k` of `n` independent providers (each up
/// with probability `p`) are up.
pub fn at_least_k_of_n(p: f64, k: u64, n: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p is a probability");
    (k..=n).map(|i| binomial(n, i) * p.powi(i as i32) * (1.0 - p).powi((n - i) as i32)).sum()
}

/// Read availability of `r`-way replication: any replica serves.
pub fn replication_availability(p: f64, r: u64) -> f64 {
    at_least_k_of_n(p, 1, r)
}

/// Read availability of an `(m, n)` erasure code: any `m` fragments serve.
pub fn erasure_availability(p: f64, m: u64, n: u64) -> f64 {
    at_least_k_of_n(p, m, n)
}

/// Read availability of HyRD for a request mix: small requests hit the
/// `r`-replica tier, large ones the `(m, n)` erasure tier. The expected
/// per-request availability is the mix-weighted combination (§II-B's
/// "small files account for the most user accesses" is what makes this
/// favour the replica tier).
pub fn hyrd_availability(p: f64, r: u64, m: u64, n: u64, small_request_frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&small_request_frac));
    small_request_frac * replication_availability(p, r)
        + (1.0 - small_request_frac) * erasure_availability(p, m, n)
}

/// Converts availability into "number of nines" (0.999 → 3.0).
pub fn nines(availability: f64) -> f64 {
    if availability >= 1.0 {
        return f64::INFINITY;
    }
    -(1.0 - availability).log10()
}

/// What one Monte Carlo run measures for a layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McAvailability {
    /// Fraction of time the layout could serve reads.
    pub available: f64,
    /// Mean number of providers up.
    pub mean_up: f64,
}

/// Monte Carlo availability of "at least k of n" under alternating
/// exponential up (mean `mtbf`) / down (mean `mttr`) periods, simulated
/// for `horizon` time units with a deterministic seed.
///
/// The per-provider steady-state availability is `mtbf / (mtbf + mttr)`;
/// pass the same value to the closed form to compare.
pub fn monte_carlo_k_of_n(
    k: u64,
    n: u64,
    mtbf: f64,
    mttr: f64,
    horizon: f64,
    seed: u64,
) -> McAvailability {
    assert!(k <= n && n <= 16, "small fleets only");
    assert!(mtbf > 0.0 && mttr > 0.0 && horizon > 0.0);

    // Each provider is an alternating renewal process; generate its
    // up/down switch times and walk the merged timeline.
    let mut events: Vec<(f64, i32)> = Vec::new(); // (time, +1 up / -1 down)
    for prov in 0..n {
        let mut rng = SplitMix64::new(seed ^ (0x9E37 + prov));
        let mut t = 0.0;
        let mut up = true; // everyone starts up
        while t < horizon {
            let dur = exp(&mut rng, if up { mtbf } else { mttr });
            let end = (t + dur).min(horizon);
            if !up {
                events.push((t, -1));
                events.push((end, 1));
            }
            t = end;
            up = !up;
        }
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

    let mut up_count = n as i64;
    let mut last_t = 0.0;
    let mut available_time = 0.0;
    let mut up_integral = 0.0;
    for (t, delta) in events {
        let span = t - last_t;
        if up_count >= k as i64 {
            available_time += span;
        }
        up_integral += span * up_count as f64;
        up_count += delta as i64;
        last_t = t;
    }
    let span = horizon - last_t;
    if up_count >= k as i64 {
        available_time += span;
    }
    up_integral += span * up_count as f64;

    McAvailability { available: available_time / horizon, mean_up: up_integral / horizon / 1.0 }
}

/// Exponential with the given mean, by inverse transform of a uniform
/// in (0, 1).
fn exp(rng: &mut SplitMix64, mean: f64) -> f64 {
    let unit = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    -mean * unit.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(4, 0), 1.0);
        assert_eq!(binomial(4, 1), 4.0);
        assert_eq!(binomial(4, 2), 6.0);
        assert_eq!(binomial(4, 4), 1.0);
        assert_eq!(binomial(4, 5), 0.0);
    }

    #[test]
    fn closed_forms_match_hand_calculations() {
        // 2-way replication at p = 0.99: 1 - 0.01^2.
        let a = replication_availability(0.99, 2);
        assert!((a - 0.9999).abs() < 1e-12);
        // RAID5 over 4 at p = 0.99: P(>=3 up).
        let e = erasure_availability(0.99, 3, 4);
        let want = binomial(4, 3) * 0.99f64.powi(3) * 0.01 + 0.99f64.powi(4);
        assert!((e - want).abs() < 1e-12);
        // Degenerate cases.
        assert_eq!(at_least_k_of_n(1.0, 2, 4), 1.0);
        assert_eq!(at_least_k_of_n(0.0, 1, 4), 0.0);
    }

    #[test]
    fn redundancy_always_beats_a_single_provider() {
        for p in [0.9, 0.99, 0.999] {
            assert!(replication_availability(p, 2) > p);
            assert!(erasure_availability(p, 3, 4) > p);
            assert!(hyrd_availability(p, 2, 3, 4, 0.88) > p);
        }
    }

    #[test]
    fn hyrd_mix_interpolates_between_the_tiers() {
        let p = 0.99;
        let repl = replication_availability(p, 2);
        let ec = erasure_availability(p, 3, 4);
        let h = hyrd_availability(p, 2, 3, 4, 0.88);
        let (lo, hi) = if repl < ec { (repl, ec) } else { (ec, repl) };
        assert!(h >= lo && h <= hi);
        assert_eq!(hyrd_availability(p, 2, 3, 4, 1.0), repl);
        assert_eq!(hyrd_availability(p, 2, 3, 4, 0.0), ec);
    }

    #[test]
    fn nines_scale() {
        assert!((nines(0.999) - 3.0).abs() < 1e-9);
        assert!((nines(0.99) - 2.0).abs() < 1e-9);
        assert_eq!(nines(1.0), f64::INFINITY);
    }

    #[test]
    fn monte_carlo_agrees_with_the_closed_form() {
        // MTBF 30 days, MTTR 6 hours -> p = 720 / (720 + 6) ≈ 0.99174.
        let (mtbf, mttr) = (720.0, 6.0);
        let p = mtbf / (mtbf + mttr);
        let horizon = 2_000_000.0; // many cycles
        for (k, n) in [(1u64, 2u64), (3, 4), (2, 4)] {
            let mc = monte_carlo_k_of_n(k, n, mtbf, mttr, horizon, 42);
            let cf = at_least_k_of_n(p, k, n);
            assert!(
                (mc.available - cf).abs() < 0.003,
                "k={k} n={n}: MC {:.5} vs closed form {cf:.5}",
                mc.available
            );
        }
    }

    #[test]
    fn monte_carlo_mean_up_tracks_p_times_n() {
        let (mtbf, mttr) = (720.0, 6.0);
        let p = mtbf / (mtbf + mttr);
        let mc = monte_carlo_k_of_n(1, 4, mtbf, mttr, 1_000_000.0, 7);
        assert!((mc.mean_up - 4.0 * p).abs() < 0.05, "mean_up {}", mc.mean_up);
    }

    #[test]
    fn monte_carlo_is_deterministic() {
        let a = monte_carlo_k_of_n(3, 4, 100.0, 5.0, 50_000.0, 9);
        let b = monte_carlo_k_of_n(3, 4, 100.0, 5.0, 50_000.0, 9);
        assert_eq!(a, b);
    }
}
