//! Everything a workload feeds the library, derived from one `--seed`: the
//! matrices, the right-hand sides, the arrival gaps and the tenant draws.
//! The library only ever sees these generated values.

use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::rng::Rng;
use tileqr_matrix::Matrix;

/// Independent sub-seed `stream` of `seed` (SplitMix64 finalizer), so each
/// input has its own generator and adding one never shifts another.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random `rows × cols` matrix drawn from sub-seed `stream`.
pub fn matrix(seed: u64, stream: u64, rows: usize, cols: usize) -> Matrix<f64> {
    random_matrix(rows, cols, sub_seed(seed, stream))
}

/// One request of a service stream: when it is due (ns after the stream
/// starts; `0` in a closed loop, where a request is due when sent), which
/// tenant sends it and which of that tenant's inputs it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub tenant: usize,
    pub input: usize,
}

/// Stream of tenant/input draws.
pub struct Draws {
    rng: Rng,
    tenants: usize,
    inputs: usize,
}

impl Draws {
    pub fn new(seed: u64, tenants: usize, inputs: usize) -> Self {
        Draws {
            rng: Rng::seed_from_u64(sub_seed(seed, 0xD4A3)),
            tenants,
            inputs,
        }
    }

    pub fn next(&mut self) -> Arrival {
        let tenant = (self.rng.next_u64() % self.tenants as u64) as usize;
        let input = (self.rng.next_u64() % self.inputs as u64) as usize;
        Arrival {
            due_ns: 0,
            tenant,
            input,
        }
    }
}

/// Open-loop Poisson schedule: `round(rate · seconds)` arrivals with
/// exponential gaps, rescaled so the last one is due at exactly `seconds`
/// (the offered rate is then exactly `rate`).
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    tenants: usize,
    inputs: usize,
) -> Vec<Arrival> {
    let n = ((rate * seconds).round() as usize).max(1);
    let mut gaps = Rng::seed_from_u64(sub_seed(seed, 0x6A95));
    let raw: Vec<f64> = (0..n).map(|_| -(1.0 - gaps.next_f64()).ln()).collect();
    let scale = seconds * 1e9 / raw.iter().sum::<f64>();
    let mut draws = Draws::new(seed, tenants, inputs);
    let mut t = 0.0;
    raw.iter()
        .map(|g| {
            t += g * scale;
            Arrival {
                due_ns: t as u64,
                ..draws.next()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs_and_schedule() {
        assert_eq!(
            matrix(7, 1, 40, 12).as_slice(),
            matrix(7, 1, 40, 12).as_slice()
        );
        assert_eq!(
            poisson_schedule(7, 150.0, 2.0, 3, 4),
            poisson_schedule(7, 150.0, 2.0, 3, 4)
        );
        let (mut a, mut b) = (Draws::new(7, 3, 4), Draws::new(7, 3, 4));
        for _ in 0..50 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_give_different_inputs_and_schedule() {
        assert_ne!(
            matrix(7, 1, 40, 12).as_slice(),
            matrix(8, 1, 40, 12).as_slice()
        );
        // Two streams of one seed are independent too.
        assert_ne!(
            matrix(7, 1, 40, 12).as_slice(),
            matrix(7, 2, 40, 12).as_slice()
        );
        let (s7, s8) = (
            poisson_schedule(7, 150.0, 2.0, 3, 4),
            poisson_schedule(8, 150.0, 2.0, 3, 4),
        );
        assert_ne!(
            s7.iter().map(|a| a.due_ns).collect::<Vec<_>>(),
            s8.iter().map(|a| a.due_ns).collect::<Vec<_>>()
        );
        assert_ne!(
            s7.iter().map(|a| (a.tenant, a.input)).collect::<Vec<_>>(),
            s8.iter().map(|a| (a.tenant, a.input)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn schedule_offers_exactly_the_rate() {
        let s = poisson_schedule(3, 300.0, 4.0, 3, 4);
        assert_eq!(s.len(), 1200);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let last = s.last().expect("non-empty").due_ns as f64;
        assert!((last - 4e9).abs() < 1e3, "last arrival at {last} ns");
        // Every tenant and input gets drawn.
        for t in 0..3 {
            assert!(s.iter().any(|a| a.tenant == t));
        }
        for i in 0..4 {
            assert!(s.iter().any(|a| a.input == i));
        }
    }
}
