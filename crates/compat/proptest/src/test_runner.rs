//! The execution engine: seeded random stream, run configuration, and
//! the per-test driver invoked by the [`crate::proptest!`] macro.

/// The random stream strategies draw from.
///
/// xoshiro256++ seeded through splitmix64: tiny, fast, and good enough
/// for test-case generation. Deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct Gen {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Gen {
    /// Build a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        Gen {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, bound)`. Panics when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Gen::below(0)");
        // Rejection sampling kills modulo bias; the loop almost never
        // iterates more than once.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let draw = self.next_u64();
            if draw < zone {
                return draw % bound;
            }
        }
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Run configuration, mirroring `proptest::test_runner::Config` in
/// struct-update-friendly form.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of cases to run.
    pub cases: u32,
}

impl Config {
    /// The default configuration, running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::with_cases(256)
    }
}

/// Why a single case failed.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property did not hold.
    Fail(String),
}

impl TestCaseError {
    /// A property-violation failure.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TestCaseError::Fail(m) = self;
        write!(f, "{m}")
    }
}

/// FNV-1a over the test name: a stable, platform-independent way to give
/// every test its own default seed.
fn name_hash(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn master_seed(test_name: &str) -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(raw) => {
            raw.trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("PROPTEST_SEED must be a u64, got {raw:?}"))
                ^ name_hash(test_name)
        }
        Err(_) => name_hash(test_name),
    }
}

/// Drive one property test: run `config.cases` cases, panicking with the
/// case number and master seed on the first failure.
pub fn run_property_test<F>(test_name: &str, config: &Config, mut case: F)
where
    F: FnMut(&mut Gen) -> Result<(), TestCaseError>,
{
    let seed = master_seed(test_name);
    let mut gen = Gen::from_seed(seed);
    for case_index in 1..=config.cases {
        if let Err(TestCaseError::Fail(message)) = case(&mut gen) {
            panic!(
                "{test_name}: property failed at case {case_index} \
                 (master seed {seed}): {message}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_deterministic() {
        let mut a = Gen::from_seed(99);
        let mut b = Gen::from_seed(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut g = Gen::from_seed(3);
        for bound in [1u64, 2, 3, 7, 1000] {
            for _ in 0..200 {
                assert!(g.below(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut g = Gen::from_seed(5);
        for _ in 0..1_000 {
            let v = g.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn runner_counts_cases() {
        let mut calls = 0;
        run_property_test("compat::counts", &Config::with_cases(17), |_| {
            calls += 1;
            Ok(())
        });
        assert_eq!(calls, 17);
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn runner_reports_failures() {
        run_property_test("compat::fails", &Config::default(), |_| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
