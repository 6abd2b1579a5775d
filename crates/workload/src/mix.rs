//! Operation mixes: read/write ratio and key popularity.
//!
//! The paper targets "a system where access is read-dominated, which is
//! the case in Internet-based environments"; its evaluation drives pure
//! write streams (the reads are free). [`OpMix`] covers both: the paper
//! figures use [`OpMix::write_only`], the E13 extension sweeps the write
//! fraction.

use marp_replica::Operation;
use marp_sim::dist::Zipf;
use marp_sim::SimRng;

/// How keys are chosen.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over `0..keys`.
    Uniform {
        /// Key-space size.
        keys: u64,
    },
    /// Zipf-distributed rank over `0..keys` with exponent `s`.
    Zipf {
        /// Key-space size.
        keys: u64,
        /// Skew exponent (0 = uniform).
        s: f64,
    },
    /// A fraction of accesses hit key 0, the rest are uniform.
    Hotspot {
        /// Key-space size.
        keys: u64,
        /// Fraction of accesses going to the hot key.
        hot_fraction: f64,
    },
    /// All operations on one key (maximum write contention).
    Single,
}

impl KeyDist {
    fn instantiate(&self) -> KeySampler {
        match *self {
            KeyDist::Uniform { keys } => KeySampler::Uniform { keys: keys.max(1) },
            KeyDist::Zipf { keys, s } => KeySampler::Zipf(Zipf::new(keys.max(1) as usize, s)),
            KeyDist::Hotspot { keys, hot_fraction } => KeySampler::Hotspot {
                keys: keys.max(1),
                hot_fraction: hot_fraction.clamp(0.0, 1.0),
            },
            KeyDist::Single => KeySampler::Single,
        }
    }
}

#[derive(Debug, Clone)]
enum KeySampler {
    Uniform { keys: u64 },
    Zipf(Zipf),
    Hotspot { keys: u64, hot_fraction: f64 },
    Single,
}

impl KeySampler {
    fn sample(&self, rng: &mut SimRng) -> u64 {
        match self {
            KeySampler::Uniform { keys } => rng.below(*keys),
            KeySampler::Zipf(zipf) => zipf.sample_rank(rng) as u64,
            KeySampler::Hotspot { keys, hot_fraction } => {
                if rng.chance(*hot_fraction) {
                    0
                } else {
                    rng.below(*keys)
                }
            }
            KeySampler::Single => 0,
        }
    }
}

/// A read/write mix over a key distribution.
#[derive(Debug, Clone)]
pub struct OpMix {
    write_fraction: f64,
    keys: KeyDist,
    fresh_reads: bool,
}

impl OpMix {
    /// Build a mix: `write_fraction` of operations are writes.
    pub fn new(write_fraction: f64, keys: KeyDist) -> Self {
        OpMix {
            write_fraction: write_fraction.clamp(0.0, 1.0),
            keys,
            fresh_reads: false,
        }
    }

    /// Issue consistent (`ReadFresh`) reads instead of plain local
    /// reads.
    pub fn with_fresh_reads(mut self, fresh: bool) -> Self {
        self.fresh_reads = fresh;
        self
    }

    /// The paper's evaluation workload: every request is a write.
    pub fn write_only(keys: KeyDist) -> Self {
        Self::new(1.0, keys)
    }

    /// Configured write fraction.
    pub fn write_fraction(&self) -> f64 {
        self.write_fraction
    }

    /// Instantiate a generator with its own RNG stream.
    pub fn start(&self, rng: SimRng) -> OpGen {
        OpGen {
            write_fraction: self.write_fraction,
            keys: self.keys.instantiate(),
            fresh_reads: self.fresh_reads,
            rng,
            seq: 0,
        }
    }
}

/// A running operation generator.
#[derive(Debug, Clone)]
pub struct OpGen {
    write_fraction: f64,
    keys: KeySampler,
    fresh_reads: bool,
    rng: SimRng,
    seq: u64,
}

impl OpGen {
    /// Draw the next operation. Write values are unique per generator
    /// so committed values can be traced back to their writes.
    pub fn next_op(&mut self) -> Operation {
        let key = self.keys.sample(&mut self.rng);
        if self.rng.chance(self.write_fraction) {
            self.seq += 1;
            Operation::Write {
                key,
                value: self.seq,
            }
        } else if self.fresh_reads {
            Operation::ReadFresh { key }
        } else {
            Operation::Read { key }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_only_produces_writes() {
        let mut gen = OpMix::write_only(KeyDist::Single).start(SimRng::from_seed(1));
        for _ in 0..100 {
            assert!(gen.next_op().is_write());
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut gen = OpMix::new(0.2, KeyDist::Uniform { keys: 10 }).start(SimRng::from_seed(2));
        let writes = (0..10_000).filter(|_| gen.next_op().is_write()).count();
        assert!((1_700..2_300).contains(&writes), "writes = {writes}");
    }

    #[test]
    fn single_key_is_always_zero() {
        let mut gen = OpMix::write_only(KeyDist::Single).start(SimRng::from_seed(3));
        for _ in 0..50 {
            assert_eq!(gen.next_op().key(), 0);
        }
    }

    #[test]
    fn uniform_covers_the_space() {
        let mut gen = OpMix::write_only(KeyDist::Uniform { keys: 4 }).start(SimRng::from_seed(4));
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[gen.next_op().key() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hotspot_concentrates_on_key_zero() {
        let mut gen = OpMix::write_only(KeyDist::Hotspot {
            keys: 100,
            hot_fraction: 0.8,
        })
        .start(SimRng::from_seed(5));
        let zeros = (0..10_000).filter(|_| gen.next_op().key() == 0).count();
        assert!(zeros > 7_500, "zeros = {zeros}");
    }

    #[test]
    fn zipf_skews_low_ranks() {
        let mut gen =
            OpMix::write_only(KeyDist::Zipf { keys: 50, s: 1.2 }).start(SimRng::from_seed(6));
        let zeros = (0..10_000).filter(|_| gen.next_op().key() == 0).count();
        let tails = (0..10_000).filter(|_| gen.next_op().key() >= 40).count();
        assert!(zeros > tails, "zeros = {zeros}, tails = {tails}");
    }

    #[test]
    fn fresh_read_mode_emits_read_fresh() {
        let mut gen = OpMix::new(0.0, KeyDist::Single)
            .with_fresh_reads(true)
            .start(SimRng::from_seed(8));
        for _ in 0..20 {
            assert!(matches!(gen.next_op(), Operation::ReadFresh { .. }));
        }
    }

    #[test]
    fn write_values_are_unique_and_increasing() {
        let mut gen = OpMix::write_only(KeyDist::Single).start(SimRng::from_seed(7));
        let values: Vec<u64> = (0..10)
            .filter_map(|_| match gen.next_op() {
                Operation::Write { value, .. } => Some(value),
                Operation::Read { .. } | Operation::ReadFresh { .. } => None,
            })
            .collect();
        assert_eq!(values, (1..=10).collect::<Vec<u64>>());
    }
}
