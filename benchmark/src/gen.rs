//! Seeded input generation. Every input the program sees — halo payloads (the
//! lattice the step slices them from), region textures and dirty sets — comes from
//! the workspace's SplitMix64 (`net_sim::SplitMix64`) seeded by `--seed`, so one
//! seed always yields the same inputs.

use net_sim::SplitMix64;

/// A generator for one named stream of one run: streams with different
/// `(seed, lane, a, b)` coordinates are statistically independent.
fn stream(seed: u64, lane: u64, a: u64, b: u64) -> SplitMix64 {
    let mut state = SplitMix64::new(seed ^ 0x6A09_E667_F3BC_C909).next_u64();
    for word in [lane, a, b] {
        state = SplitMix64::new(state ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    }
    SplitMix64::new(state)
}

/// Uniform in `[0, 1)` with 53 random bits.
fn next_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

const LANE_LATTICE: u64 = 1;
const LANE_TEXTURE: u64 = 2;
const LANE_DIRTY: u64 = 3;

/// What a state region is filled with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Texture {
    /// The harness's 6-of-7 run texture, seeded: six of every seven bytes repeat a
    /// per-fill constant and the seventh is position noise, so LZ wins a lot but
    /// not everything.
    Compressible,
    /// Seeded high-entropy bytes: nothing to compress, nothing to deduplicate.
    HighEntropy,
}

/// The step's local state for `rank`: `elements` values in `[-1, 1)`.
pub fn lattice(seed: u64, rank: usize, elements: usize) -> Vec<f64> {
    let mut rng = stream(seed, LANE_LATTICE, rank as u64, 0);
    (0..elements)
        .map(|_| next_f64(&mut rng) * 2.0 - 1.0)
        .collect()
}

/// Overwrite `out` with the texture for fill number `fill` of `region` on `rank`.
/// Fill 0 is the initial content; round `r` of the lifecycle writes fill `r + 1`.
pub fn fill_texture(
    texture: Texture,
    seed: u64,
    rank: usize,
    region: usize,
    fill: u64,
    out: &mut [u8],
) {
    let lane = LANE_TEXTURE ^ ((rank as u64) << 32);
    let mut rng = stream(seed, lane, region as u64, fill);
    match texture {
        Texture::Compressible => {
            let constant = rng.next_u64() as u8;
            // Per-fill noise word: two fills never share a chunk by accident, so
            // every chunk-reuse the store reports comes from clean regions.
            let noise = rng.next_u64();
            for (i, byte) in out.iter_mut().enumerate() {
                *byte = if i % 7 == 0 {
                    (((i as u64).wrapping_mul(2_654_435_761) ^ noise) >> 5) as u8
                } else {
                    constant
                };
            }
        }
        Texture::HighEntropy => {
            let mut words = out.chunks_exact_mut(8);
            for word in &mut words {
                word.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            let rest = words.into_remainder();
            let last = rng.next_u64().to_le_bytes();
            rest.copy_from_slice(&last[..rest.len()]);
        }
    }
}

/// The `count` distinct regions (out of `regions`) that `rank` rewrites in `round`,
/// ascending. `count >= regions` dirties everything.
pub fn dirty_set(seed: u64, rank: usize, round: u64, regions: usize, count: usize) -> Vec<usize> {
    if count >= regions {
        return (0..regions).collect();
    }
    let mut rng = stream(seed, LANE_DIRTY, rank as u64, round);
    // Partial Fisher-Yates: the first `count` slots of a seeded shuffle.
    let mut order: Vec<usize> = (0..regions).collect();
    for i in 0..count {
        let j = i + rng.below((regions - i) as u64) as usize;
        order.swap(i, j);
    }
    order.truncate(count);
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(lattice(7, 1, 64), lattice(7, 1, 64));
        assert_ne!(lattice(7, 1, 64), lattice(8, 1, 64));
        assert_ne!(lattice(7, 1, 64), lattice(7, 0, 64));
        for texture in [Texture::Compressible, Texture::HighEntropy] {
            let fill = |seed, fill| {
                let mut out = vec![0u8; 4099];
                fill_texture(texture, seed, 0, 3, fill, &mut out);
                out
            };
            assert_eq!(fill(7, 1), fill(7, 1));
            assert_ne!(fill(7, 1), fill(8, 1));
            assert_ne!(fill(7, 1), fill(7, 2));
        }
        assert_eq!(dirty_set(7, 0, 5, 128, 8), dirty_set(7, 0, 5, 128, 8));
        assert_ne!(dirty_set(7, 0, 5, 128, 8), dirty_set(8, 0, 5, 128, 8));
    }

    #[test]
    fn dirty_sets_are_distinct_sorted_and_sized() {
        for round in 0..50 {
            let set = dirty_set(1, 0, round, 16, 2);
            assert_eq!(set.len(), 2);
            assert!(set[0] < set[1] && set[1] < 16);
        }
        assert_eq!(dirty_set(1, 0, 0, 4, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn compressible_texture_is_six_of_seven_runs() {
        let mut out = vec![0u8; 7000];
        fill_texture(Texture::Compressible, 1, 0, 0, 0, &mut out);
        let constant = out[1];
        let runs = out.iter().enumerate().filter(|(i, _)| i % 7 != 0);
        assert!(runs.clone().all(|(_, &b)| b == constant));
        assert_eq!(runs.count(), 6000);
    }
}
