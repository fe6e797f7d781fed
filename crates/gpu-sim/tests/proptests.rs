//! Property-based tests for the simulator's building blocks.

use memcnn_gpusim::cache::Cache;
use memcnn_gpusim::coalesce;
use memcnn_gpusim::device::{BankMode, DeviceConfig};
use memcnn_gpusim::occupancy::occupancy;
use memcnn_gpusim::{banks, BlockTrace, LaunchConfig};
use proptest::prelude::*;

/// The original per-lane coalescer: every lane's sectors, deduplicated by
/// a scan of everything found so far. Kept here as the oracle of the
/// single-pass one.
fn coalesce_oracle(addrs: &[u64], bytes_per_lane: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for &a in addrs {
        for s in a / 32..=(a + bytes_per_lane - 1) / 32 {
            if !out.contains(&s) {
                out.push(s);
            }
        }
    }
    out
}

/// The original bank-conflict model, one `Vec` per bank per lane group.
/// Kept here as the oracle of the allocation-free one.
fn passes_oracle(byte_addrs: &[u64], bytes_per_lane: u64, mode: BankMode, banks: u32) -> u32 {
    if byte_addrs.is_empty() {
        return 0;
    }
    let bank_bytes = mode.bytes();
    let banks = banks as u64;
    let group_lanes = ((banks * bank_bytes) / bytes_per_lane.max(1)).max(1) as usize;
    let words_per_lane = bytes_per_lane.div_ceil(bank_bytes);
    let mut total = 0u32;
    for group in byte_addrs.chunks(group_lanes) {
        let mut per_bank_words: Vec<Vec<u64>> = vec![Vec::new(); banks as usize];
        for &a in group {
            for k in 0..words_per_lane {
                let word = a / bank_bytes + k;
                let bank = (word % banks) as usize;
                if !per_bank_words[bank].contains(&word) {
                    per_bank_words[bank].push(word);
                }
            }
        }
        let worst = per_bank_words.iter().map(|w| w.len()).max().unwrap_or(0);
        total += worst.max(1) as u32;
    }
    total
}

/// The original L2 model: unordered ways with an LRU age per way. Kept
/// here as the oracle of the recency-ordered one.
struct CacheOracle {
    sets: usize,
    assoc: usize,
    tags: Vec<u64>,
    ages: Vec<u64>,
    tick: u64,
}

impl CacheOracle {
    fn new(size_bytes: u64, assoc: u32, sector_bytes: u64) -> CacheOracle {
        let sectors = (size_bytes / sector_bytes).max(1) as usize;
        let assoc = (assoc as usize).clamp(1, sectors);
        let sets = (sectors / assoc).max(1);
        CacheOracle {
            sets,
            assoc,
            tags: vec![u64::MAX; sets * assoc],
            ages: vec![0; sets * assoc],
            tick: 0,
        }
    }

    fn access(&mut self, sector: u64) -> bool {
        self.tick += 1;
        let base = (sector as usize % self.sets) * self.assoc;
        if let Some(way) = self.tags[base..base + self.assoc].iter().position(|&t| t == sector) {
            self.ages[base + way] = self.tick;
            return true;
        }
        let (mut victim, mut oldest) = (0, u64::MAX);
        for w in 0..self.assoc {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.ages[base + w] < oldest {
                oldest = self.ages[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = sector;
        self.ages[base + victim] = self.tick;
        false
    }
}

/// A warp access of ascending runs and the per-lane addresses it stands
/// for. `parts` holds `(lanes, delta)` pairs: each run starts `delta`
/// bytes after the previous run's end, but never below the sector that
/// end fell in (so runs may share a sector, or even bytes of it).
fn runs_of(base: u64, width: u64, parts: &[(usize, i64)]) -> (Vec<(u64, usize)>, Vec<u64>) {
    let (mut runs, mut addrs) = (Vec::new(), Vec::new());
    let mut next = base;
    let mut lanes_left = 32;
    for &(lanes, delta) in parts {
        let lanes = lanes.min(lanes_left);
        lanes_left -= lanes;
        let start = match runs.last() {
            None => next,
            Some(_) => {
                let floor = (next - 1) / 32 * 32;
                next.checked_add_signed(delta).unwrap_or(floor).max(floor)
            }
        };
        runs.push((start, lanes));
        addrs.extend((0..lanes as u64).map(|i| start + i * width));
        if lanes > 0 {
            next = start + lanes as u64 * width;
        }
    }
    (runs, addrs)
}

fn lane_addrs() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..100_000, 1..=32)
}

proptest! {
    /// A warp access touches at least one sector and no more than
    /// lanes x spanned sectors; transaction count is invariant under
    /// address-order permutation.
    #[test]
    fn coalescer_bounds_and_order_invariance(addrs in lane_addrs(), width in 1u64..=16) {
        let n = coalesce::transaction_count(&addrs, width);
        prop_assert!(n >= 1);
        let max_per_lane = (width as usize).div_ceil(32) + 1;
        prop_assert!(n <= addrs.len() * max_per_lane);
        let mut rev = addrs.clone();
        rev.reverse();
        prop_assert_eq!(coalesce::transaction_count(&rev, width), n);
    }

    /// Coalescing efficiency never exceeds 1 for aligned pow2 widths and
    /// duplicates never increase the transaction count.
    #[test]
    fn coalescer_efficiency_bounds(addrs in lane_addrs()) {
        let eff = coalesce::efficiency(&addrs, 4);
        prop_assert!(eff > 0.0 && eff <= 1.0 + 1e-9);
        let mut dup = addrs.clone();
        dup.extend(addrs.iter().copied().take(32 - addrs.len().min(31)));
        let a = coalesce::transaction_count(&addrs, 4);
        let b = coalesce::transaction_count(&dup[..addrs.len()], 4);
        prop_assert_eq!(a, b);
    }

    /// Bank conflict passes are within [ceil(width/bank), 32 x phases] and
    /// broadcast (all equal) is always minimal.
    #[test]
    fn bank_passes_bounds(addrs in lane_addrs(), wide in prop::bool::ANY) {
        let width = if wide { 8 } else { 4 };
        for mode in [BankMode::FourByte, BankMode::EightByte] {
            let p = banks::passes(&addrs, width, mode, 32);
            prop_assert!(p >= 1, "passes {p} below min");
            prop_assert!(p <= 64, "passes {p} above max");
        }
        let broadcast = vec![addrs[0]; addrs.len()];
        let pb = banks::passes(&broadcast, 4, BankMode::FourByte, 32);
        prop_assert!(pb <= banks::passes(&addrs, 4, BankMode::FourByte, 32).max(1));
    }

    /// Cache sanity: hits + misses == accesses; a repeated single-sector
    /// stream has exactly one miss; hit rate is within [0, 1].
    #[test]
    fn cache_accounting(sectors in proptest::collection::vec(0u64..512, 1..200)) {
        let mut c = Cache::new(16 * 1024, 8, 32);
        for &s in &sectors {
            c.access(s);
        }
        prop_assert_eq!(c.accesses(), sectors.len() as u64);
        prop_assert_eq!(c.hits() + c.misses(), c.accesses());
        let rate = c.hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
        // Unique sectors lower-bound the misses for an LRU cache larger
        // than the stream's footprint.
        let unique: std::collections::HashSet<_> = sectors.iter().collect();
        if unique.len() <= c.capacity_sectors() {
            prop_assert_eq!(c.misses(), unique.len() as u64);
        } else {
            prop_assert!(c.misses() >= unique.len() as u64);
        }
    }

    /// Occupancy is monotone: more registers or shared memory per block
    /// never increases resident blocks.
    #[test]
    fn occupancy_monotonicity(
        threads_pow in 5u32..=10,
        regs in 8u32..64,
        smem in 0u32..24_000,
    ) {
        let d = DeviceConfig::titan_black();
        let mk = |regs, smem| LaunchConfig {
            grid_blocks: 10_000,
            threads_per_block: 1 << threads_pow,
            regs_per_thread: regs,
            smem_per_block: smem,
            bank_mode: BankMode::FourByte,
        };
        let blocks = |l| occupancy(&d, &l).map(|o| o.blocks_per_sm).unwrap_or(0);
        let base = match occupancy(&d, &mk(regs, smem)) {
            Ok(o) => o,
            Err(_) => return Ok(()), // base config itself unlaunchable
        };
        prop_assert!(blocks(mk(regs * 2, smem)) <= base.blocks_per_sm);
        prop_assert!(blocks(mk(regs, smem + 8_192)) <= base.blocks_per_sm);
        // Residency never exceeds architectural caps.
        prop_assert!(base.warps_per_sm * d.warp_size <= d.max_threads_per_sm);
        prop_assert!(base.blocks_per_sm <= d.max_blocks_per_sm);
    }

    /// The single-pass coalescer equals the per-lane oracle, order
    /// included, on unsorted lanes, duplicate lanes (small address range)
    /// and lanes straddling sector boundaries (odd widths and offsets).
    #[test]
    fn coalescer_matches_the_per_lane_oracle(
        near in proptest::collection::vec(0u64..600, 0..=32),
        far in proptest::collection::vec(0u64..1 << 40, 0..=32),
        width in 1u64..=16,
        mix in 0usize..=32,
    ) {
        // A clustered and a scattered lane set, rotated together.
        let far = &far[..mix.min(far.len())];
        let mut addrs: Vec<u64> = near.iter().copied().take(32 - far.len()).collect();
        addrs.extend(far);
        let turn = mix % (addrs.len() + 1);
        addrs.rotate_left(turn);
        let mut got = Vec::new();
        coalesce::coalesce(&addrs, width, &mut got);
        prop_assert_eq!(got, coalesce_oracle(&addrs, width));
    }

    /// A run access records exactly the trace of the per-lane access on
    /// its materialized addresses: one run at an unaligned base with 0-32
    /// lanes and 1-16 bytes per lane, and several ascending runs that may
    /// share sectors.
    #[test]
    fn run_api_equals_the_per_lane_api(
        base in 1u64..100_000,
        width in 1u64..=16,
        lanes in 0usize..=32,
        parts in proptest::collection::vec((0usize..=12, -40i64..200), 1..=6),
        store in prop::bool::ANY,
    ) {
        for (runs, addrs) in [runs_of(base, width, &[(lanes, 0)]), runs_of(base, width, &parts)] {
            let mut per_lane = BlockTrace::new(BankMode::FourByte, 32);
            let mut by_runs = BlockTrace::new(BankMode::FourByte, 32);
            // A load before the access under test, so runs that start in
            // its sectors must not be deduplicated against it.
            per_lane.global_load(&[base], 4);
            by_runs.global_load(&[base], 4);
            if store {
                per_lane.global_store(&addrs, width);
                by_runs.global_store_runs(&runs, width);
            } else {
                per_lane.global_load(&addrs, width);
                by_runs.global_load_runs(&runs, width);
            }
            prop_assert_eq!(per_lane, by_runs);
        }
    }

    /// The allocation-free bank model equals the per-bank-`Vec` oracle,
    /// for both bank modes, any width, and bank counts on both sides of
    /// its on-stack limit.
    #[test]
    fn bank_passes_match_the_allocating_oracle(
        addrs in proptest::collection::vec(0u64..4096, 0..=32),
        width in 1u64..=16,
        banks in 1u32..=100,
        wide_banks in prop::bool::ANY,
    ) {
        let mode = if wide_banks { BankMode::EightByte } else { BankMode::FourByte };
        for n in [banks, 32] {
            prop_assert_eq!(
                banks::passes(&addrs, width, mode, n),
                passes_oracle(&addrs, width, mode, n)
            );
        }
    }

    /// The recency-ordered L2 model hits and misses exactly as the aged
    /// LRU oracle does, for any geometry.
    #[test]
    fn cache_matches_the_aged_lru_oracle(
        sectors in proptest::collection::vec(0u64..3000, 1..400),
        size_sectors in 1u64..300,
        assoc in 1u32..=20,
    ) {
        let mut c = Cache::new(size_sectors * 32, assoc, 32);
        let mut oracle = CacheOracle::new(size_sectors * 32, assoc, 32);
        for &s in &sectors {
            prop_assert_eq!(c.access(s), oracle.access(s), "sector {}", s);
        }
    }
}
