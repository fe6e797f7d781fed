//! Kernel specifications: how kernels describe themselves to the simulator.
//!
//! A [`KernelSpec`] plays the role of compiled CUDA kernel + launch call: it
//! declares a launch configuration, summary bounds, and — the heart of the
//! substitution — can *replay the memory behaviour of any thread block* into
//! a [`BlockTrace`]. The simulator samples blocks, coalesces their warp
//! accesses, runs the sector stream through the L2 model, and scores the
//! launch (see [`crate::launch::simulate`]).

use crate::banks;
use crate::coalesce;
use crate::device::BankMode;

/// Launch configuration of a kernel (grid and per-block resources).
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Total thread blocks in the grid (flattened).
    pub grid_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Registers per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Static shared memory per block, bytes.
    pub smem_per_block: u32,
    /// Shared-memory bank mode requested by the kernel.
    pub bank_mode: BankMode,
}

/// Analytic bounds a kernel knows about itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkSummary {
    /// Compulsory DRAM read traffic: the unique bytes the kernel must load
    /// at least once. Used as a floor under the sampled-L2 estimate.
    pub min_dram_load_bytes: f64,
    /// Compulsory DRAM write traffic.
    pub min_dram_store_bytes: f64,
    /// Device-memory footprint of all buffers (OOM checks).
    pub footprint_bytes: u64,
    /// Instruction-level parallelism hint: independent in-flight operations
    /// per thread (e.g. `imgsPerThread x filtersPerThread` register tiles in
    /// cuda-convnet's direct convolution). Feeds the ALU-efficiency and
    /// latency-hiding terms.
    pub ilp: f64,
    /// Sustained-fraction-of-peak ceiling for the FP pipeline (1.0 = no
    /// cap). Encodes measured per-kernel-family code-generation quality
    /// that the occupancy model cannot see — e.g. cuDNN v4's
    /// matrix-multiply convolution sustained ~28-30% of Kepler's FMA peak
    /// (the paper's Fig 4 plateau), far below what a perfectly scheduled
    /// inner loop would reach.
    pub alu_cap: f64,
}

impl WorkSummary {
    /// A summary with the given floors, ILP 1.0 and no ALU cap.
    pub fn new(min_load: f64, min_store: f64, footprint: u64) -> WorkSummary {
        WorkSummary {
            min_dram_load_bytes: min_load,
            min_dram_store_bytes: min_store,
            footprint_bytes: footprint,
            ilp: 1.0,
            alu_cap: 1.0,
        }
    }

    /// Builder-style ILP override.
    pub fn with_ilp(mut self, ilp: f64) -> WorkSummary {
        self.ilp = ilp;
        self
    }

    /// Builder-style ALU sustained-fraction cap.
    pub fn with_alu_cap(mut self, cap: f64) -> WorkSummary {
        self.alu_cap = cap;
        self
    }
}

/// A GPU kernel, described behaviourally.
pub trait KernelSpec: Sync {
    /// Kernel name for reports.
    fn name(&self) -> String;
    /// Launch configuration.
    fn launch(&self) -> LaunchConfig;
    /// Analytic bounds.
    fn work(&self) -> WorkSummary;
    /// Replay the memory/compute behaviour of `block` (0-based flat id)
    /// into `trace`. Must be deterministic.
    fn trace_block(&self, block: u64, trace: &mut BlockTrace);
    /// Canonical identity of this kernel for simulation memoization: two
    /// specs with equal keys must trace identically on every block.
    ///
    /// `None` (the default) opts the kernel out of the cache — the safe
    /// choice for specs whose trace depends on state their key cannot see.
    /// Specs that are pure functions of their fields (every spec in
    /// `memcnn-kernels` is) should return
    /// [`derived_cache_key`](crate::simcache::derived_cache_key)`(self)`,
    /// which needs only `#[derive(Debug)]`.
    fn cache_key(&self) -> Option<String> {
        None
    }
}

/// Per-block trace accumulator handed to [`KernelSpec::trace_block`].
///
/// Global accesses are coalesced *as they are recorded* into 32 B sectors;
/// the resulting sector stream is kept (in order) for the L2 model, while
/// shared-memory accesses are folded immediately into pass counts under the
/// launch's bank mode.
///
/// A warp access can be recorded two ways. [`global_load`](Self::global_load)
/// and [`global_store`](Self::global_store) take one address per lane and
/// coalesce them in general. When the lanes read consecutive elements — one
/// contiguous run, or several runs in ascending address order such as a
/// GEMM tile warp that wraps onto the next row —
/// [`global_load_runs`](Self::global_load_runs) and
/// [`global_store_runs`](Self::global_store_runs) emit the sector range of
/// each run directly. Both record exactly the same trace; debug builds
/// check every run call against the per-lane path.
#[derive(Debug, PartialEq)]
pub struct BlockTrace {
    bank_mode: BankMode,
    banks: u32,
    /// Ordered sector stream for the cache model, one entry per sector
    /// transaction: `sector << 1 | is_store`.
    pub(crate) sectors: Vec<u64>,
    /// Warp-level global memory instructions issued.
    pub(crate) mem_instrs: u64,
    /// Global sectors from loads.
    pub(crate) load_sectors: u64,
    /// Global sectors from stores.
    pub(crate) store_sectors: u64,
    /// Bytes the lanes actually requested (loads).
    pub(crate) requested_load_bytes: u64,
    /// Bytes the lanes actually requested (stores).
    pub(crate) requested_store_bytes: u64,
    /// Shared-memory passes (bank-conflict adjusted cycles).
    pub(crate) smem_passes: u64,
    /// Shared-memory bytes requested.
    pub(crate) smem_bytes: u64,
    /// Floating-point operations executed by the block.
    pub(crate) flops: u64,
    /// Non-memory, non-FP warp instructions (index math, control).
    pub(crate) aux_warp_instrs: u64,
    /// `__syncthreads()` count.
    pub(crate) syncs: u64,
}

/// Pack a sector and its direction into one sector-stream entry.
#[inline]
fn packed(sector: u64, store: bool) -> u64 {
    sector << 1 | store as u64
}

impl BlockTrace {
    /// New empty trace under a bank mode.
    pub fn new(bank_mode: BankMode, banks: u32) -> BlockTrace {
        BlockTrace {
            bank_mode,
            banks,
            sectors: Vec::new(),
            mem_instrs: 0,
            load_sectors: 0,
            store_sectors: 0,
            requested_load_bytes: 0,
            requested_store_bytes: 0,
            smem_passes: 0,
            smem_bytes: 0,
            flops: 0,
            aux_warp_instrs: 0,
            syncs: 0,
        }
    }

    /// Count one warp instruction whose sectors were appended to the
    /// stream from index `start` on.
    fn count(&mut self, start: usize, lanes: u64, bytes_per_lane: u64, store: bool) {
        self.mem_instrs += 1;
        let n = (self.sectors.len() - start) as u64;
        if store {
            self.store_sectors += n;
            self.requested_store_bytes += lanes * bytes_per_lane;
        } else {
            self.load_sectors += n;
            self.requested_load_bytes += lanes * bytes_per_lane;
        }
    }

    fn global(&mut self, addrs: &[u64], bytes_per_lane: u64, store: bool) {
        if addrs.is_empty() {
            return;
        }
        debug_assert!(addrs.len() <= 32, "a warp access has at most 32 lanes");
        let start = self.sectors.len();
        coalesce::append_coalesced(addrs, bytes_per_lane, |s| packed(s, store), &mut self.sectors);
        self.count(start, addrs.len() as u64, bytes_per_lane, store);
    }

    fn global_runs(&mut self, runs: &[(u64, usize)], bytes_per_lane: u64, store: bool) {
        let lanes: usize = runs.iter().map(|&(_, n)| n).sum();
        if lanes == 0 {
            return;
        }
        debug_assert!(lanes <= 32, "a warp access has at most 32 lanes");
        let start = self.sectors.len();
        for &(base, n) in runs.iter().filter(|&&(_, n)| n > 0) {
            let first = packed(coalesce::sector_of(base), store);
            let last = packed(coalesce::sector_of(base + n as u64 * bytes_per_lane - 1), store);
            // Runs ascend, so a run can only share its first sector with
            // the last one the previous run touched.
            let from = match self.sectors[start..].last() {
                Some(&prev) => {
                    debug_assert!(prev <= first, "runs must ascend through memory");
                    first.max(prev + 2)
                }
                None => first,
            };
            let mut e = from;
            while e <= last {
                self.sectors.push(e);
                e += 2;
            }
        }
        #[cfg(debug_assertions)]
        {
            let addrs: Vec<u64> = runs
                .iter()
                .flat_map(|&(base, n)| (0..n as u64).map(move |i| base + i * bytes_per_lane))
                .collect();
            let mut per_lane = Vec::new();
            coalesce::append_coalesced(&addrs, bytes_per_lane, |s| packed(s, store), &mut per_lane);
            assert_eq!(self.sectors[start..], per_lane[..], "run access differs from its lanes");
        }
        self.count(start, lanes as u64, bytes_per_lane, store);
    }

    /// One warp global load of `bytes_per_lane` bytes per lane.
    pub fn global_load(&mut self, addrs: &[u64], bytes_per_lane: u64) {
        self.global(addrs, bytes_per_lane, false);
    }

    /// One warp global store of `bytes_per_lane` bytes per lane.
    pub fn global_store(&mut self, addrs: &[u64], bytes_per_lane: u64) {
        self.global(addrs, bytes_per_lane, true);
    }

    /// One warp global load whose lanes read consecutive elements: each
    /// `(base, lanes)` run covers lanes reading `bytes_per_lane` bytes at
    /// `base`, `base + bytes_per_lane`, ... in lane order, and every run
    /// starts at or after the sector the previous run ended in. Records
    /// the same trace as [`global_load`](Self::global_load) on those
    /// addresses.
    pub fn global_load_runs(&mut self, runs: &[(u64, usize)], bytes_per_lane: u64) {
        self.global_runs(runs, bytes_per_lane, false);
    }

    /// The store counterpart of [`global_load_runs`](Self::global_load_runs).
    pub fn global_store_runs(&mut self, runs: &[(u64, usize)], bytes_per_lane: u64) {
        self.global_runs(runs, bytes_per_lane, true);
    }

    /// One warp shared-memory access (load or store — the bank model does
    /// not distinguish).
    pub fn shared(&mut self, byte_addrs: &[u64], bytes_per_lane: u64) {
        if byte_addrs.is_empty() {
            return;
        }
        self.smem_passes +=
            banks::passes(byte_addrs, bytes_per_lane, self.bank_mode, self.banks) as u64;
        self.smem_bytes += banks::bytes(byte_addrs, bytes_per_lane);
    }

    /// A warp shared-memory access pattern repeated `times` times (e.g. the
    /// identical register-tile reads of every GEMM k-step). Pass counts are
    /// computed once and multiplied, keeping traces compact.
    pub fn shared_repeat(&mut self, byte_addrs: &[u64], bytes_per_lane: u64, times: u64) {
        if byte_addrs.is_empty() || times == 0 {
            return;
        }
        let passes = banks::passes(byte_addrs, bytes_per_lane, self.bank_mode, self.banks) as u64;
        self.smem_passes += passes * times;
        self.smem_bytes += banks::bytes(byte_addrs, bytes_per_lane) * times;
    }

    /// Record `n` floating-point operations (FMA = 2).
    pub fn flops(&mut self, n: u64) {
        self.flops += n;
    }

    /// Record `n` auxiliary warp instructions (addressing, loop control).
    pub fn aux(&mut self, n: u64) {
        self.aux_warp_instrs += n;
    }

    /// Record a block-wide barrier.
    pub fn sync(&mut self) {
        self.syncs += 1;
    }

    /// Total global sectors recorded.
    pub fn total_sectors(&self) -> u64 {
        self.load_sectors + self.store_sectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accumulates_coalesced_sectors() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        t.global_load(&addrs, 4);
        assert_eq!(t.load_sectors, 4);
        assert_eq!(t.mem_instrs, 1);
        assert_eq!(t.requested_load_bytes, 128);
        assert_eq!(t.sectors.len(), 4);
        assert!(t.sectors.iter().all(|&e| e & 1 == 0), "loads carry a clear store flag");
        t.global_store(&addrs, 4);
        assert_eq!(t.sectors.len(), 8);
        assert!(t.sectors[4..].iter().all(|&e| e & 1 == 1), "stores carry a set store flag");
        let sectors: Vec<u64> = t.sectors.iter().map(|&e| e >> 1).collect();
        assert_eq!(sectors, [0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn runs_record_the_per_lane_trace() {
        // A GEMM A-tile warp: 16 floats of one row, then 16 of the next
        // row 40 floats on, unaligned.
        let (row0, row1) = (1000 + 8, 1000 + 8 + 40 * 4);
        let mut per_lane = BlockTrace::new(BankMode::FourByte, 32);
        let addrs: Vec<u64> =
            (0..16u64).map(|i| row0 + i * 4).chain((0..16u64).map(|i| row1 + i * 4)).collect();
        per_lane.global_load(&addrs, 4);
        let mut runs = BlockTrace::new(BankMode::FourByte, 32);
        runs.global_load_runs(&[(row0, 16), (row1, 16)], 4);
        assert_eq!(runs, per_lane);
        assert_eq!(runs.load_sectors, 6);
        // Back-to-back rows share the sector at the seam, once.
        let mut seam = BlockTrace::new(BankMode::FourByte, 32);
        seam.global_store_runs(&[(0, 9), (36, 9)], 4);
        assert_eq!(seam.sectors, [1, 3, 5]);
        // A run of no lanes, like an empty lane list, records nothing.
        let mut empty = BlockTrace::new(BankMode::FourByte, 32);
        empty.global_load_runs(&[(64, 0)], 4);
        assert_eq!(empty, BlockTrace::new(BankMode::FourByte, 32));
    }

    #[test]
    fn strided_store_overfetches() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 256).collect();
        t.global_store(&addrs, 4);
        assert_eq!(t.store_sectors, 32);
        assert_eq!(t.requested_store_bytes, 128);
    }

    #[test]
    fn shared_access_counts_passes() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        let conflict_free: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        let fully_conflicted: Vec<u64> = (0..32u64).map(|i| i * 128).collect();
        t.shared(&conflict_free, 4);
        t.shared(&fully_conflicted, 4);
        assert_eq!(t.smem_passes, 1 + 32);
        assert_eq!(t.smem_bytes, 256);
    }

    #[test]
    fn float2_shared_in_8byte_mode_single_pass() {
        let mut t = BlockTrace::new(BankMode::EightByte, 32);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 8).collect();
        t.shared(&addrs, 8);
        assert_eq!(t.smem_passes, 1);
    }

    #[test]
    fn counters_start_zero_and_accumulate() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        assert_eq!(t.total_sectors(), 0);
        t.flops(100);
        t.aux(7);
        t.sync();
        assert_eq!(t.flops, 100);
        assert_eq!(t.aux_warp_instrs, 7);
        assert_eq!(t.syncs, 1);
    }

    #[test]
    #[should_panic(expected = "at most 32 lanes")]
    #[cfg(debug_assertions)]
    fn oversized_warp_panics_in_debug() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        let addrs: Vec<u64> = (0..33u64).collect();
        t.global_load(&addrs, 4);
    }
}
