//! Shared-memory bank-conflict model.
//!
//! Shared memory is divided into 32 banks. A warp access completes in one
//! pass when every lane hits a different bank (or lanes share the exact
//! same word — broadcast); otherwise the access replays once per extra
//! distinct word mapped to the most-contended bank. Kepler's 8-byte bank
//! mode widens banks so `float2` accesses stop conflicting — the enabler
//! of the paper's vectorized transformation kernel (§IV.C, Fig 7b line
//! 16-24 and the Fig 11 `Transform-Opt2` bars).

use crate::device::BankMode;

/// Number of passes (1 = conflict-free) a warp shared-memory access takes.
///
/// `byte_addrs` are per-lane byte addresses into shared memory;
/// `bytes_per_lane` is the access width (4 for `float`, 8 for `float2`).
pub fn passes(byte_addrs: &[u64], bytes_per_lane: u64, mode: BankMode, banks: u32) -> u32 {
    if byte_addrs.is_empty() {
        return 0;
    }
    let bank_bytes = mode.bytes();
    let banks = banks as u64;
    // An access wider than a bank is split by the hardware into groups of
    // lanes whose combined width matches one bank sweep: float2 in 4-byte
    // mode is served half-warp at a time (two transactions), in 8-byte mode
    // whole-warp at once. Each group resolves bank conflicts independently
    // over every word its lanes touch.
    let group_lanes = ((banks * bank_bytes) / bytes_per_lane.max(1)).max(1) as usize;
    let words_per_lane = bytes_per_lane.div_ceil(bank_bytes);
    // Distinct words per bank, on the stack for any real device.
    let mut stack = [0u32; 64];
    let mut heap = Vec::new();
    let per_bank: &mut [u32] = if banks as usize <= stack.len() {
        &mut stack[..banks as usize]
    } else {
        heap.resize(banks as usize, 0);
        &mut heap
    };
    let mut total = 0u32;
    for group in byte_addrs.chunks(group_lanes) {
        per_bank.fill(0);
        // The words this group touches, in lane order; lanes touching the
        // same word broadcast, so each word counts once, at its first touch.
        let words =
            || group.iter().flat_map(|&a| (0..words_per_lane).map(move |k| a / bank_bytes + k));
        let mut worst = 0;
        for (i, word) in words().enumerate() {
            let bank = (word % banks) as usize;
            // A bank seen for the first time cannot hold a repeat; only a
            // contended bank looks back for the word.
            if per_bank[bank] > 0 && words().take(i).any(|w| w == word) {
                continue;
            }
            per_bank[bank] += 1;
            worst = worst.max(per_bank[bank]);
        }
        total += worst.max(1);
    }
    total
}

/// Bytes of shared-memory traffic a warp access generates (for throughput
/// accounting): requested bytes, independent of conflicts (conflicts cost
/// time via extra passes, not extra bytes).
pub fn bytes(byte_addrs: &[u64], bytes_per_lane: u64) -> u64 {
    byte_addrs.len() as u64 * bytes_per_lane
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(stride: u64, lanes: usize) -> Vec<u64> {
        (0..lanes as u64).map(|i| i * stride).collect()
    }

    #[test]
    fn unit_stride_floats_are_conflict_free() {
        assert_eq!(passes(&addrs(4, 32), 4, BankMode::FourByte, 32), 1);
    }

    #[test]
    fn stride_32_floats_serialize_fully() {
        // Classic column access of a 32-wide float tile: all lanes in bank 0.
        assert_eq!(passes(&addrs(128, 32), 4, BankMode::FourByte, 32), 32);
    }

    #[test]
    fn padded_tile_column_access_is_conflict_free() {
        // 33-wide padding (Fig 7b line 7: `sh[C][33]`) shifts each row by
        // one bank.
        assert_eq!(passes(&addrs(132, 32), 4, BankMode::FourByte, 32), 1);
    }

    #[test]
    fn broadcast_is_free() {
        assert_eq!(passes(&vec![0u64; 32], 4, BankMode::FourByte, 32), 1);
    }

    #[test]
    fn float2_in_4byte_mode_takes_two_passes() {
        assert_eq!(passes(&addrs(8, 32), 8, BankMode::FourByte, 32), 2);
    }

    #[test]
    fn float2_in_8byte_mode_takes_one_pass() {
        assert_eq!(passes(&addrs(8, 32), 8, BankMode::EightByte, 32), 1);
    }

    #[test]
    fn two_way_conflict_doubles_passes() {
        // Stride of 2 floats: lanes 0 and 16 share bank 0, etc.
        assert_eq!(passes(&addrs(8, 32), 4, BankMode::FourByte, 32), 2);
    }

    #[test]
    fn empty_access_is_zero_passes() {
        assert_eq!(passes(&[], 4, BankMode::FourByte, 32), 0);
    }

    #[test]
    fn bytes_counts_requested_traffic() {
        assert_eq!(bytes(&addrs(4, 32), 4), 128);
        assert_eq!(bytes(&addrs(8, 16), 8), 128);
    }
}
