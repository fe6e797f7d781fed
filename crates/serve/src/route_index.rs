//! An incrementally maintained tournament index over per-device
//! tentative-launch keys.
//!
//! The fleet event loop asks "which device owns the earliest launchable
//! batch?" before *every* route and commit. The straightforward answer
//! is a linear scan over all K devices, recomputing each device's best
//! lane from scratch — O(K · lanes) per event even though a single
//! event changes at most a handful of devices. This index caches each
//! device's best `(launch, network, tenant)` key and arranges the
//! winners in a complete binary tournament tree: a device whose state
//! changed is *marked* dirty, a refresh recomputes only dirty leaves
//! (O(log K) tree repair each), and the global winner is read off the
//! root in O(1).
//!
//! # Comparator = the scan's total order
//!
//! The linear scan the index replaces takes a device only on a strictly
//! smaller launch (`launch < best`), so ties go to the *lowest device
//! index*. The tree comparator is exactly that order — `(launch, d)`
//! with `f64` `==` launch ties broken by `d` — NOT `total_cmp`: IEEE
//! `==` treats `-0.0 == 0.0` as a tie (lowest device wins), which is
//! what the scan does, while `total_cmp` would order them and could
//! pick a different device. Equality of the comparator with the scan's
//! order is what makes the index swap report-byte-invisible; the
//! debug-build cross-check in `fleet::global_best` and the randomized
//! equivalence tests below pin it.
//!
//! The index does not know how keys are computed: `refresh` takes a
//! closure so the fleet can evaluate `device_best` against its own
//! state (and so this module is testable in isolation).

/// Sentinel for "no candidate" slots in the tree (empty leaves past K,
/// and subtrees with no launchable device).
const EMPTY: u32 = u32::MAX;

/// The tournament index. See the module docs for the maintenance
/// protocol: `mark` what changed, `refresh` before reading, `best` for
/// the winner.
pub(crate) struct RouteIndex {
    /// Cached per-device key: the device's earliest launchable
    /// `(launch, network, tenant)`, `None` when it has nothing
    /// launchable (blocked, idle, or halt-horizoned).
    cached: Vec<Option<(f64, usize, usize)>>,
    /// Devices whose cached key is stale.
    dirty: Vec<bool>,
    /// The stale devices, each listed once (drives the refresh).
    queue: Vec<usize>,
    /// Everything is stale (cheaper than K marks at drain flushes and
    /// phase-boundary delay changes).
    all_dirty: bool,
    /// Winner device per tree node; `tree[1]` is the root, leaf `d`
    /// lives at `base + d`.
    tree: Vec<u32>,
    base: usize,
    k: usize,
}

impl RouteIndex {
    /// An index over `k` devices with every key stale (the first
    /// `refresh` computes them all).
    pub(crate) fn new(k: usize) -> RouteIndex {
        let base = k.next_power_of_two().max(1);
        RouteIndex {
            cached: vec![None; k],
            dirty: vec![false; k],
            queue: Vec::with_capacity(k),
            all_dirty: true,
            tree: vec![EMPTY; 2 * base],
            base,
            k,
        }
    }

    /// Mark device `d`'s cached key stale (its queue, clock, health, or
    /// degradation state changed since the last refresh).
    pub(crate) fn mark(&mut self, d: usize) {
        if !self.all_dirty && !self.dirty[d] {
            self.dirty[d] = true;
            self.queue.push(d);
        }
    }

    /// Mark every device stale (delay changes, drain
    /// flushes — anything that may have moved state fleet-wide).
    pub(crate) fn mark_all(&mut self) {
        self.all_dirty = true;
        for f in &mut self.dirty {
            *f = false;
        }
        self.queue.clear();
    }

    /// Recompute every stale key via `key_of` and repair the tree.
    /// O(K) after `mark_all`, O(dirty · log K) otherwise.
    pub(crate) fn refresh<F>(&mut self, mut key_of: F)
    where
        F: FnMut(usize) -> Option<(f64, usize, usize)>,
    {
        if self.all_dirty {
            for d in 0..self.k {
                self.cached[d] = key_of(d);
                self.tree[self.base + d] = if self.cached[d].is_some() { d as u32 } else { EMPTY };
            }
            for v in (1..self.base).rev() {
                self.tree[v] = self.winner(self.tree[2 * v], self.tree[2 * v + 1]);
            }
            self.all_dirty = false;
            return;
        }
        while let Some(d) = self.queue.pop() {
            self.dirty[d] = false;
            self.cached[d] = key_of(d);
            let mut v = self.base + d;
            self.tree[v] = if self.cached[d].is_some() { d as u32 } else { EMPTY };
            v /= 2;
            // Repair all the way to the root: an unchanged winner can
            // still carry a changed key upward (the winning device
            // itself was the one refreshed), so no early exit.
            while v >= 1 {
                self.tree[v] = self.winner(self.tree[2 * v], self.tree[2 * v + 1]);
                v /= 2;
            }
        }
    }

    /// The fleet-wide earliest launchable batch, `(launch, d, n, t)` —
    /// the exact selection the linear device-major scan makes. Panics
    /// in debug builds if called with stale keys.
    pub(crate) fn best(&self) -> Option<(f64, usize, usize, usize)> {
        debug_assert!(
            !self.all_dirty && self.queue.is_empty(),
            "RouteIndex::best called before refresh"
        );
        let d = self.tree[1];
        if d == EMPTY {
            return None;
        }
        let (launch, n, t) = self.cached[d as usize].expect("tree winner has a key");
        Some((launch, d as usize, n, t))
    }

    /// Tournament comparator: lower `(launch, device)` wins, with IEEE
    /// `==` launch ties going to the lower device index — the linear
    /// scan's strict-`<` first-wins order (see module docs).
    fn winner(&self, a: u32, b: u32) -> u32 {
        let key = |x: u32| {
            if x == EMPTY {
                None
            } else {
                self.cached[x as usize].map(|(l, _, _)| l)
            }
        };
        match (key(a), key(b)) {
            (None, _) => b,
            (Some(_), None) => a,
            (Some(la), Some(lb)) => {
                if la < lb || (la == lb && a < b) {
                    a
                } else {
                    b
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained reference: the linear strict-`<` scan over the same
    /// keys.
    fn linear_best(keys: &[Option<(f64, usize, usize)>]) -> Option<(f64, usize, usize, usize)> {
        let mut best: Option<(f64, usize, usize, usize)> = None;
        for (d, key) in keys.iter().enumerate() {
            if let Some((launch, n, t)) = *key {
                if best.is_none_or(|(bl, _, _, _)| launch < bl) {
                    best = Some((launch, d, n, t));
                }
            }
        }
        best
    }

    /// Deterministic xorshift so the property test needs no rand dep.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn launch(&mut self) -> f64 {
            // A coarse grid so exact launch ties actually happen, plus
            // signed zeros to pin the IEEE `==` tie behaviour.
            match self.next() % 8 {
                0 => 0.0,
                1 => -0.0,
                r => (r % 5) as f64 * 0.25,
            }
        }
    }

    #[test]
    fn randomized_states_match_the_linear_scan() {
        // Property test (issue satellite): across fleet sizes, randomized
        // per-device keys, and randomized incremental updates, the index
        // picks exactly the linear scan's (device, network, tenant).
        for k in [1usize, 2, 3, 5, 8, 13, 64] {
            let mut rng = Rng(0x9E3779B97F4A7C15 ^ (k as u64) << 32 | 1);
            let mut keys: Vec<Option<(f64, usize, usize)>> = vec![None; k];
            let mut idx = RouteIndex::new(k);
            for round in 0..200 {
                // Mutate a random subset (sometimes everything).
                if round % 17 == 0 {
                    for key in keys.iter_mut() {
                        *key = (!rng.next().is_multiple_of(4)).then(|| {
                            (rng.launch(), (rng.next() % 3) as usize, (rng.next() % 2) as usize)
                        });
                    }
                    idx.mark_all();
                } else {
                    for _ in 0..(rng.next() % 4 + 1) {
                        let d = (rng.next() as usize) % k;
                        keys[d] = (!rng.next().is_multiple_of(4)).then(|| {
                            (rng.launch(), (rng.next() % 3) as usize, (rng.next() % 2) as usize)
                        });
                        idx.mark(d);
                    }
                }
                idx.refresh(|d| keys[d]);
                assert_eq!(idx.best(), linear_best(&keys), "k={k} round={round}");
            }
        }
    }

    #[test]
    fn exact_ties_go_to_the_lowest_device_index() {
        let mut idx = RouteIndex::new(4);
        let keys = [Some((1.5, 0, 0)), Some((1.5, 1, 0)), Some((0.5, 2, 0)), Some((0.5, 3, 0))];
        idx.refresh(|d| keys[d]);
        assert_eq!(idx.best(), Some((0.5, 2, 2, 0)), "tie between devices 2 and 3 picks 2");
        // Signed zero is an IEEE tie, not an ordered pair: -0.0 on a
        // higher device must NOT beat +0.0 on a lower one.
        let zeros = [Some((0.0, 7, 0)), Some((-0.0, 9, 0)), None, None];
        let mut idx = RouteIndex::new(4);
        idx.refresh(|d| zeros[d]);
        let best = idx.best();
        assert_eq!(best, linear_best(&zeros));
        assert_eq!(best.map(|(_, d, _, _)| d), Some(0));
    }

    #[test]
    fn marks_refresh_only_what_changed() {
        let mut calls: Vec<usize> = Vec::new();
        let mut idx = RouteIndex::new(8);
        idx.refresh(|d| {
            calls.push(d);
            Some((d as f64, 0, 0))
        });
        assert_eq!(calls.len(), 8, "initial refresh computes every key");
        calls.clear();
        idx.mark(3);
        idx.mark(3); // duplicate marks collapse
        idx.mark(6);
        idx.refresh(|d| {
            calls.push(d);
            Some(if d == 3 { (-1.0, 1, 0) } else { (d as f64, 0, 0) })
        });
        calls.sort_unstable();
        assert_eq!(calls, vec![3, 6], "only dirty leaves recompute");
        assert_eq!(idx.best(), Some((-1.0, 3, 1, 0)));
        // An empty refresh is free and the root stays valid.
        idx.refresh(|_| unreachable!("nothing is dirty"));
        assert_eq!(idx.best(), Some((-1.0, 3, 1, 0)));
    }
}
