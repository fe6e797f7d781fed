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
//!
//! The tree ([`Tournament`]) and the mark set ([`Marks`]) are generic:
//! the placement index (`placement::PlacementIndex`) keeps QueueWeighted's
//! order in the same structures, and the fleet's batch compile walks
//! this index's tree ([`RouteIndex::walk_before`]) to visit only the
//! devices due before the next arrival.

/// Sentinel for "no candidate" slots in the tree (empty leaves past K,
/// and subtrees with no competing device).
const EMPTY: u32 = u32::MAX;

/// A complete binary tournament tree over `k` device slots: leaf `d`
/// lives at `base + d`, and every node holds the winner of its subtree
/// (or [`EMPTY`]). The comparator is passed per call as
/// `beats(right, left)`: whether the right subtree's winner strictly
/// beats the left one's. Leaves sit in index order, so a tie keeps the
/// left winner — the lower device index — which is the first-wins rule
/// of every linear scan this tree replaces.
pub(crate) struct Tournament {
    tree: Vec<u32>,
    base: usize,
}

impl Tournament {
    /// An empty tree over `k` slots.
    pub(crate) fn new(k: usize) -> Tournament {
        let base = k.next_power_of_two().max(1);
        Tournament { tree: vec![EMPTY; 2 * base], base }
    }

    fn winner<B: Fn(usize, usize) -> bool>(&self, left: u32, right: u32, beats: &B) -> u32 {
        if left == EMPTY || (right != EMPTY && beats(right as usize, left as usize)) {
            right
        } else {
            left
        }
    }

    /// Refill every leaf `d < k` from `present(d)` and rebuild all nodes.
    pub(crate) fn rebuild<P, B>(&mut self, k: usize, present: P, beats: B)
    where
        P: Fn(usize) -> bool,
        B: Fn(usize, usize) -> bool,
    {
        for d in 0..k {
            self.tree[self.base + d] = if present(d) { d as u32 } else { EMPTY };
        }
        for v in (1..self.base).rev() {
            self.tree[v] = self.winner(self.tree[2 * v], self.tree[2 * v + 1], &beats);
        }
    }

    /// Set leaf `d` (competing or not) and repair its path to the root.
    /// The whole path is replayed: an unchanged winner can still carry a
    /// changed key (the device refreshed may itself be the winner).
    pub(crate) fn update<B: Fn(usize, usize) -> bool>(
        &mut self,
        d: usize,
        present: bool,
        beats: B,
    ) {
        let mut v = self.base + d;
        self.tree[v] = if present { d as u32 } else { EMPTY };
        v /= 2;
        while v >= 1 {
            self.tree[v] = self.winner(self.tree[2 * v], self.tree[2 * v + 1], &beats);
            v /= 2;
        }
    }

    /// The overall winner.
    pub(crate) fn root(&self) -> Option<usize> {
        (self.tree[1] != EMPTY).then_some(self.tree[1] as usize)
    }

    /// The lowest-index leaf satisfying `holds`, by one left-first
    /// descent. `holds` must be decided by subtree winners: a subtree
    /// contains a satisfying leaf exactly when its winner satisfies it.
    pub(crate) fn leftmost<H: Fn(usize) -> bool>(&self, holds: H) -> Option<usize> {
        let sat = |v: usize| self.tree[v] != EMPTY && holds(self.tree[v] as usize);
        if !sat(1) {
            return None;
        }
        let mut v = 1;
        while v < self.base {
            v = if sat(2 * v) { 2 * v } else { 2 * v + 1 };
        }
        Some(self.tree[v] as usize)
    }

    /// Append to `out`, in ascending order, every leaf reached by
    /// descending only into subtrees whose winner satisfies `holds`.
    /// With a `holds` decided by subtree winners, that is every
    /// satisfying leaf.
    pub(crate) fn walk<H: Fn(usize) -> bool>(&self, holds: H, out: &mut Vec<usize>) {
        self.walk_from(1, &holds, out);
    }

    fn walk_from<H: Fn(usize) -> bool>(&self, v: usize, holds: &H, out: &mut Vec<usize>) {
        let w = self.tree[v];
        if w == EMPTY || !holds(w as usize) {
            return;
        }
        if v >= self.base {
            out.push(w as usize);
        } else {
            self.walk_from(2 * v, holds, out);
            self.walk_from(2 * v + 1, holds, out);
        }
    }
}

/// Which devices' cached keys are stale: each listed once, or all of
/// them at once (cheaper than K marks at fleet-wide changes).
pub(crate) struct Marks {
    dirty: Vec<bool>,
    queue: Vec<usize>,
    all: bool,
}

impl Marks {
    /// Marks over `k` devices, all stale.
    pub(crate) fn new(k: usize) -> Marks {
        Marks { dirty: vec![false; k], queue: Vec::with_capacity(k), all: true }
    }

    /// Mark device `d` stale.
    pub(crate) fn mark(&mut self, d: usize) {
        if !self.all && !self.dirty[d] {
            self.dirty[d] = true;
            self.queue.push(d);
        }
    }

    /// Mark every device stale.
    pub(crate) fn mark_all(&mut self) {
        self.all = true;
        for f in &mut self.dirty {
            *f = false;
        }
        self.queue.clear();
    }

    /// Whether no key is stale.
    pub(crate) fn is_clean(&self) -> bool {
        !self.all && self.queue.is_empty()
    }

    /// Start a refresh: whether every key is stale (the flag clears);
    /// otherwise the caller drains [`Marks::pop`].
    pub(crate) fn take_all(&mut self) -> bool {
        std::mem::take(&mut self.all)
    }

    /// The next stale device, now clean.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let d = self.queue.pop()?;
        self.dirty[d] = false;
        Some(d)
    }
}

/// The tournament index. See the module docs for the maintenance
/// protocol: `mark` what changed, `refresh` before reading, `best` for
/// the winner.
pub(crate) struct RouteIndex {
    /// Cached per-device key: the device's earliest launchable
    /// `(launch, network, tenant)`, `None` when it has nothing
    /// launchable (blocked, idle, or halt-horizoned).
    cached: Vec<Option<(f64, usize, usize)>>,
    marks: Marks,
    /// Devices with a key, ordered by launch.
    tree: Tournament,
    k: usize,
}

/// Tournament comparator: a strictly earlier launch wins; IEEE `==`
/// launch ties keep the lower device index — the linear scan's
/// strict-`<` first-wins order (see module docs).
fn launch_beats(cached: &[Option<(f64, usize, usize)>], right: usize, left: usize) -> bool {
    let launch = |d: usize| cached[d].map_or(f64::INFINITY, |(l, _, _)| l);
    launch(right) < launch(left)
}

impl RouteIndex {
    /// An index over `k` devices with every key stale (the first
    /// `refresh` computes them all).
    pub(crate) fn new(k: usize) -> RouteIndex {
        RouteIndex { cached: vec![None; k], marks: Marks::new(k), tree: Tournament::new(k), k }
    }

    /// Mark device `d`'s cached key stale (its queue, clock, health, or
    /// degradation state changed since the last refresh).
    pub(crate) fn mark(&mut self, d: usize) {
        self.marks.mark(d);
    }

    /// Mark every device stale (delay changes, drain
    /// flushes — anything that may have moved state fleet-wide).
    pub(crate) fn mark_all(&mut self) {
        self.marks.mark_all();
    }

    /// Recompute every stale key via `key_of` and repair the tree.
    /// O(K) after `mark_all`, O(dirty · log K) otherwise.
    pub(crate) fn refresh<F>(&mut self, mut key_of: F)
    where
        F: FnMut(usize) -> Option<(f64, usize, usize)>,
    {
        if self.marks.take_all() {
            for d in 0..self.k {
                self.cached[d] = key_of(d);
            }
            let cached = &self.cached;
            self.tree.rebuild(self.k, |d| cached[d].is_some(), |r, l| launch_beats(cached, r, l));
        }
        while let Some(d) = self.marks.pop() {
            self.cached[d] = key_of(d);
            let cached = &self.cached;
            self.tree.update(d, cached[d].is_some(), |r, l| launch_beats(cached, r, l));
        }
    }

    /// The fleet-wide earliest launchable batch, `(launch, d, n, t)` —
    /// the exact selection the linear device-major scan makes. Panics
    /// in debug builds if called with stale keys.
    pub(crate) fn best(&self) -> Option<(f64, usize, usize, usize)> {
        debug_assert!(self.marks.is_clean(), "RouteIndex::best called before refresh");
        let d = self.tree.root()?;
        let (launch, n, t) = self.cached[d].expect("tree winner has a key");
        Some((launch, d, n, t))
    }

    /// Append to `out`, ascending, every device whose cached launch is
    /// before `t_next` (every keyed device when `t_next` is `None`),
    /// descending only into subtrees whose earliest launch qualifies.
    /// A subtree's winner holds its earliest launch, so a pruned subtree
    /// holds no qualifying device. Panics in debug builds if called with
    /// stale keys.
    pub(crate) fn walk_before(&self, t_next: Option<f64>, out: &mut Vec<usize>) {
        debug_assert!(self.marks.is_clean(), "RouteIndex::walk_before called before refresh");
        let cached = &self.cached;
        self.tree.walk(|d| cached[d].is_some_and(|(l, _, _)| t_next.is_none_or(|t| l < t)), out);
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
    fn pruned_walk_lists_exactly_the_devices_launching_before_the_next_arrival() {
        // `batch_compile` visits the walk's devices instead of all K: the
        // walk must list exactly the keyed devices launching before
        // `t_next` (every keyed device without one), in ascending order.
        for k in [1usize, 2, 3, 5, 8, 13, 64] {
            let mut rng = Rng(0xD1B54A32D192ED03 ^ k as u64);
            let mut keys: Vec<Option<(f64, usize, usize)>> = vec![None; k];
            let mut idx = RouteIndex::new(k);
            for round in 0..200 {
                for _ in 0..(rng.next() % 4 + 1) {
                    let d = (rng.next() as usize) % k;
                    keys[d] = (!rng.next().is_multiple_of(3)).then(|| (rng.launch(), 0, 0));
                    idx.mark(d);
                }
                idx.refresh(|d| keys[d]);
                let t_next = (!rng.next().is_multiple_of(5)).then(|| rng.launch());
                let mut walked = Vec::new();
                idx.walk_before(t_next, &mut walked);
                let scanned: Vec<usize> = (0..k)
                    .filter(|&d| keys[d].is_some_and(|(l, _, _)| t_next.is_none_or(|t| l < t)))
                    .collect();
                assert_eq!(walked, scanned, "k={k} round={round} t_next={t_next:?}");
            }
        }
    }

    #[test]
    fn leftmost_descends_to_the_lowest_satisfying_leaf() {
        let mut t = Tournament::new(6);
        let vals = [3, 1, 4, 1, 5, 9];
        t.rebuild(6, |d| d != 2, |r, l| vals[r] < vals[l]);
        assert_eq!(t.root(), Some(1), "ties keep the lower index");
        // "Holds" decided by winners: value <= 1 (devices 1 and 3).
        assert_eq!(t.leftmost(|d| vals[d] <= 1), Some(1));
        t.update(1, false, |r, l| vals[r] < vals[l]);
        assert_eq!(t.leftmost(|d| vals[d] <= 1), Some(3));
        assert_eq!(t.leftmost(|d| vals[d] < 1), None);
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
