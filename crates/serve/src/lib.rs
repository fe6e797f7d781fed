//! memcnn-serve: a deterministic discrete-event inference-serving
//! simulator with dynamic batching and batch-size-aware layout plans.
//!
//! The paper's central observation — the best data layout depends on the
//! batch size `N` — has a serving-side consequence: a server that batches
//! dynamically changes `N` from batch to batch, so the optimal layout
//! plan changes *while serving*. This crate closes that loop on top of
//! `memcnn-core`'s planner and the GPU simulator:
//!
//! 1. [`workload`] generates a seeded synthetic request stream (Poisson
//!    or uniform arrivals in phases, per-request image counts).
//! 2. [`batch`] forms batches under a `max_batch_images` /
//!    `max_queue_delay` policy and rounds them up to power-of-two
//!    buckets.
//! 3. [`plan_cache`] compiles one layout plan per bucket on first use
//!    (`Engine::plan_at`: layout DP + mechanism selection at that `N`)
//!    and reuses it for every later batch in the bucket — so the server
//!    observably flips between CHWN and NCHW plans as load changes.
//! 4. [`server`] advances a simulated clock through the event loop and
//!    reports p50/p95/p99 latency, throughput, queue depth, bucket
//!    occupancy, and plan-cache hits/misses (via `trace::perf`), plus a
//!    `Track::Serve` span per launched batch when tracing is active.
//!
//! Everything is a pure function of `(engine config, network,
//! ServeConfig)`: same inputs give bit-identical reports, independent of
//! `MEMCNN_THREADS`. That purity extends to fault injection: with a
//! seeded [`FaultPlan`](memcnn_gpusim::FaultPlan) in the config, [`serve`]
//! answers injected faults with [`policy`]'s degradation ladder (bounded
//! retry, OOM bucket downshift, deadline shedding, circuit-style degraded
//! mode) and still replays bit-identically.
//!
//! # Multi-device fleets
//!
//! [`fleet`] scales the same loop out to K simulated devices
//! (heterogeneous allowed — the same bucket compiles different layout
//! plans on devices with different `(Ct, Nt)` thresholds): one request
//! stream, per-(device, network, bucket) plan caches for cross-network
//! multiplexing, a pluggable [`placement`] policy per arrival
//! (round-robin, least-loaded, memory-aware), and an optional
//! [`adaptive`] estimator that re-derives `max_queue_delay` from the
//! observed inter-arrival EMA at workload phase boundaries. The fleet
//! event loop is single-threaded and bit-deterministic; a K = 1 fleet
//! reproduces [`serve`]'s report byte for byte.
//!
//! # Multi-tenant SLO scheduling
//!
//! [`tenant`] + [`slo`] add service classes on top of either loop:
//! tenants declared in the config ([`TenantSpec`] with
//! `Interactive{p99_budget}` / `Standard` / `BestEffort` classes and
//! arrival weights), deterministic per-request attribution that never
//! perturbs the seeded stream, token-bucket admission control,
//! deadline-aware batch commit (per-class queue-delay budgets), a
//! weighted-fair deficit tiebreak when classes contend for a device
//! slot, and per-tenant accounting with the
//! `admitted == completed + shed + rejected + in_flight` balance
//! invariant. A config with no tenants runs the same lane loop with
//! one class-blind lane, and its report is byte-identical to the
//! tenant-free builds; clearing a config's tenants gives the
//! class-blind schedule of the same stream.
//!
//! # Device failures & failover
//!
//! [`health`] adds whole-device fault tolerance to the fleet: a seeded
//! [`DeviceFaultPlan`](memcnn_gpusim::DeviceFaultPlan) drives each
//! device through `Healthy → Draining → Down → Warming → Healthy`,
//! queued work fails over and re-places onto healthy devices, warm
//! spares come back with cold plan caches (the recompilation cost is
//! charged on the simulated clock), and the balance invariant extends
//! to `admitted == completed + shed + rejected + in_flight +
//! failed_over_in_transit`. `MEMCNN_HEALTH_DISABLE=1` switches the
//! layer off as the no-op oracle; everything stays bit-deterministic
//! across `MEMCNN_THREADS`.
//!
//! # Oracle knobs
//!
//! Two environment variables switch a live code path off to check it
//! against its reference: `MEMCNN_FLEET_LINEAR=1` (the linear routing
//! scan instead of the route index) and `MEMCNN_HEALTH_DISABLE=1`. Both
//! are read on every call; a malformed value warns once on stderr and
//! keeps the default path.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod adaptive;
pub mod batch;
pub mod capacity;
pub mod fleet;
pub mod health;
pub mod metrics;
pub mod placement;
pub mod plan_cache;
pub mod policy;
mod route_index;
pub mod server;
pub mod slo;
pub mod tenant;
pub mod workload;

pub use adaptive::AdaptivePolicy;
pub use batch::{bucket_for, buckets, BatchPolicy};
pub use capacity::{capacity_images_per_sec, feasible_max_batch};
pub use fleet::{serve_fleet, DeviceReport, FleetBatch, FleetConfig, FleetReport, NetworkBuckets};
pub use health::{HealthReport, HealthState};
pub use metrics::{
    latency_stats, latency_stats_served, latency_stats_sorted, percentile, LatencyStats,
};
pub use placement::{
    DeviceLoad, LeastLoaded, MemoryAware, Placement, PlacementCtx, PlacementPolicy, QueueWeighted,
    RoundRobin,
};
pub use plan_cache::PlanCache;
pub use policy::{FaultPolicy, FaultStats};
pub use server::{serve, BatchRecord, BucketStats, ServeConfig, ServeReport};
pub use tenant::{tenant_tags, SloFairness, SloReport, TenantClass, TenantReport, TenantSpec};
pub use workload::{generate, Arrival, Phase, Request, WorkloadConfig};

/// Read the boolean oracle knob `name` (`1`/`true` or `0`/`false`;
/// unset is `false`). Read on every call, unlike the once-locked
/// `MEMCNN_THREADS`, so tests can pin both paths in one process.
pub(crate) fn env_flag(name: &'static str, fallback_note: &str) -> bool {
    flag_from(name, std::env::var(name).ok().as_deref(), fallback_note)
}

/// Parse one knob value. A present but unrecognized value warns on
/// stderr, at most once per knob and process, and falls back to
/// `false` (`fallback_note` says what that keeps).
fn flag_from(name: &'static str, raw: Option<&str>, fallback_note: &str) -> bool {
    match raw {
        None | Some("0") | Some("false") => false,
        Some("1") | Some("true") => true,
        Some(v) => {
            static WARNED: std::sync::Mutex<Vec<&str>> = std::sync::Mutex::new(Vec::new());
            let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
            if !warned.contains(&name) {
                warned.push(name);
                eprintln!(
                    "memcnn: ignoring malformed {name}={v:?} (want 1/0/true/false); {fallback_note}"
                );
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::flag_from;

    #[test]
    fn env_flags_parse_and_malformed_values_fall_back() {
        let cases = [
            (None, false),
            (Some("1"), true),
            (Some("true"), true),
            (Some("0"), false),
            (Some("false"), false),
            // Malformed values warn once and keep the default path.
            (Some("yes"), false),
            (Some(""), false),
            (Some(" 1 "), false),
        ];
        for name in ["MEMCNN_FLEET_LINEAR", "MEMCNN_HEALTH_DISABLE"] {
            for (raw, want) in cases {
                assert_eq!(flag_from(name, raw, "keeping the default"), want, "{name}={raw:?}");
            }
        }
    }
}
