//! SLO-aware scheduling pieces shared by the single-device loop
//! ([`serve`](crate::server::serve)) and the fleet: per-tenant lanes,
//! deadline-driven batch commit, weighted-fair slot arbitration, and the
//! per-tenant report.
//!
//! Both loops keep one lane per tenant — a single lane when the config
//! declares none — and the same event arithmetic on every lane: the
//! `max(gpu_free, min(T_full, T_deadline))` window rule
//! ([`window_launch`]), the greedy FIFO [`form`], and the launch-attempt
//! ladder. Tenants add three things:
//!
//! - **Deadline-aware commit**: each lane's window grows under its
//!   class's commit budget ([`crate::tenant::TenantClass::commit_budget`]) instead of
//!   the uniform policy delay, so interactive batches commit early
//!   (possibly part-full) while best-effort lanes hold up to 4x the
//!   delay to fill larger buckets — which, through the per-bucket plan
//!   cache, is also a layout decision (the paper's `Nt` thresholds).
//! - **Weighted-fair tiebreak**: when two lanes' launches tie exactly
//!   for the device slot, the larger fairness credit wins
//!   ([`lane_beats`](crate::tenant::lane_beats)); credits settle after
//!   every commit ([`settle_credits`](crate::tenant::settle_credits)), so
//!   a saturating interactive tenant cannot starve best-effort lanes
//!   indefinitely (the starvation bound pinned in `tests/slo.rs`).
//! - **Admission control**: a deterministic per-tenant token bucket on
//!   the arrival clock ([`Admission`](crate::tenant::Admission)) rejects
//!   arrivals past the tenant's rate limit before they queue; rejections
//!   keep the 0.0 latency sentinel and their own accounting column.
//!
//! Everything stays a pure function of the inputs: tenant attribution
//! hashes `(seed, id)` without touching the workload RNG, lane selection
//! and credits are plain arithmetic in commit order, and reports are
//! bit-identical across `MEMCNN_THREADS`. Clearing a config's tenants
//! gives the class-blind schedule of the same stream.

use crate::fleet::window_launch;
use crate::metrics::latency_stats;
use crate::server::form;
use crate::tenant::{fairness_of, SloReport, TenantReport};
use crate::workload::Request;
use memcnn_trace::perf;

/// One tenant's FIFO lane: the routed queue and the served prefix.
pub(crate) struct Lane {
    pub(crate) queue: Vec<Request>,
    pub(crate) next: usize,
}

impl Lane {
    pub(crate) fn new() -> Lane {
        Lane { queue: Vec::new(), next: 0 }
    }

    /// Requests routed but not yet served or shed.
    pub(crate) fn pending(&self) -> &[Request] {
        &self.queue[self.next..]
    }

    pub(crate) fn has_pending(&self) -> bool {
        self.next < self.queue.len()
    }
}

/// Whether committing `(launch, images)` displaced a tentative larger
/// batch on `lane`: the lane's own batch — formed from requests that
/// had arrived by `launch` — would have launched later with more
/// images. Only arrived work counts: the fleet routes exactly the
/// `arrival <= launch` prefix before any commit (the route-first rule),
/// while the single-device loop holds the whole admitted stream, so
/// this shared cutoff is what makes both paths count identically.
pub(crate) fn lane_preempts(
    lane: &Lane,
    budget: f64,
    gpu_free: f64,
    emax: usize,
    launch: f64,
    images: usize,
) -> bool {
    let end = lane.queue.partition_point(|r| r.arrival <= launch);
    if end <= lane.next {
        return false;
    }
    let view = &lane.queue[..end];
    let l2 = window_launch(view, lane.next, gpu_free, emax, budget);
    let (_, imgs2, _) = form(view, lane.next, l2, emax);
    l2 > launch && imgs2 > images
}

/// Assemble the per-tenant accounting section from independently
/// tallied components (shared by the single-device and fleet loops).
/// `in_flight` comes from residual lane depths — 0 for drained runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn slo_report(
    tenants: &[crate::tenant::TenantSpec],
    latencies: &[f64],
    tags: &[u32],
    admitted: &[u64],
    rejected: &[u64],
    completed: &[u64],
    shed: &[u64],
    in_flight: &[u64],
    images: &[u64],
    violations: &[u64],
    early_commits: u64,
    preemptions: u64,
    failed_over: &[u64],
    in_transit: &[u64],
    device_seconds: f64,
) -> SloReport {
    let nt = tenants.len();
    let mut lat_by: Vec<Vec<f64>> = vec![Vec::new(); nt];
    for (i, &l) in latencies.iter().enumerate() {
        if l > 0.0 {
            lat_by[tags[i] as usize].push(l);
        }
    }
    let reports: Vec<TenantReport> = (0..nt)
        .map(|t| TenantReport {
            name: tenants[t].name.clone(),
            class: tenants[t].class,
            weight: tenants[t].weight,
            admitted: admitted[t],
            rejected: rejected[t],
            completed: completed[t],
            shed: shed[t],
            in_flight: in_flight[t],
            images: images[t],
            violations: violations[t],
            failed_over: failed_over[t],
            failed_over_in_transit: in_transit[t],
            latency: latency_stats(&lat_by[t]),
            weighted_share: if tenants[t].weight > 0.0 {
                images[t] as f64 / tenants[t].weight
            } else {
                0.0
            },
        })
        .collect();
    let slo = SloReport {
        fairness: fairness_of(&reports),
        violations: violations.iter().sum(),
        rejected: rejected.iter().sum(),
        early_commits,
        preemptions,
        device_seconds,
        failed_over: failed_over.iter().sum(),
        failed_over_in_transit: in_transit.iter().sum(),
        tenants: reports,
    };
    perf::add("slo.commit.early", slo.early_commits);
    perf::add("slo.preempt", slo.preemptions);
    perf::add("slo.reject", slo.rejected);
    perf::add("slo.violation", slo.violations);
    debug_assert!(slo.balanced(), "per-tenant accounting out of balance");
    slo
}
