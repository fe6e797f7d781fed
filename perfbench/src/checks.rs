//! Output checks. Plans must match the layouts, implementations and
//! simulated times recorded in `golden/plans.txt`; serving passes must
//! digest identically across passes (and, for the default seed, to
//! `golden/serving.txt`); every tenant and every injected fault must be
//! accounted for exactly once.

use memcnn_core::Plan;
use memcnn_serve::{FaultStats, FleetReport, ServeReport, SloReport};

/// Plan signatures recorded from the commit that defined the benchmark.
pub const GOLDEN_PLANS: &str = include_str!("../golden/plans.txt");
/// Serving-pass digests recorded for [`DEFAULT_SEED`].
pub const GOLDEN_SERVING: &str = include_str!("../golden/serving.txt");
/// The seed the serving digests in `golden/serving.txt` were recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// One line per planned layer: layout, implementation and the exact bits
/// of its simulated time and of the transform before it.
pub fn plan_signature(plan: &Plan) -> Vec<String> {
    plan.layers
        .iter()
        .map(|l| {
            format!(
                "{} N={} {} {} {} {:016x} {:016x}",
                plan.network,
                plan.batch,
                l.name,
                l.layout.name(),
                l.impl_name,
                l.time.to_bits(),
                l.transform_before.to_bits()
            )
        })
        .collect()
}

/// The golden signature lines of `network` at batch `batch`.
pub fn golden_plan(network: &str, batch: usize) -> Vec<&'static str> {
    let prefix = format!("{network} N={batch} ");
    GOLDEN_PLANS.lines().filter(|l| l.starts_with(&prefix)).collect()
}

/// Compare a plan with its golden signature; the first differing line on
/// mismatch.
pub fn check_plan(plan: &Plan) -> Result<(), String> {
    let got = plan_signature(plan);
    let want = golden_plan(&plan.network, plan.batch);
    if want.is_empty() {
        return Err(format!("no golden plan for {} N={}", plan.network, plan.batch));
    }
    if got.len() != want.len() {
        return Err(format!("{}: {} layers, golden has {}", plan.network, got.len(), want.len()));
    }
    match got.iter().zip(&want).find(|(g, w)| g != *w) {
        Some((g, w)) => Err(format!("plan differs from golden:\n  got  {g}\n  want {w}")),
        None => Ok(()),
    }
}

/// The golden digest of serving phase `phase` at [`DEFAULT_SEED`].
pub fn golden_digest(phase: &str) -> Option<u64> {
    GOLDEN_SERVING.lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        (name == phase).then(|| u64::from_str_radix(hex.trim(), 16).ok()).flatten()
    })
}

/// Check a serving pass's `digest` against the first pass of `phase`
/// (remembered in `first`) and, at [`DEFAULT_SEED`], against the golden.
pub fn check_digest(
    first: &mut Option<u64>,
    digest: u64,
    phase: &str,
    seed: u64,
) -> Result<(), String> {
    let want = *first.get_or_insert(digest);
    if digest != want {
        return Err(format!("digest {digest:016x} differs from the first pass's {want:016x}"));
    }
    if seed == DEFAULT_SEED && golden_digest(phase) != Some(digest) {
        return Err(format!("digest {digest:016x} differs from golden"));
    }
    Ok(())
}

/// 64-bit FNV-1a over a stream of words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn eat(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a fleet run: every request's latency bits and placement,
/// then each device's batches (launch and done bits, bucket, network).
pub fn fleet_digest(r: &FleetReport) -> u64 {
    let mut h = Fnv::default();
    r.latencies.iter().for_each(|l| h.eat(l.to_bits()));
    r.placements.iter().for_each(|&p| h.eat(p as u64));
    for dev in &r.devices {
        for b in &dev.batches {
            h.eat(b.record.launch.to_bits());
            h.eat(b.record.done.to_bits());
            h.eat(b.record.bucket as u64);
            h.eat(b.network as u64);
        }
    }
    h.value()
}

/// Digest of a single-device run: latency bits, then every batch's
/// launch and done bits and bucket.
pub fn serve_digest(r: &ServeReport) -> u64 {
    let mut h = Fnv::default();
    r.latencies.iter().for_each(|l| h.eat(l.to_bits()));
    for b in &r.batches {
        h.eat(b.launch.to_bits());
        h.eat(b.done.to_bits());
        h.eat(b.bucket as u64);
    }
    h.value()
}

/// One tenant's request accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantCounts {
    /// Tenant name.
    pub name: String,
    /// Requests attributed to the tenant.
    pub admitted: u64,
    /// Requests served.
    pub completed: u64,
    /// Requests shed (deadline or fault).
    pub shed: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests still queued at the end of the run.
    pub in_flight: u64,
    /// Requests caught mid-failover at the end of the run.
    pub failed_over_in_transit: u64,
}

/// The per-tenant counts of an SLO report.
pub fn tenant_counts(slo: &SloReport) -> Vec<TenantCounts> {
    slo.tenants
        .iter()
        .map(|t| TenantCounts {
            name: t.name.clone(),
            admitted: t.admitted,
            completed: t.completed,
            shed: t.shed,
            rejected: t.rejected,
            in_flight: t.in_flight,
            failed_over_in_transit: t.failed_over_in_transit,
        })
        .collect()
}

/// Check `admitted == completed + shed + rejected + in_flight +
/// failed_over_in_transit` for every tenant, and that the tenants
/// together account for all `requests` of the stream.
pub fn check_tenants(counts: &[TenantCounts], requests: u64) -> Result<(), String> {
    for t in counts {
        let out = t.completed + t.shed + t.rejected + t.in_flight + t.failed_over_in_transit;
        if t.admitted != out {
            return Err(format!(
                "tenant {}: admitted {} != completed {} + shed {} + rejected {} + in_flight {} \
                 + in_transit {}",
                t.name,
                t.admitted,
                t.completed,
                t.shed,
                t.rejected,
                t.in_flight,
                t.failed_over_in_transit
            ));
        }
    }
    let admitted: u64 = counts.iter().map(|t| t.admitted).sum();
    if admitted != requests {
        return Err(format!("tenants admitted {admitted} requests of {requests}"));
    }
    Ok(())
}

/// Every injected fault resolved exactly once: retried, degraded or shed.
pub fn check_faults(f: &FaultStats) -> Result<(), String> {
    if f.injected == f.retried + f.degraded + f.shed {
        Ok(())
    } else {
        Err(format!(
            "faults: injected {} != retried {} + degraded {} + shed {}",
            f.injected, f.retried, f.degraded, f.shed
        ))
    }
}

/// Every request has a latency slot; served ones (positive latency) plus
/// the shed and rejected ones (the 0 sentinel) make up the stream.
pub fn check_latencies(latencies: &[f64], requests: usize, lost: usize) -> Result<(), String> {
    if latencies.len() != requests {
        return Err(format!("{} latencies for {requests} requests", latencies.len()));
    }
    let served = latencies.iter().filter(|&&l| l > 0.0).count();
    if served + lost != requests {
        return Err(format!("served {served} + shed/rejected {lost} != requests {requests}"));
    }
    if latencies.iter().any(|l| !l.is_finite() || *l < 0.0) {
        return Err("a latency is negative or not finite".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str, admitted: u64, completed: u64, shed: u64) -> TenantCounts {
        TenantCounts {
            name: name.into(),
            admitted,
            completed,
            shed,
            rejected: 1,
            in_flight: 2,
            failed_over_in_transit: 3,
        }
    }

    #[test]
    fn tenant_checker_accepts_balanced_and_rejects_doctored_reports() {
        let good = vec![tenant("interactive", 16, 10, 0), tenant("batch", 26, 18, 2)];
        assert_eq!(check_tenants(&good, 42), Ok(()));
        // One completion too many: the identity breaks for that tenant.
        let mut doctored = good.clone();
        doctored[1].completed += 1;
        let err = check_tenants(&doctored, 42).unwrap_err();
        assert!(err.starts_with("tenant batch: admitted 26"), "{err}");
        // A request dropped from the books: balanced tenants, short total.
        assert!(check_tenants(&good, 43).unwrap_err().contains("admitted 42 requests of 43"));
    }

    #[test]
    fn tenant_checker_rejects_a_doctored_fleet_report() {
        use memcnn_core::{Engine, LayoutThresholds, NetworkBuilder};
        use memcnn_gpusim::DeviceConfig;
        use memcnn_serve::{
            serve_fleet, BatchPolicy, FleetConfig, Placement, TenantSpec, WorkloadConfig,
        };
        let engine =
            Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper());
        let net = NetworkBuilder::new("t", memcnn_tensor::Shape::new(1, 4, 8, 8))
            .conv("CV", 4, 3, 1, 1)
            .build()
            .unwrap();
        let tenants =
            vec![TenantSpec::interactive("i", 0.01, 1.0), TenantSpec::best_effort("b", 1.0)];
        let cfg = FleetConfig::new(
            WorkloadConfig::poisson(2000.0, 0.05, 3),
            BatchPolicy::new(8, 1e-3),
            Placement::QueueWeighted,
        )
        .with_tenants(tenants);
        let mut report =
            serve_fleet(&[&engine, &engine], std::slice::from_ref(&net), &cfg).unwrap();
        let n = report.requests as u64;
        let slo = report.slo.as_mut().unwrap();
        assert_eq!(check_tenants(&tenant_counts(slo), n), Ok(()));
        slo.tenants[0].completed += 1;
        assert!(check_tenants(&tenant_counts(slo), n).unwrap_err().starts_with("tenant i:"));
    }

    #[test]
    fn fault_and_latency_checkers_reject_doctored_counts() {
        let mut f =
            FaultStats { injected: 5, retried: 3, degraded: 1, shed: 1, ..Default::default() };
        assert!(check_faults(&f).is_ok());
        f.retried = 2;
        assert!(check_faults(&f).is_err());
        assert!(check_latencies(&[0.1, 0.0, 0.2], 3, 1).is_ok());
        assert!(check_latencies(&[0.1, 0.0, 0.2], 3, 0).is_err());
        assert!(check_latencies(&[0.1, 0.2], 3, 1).is_err());
        assert!(check_latencies(&[0.1, f64::NAN, 0.2], 3, 0).is_err());
    }

    #[test]
    fn digest_checker_remembers_the_first_pass() {
        let mut first = None;
        assert_eq!(check_digest(&mut first, 7, "stream.k16", 1), Ok(()));
        assert_eq!(first, Some(7));
        assert!(check_digest(&mut first, 8, "stream.k16", 1).is_err());
        assert!(check_digest(&mut None, 7, "stream.k16", DEFAULT_SEED).is_err());
        let golden = golden_digest("fleet").unwrap();
        assert_eq!(check_digest(&mut None, golden, "fleet", DEFAULT_SEED), Ok(()));
    }

    #[test]
    fn digests_see_every_bit() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.eat(1.0f64.to_bits());
        b.eat(f64::from_bits(1.0f64.to_bits() + 1).to_bits());
        assert_ne!(a.value(), b.value());
        assert_ne!(Fnv::default().value(), a.value());
    }

    #[test]
    fn golden_files_parse() {
        assert!(!golden_plan("AlexNet", 128).is_empty());
        assert!(golden_plan("AlexNet", 127).is_empty());
        for phase in ["stream.k16", "stream.k64", "fleet", "tenants1", "blind1"] {
            assert!(golden_digest(phase).is_some(), "{phase}");
        }
    }
}
