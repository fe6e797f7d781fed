//! Golden serving reports: the full `serde_json` report of a fixed set of
//! `serve` and `serve_fleet` configs, plus the serving-track spans of
//! small traced runs, compared byte for byte against fixtures under
//! `tests/golden/`.
//!
//! The fixtures pin the schedulers against recorded bytes instead of
//! against a second code path: any change to a latency, a placement, a
//! batch record, a gauge sample, a fault count or a span argument shows
//! up as a diff. A report whose JSON exceeds [`FULL_LIMIT`] is stored as
//! its 64-bit FNV-1a digest and byte length instead of in full.
//!
//! On a mismatch the test writes the fresh rendering under the cargo
//! target's test scratch directory (the path is in the panic message),
//! so the two files can be diffed directly.

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, Mechanism, Network, NetworkBuilder};
use memcnn::gpusim::{DeviceConfig, DeviceFaultPlan, FaultPlan};
use memcnn::serve::{
    capacity_images_per_sec, feasible_max_batch, serve, serve_fleet, Arrival, BatchPolicy,
    FaultPolicy, FleetConfig, Phase, Placement, ServeConfig, TenantSpec, WorkloadConfig,
};
use memcnn::tensor::Shape;
use memcnn::trace::{self, Track};
use std::path::Path;

/// Reports up to this many bytes are stored in full; larger ones as a
/// digest.
const FULL_LIMIT: usize = 200_000;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Compare `got` with the fixture `name`, writing the fresh rendering
/// out for inspection when they differ.
fn check(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&dir).expect("create the fresh-rendering directory");
        let fresh = dir.join(name);
        std::fs::write(&fresh, got).expect("write the fresh rendering");
        panic!("{name} diverged from {} (fresh rendering: {})", path.display(), fresh.display());
    }
}

/// Check one report's JSON: in full when small, as a digest otherwise.
fn check_json(name: &str, json: &str) {
    if json.len() <= FULL_LIMIT {
        check(&format!("{name}.json"), json);
    } else {
        let digest = format!("fnv1a64 {:016x} bytes {}\n", fnv1a64(json.as_bytes()), json.len());
        check(&format!("{name}.fnv"), &digest);
    }
}

/// One line per span on the serving tracks: track, start and duration
/// (shortest round-trip decimal, so equal text is equal bits), name and
/// arguments.
fn render_spans(captured: &trace::Trace) -> Vec<String> {
    captured
        .spans
        .iter()
        .filter(|s| matches!(s.track, Track::Serve | Track::Fleet | Track::Faults))
        .map(|s| {
            let args: Vec<String> =
                s.args.iter().map(|(k, v)| format!("{}={}", k.as_str(), v.as_str())).collect();
            format!(
                "{}\t{:?}\t{:?}\t{}\t{}",
                s.track.name(),
                s.ts_us,
                s.dur_us,
                s.name,
                args.join(",")
            )
        })
        .collect()
}

fn black() -> Engine {
    Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
        .with_layout_policy(LayoutPolicy::Heuristic)
}

fn titan_x() -> Engine {
    Engine::new(DeviceConfig::titan_x(), LayoutThresholds::titan_x_paper())
        .with_layout_policy(LayoutPolicy::Heuristic)
}

/// The one-conv network the serving tests plan (C = 64 sits in the
/// heuristic's batch-sensitive band, so buckets flip layouts).
fn conv_net(name: &str) -> Network {
    NetworkBuilder::new(name, Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap()
}

/// A quiet spell then a hard burst.
fn burst(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        phases: vec![
            Phase { arrival: Arrival::Poisson { rate: 100.0 }, duration: 0.2 },
            Phase { arrival: Arrival::Poisson { rate: 4000.0 }, duration: 0.1 },
        ],
        images_min: 1,
        images_max: 8,
        seed,
    }
}

/// Retries, OOM downshifts, throttles and deadline shedding all fire.
fn faulty() -> (FaultPlan, FaultPolicy) {
    (
        FaultPlan::new(33, 0.15, 0.05, 0.15),
        FaultPolicy { max_retries: 2, shed_deadline: Some(0.02), ..FaultPolicy::default() },
    )
}

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::interactive("chat", 0.01, 2.0),
        TenantSpec::standard("search", 1.0),
        TenantSpec::best_effort("offline", 1.0),
    ]
}

/// Single-device class-blind config: faults plus a shed deadline.
fn serve_blind_cfg() -> ServeConfig {
    let (plan, pol) = faulty();
    ServeConfig::new(burst(1234), BatchPolicy::new(256, 0.004)).with_faults(plan, pol)
}

/// Single-device tenant config: one rate-limited tenant, plus faults and
/// a shed deadline.
fn serve_tenants_cfg() -> ServeConfig {
    let mut ts = tenants();
    ts[2] = TenantSpec::best_effort("offline", 1.0).with_rate_limit(20.0);
    serve_blind_cfg().with_tenants(ts)
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig::new(burst(77), BatchPolicy::new(128, 0.004), Placement::LeastLoaded)
}

#[test]
fn serve_reports_match_golden() {
    let net = conv_net("golden-serve");
    let blind = serve(&black(), &net, &serve_blind_cfg()).unwrap();
    assert!(blind.faults.injected > 0 && blind.shed_requests > 0, "faults must fire");
    check_json("serve_blind_faults", &serde_json::to_string(&blind).unwrap());
    let tenants = serve(&black(), &net, &serve_tenants_cfg()).unwrap();
    assert!(tenants.slo.as_ref().is_some_and(|s| s.rejected > 0), "the rate limit must reject");
    check_json("serve_tenants", &serde_json::to_string(&tenants).unwrap());
    let mut cleared = serve_tenants_cfg();
    cleared.tenants.clear();
    let cleared = serve(&black(), &net, &cleared).unwrap();
    assert_eq!(
        serde_json::to_string(&cleared).unwrap(),
        serde_json::to_string(&blind).unwrap(),
        "clearing the tenants must give the class-blind report"
    );
}

#[test]
fn fleet_reports_match_golden() {
    let net_a = conv_net("fleet-a");
    let net_b = NetworkBuilder::new("fleet-b", Shape::new(1, 32, 8, 8))
        .conv("CV1", 48, 3, 1, 1)
        .build()
        .unwrap();
    let nets = [net_a.clone(), net_b];
    let shared = black();

    let k1_cfg = FleetConfig::new(burst(77), BatchPolicy::new(128, 0.004), Placement::RoundRobin);
    let k1 = serve_fleet(&[&shared], std::slice::from_ref(&net_a), &k1_cfg).unwrap();
    check_json("fleet_k1", &serde_json::to_string(&k1).unwrap());

    let hetero = serve_fleet(&[&black(), &titan_x()], &nets, &fleet_cfg()).unwrap();
    check_json("fleet_k2_hetero", &serde_json::to_string(&hetero).unwrap());

    let eights: Vec<&Engine> = std::iter::repeat_n(&shared, 8).collect();
    let k8 = serve_fleet(&eights, &nets, &fleet_cfg()).unwrap();
    check_json("fleet_k8", &serde_json::to_string(&k8).unwrap());

    let sixty_four: Vec<&Engine> = std::iter::repeat_n(&shared, 64).collect();
    let k64 = serve_fleet(&sixty_four, &nets, &fleet_cfg()).unwrap();
    check_json("fleet_k64", &serde_json::to_string(&k64).unwrap());
}

#[test]
fn tenant_and_failover_fleet_reports_match_golden() {
    let net = conv_net("slo-net");
    let shared = black();
    let pair: Vec<&Engine> = vec![&shared, &shared];
    let cfg = fleet_cfg().with_tenants(tenants());
    let slo = serve_fleet(&pair, std::slice::from_ref(&net), &cfg).unwrap();
    check_json("fleet_tenants", &serde_json::to_string(&slo).unwrap());
    let mut blind_cfg = cfg.clone();
    blind_cfg.tenants.clear();
    let blind = serve_fleet(&pair, std::slice::from_ref(&net), &blind_cfg).unwrap();
    check_json("fleet_tenants_cleared", &serde_json::to_string(&blind).unwrap());

    let net = conv_net("failover-net");
    let wl = WorkloadConfig {
        phases: vec![Phase { arrival: Arrival::Poisson { rate: 3000.0 }, duration: 0.25 }],
        images_min: 1,
        images_max: 8,
        seed: 91,
    };
    let faults = DeviceFaultPlan::new(7, 0.0, 0.0, 0.3)
        .with_repair(0.03)
        .with_warmup(0.01)
        .hang_at(0.05, 3)
        .crash_at(0.1, 1)
        .drain_at(0.15, 2);
    let cfg = FleetConfig::new(wl, BatchPolicy::new(64, 0.004), Placement::LeastLoaded)
        .with_tenants(vec![
            TenantSpec::interactive("chat", 0.05, 2.0),
            TenantSpec::best_effort("offline", 1.0),
        ])
        .with_device_faults(faults);
    let four: Vec<&Engine> = vec![&shared; 4];
    let failover = serve_fleet(&four, std::slice::from_ref(&net), &cfg).unwrap();
    assert!(failover.health.as_ref().is_some_and(|h| h.downs >= 3), "device faults must fire");
    check_json("fleet_failover", &serde_json::to_string(&failover).unwrap());
}

#[test]
fn serving_spans_match_golden() {
    let net = conv_net("golden-trace");
    let engine = black();
    let mut cfg = serve_blind_cfg();
    cfg.workload.phases[1].duration = 0.03;
    for (name, cfg) in [
        ("spans_serve_blind.txt", cfg.clone()),
        ("spans_serve_tenants.txt", cfg.clone().with_tenants(serve_tenants_cfg().tenants)),
    ] {
        trace::start();
        serve(&engine, &net, &cfg).unwrap();
        let captured = trace::finish().expect("collector was started");
        let lines = render_spans(&captured);
        assert!(lines.iter().any(|l| l.starts_with("faults\t")), "{name}: no fault spans");
        check(name, &(lines.join("\n") + "\n"));
    }

    // Fleet spans: devices interleave on one clock, and which device's
    // span lands first at an equal timestamp is not part of the
    // contract, so the fleet's lines are compared sorted.
    let (plan, pol) = faulty();
    let mut fcfg = fleet_cfg().with_tenants(tenants()).with_faults(plan, pol);
    fcfg.workload.phases[1].duration = 0.03;
    trace::start();
    serve_fleet(&[&engine, &engine], std::slice::from_ref(&net), &fcfg).unwrap();
    let captured = trace::finish().expect("collector was started");
    let mut lines = render_spans(&captured);
    lines.sort();
    assert!(lines.iter().any(|l| l.starts_with("fleet\t")), "no fleet spans");
    check("spans_fleet_tenants.txt", &(lines.join("\n") + "\n"));
}

/// The stream bench's tiny network: one small conv and a pool.
fn stream_net() -> Network {
    NetworkBuilder::new("stream-tiny", Shape::new(1, 4, 16, 16))
        .conv("CV", 8, 3, 1, 1)
        .max_pool("PL", 2, 2)
        .build()
        .unwrap()
}

#[test]
fn indexed_placement_fleet_reports_match_golden() {
    // The stream shape at K=64: QueueWeighted, class-blind, no faults, at
    // 90% of the fleet's capacity so idle and busy devices mix.
    let engine = black();
    let net = stream_net();
    let (max, top) =
        feasible_max_batch(&engine, &net, Mechanism::Opt, &[256, 128, 64, 32]).unwrap();
    let policy = BatchPolicy::new(max, (0.25 * top.total_time()).max(1e-4));
    let rate = 0.9 * capacity_images_per_sec(max, &top) * 64.0 / 2.5;
    let mut wl = WorkloadConfig::poisson(rate, 6000.0 / rate, 4242);
    (wl.images_min, wl.images_max) = (1, 4);
    let sixty_four: Vec<&Engine> = std::iter::repeat_n(&engine, 64).collect();
    let qw = FleetConfig::new(wl, policy, Placement::QueueWeighted);
    let k64 = serve_fleet(&sixty_four, std::slice::from_ref(&net), &qw).unwrap();
    assert!(k64.requests > 5000);
    check_json("fleet_qw_k64", &serde_json::to_string(&k64).unwrap());

    // K=8 QueueWeighted with tenants, transient faults, and device
    // faults that leave no Healthy device for a while: half the fleet
    // drains with work queued and the other half crashes just after, so
    // placement falls back to Draining, then to the all-Down fleet, then
    // to Warming spares. Near the end of the stream the whole fleet
    // crashes in two waves, so work queued on (and failed over from) the
    // second wave is still waiting when routing ends, and the flush
    // re-places it onto the first wave's Warming spares.
    let net = conv_net("qw-health-net");
    let wl = WorkloadConfig {
        phases: vec![Phase { arrival: Arrival::Poisson { rate: 3000.0 }, duration: 0.3 }],
        images_min: 1,
        images_max: 8,
        seed: 515,
    };
    let mut faults = DeviceFaultPlan::new(5, 2.0, 1.0, 1.0).with_repair(0.03).with_warmup(0.03);
    for d in 0..4 {
        faults = faults.drain_at(0.08, d + 4).crash_at(0.081, d);
        faults = faults.crash_at(0.25, d).crash_at(0.275, d + 4);
    }
    let (plan, pol) = faulty();
    let cfg = FleetConfig::new(wl, BatchPolicy::new(64, 0.01), Placement::QueueWeighted)
        .with_tenants(tenants())
        .with_faults(plan, pol)
        .with_device_faults(faults);
    let eight: Vec<&Engine> = vec![&engine; 8];
    let qw_health = serve_fleet(&eight, std::slice::from_ref(&net), &cfg).unwrap();
    let h = qw_health.health.as_ref().expect("device faults are live");
    assert!(h.downs >= 8 && h.ups > 0 && h.requeued > 0, "{h:?}");
    assert!(qw_health.faults.injected > 0, "transient faults must fire");
    check_json("fleet_qw_health_tenants", &serde_json::to_string(&qw_health).unwrap());

    // LeastLoaded under device faults (placed by the snapshot scan over
    // the lowest health rank) at a load where some devices sit idle
    // while others are busy when an arrival is placed.
    let net = conv_net("ll-health-net");
    let wl = WorkloadConfig {
        phases: vec![Phase { arrival: Arrival::Poisson { rate: 1500.0 }, duration: 0.3 }],
        images_min: 1,
        images_max: 8,
        seed: 616,
    };
    let faults = DeviceFaultPlan::new(9, 3.0, 1.0, 2.0)
        .with_repair(0.02)
        .with_warmup(0.01)
        .crash_at(0.1, 2)
        .drain_at(0.12, 4);
    let cfg = FleetConfig::new(wl, BatchPolicy::new(32, 0.003), Placement::LeastLoaded)
        .with_device_faults(faults);
    let six: Vec<&Engine> = vec![&engine; 6];
    let ll_health = serve_fleet(&six, std::slice::from_ref(&net), &cfg).unwrap();
    let h = ll_health.health.as_ref().expect("device faults are live");
    assert!(h.downs >= 2 && h.ups > 0, "{h:?}");
    check_json("fleet_ll_health", &serde_json::to_string(&ll_health).unwrap());
}
