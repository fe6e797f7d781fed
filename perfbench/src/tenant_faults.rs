//! Workload `tenant-faults`: AlexNet and VGG16 (request `id % 2`) on a
//! K=8 `serve_fleet` at ~70% of aggregate capacity, with three tenant
//! classes, rate-driven device crashes that heal as warm spares with cold
//! plan caches, and transient launch faults answered by bounded retries.
//! The same seeded stream at one device's share of the fleet's rate then
//! runs through `serve()` on AlexNet, with tenants (the SLO loop) and
//! class-blind (the plain loop). The simulation cache is filled during
//! set-up; each pass starts with empty per-device plan caches, as
//! `serve_fleet` does.

use crate::checks;
use crate::report::Ops;
use crate::spans::{self, Layer};
use crate::stats::{median, Throughput};
use crate::{engine, served_pcts, Phase, Sheet};
use memcnn_core::{Engine, Mechanism, Network, Plan};
use memcnn_gpusim::{DeviceFaultPlan, FaultPlan};
use memcnn_serve::{
    buckets, capacity_images_per_sec, serve, serve_fleet, BatchPolicy, FaultPolicy, FleetConfig,
    Placement, ServeConfig, TenantSpec, WorkloadConfig,
};
use memcnn_trace::perf;
use std::time::Instant;

/// Devices in the fleet.
const K: usize = 8;
/// Largest batch (images) the batcher forms.
const MAX_BATCH: usize = 8;
/// Requests per fleet pass.
const FLEET_REQUESTS: usize = 5_000;
/// Requests per single-device pass.
const SINGLE_REQUESTS: usize = 5_000;
/// Offered load as a share of aggregate capacity.
const LOAD: f64 = 0.7;
/// Images per request are drawn uniformly from this range.
const IMAGES: (usize, usize) = (1, 4);
/// Calls per timed batch of `Engine::execute_attempt`, and batches.
const EXEC_CALLS: (usize, usize) = (200, 25);

/// The three serving phases, by metric suffix.
pub const PHASES: [&str; 3] = ["fleet", "tenants1", "blind1"];

#[derive(Default)]
struct PhaseStats {
    requests: Throughput,
    digest: Option<u64>,
    sim_p50: f64,
    sim_p99: f64,
    served: usize,
}

/// Networks, engine, the fleet config and the two single-device configs.
pub struct TenantFaults {
    engine: Engine,
    nets: Vec<Network>,
    fleet: FleetConfig,
    tenants1: ServeConfig,
    blind1: ServeConfig,
    top_alexnet: Plan,
    seed: u64,
    phases: [PhaseStats; 3],
    timeline_samples: usize,
    ops: Ops,
    errors: Vec<String>,
}

fn stream(rate: f64, requests: usize, seed: u64) -> WorkloadConfig {
    let mut wl = WorkloadConfig::poisson(rate, requests as f64 / rate, seed);
    (wl.images_min, wl.images_max) = IMAGES;
    wl
}

impl TenantFaults {
    /// Size the streams from the top-bucket plans and fill the process-wide
    /// simulation cache with every bucket's plan of both networks.
    pub fn setup(seed: u64) -> TenantFaults {
        let engine = engine();
        let nets = vec![
            memcnn_models::alexnet().expect("AlexNet builds"),
            memcnn_models::vgg16().expect("VGG16 builds"),
        ];
        let probe = BatchPolicy::new(MAX_BATCH, 1.0);
        let mut tops = Vec::new();
        for net in &nets {
            for b in buckets(&probe) {
                let plan = engine.plan_at(net, Mechanism::Opt, b).expect("every bucket plans");
                if b == MAX_BATCH {
                    tops.push(plan);
                }
            }
        }
        let (ta, tv) = (tops[0].total_time(), tops[1].total_time());
        let policy = BatchPolicy::new(MAX_BATCH, 0.25 * ta);
        // Requests alternate networks, so a device's images split evenly.
        let caps: Vec<f64> = tops.iter().map(|p| capacity_images_per_sec(MAX_BATCH, p)).collect();
        let mixed = 2.0 / (1.0 / caps[0] + 1.0 / caps[1]);
        let mean_images = (IMAGES.0 + IMAGES.1) as f64 / 2.0;
        let tenants = vec![
            TenantSpec::interactive("interactive", 2.0 * tv, 0.25),
            TenantSpec::standard("standard", 1.75),
            TenantSpec::best_effort("best-effort", 2.0),
        ];
        let faults = FaultPlan::new(seed ^ 0x5eed_fa17, 0.002, 0.0, 0.005);
        let fault_policy = FaultPolicy {
            max_retries: 6,
            backoff_base: 0.05 * ta,
            shed_deadline: None,
            recovery_batches: 4,
        };
        let per_device = LOAD * mixed / mean_images;
        let fleet_wl = stream(K as f64 * per_device, FLEET_REQUESTS, seed);
        let horizon = fleet_wl.duration();
        // The crash draw does not follow the run's seed: every heal costs
        // a round of plan compiles, which outweighs the serving itself, so
        // a seed that drew 5 crashes would measure a different amount of
        // work than one that drew 13. Every run pays the default seed's.
        let crash_seed = checks::DEFAULT_SEED ^ 0xdead_0de1;
        let crashes = DeviceFaultPlan::new(crash_seed, 1.0 / horizon, 0.0, 0.0)
            .with_epoch(horizon / 200.0)
            .with_repair(horizon / 50.0)
            .with_warmup(horizon / 200.0);
        let fleet = FleetConfig::new(fleet_wl, policy, Placement::QueueWeighted)
            .with_tenants(tenants.clone())
            .with_faults(faults, fault_policy)
            .with_device_faults(crashes);
        let single_wl = stream(per_device, SINGLE_REQUESTS, seed);
        let blind1 = ServeConfig::new(single_wl, policy).with_faults(faults, fault_policy);
        let tenants1 = blind1.clone().with_tenants(tenants);
        TenantFaults {
            engine,
            nets,
            fleet,
            tenants1,
            blind1,
            top_alexnet: tops.swap_remove(0),
            seed,
            phases: Default::default(),
            timeline_samples: 0,
            ops: Ops::default(),
            errors: Vec::new(),
        }
    }

    fn record(
        &mut self,
        i: usize,
        host_s: f64,
        checked: Result<(usize, usize, u64, Vec<f64>), String>,
    ) {
        let name = PHASES[i];
        let (requests, lost, digest, latencies) = match checked {
            Ok(v) => v,
            Err(e) => {
                self.ops.attempted += 1;
                self.ops.failed += 1;
                self.errors.push(format!("{name}: {e}"));
                return;
            }
        };
        self.ops.attempted += requests as u64;
        self.ops.failed += lost as u64;
        let ph = &mut self.phases[i];
        if let Err(e) = checks::check_digest(&mut ph.digest, digest, name, self.seed) {
            self.ops.failed += (requests - lost) as u64;
            self.errors.push(format!("{name}: {e}"));
        }
        ph.requests.add(requests as f64, host_s);
        eprintln!("  {name}: {:.0} requests/s", requests as f64 / host_s);
        (ph.sim_p50, ph.sim_p99, ph.served) = served_pcts(&latencies);
    }

    /// The digests of the first pass, for recording goldens.
    pub fn digests(&self) -> Vec<(String, u64)> {
        PHASES
            .iter()
            .zip(&self.phases)
            .filter_map(|(n, p)| Some((n.to_string(), p.digest?)))
            .collect()
    }
}

impl Phase for TenantFaults {
    /// One pass: the fleet phase, then the two single-device phases.
    fn pass(&mut self) {
        let engines: Vec<&Engine> = vec![&self.engine; K];
        let (fleet, host_s) = spans::op("fleet", || {
            let t = Instant::now();
            let r = spans::call(Layer::Serve, "serve_fleet", || {
                serve_fleet(&engines, &self.nets, &self.fleet)
            });
            (r, t.elapsed().as_secs_f64())
        });
        if let Ok(r) = &fleet {
            self.timeline_samples = spans::call(Layer::Metrics, "MetricsTimeline::series", || {
                r.timeline.series.iter().map(|s| s.samples.len()).sum()
            });
        }
        let checked = fleet.map_err(|e| e.to_string()).and_then(|r| {
            let lost = r.shed_requests + r.slo.as_ref().map_or(0, |s| s.rejected as usize);
            checks::check_latencies(&r.latencies, r.requests, lost)?;
            checks::check_faults(&r.faults)?;
            let slo = r.slo.as_ref().ok_or("the fleet report has no tenant section")?;
            checks::check_tenants(&checks::tenant_counts(slo), r.requests as u64)?;
            Ok((r.requests, lost, checks::fleet_digest(&r), r.latencies))
        });
        self.record(0, host_s, checked);
        // A fleet pass takes several times as long as a single-device one,
        // so each pass serves the single-device streams more than once,
        // for steadier medians; the class-blind loop is the faster one.
        for i in [1, 2, 1, 2, 2] {
            let cfg = if i == 1 { &self.tenants1 } else { &self.blind1 };
            let (single, host_s) = spans::op(PHASES[i], || {
                let t = Instant::now();
                let r =
                    spans::call(Layer::Serve, "serve", || serve(&self.engine, &self.nets[0], cfg));
                (r, t.elapsed().as_secs_f64())
            });
            let checked = single.map_err(|e| e.to_string()).and_then(|r| {
                let lost = r.shed_requests + r.slo.as_ref().map_or(0, |s| s.rejected as usize);
                checks::check_latencies(&r.latencies, r.requests, lost)?;
                checks::check_faults(&r.faults)?;
                if let Some(slo) = &r.slo {
                    checks::check_tenants(&checks::tenant_counts(slo), r.requests as u64)?;
                } else if i == 1 {
                    return Err("the tenant run has no tenant section".into());
                }
                Ok((r.requests, lost, checks::serve_digest(&r), r.latencies))
            });
            self.record(i, host_s, checked);
        }
    }

    /// Operations and check failures so far.
    fn outcome(&self) -> (Ops, &[String]) {
        (self.ops, &self.errors)
    }

    /// End-to-end metrics: requests per host second of each phase.
    fn end_to_end(&self, sheet: &mut Sheet) {
        for (name, ph) in PHASES.iter().zip(&self.phases) {
            sheet.set(
                &format!("requests_per_s.{name}"),
                ph.requests.rate(),
                format!("host, requests over {} passes", ph.requests.passes),
            );
        }
    }

    /// Per-layer metrics of the (traced) passes, plus the direct per-call
    /// timing of `Engine::execute_attempt` on a compiled plan.
    fn per_layer(&self, sheet: &mut Sheet, base: &perf::Baseline, passes: usize) {
        crate::counters(sheet, base, passes);
        for (name, ph) in PHASES.iter().zip(&self.phases) {
            sheet.set(&format!("serve.sim_p50_ms.{name}"), ph.sim_p50 * 1e3, "simulated".into());
            sheet.set(&format!("serve.sim_p99_ms.{name}"), ph.sim_p99 * 1e3, "simulated".into());
            sheet.set(&format!("serve.served.{name}"), ph.served as f64, "requests".into());
        }
        sheet.set(
            "metrics.timeline.samples",
            self.timeline_samples as f64,
            "gauge samples, fleet".into(),
        );
        let gen_ms = crate::time_generate(&self.fleet.workload);
        sheet.set("serve.generate_ms", gen_ms.value, format!("host, median of n={}", gen_ms.n));
        sheet.set("serve.generate_ms.n", gen_ms.n as f64, "calls".into());
        let faults = self.fleet.faults;
        let mut per_call_us = Vec::new();
        let mut launch = 0u64;
        for _ in 0..EXEC_CALLS.1 {
            let t = Instant::now();
            spans::call(Layer::Core, "Engine::execute_attempt", || {
                for _ in 0..EXEC_CALLS.0 {
                    launch += 1;
                    let a = self.engine.execute_attempt(&self.top_alexnet, faults.as_ref(), launch);
                    std::hint::black_box(a);
                }
            });
            per_call_us.push(t.elapsed().as_secs_f64() * 1e6 / EXEC_CALLS.0 as f64);
        }
        let m = median(&per_call_us);
        sheet.set(
            "core.execute_us",
            m.value,
            format!("host, median of {} batches of {} calls", m.n, EXEC_CALLS.0),
        );
        sheet.set("core.execute_us.n", launch as f64, "calls".into());
    }
}
