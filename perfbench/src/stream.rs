//! Workload `stream`: an open-loop Poisson stream of a tiny network (one
//! conv, one pool) through `serve_fleet` at 90% of aggregate capacity on
//! the simulated clock, QueueWeighted placement, class-blind, no faults,
//! at K=16 and K=64. Simulation and plan compiles are all cache hits, so
//! host time is the orchestrator: route index, placement, barriers,
//! commit and timeline. The K pair exposes per-arrival cost growing with K.

use crate::checks;
use crate::report::Ops;
use crate::spans::{self, Layer};
use crate::stats::{median, Throughput};
use crate::{engine, served_pcts, Phase, Sheet};
use memcnn_core::{Engine, Mechanism, Network, NetworkBuilder};
use memcnn_serve::{
    buckets, capacity_images_per_sec, feasible_max_batch, serve_fleet, BatchPolicy, FleetConfig,
    Placement, WorkloadConfig,
};
use memcnn_tensor::Shape;
use memcnn_trace::perf;
use std::time::Instant;

/// Fleet sizes of the stream, as (metric suffix, K).
pub const SIZES: [(&str, usize); 2] = [("k16", 16), ("k64", 64)];
/// Requests per stream pass.
const REQUESTS: usize = 50_000;
/// Images per request are drawn uniformly from this range.
const IMAGES: (usize, usize) = (1, 4);

struct Size {
    key: &'static str,
    k: usize,
    cfg: FleetConfig,
    /// Routes plus commits over the run's passes.
    events: Throughput,
    ns_per_event: Vec<f64>,
    digest: Option<u64>,
    sim_p50: f64,
    sim_p99: f64,
    served: usize,
    samples: usize,
}

/// The stream's network, engine and the two fleet configs.
pub struct Stream {
    engine: Engine,
    net: Network,
    seed: u64,
    sizes: Vec<Size>,
    ops: Ops,
    errors: Vec<String>,
}

impl Stream {
    /// Size the stream from the tiny network's top-bucket plan and compile
    /// every bucket once, so passes see only cache hits.
    pub fn setup(seed: u64) -> Stream {
        let engine = engine();
        let net = NetworkBuilder::new("stream-tiny", Shape::new(1, 4, 16, 16))
            .conv("CV", 8, 3, 1, 1)
            .max_pool("PL", 2, 2)
            .build()
            .expect("the stream network is well formed");
        let (max, top) = feasible_max_batch(&engine, &net, Mechanism::Opt, &[256, 128, 64, 32])
            .expect("the tiny network plans at batch 32");
        let policy = BatchPolicy::new(max, (0.25 * top.total_time()).max(1e-4));
        for b in buckets(&policy) {
            engine
                .plan_at(&net, Mechanism::Opt, b)
                .expect("every bucket of the tiny network plans");
        }
        let capacity = capacity_images_per_sec(max, &top);
        let mean_images = (IMAGES.0 + IMAGES.1) as f64 / 2.0;
        let sizes = SIZES
            .into_iter()
            .map(|(key, k)| {
                let rate = 0.9 * capacity * k as f64 / mean_images;
                let mut wl = WorkloadConfig::poisson(rate, REQUESTS as f64 / rate, seed);
                (wl.images_min, wl.images_max) = IMAGES;
                Size {
                    key,
                    k,
                    cfg: FleetConfig::new(wl, policy, Placement::QueueWeighted),
                    events: Throughput::default(),
                    ns_per_event: Vec::new(),
                    digest: None,
                    sim_p50: 0.0,
                    sim_p99: 0.0,
                    served: 0,
                    samples: 0,
                }
            })
            .collect();
        Stream { engine, net, seed, sizes, ops: Ops::default(), errors: Vec::new() }
    }

    /// The digests of the first pass, for recording goldens.
    pub fn digests(&self) -> Vec<(String, u64)> {
        self.sizes.iter().filter_map(|s| Some((format!("stream.{}", s.key), s.digest?))).collect()
    }
}

impl Phase for Stream {
    /// One pass: the stream once at each fleet size.
    fn pass(&mut self) {
        for size in &mut self.sizes {
            let engines: Vec<&Engine> = vec![&self.engine; size.k];
            let name = format!("stream.{}", size.key);
            let (report, host_s, events) = spans::op(&name, || {
                let base = spans::call(Layer::Trace, "perf::baseline", perf::baseline);
                let t = Instant::now();
                let report = spans::call(Layer::Serve, "serve_fleet", || {
                    serve_fleet(&engines, std::slice::from_ref(&self.net), &size.cfg)
                });
                let host_s = t.elapsed().as_secs_f64();
                let events = spans::call(Layer::Trace, "Baseline::delta_of", || {
                    base.delta_of("fleet.route.count") + base.delta_of("fleet.commit.count")
                });
                (report, host_s, events)
            });
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    self.errors.push(format!("{name}: {e}"));
                    self.ops.attempted += 1;
                    self.ops.failed += 1;
                    continue;
                }
            };
            self.ops.attempted += report.requests as u64;
            self.ops.failed += report.shed_requests as u64;
            size.events.add(events as f64, host_s);
            eprintln!("  {name}: {:.0} events/s", events as f64 / host_s);
            size.ns_per_event.push(host_s * 1e9 / events.max(1) as f64);
            let digest = checks::fleet_digest(&report);
            let checked =
                checks::check_latencies(&report.latencies, report.requests, report.shed_requests)
                    .and_then(|()| {
                        checks::check_digest(&mut size.digest, digest, &name, self.seed)
                    });
            if let Err(e) = checked {
                self.ops.failed += (report.requests - report.shed_requests) as u64;
                self.errors.push(format!("{name}: {e}"));
            }
            (size.sim_p50, size.sim_p99, size.served) = served_pcts(&report.latencies);
            size.samples = spans::call(Layer::Metrics, "MetricsTimeline::series", || {
                report.timeline.series.iter().map(|s| s.samples.len()).sum()
            });
        }
    }

    /// Operations and check failures so far.
    fn outcome(&self) -> (Ops, &[String]) {
        (self.ops, &self.errors)
    }

    /// End-to-end metrics: routes + commits per host second at each K.
    fn end_to_end(&self, sheet: &mut Sheet) {
        for s in &self.sizes {
            sheet.set(
                &format!("events_per_s.{}", s.key),
                s.events.rate(),
                format!("host, routes+commits over {} passes", s.events.passes),
            );
        }
    }

    /// Per-layer metrics of the (traced) passes.
    fn per_layer(&self, sheet: &mut Sheet, base: &perf::Baseline, passes: usize) {
        crate::counters(sheet, base, passes);
        let mut ns = Vec::new();
        let mut samples = 0;
        for s in &self.sizes {
            let m = median(&s.ns_per_event);
            ns.push(m.value);
            sheet.set(
                &format!("serve.ns_per_event.{}", s.key),
                m.value,
                format!("host, n={}", m.n),
            );
            sheet.set(&format!("serve.sim_p50_ms.{}", s.key), s.sim_p50 * 1e3, "simulated".into());
            sheet.set(&format!("serve.sim_p99_ms.{}", s.key), s.sim_p99 * 1e3, "simulated".into());
            sheet.set(&format!("serve.served.{}", s.key), s.served as f64, "requests".into());
            samples += s.samples;
        }
        sheet.set("serve.k_scaling", ns[1] / ns[0], "ns_per_event.k64 / ns_per_event.k16".into());
        sheet.set("metrics.timeline.samples", samples as f64, "gauge samples, last pass".into());
        let gen_ms = crate::time_generate(&self.sizes[0].cfg.workload);
        sheet.set("serve.generate_ms", gen_ms.value, format!("host, median of n={}", gen_ms.n));
        sheet.set("serve.generate_ms.n", gen_ms.n as f64, "calls".into());
    }
}
