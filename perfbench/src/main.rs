//! The memcnn benchmark: one command that runs a workload against the
//! workspace's library crates, checks every output, and prints every
//! metric by name with its unit, ending with one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-cold|stream|tenant-faults --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs all three phases (the workload's own phase repeated
//! for `--seconds`) and reports the end-to-end metrics. `--trace 1` runs
//! only the workload's phase, untraced and then traced, and reports the
//! per-layer metrics; the spans go to `perfbench/out/`. See README.md.

mod checks;
mod plan_cold;
mod report;
mod spans;
mod stats;
mod stream;
mod tenant_faults;

use memcnn_core::{Engine, LayoutThresholds};
use memcnn_gpusim::DeviceConfig;
use memcnn_serve::WorkloadConfig;
use memcnn_trace::perf;
use plan_cold::PlanCold;
use report::{Metric, Ops};
use spans::Layer;
use stats::{ratio, Pct};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use stream::Stream;
use tenant_faults::TenantFaults;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["plan-cold", "stream", "tenant-faults"];

/// Whether a metric is better higher or lower.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, hit ratios).
    Higher,
    /// Smaller is better (times, work counts).
    Lower,
}

/// End-to-end metrics: every `--trace 0` run reports each of them.
pub const END_TO_END: [(&str, &str, Better); 10] = [
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("plan_cold_s", "s", Better::Lower),
    ("plan_warm_ms.mean", "ms", Better::Lower),
    ("plan_warm_ms.p90", "ms", Better::Lower),
    ("events_per_s.k16", "1/s", Better::Higher),
    ("events_per_s.k64", "1/s", Better::Higher),
    ("requests_per_s.fleet", "1/s", Better::Higher),
    ("requests_per_s.tenants1", "1/s", Better::Higher),
    ("requests_per_s.blind1", "1/s", Better::Higher),
];

/// Per-layer metrics: every `--trace 1` run reports each of them, with 0
/// for those the workload's phase does not exercise.
pub fn per_layer_metrics() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut m: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better| m.push((name.to_string(), unit, better));
    add("host.threads", "count", Higher);
    for l in Layer::ALL {
        add(&format!("self_ms.{}", l.name()), "ms", Lower);
    }
    add("trace.overhead_frac", "ratio", Lower);
    add("trace.spans", "count", Lower);
    add("gpusim.cold_sims", "count", Lower);
    add("gpusim.cache.hits", "count", Higher);
    add("gpusim.cache.hit_ratio", "ratio", Higher);
    for k in ["conv_chwn", "conv_mm", "conv_fft", "pool", "transform"] {
        add(&format!("gpusim.cold_ms.{k}"), "ms", Lower);
        add(&format!("gpusim.cold_ms.{k}.n"), "count", Higher);
    }
    add("gpusim.hit_us", "us", Lower);
    add("gpusim.hit_us.n", "count", Higher);
    for k in plan_cold::NET_KEYS {
        add(&format!("core.plan_cold_ms.{k}"), "ms", Lower);
    }
    add("core.plan_cold_ms.n", "count", Higher);
    add("core.plan_warm.n", "count", Higher);
    add("core.autotune_ms", "ms", Lower);
    add("core.autotune_ms.n", "count", Higher);
    add("core.plan.compiles", "count", Lower);
    add("core.probe.fanout", "count", Lower);
    add("core.autotune.calls", "count", Lower);
    add("core.execute_us", "us", Lower);
    add("core.execute_us.n", "count", Higher);
    add("serve.generate_ms", "ms", Lower);
    add("serve.generate_ms.n", "count", Higher);
    for k in ["routes", "commits", "barriers", "parallel_steps"] {
        add(&format!("serve.{k}"), "count", Lower);
    }
    add("serve.ns_per_event.k16", "ns", Lower);
    add("serve.ns_per_event.k64", "ns", Lower);
    add("serve.k_scaling", "ratio", Lower);
    add("serve.plan_cache.hit_ratio", "ratio", Higher);
    for k in ["batch_compiles", "warm_compiles", "failover.requeued", "device_down"] {
        add(&format!("serve.{k}"), "count", Lower);
    }
    add("serve.fault.injected", "count", Lower);
    add("serve.fault.retried", "count", Lower);
    add("serve.batch_success_ratio", "ratio", Higher);
    for k in ["slo.violations", "slo.preempt", "slo.commit_early", "shed", "rejected"] {
        add(&format!("serve.{k}"), "count", Lower);
    }
    let phases = stream::SIZES.iter().map(|s| s.0).chain(tenant_faults::PHASES);
    for p in phases {
        add(&format!("serve.sim_p50_ms.{p}"), "ms", Lower);
        add(&format!("serve.sim_p99_ms.{p}"), "ms", Lower);
        add(&format!("serve.served.{p}"), "count", Higher);
    }
    add("metrics.timeline.samples", "count", Lower);
    for k in plan_cold::NET_KEYS {
        for c in ["conv_chwn", "conv_nchw", "pool", "other", "transform"] {
            add(&format!("sim.{k}.ms.{c}"), "ms", Lower);
        }
        add(&format!("sim.{k}.transforms"), "count", Lower);
    }
    add("sim_zoo_ms", "ms", Lower);
    m
}

/// The metrics a run reports, pre-filled with every name it must carry.
pub struct Sheet {
    metrics: Vec<Metric>,
    index: BTreeMap<String, usize>,
}

impl Sheet {
    fn new(names: impl IntoIterator<Item = (String, &'static str)>) -> Sheet {
        let metrics: Vec<Metric> = names
            .into_iter()
            .map(|(name, unit)| Metric { name, unit, value: 0.0, note: "not exercised".into() })
            .collect();
        let index = metrics.iter().enumerate().map(|(i, m)| (m.name.clone(), i)).collect();
        Sheet { metrics, index }
    }

    /// Set a listed metric; an unlisted name is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, note: String) {
        let i = *self.index.get(name).unwrap_or_else(|| panic!("metric {name} is not listed"));
        self.metrics[i].value = value;
        self.metrics[i].note = note;
    }
}

/// The engine every workload plans on: the paper's GTX Titan Black with
/// its published layout thresholds.
pub fn engine() -> Engine {
    Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
}

/// Median and p99 (nearest rank) of the served latencies (positive
/// entries), seconds, and how many there were.
pub fn served_pcts(latencies: &[f64]) -> (f64, f64, usize) {
    let served: Vec<f64> = latencies.iter().copied().filter(|&l| l > 0.0).collect();
    let p50 = stats::percentile(&served, 50.0);
    (p50.value, stats::percentile(&served, 99.0).value, p50.n)
}

/// Host ms per `workload::generate` call on `wl`, median of five.
pub fn time_generate(wl: &WorkloadConfig) -> Pct {
    let ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let reqs =
                spans::call(Layer::Serve, "workload::generate", || memcnn_serve::generate(wl));
            std::hint::black_box(reqs);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&ms)
}

/// The counter-derived per-layer metrics: growth of the perf registry's
/// counters since `base`, read from outside the crates that count them,
/// per pass of the `passes` run since.
pub fn counters(sheet: &mut Sheet, base: &perf::Baseline, passes: usize) {
    let d = spans::call(Layer::Trace, "Baseline::delta", || base.delta());
    let get = |k: &str| d.get(k).copied().unwrap_or(0) as f64 / passes.max(1) as f64;
    let counts = [
        ("gpusim.cold_sims", "sim.kernels.cold"),
        ("gpusim.cache.hits", "sim.cache.hit"),
        ("core.plan.compiles", "engine.plan.compile"),
        ("core.probe.fanout", "engine.probe.fanout"),
        ("core.autotune.calls", "engine.autotune.pool"),
        ("serve.routes", "fleet.route.count"),
        ("serve.commits", "fleet.commit.count"),
        ("serve.barriers", "fleet.barrier.count"),
        ("serve.parallel_steps", "fleet.step.parallel"),
        ("serve.batch_compiles", "fleet.plan.batch_compile"),
        ("serve.warm_compiles", "fleet.warm.compiles"),
        ("serve.failover.requeued", "fleet.failover.requeued"),
        ("serve.device_down", "fleet.device.down"),
        ("serve.fault.injected", "fault.injected"),
        ("serve.fault.retried", "fault.retried"),
        ("serve.slo.violations", "slo.violation"),
        ("serve.slo.preempt", "slo.preempt"),
        ("serve.slo.commit_early", "slo.commit.early"),
        ("serve.shed", "serve.shed"),
        ("serve.rejected", "slo.reject"),
    ];
    for (name, counter) in counts {
        sheet.set(name, get(counter), format!("counter {counter}, per pass"));
    }
    let hits = get("sim.cache.hit");
    sheet.set(
        "gpusim.cache.hit_ratio",
        ratio(hits, hits + get("sim.cache.miss")),
        "hits / lookups".into(),
    );
    let plan_hits = get("serve.plan.hit");
    sheet.set(
        "serve.plan_cache.hit_ratio",
        ratio(plan_hits, plan_hits + get("serve.plan.miss")),
        "hits / lookups".into(),
    );
    let batches = get("serve.batches");
    sheet.set(
        "serve.batch_success_ratio",
        ratio(batches, batches + get("fault.retried") + get("fault.shed")),
        "batches / (batches + retried + fault-shed)".into(),
    );
}

/// One workload's phase, driven the same way whatever it measures.
pub trait Phase {
    /// Run one pass and record what it measured.
    fn pass(&mut self);
    /// Operations attempted and failed so far, and every failed check.
    fn outcome(&self) -> (Ops, &[String]);
    /// Set the phase's end-to-end metrics from the passes so far.
    fn end_to_end(&self, sheet: &mut Sheet);
    /// Per-layer metrics of the passes since `base`. Only traced runs ask,
    /// and they run the phase in-process.
    fn per_layer(&self, _sheet: &mut Sheet, _base: &perf::Baseline, _passes: usize) {}
}

/// Set up `workload`'s phase in this process.
fn setup(workload: &str, seed: u64) -> Box<dyn Phase> {
    match workload {
        "plan-cold" => Box::new(PlanCold::setup()),
        "stream" => Box::new(Stream::setup(seed)),
        _ => Box::new(TenantFaults::setup(seed)),
    }
}

/// Passes of each phase an untraced run makes at least, whatever
/// `--seconds` says: a cold plan of every zoo network, and a second of the
/// first.
const MIN_PASSES: usize = plan_cold::NET_KEYS.len() + 1;

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 0, seconds: 0, trace: false, print_golden: false };
    let mut it = std::env::args().skip(1);
    let mut seen = 0;
    while let Some(flag) = it.next() {
        if flag == "--print-golden" {
            a.print_golden = true;
            continue;
        }
        if flag == "--plan-server" {
            plan_cold::serve_passes(&it.next().unwrap_or_default());
            std::process::exit(0);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = value.clone(),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
        seen += 1;
    }
    if seen < 4 && !a.print_golden {
        return Err("need --workload, --seed, --seconds and --trace".into());
    }
    Ok(a)
}

/// Untraced run: passes of all three phases, interleaved for `seconds`,
/// so that each metric's samples spread over the whole run; reports every
/// end-to-end metric. The next pass is always of the phase that has had
/// the least host time for its share: the workload's own phase has a
/// share of two, the others one each. The plan-cold phase runs in child
/// processes, because it clears the simulation cache that the serving
/// phases' set-up filled.
fn untraced(a: &Args, sheet: &mut Sheet) -> (Ops, Vec<String>) {
    let t = Instant::now();
    let mut remote = match plan_cold::Remote::start() {
        Ok(r) => r,
        Err(e) => return (Ops { attempted: 1, failed: 1 }, vec![format!("plan server: {e}")]),
    };
    let stream = setup("stream", a.seed);
    let tenant_faults = setup("tenant-faults", a.seed);
    if let Err(e) = remote.ready() {
        return (Ops { attempted: 1, failed: 1 }, vec![format!("plan server: {e}")]);
    }
    let mut phases: Vec<(&str, Box<dyn Phase>)> =
        vec![("plan-cold", Box::new(remote)), ("stream", stream), ("tenant-faults", tenant_faults)];
    sheet.set("setup_s", t.elapsed().as_secs_f64(), "host, set-up of all three phases".into());
    let share: Vec<f64> =
        phases.iter().map(|(w, _)| if *w == a.workload { 2.0 } else { 1.0 }).collect();
    let mut spent = [0.0; 3];
    let mut passes = [0usize; 3];
    let t = Instant::now();
    while passes.iter().any(|&n| n < MIN_PASSES) || t.elapsed() < Duration::from_secs(a.seconds) {
        let i = (0..phases.len())
            .min_by(|&i, &j| (spent[i] / share[i]).total_cmp(&(spent[j] / share[j])))
            .expect("three phases");
        let t = Instant::now();
        phases[i].1.pass();
        spent[i] += t.elapsed().as_secs_f64();
        passes[i] += 1;
    }
    eprintln!(
        "{passes:?} passes in {:.1} s; host s per phase: {spent:.1?}",
        t.elapsed().as_secs_f64()
    );
    let (mut ops, mut errors) = (Ops::default(), Vec::new());
    for (w, phase) in &phases {
        phase.end_to_end(sheet);
        let (o, e) = phase.outcome();
        println!("{w}: {} operations attempted, {} failed", o.attempted, o.failed);
        ops += o;
        errors.extend(e.iter().map(|e| format!("{w}: {e}")));
    }
    drop(phases);
    sheet.set("peak_rss_mb", peak_rss_mb(), "host, VmHWM of the serving process".into());
    (ops, errors)
}

/// Traced run: the workload's phase alone, alternating untraced and
/// traced passes for `seconds`, reporting every per-layer metric.
fn traced(a: &Args, sheet: &mut Sheet) -> (Ops, Vec<String>) {
    let mut phase = setup(&a.workload, a.seed);
    spans::enable();
    let base = perf::baseline();
    let (mut untraced_s, mut traced_s, mut n) = (0.0, 0.0, 0);
    let t0 = Instant::now();
    while n < 1 || t0.elapsed() < Duration::from_secs(a.seconds) {
        for traced in [false, true] {
            spans::pause(!traced);
            let t = Instant::now();
            phase.pass();
            *(if traced { &mut traced_s } else { &mut untraced_s }) += t.elapsed().as_secs_f64();
        }
        n += 1;
    }
    spans::pause(false);
    phase.per_layer(sheet, &base, 2 * n);
    let spans = spans::take();
    sheet.set("trace.overhead_frac", traced_s / untraced_s - 1.0, format!("{n} passes each way"));
    sheet.set("trace.spans", spans.len() as f64, "spans recorded".into());
    let mut table = String::new();
    for (layer, ns) in spans::layer_self_times(&spans) {
        sheet.set(&format!("self_ms.{}", layer.name()), ns as f64 / 1e6, "host, self time".into());
        table.push_str(&format!("  {:<8} {:>12.3} ms\n", layer.name(), ns as f64 / 1e6));
    }
    eprintln!("self time per layer (traced passes and per-call probes):\n{table}");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.json", a.workload, a.seed);
    let meta = [("workload", a.workload.clone()), ("seed", a.seed.to_string())];
    match std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, spans::chrome_json(&spans, &meta)))
    {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let (ops, errors) = phase.outcome();
    (ops, errors.to_vec())
}

/// The program's worker-thread budget when the caller sets none. Every
/// parallel scope of the workspace's thread pool starts its threads
/// afresh, and on a small shared host the time those threads wait to be
/// scheduled swings between runs by more than any regression bound; one
/// thread measures the program's own work. See README.md.
const DEFAULT_THREADS: &str = "1";

fn main() {
    // Before any crate reads it, while this is the only thread; the
    // plan-cold child processes inherit it.
    if std::env::var_os("MEMCNN_THREADS").is_none() {
        std::env::set_var("MEMCNN_THREADS", DEFAULT_THREADS);
    }
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let workloads = WORKLOADS.join("|");
            eprintln!("error: {e}");
            eprintln!(
                "usage: memcnn-perfbench --workload <{workloads}> --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if a.print_golden {
        print_golden(a.seed);
        return;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env_threads = std::env::var("MEMCNN_THREADS").unwrap_or_default();
    let threads = env_threads.parse::<usize>().ok().filter(|&n| n > 0).unwrap_or(cpus);
    println!(
        "memcnn-perfbench: workload {} seed {} seconds {} trace {}; host {cpus} cpus, \
         MEMCNN_THREADS={env_threads}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    let (sheet, (ops, errors)) = if a.trace {
        let mut sheet = Sheet::new(per_layer_metrics().into_iter().map(|(n, u, _)| (n, u)));
        sheet.set("host.threads", threads as f64, format!("MEMCNN_THREADS={env_threads}"));
        let r = traced(&a, &mut sheet);
        (sheet, r)
    } else {
        let mut sheet = Sheet::new(END_TO_END.iter().map(|&(n, u, _)| (n.to_string(), u)));
        let r = untraced(&a, &mut sheet);
        (sheet, r)
    };
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    println!(
        "operations: {} attempted, {} failed ({:.4}%)",
        ops.attempted,
        ops.failed,
        100.0 * ratio(ops.failed as f64, ops.attempted as f64)
    );
    for m in &sheet.metrics {
        println!("{:<32} {:>18.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    match report::json_line(errors.is_empty(), ops, &sheet.metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Print the plan signatures of the zoo and the serving digests at
/// `seed`: how `golden/plans.txt` and `golden/serving.txt` were recorded.
fn print_golden(seed: u64) {
    let mut plans = PlanCold::setup();
    plans.pass();
    for line in plans.signatures() {
        println!("{line}");
    }
    let mut s = Stream::setup(seed);
    s.pass();
    let mut t = TenantFaults::setup(seed);
    t.pass();
    for (name, d) in s.digests().into_iter().chain(t.digests()) {
        println!("{name} {d:016x}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec = include_str!("../../BENCHMARK.json");
        let entries = |section: &str| -> Vec<(String, String, String)> {
            let body = spec.split(&format!("\"{section}\"")).nth(1).expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|e| {
                    let field = |k: &str| {
                        let v = e.split(&format!("\"{k}\": \"")).nth(1).expect("field present");
                        v[..v.find('"').expect("string closes")].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let dir = |b: Better| if b == Better::Higher { "higher" } else { "lower" };
        let e2e: Vec<_> =
            END_TO_END.iter().map(|&(n, u, b)| (n.into(), u.into(), dir(b).into())).collect();
        assert_eq!(entries("end_to_end"), e2e);
        let layers: Vec<_> =
            per_layer_metrics().into_iter().map(|(n, u, b)| (n, u.into(), dir(b).into())).collect();
        assert_eq!(entries("per_layer"), layers);
        assert!(layers.len() <= 128);
        for (name, _, _) in e2e.iter().chain(&layers) {
            assert!(report::valid_name(name), "{name}");
        }
    }
}
