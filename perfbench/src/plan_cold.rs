//! Workload `plan-cold`: `Engine::plan` under `Mechanism::Opt` for the
//! five-network zoo at each network's own batch, every plan from empty
//! caches (a fresh `Engine` and `simcache::clear()`), and warm re-plans of
//! the same zoo. Cold kernel simulation is what every test run, cold fleet
//! start and heal recompile pays; `serve` does no work here.
//!
//! An untraced run plans in two child processes, so that clearing the
//! simulation cache leaves the parent's serving phases alone: one makes
//! the cold plans, one network per pass, and the other keeps the whole
//! zoo warm and re-plans all of it on every pass, so the warm samples
//! spread over the whole run.

use crate::checks;
use crate::report::Ops;
use crate::spans::{self, Layer};
use crate::stats::{self, mean, median};
use crate::{engine, Phase, Sheet};
use memcnn_core::{autotune, Engine, Mechanism, Network, Plan};
use memcnn_gpusim::{simcache, SimOptions};
use memcnn_tensor::Layout;
use memcnn_trace::perf;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Metric keys of the zoo networks, in `all_networks` order.
pub const NET_KEYS: [&str; 5] = ["lenet", "cifar10", "alexnet", "zfnet", "vgg16"];
/// Warm re-plans of each network after its cold plan, in-process.
const WARM_REPLANS: usize = 60;
/// Warm re-plans of each network per pass of the warm child process.
const WARM_PER_PASS: usize = 10;

/// The zoo and what its passes measured.
pub struct PlanCold {
    nets: Vec<(&'static str, Network)>,
    /// Host ms per cold plan, per network key.
    cold_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Host ms per warm re-plan, per network key.
    warm_ms: BTreeMap<&'static str, Vec<f64>>,
    /// The last cold plan of each network.
    plans: BTreeMap<&'static str, Plan>,
    ops: Ops,
    errors: Vec<String>,
}

impl PlanCold {
    /// Build the zoo. Its inputs are fixed: the seed drives the serving
    /// phases only.
    pub fn setup() -> PlanCold {
        PlanCold {
            nets: NET_KEYS.into_iter().zip(memcnn_models::all_networks()).collect(),
            cold_ms: BTreeMap::new(),
            warm_ms: BTreeMap::new(),
            plans: BTreeMap::new(),
            ops: Ops::default(),
            errors: Vec::new(),
        }
    }

    /// Each network in `nets` (indices into the zoo) planned cold, then
    /// re-planned warm `warm_count` times on the same engine.
    fn measure(&mut self, nets: std::ops::Range<usize>, warm_count: usize) -> PassResult {
        let mut r = PassResult::default();
        for i in nets {
            let (key, net) = (self.nets[i].0, &self.nets[i].1);
            let (plan, cold_s, warm, replans) = spans::op(key, || {
                spans::call(Layer::Gpusim, "simcache::clear", simcache::clear);
                let engine = spans::call(Layer::Core, "Engine::new", engine);
                let t = Instant::now();
                let plan = spans::call(Layer::Core, "Engine::plan cold", || {
                    engine.plan(net, Mechanism::Opt)
                });
                let cold_s = t.elapsed().as_secs_f64();
                let mut warm = Vec::with_capacity(warm_count);
                let mut replans = Vec::with_capacity(warm_count);
                for _ in 0..warm_count {
                    let t = Instant::now();
                    let p = spans::call(Layer::Core, "Engine::plan warm", || {
                        engine.plan(net, Mechanism::Opt)
                    });
                    warm.push(t.elapsed().as_secs_f64() * 1e3);
                    replans.push(p);
                }
                (plan, cold_s, warm, replans)
            });
            r.nets.push(NetResult { key, cold_ms: Some(cold_s * 1e3), warm_ms: warm });
            r.ops.attempted += 1 + replans.len() as u64;
            let plan = match plan {
                Ok(p) => p,
                Err(e) => {
                    r.ops.failed += 1 + replans.len() as u64;
                    r.errors.push(format!("{key}: cold plan failed: {e}"));
                    continue;
                }
            };
            if let Err(e) = checks::check_plan(&plan) {
                r.ops.failed += 1;
                r.errors.push(e);
            }
            let want = checks::plan_signature(&plan);
            for p in replans {
                if p.map(|p| checks::plan_signature(&p)).ok().as_ref() != Some(&want) {
                    r.ops.failed += 1;
                    r.errors.push(format!("{key}: a warm re-plan differs from the cold plan"));
                }
            }
            self.plans.insert(key, plan);
        }
        r
    }

    fn absorb(&mut self, r: PassResult) {
        for n in r.nets {
            if let Some(ms) = n.cold_ms {
                eprintln!("  plan-cold.{}: {ms:.1} ms cold", n.key);
                self.cold_ms.entry(n.key).or_default().push(ms);
            }
            self.warm_ms.entry(n.key).or_default().extend(n.warm_ms);
        }
        self.ops += r.ops;
        self.errors.extend(r.errors);
    }

    /// The signature lines of the last cold plan of each network.
    pub fn signatures(&self) -> Vec<String> {
        NET_KEYS.iter().filter_map(|k| self.plans.get(k)).flat_map(checks::plan_signature).collect()
    }

    /// The paper's per-layer view on the simulated clock (Figs 1 and 15).
    fn sim_view(&self, sheet: &mut Sheet) {
        let mut zoo = 0.0;
        for (key, plan) in &self.plans {
            let mut ms = BTreeMap::from([
                ("conv_chwn", 0.0),
                ("conv_nchw", 0.0),
                ("pool", 0.0),
                ("other", 0.0),
                ("transform", 0.0),
            ]);
            for l in &plan.layers {
                let class = match (l.is_conv, l.layout) {
                    (true, Layout::CHWN) => "conv_chwn",
                    (true, _) => "conv_nchw",
                    _ if l.impl_name.starts_with("pool") => "pool",
                    _ => "other",
                };
                *ms.get_mut(class).expect("class listed above") += l.time * 1e3;
                *ms.get_mut("transform").expect("listed above") += l.transform_before * 1e3;
            }
            for (class, v) in ms {
                sheet.set(&format!("sim.{key}.ms.{class}"), v, "simulated".into());
            }
            sheet.set(
                &format!("sim.{key}.transforms"),
                plan.transform_count() as f64,
                "plan".into(),
            );
            zoo += plan.total_time() * 1e3;
        }
        sheet.set("sim_zoo_ms", zoo, "simulated, sum of the zoo's Opt plans".into());
    }

    /// Host time per call of the simulator's entry points over the zoo's
    /// layer shapes: cold (an engine with `use_cache: false`), then with
    /// the cache warm; and `autotune::tune_pooling` per pool shape.
    fn probe_calls(&self, sheet: &mut Sheet) {
        let mut convs = Vec::new();
        let mut pools = Vec::new();
        let mut inputs = Vec::new();
        for l in self.nets.iter().flat_map(|(_, n)| n.layers()) {
            if let Some(s) = l.conv_shape() {
                if !convs.contains(&s) {
                    convs.push(s);
                    inputs.push(l.input);
                }
            }
            if let Some(s) = l.pool_shape() {
                if !pools.contains(&s) {
                    pools.push(s);
                }
            }
        }
        let uncached =
            engine().with_sim_options(SimOptions { use_cache: false, ..Default::default() });
        let cached = engine();
        let mut hit_us = Vec::new();
        let mut timed = |kind: &str, calls: &mut dyn FnMut(&Engine) -> usize| {
            let t = Instant::now();
            let n = spans::call(Layer::Gpusim, &format!("cold {kind}"), || calls(&uncached));
            let per_call = t.elapsed().as_secs_f64() * 1e3 / n.max(1) as f64;
            sheet.set(&format!("gpusim.cold_ms.{kind}"), per_call, format!("host, mean of n={n}"));
            sheet.set(&format!("gpusim.cold_ms.{kind}.n"), n as f64, "calls".into());
            calls(&cached);
            let t = Instant::now();
            let n = spans::call(Layer::Gpusim, &format!("hit {kind}"), || calls(&cached));
            hit_us.push((t.elapsed().as_secs_f64() * 1e6, n));
        };
        let ok = |r: bool| usize::from(r);
        timed("conv_chwn", &mut |e| {
            convs.iter().map(|s| ok(e.conv_time(s, Mechanism::Opt, Layout::CHWN).is_ok())).sum()
        });
        timed("conv_mm", &mut |e| {
            convs.iter().map(|s| ok(e.conv_time(s, Mechanism::CudnnMm, Layout::NCHW).is_ok())).sum()
        });
        timed("conv_fft", &mut |e| {
            convs
                .iter()
                .map(|s| ok(e.conv_time(s, Mechanism::CudnnFft, Layout::NCHW).is_ok()))
                .sum()
        });
        timed("pool", &mut |e| {
            pools
                .iter()
                .map(|s| ok(e.pool_time(s, Mechanism::CudaConvnet, Layout::CHWN).is_ok()))
                .sum()
        });
        timed("transform", &mut |e| {
            inputs
                .iter()
                .map(|&s| ok(e.transform_time(s, Layout::CHWN, Layout::NCHW).is_ok()))
                .sum()
        });
        let (us, n) = hit_us.iter().fold((0.0, 0), |(u, n), &(du, dn)| (u + du, n + dn));
        sheet.set("gpusim.hit_us", us / n.max(1) as f64, format!("host, mean of n={n}"));
        sheet.set("gpusim.hit_us.n", n as f64, "calls".into());

        spans::call(Layer::Gpusim, "simcache::clear", simcache::clear);
        let device = cached.device().clone();
        let mut tune_ms = Vec::new();
        for s in &pools {
            let t = Instant::now();
            spans::call(Layer::Core, "autotune::tune_pooling", || {
                autotune::tune_pooling(&device, s, &SimOptions::default())
            });
            tune_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let tune = median(&tune_ms);
        sheet.set("core.autotune_ms", tune.value, format!("host, median of n={}", tune.n));
        sheet.set("core.autotune_ms.n", tune.n as f64, "pool shapes".into());
    }
}

impl Phase for PlanCold {
    /// One pass over the whole zoo, measured and recorded in this process.
    fn pass(&mut self) {
        let r = self.measure(0..NET_KEYS.len(), WARM_REPLANS);
        self.absorb(r);
    }

    /// Operations and check failures so far.
    fn outcome(&self) -> (Ops, &[String]) {
        (self.ops, &self.errors)
    }

    /// End-to-end metrics of the passes run so far: the zoo planned cold
    /// and re-planned warm, each the sum over the networks of that
    /// network's mean (or p90) plan time. Summing per network keeps every
    /// network's weight fixed; a percentile of all re-plans together would
    /// fall in the gap between two networks' clusters, where it jumps.
    fn end_to_end(&self, sheet: &mut Sheet) {
        let cold: f64 = self.cold_ms.values().map(|ms| mean(ms).value / 1e3).sum();
        let n = self.cold_ms.values().map(Vec::len).min().unwrap_or(0);
        let note = format!("host, sum of per-network means, n>={n} per network");
        sheet.set("plan_cold_s", cold, note);
        let n = self.warm_ms.values().map(Vec::len).min().unwrap_or(0);
        let zoo = |stat: &dyn Fn(&[f64]) -> f64| self.warm_ms.values().map(|ms| stat(ms)).sum();
        let note = |stat| format!("host, sum of per-network {stat}, n>={n} re-plans per network");
        sheet.set("plan_warm_ms.mean", zoo(&|ms| mean(ms).value), note("means"));
        sheet.set("plan_warm_ms.p90", zoo(&|ms| stats::percentile(ms, 90.0).value), note("p90s"));
    }

    /// Per-layer metrics of the (traced) passes, plus the direct per-call
    /// timings of the simulator and autotune entry points.
    fn per_layer(&self, sheet: &mut Sheet, base: &perf::Baseline, passes: usize) {
        for key in NET_KEYS {
            let ms = median(self.cold_ms.get(key).map_or(&[][..], Vec::as_slice));
            sheet.set(&format!("core.plan_cold_ms.{key}"), ms.value, format!("host, n={}", ms.n));
        }
        let n = self.cold_ms.values().map(Vec::len).min().unwrap_or(0);
        sheet.set("core.plan_cold_ms.n", n as f64, "cold plans per network".into());
        let n: usize = self.warm_ms.values().map(Vec::len).sum();
        sheet.set("core.plan_warm.n", n as f64, "re-plans".into());
        crate::counters(sheet, base, passes);
        self.sim_view(sheet);
        self.probe_calls(sheet);
    }
}

/// One network's cold plan (if the pass made one) and warm re-plans,
/// host ms.
#[derive(Debug, PartialEq)]
struct NetResult {
    key: &'static str,
    cold_ms: Option<f64>,
    warm_ms: Vec<f64>,
}

/// What one pass measured, and the lines it travels as from a child
/// process: `error <message>` lines, then `pass <attempted> <failed>`
/// followed by `<key> <cold ms or -> <re-plans> <warm ms>…` per network.
#[derive(Debug, Default, PartialEq)]
struct PassResult {
    nets: Vec<NetResult>,
    ops: Ops,
    errors: Vec<String>,
}

impl PassResult {
    fn to_lines(&self) -> String {
        let mut out: String =
            self.errors.iter().map(|e| format!("error {}\n", e.replace('\n', " "))).collect();
        out.push_str(&format!("pass {} {}", self.ops.attempted, self.ops.failed));
        for n in &self.nets {
            let cold = n.cold_ms.map_or("-".to_string(), |ms| format!("{ms:?}"));
            out.push_str(&format!(" {} {cold} {}", n.key, n.warm_ms.len()));
            for ms in &n.warm_ms {
                out.push_str(&format!(" {ms:?}"));
            }
        }
        out
    }

    /// Parse the `pass` line; `errors` are the `error` lines before it.
    fn from_line(line: &str, errors: Vec<String>) -> Option<PassResult> {
        let mut words = line.strip_prefix("pass ")?.split(' ');
        let mut ops = Ops::default();
        (ops.attempted, ops.failed) = (words.next()?.parse().ok()?, words.next()?.parse().ok()?);
        let mut r = PassResult { ops, errors, ..PassResult::default() };
        while let Some(k) = words.next() {
            let key = NET_KEYS.into_iter().find(|n| *n == k)?;
            let cold_ms = match words.next()? {
                "-" => None,
                ms => Some(ms.parse().ok()?),
            };
            let n: usize = words.next()?.parse().ok()?;
            let warm_ms = (0..n).map(|_| words.next()?.parse().ok()).collect::<Option<_>>()?;
            r.nets.push(NetResult { key, cold_ms, warm_ms });
        }
        Some(r)
    }
}

/// The zoo planned once and kept warm: what the warm child process
/// re-plans on every pass.
struct WarmZoo {
    engine: Engine,
    nets: Vec<(&'static str, Network)>,
    /// The signature of each network's first plan, which every re-plan
    /// must repeat.
    want: Vec<Vec<String>>,
    /// The first plans' outcome, reported with the first pass.
    first: Option<PassResult>,
}

impl WarmZoo {
    /// Plan the zoo once on one engine, checking each plan against its
    /// golden.
    fn setup() -> WarmZoo {
        let (engine, nets) = (engine(), PlanCold::setup().nets);
        let (mut want, mut first) = (Vec::new(), PassResult::default());
        for (key, net) in &nets {
            first.ops.attempted += 1;
            let plan = engine.plan(net, Mechanism::Opt).map_err(|e| format!("plan failed: {e}"));
            if let Err(e) = plan.as_ref().map_err(Clone::clone).and_then(checks::check_plan) {
                first.ops.failed += 1;
                first.errors.push(format!("{key}: {e}"));
            }
            want.push(plan.map(|p| checks::plan_signature(&p)).unwrap_or_default());
        }
        WarmZoo { engine, nets, want, first: Some(first) }
    }

    /// `WARM_PER_PASS` timed re-plans of every network.
    fn pass(&mut self) -> PassResult {
        let mut r = self.first.take().unwrap_or_default();
        for ((key, net), want) in self.nets.iter().zip(&self.want) {
            let mut warm_ms = Vec::with_capacity(WARM_PER_PASS);
            for _ in 0..WARM_PER_PASS {
                let t = Instant::now();
                let p = self.engine.plan(net, Mechanism::Opt);
                warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r.ops.attempted += 1;
                if p.map(|p| checks::plan_signature(&p)).ok().as_ref() != Some(want) {
                    r.ops.failed += 1;
                    r.errors.push(format!("{key}: a warm re-plan differs from its golden plan"));
                }
            }
            r.nets.push(NetResult { key, cold_ms: None, warm_ms });
        }
        r
    }
}

/// Serve plans to a parent over stdin/stdout, one result line per request
/// line. `cold`: `plan <i>` plans zoo network `i` from empty caches.
/// `warm`: the zoo is planned once, then `warm` re-plans all of it. Either
/// way the parent keeps its own simulation cache, which its serving phases
/// filled.
pub fn serve_passes(mode: &str) {
    let mut warm = (mode == "warm").then(WarmZoo::setup);
    let mut cold = PlanCold::setup();
    println!("ready");
    for line in std::io::stdin().lines() {
        let Ok(line) = line else { break };
        let r = match (warm.as_mut(), line.strip_prefix("plan ")) {
            (Some(w), None) if line == "warm" => w.pass(),
            (None, Some(i)) => match i.parse::<usize>() {
                Ok(i) if i < NET_KEYS.len() => cold.measure(i..i + 1, 0),
                _ => break,
            },
            _ => break,
        };
        println!("{}", r.to_lines());
    }
}

/// One plan server: a child process of this binary.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `--plan-server <mode>`; it answers `ready` once set up.
    fn start(mode: &str) -> std::io::Result<Server> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["--plan-server", mode])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server { child, stdin, stdout })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("plan server exited"));
        }
        Ok(line.trim_end().to_string())
    }

    fn ready(&mut self) -> std::io::Result<()> {
        match self.read_line()?.as_str() {
            "ready" => Ok(()),
            other => Err(std::io::Error::other(format!("plan server said {other:?}"))),
        }
    }

    fn request(&mut self, line: &str) -> std::io::Result<PassResult> {
        let stdin = self.stdin.as_mut().ok_or(std::io::Error::other("plan server closed"))?;
        writeln!(stdin, "{line}")?;
        stdin.flush()?;
        let mut errors = Vec::new();
        loop {
            let line = self.read_line()?;
            if let Some(e) = line.strip_prefix("error ") {
                errors.push(e.to_string());
            } else if let Some(r) = PassResult::from_line(&line, std::mem::take(&mut errors)) {
                return Ok(r);
            } else {
                return Err(std::io::Error::other(format!("bad line from plan server: {line:?}")));
            }
        }
    }
}

impl Drop for Server {
    /// Close the child's stdin, which ends its loop, and wait for it.
    fn drop(&mut self) {
        self.stdin = None;
        let _ = self.child.wait();
    }
}

/// The plan-cold phase of an untraced run, measured in two child
/// processes: each pass is one network's cold plan, rotating through the
/// zoo, and a round of warm re-plans of the whole zoo.
pub struct Remote {
    next: usize,
    cold: Server,
    warm: Server,
    acc: PlanCold,
}

impl Remote {
    /// Start both children; they set up while the caller does.
    pub fn start() -> std::io::Result<Remote> {
        let cold = Server::start("cold")?;
        let warm = Server::start("warm")?;
        Ok(Remote { next: 0, cold, warm, acc: PlanCold::setup() })
    }

    /// Wait until both children have set up.
    pub fn ready(&mut self) -> std::io::Result<()> {
        self.cold.ready()?;
        self.warm.ready()
    }
}

impl Phase for Remote {
    /// Plan the next network of the zoo cold, and re-plan the zoo warm; a
    /// broken child counts as a failed plan.
    fn pass(&mut self) {
        let cold = self.cold.request(&format!("plan {}", self.next));
        self.next = (self.next + 1) % NET_KEYS.len();
        for r in [cold, self.warm.request("warm")] {
            match r {
                Ok(r) => self.acc.absorb(r),
                Err(e) => {
                    self.acc.ops.attempted += 1;
                    self.acc.ops.failed += 1;
                    self.acc.errors.push(format!("plan server: {e}"));
                }
            }
        }
    }

    /// Operations and check failures so far.
    fn outcome(&self) -> (Ops, &[String]) {
        self.acc.outcome()
    }

    /// End-to-end metrics of the passes run so far.
    fn end_to_end(&self, sheet: &mut Sheet) {
        self.acc.end_to_end(sheet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_results_survive_the_pipe() {
        let r = PassResult {
            nets: vec![
                NetResult { key: "lenet", cold_ms: Some(45.25), warm_ms: vec![1.5, 2.0] },
                NetResult { key: "vgg16", cold_ms: Some(0.1 + 0.2), warm_ms: vec![] },
                NetResult { key: "alexnet", cold_ms: None, warm_ms: vec![0.5] },
            ],
            ops: Ops { attempted: 42, failed: 1 },
            errors: vec!["alexnet: a warm re-plan differs".into()],
        };
        let text = r.to_lines();
        let (errors, last) = text.rsplit_once('\n').unwrap();
        let errors =
            errors.lines().map(|l| l.strip_prefix("error ").unwrap().to_string()).collect();
        assert_eq!(PassResult::from_line(last, errors), Some(r));
        assert_eq!(PassResult::from_line("pass 1", vec![]), None);
        assert_eq!(PassResult::from_line("pass 1 0 resnet 3.0 0", vec![]), None);
        assert_eq!(PassResult::from_line("pass 1 0 lenet 3.0 2 1.0", vec![]), None);
    }
}
