//! Emit a single-line JSON summary of engine performance for CI.
//!
//! ```text
//! cargo run -p memcnn-bench --release --bin bench_summary
//! cargo run -p memcnn-bench --release --bin bench_summary -- --tier1-secs 93 --out target/BENCH_engine.json
//! ```
//!
//! Simulates every network under Opt twice — the first pass fills the
//! simulation cache, the second runs hot — then writes one line of JSON to
//! `BENCH_engine.json` and echoes it to stdout so CI logs carry the numbers
//! without artifact plumbing. `--tier1-secs` lets the caller fold in the
//! wall-clock of the tier-1 test suite it just ran. The cold simulations of
//! the first pass are split into their two host-time stages: replaying the
//! sampled blocks' traces, and replaying their sector streams through the
//! L2 model.

use memcnn_bench::util::Ctx;
use memcnn_core::Mechanism;
use memcnn_gpusim::simcache;
use memcnn_models::all_networks;
use memcnn_trace::perf;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct NetworkRow {
    name: String,
    /// Wall-clock of the first Opt simulation (cache-filling), in ms.
    first_ms: f64,
    /// Wall-clock of a repeat Opt simulation (cache hot), in ms.
    warm_ms: f64,
    /// Simulated GPU execution time of the network under Opt, in ms.
    simulated_ms: f64,
}

#[derive(Serialize)]
struct Summary {
    bench: &'static str,
    device: String,
    /// Wall-clock of the tier-1 suite as reported by the caller, if any.
    tier1_wall_secs: Option<f64>,
    cache_hit_rate: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: u64,
    /// Host ms cold simulations spent replaying block traces
    /// (`sim.cold.trace_ns`).
    cold_trace_ms: f64,
    /// Host ms cold simulations spent in the L2 replay (`sim.cold.l2_ns`).
    cold_l2_ms: f64,
    networks: Vec<NetworkRow>,
}

fn usage() -> ! {
    eprintln!("usage: bench_summary [--tier1-secs S] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tier1_wall_secs = None;
    let mut out = PathBuf::from("BENCH_engine.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tier1-secs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => tier1_wall_secs = Some(s),
                None => usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = PathBuf::from(p),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let ctx = Ctx::titan_black();
    let base = perf::baseline();
    let mut networks = Vec::new();
    for net in all_networks() {
        let t0 = Instant::now();
        let report = ctx.engine.simulate_network(&net, Mechanism::Opt).expect("simulate");
        let first_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        ctx.engine.simulate_network(&net, Mechanism::Opt).expect("simulate");
        let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
        networks.push(NetworkRow {
            name: net.name.clone(),
            first_ms,
            warm_ms,
            simulated_ms: report.total_time() * 1e3,
        });
    }

    let stats = simcache::stats();
    let summary = Summary {
        bench: "engine",
        device: ctx.device.name.clone(),
        tier1_wall_secs,
        cache_hit_rate: stats.hit_rate(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_entries: stats.entries,
        cold_trace_ms: base.delta_of("sim.cold.trace_ns") as f64 / 1e6,
        cold_l2_ms: base.delta_of("sim.cold.l2_ns") as f64 / 1e6,
        networks,
    };
    let line = serde_json::to_string(&summary).expect("serialize summary");
    println!("{line}");
    if let Err(e) = std::fs::write(&out, format!("{line}\n")) {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", out.display());
}
