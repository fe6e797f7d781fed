//! The discrete-event serving loop: one simulated device draining an
//! open-loop request stream through the dynamic batcher and the per-bucket
//! plan cache.
//!
//! All time is simulated. A batch's service time is its bucket plan's
//! simulated forward time (`Plan::total_time` — layers plus inserted
//! layout transformations), and queueing delay falls out of the event
//! loop. The loop itself is single-threaded and touches the engine only
//! through `PlanCache`, whose plans are bit-identical across thread counts
//! (the PR-2 cache guarantee), so an entire run is a pure function of
//! `(engine config, network, ServeConfig)`.
//!
//! # Fault handling
//!
//! With a [`FaultPlan`] in the config, every batch launch rolls the plan
//! (through [`Engine::execute_attempt`]) and the loop answers faults with
//! the [`FaultPolicy`]'s degradation ladder instead of failing the run:
//! transients retry with deterministic backoff, execute-time OOM downshifts
//! the bucket and pins it (degraded mode) until a clean streak passes,
//! plan-time OOM permanently lowers the batch cap (the library home of the
//! bench's OOM-aware fallback), and hopeless work is shed — requests whose
//! queue wait exceeds the shed deadline, or batches whose retry budget ran
//! out. Every fault is accounted exactly once in [`FaultStats`]
//! (`injected == retried + degraded + shed`), mirrored to the global perf
//! registry (`fault.injected/retried/degraded/shed`, `serve.shed`,
//! `serve.degraded.enter/exit`, `serve.plan.oom`), and emitted as a span
//! on the `faults` Perfetto track. Because the fault stream is a pure
//! function of `(seed, launch key, launch index)` and the loop is
//! single-threaded, a faulted run replays bit-identically, independent of
//! `MEMCNN_THREADS`.

use crate::batch::{bucket_for, BatchPolicy};
use crate::fleet::window_launch;
use crate::metrics::{latency_stats_served, LatencyStats};
use crate::plan_cache::PlanCache;
use crate::policy::{FaultPolicy, FaultStats};
use crate::slo::{lane_preempts, slo_report, Lane};
use crate::tenant::{lane_beats, settle_credits, tenant_tags, Admission, SloReport, TenantSpec};
use crate::workload::{self, Request, WorkloadConfig};
use memcnn_core::{Engine, EngineError, Mechanism, Network, Plan};
use memcnn_gpusim::FaultPlan;
use memcnn_metrics::{GaugeId, MetricsTimeline, Recorder};
use memcnn_trace as trace;
use memcnn_trace::perf;
use serde::Serialize;
use std::collections::BTreeSet;

/// Everything a serving run needs besides the engine and the network.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The synthetic request stream.
    pub workload: WorkloadConfig,
    /// The dynamic-batching policy.
    pub policy: BatchPolicy,
    /// Mechanism plans are compiled under (the paper's `Opt` by default).
    pub mechanism: Mechanism,
    /// Seeded fault injection. `None` — or a plan with all-zero rates —
    /// leaves the run bit-identical to the fault-free loop.
    pub faults: Option<FaultPlan>,
    /// How the loop responds to faults and queue pressure.
    pub fault_policy: FaultPolicy,
    /// SLO tenants. Empty (the default) schedules one class-blind lane,
    /// with a report byte-identical to the pre-tenant one; non-empty
    /// gives each tenant a lane under its class budget (`serve::slo`). A
    /// clone with `tenants` cleared is the class-blind schedule of the
    /// same stream.
    pub tenants: Vec<TenantSpec>,
}

// Manual impl: `tenants` is omitted when empty so default configs
// serialize to the exact bytes the derived impl produced before the
// field existed (the report byte-identity pin in `tests/slo.rs`).
impl Serialize for ServeConfig {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"workload\":");
        self.workload.serialize_json(out);
        out.push_str(",\"policy\":");
        self.policy.serialize_json(out);
        out.push_str(",\"mechanism\":");
        self.mechanism.serialize_json(out);
        out.push_str(",\"faults\":");
        self.faults.serialize_json(out);
        out.push_str(",\"fault_policy\":");
        self.fault_policy.serialize_json(out);
        if !self.tenants.is_empty() {
            out.push_str(",\"tenants\":");
            self.tenants.serialize_json(out);
        }
        out.push('}');
    }
}

impl ServeConfig {
    /// `Opt`-mechanism config from a workload and policy, fault-free.
    pub fn new(workload: WorkloadConfig, policy: BatchPolicy) -> ServeConfig {
        ServeConfig {
            workload,
            policy,
            mechanism: Mechanism::Opt,
            faults: None,
            fault_policy: FaultPolicy::default(),
            tenants: Vec::new(),
        }
    }

    /// The same config with fault injection enabled.
    pub fn with_faults(mut self, faults: FaultPlan, policy: FaultPolicy) -> ServeConfig {
        self.faults = Some(faults);
        self.fault_policy = policy;
        self
    }

    /// The same config with SLO tenants declared.
    pub fn with_tenants(mut self, tenants: Vec<TenantSpec>) -> ServeConfig {
        self.tenants = tenants;
        self
    }
}

/// One launched batch.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct BatchRecord {
    /// Launch time (GPU start of the first attempt), seconds.
    pub launch: f64,
    /// Completion time, seconds.
    pub done: f64,
    /// Requests folded into the batch.
    pub requests: usize,
    /// Images in the batch (before bucket rounding).
    pub images: usize,
    /// Bucket the batch executed in (plan's `N`).
    pub bucket: usize,
    /// Arrived-but-unserved requests left behind at launch.
    pub queue_depth: usize,
    /// Failed launch attempts before the one that completed (0: clean).
    pub attempts: u32,
    /// Throttle faults absorbed across the batch's attempts.
    pub throttled: u32,
}

/// Per-bucket aggregate of a finished run.
#[derive(Clone, Debug, Serialize)]
pub struct BucketStats {
    /// Bucket size (`N` its plan was compiled at).
    pub bucket: usize,
    /// Batches executed in this bucket.
    pub batches: usize,
    /// Total images those batches carried.
    pub images: usize,
    /// Mean fill: images per batch over bucket capacity, in (0, 1].
    pub fill: f64,
    /// The plan's convolution-layout signature (e.g. `CHWN` or
    /// `CHWN,NCHW,...`) — the paper-flavored observable: this string
    /// changes across buckets of the same network.
    pub conv_layouts: String,
    /// Layout transformations the plan inserts.
    pub transforms: usize,
    /// The plan's simulated service time, seconds.
    pub service_time: f64,
}

/// A finished serving run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Network name.
    pub network: String,
    /// The config the run used.
    pub config: ServeConfig,
    /// Requests generated by the workload (served + shed).
    pub requests: usize,
    /// Images actually served (shed requests excluded).
    pub images: usize,
    /// Completion time of the last batch, seconds.
    pub makespan: f64,
    /// Per-request latency (completion - arrival), in request-id order —
    /// the determinism tests compare this vector bit for bit. Shed
    /// requests keep the 0.0 sentinel (no request can complete with zero
    /// latency, so the encoding is unambiguous).
    pub latencies: Vec<f64>,
    /// Every *completed* batch, in launch order (shed batches never
    /// complete and are accounted in `faults`/`shed_requests` instead).
    pub batches: Vec<BatchRecord>,
    /// Per-bucket aggregates, ascending by bucket.
    pub buckets: Vec<BucketStats>,
    /// Requests dropped (deadline shedding plus fault shedding).
    pub shed_requests: usize,
    /// Fault accounting for the run (all zero when injection is off).
    pub faults: FaultStats,
    /// Gauge timelines sampled at the loop's event boundaries, plus the
    /// run's latency histogram. Every sample is a pure function of
    /// loop-local state on the simulated clock, so the timeline is
    /// bit-identical across `MEMCNN_THREADS` like the rest of the report.
    pub timeline: MetricsTimeline,
    /// Per-tenant accounting, fairness, and SLO violations; `None` for
    /// class-blind runs (no tenants configured).
    pub slo: Option<SloReport>,
}

// Manual impl: `slo` is omitted when `None` so class-blind reports keep
// the exact pre-tenant byte layout.
impl Serialize for ServeReport {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"network\":");
        self.network.serialize_json(out);
        out.push_str(",\"config\":");
        self.config.serialize_json(out);
        out.push_str(",\"requests\":");
        self.requests.serialize_json(out);
        out.push_str(",\"images\":");
        self.images.serialize_json(out);
        out.push_str(",\"makespan\":");
        self.makespan.serialize_json(out);
        out.push_str(",\"latencies\":");
        self.latencies.serialize_json(out);
        out.push_str(",\"batches\":");
        self.batches.serialize_json(out);
        out.push_str(",\"buckets\":");
        self.buckets.serialize_json(out);
        out.push_str(",\"shed_requests\":");
        self.shed_requests.serialize_json(out);
        out.push_str(",\"faults\":");
        self.faults.serialize_json(out);
        out.push_str(",\"timeline\":");
        self.timeline.serialize_json(out);
        if let Some(slo) = &self.slo {
            out.push_str(",\"slo\":");
            slo.serialize_json(out);
        }
        out.push('}');
    }
}

impl ServeReport {
    /// Latency summary over served requests (shed and admission-rejected
    /// requests — the 0.0 sentinels — are excluded; neither has a
    /// latency). Sorts into a reused thread-local scratch buffer instead
    /// of cloning the latency vector per report.
    pub fn latency(&self) -> LatencyStats {
        latency_stats_served(&self.latencies)
    }

    /// Served images per second of makespan.
    pub fn throughput_images_per_sec(&self) -> f64 {
        if self.makespan > 0.0 {
            self.images as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Served requests per second of makespan.
    pub fn throughput_requests_per_sec(&self) -> f64 {
        if self.makespan > 0.0 {
            (self.requests - self.shed_requests) as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Fraction of generated requests that were shed, in [0, 1].
    pub fn shed_rate(&self) -> f64 {
        if self.requests > 0 {
            self.shed_requests as f64 / self.requests as f64
        } else {
            0.0
        }
    }

    /// Mean queue depth observed at batch launches.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.queue_depth as f64).sum::<f64>() / self.batches.len() as f64
    }

    /// Distinct convolution-layout signatures across buckets — `> 1`
    /// means the server observably flipped plans as load changed.
    pub fn distinct_conv_signatures(&self) -> usize {
        let mut sigs: Vec<&str> = self.buckets.iter().map(|b| b.conv_layouts.as_str()).collect();
        sigs.sort_unstable();
        sigs.dedup();
        sigs.len()
    }
}

/// Greedy FIFO batch formation at time `launch`: take requests arrived by
/// `launch` (starting at `next`) while their images fit in `max`. Returns
/// `(end_index, images, full)`; `full` means the batch cannot grow even if
/// more requests were queued.
pub(crate) fn form(
    requests: &[Request],
    next: usize,
    launch: f64,
    max: usize,
) -> (usize, usize, bool) {
    let mut images = 0usize;
    let mut j = next;
    while j < requests.len() && requests[j].arrival <= launch {
        // A request larger than the whole batch is clamped rather than
        // rejected: it becomes a lone full batch.
        let imgs = requests[j].images.min(max);
        if images + imgs > max {
            return (j, images, true);
        }
        images += imgs;
        j += 1;
        if images == max {
            return (j, images, true);
        }
    }
    (j, images, false)
}

/// Emit a span on the faults track. The name/args builder only runs when
/// tracing is active, so hot loops pay no `format!`/`Vec` churn on the
/// (overwhelmingly common) untraced path.
pub(crate) fn fault_span<F>(ts: f64, dur: f64, build: F)
where
    F: FnOnce() -> (String, Vec<(trace::ArgValue, trace::ArgValue)>),
{
    trace::record_span(|| {
        let (name, args) = build();
        trace::SpanEvent {
            name,
            track: trace::Track::Faults,
            ts_us: ts * 1e6,
            dur_us: dur * 1e6,
            args,
        }
    });
}

/// How one batch's launch-attempt loop ended. Shared by the
/// single-device and fleet serving loops.
pub(crate) enum Outcome {
    /// The batch completed at `done`.
    Done { done: f64 },
    /// The batch was shed (retry exhaustion, or OOM at bucket 1); the
    /// device is busy until `at`.
    Shed { at: f64 },
    /// Execute-time OOM: re-form the batch at half the bucket; the device
    /// is busy until `at`.
    Downshift { at: f64 },
}

/// The finished ladder: how the batch ended, plus its retry/throttle
/// counts (the `BatchRecord` fields).
pub(crate) struct LadderEnd {
    pub(crate) outcome: Outcome,
    pub(crate) attempts: u32,
    pub(crate) throttles: u32,
}

/// The launch-attempt ladder, shared verbatim by every serving loop:
/// retry transients with deterministic backoff, downshift on execute-time
/// OOM (bucket > 1), shed at retry exhaustion or OOM at bucket 1. Each
/// attempt consumes one launch index from `launches` and accounts into
/// `stats` exactly as the PR 4 single-device loop did; `device` tags the
/// fault spans on fleet runs and is `None` on single-device ones (the
/// K = 1 byte-identity test pins the arithmetic either way).
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_ladder(
    engine: &Engine,
    plan: &Plan,
    fplan: Option<&FaultPlan>,
    launches: &mut u64,
    stats: &mut FaultStats,
    pol: &FaultPolicy,
    bucket: usize,
    launch: f64,
    device: Option<usize>,
) -> Result<LadderEnd, EngineError> {
    let tag = |mut args: Vec<(trace::ArgValue, trace::ArgValue)>| {
        if let Some(d) = device {
            args.push(("device".into(), d.to_string().into()));
        }
        args
    };
    let mut launch_at = launch;
    let mut attempt: u32 = 0;
    let mut throttles: u32 = 0;
    let outcome = loop {
        let att = engine.execute_attempt(plan, fplan, *launches);
        *launches += 1;
        // Throttles are injected faults absorbed by degrading speed:
        // execution continued, slower. Counted immediately.
        stats.injected += att.throttled as u64;
        stats.degraded += att.throttled as u64;
        stats.throttled += att.throttled as u64;
        throttles += att.throttled;
        match att.error {
            None => break Outcome::Done { done: launch_at + att.time },
            Some(EngineError::Transient { layer, launch: idx, .. }) => {
                stats.injected += 1;
                if attempt < pol.max_retries {
                    attempt += 1;
                    stats.retried += 1;
                    let backoff = pol.backoff(attempt);
                    fault_span(launch_at + att.time, backoff, || {
                        (
                            format!("retry {attempt} after {layer}"),
                            tag(vec![("launch_index".into(), idx.to_string().into())]),
                        )
                    });
                    // The failed attempt's partial time is real device
                    // occupancy; the backoff is the policy's pause.
                    launch_at += att.time + backoff;
                } else {
                    stats.shed += 1;
                    fault_span(launch_at + att.time, 0.0, || {
                        (
                            format!("retries exhausted at {layer}"),
                            tag(vec![("attempts".into(), (attempt + 1).to_string().into())]),
                        )
                    });
                    break Outcome::Shed { at: launch_at + att.time };
                }
            }
            Some(EngineError::ExecOom { layer, .. }) => {
                stats.injected += 1;
                if bucket > 1 {
                    stats.degraded += 1;
                    stats.oom_downshifts += 1;
                    fault_span(launch_at + att.time, 0.0, || {
                        (
                            format!("OOM at {layer}: downshift {bucket} -> {}", bucket / 2),
                            tag(vec![("bucket".into(), bucket.to_string().into())]),
                        )
                    });
                    break Outcome::Downshift { at: launch_at + att.time };
                } else {
                    stats.shed += 1;
                    fault_span(launch_at + att.time, 0.0, || {
                        (format!("OOM at {layer} with bucket 1: shed"), tag(vec![]))
                    });
                    break Outcome::Shed { at: launch_at + att.time };
                }
            }
            Some(other) => return Err(other),
        }
    };
    Ok(LadderEnd { outcome, attempts: attempt, throttles })
}

/// One lane's cached arbitration key: the tentative launch
/// [`window_launch`] computed under the state fingerprint alongside it.
/// The cache hit condition exploits the window rule's shape — the launch
/// starts from `max(gpu_free, oldest)`, so while the device clock stays
/// at or below the lane's oldest pending arrival the result does not
/// depend on `gpu_free` at all, and an unchanged `(next, emax)` pair
/// pins the rest of the inputs (the admitted queue itself is immutable
/// once routed). Exact-`f64`-bits equality everywhere keeps the cached
/// selection byte-identical to a fresh scan; debug builds assert it.
struct LaneKey {
    next: usize,
    emax: usize,
    gpu_free: f64,
    launch: f64,
}

impl LaneKey {
    /// Whether the cached launch is still exact for the current state.
    fn valid(&self, next: usize, emax: usize, gpu_free: f64, oldest: f64) -> bool {
        self.next == next
            && self.emax == emax
            && (self.gpu_free.to_bits() == gpu_free.to_bits()
                || (self.gpu_free <= oldest && gpu_free <= oldest))
    }
}

/// Run the serving simulation to completion (every generated request is
/// served or shed). Deterministic: same engine config + network + `cfg`
/// gives a bit-identical [`ServeReport`] — latencies, batch records, and
/// fault statistics — independent of `MEMCNN_THREADS`.
///
/// With tenants, each tenant gets a lane under its class budget, with
/// admission control and SLO accounting (the report carries
/// `Some(SloReport)`; see [`slo`](crate::slo)). Without, one class-blind
/// lane runs under the policy delay: no admission, and none of the SLO
/// observability — no `slo.violations` gauge, keyed histogram, `tenant`
/// span argument or SLO report — so the report is byte-identical to the
/// pre-tenant server's.
///
/// Errors are typed and terminal: plan-time OOM that cannot downshift
/// further (bucket 1 does not fit) or a structurally infeasible plan.
/// Injected faults never surface as `Err` — they are retried, degraded,
/// or shed per `cfg.fault_policy`.
pub fn serve(
    engine: &Engine,
    net: &Network,
    cfg: &ServeConfig,
) -> Result<ServeReport, EngineError> {
    let requests = workload::generate(&cfg.workload);
    perf::add("serve.requests", requests.len() as u64);
    let n_requests = requests.len();
    let tenants = &cfg.tenants;
    let slo = !tenants.is_empty();
    let nt = tenants.len();
    let nlanes = nt.max(1);
    let max = cfg.policy.max_batch_images.max(1);
    let fplan = cfg.faults.filter(|p| !p.is_noop());
    let pol = cfg.fault_policy;
    let delay = cfg.policy.max_queue_delay;
    let budgets: Vec<f64> = if slo {
        tenants.iter().map(|t| t.class.commit_budget(delay)).collect()
    } else {
        vec![delay]
    };
    let ranks: Vec<u8> = tenants.iter().map(|t| t.class.rank()).collect();
    let p99s: Vec<Option<f64>> = tenants.iter().map(|t| t.class.p99_budget()).collect();

    // Admission on the arrival clock, before anything queues: the token
    // bucket is a pure function of the (deterministic) arrival sequence,
    // so the lane contents are replayable from the seed.
    let tags = if slo { tenant_tags(cfg.workload.seed, n_requests, tenants) } else { Vec::new() };
    let mut admitted = vec![0u64; nt];
    let mut rejected = vec![0u64; nt];
    let mut lanes: Vec<Lane> = (0..nlanes).map(|_| Lane::new()).collect();
    if slo {
        let mut admission = Admission::new(tenants);
        for (i, r) in requests.iter().enumerate() {
            let t = tags[i] as usize;
            admitted[t] += 1;
            if admission.admit(t, r.arrival) {
                lanes[t].queue.push(*r);
            } else {
                rejected[t] += 1;
                fault_span(r.arrival, 0.0, || {
                    (
                        format!("reject request {}", r.id),
                        vec![
                            (trace::intern("reason").into(), trace::intern("admission").into()),
                            (
                                trace::intern("tenant").into(),
                                trace::intern(&tenants[t].name).into(),
                            ),
                        ],
                    )
                });
            }
        }
    } else {
        lanes[0].queue = requests;
    }

    let mut cache = PlanCache::new(engine, net, cfg.mechanism);
    let mut latencies = vec![0.0f64; n_requests];
    let mut batches: Vec<BatchRecord> = Vec::new();
    let mut stats = FaultStats::default();
    let mut shed_requests = 0usize;
    let mut shed_by = vec![0u64; nlanes];
    let mut plan_ooms = 0u64;
    let mut gpu_free = 0.0f64;
    // Monotonic launch-attempt counter: the fault stream's index. Every
    // attempt (retries included) consumes one index, so retries roll
    // fresh faults and the whole timeline is replayable from the seed.
    let mut launches: u64 = 0;
    // Permanent batch cap learned from plan-time OOM (buckets the device
    // cannot even compile), and the circuit-breaker pin from execute-time
    // OOM (buckets it currently cannot run).
    let mut plan_cap = max;
    let mut pin: Option<usize> = None;
    let mut clean_streak: u64 = 0;
    // Timeline instrumentation: every gauge reads loop-local state at a
    // simulated event boundary. Plan-cache hit accounting is loop-local
    // too (a bucket seen before is a hit) — the *global* perf counters
    // also see prewarm traffic and would not be deterministic here.
    // Every recorder handle resolves once, so per-sample emission is an
    // index push; unused registrations drop out of the finished timeline.
    let mut rec = Recorder::default();
    let id_shed_total = rec.gauge_id("shed.total");
    let id_queue_depth = rec.gauge_id("queue.depth");
    let id_batch_images = rec.gauge_id("batch.images");
    let id_batch_bucket = rec.gauge_id("batch.bucket");
    let id_util = rec.gauge_id("util");
    let id_hit_rate = rec.gauge_id("plan_cache.hit_rate");
    let id_degraded = rec.gauge_id("degraded");
    let id_violations = rec.gauge_id("slo.violations");
    let tenant_keys: Vec<_> = tenants.iter().map(|t| rec.latency_key(&t.name)).collect();
    let tenant_violation_ids: Vec<Option<GaugeId>> = tenants
        .iter()
        .map(|t| {
            t.class.p99_budget().map(|_| rec.gauge_id(&format!("tenant.{}.violations", t.name)))
        })
        .collect();
    let mut seen_buckets: BTreeSet<usize> = BTreeSet::new();
    let mut cache_lookups = 0u64;
    let mut cache_hits = 0u64;
    let mut busy = 0.0f64;
    // SLO accounting: fairness credits plus per-tenant tallies. Each
    // component is tallied independently (completions at batch done,
    // sheds at the shed sites, rejections above) so the balance check is
    // a real invariant.
    let mut credits = vec![0.0f64; nlanes];
    let mut completed = vec![0u64; nt];
    let mut images_by = vec![0u64; nt];
    let mut violations = vec![0u64; nt];
    let mut early = 0u64;
    let mut preempts = 0u64;
    // Cached per-lane arbitration keys: a lane recomputes its tentative
    // launch only when its own `(next, emax)` fingerprint changed or the
    // device clock moved past its oldest pending arrival (see
    // [`LaneKey`]). Commits touch one lane; the others' keys survive.
    let mut lane_keys: Vec<Option<LaneKey>> = (0..nlanes).map(|_| None).collect();

    loop {
        // Deadline-based load shedding, per lane at the device clock:
        // when the device frees up, drop head-of-line requests that have
        // already waited past the shed deadline — serving them would only
        // make everyone later.
        if let Some(deadline) = pol.shed_deadline {
            for (t, lane) in lanes.iter_mut().enumerate() {
                while lane.has_pending() && gpu_free - lane.queue[lane.next].arrival > deadline {
                    let r = &lane.queue[lane.next];
                    fault_span(gpu_free, 0.0, || {
                        let mut args = vec![(
                            trace::intern("reason").into(),
                            trace::intern("deadline").into(),
                        )];
                        if let Some(spec) = tenants.get(t) {
                            args.push((
                                trace::intern("tenant").into(),
                                trace::intern(&spec.name).into(),
                            ));
                        }
                        (format!("shed request {}", r.id), args)
                    });
                    shed_requests += 1;
                    shed_by[t] += 1;
                    lane.next += 1;
                    rec.gauge_at(id_shed_total, gpu_free, shed_requests as f64);
                }
            }
        }

        let emax = plan_cap.min(pin.unwrap_or(plan_cap)).max(1);
        // Lane arbitration: earliest launch under each lane's own commit
        // budget; exact launch ties break by fairness credit, then class
        // rank, then lane order (deterministic keep-first). Launches come
        // from the incrementally settled [`LaneKey`] cache; credits and
        // ranks are read fresh (they are O(1) lookups and change on every
        // settle).
        let mut best: Option<(f64, usize)> = None;
        for (t, lane) in lanes.iter().enumerate() {
            if !lane.has_pending() {
                continue;
            }
            let oldest = lane.queue[lane.next].arrival;
            let launch = match &lane_keys[t] {
                Some(k) if k.valid(lane.next, emax, gpu_free, oldest) => k.launch,
                _ => {
                    let fresh = window_launch(&lane.queue, lane.next, gpu_free, emax, budgets[t]);
                    lane_keys[t] = Some(LaneKey { next: lane.next, emax, gpu_free, launch: fresh });
                    fresh
                }
            };
            debug_assert_eq!(
                launch.to_bits(),
                window_launch(&lane.queue, lane.next, gpu_free, emax, budgets[t]).to_bits(),
                "lane-key cache diverged from a fresh window_launch"
            );
            let take = match best {
                None => true,
                Some((bl, bt)) => {
                    lane_beats((launch, credits[t], ranks[t]), (bl, credits[bt], ranks[bt]))
                }
            };
            if take {
                best = Some((launch, t));
            }
        }
        let Some((launch, t)) = best else { break };
        let (j_end, images, full) = form(&lanes[t].queue, lanes[t].next, launch, emax);
        debug_assert!(j_end > lanes[t].next, "a committed batch serves at least one request");
        let bucket = bucket_for(images, emax);
        // Early commit: the class budget (tighter than the policy delay)
        // fired before the batch filled — the deadline-aware rule
        // launched a part-full batch to protect the budget. Computed
        // here, applied only if the plan resolves below, so a plan-OOM
        // re-selection is not double-counted.
        let early_hit = !full
            && budgets[t] < delay
            && launch == lanes[t].queue[lanes[t].next].arrival + budgets[t];
        // Preemption: this lane won the slot from a lane whose tentative
        // batch would have launched later with more images — the
        // large-bucket launch the deadline rule displaced.
        let mut preempt_hit = false;
        for (u, other) in lanes.iter().enumerate() {
            if u != t && lane_preempts(other, budgets[u], gpu_free, emax, launch, images) {
                preempt_hit = true;
                break;
            }
        }
        cache_lookups += 1;
        if !seen_buckets.insert(bucket) {
            cache_hits += 1;
        }
        let plan = match cache.get(bucket) {
            Ok(plan) => plan,
            Err(err @ EngineError::PlanOom { .. }) => {
                // The bucket does not even compile on this device: lower
                // the cap permanently and re-form (the library home of the
                // bench binary's OOM-aware max-batch fallback).
                if bucket <= 1 {
                    return Err(err);
                }
                plan_ooms += 1;
                fault_span(launch, 0.0, || {
                    (
                        format!("plan OOM at bucket {bucket}"),
                        vec![(
                            trace::intern("new_cap").into(),
                            trace::intern(&(bucket / 2).to_string()).into(),
                        )],
                    )
                });
                plan_cap = (bucket / 2).max(1);
                continue;
            }
            Err(err) => return Err(err),
        };
        let service = plan.total_time();
        if early_hit {
            early += 1;
        }
        if preempt_hit {
            preempts += 1;
        }

        // Launch-attempt loop: retry transients with backoff, downshift on
        // OOM, shed at exhaustion. Each attempt consumes one launch index.
        let LadderEnd { outcome, attempts: attempt, throttles } = launch_ladder(
            engine,
            plan,
            fplan.as_ref(),
            &mut launches,
            &mut stats,
            &pol,
            bucket,
            launch,
            None,
        )?;

        match outcome {
            Outcome::Done { done } => {
                let reqs = j_end - lanes[t].next;
                {
                    let lane = &mut lanes[t];
                    for r in &lane.queue[lane.next..j_end] {
                        let latency = done - r.arrival;
                        latencies[r.id as usize] = latency;
                        rec.observe_latency(latency);
                        if slo {
                            rec.observe_latency_keyed_at(tenant_keys[t], latency);
                            completed[t] += 1;
                            images_by[t] += r.images as u64;
                            if p99s[t].is_some_and(|b| latency > b) {
                                violations[t] += 1;
                            }
                        }
                    }
                    lane.next = j_end;
                }
                // Queue pressure left behind: requests arrived by launch,
                // not taken, across every lane. Lanes hold their requests
                // in arrival order, so each lane's count is a binary
                // search instead of a walk over the rest of the stream.
                let depth: usize = lanes
                    .iter()
                    .map(|l| {
                        let arrived = l.pending().partition_point(|r| r.arrival <= launch);
                        debug_assert_eq!(
                            arrived,
                            l.pending().iter().filter(|r| r.arrival <= launch).count(),
                            "lane queue out of arrival order"
                        );
                        arrived
                    })
                    .sum();
                {
                    let idx = batches.len();
                    trace::record_span(|| {
                        let mut args = Vec::with_capacity(4);
                        if let Some(spec) = tenants.get(t) {
                            args.push((
                                trace::intern("tenant").into(),
                                trace::intern(&spec.name).into(),
                            ));
                        }
                        for (key, value) in
                            [("requests", reqs), ("images", images), ("bucket", bucket)]
                        {
                            args.push((
                                trace::intern(key).into(),
                                trace::intern(&value.to_string()).into(),
                            ));
                        }
                        trace::SpanEvent {
                            name: format!("batch {idx} (N={bucket})"),
                            track: trace::Track::Serve,
                            ts_us: launch * 1e6,
                            dur_us: service * 1e6,
                            args,
                        }
                    });
                }
                batches.push(BatchRecord {
                    launch,
                    done,
                    requests: reqs,
                    images,
                    bucket,
                    queue_depth: depth,
                    attempts: attempt,
                    throttled: throttles,
                });
                // Circuit breaker: a clean batch (no retries, no throttles)
                // extends the recovery streak; enough of them unpin the
                // bucket cap.
                if pin.is_some() {
                    if attempt == 0 && throttles == 0 {
                        clean_streak += 1;
                        if clean_streak >= pol.recovery_batches {
                            stats.degraded_exits += 1;
                            fault_span(done, 0.0, || {
                                (
                                    "leave degraded mode".to_string(),
                                    vec![(
                                        trace::intern("clean_batches").into(),
                                        trace::intern(&clean_streak.to_string()).into(),
                                    )],
                                )
                            });
                            pin = None;
                            clean_streak = 0;
                        }
                    } else {
                        clean_streak = 0;
                    }
                }
                busy += done - launch;
                rec.gauge_at(id_queue_depth, done, depth as f64);
                rec.gauge_at(id_batch_images, done, images as f64);
                rec.gauge_at(id_batch_bucket, done, bucket as f64);
                rec.gauge_at(id_util, done, if done > 0.0 { busy / done } else { 0.0 });
                rec.gauge_at(id_hit_rate, done, cache_hits as f64 / cache_lookups as f64);
                rec.gauge_at(id_degraded, done, if pin.is_some() { 1.0 } else { 0.0 });
                rec.gauge_at(id_shed_total, done, shed_requests as f64);
                if slo {
                    rec.gauge_at(id_violations, done, violations.iter().sum::<u64>() as f64);
                    for (u, id) in tenant_violation_ids.iter().enumerate() {
                        if let Some(id) = *id {
                            rec.gauge_at(id, done, violations[u] as f64);
                        }
                    }
                }
                rec.sample_window(done);
                gpu_free = done;
                if slo {
                    settle_credits(&mut credits, tenants, |u| lanes[u].has_pending(), t, images);
                }
            }
            Outcome::Shed { at } => {
                // The batch's requests are dropped; their latencies keep
                // the 0.0 sentinel. The device time burned is real.
                let lane = &mut lanes[t];
                let batch_shed = j_end - lane.next;
                shed_requests += batch_shed;
                shed_by[t] += batch_shed as u64;
                lane.next = j_end;
                busy += at - launch;
                rec.gauge_at(id_shed_total, at, shed_requests as f64);
                rec.gauge_at(id_util, at, if at > 0.0 { busy / at } else { 0.0 });
                gpu_free = at;
                if slo {
                    settle_credits(&mut credits, tenants, |u| lanes[u].has_pending(), t, images);
                }
            }
            Outcome::Downshift { at } => {
                // Pin the halved bucket and re-form the same requests at
                // the smaller cap; entering degraded mode is counted once
                // per excursion (deeper downshifts just lower the pin).
                if pin.is_none() {
                    stats.degraded_entries += 1;
                }
                pin = Some((bucket / 2).max(1));
                clean_streak = 0;
                busy += at - launch;
                rec.gauge_at(id_degraded, at, 1.0);
                gpu_free = at;
            }
        }
    }
    perf::add("serve.batches", batches.len() as u64);
    perf::add("serve.shed", shed_requests as u64);
    perf::add("serve.plan.oom", plan_ooms);
    perf::add("fault.injected", stats.injected);
    perf::add("fault.retried", stats.retried);
    perf::add("fault.degraded", stats.degraded);
    perf::add("fault.shed", stats.shed);
    perf::add("serve.degraded.enter", stats.degraded_entries);
    perf::add("serve.degraded.exit", stats.degraded_exits);
    debug_assert!(stats.balanced(), "fault accounting out of balance: {stats:?}");

    // Per-bucket rollup against the compiled plans.
    let mut buckets: Vec<BucketStats> = Vec::new();
    for (&bucket, plan) in cache.plans() {
        let hits: Vec<&BatchRecord> = batches.iter().filter(|b| b.bucket == bucket).collect();
        let images: usize = hits.iter().map(|b| b.images).sum();
        buckets.push(BucketStats {
            bucket,
            batches: hits.len(),
            images,
            fill: if hits.is_empty() { 0.0 } else { images as f64 / (hits.len() * bucket) as f64 },
            conv_layouts: plan.conv_layout_signature(),
            transforms: plan.transform_count(),
            service_time: plan.total_time(),
        });
    }

    let slo = slo.then(|| {
        let in_flight: Vec<u64> = lanes.iter().map(|l| l.pending().len() as u64).collect();
        slo_report(
            tenants,
            &latencies,
            &tags,
            &admitted,
            &rejected,
            &completed,
            &shed_by,
            &in_flight,
            &images_by,
            &violations,
            early,
            preempts,
            // No device lifecycle on the single-device path: nothing fails
            // over, and `busy` is the one device's occupied seconds.
            &vec![0u64; nt],
            &vec![0u64; nt],
            busy,
        )
    });

    let timeline = rec.finish();
    // Mirror the timeline onto the Perfetto counter tracks (a no-op when
    // tracing is inactive).
    timeline.emit_trace_counters(trace::Track::Serve);

    Ok(ServeReport {
        network: net.name.clone(),
        config: cfg.clone(),
        requests: n_requests,
        images: batches.iter().map(|b| b.images).sum(),
        makespan: gpu_free,
        latencies,
        batches,
        buckets,
        shed_requests,
        faults: stats,
        timeline,
        slo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Arrival, Phase};
    use memcnn_core::{LayoutThresholds, NetworkBuilder};
    use memcnn_gpusim::DeviceConfig;
    use memcnn_tensor::Shape;

    fn tiny_engine() -> Engine {
        Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
    }

    fn tiny_net() -> Network {
        NetworkBuilder::new("tiny-serve", Shape::new(1, 4, 16, 16))
            .conv("CV", 8, 3, 1, 1)
            .max_pool("PL", 2, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn every_request_is_served_with_positive_latency() {
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 400.0 }, duration: 0.2 }],
                images_min: 1,
                images_max: 4,
                seed: 5,
            },
            BatchPolicy::new(32, 0.005),
        );
        let report = serve(&engine, &net, &cfg).unwrap();
        assert!(report.requests > 0);
        assert_eq!(report.latencies.len(), report.requests);
        assert!(report.latencies.iter().all(|&l| l > 0.0));
        assert_eq!(report.batches.iter().map(|b| b.requests).sum::<usize>(), report.requests);
        assert!(report.makespan > 0.0);
        assert_eq!(report.shed_requests, 0);
        assert_eq!(report.faults, FaultStats::default());
        assert!(report.batches.iter().all(|b| b.attempts == 0 && b.throttled == 0));
        let lat = report.latency();
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max);
    }

    #[test]
    fn batches_respect_policy_and_buckets_cover_batches() {
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 2000.0 }, duration: 0.1 }],
                images_min: 1,
                images_max: 3,
                seed: 9,
            },
            BatchPolicy::new(16, 0.002),
        );
        let report = serve(&engine, &net, &cfg).unwrap();
        for b in &report.batches {
            assert!(b.images <= 16);
            assert!(b.bucket >= b.images);
            assert!(b.done > b.launch);
        }
        // Batches never overlap on the single device.
        for w in report.batches.windows(2) {
            assert!(w[0].done <= w[1].launch + 1e-12);
        }
        // Every bucket used by a batch has stats and a compiled plan.
        for b in &report.batches {
            assert!(report.buckets.iter().any(|s| s.bucket == b.bucket));
        }
        for s in &report.buckets {
            assert!(s.fill > 0.0 && s.fill <= 1.0);
            assert!(!s.conv_layouts.is_empty());
        }
    }

    #[test]
    fn quiet_stream_launches_on_deadline_not_full() {
        // 10 req/s with a 1 ms delay cap: every batch is a single request
        // launched at its deadline (service time is far below the gap).
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Uniform { rate: 10.0 }, duration: 1.0 }],
                images_min: 1,
                images_max: 1,
                seed: 2,
            },
            BatchPolicy::new(64, 0.001),
        );
        let report = serve(&engine, &net, &cfg).unwrap();
        assert!(report.batches.iter().all(|b| b.requests == 1 && b.bucket == 1));
        for (b, r) in report.batches.iter().zip(&report.latencies) {
            // Latency = queue delay cap + service time.
            assert!((r - (0.001 + (b.done - b.launch))).abs() < 1e-9);
        }
    }

    #[test]
    fn certain_transients_shed_everything_without_panicking() {
        // launch_failed = 1.0: every attempt of every batch fails, retries
        // exhaust, every request is shed — and the run still returns Ok
        // with balanced accounting.
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Uniform { rate: 100.0 }, duration: 0.1 }],
                images_min: 1,
                images_max: 2,
                seed: 3,
            },
            BatchPolicy::new(8, 0.002),
        )
        .with_faults(
            FaultPlan::new(7, 1.0, 0.0, 0.0),
            FaultPolicy { max_retries: 2, ..FaultPolicy::default() },
        );
        let report = serve(&engine, &net, &cfg).unwrap();
        assert_eq!(report.shed_requests, report.requests);
        assert!(report.batches.is_empty());
        assert!(report.latencies.iter().all(|&l| l == 0.0));
        assert!(report.faults.balanced());
        // Every batch tried 1 + max_retries times: 2 retried + 1 shed per
        // formed batch, all injected.
        assert_eq!(report.faults.injected, report.faults.retried + report.faults.shed);
        assert_eq!(report.faults.retried, 2 * report.faults.shed);
        assert_eq!(report.latency().count, 0);
    }

    #[test]
    fn certain_throttles_slow_everything_but_serve_everything() {
        let engine = tiny_engine();
        let net = tiny_net();
        let workload = WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Uniform { rate: 100.0 }, duration: 0.1 }],
            images_min: 1,
            images_max: 2,
            seed: 3,
        };
        let policy = BatchPolicy::new(8, 0.002);
        let clean = serve(&engine, &net, &ServeConfig::new(workload.clone(), policy)).unwrap();
        let cfg = ServeConfig::new(workload, policy).with_faults(
            FaultPlan::new(7, 0.0, 0.0, 1.0).with_throttle_factor(3.0),
            FaultPolicy::default(),
        );
        let throttled = serve(&engine, &net, &cfg).unwrap();
        assert_eq!(throttled.shed_requests, 0);
        assert_eq!(throttled.requests, clean.requests);
        assert!(throttled.faults.balanced());
        assert_eq!(throttled.faults.injected, throttled.faults.throttled);
        assert_eq!(throttled.faults.degraded, throttled.faults.throttled);
        assert!(throttled.faults.throttled > 0);
        // Everything served, just slower.
        assert!(throttled.makespan > clean.makespan);
        assert!(throttled.latency().mean > clean.latency().mean);
    }

    fn mix() -> Vec<TenantSpec> {
        vec![
            TenantSpec::interactive("chat", 0.02, 1.0),
            TenantSpec::standard("web", 1.0),
            TenantSpec::best_effort("batch", 1.0),
        ]
    }

    #[test]
    fn tenant_run_serves_everything_with_balanced_accounting() {
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 400.0 }, duration: 0.2 }],
                images_min: 1,
                images_max: 4,
                seed: 5,
            },
            BatchPolicy::new(32, 0.005),
        )
        .with_tenants(mix());
        let report = serve(&engine, &net, &cfg).unwrap();
        assert!(report.requests > 0);
        assert!(report.latencies.iter().all(|&l| l > 0.0));
        let slo = report.slo.as_ref().unwrap();
        assert!(slo.balanced());
        assert_eq!(slo.tenants.len(), 3);
        assert_eq!(slo.rejected, 0);
        assert_eq!(slo.tenants.iter().map(|t| t.admitted).sum::<u64>(), report.requests as u64);
        assert_eq!(slo.tenants.iter().map(|t| t.completed).sum::<u64>(), report.requests as u64);
        // Keyed histograms landed per tenant, and every tenant served.
        for t in &slo.tenants {
            assert!(t.completed > 0, "tenant {} starved", t.name);
            assert_eq!(report.timeline.keyed_hist(&t.name).map(|h| h.count()), Some(t.completed));
        }
        // Fairness is finite when nobody starved.
        assert!(slo.fairness.ratio >= 1.0);
        // Replays bit-identically.
        let again = serve(&engine, &net, &cfg).unwrap();
        let bits =
            |r: &ServeReport| -> Vec<u64> { r.latencies.iter().map(|l| l.to_bits()).collect() };
        assert_eq!(bits(&report), bits(&again));
    }

    #[test]
    fn rate_limited_tenant_rejects_and_stays_balanced() {
        let engine = tiny_engine();
        let net = tiny_net();
        let tenants = vec![
            TenantSpec::interactive("chat", 0.02, 1.0),
            TenantSpec::best_effort("batch", 1.0).with_rate_limit(20.0),
        ];
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 800.0 }, duration: 0.2 }],
                images_min: 1,
                images_max: 4,
                seed: 7,
            },
            BatchPolicy::new(32, 0.005),
        )
        .with_tenants(tenants);
        let report = serve(&engine, &net, &cfg).unwrap();
        let slo = report.slo.as_ref().unwrap();
        assert!(slo.balanced());
        assert!(slo.rejected > 0, "the 20 req/s cap must reject under ~400 req/s of traffic");
        let capped = &slo.tenants[1];
        assert!(capped.rejected > 0 && capped.completed > 0);
        // Rejected requests keep the 0.0 sentinel and are excluded from
        // the latency summary.
        assert_eq!(
            report.latency().count as u64,
            slo.tenants.iter().map(|t| t.completed).sum::<u64>()
        );
        assert_eq!(
            report.latencies.iter().filter(|&&l| l == 0.0).count() as u64,
            slo.rejected,
            "only rejected requests may hold the sentinel in a shed-free run"
        );
    }

    #[test]
    fn interactive_budget_commits_earlier_than_class_blind() {
        // A tight interactive budget must cut that tenant's p99 below
        // the class-blind run's, and the early-commit counter must see
        // the deadline rule fire.
        let engine = tiny_engine();
        let net = tiny_net();
        let wl = WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Poisson { rate: 300.0 }, duration: 0.3 }],
            images_min: 1,
            images_max: 4,
            seed: 11,
        };
        let policy = BatchPolicy::new(64, 0.02);
        let tenants = vec![
            TenantSpec::interactive("chat", 0.008, 1.0),
            TenantSpec::best_effort("batch", 1.0),
        ];
        let aware = serve(
            &engine,
            &net,
            &ServeConfig::new(wl.clone(), policy).with_tenants(tenants.clone()),
        )
        .unwrap();
        let blind = serve(&engine, &net, &ServeConfig::new(wl, policy)).unwrap();
        let slo = aware.slo.as_ref().unwrap();
        assert!(slo.early_commits > 0, "the 4 ms interactive budget must fire early commits");
        let chat_p99 = slo.tenants[0].latency.p99;
        assert!(
            chat_p99 < blind.latency().p99,
            "interactive p99 {chat_p99} must beat class-blind {}",
            blind.latency().p99
        );
    }
}
