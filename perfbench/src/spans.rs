//! Host-time spans recorded from outside the library crates.
//!
//! In a traced run every call the benchmark makes into a workspace crate
//! goes through [`call`], which records a span tagged with the crate it
//! enters (its *layer*), the span that was open when it started (its
//! parent) and the operation it belongs to: one plan or one serving pass,
//! opened with [`op`]. Spans stay in memory until the run ends, when they
//! are written out as Chrome trace-event JSON and folded into a self-time
//! table per layer. In an untraced run [`call`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The crate a span's call enters. `Bench` is the benchmark's own code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark itself: operation roots and its own bookkeeping.
    Bench,
    /// `memcnn-gpusim`: the simulator and its process-wide cache.
    Gpusim,
    /// `memcnn-core`: planning, autotune and plan execution.
    Core,
    /// `memcnn-serve`: stream generation and the serving loops.
    Serve,
    /// `memcnn-metrics`: timelines and histograms.
    Metrics,
    /// `memcnn-trace`: the perf-counter registry.
    Trace,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 6] =
        [Layer::Bench, Layer::Gpusim, Layer::Core, Layer::Serve, Layer::Metrics, Layer::Trace];

    /// The layer's name in metric names and trace categories.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Gpusim => "gpusim",
            Layer::Core => "core",
            Layer::Serve => "serve",
            Layer::Metrics => "metrics",
            Layer::Trace => "trace",
        }
    }
}

/// One recorded span, in nanoseconds since the recorder was enabled.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// The crate the call entered.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (plan or serving pass) the span belongs to; 0 outside one.
    pub op: u64,
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    paused: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    ops: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start recording spans on this thread (a traced run).
pub fn enable() {
    REC.with(|r| *r.borrow_mut() = Recorder { epoch: Some(Instant::now()), ..Recorder::default() });
}

/// Pause or resume recording; spans already recorded are kept.
pub fn pause(paused: bool) {
    REC.with(|r| r.borrow_mut().paused = paused);
}

/// Stop recording and hand back every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()).spans)
}

fn begin(name: &str, layer: Layer, new_op: bool) -> Option<usize> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let epoch = r.epoch.filter(|_| !r.paused)?;
        if new_op {
            r.ops += 1;
            r.op = r.ops;
        }
        let span = Span {
            name: name.to_string(),
            layer,
            start: epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent: r.open.last().copied(),
            op: r.op,
        };
        r.spans.push(span);
        let id = r.spans.len() - 1;
        r.open.push(id);
        Some(id)
    })
}

fn end(id: Option<usize>) {
    let Some(id) = id else { return };
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(epoch) = r.epoch {
            r.spans[id].end = epoch.elapsed().as_nanos() as u64;
            r.open.pop();
            if r.open.is_empty() {
                r.op = 0;
            }
        }
    });
}

/// Run `f`, a call into `layer`, inside a span named `name`.
pub fn call<T>(layer: Layer, name: &str, f: impl FnOnce() -> T) -> T {
    let id = begin(name, layer, false);
    let out = f();
    end(id);
    out
}

/// Run `f` as one operation: a root span of the benchmark's own layer
/// whose id every span inside it shares.
pub fn op<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let id = begin(name, Layer::Bench, true);
    let out = f();
    end(id);
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children that overlap each other count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Self time per layer, ns, summed over every span of that layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut out: BTreeMap<Layer, u64> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_default() += t;
    }
    out
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The spans as Chrome trace-event JSON (complete `X` events, µs).
pub fn chrome_json(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_str(&mut out, &s.name);
        let _ = write!(
            out,
            ",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"op\":{},\"parent\":{}}}}}",
            s.layer.name(),
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.op,
            s.parent.map_or(-1, |p| p as i64),
        );
    }
    out.push_str("],\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, k);
        out.push(':');
        json_str(&mut out, v);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: "s".into(), layer, start, end, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ core [10,60) ⊃ gpusim [20,30); serve [70,90).
        let spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::Core, 10, 60, Some(0)),
            span(Layer::Gpusim, 20, 30, Some(1)),
            span(Layer::Serve, 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let by_layer = layer_self_times(&spans);
        assert_eq!(by_layer[&Layer::Bench], 30);
        assert_eq!(by_layer[&Layer::Core], 40);
        assert_eq!(by_layer[&Layer::Trace], 0);
        // Self times partition the root's duration.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50) and [30,70) overlap on [30,50): they cover
        // [10,70) = 60 of the parent, not 80. A child that pokes out of
        // its parent is clipped to it.
        let spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::Core, 10, 50, Some(0)),
            span(Layer::Core, 30, 70, Some(0)),
            span(Layer::Serve, 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        assert_eq!(covered(vec![(5, 8), (1, 3), (2, 4)], 0, 10), 6);
        assert_eq!(covered(vec![], 0, 10), 0);
    }

    #[test]
    fn recorder_nests_spans_and_groups_them_into_operations() {
        enable();
        let v = op("pass", || {
            call(Layer::Core, "plan", || call(Layer::Gpusim, "sim", || 7))
                + call(Layer::Serve, "serve", || 1)
        });
        op("second", || ());
        pause(true);
        call(Layer::Core, "paused", || ());
        pause(false);
        call(Layer::Trace, "outside", || ());
        let spans = take();
        assert_eq!(v, 8);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["pass", "plan", "sim", "serve", "second", "outside"]);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0), None, None]);
        let ops: Vec<u64> = spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, [1, 1, 1, 1, 2, 0]);
        assert!(spans.iter().all(|s| s.start <= s.end));
        // Disabled again after take(): calls record nothing.
        call(Layer::Core, "untraced", || ());
        assert!(take().is_empty());
    }

    #[test]
    fn chrome_json_escapes_names_and_carries_meta() {
        let spans = vec![Span { name: "a\"b".into(), ..span(Layer::Serve, 1000, 3500, None) }];
        let json = chrome_json(&spans, &[("workload", "stream".into())]);
        assert!(json.contains(r#""name":"a\"b""#));
        assert!(json.contains(r#""cat":"serve","ph":"X""#));
        assert!(json.contains(r#""ts":1.000,"dur":2.500"#));
        assert!(json.contains(r#""parent":-1"#));
        assert!(json.ends_with(r#""otherData":{"workload":"stream"}}"#));
    }
}
