//! The benchmark's result: named metrics with units, operation counts,
//! and the one-line JSON object that ends standard output.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Where it was measured and from how many samples, for the
    /// human-readable table (not part of the JSON line).
    pub note: String,
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed, summed over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations the run attempted (plans and requests).
    pub attempted: u64,
    /// Operations that failed: an erroring plan, a shed or rejected
    /// request, or any output that failed a check.
    pub failed: u64,
}

impl std::ops::AddAssign for Ops {
    fn add_assign(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Errors on an illegal or repeated name or a non-finite value, which
/// would make the line unreadable.
pub fn json_line(correct: bool, ops: Ops, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        ops.attempted, ops.failed
    );
    let mut seen = std::collections::BTreeSet::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) || !seen.insert(m.name.as_str()) {
            return Err(format!("bad or repeated metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push(',');
        }
        // `{:?}` prints the shortest string that reads back to the same f64.
        let _ = write!(out, "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64) -> Metric {
        Metric { name: name.into(), unit: "ms", value, note: String::new() }
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["setup_s", "plan_warm_ms.p50", "sim.vgg16.ms.conv_chwn", "k-scaling", "0x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".p50", "_x", "a b", "a/b", "µs", "a:b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn json_line_keeps_every_digit_and_rejects_bad_metrics() {
        let line = json_line(
            true,
            Ops { attempted: 3, failed: 1 },
            &[metric("a", 0.1 + 0.2), metric("b", 2.0)],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":1,\"metrics\":{\
             \"a\":{\"value\":0.30000000000000004,\"unit\":\"ms\"},\
             \"b\":{\"value\":2.0,\"unit\":\"ms\"}}}"
        );
        assert!(json_line(true, Ops::default(), &[metric("a b", 1.0)]).is_err());
        assert!(json_line(true, Ops::default(), &[metric("a", 1.0), metric("a", 2.0)]).is_err());
        assert!(json_line(true, Ops::default(), &[metric("a", f64::NAN)]).is_err());
    }
}
