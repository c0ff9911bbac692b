//! Point-in-time metric snapshots and the prometheus-style text encoder.

use std::fmt::Write as _;

use crate::metrics::Exemplar;

/// A frozen copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bounds, sorted ascending (the implicit `+Inf` bucket is not
    /// listed here but is present as the last entry of `buckets`).
    pub bounds: Vec<u64>,
    /// Non-cumulative per-bucket counts; `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total observations; always equals `buckets.iter().sum()`.
    pub count: u64,
    /// The largest traced observation and its trace id, if any landed.
    pub exemplar: Option<Exemplar>,
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One metric at snapshot time: name, sorted labels, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name, e.g. `orb_selection_total`.
    pub name: String,
    /// Canonically sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: Value,
}

/// A point-in-time copy of a registry, sorted by `(name, labels)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All samples, sorted by `(name, labels)`.
    pub samples: Vec<Sample>,
}

fn labels_match(sample: &Sample, labels: &[(&str, &str)]) -> bool {
    sample.labels.len() == labels.len()
        && labels
            .iter()
            .all(|(k, v)| sample.labels.iter().any(|(sk, sv)| sk == k && sv == v))
}

impl Snapshot {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The counter `name{labels}`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.samples.iter().find_map(|s| match &s.value {
            Value::Counter(v) if s.name == name && labels_match(s, labels) => Some(*v),
            _ => None,
        })
    }

    /// Sum of the counter `name` across every label set.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                Value::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// The gauge `name{labels}`, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.samples.iter().find_map(|s| match &s.value {
            Value::Gauge(v) if s.name == name && labels_match(s, labels) => Some(*v),
            _ => None,
        })
    }

    /// The histogram `name{labels}`, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.samples.iter().find_map(|s| match &s.value {
            Value::Histogram(h) if s.name == name && labels_match(s, labels) => Some(h),
            _ => None,
        })
    }

    /// Encode in the prometheus text exposition format.
    ///
    /// Counters and gauges emit one line each; histograms emit cumulative
    /// `_bucket{le="..."}` lines (ending with `le="+Inf"`) plus `_sum` and
    /// `_count`. Output is deterministic: samples are already sorted.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            match &s.value {
                Value::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, fmt_labels(&s.labels, None), v);
                }
                Value::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, fmt_labels(&s.labels, None), v);
                }
                Value::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        cumulative += bucket;
                        let le = match h.bounds.get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            fmt_labels(&s.labels, Some(&le)),
                            cumulative
                        );
                    }
                    let _ =
                        writeln!(out, "{}_sum{} {}", s.name, fmt_labels(&s.labels, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        fmt_labels(&s.labels, None),
                        h.count
                    );
                    if let Some(ex) = &h.exemplar {
                        // OpenMetrics-flavored exemplar comment: links the
                        // max observation back to its causal trace.
                        let _ = writeln!(
                            out,
                            "# {}_max{} {} trace_id=\"{:032x}\"",
                            s.name,
                            fmt_labels(&s.labels, None),
                            ex.value,
                            ex.trace_id
                        );
                    }
                }
            }
        }
        out
    }
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn fmt_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{}\"", le));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn text_encoder_counters_and_gauges() {
        let r = Registry::new();
        r.counter("reqs_total", &[("proto", "tcp")]).add(7);
        r.gauge("depth", &[]).set(-2);
        let text = r.snapshot().to_text();
        assert!(text.contains("reqs_total{proto=\"tcp\"} 7\n"), "{text}");
        assert!(text.contains("depth -2\n"), "{text}");
    }

    #[test]
    fn text_encoder_histogram_is_cumulative() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("lat_ns", &[("op", "x")], &[10, 20]);
        h.observe(5);
        h.observe(15);
        h.observe(99);
        let text = r.snapshot().to_text();
        assert!(text.contains("lat_ns_bucket{op=\"x\",le=\"10\"} 1\n"), "{text}");
        assert!(text.contains("lat_ns_bucket{op=\"x\",le=\"20\"} 2\n"), "{text}");
        assert!(text.contains("lat_ns_bucket{op=\"x\",le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_ns_sum{op=\"x\"} 119\n"), "{text}");
        assert!(text.contains("lat_ns_count{op=\"x\"} 3\n"), "{text}");
    }

    #[test]
    fn text_encoder_emits_exemplar_comment() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("lat_ns", &[], &[10]);
        h.observe_traced(7, 0xFACE);
        let text = r.snapshot().to_text();
        assert!(
            text.contains("# lat_ns_max 7 trace_id=\"0000000000000000000000000000face\""),
            "{text}"
        );
    }

    #[test]
    fn text_encoder_escapes_label_values() {
        let r = Registry::new();
        r.counter("weird", &[("msg", "a\"b\\c\nd")]).inc();
        let text = r.snapshot().to_text();
        assert!(text.contains("weird{msg=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let r = Registry::new();
        r.counter("z_total", &[]).inc();
        r.counter("a_total", &[("l", "2")]).inc();
        r.counter("a_total", &[("l", "1")]).inc();
        let text = r.snapshot().to_text();
        let z = text.find("z_total").expect("z_total present");
        let a1 = text.find("a_total{l=\"1\"}").expect("a_total l=1 present");
        let a2 = text.find("a_total{l=\"2\"}").expect("a_total l=2 present");
        assert!(a1 < a2 && a2 < z, "{text}");
        assert_eq!(text, r.snapshot().to_text());
    }

    #[test]
    fn lookup_helpers() {
        let r = Registry::new();
        r.counter("c", &[("a", "1")]).add(2);
        r.counter("c", &[("a", "2")]).add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c", &[("a", "1")]), Some(2));
        assert_eq!(snap.counter("c", &[("a", "3")]), None);
        assert_eq!(snap.counter_total("c"), 5);
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
    }
}
