//! The profile capture's views: Chrome `trace_event` export and a
//! flamegraph-style text summary.
//!
//! [`chrome_trace`] serialises a capture's recorder events in the Trace
//! Event Format consumed by Perfetto (`ui.perfetto.dev`) and
//! `chrome://tracing`: a `traceEvents` array of `B`/`E` duration events
//! (stage brackets and spans) and `X` complete events (kernel launches,
//! lasting their simulated time), timestamps in microseconds, one `pid`
//! for the process and the recorder's dense `tid` per lane. Other event
//! kinds (allocations, stream operations, faults) stay black-box only.
//!
//! [`flame_summary`] folds the same events into an indented inclusive-
//! time tree per lane — the quick look when loading a UI is overkill.

use std::collections::BTreeMap;

use crate::flight::{FlightEvent, FlightKind};

/// Lane labels of a capture: each lane that issued a launch on a
/// gpu-sim stream is named after that stream (`stream-<n>`, or
/// `dev<d>.stream-<n>` off device 0), derived from the launch event's
/// device and stream id. The first label per lane wins; sorted by tid.
pub fn lane_labels(events: &[FlightEvent]) -> Vec<(u32, String)> {
    let mut labels: Vec<(u32, String)> = Vec::new();
    for ev in events.iter().filter(|e| e.kind == FlightKind::Launch && e.arg != 0) {
        if !labels.iter().any(|(t, _)| *t == ev.tid) {
            let label = cuszi_gpu_sim::stream::stream_label(ev.dev as usize, (ev.arg - 1) as u32);
            labels.push((ev.tid, label));
        }
    }
    labels.sort_by_key(|(t, _)| *t);
    labels
}

/// Serialise a capture's events as a Chrome trace JSON document.
///
/// `dropped` (the capture's wraparound losses) is recorded under
/// `otherData.droppedEvents` so a truncated trace is never mistaken for
/// a complete one. `thread_labels` (from [`lane_labels`]) become
/// `thread_name` metadata events, which is how Perfetto names a lane —
/// gpu-sim stream workers show up as one `stream-<n>` lane each. Every
/// `B`/`X` event carries the recorder's argument as `args.arg` (a
/// slab's `z0`, a launch's stream id + 1).
pub fn chrome_trace(
    events: &[FlightEvent],
    dropped: u64,
    thread_labels: &[(u32, String)],
) -> String {
    let mut out = String::from("{\n\"traceEvents\": [");
    let mut first = true;
    for (tid, label) in thread_labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \"args\": {{\"name\": {}}}}}",
            tid,
            json_str(label),
        ));
    }
    for ev in events {
        let ph = match ev.kind {
            FlightKind::StageBegin => "B",
            FlightKind::StageEnd => "E",
            FlightKind::Launch => "X",
            _ => continue,
        };
        if !first {
            out.push(',');
        }
        first = false;
        let ts_ns = ev.ts_ns.saturating_sub(ev.dur_ns);
        out.push_str(&format!(
            "\n  {{\"name\": {}, \"cat\": {}, \"ph\": \"{}\", \"ts\": {}, \"pid\": 1, \"tid\": {}",
            json_str(ev.name.as_str()),
            json_str(ev.cat.label()),
            ph,
            fmt_f64(ts_ns as f64 / 1e3),
            ev.tid,
        ));
        if ev.kind == FlightKind::Launch {
            out.push_str(&format!(", \"dur\": {}", fmt_f64(ev.dur_ns as f64 / 1e3)));
        }
        if ev.kind != FlightKind::StageEnd {
            out.push_str(&format!(", \"args\": {{\"arg\": {}}}", ev.arg));
        }
        out.push('}');
    }
    out.push_str(&format!(
        "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {{\"droppedEvents\": {dropped}}}\n}}"
    ));
    out
}

struct Node {
    total_ns: u64,
    count: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn new() -> Self {
        Node { total_ns: 0, count: 0, children: BTreeMap::new() }
    }
}

/// Fold events into an indented per-lane inclusive-time tree.
///
/// `B`/`E` pairs nest by position; `X` events count as leaves under the
/// currently open stack. Unbalanced `E`s (span opened before profiling
/// was enabled) are ignored. Labelled lanes (gpu-sim streams) show
/// their name in the header.
pub fn flame_summary(events: &[FlightEvent], thread_labels: &[(u32, String)]) -> String {
    // Partition per tid, preserving order.
    let mut threads: BTreeMap<u32, Vec<&FlightEvent>> = BTreeMap::new();
    for ev in events {
        threads.entry(ev.tid).or_default().push(ev);
    }
    let mut out = String::new();
    for (tid, evs) in &threads {
        let mut root = Node::new();
        // Stack of (path of names, begin ts).
        let mut stack: Vec<(String, u64)> = Vec::new();
        for ev in evs {
            match ev.kind {
                FlightKind::StageBegin => stack.push((ev.name.as_str().to_string(), ev.ts_ns)),
                FlightKind::StageEnd => {
                    if let Some((name, t0)) = stack.pop() {
                        let dur = ev.ts_ns.saturating_sub(t0);
                        insert(&mut root, &stack, &name, dur);
                    }
                }
                FlightKind::Launch => insert(&mut root, &stack, ev.name.as_str(), ev.dur_ns),
                _ => {}
            }
        }
        if root.children.is_empty() {
            continue;
        }
        match thread_labels.iter().find(|(t, _)| t == tid) {
            Some((_, label)) => out.push_str(&format!("thread {tid} ({label})\n")),
            None => out.push_str(&format!("thread {tid}\n")),
        }
        render(&root, 1, &mut out);
    }
    if out.is_empty() {
        out.push_str("no spans recorded\n");
    }
    out
}

fn insert(root: &mut Node, stack: &[(String, u64)], name: &str, dur_ns: u64) {
    let mut node = root;
    for (frame, _) in stack {
        node = node.children.entry(frame.clone()).or_insert_with(Node::new);
    }
    let leaf = node.children.entry(name.to_string()).or_insert_with(Node::new);
    leaf.total_ns += dur_ns;
    leaf.count += 1;
}

fn render(node: &Node, depth: usize, out: &mut String) {
    // Children sorted by inclusive time, heaviest first.
    let mut kids: Vec<(&String, &Node)> = node.children.iter().collect();
    kids.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    for (name, child) in kids {
        out.push_str(&format!(
            "{}{:<24} {:>10.3} ms  x{}\n",
            "  ".repeat(depth),
            name,
            child.total_ns as f64 / 1e6,
            child.count,
        ));
        render(child, depth + 1, out);
    }
}

/// JSON-escape a string.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float so it is valid JSON (no `NaN`/`inf` literals).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{Category, SmallName};

    fn ev(kind: FlightKind, name: &str, tid: u32, ts_ns: u64, dur_ns: u64) -> FlightEvent {
        let cat = if kind == FlightKind::Launch { Category::Kernel } else { Category::Stage };
        let name = SmallName::new(name);
        FlightEvent { kind, cat, name, tid, dev: 0, capture: 1, ts_ns, arg: 0, dur_ns }
    }

    fn sample_events() -> Vec<FlightEvent> {
        vec![
            ev(FlightKind::StageBegin, "compress", 0, 1_000, 0),
            ev(FlightKind::StageBegin, "predict", 0, 2_000, 0),
            ev(FlightKind::Launch, "g-interp", 0, 900_000, 500_000),
            ev(FlightKind::StageEnd, "predict", 0, 1_000_000, 0),
            ev(FlightKind::StageEnd, "compress", 0, 1_100_000, 0),
        ]
    }

    #[test]
    fn chrome_trace_has_required_keys() {
        let mut evs = sample_events();
        evs.push(ev(FlightKind::StreamOp, "sync", 0, 1_200_000, 0));
        let json = chrome_trace(&evs, 3, &[]);
        let v = crate::minjson::parse(&json).expect("valid json");
        let arr = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 5, "stream ops stay out of the trace");
        for ev in arr {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "missing {key}");
            }
        }
        // X events start their simulated duration before the record and
        // carry it in microseconds.
        let x = arr.iter().find(|e| e.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(500.0));
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(400.0));
        assert_eq!(
            v.get("otherData").unwrap().get("droppedEvents").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let evs = [ev(FlightKind::Launch, "say \"hi\"\nback\\slash", 0, 2_000, 1_000)];
        let json = chrome_trace(&evs, 0, &[(7, "lane\t\"q\"".to_string())]);
        let v = crate::minjson::parse(&json).expect("escaped names keep the trace valid JSON");
        let arr = v.get("traceEvents").unwrap().as_array().unwrap();
        let label = arr[0].get("args").unwrap().get("name").unwrap();
        assert_eq!(label.as_str(), Some("lane\t\"q\""));
        assert_eq!(arr[1].get("name").unwrap().as_str(), Some("say \"hi\"\nback\\slash"));
    }

    #[test]
    fn thread_labels_become_thread_name_metadata() {
        let labels = [(2, "stream-0".to_string()), (5, "stream-1".to_string())];
        let json = chrome_trace(&sample_events(), 0, &labels);
        let v = crate::minjson::parse(&json).expect("valid json");
        let arr = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 2 + 5, "one metadata event per label ahead of the spans");
        for (ev, (tid, label)) in arr.iter().zip(&labels) {
            assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name"));
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("M"));
            assert_eq!(ev.get("tid").unwrap().as_f64(), Some(f64::from(*tid)));
            let name = ev.get("args").unwrap().get("name").unwrap();
            assert_eq!(name.as_str(), Some(label.as_str()));
        }
        assert_eq!(arr[2].get("ph").unwrap().as_str(), Some("B"));
    }

    #[test]
    fn lanes_are_named_after_the_stream_and_device_of_their_launches() {
        let mut a = ev(FlightKind::Launch, "k", 4, 10, 1);
        a.arg = 2; // stream 1
        let mut b = ev(FlightKind::Launch, "k", 1, 10, 1);
        (b.arg, b.dev) = (1, 3); // stream 0 on device 3
        let inline = ev(FlightKind::Launch, "k", 0, 10, 1);
        let labels = lane_labels(&[a, b, a, inline]);
        assert_eq!(labels, [(1, "dev3.stream-0".to_string()), (4, "stream-1".to_string())]);
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(0.0), "0");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fmt_f64(v), "null");
        }
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"", "other control characters use \\u escapes");
    }

    #[test]
    fn flame_summary_nests_and_sums() {
        let text = flame_summary(&sample_events(), &[]);
        let compress_at = text.find("compress").unwrap();
        let predict_at = text.find("predict").unwrap();
        let kern_at = text.find("g-interp").unwrap();
        assert!(compress_at < predict_at && predict_at < kern_at);
        // The kernel leaf is indented deeper than its parents.
        let indent = |pos: usize| text[..pos].rfind('\n').map(|n| pos - n - 1).unwrap_or(pos);
        assert!(indent(kern_at) > indent(predict_at));
        assert!(indent(predict_at) > indent(compress_at));
    }

    #[test]
    fn flame_summary_ignores_unbalanced_ends() {
        let evs = [
            ev(FlightKind::StageEnd, "phantom", 0, 1, 0),
            ev(FlightKind::StageBegin, "real", 0, 2, 0),
            ev(FlightKind::StageEnd, "real", 0, 3, 0),
        ];
        let text = flame_summary(&evs, &[]);
        assert!(text.contains("real"));
        assert!(!text.contains("phantom"));
    }
}
