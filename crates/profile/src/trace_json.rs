//! Chrome `trace_event` export and flamegraph-style text summary.
//!
//! [`chrome_trace`] serialises recorded [`Event`]s in the Trace Event
//! Format consumed by Perfetto (`ui.perfetto.dev`) and `chrome://tracing`:
//! a `traceEvents` array of `B`/`E` duration events and `X` complete
//! events, timestamps in microseconds, one `pid` for the process and the
//! tracer's dense `tid` per recording thread.
//!
//! [`flame_summary`] folds the same events into an indented inclusive-
//! time tree per thread — the quick look when loading a UI is overkill.

use std::collections::BTreeMap;

use crate::tracer::{Event, Phase};

/// Serialise events as a Chrome trace JSON document.
///
/// `dropped` (ring wraparound losses from
/// [`crate::tracer::Tracer::take_events`]) is recorded under
/// `otherData.droppedEvents` so a truncated trace is never mistaken for
/// a complete one. `thread_labels` (from
/// [`crate::tracer::Tracer::thread_labels`]) become `thread_name`
/// metadata events, which is how Perfetto names a lane — gpu-sim stream
/// workers show up as one `stream-<n>` lane each.
pub fn chrome_trace(events: &[Event], dropped: u64, thread_labels: &[(u32, String)]) -> String {
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
    for ev in events.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let ph = match ev.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Complete => "X",
        };
        let ts_us = ev.ts_ns as f64 / 1e3;
        out.push_str(&format!(
            "\n  {{\"name\": {}, \"cat\": {}, \"ph\": \"{}\", \"ts\": {}, \"pid\": 1, \"tid\": {}",
            json_str(ev.name.as_str()),
            json_str(ev.cat.label()),
            ph,
            fmt_f64(ts_us),
            ev.tid,
        ));
        if ev.phase == Phase::Complete {
            out.push_str(&format!(", \"dur\": {}", fmt_f64(ev.dur_ns as f64 / 1e3)));
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

/// Fold events into an indented per-thread inclusive-time tree.
///
/// `B`/`E` pairs nest by position; `X` events count as leaves under the
/// currently open stack. Unbalanced `E`s (span opened before tracing
/// was enabled) are ignored. Labelled threads (gpu-sim streams) show
/// their lane name in the header.
pub fn flame_summary_labeled(events: &[Event], thread_labels: &[(u32, String)]) -> String {
    // Partition per tid, preserving order.
    let mut threads: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
    for ev in events {
        threads.entry(ev.tid).or_default().push(ev);
    }
    let mut out = String::new();
    for (tid, evs) in &threads {
        let mut root = Node::new();
        // Stack of (path of names, begin ts).
        let mut stack: Vec<(String, u64)> = Vec::new();
        for ev in evs {
            match ev.phase {
                Phase::Begin => stack.push((ev.name.as_str().to_string(), ev.ts_ns)),
                Phase::End => {
                    if let Some((name, t0)) = stack.pop() {
                        let dur = ev.ts_ns.saturating_sub(t0);
                        insert(&mut root, &stack, &name, dur);
                    }
                }
                Phase::Complete => {
                    insert(&mut root, &stack, ev.name.as_str(), ev.dur_ns);
                }
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

/// [`flame_summary_labeled`] with no lane labels.
pub fn flame_summary(events: &[Event]) -> String {
    flame_summary_labeled(events, &[])
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
fn json_str(s: &str) -> String {
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
    use crate::tracer::{Category, Tracer};

    fn sample_events() -> Vec<Event> {
        let t = Tracer::new(64);
        t.begin("compress", Category::Stage);
        t.begin("predict", Category::Stage);
        t.complete("g-interp", Category::Kernel, 500_000);
        t.end("predict", Category::Stage);
        t.end("compress", Category::Stage);
        t.take_events().0
    }

    #[test]
    fn chrome_trace_has_required_keys() {
        let evs = sample_events();
        let json = chrome_trace(&evs, 3, &[]);
        let v = crate::minjson::parse(&json).expect("valid json");
        let arr = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 5);
        for ev in arr {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "missing {key}");
            }
        }
        // X events carry a duration in microseconds.
        let x = arr.iter().find(|e| e.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(500.0));
        assert_eq!(
            v.get("otherData").unwrap().get("droppedEvents").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let t = Tracer::new(8);
        t.complete("say \"hi\"\nback\\slash", Category::Kernel, 1_000);
        let (evs, _) = t.take_events();
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
        let text = flame_summary(&sample_events());
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
        let t = Tracer::new(64);
        t.end("phantom", Category::Stage);
        t.begin("real", Category::Stage);
        t.end("real", Category::Stage);
        let (evs, _) = t.take_events();
        let text = flame_summary(&evs);
        assert!(text.contains("real"));
        assert!(!text.contains("phantom"));
    }
}
