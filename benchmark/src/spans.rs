//! The benchmark's own span recorder: one span per call into a layer,
//! taken around the call from outside the crates. Spans stay in memory
//! and are written out once, as Chrome `trace_event` JSON, when the
//! traced run ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer metric stem, e.g. `predict.compress`.
    pub name: &'static str,
    /// Which input (field, dataset or request class) the call worked
    /// on; medians are taken per item and summed over a pass.
    pub item: u32,
    /// The operation the call belongs to; spans of one request share it.
    pub op: u64,
    /// Index of the span that was open on this thread when this one
    /// began.
    pub parent: Option<usize>,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32;
}

/// A fresh operation identifier.
pub fn next_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// In-memory span store. One recorder is live at a time (the open-span
/// stack is per thread, not per recorder).
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span on the calling thread; it closes when the guard
    /// drops. Guards must drop in reverse order of opening.
    pub fn span(&self, name: &'static str, item: usize, op: u64) -> Guard<'_> {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let tid = TID.with(|t| *t);
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        let idx = spans.len();
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            item: item as u32,
            op,
            parent,
            tid,
            start_ns,
            end_ns: start_ns,
        });
        drop(spans);
        OPEN.with(|o| o.borrow_mut().push(idx));
        Guard { rec: self, idx }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .clone()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        OPEN.with(|o| o.borrow_mut().retain(|&i| i != self.idx));
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans[self.idx].end_ns = end;
        }
    }
}

/// Open a span when a recorder is present (the untraced run passes
/// `None` and pays one branch).
pub fn span<'a>(
    rec: Option<&'a Recorder>,
    name: &'static str,
    item: usize,
    op: u64,
) -> Option<Guard<'a>> {
    rec.map(|r| r.span(name, item, op))
}

/// Self time of every span, ns: its duration minus the part of that
/// interval its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Chrome `trace_event` JSON of the spans (complete events; `args`
/// carry the op, the item, the parent span and the self time).
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{i},\"op\":{},\"item\":{},\"parent\":{parent},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.op,
            s.item,
            *self_ns as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            item: 0,
            op: 1,
            parent,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            sp("request", None, 0, 100),
            sp("encode", Some(0), 10, 30),
            sp("write", Some(0), 30, 50),
            // Overlaps "write" (another thread's child): counted once.
            sp("read", Some(0), 40, 70),
            // Sticks out of its parent: only the inside part counts.
            sp("late", Some(0), 90, 130),
            sp("inner", Some(1), 12, 20),
            sp("leaf", None, 200, 260),
        ];
        // request: 100 - ([10,70) + [90,100)) = 30.
        assert_eq!(self_times_ns(&spans), vec![30, 12, 20, 30, 40, 8, 60]);
    }

    #[test]
    fn recorder_nests_by_thread_and_exports() {
        let rec = Recorder::default();
        let op = next_op();
        {
            let _outer = rec.span("outer", 3, op);
            let _inner = rec.span("inner", 3, op);
            std::thread::scope(|s| {
                s.spawn(|| drop(rec.span("elsewhere", 0, op)));
            });
        }
        let _sibling = span(Some(&rec), "sibling", 0, next_op());
        assert!(span(None, "off", 0, 0).is_none());
        let spans = rec.spans();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("elsewhere", None),
                ("sibling", None)
            ]
        );
        assert!(spans[0].end_ns >= spans[1].end_ns && spans[1].start_ns >= spans[0].start_ns);
        assert_ne!(spans[2].tid, spans[0].tid);
        assert!(spans[3].op > spans[0].op);
        let json = cuszi_profile::minjson::parse(&chrome_trace(&spans)).unwrap();
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_f64()),
            Some(0.0)
        );
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
    }
}
