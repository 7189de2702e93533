//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call into a
//! layer's public functions — nothing inside `crates/` is instrumented. Each thread
//! appends to its own vector (no locks, no allocation per span beyond vector
//! growth); [`finish_thread`] hands the vector to the process-wide collector once,
//! and [`take_lanes`] drains it when the run ends.
//!
//! Two levels keep the end-to-end path honest: a thread at [`Level::Off`] pays one
//! thread-local read per would-be span, [`Level::Phases`] records only lifecycle
//! phases and checkpoint stages, and [`Level::Calls`] adds one span per MPI call.
//! The traced run alternates steady segments between `Phases` and `Calls`, which
//! is what `trace.overhead_pct` compares.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How much the current thread records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Off,
    Phases,
    Calls,
}

/// "No parent" / "no round" marker.
pub const NONE: u32 = u32::MAX;

/// One recorded interval on one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same lane, or [`NONE`].
    pub parent: u32,
    /// The checkpoint round the span belongs to, or [`NONE`].
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Every span one thread recorded, in start order.
#[derive(Debug, Clone)]
pub struct Lane {
    pub name: String,
    pub spans: Vec<Span>,
}

struct Local {
    level: Level,
    round: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { level: Level::Off, round: NONE, open: Vec::new(), spans: Vec::new() })
    };
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static LANES: Mutex<Vec<Lane>> = Mutex::new(Vec::new());

/// Nanoseconds since the process-wide trace epoch (first use). Rank threads compare
/// these across threads, e.g. "first rank entering a round".
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_level(level: Level) {
    LOCAL.with(|local| local.borrow_mut().level = level);
}

/// Tag the spans this thread opens from now on with a checkpoint round.
pub fn set_round(round: Option<u32>) {
    LOCAL.with(|local| local.borrow_mut().round = round.unwrap_or(NONE));
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<u32>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let end = now_ns();
            LOCAL.with(|local| {
                let mut local = local.borrow_mut();
                local.spans[index as usize].end_ns = end;
                local.open.pop();
            });
        }
    }
}

fn open(name: &'static str, needs: Level) -> Guard {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if local.level < needs {
            return Guard(None);
        }
        let index = local.spans.len() as u32;
        let parent = local.open.last().copied().unwrap_or(NONE);
        let round = local.round;
        local.open.push(index);
        local.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            round,
        });
        Guard(Some(index))
    })
}

/// A lifecycle phase or checkpoint stage (recorded at [`Level::Phases`] and up).
pub fn phase(name: &'static str) -> Guard {
    open(name, Level::Phases)
}

/// One call into a layer (recorded at [`Level::Calls`] only).
pub fn call(name: &'static str) -> Guard {
    open(name, Level::Calls)
}

/// Hand this thread's spans to the collector as lane `name`. Call once, when the
/// thread's work is done and all its guards have dropped. A lane of that name left
/// by an earlier thread (the same rank in an earlier epoch) is continued.
pub fn finish_thread(name: String) {
    let mut spans = LOCAL.with(|local| std::mem::take(&mut local.borrow_mut().spans));
    if spans.is_empty() {
        return;
    }
    let mut lanes = LANES
        .lock()
        .expect("no thread panics while holding the lane list");
    match lanes.iter_mut().find(|lane| lane.name == name) {
        Some(lane) => {
            let offset = lane.spans.len() as u32;
            for span in &mut spans {
                if span.parent != NONE {
                    span.parent += offset;
                }
            }
            lane.spans.append(&mut spans);
        }
        None => lanes.push(Lane { name, spans }),
    }
}

/// Drain every finished lane, sorted by name.
pub fn take_lanes() -> Vec<Lane> {
    let mut lanes = std::mem::take(
        &mut *LANES
            .lock()
            .expect("no thread panics while holding the lane list"),
    );
    lanes.sort_by(|a, b| a.name.cmp(&b.name));
    lanes
}

/// Self time of every span of a lane: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NONE {
            let parent = &spans[span.parent as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[span.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Durations (ns) of every span called `name` across `lanes`.
pub fn durations_ns(lanes: &[Lane], name: &str) -> Vec<f64> {
    lanes
        .iter()
        .flat_map(|lane| lane.spans.iter())
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64)
        .collect()
}

/// At most this many call-level spans per lane are written to the trace file; the
/// metrics always use every span. Keeps the file loadable (tens of MB, not hundreds).
const FILE_CALL_SPANS_PER_LANE: usize = 60_000;

/// Render lanes as Chrome-trace JSON (`chrome://tracing`, Perfetto): one lane per
/// thread, complete (`"ph":"X"`) events with microsecond timestamps, the round and
/// the self time in `args`. `is_call` marks the names subject to the per-lane cap.
pub fn chrome_trace_json(workload: &str, lanes: &[Lane], is_call: impl Fn(&str) -> bool) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut omitted = 0usize;
    let mut first = true;
    for (tid, lane) in lanes.iter().enumerate() {
        let mut push = |event: String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&event);
        };
        push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            lane.name
        ));
        let self_ns = self_times_ns(&lane.spans);
        let mut calls_written = 0usize;
        for (span, self_ns) in lane.spans.iter().zip(self_ns) {
            if is_call(span.name) {
                if calls_written == FILE_CALL_SPANS_PER_LANE {
                    omitted += 1;
                    continue;
                }
                calls_written += 1;
            }
            let round = if span.round == NONE {
                String::new()
            } else {
                format!("\"round\":{},", span.round)
            };
            push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{round}\"self_us\":{:.3}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                self_ns as f64 / 1e3,
            ));
        }
    }
    out.push_str(&format!(
        "\n],\"otherData\":{{\"workload\":\"{workload}\",\"omitted_call_spans\":{omitted}}}}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: NONE,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("round", 0, 100, NONE),
            span("quiesce", 10, 30, 0),
            span("write", 40, 90, 0),
            span("lz", 50, 70, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 100, 200, NONE),
            span("a", 110, 150, 0),
            span("b", 140, 160, 0),
            span("late", 190, 250, 0),
        ];
        // Coverage: [110,160) + [190,200) = 60 of the parent's 100.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_filters_by_level_and_renders() {
        set_level(Level::Phases);
        set_round(Some(3));
        {
            let _outer = phase("outer");
            let _skipped = call("call.skipped");
            set_level(Level::Calls);
            let _inner = call("call.kept");
        }
        set_level(Level::Off);
        set_round(None);
        drop(phase("ignored"));
        finish_thread("test-lane".into());
        // A second thread of the same name continues the lane, parents re-based.
        std::thread::spawn(|| {
            set_level(Level::Phases);
            {
                let _outer = phase("again");
                let _inner = phase("again.child");
            }
            finish_thread("test-lane".into());
        })
        .join()
        .expect("the second thread finishes");
        // Take only this test's lane: other tests record into the collector too.
        let lanes: Vec<Lane> = {
            let mut all = LANES.lock().expect("the lane list is not poisoned");
            let index = all
                .iter()
                .position(|lane| lane.name == "test-lane")
                .expect("the lane was collected");
            vec![all.remove(index)]
        };
        let spans = &lanes[0].spans;
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[2].name, spans[2].parent), ("again", NONE));
        assert_eq!((spans[3].name, spans[3].parent), ("again.child", 2));
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].round),
            ("outer", NONE, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("call.kept", 0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations_ns(&lanes, "call.kept").len(), 1);
        let json = chrome_trace_json("unit", &lanes, |name| name.starts_with("call."));
        assert!(json.contains("\"name\":\"outer\"") && json.contains("\"round\":3"));
        assert!(json.contains("\"omitted_call_spans\":0"));
    }
}
