//! Spans recorded from *outside* the system under test: the driver wraps
//! every public call it makes in a span, so layers are timed at their public
//! boundary without touching the program. Spans nest as a stack (a 2PC commit
//! contains its prepare / decide / resolve calls); a span's self time is its
//! duration minus the time its direct children cover. Every span is folded
//! into a per-name aggregate; raw spans are kept only for sampled scripts.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::LogHist;

/// The public calls the driver makes, i.e. the span names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Begin,
    Invoke,
    Commit,
    Abort,
    /// A whole cross-shard commit; parent of prepare / decide / resolve.
    TwoPc,
    Prepare,
    Decide,
    Resolve,
    Checkpoint,
}

impl Call {
    pub const ALL: [Call; 9] = [
        Call::Begin,
        Call::Invoke,
        Call::Commit,
        Call::Abort,
        Call::TwoPc,
        Call::Prepare,
        Call::Decide,
        Call::Resolve,
        Call::Checkpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "begin",
            Call::Invoke => "invoke",
            Call::Commit => "commit",
            Call::Abort => "abort",
            Call::TwoPc => "twopc",
            Call::Prepare => "prepare",
            Call::Decide => "decide",
            Call::Resolve => "resolve",
            Call::Checkpoint => "checkpoint",
        }
    }
}

/// What the driver needs from a tracer. [`NoTrace`] compiles to nothing, so
/// the untraced run pays for no clock reads beyond its two latency stamps.
pub trait Trace {
    fn open(&mut self, call: Call);
    fn close(&mut self);

    fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        self.open(call);
        let r = f();
        self.close();
        r
    }

    /// Open a sampled transaction attempt (the parent span of its calls);
    /// `None` when this tracer keeps no raw spans.
    fn attempt_begin(&mut self, _client: u32, _script: u64, _attempt: u32) -> Option<u32> {
        None
    }

    fn attempt_end(&mut self, _id: u32, _committed: bool) {}

    /// Route the following spans to sampled attempt `id` (or to nobody).
    fn set_context(&mut self, _id: Option<u32>) {}
}

pub struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn open(&mut self, _call: Call) {}
    #[inline(always)]
    fn close(&mut self) {}
}

/// Per-name aggregate over every span of that name.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    /// Sum of durations (children included).
    pub total_ns: u64,
    /// Sum of self times (children subtracted once, from their parent only).
    pub self_ns: u64,
    pub durations: LogHist,
}

/// One kept span. `parent` is the sampled transaction attempt it belongs to.
#[derive(Clone, Debug)]
pub struct RawSpan {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

/// One sampled transaction attempt — the parent span of its calls.
#[derive(Clone, Debug)]
pub struct RawAttempt {
    pub client: u32,
    pub script: u64,
    pub attempt: u32,
    pub start_ns: u64,
    /// `None` while open — and for good when the attempt ended in an
    /// untraced epoch, where nobody was listening.
    pub end_ns: Option<u64>,
    pub committed: bool,
}

struct Open {
    call: Call,
    start_ns: u64,
    child_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    aggs: Vec<Agg>,
    stack: Vec<Open>,
    /// Time inside measurement windows and outside every span, accumulated
    /// gap by gap as spans open — measured, not derived from the busy sums.
    gap_ns: u64,
    window_ns: u64,
    window_start: u64,
    /// End of the last top-level span (or the window start).
    idle_since: u64,
    /// The sampled attempt the next spans belong to, if the script is kept.
    context: Option<u32>,
    pub raw: Vec<RawSpan>,
    pub attempts: Vec<RawAttempt>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            aggs: vec![Agg::default(); Call::ALL.len()],
            stack: Vec::new(),
            gap_ns: 0,
            window_ns: 0,
            window_start: 0,
            idle_since: 0,
            context: None,
            raw: Vec::new(),
            attempts: Vec::new(),
        }
    }
}

impl Recorder {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a measurement window (one traced epoch).
    pub fn window_begin(&mut self) {
        self.window_begin_at(self.now_ns());
    }

    pub fn window_end(&mut self) {
        self.window_end_at(self.now_ns());
    }

    pub fn window_begin_at(&mut self, now: u64) {
        debug_assert!(self.stack.is_empty(), "windows open between spans");
        self.idle_since = now;
        self.window_start = now;
    }

    pub fn window_end_at(&mut self, now: u64) {
        debug_assert!(self.stack.is_empty(), "windows close between spans");
        self.gap_ns += now - self.idle_since;
        self.window_ns += now - self.window_start;
    }

    pub fn open_at(&mut self, call: Call, now: u64) {
        if self.stack.is_empty() {
            self.gap_ns += now - self.idle_since;
        }
        self.stack.push(Open { call, start_ns: now, child_ns: 0 });
    }

    pub fn close_at(&mut self, now: u64) {
        let span = self.stack.pop().expect("close matches an open span");
        let dur = now - span.start_ns;
        let agg = &mut self.aggs[span.call as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur - span.child_ns;
        agg.durations.record(dur);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.idle_since = now,
        }
        if let Some(parent) = self.context {
            self.raw.push(RawSpan {
                call: span.call,
                start_ns: span.start_ns,
                end_ns: now,
                parent,
            });
        }
    }

    pub fn agg(&self, call: Call) -> &Agg {
        &self.aggs[call as usize]
    }

    /// Total time inside measurement windows.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    pub fn gap_ns(&self) -> u64 {
        self.gap_ns
    }

    /// Share of window time spent in `call`'s own code (self time).
    pub fn busy_share(&self, call: Call) -> f64 {
        self.agg(call).self_ns as f64 / self.window_ns.max(1) as f64
    }

    /// The sampled spans as one JSON document (see README "traced run").
    pub fn dump_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"attempts\":[");
        for (id, a) in self.attempts.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let end = a.end_ns.map_or("null".to_string(), |e| e.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{id},\"name\":\"attempt\",\"client\":{},\"script\":{},\
                 \"attempt\":{},\"start_ns\":{},\"end_ns\":{end},\"committed\":{}}}",
                a.client, a.script, a.attempt, a.start_ns, a.committed
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.raw.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.call.name(),
                s.start_ns,
                s.end_ns,
                s.parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl Trace for Recorder {
    fn open(&mut self, call: Call) {
        self.open_at(call, self.now_ns());
    }

    fn close(&mut self) {
        self.close_at(self.now_ns());
    }

    fn attempt_begin(&mut self, client: u32, script: u64, attempt: u32) -> Option<u32> {
        let start_ns = self.now_ns();
        self.attempts.push(RawAttempt {
            client,
            script,
            attempt,
            start_ns,
            end_ns: None,
            committed: false,
        });
        Some((self.attempts.len() - 1) as u32)
    }

    fn attempt_end(&mut self, id: u32, committed: bool) {
        let now = self.now_ns();
        let a = &mut self.attempts[id as usize];
        a.end_ns = Some(now);
        a.committed = committed;
    }

    fn set_context(&mut self, id: Option<u32>) {
        self.context = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_intervals_are_subtracted_once_from_their_parent_only() {
        let mut r = Recorder::default();
        r.window_begin_at(0);
        // twopc [10, 100) ⊃ prepare [20, 50) ⊃ (nested) resolve [30, 40),
        // then decide [60, 70) directly under twopc.
        r.open_at(Call::TwoPc, 10);
        r.open_at(Call::Prepare, 20);
        r.open_at(Call::Resolve, 30);
        r.close_at(40);
        r.close_at(50);
        r.open_at(Call::Decide, 60);
        r.close_at(70);
        r.close_at(100);
        r.window_end_at(120);
        // The grandchild is charged to prepare, not again to twopc.
        assert_eq!(r.agg(Call::Resolve).self_ns, 10);
        assert_eq!(r.agg(Call::Prepare).self_ns, 30 - 10);
        assert_eq!(r.agg(Call::Decide).self_ns, 10);
        assert_eq!(r.agg(Call::TwoPc).total_ns, 90);
        assert_eq!(r.agg(Call::TwoPc).self_ns, 90 - 30 - 10);
        // Self times plus measured gaps tile the window exactly.
        let busy: u64 = Call::ALL.iter().map(|&c| r.agg(c).self_ns).sum();
        assert_eq!(r.gap_ns(), 10 + 20);
        assert_eq!(busy + r.gap_ns(), r.window_ns());
        assert_eq!(r.window_ns(), 120);
    }

    #[test]
    fn gaps_are_measured_between_top_level_spans_across_windows() {
        let mut r = Recorder::default();
        r.window_begin_at(100);
        r.open_at(Call::Invoke, 105);
        r.close_at(110);
        r.open_at(Call::Commit, 112);
        r.close_at(120);
        r.window_end_at(121);
        // Time between windows belongs to neither.
        r.window_begin_at(500);
        r.open_at(Call::Invoke, 500);
        r.close_at(530);
        r.window_end_at(530);
        assert_eq!(r.window_ns(), 21 + 30);
        assert_eq!(r.gap_ns(), 5 + 2 + 1);
        assert_eq!(r.agg(Call::Invoke).count, 2);
        assert!((r.busy_share(Call::Invoke) - 35.0 / 51.0).abs() < 1e-12);
    }

    #[test]
    fn only_sampled_attempts_keep_raw_spans() {
        let mut r = Recorder::default();
        r.window_begin_at(0);
        r.open_at(Call::Begin, 1);
        r.close_at(2);
        let id = r.attempt_begin(3, 64, 1).expect("the recorder samples attempts");
        r.set_context(Some(id));
        r.open_at(Call::Invoke, 3);
        r.close_at(4);
        r.set_context(None);
        r.attempt_end(id, true);
        assert_eq!(r.raw.len(), 1);
        assert_eq!(r.raw[0].parent, id);
        let json = r.dump_json("w", 9);
        assert!(json.contains("\"name\":\"invoke\",\"start_ns\":3,\"end_ns\":4,\"parent\":0"));
        assert!(json.contains("\"client\":3,\"script\":64,\"attempt\":1"));
    }
}
