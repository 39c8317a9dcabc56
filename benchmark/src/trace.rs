//! Span recorder for the traced run.
//!
//! One span per call into a layer, recorded from outside the layer (the
//! program itself carries no spans yet — ROADMAP item 1). Spans live in
//! memory and are drained once per round; a span knows its parent and
//! the op (epoch or slice) it belongs to, and carries one work count
//! taken at the same boundary. Every timing the benchmark reports comes
//! from the `Instant` pair taken here, traced or not, so no boundary is
//! timed in two ways.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

use crate::stats::percentile;

const NO_SPAN: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same drained batch.
    pub parent: u32,
    /// Shared by all spans of one epoch / slice.
    pub op: u64,
    /// The layer's own work count for this call (see `layers.rs`).
    pub work: u64,
}

/// An entered span; hand it back to [`Tracer::exit`].
pub struct Open {
    start: Instant,
    idx: u32,
}

impl Open {
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next op; spans entered from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let mut idx = NO_SPAN;
        if self.on {
            idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NO_SPAN),
                op: self.op,
                work: 0,
            });
            self.stack.push(idx);
        }
        // Clock started last, so the recorder's own push falls outside.
        Open {
            start: Instant::now(),
            idx,
        }
    }

    pub fn exit(&mut self, open: Open, work: u64) -> Duration {
        let took = open.elapsed();
        self.exit_at(open, took, work);
        took
    }

    /// [`Tracer::exit`] with the clock already stopped at `took`.
    pub fn exit_at(&mut self, open: Open, took: Duration, work: u64) {
        if open.idx != NO_SPAN {
            let start_ns = (open.start - self.origin).as_nanos() as u64;
            let s = &mut self.spans[open.idx as usize];
            s.start_ns = start_ns;
            s.end_ns = start_ns + took.as_nanos() as u64;
            s.work = work;
            self.stack.pop();
        }
    }

    /// Hands over the spans recorded since the last drain.
    pub fn drain(&mut self) -> Vec<Span> {
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Times `$call` as span `$name`; evaluates to `(result, Duration)`.
/// `$work` maps `&result` to the span's work count.
macro_rules! span {
    ($tr:expr, $name:expr, $call:expr) => {
        span!($tr, $name, $call, |_| 0)
    };
    ($tr:expr, $name:expr, $call:expr, $work:expr) => {{
        let open = $tr.enter($name);
        let result = $call;
        // Stop the clock before deriving the work count from the result.
        let took = open.elapsed();
        #[allow(clippy::redundant_closure_call)]
        let work: u64 = ($work)(&result);
        $tr.exit_at(open, took, work);
        (result, took)
    }};
}
pub(crate) use span;

/// Per-span-name totals of one round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerStat {
    pub calls: u64,
    /// Sum of durations, children included.
    pub total_s: f64,
    /// Sum of self time: duration minus the part child spans cover.
    pub busy_s: f64,
    /// Median duration of one call.
    pub p50_us: f64,
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    // Children are called one after another, never overlapping, so the
    // cover of a span's children is the sum of their durations.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let stat = out.entry(s.name).or_default();
        stat.calls += 1;
        stat.total_s += dur as f64 / 1e9;
        stat.busy_s += dur.saturating_sub(covered) as f64 / 1e9;
        durations.entry(s.name).or_default().push(dur as f64 / 1e3);
    }
    for (name, mut d) in durations {
        d.sort_by(f64::total_cmp);
        out.get_mut(name).expect("same keys").p50_us = percentile(&d, 50.0);
    }
    out
}

/// Writes spans as JSON lines (`--trace-out`), one round after another.
pub fn write_spans(path: &str, rounds: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (round, spans) in rounds.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"round\":{round},\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::new();
        let (v, took) = span!(tr, "x.y", 2 + 2);
        assert_eq!(v, 4);
        assert!(took.as_nanos() > 0);
        assert!(tr.drain().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.on = true;
        tr.next_op();
        let outer = tr.enter("bench.epoch");
        let (_, a) = span!(
            tr,
            "core.reoptimize",
            std::thread::sleep(Duration::from_millis(2)),
            |_| 7
        );
        let (_, b) = span!(
            tr,
            "core.reoptimize",
            std::thread::sleep(Duration::from_millis(2))
        );
        let whole = tr.exit(outer, 0);
        let spans = tr.drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].work, 7);
        assert!(spans.iter().all(|s| s.op == 1));
        let agg = aggregate(&spans);
        assert_eq!(agg["core.reoptimize"].calls, 2);
        let children = (a + b).as_secs_f64();
        assert!((agg["core.reoptimize"].busy_s - children).abs() < 1e-6);
        let own = whole.as_secs_f64() - children;
        assert!((agg["bench.epoch"].busy_s - own).abs() < 1e-6);
    }
}
