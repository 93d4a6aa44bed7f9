//! In-memory span recorder for the traced replay.
//!
//! One span per layer call: name, start, end, parent span, the operation
//! (cut, restore, …) it belongs to, and a work count (pages, bytes or
//! spans, per the span's layer) so per-unit costs are measured where the
//! work happens. Spans stay in memory and are written out when the run
//! ends. A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Per-name aggregate over all spans of that name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans opened at the root from here on share
    /// its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open`, crediting it `work` units.
    pub fn exit(&mut self, open: Open, work: u64) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.work = work;
    }

    /// Run `f` inside a span of `name` that is credited `work` units.
    pub fn span<R>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open, work);
        r
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children never overlap: the replay is single-threaded).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Aggregate by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += self_ns;
            a.work += s.work;
        }
        out
    }

    /// Cost of recording one span on this host, ns: the tracer times a
    /// batch of empty spans into a scratch recorder.
    pub fn span_cost_ns() -> f64 {
        const N: u64 = 20_000;
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        for _ in 0..N {
            let o = t.enter("calibrate");
            t.exit(o, 0);
        }
        t0.elapsed().as_nanos() as f64 / N as f64
    }

    /// Tab-separated dump: id, op, parent, name, start, end, work.
    pub fn dump(&self) -> String {
        let mut out = String::from("id\top\tparent\tname\tstart_ns\tend_ns\twork\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.work
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin_op();
        let root = t.enter("root");
        t.span("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root, 1);
        let agg = t.by_name();
        assert_eq!(agg["child"].work, 7);
        assert!(agg["root"].total_ns >= agg["child"].total_ns);
        assert_eq!(
            agg["root"].self_ns,
            agg["root"].total_ns - agg["child"].total_ns
        );
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.op == 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("x");
        t.exit(o, 3);
        assert!(t.spans.is_empty());
    }
}
