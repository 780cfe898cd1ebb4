//! In-memory host-time spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started (its parent). Hook spans are children of the `run_until` span
//! that fired the completion. Self time is a span's duration minus the
//! durations of its children.

use std::io::Write;
use std::time::Instant;

/// What a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// `Engine::run_until` (and the final `Engine::run` that drains).
    RunUntil,
    /// `ArraySim::drain_completions`.
    Drain,
    /// The benchmark's completion hook, around the calls below.
    Hook,
    /// `FioStream::next_io`.
    NextIo,
    /// `ArraySim::submit_with_hook`.
    Submit,
    /// The benchmark's Full-mode shadow comparison of a read.
    Verify,
}

impl Name {
    /// Every span name.
    pub const ALL: [Name; 6] = [
        Name::RunUntil,
        Name::Drain,
        Name::Hook,
        Name::NextIo,
        Name::Submit,
        Name::Verify,
    ];

    /// Printed name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::RunUntil => "sim.run_until",
            Name::Drain => "core.drain_completions",
            Name::Hook => "bench.hook",
            Name::NextIo => "workload.next_io",
            Name::Submit => "core.submit_with_hook",
            Name::Verify => "bench.verify",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are host nanoseconds since the recorder began.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What it timed.
    pub name: Name,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Spans {
    origin: Instant,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Spans {
    /// Starts an empty recorder.
    pub fn new(capacity: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: Name) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end = end;
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> [Totals; Name::ALL.len()] {
        assert!(self.open.is_empty(), "totals of unclosed spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = [Totals::default(); Name::ALL.len()];
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = &mut out[s.name as usize];
            t.count += 1;
            t.total_ns += s.end - s.start;
            t.self_ns += (s.end - s.start) - child;
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id name parent start_ns end_ns` (parent `-` at top level).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, out: impl Write) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(out);
        writeln!(w, "id\tname\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = s.name.as_str();
            if s.parent == NO_PARENT {
                writeln!(w, "{i}\t{name}\t-\t{}\t{}", s.start, s.end)?;
            } else {
                writeln!(w, "{i}\t{name}\t{}\t{}\t{}", s.parent, s.start, s.end)?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(4);
        let outer = s.open(Name::RunUntil);
        let hook = s.open(Name::Hook);
        let inner = s.open(Name::Submit);
        s.close(inner);
        s.close(hook);
        s.close(outer);
        let t = s.totals();
        let (run, hook, sub) = (
            t[Name::RunUntil as usize],
            t[Name::Hook as usize],
            t[Name::Submit as usize],
        );
        assert_eq!(run.count, 1);
        assert_eq!(run.self_ns, run.total_ns - hook.total_ns);
        assert_eq!(hook.self_ns, hook.total_ns - sub.total_ns);
        assert_eq!(sub.self_ns, sub.total_ns);
        let mut tsv = Vec::new();
        s.write_tsv(&mut tsv).expect("write to memory");
        let text = String::from_utf8(tsv).expect("utf8");
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\tbench.hook\t0\t"));
    }
}
