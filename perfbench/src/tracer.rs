//! The traced run's span recorder. Spans are opened and closed around
//! calls into the library's public functions, from outside the library.
//! Every closed span is aggregated (count, total time, self time, exact
//! duration samples); the first `RETAINED` spans are also kept whole and
//! written to the span file once, at exit.

use std::io::Write as _;
use std::time::Instant;

/// Span names; `NAMES[s as usize]` is the name written out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum S {
    Op,
    Warmup,
    Parse,
    Estimate,
    WireEstimate,
    Write,
    NoteUpdates,
    DaemonTick,
    Load,
    Analyze,
    Ping,
    Encode,
    Decode,
    SnapshotPin,
    JoinKernel,
    RangeKernel,
    BandKernel,
    Scan,
    Build,
    WalPut,
}

pub const NAMES: [&str; 20] = [
    "op",
    "warmup",
    "engine.parse",
    "engine.estimate_with_sources",
    "netserve.client_estimate",
    "write",
    "relstore.note_updates",
    "relstore.daemon_tick",
    "netserve.load_relation",
    "netserve.analyze",
    "netserve.ping",
    "netserve.encode_frame",
    "netserve.response_decode",
    "relstore.read_snapshot",
    "query.estimate_two_way_join",
    "query.estimate_range",
    "query.estimate_band_join",
    "relstore.frequency_table",
    "vopt_hist.build_stored",
    "relstore.put_with_spec",
];

/// How many whole spans the span file keeps.
pub const RETAINED: usize = 65_536;

struct Open {
    id: u64,
    parent: u64,
    name: S,
    start: Instant,
    child_ns: u64,
}

struct Record {
    id: u64,
    parent: u64,
    op: u64,
    name: S,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// In-memory span recorder. A disabled recorder records nothing and
/// costs one branch per call site.
pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    op: u64,
    next_id: u64,
    stack: Vec<Open>,
    records: Vec<Record>,
    dropped: u64,
    aggs: Vec<Agg>,
    /// Exact durations per name (ns), for the per-layer medians.
    pub samples: Vec<Vec<u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            next_id: 1,
            stack: Vec::with_capacity(8),
            records: Vec::with_capacity(if enabled { RETAINED } else { 0 }),
            dropped: 0,
            aggs: (0..NAMES.len()).map(|_| Agg::default()).collect(),
            samples: vec![Vec::new(); NAMES.len()],
        }
    }

    /// Sets the op id the next spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn open(&mut self, name: S) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().map_or(0, |o| o.id);
        self.stack.push(Open {
            id: self.next_id,
            parent,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        self.next_id += 1;
    }

    /// Closes the innermost span and returns its duration in ns.
    pub fn close(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("close() matches an open()");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = &mut self.aggs[open.name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        self.samples[open.name as usize].push(dur);
        if self.records.len() < RETAINED {
            self.records.push(Record {
                id: open.id,
                parent: open.parent,
                op: self.op,
                name: open.name,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Runs `f` inside span `name`.
    pub fn time<T>(&mut self, name: S, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Median duration of `name` in ns, if it was ever recorded.
    pub fn median_ns(&self, name: S) -> Option<f64> {
        let mut v = self.samples[name as usize].clone();
        crate::stats::quantile(&mut v, 0.5).map(|x| x as f64)
    }

    /// Writes the span file: one header line, one line per retained
    /// span, then one summary line per span name.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"header\":{header},\"retained\":{},\"not_retained\":{}}}",
            self.records.len(),
            self.dropped
        )?;
        for r in &self.records {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.id, r.parent, r.op, NAMES[r.name as usize], r.start_ns, r.end_ns
            )?;
        }
        for (i, agg) in self.aggs.iter().enumerate() {
            if agg.count > 0 {
                writeln!(
                    out,
                    "{{\"summary\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    NAMES[i], agg.count, agg.total_ns, agg.self_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open(S::Op);
        t.time(S::Parse, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let op = &t.aggs[S::Op as usize];
        let parse = &t.aggs[S::Parse as usize];
        assert_eq!((op.count, parse.count), (1, 1));
        assert!(parse.total_ns >= 2_000_000);
        assert_eq!(op.self_ns, op.total_ns - parse.total_ns);
        // Records are kept in close order: the child first.
        assert_eq!(t.records[0].parent, t.records[1].id);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time(S::Op, || 5), 5);
        assert!(t.samples.iter().all(Vec::is_empty));
    }
}
