//! perfbench: one closed-loop client drives one workload against the
//! statistics stack, checks every output, and prints each metric with
//! its unit. See README.md for the workloads, the metrics and the span
//! file.
//!
//! Usage: perfbench --workload hot_repeat|cold_churn|wire_mixed
//!                  --seed N --seconds S --trace 0|1

mod alloc;
mod gen;
mod host;
mod stats;
mod tracer;
mod truth;

use engine::{Engine, StatsUse};
use gen::{Dataset, Kind, Op, Scale, Shape, Stream, BUCKETS, CLASS};
use netserve::proto::{Request, Response};
use relstore::catalog::StatKey;
use relstore::{Catalog, DaemonConfig, DaemonCore, DurableCatalog, Relation};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracer::{Tracer, S};
use vopt_hist::BuilderSpec;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const SPEC: BuilderSpec = BuilderSpec::VOptEndBiased(BUCKETS);
const TENANT: &str = "bench";
/// Where runs keep their data directories and span files.
const RUN_DIR: &str = ".perfbench_run";
/// The untraced run sets up at least `SETUP_MIN_REPS` times and for at
/// least `SETUP_MIN_S` seconds; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
/// Leading ops whose estimate bits form the run's digest.
const DIGEST_OPS: u64 = 2048;
/// `hot_repeat`'s maintenance writes per run (see `shadow_writes`).
const HOT_WRITES: usize = 512;
/// The timed loop runs in slices of about this many seconds;
/// `ops_per_s` is the median slice rate, and the traced run alternates
/// untraced and traced slices.
const SLICE_S: f64 = 1.0;
/// Repetitions of each probe call in the traced run.
const PROBE_REPS: usize = 8;
/// `read_snapshot` calls per timed batch (one call is below the clock's
/// resolution).
const PIN_BATCH: u64 = 64;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The instance a run drives (one per run, so the variants' sizes do
/// not matter).
#[allow(clippy::large_enum_variant)]
enum Sut {
    InProcess {
        engine: Engine,
        store: Arc<DurableCatalog>,
        daemon: DaemonCore,
    },
    Wire {
        server: netserve::Server,
        client: netserve::Client,
    },
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Opens the store or server, registers or LOADs every relation and
/// runs the durable ANALYZE: everything up to the first estimate.
/// Returns the instance and the seconds that took.
fn setup(
    kind: Kind,
    ds: &Dataset,
    shared: &[Arc<Relation>],
    dir: &Path,
    seed: u64,
) -> Result<(Sut, f64), String> {
    if kind == Kind::WireMixed {
        let t0 = Instant::now();
        let server = netserve::Server::start(netserve::ServerConfig {
            tenants_dir: dir.to_path_buf(),
            // The tenant daemon never sweeps on its own: writes are
            // driven from the op stream, never by a timer.
            daemon_tick: Duration::from_secs(24 * 3600),
            ..netserve::ServerConfig::default()
        })
        .map_err(err("start server"))?;
        let mut client = netserve::Client::connect(server.local_addr()).map_err(err("connect"))?;
        for r in &ds.relations {
            client
                .load_relation(TENANT, r)
                .map_err(err("LOAD_RELATION"))?;
        }
        client
            .analyze(TENANT, CLASS, BUCKETS as u32)
            .map_err(err("ANALYZE"))?;
        let secs = t0.elapsed().as_secs_f64();
        return Ok((Sut::Wire { server, client }, secs));
    }
    // The engine's own copies of the relations are made before timing.
    let owned = ds.relations.clone();
    let t0 = Instant::now();
    let store = Arc::new(DurableCatalog::open(dir).map_err(err("open store"))?);
    let mut engine = Engine::new();
    engine.attach_catalog(store.catalog_arc());
    let mut daemon = DaemonCore::new(DaemonConfig {
        jitter_seed: seed,
        ..DaemonConfig::default()
    });
    for (rel, arc) in owned.into_iter().zip(shared) {
        daemon.register_with_spec(Arc::clone(arc), "v", SPEC);
        engine.register(rel);
    }
    engine
        .analyze_all_durable(&store, SPEC)
        .map_err(err("durable ANALYZE"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Sut::InProcess {
            engine,
            store,
            daemon,
        },
        secs,
    ))
}

/// An in-process engine over the dataset: the reference wire estimates
/// must equal bit for bit.
fn reference_engine(ds: &Dataset) -> Result<Engine, String> {
    let mut engine = Engine::new();
    for r in &ds.relations {
        engine.register(r.clone());
    }
    engine.analyze_all_with(SPEC).map_err(err("ANALYZE"))?;
    Ok(engine)
}

/// Stops a server and waits for every thread it started.
fn teardown(sut: Sut) -> Result<(), String> {
    if let Sut::Wire { server, client, .. } = sut {
        drop(client);
        server.shutdown();
        server.join().map_err(err("server shutdown"))?;
    }
    Ok(())
}

/// Everything one run measures and checks.
struct Bench<'a> {
    kind: Kind,
    ds: &'a Dataset,
    stream: &'a Stream,
    sut: Sut,
    /// `wire_mixed` only: see `reference_engine`.
    reference: Option<Engine>,
    tr: Tracer,
    /// Largest possible result of each query: the product of the sizes
    /// of its relations.
    bounds: Vec<f64>,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: u64,
    journal_deltas: Vec<u64>,
    wire_journal: f64,
    est_hit_ns: Vec<u64>,
    est_miss_ns: Vec<u64>,
    read_allocs: (u64, u64, u64),
    wire_bytes: f64,
    /// `hot_repeat` only: the store and daemon its writes go to.
    shadow: Option<(Arc<DurableCatalog>, DaemonCore)>,
}

/// The engine the checks and probes call directly: the served one in
/// process, the reference one for the wire workload.
fn engine_of<'e>(sut: &'e Sut, reference: &'e Option<Engine>) -> &'e Engine {
    match (sut, reference) {
        (Sut::InProcess { engine, .. }, _) => engine,
        (Sut::Wire { .. }, Some(reference)) => reference,
        (Sut::Wire { .. }, None) => unreachable!("the wire workload builds a reference engine"),
    }
}

impl Bench<'_> {
    fn engine(&self) -> &Engine {
        engine_of(&self.sut, &self.reference)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// One estimate: parse + `estimate_with_sources` in process, the
    /// full ESTIMATE round trip on the wire.
    fn read(&mut self, text: &str) -> Result<f64, String> {
        let hits = obs::counter("est_cache_hit_total");
        let traced = self.tr.enabled;
        let (h0, a0) = if traced {
            (hits.get(), alloc::totals())
        } else {
            (0, (0, 0))
        };
        let out = match &mut self.sut {
            Sut::InProcess { engine, .. } => {
                self.tr.open(S::Parse);
                let q = engine.parse(text);
                self.tr.close();
                let q = q.map_err(err("parse"))?;
                self.tr.open(S::Estimate);
                let r = engine.estimate_with_sources(&q);
                let dur = self.tr.close();
                if traced {
                    if hits.get() > h0 {
                        self.est_hit_ns.push(dur);
                    } else {
                        self.est_miss_ns.push(dur);
                    }
                }
                r.map(|(e, _)| e).map_err(err("estimate"))
            }
            Sut::Wire { client, .. } => {
                self.tr.open(S::WireEstimate);
                let r = client.estimate(TENANT, text);
                self.tr.close();
                r.map(|(e, _)| e).map_err(err("ESTIMATE"))
            }
        };
        if traced {
            let a1 = alloc::totals();
            self.read_allocs.0 += 1;
            self.read_allocs.1 += a1.0 - a0.0;
            self.read_allocs.2 += a1.1 - a0.1;
        }
        out
    }

    /// One maintenance write on relation `rel`.
    fn write(&mut self, rel: usize) -> Result<(), String> {
        let relation = &self.ds.relations[rel];
        match &mut self.sut {
            Sut::InProcess { store, daemon, .. } => maintain(
                store,
                daemon,
                relation,
                &mut self.tr,
                &mut self.journal_deltas,
            ),
            Sut::Wire { client, .. } => {
                self.tr.open(S::Load);
                let r = client.load_relation(TENANT, relation);
                self.tr.close();
                r.map_err(err("LOAD_RELATION"))?;
                self.tr.open(S::Analyze);
                let r = client.analyze(TENANT, CLASS, BUCKETS as u32);
                self.tr.close();
                r.map_err(err("ANALYZE"))?;
                // Only the tenant's store journals in this process while
                // the op stream runs, so the gauge is the tenant's.
                let now = obs::gauge("wal_journal_bytes").get();
                if now >= self.wire_journal {
                    self.journal_deltas.push((now - self.wire_journal) as u64);
                }
                self.wire_journal = now;
                Ok(())
            }
        }
    }

    /// Checks one served estimate and folds it into the digest.
    fn check_read(&mut self, i: u64, q: usize, r: Result<f64, String>) {
        match r {
            Ok(est) => {
                if !(est.is_finite() && est >= 0.0 && est <= self.bounds[q]) {
                    self.fail(format!(
                        "op {i}: estimate {est} outside [0, {}] for {}",
                        self.bounds[q], self.stream.texts[q]
                    ));
                }
                if i < DIGEST_OPS {
                    self.digest = stats::fnv1a(stats::fnv1a(self.digest, i), est.to_bits());
                }
            }
            Err(e) => self.fail(format!("op {i}: {e}")),
        }
    }

    /// The closed loop: `seconds` of ops in slices of about `SLICE_S`,
    /// alternately untraced and traced when `traced`. Returns (ops done,
    /// per-slice (traced, ops/s)).
    fn timed(&mut self, seconds: f64, traced: bool) -> (u64, Vec<(bool, f64)>) {
        let stream = self.stream;
        let slices = ((seconds / SLICE_S).round() as u32).max(2);
        let slice = Duration::from_secs_f64(seconds / slices as f64);
        let mut i = 0u64;
        let mut rates = Vec::new();
        for s in 0..slices {
            let on = traced && s % 2 == 1;
            self.tr.enabled = on;
            if traced {
                alloc::set_counting(on);
            }
            let first = i;
            let start = Instant::now();
            let deadline = start + slice;
            let mut t0 = start;
            while t0 < deadline {
                self.tr.set_op(i);
                self.tr.open(S::Op);
                match stream.op(i) {
                    Op::Read(q) => {
                        let r = self.read(&stream.texts[q]);
                        let t1 = Instant::now();
                        self.read_ns.push((t1 - t0).as_nanos() as u64);
                        t0 = t1;
                        self.check_read(i, q, r);
                    }
                    Op::Write(rel) => {
                        self.tr.open(S::Write);
                        let r = self.write(rel);
                        self.tr.close();
                        let t1 = Instant::now();
                        self.write_ns.push((t1 - t0).as_nanos() as u64);
                        t0 = t1;
                        if let Err(e) = r {
                            self.fail(format!("op {i}: {e}"));
                        }
                    }
                }
                self.tr.close();
                i += 1;
            }
            rates.push((on, (i - first) as f64 / (t0 - start).as_secs_f64()));
            self.shadow_writes(HOT_WRITES.div_ceil(slices as usize), traced);
        }
        self.attempted += i;
        self.tr.enabled = traced;
        (i, rates)
    }

    /// `hot_repeat`'s stream is read-only, so its write metrics come from
    /// the same maintenance write applied to a second store with the same
    /// statistics, `writes` at a time between read slices: spread over
    /// the run like `cold_churn`'s writes, while the served engine's
    /// cache stays valid.
    fn shadow_writes(&mut self, writes: usize, traced: bool) {
        let Some((store, mut daemon)) = self.shadow.take() else {
            return;
        };
        let enabled = std::mem::replace(&mut self.tr.enabled, traced);
        for _ in 0..writes {
            let k = self.write_ns.len();
            let relation = &self.ds.relations[k % self.ds.relations.len()];
            self.tr.open(S::Write);
            let t0 = Instant::now();
            let r = maintain(
                &store,
                &mut daemon,
                relation,
                &mut self.tr,
                &mut self.journal_deltas,
            );
            self.write_ns.push(t0.elapsed().as_nanos() as u64);
            self.tr.close();
            self.attempted += 1;
            if let Err(e) = r {
                self.fail(format!("shadow write {k}: {e}"));
            }
        }
        self.tr.enabled = enabled;
        self.shadow = Some((store, daemon));
    }

    /// Output checks outside timing. Returns the Q-error of each query of
    /// `quality`.
    fn checks(&mut self, ops_done: u64, sample: &[usize], quality: &[usize]) -> Vec<f64> {
        let stream = self.stream;
        // The digest of the leading ops, recomputed on the uncached path.
        let mut digest = stats::FNV_OFFSET;
        for i in 0..ops_done.min(DIGEST_OPS) {
            if let Op::Read(q) = stream.op(i) {
                let est = self
                    .engine()
                    .parse(&stream.texts[q])
                    .and_then(|p| self.engine().estimate_with_sources_uncached(&p));
                if let Ok((est, _)) = est {
                    digest = stats::fnv1a(stats::fnv1a(digest, i), est.to_bits());
                }
            }
        }
        self.attempted += 1;
        if digest != self.digest {
            self.fail(format!(
                "digest {:016x} of the timed ops differs from the uncached recomputation {digest:016x}",
                self.digest
            ));
        }
        for &q in sample {
            self.attempted += 1;
            if let Err(e) = self.check_one(q) {
                self.fail(format!("{}: {e}", stream.texts[q]));
            }
        }
        // Q-error over the wider sample. Its ground truth comes from the
        // frequency tables, which `check_one` holds to `Engine::execute`
        // on the check sample; executing every join of the wider sample
        // would cost seconds per run. On the wire the served estimates
        // equal the reference engine's bit for bit (checked above).
        let mut qerrors = Vec::with_capacity(quality.len());
        for &q in quality {
            let estimate = self
                .engine()
                .parse(&stream.texts[q])
                .and_then(|p| self.engine().estimate_with_sources(&p));
            match estimate {
                Ok((est, _)) => qerrors.push(truth::qerror(
                    est,
                    truth::from_frequencies(self.ds, &stream.queries[q]),
                )),
                Err(e) => {
                    self.attempted += 1;
                    self.fail(format!("{}: {e}", stream.texts[q]));
                }
            }
        }
        qerrors
    }

    /// Cached ≡ uncached, wire ≡ in-process, and the exact count from
    /// the frequency tables ≡ `Engine::execute`, for one sampled query.
    fn check_one(&mut self, q: usize) -> Result<(), String> {
        let spec = self.stream.queries[q];
        let text = &self.stream.texts[q];
        let engine = self.engine();
        let parsed = engine.parse(text).map_err(err("parse"))?;
        let cached = engine
            .estimate_with_sources(&parsed)
            .map_err(err("estimate"))?;
        let uncached = engine
            .estimate_with_sources_uncached(&parsed)
            .map_err(err("uncached estimate"))?;
        same(&cached, &uncached, "cached", "uncached")?;
        // The band join's executor materialises every matching pair
        // (about 10^8 at this scale), so band counts are not executed.
        if spec.shape != Shape::Band {
            let exact = truth::from_frequencies(self.ds, &spec);
            let executed = engine.execute(&parsed).map_err(err("execute"))?;
            if executed != exact {
                return Err(format!(
                    "execute counts {executed} but the frequency tables give {exact}"
                ));
            }
        }
        if let Sut::Wire { client, .. } = &mut self.sut {
            let wire = client.estimate(TENANT, text).map_err(err("ESTIMATE"))?;
            same(&wire, &cached, "wire", "in-process")?;
        }
        Ok(())
    }
}

/// The in-process maintenance write: `note_updates` for a fifth of the
/// relation's rows, then one synchronous daemon tick, which re-ANALYZEs
/// the column durably (and compacts the journal past 1 MiB).
fn maintain(
    store: &DurableCatalog,
    daemon: &mut DaemonCore,
    relation: &Relation,
    tr: &mut Tracer,
    journal_deltas: &mut Vec<u64>,
) -> Result<(), String> {
    let name = relation.name();
    let before = store.journal_bytes();
    tr.open(S::NoteUpdates);
    let r = store.note_updates(name, relation.num_rows() as u64 / 5);
    tr.close();
    r.map_err(err("note_updates"))?;
    tr.open(S::DaemonTick);
    daemon.tick(store);
    tr.close();
    let after = store.journal_bytes();
    // A tick that compacted the journal shrinks it; those ticks give no
    // per-write byte count.
    if after >= before {
        journal_deltas.push(after - before);
    }
    let stale = store
        .catalog()
        .read_snapshot()
        .staleness(&StatKey::new(name, &["v"]))
        .map_err(err("staleness"))?;
    if stale != 0 {
        return Err(format!("{name}.v is still stale after the daemon tick"));
    }
    Ok(())
}

fn same(
    a: &(f64, Vec<StatsUse>),
    b: &(f64, Vec<StatsUse>),
    an: &str,
    bn: &str,
) -> Result<(), String> {
    if a.0.to_bits() != b.0.to_bits() || a.1 != b.1 {
        return Err(format!(
            "{an} estimate {} {:?} differs from {bn} {} {:?}",
            a.0, a.1, b.0, b.1
        ));
    }
    Ok(())
}

/// The traced run's layer probes: timed calls into each layer's public
/// functions on this workload's data, outside the op stream.
fn probes(b: &mut Bench, sample: &[usize], dir: &Path) -> Result<(), String> {
    let ds = b.ds;
    let stream = b.stream;
    // Engine (wire only: the in-process workloads take these from the
    // op stream). The reference engine's cache is cold here, so the
    // first estimate of each query misses and the second hits.
    if b.kind == Kind::WireMixed {
        for &q in sample {
            for _ in 0..2 {
                let reference = engine_of(&b.sut, &b.reference);
                let hits = obs::counter("est_cache_hit_total");
                b.tr.open(S::Parse);
                let parsed = reference.parse(&stream.texts[q]);
                b.tr.close();
                let parsed = parsed.map_err(err("parse"))?;
                let h0 = hits.get();
                b.tr.open(S::Estimate);
                let r = reference.estimate_with_sources(&parsed);
                let dur = b.tr.close();
                r.map_err(err("estimate"))?;
                if hits.get() > h0 {
                    b.est_hit_ns.push(dur);
                } else {
                    b.est_miss_ns.push(dur);
                }
            }
        }
    }
    // relstore: snapshot pin, in batches.
    let snap = b.engine().catalog().read_snapshot();
    for _ in 0..2000 {
        let catalog = engine_of(&b.sut, &b.reference).catalog();
        b.tr.open(S::SnapshotPin);
        for _ in 0..PIN_BATCH {
            black_box(catalog.read_snapshot());
        }
        b.tr.close();
    }
    // query kernels, on histograms from the snapshot and the union domain
    // of each pair's frequency tables.
    let key = |i: usize| StatKey::new(ds.relations[i].name(), &["v"]);
    let mut unions = Vec::new();
    for p in 0..gen::PAIRS {
        let mut u = Vec::new();
        for side in 0..2 {
            let t = relstore::stats::frequency_table(&ds.relations[2 * p + side], "v")
                .map_err(err("frequency_table"))?;
            u.extend(t.values);
        }
        u.sort_unstable();
        u.dedup();
        unions.push(u);
    }
    for &q in sample {
        let spec = stream.queries[q];
        let (l, r) = (2 * spec.pair, 2 * spec.pair + 1);
        let own = snap
            .get(&key(2 * spec.pair + spec.side))
            .map_err(err("get"))?;
        let (hl, hr) = (
            snap.get(&key(l)).map_err(err("get"))?,
            snap.get(&key(r)).map_err(err("get"))?,
        );
        for _ in 0..PROBE_REPS {
            match spec.shape {
                Shape::Join | Shape::JoinLt => b.tr.time(S::JoinKernel, || {
                    black_box(query::estimate::estimate_two_way_join(
                        hl,
                        hr,
                        &unions[spec.pair],
                    ))
                }),
                Shape::Lt | Shape::Between => {
                    let pred = if spec.shape == Shape::Lt {
                        query::Predicate::Lt(spec.a)
                    } else {
                        query::Predicate::Between(spec.a, spec.b)
                    };
                    let (lo, hi) = pred.interval().expect("range predicates have an interval");
                    b.tr.time(S::RangeKernel, || {
                        black_box(query::estimate::estimate_range(own, lo, hi))
                    })
                }
                Shape::Band => b.tr.time(S::BandKernel, || {
                    black_box(query::estimate::estimate_band_join(hl, hr, spec.a))
                }),
                Shape::Eq => 0.0,
            };
        }
    }
    // netserve codec, on this workload's requests and responses.
    let mut frame_bytes = Vec::new();
    for &q in sample {
        let text = &stream.texts[q];
        let parsed = b.engine().parse(text).map_err(err("parse"))?;
        let (estimate, sources) = b
            .engine()
            .estimate_with_sources(&parsed)
            .map_err(err("estimate"))?;
        let request = Request::Estimate {
            tenant: TENANT.to_string(),
            sql: text.clone(),
        };
        let response = Response::Estimated { estimate, sources };
        let response_len = response.encode_frame().map_err(err("encode"))?.len();
        let (opcode, payload) = response.encode();
        for _ in 0..PROBE_REPS {
            b.tr.open(S::Encode);
            let frame = request.encode_frame();
            b.tr.close();
            let frame = frame.map_err(err("encode"))?;
            frame_bytes.push((frame.len() + response_len) as f64);
            let payload = payload.clone();
            b.tr.open(S::Decode);
            let decoded = Response::decode(opcode, payload);
            b.tr.close();
            decoded.map_err(err("decode"))?;
        }
    }
    b.wire_bytes = frame_bytes.iter().sum::<f64>() / frame_bytes.len().max(1) as f64;
    // relstore + core: scan, build and a journaled put into a probe store.
    let probe_store = DurableCatalog::open(dir.join("probe_store")).map_err(err("open store"))?;
    for _ in 0..2 {
        for (i, rel) in ds.relations.iter().enumerate() {
            b.tr.open(S::Scan);
            let table = relstore::stats::frequency_table(rel, "v");
            b.tr.close();
            let table = table.map_err(err("frequency_table"))?;
            b.tr.open(S::Build);
            let hist = Catalog::build_stored(&table, SPEC);
            b.tr.close();
            let hist = hist.map_err(err("build_stored"))?;
            b.tr.open(S::WalPut);
            let put = probe_store.put_with_spec(key(i), hist, Some(SPEC));
            b.tr.close();
            put.map_err(err("put_with_spec"))?;
        }
    }
    // The wire workload has no daemon in process: tick one over the
    // probe store, one write per relation.
    if b.kind == Kind::WireMixed {
        let probe_store = Arc::new(probe_store);
        let mut daemon = DaemonCore::new(DaemonConfig::default());
        for rel in &ds.relations {
            daemon.register_with_spec(Arc::new(rel.clone()), "v", SPEC);
        }
        for rel in &ds.relations {
            probe_store
                .note_updates(rel.name(), rel.num_rows() as u64 / 5)
                .map_err(err("note_updates"))?;
            b.tr.time(S::DaemonTick, || daemon.tick(&probe_store));
        }
    }
    // netserve round trips. The in-process workloads start a probe
    // server and LOAD + ANALYZE the dataset into it.
    match &mut b.sut {
        Sut::Wire { client, .. } => {
            for _ in 0..256 {
                b.tr.open(S::Ping);
                let r = client.ping();
                b.tr.close();
                r.map_err(err("PING"))?;
            }
        }
        Sut::InProcess { .. } => {
            let server = netserve::Server::start(netserve::ServerConfig {
                tenants_dir: dir.join("probe_tenants"),
                daemon_tick: Duration::from_secs(24 * 3600),
                ..netserve::ServerConfig::default()
            })
            .map_err(err("start server"))?;
            let result = (|| -> Result<(), String> {
                let mut client =
                    netserve::Client::connect(server.local_addr()).map_err(err("connect"))?;
                for _ in 0..256 {
                    b.tr.open(S::Ping);
                    let r = client.ping();
                    b.tr.close();
                    r.map_err(err("PING"))?;
                }
                for rel in &ds.relations {
                    b.tr.open(S::Load);
                    let r = client.load_relation(TENANT, rel);
                    b.tr.close();
                    r.map_err(err("LOAD_RELATION"))?;
                }
                for _ in 0..3 {
                    b.tr.open(S::Analyze);
                    let r = client.analyze(TENANT, CLASS, BUCKETS as u32);
                    b.tr.close();
                    r.map_err(err("ANALYZE"))?;
                }
                Ok(())
            })();
            server.shutdown();
            server.join().map_err(err("probe server shutdown"))?;
            result?;
        }
    }
    Ok(())
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn median_of(v: &[u64]) -> Option<f64> {
    stats::quantile(&mut v.to_vec(), 0.5).map(|x| x as f64)
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>, String), String> {
    let pid = std::process::id();
    let run_dir = PathBuf::from(RUN_DIR);
    let data = run_dir.join(format!("data-{pid}"));
    let _ = std::fs::remove_dir_all(&data);
    std::fs::create_dir_all(&data).map_err(err("create data dir"))?;
    let _cleanup = RemoveOnDrop(data.clone());

    let ds = Dataset::generate(args.seed, Scale::FULL);
    let stream = Stream::generate(args.kind, args.seed);
    let sample = stream.sample(gen::SAMPLE);
    let quality = stream.sample(gen::QUALITY);
    let shared: Vec<Arc<Relation>> = ds.relations.iter().cloned().map(Arc::new).collect();
    let bounds = stream
        .queries
        .iter()
        .map(|q| q.tables().iter().map(|&t| ds.rows(t) as f64).product())
        .collect();

    let (sut, _) = setup(args.kind, &ds, &shared, &data.join("main"), args.seed)?;
    let mut b = Bench {
        kind: args.kind,
        ds: &ds,
        stream: &stream,
        sut,
        reference: None,
        tr: Tracer::new(args.trace),
        bounds,
        read_ns: Vec::new(),
        write_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        digest: stats::FNV_OFFSET,
        journal_deltas: Vec::new(),
        wire_journal: 0.0,
        est_hit_ns: Vec::new(),
        est_miss_ns: Vec::new(),
        read_allocs: (0, 0, 0),
        wire_bytes: 0.0,
        shadow: None,
    };
    // Warm-up: the first sampled queries once each (all the queries
    // `hot_repeat` repeats). In the traced run these are the in-process
    // workloads' first cache misses.
    for (k, &q) in sample[..gen::HOT_QUERIES].iter().enumerate() {
        b.tr.set_op(k as u64);
        b.tr.open(S::Warmup);
        let r = b.read(&stream.texts[q]);
        b.tr.close();
        r.map_err(err("warm-up"))?;
    }
    let heap_peak = alloc::peak_bytes();
    // Benchmark scaffolding, built after the peak is read.
    match args.kind {
        Kind::HotRepeat => {
            let dir = data.join("shadow");
            if let (Sut::InProcess { store, daemon, .. }, _) =
                setup(args.kind, &ds, &shared, &dir, args.seed)?
            {
                b.shadow = Some((store, daemon));
            }
        }
        Kind::WireMixed => b.reference = Some(reference_engine(&ds)?),
        Kind::ColdChurn => {}
    }
    let mut setup_samples = Vec::new();
    if !args.trace {
        alloc::set_counting(false);
        let mut spent = 0.0;
        for rep in 0.. {
            if rep >= SETUP_MIN_REPS && spent >= SETUP_MIN_S {
                break;
            }
            let dir = data.join(format!("setup{rep}"));
            let (sut, secs) = setup(args.kind, &ds, &shared, &dir, args.seed)?;
            teardown(sut)?;
            let _ = std::fs::remove_dir_all(&dir);
            setup_samples.push(secs);
            spent += secs;
        }
    }
    b.read_ns.reserve(1 << 21);
    b.write_ns.reserve(1 << 14);
    if args.trace {
        for s in [S::Op, S::Parse, S::Estimate, S::WireEstimate] {
            b.tr.samples[s as usize].reserve(1 << 20);
        }
    }

    let counter = |name: &str| obs::counter(name).get();
    let c0 = (
        counter("est_cache_hit_total"),
        counter("est_cache_miss_total"),
        counter("est_cache_evict_total"),
        counter("wal_checkpoint_total"),
        obs::trace::dropped(),
    );
    b.wire_journal = obs::gauge("wal_journal_bytes").get();
    let (ops, rates) = b.timed(args.seconds, args.trace);
    let rate = |traced: bool| {
        stats::median_f64(
            &rates
                .iter()
                .filter(|r| r.0 == traced)
                .map(|r| r.1)
                .collect::<Vec<_>>(),
        )
    };
    let timed_writes = b.write_ns.len();
    let c1 = (
        counter("est_cache_hit_total"),
        counter("est_cache_miss_total"),
        counter("est_cache_evict_total"),
        counter("wal_checkpoint_total"),
        obs::trace::dropped(),
    );
    alloc::set_counting(false);
    if args.trace {
        probes(&mut b, &sample, &data)?;
    }
    b.tr.enabled = false;
    let mut qerrors = b.checks(ops, &sample, &quality);

    let mut metrics: Vec<Metric> = Vec::new();
    let reads = b.read_ns.len() as u64;
    let q_us =
        |v: &mut Vec<u64>, q: f64| stats::quantile(v, q).map_or(f64::NAN, |x| x as f64 / 1e3);
    let q_ms =
        |v: &mut Vec<u64>, q: f64| stats::quantile(v, q).map_or(f64::NAN, |x| x as f64 / 1e6);
    if !args.trace {
        metrics.push(("setup_s", stats::median_f64(&setup_samples), "s"));
        metrics.push(("ops_per_s", rate(false), "1/s"));
        metrics.push(("est_p50_us", q_us(&mut b.read_ns, 0.5), "us"));
        metrics.push(("est_p99_us", q_us(&mut b.read_ns, 0.99), "us"));
        metrics.push(("write_p50_ms", q_ms(&mut b.write_ns, 0.5), "ms"));
        metrics.push(("write_p90_ms", q_ms(&mut b.write_ns, 0.9), "ms"));
        metrics.push((
            "qerror_p50",
            stats::quantile(&mut qerrors, 0.5).unwrap_or(f64::NAN),
            "ratio",
        ));
        metrics.push((
            "qerror_p90",
            stats::quantile(&mut qerrors, 0.9).unwrap_or(f64::NAN),
            "ratio",
        ));
        metrics.push(("heap_peak_mb", heap_peak as f64 / (1024.0 * 1024.0), "MiB"));
    } else {
        let tr = &b.tr;
        let us = |s: S| tr.median_ns(s).map_or(f64::NAN, |x| x / 1e3);
        let ms = |s: S| tr.median_ns(s).map_or(f64::NAN, |x| x / 1e6);
        let (hits, misses) = (c1.0 - c0.0, c1.1 - c0.1);
        let (n, allocs, bytes) = b.read_allocs;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mean_u64 = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        metrics.extend([
            ("engine.parse_us", us(S::Parse), "us"),
            (
                "engine.estimate_hit_us",
                median_of(&b.est_hit_ns).map_or(f64::NAN, |x| x / 1e3),
                "us",
            ),
            (
                "engine.estimate_miss_us",
                median_of(&b.est_miss_ns).map_or(f64::NAN, |x| x / 1e3),
                "us",
            ),
            (
                "engine.cache_hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
            ),
            ("engine.cache_evictions", (c1.2 - c0.2) as f64, "count"),
            ("engine.allocs_per_op", ratio(allocs, n), "count"),
            ("engine.alloc_bytes_per_op", ratio(bytes, n), "bytes"),
            ("query.join_kernel_us", us(S::JoinKernel), "us"),
            ("query.range_kernel_us", us(S::RangeKernel), "us"),
            ("query.band_kernel_us", us(S::BandKernel), "us"),
            (
                "relstore.snapshot_pin_ns",
                tr.median_ns(S::SnapshotPin)
                    .map_or(f64::NAN, |x| x / PIN_BATCH as f64),
                "ns",
            ),
            ("relstore.scan_ms", ms(S::Scan), "ms"),
            ("relstore.wal_put_us", us(S::WalPut), "us"),
            ("relstore.daemon_tick_ms", ms(S::DaemonTick), "ms"),
            (
                "relstore.journal_bytes_per_write",
                mean_u64(&b.journal_deltas),
                "bytes",
            ),
            ("relstore.checkpoints", (c1.3 - c0.3) as f64, "count"),
            ("core.build_ms", ms(S::Build), "ms"),
            ("netserve.ping_rtt_us", us(S::Ping), "us"),
            ("netserve.encode_us", us(S::Encode), "us"),
            ("netserve.decode_us", us(S::Decode), "us"),
            ("netserve.bytes_per_estimate", b.wire_bytes, "bytes"),
            ("netserve.load_ms", ms(S::Load), "ms"),
            ("netserve.analyze_ms", ms(S::Analyze), "ms"),
            ("obs.trace_dropped", (c1.4 - c0.4) as f64, "count"),
            ("obs.tracing_overhead", rate(false) / rate(true), "ratio"),
        ]);
    }
    if let Some((name, ..)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} has no samples"));
    }

    let span_file = if args.trace {
        let path = run_dir.join(format!("spans-{}-{}.jsonl", args.kind.name(), args.seed));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"pid\":{pid}}}",
            args.kind.name(),
            args.seed
        );
        b.tr.write(&path, &header).map_err(err("write span file"))?;
        host::json_str(&path.display().to_string())
    } else {
        "null".to_string()
    };
    let report = format!(
        "{{\"report\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"ops\":{{\"timed\":{ops},\"reads\":{reads},\"writes_in_stream\":{timed_writes},\"writes\":{},\"checks\":{}}},\
         \"digest\":\"{:016x}\",\"setup_s_samples\":{:?},\"slice_rates\":{:?},\"problems\":[{}],\"span_file\":{span_file}}}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        host::record(&data),
        b.write_ns.len(),
        sample.len() + 1,
        b.digest,
        setup_samples,
        rates.iter().map(|r| r.1.round()).collect::<Vec<_>>(),
        b.problems.iter().map(|p| host::json_str(p)).collect::<Vec<_>>().join(","),
    );
    let (attempted, failed) = (b.attempted, b.failed);
    teardown(b.sut)?;
    Ok((failed == 0, attempted, failed, metrics, report))
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    alloc::set_counting(true);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload hot_repeat|cold_churn|wire_mixed --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics, report)) => {
            println!("{report}");
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
                body.join(",")
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
