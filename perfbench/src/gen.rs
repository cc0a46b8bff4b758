//! Seeded inputs: the shared dataset, the query mixes and the op
//! streams of the three workloads. Everything here is a pure function
//! of the seed, so a seed names one exact run of inputs.

use relstore::generate::relation_from_frequencies;
use relstore::Relation;
use std::fmt::Write as _;

/// Relation pairs in the dataset.
pub const PAIRS: usize = 8;
/// Domain sizes; pair `p` uses `DOMAINS[p / 2]`.
pub const DOMAINS: [usize; 4] = [1024, 2048, 4096, 8192];
/// Histogram budget of every ANALYZE (`v_opt_end_biased(10)`).
pub const BUCKETS: usize = 10;
/// The class name ANALYZE is asked for over the wire.
pub const CLASS: &str = "v_opt_end_biased";
/// Every `WRITE_EVERY_COLD`-th op of `cold_churn` is a maintenance write.
pub const WRITE_EVERY_COLD: u64 = 16;
/// Every `WRITE_EVERY_WIRE`-th op of `wire_mixed` is LOAD + ANALYZE.
pub const WRITE_EVERY_WIRE: u64 = 2000;
/// Ops generated per stream; longer runs cycle through it.
pub const STREAM_LEN: usize = 1 << 16;
/// Distinct queries `hot_repeat` and `wire_mixed` repeat.
pub const HOT_QUERIES: usize = PAIRS * SHAPES;
/// Distinct queries in the equivalence and execution check sample.
pub const SAMPLE: usize = 256;
/// Distinct queries the Q-error quantiles are taken over.
pub const QUALITY: usize = 2048;

const SHAPES: usize = 6;

/// Row counts and skews of the two sides of every pair.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub left_rows: u64,
    pub right_rows: u64,
}

impl Scale {
    /// The benchmark's dataset: about 2.8M rows in all.
    pub const FULL: Scale = Scale {
        left_rows: 200_000,
        right_rows: 150_000,
    };
}

const LEFT_Z: f64 = 1.1;
const RIGHT_Z: f64 = 0.8;

/// splitmix64: the one PRNG of the benchmark.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    splitmix64(state) % n
}

/// The shared dataset: relations `l0, r0, …, l7, r7` with one column
/// `v`, plus each relation's exact frequency per value.
pub struct Dataset {
    /// `relations[2p]` is `l{p}`, `relations[2p + 1]` is `r{p}`.
    pub relations: Vec<Relation>,
    /// `freqs[i][v]`: occurrences of value `v` in `relations[i]`.
    pub freqs: Vec<Vec<u64>>,
}

/// Domain size of pair `p`.
pub fn domain(p: usize) -> usize {
    DOMAINS[p / 2]
}

impl Dataset {
    /// Builds the dataset from `seed`. Each relation's Zipf frequencies
    /// are assigned to a seeded permutation of its domain, so the hot
    /// values differ between the sides of a pair and between seeds.
    pub fn generate(seed: u64, scale: Scale) -> Dataset {
        let mut rng = seed ^ 0x5eed_da7a;
        let mut relations = Vec::with_capacity(2 * PAIRS);
        let mut freqs = Vec::with_capacity(2 * PAIRS);
        for p in 0..PAIRS {
            let m = domain(p);
            for (side, rows, z) in [
                ("l", scale.left_rows, LEFT_Z),
                ("r", scale.right_rows, RIGHT_Z),
            ] {
                let ranked = freqdist::zipf::zipf_frequencies(rows, m, z)
                    .expect("Zipf parameters are valid constants");
                let mut values: Vec<u64> = (0..m as u64).collect();
                for i in (1..m).rev() {
                    values.swap(i, below(&mut rng, i as u64 + 1) as usize);
                }
                let mut dense = vec![0u64; m];
                for (&v, &f) in values.iter().zip(ranked.as_slice()) {
                    dense[v as usize] = f;
                }
                let row_seed = splitmix64(&mut rng);
                let relation = relation_from_frequencies(
                    format!("{side}{p}"),
                    "v",
                    &values,
                    &ranked,
                    row_seed,
                )
                .expect("values and frequencies have equal length");
                relations.push(relation);
                freqs.push(dense);
            }
        }
        Dataset { relations, freqs }
    }

    /// Rows of relation `i`.
    pub fn rows(&self, i: usize) -> u64 {
        self.relations[i].num_rows() as u64
    }
}

/// The predicate shape of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `t.v = a`
    Eq,
    /// `t.v < a`
    Lt,
    /// `t.v BETWEEN a AND b`
    Between,
    /// `l.v = r.v`
    Join,
    /// `abs(l.v - r.v) <= a`
    Band,
    /// `l.v = r.v AND l.v < a`
    JoinLt,
}

/// One query: the SQL text is rendered from it, and the exact count
/// is computed from it (see `truth`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    pub pair: usize,
    /// 0 = left relation, 1 = right (single-table shapes only).
    pub side: usize,
    pub shape: Shape,
    pub a: u64,
    pub b: u64,
}

impl QuerySpec {
    /// Draws shape `shape` on pair `pair` with fresh literals.
    pub fn draw(rng: &mut u64, pair: usize, shape: Shape) -> QuerySpec {
        let m = domain(pair) as u64;
        let side = below(rng, 2) as usize;
        let (a, b) = match shape {
            Shape::Eq => (below(rng, m), 0),
            Shape::Lt | Shape::JoinLt => (1 + below(rng, m - 1), 0),
            Shape::Between => {
                let a = below(rng, m - 1);
                (a, a + 1 + below(rng, m - 1 - a))
            }
            Shape::Join => (0, 0),
            Shape::Band => (1 + below(rng, 64), 0),
        };
        QuerySpec {
            pair,
            side,
            shape,
            a,
            b,
        }
    }

    /// Whether the query joins the pair's two relations.
    pub fn is_join(&self) -> bool {
        matches!(self.shape, Shape::Join | Shape::Band | Shape::JoinLt)
    }

    /// Indices into `Dataset::relations` of the tables in FROM.
    pub fn tables(&self) -> Vec<usize> {
        if self.is_join() {
            vec![2 * self.pair, 2 * self.pair + 1]
        } else {
            vec![2 * self.pair + self.side]
        }
    }

    /// The query in the engine's SQL dialect.
    pub fn sql(&self) -> String {
        let p = self.pair;
        let mut s = String::with_capacity(96);
        let t = format!("{}{p}", ["l", "r"][self.side]);
        let _ = match self.shape {
            Shape::Eq => write!(s, "SELECT COUNT(*) FROM {t} WHERE {t}.v = {}", self.a),
            Shape::Lt => write!(s, "SELECT COUNT(*) FROM {t} WHERE {t}.v < {}", self.a),
            Shape::Between => write!(
                s,
                "SELECT COUNT(*) FROM {t} WHERE {t}.v BETWEEN {} AND {}",
                self.a, self.b
            ),
            Shape::Join => write!(s, "SELECT COUNT(*) FROM l{p}, r{p} WHERE l{p}.v = r{p}.v"),
            Shape::Band => write!(
                s,
                "SELECT COUNT(*) FROM l{p}, r{p} WHERE abs(l{p}.v - r{p}.v) <= {}",
                self.a
            ),
            Shape::JoinLt => write!(
                s,
                "SELECT COUNT(*) FROM l{p}, r{p} WHERE l{p}.v = r{p}.v AND l{p}.v < {}",
                self.a
            ),
        };
        s
    }
}

const ALL_SHAPES: [Shape; SHAPES] = [
    Shape::Eq,
    Shape::Lt,
    Shape::Between,
    Shape::Join,
    Shape::Band,
    Shape::JoinLt,
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotRepeat,
    ColdChurn,
    WireMixed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "hot_repeat" => Some(Kind::HotRepeat),
            "cold_churn" => Some(Kind::ColdChurn),
            "wire_mixed" => Some(Kind::WireMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotRepeat => "hot_repeat",
            Kind::ColdChurn => "cold_churn",
            Kind::WireMixed => "wire_mixed",
        }
    }
}

/// One op of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Estimate `queries[i]`.
    Read(usize),
    /// Maintenance write on relation `i` of the dataset.
    Write(usize),
}

/// A workload's queries and its op stream.
pub struct Stream {
    pub queries: Vec<QuerySpec>,
    pub texts: Vec<String>,
    /// `reads[i % STREAM_LEN]` is the query of read op `i`.
    reads: Vec<u32>,
    write_every: Option<u64>,
}

impl Stream {
    /// The op stream of `kind` for `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Stream {
        let mut rng = seed ^ 0x0b5_7e4d;
        let (queries, reads): (Vec<QuerySpec>, Vec<u32>) = match kind {
            Kind::HotRepeat | Kind::WireMixed => {
                // The 48 queries the stream repeats come first; the rest
                // are drawn the same way and only widen the check and
                // Q-error samples (48 queries give an unsteady p90).
                let queries: Vec<QuerySpec> = (0..QUALITY)
                    .map(|i| {
                        let (p, s) = (i / SHAPES % PAIRS, ALL_SHAPES[i % SHAPES]);
                        QuerySpec::draw(&mut rng, p, s)
                    })
                    .collect();
                let reads = (0..STREAM_LEN)
                    .map(|_| below(&mut rng, HOT_QUERIES as u64) as u32)
                    .collect();
                (queries, reads)
            }
            Kind::ColdChurn => {
                let queries: Vec<QuerySpec> = (0..STREAM_LEN)
                    .map(|_| {
                        let p = below(&mut rng, PAIRS as u64) as usize;
                        let s = ALL_SHAPES[below(&mut rng, SHAPES as u64) as usize];
                        QuerySpec::draw(&mut rng, p, s)
                    })
                    .collect();
                (queries, (0..STREAM_LEN as u32).collect())
            }
        };
        let texts = queries.iter().map(QuerySpec::sql).collect();
        let write_every = match kind {
            Kind::HotRepeat => None,
            Kind::ColdChurn => Some(WRITE_EVERY_COLD),
            Kind::WireMixed => Some(WRITE_EVERY_WIRE),
        };
        Stream {
            queries,
            texts,
            reads,
            write_every,
        }
    }

    /// Op number `i` (counted from the first timed op). Writes sit at
    /// fixed positions and cycle through the dataset's relations.
    pub fn op(&self, i: u64) -> Op {
        match self.write_every {
            Some(k) if (i + 1).is_multiple_of(k) => {
                Op::Write((((i + 1) / k - 1) % (2 * PAIRS as u64)) as usize)
            }
            _ => Op::Read(self.reads[(i % STREAM_LEN as u64) as usize] as usize),
        }
    }

    /// Up to `limit` distinct queries, those the stream reads first
    /// leading: `SAMPLE` of them are checked, `QUALITY` of them give the
    /// Q-error. The sample is stratified: no (pair, shape) takes more
    /// than its share, so the quantiles do not swing with the shape mix.
    pub fn sample(&self, limit: usize) -> Vec<usize> {
        let per_stratum = limit.div_ceil(PAIRS * SHAPES);
        let mut seen = std::collections::HashSet::new();
        let mut strata = std::collections::HashMap::new();
        let mut out = Vec::new();
        let reads = (0..STREAM_LEN as u64).filter_map(|i| match self.op(i) {
            Op::Read(q) => Some(q),
            Op::Write(_) => None,
        });
        for q in reads.chain(0..self.queries.len()) {
            if out.len() == limit {
                break;
            }
            let spec = self.queries[q];
            let taken = strata.entry((spec.pair, spec.shape)).or_insert(0);
            if *taken < per_stratum && seen.insert(spec) {
                *taken += 1;
                out.push(q);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};

    const SMALL: Scale = Scale {
        left_rows: 20_000,
        right_rows: 15_000,
    };

    fn fingerprints(stream: &Stream, ops: u64) -> HashSet<u64> {
        let engine = engine::Engine::new();
        (0..ops)
            .filter_map(|i| match stream.op(i) {
                Op::Read(q) => {
                    let parsed = engine
                        .parse(&stream.texts[q])
                        .expect("generated SQL parses");
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    parsed.hash(&mut h);
                    Some(h.finish())
                }
                Op::Write(_) => None,
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_same_stream_and_write_positions() {
        for kind in [Kind::HotRepeat, Kind::ColdChurn, Kind::WireMixed] {
            let a = Stream::generate(kind, 7);
            let b = Stream::generate(kind, 7);
            let c = Stream::generate(kind, 8);
            let ops = |s: &Stream| -> Vec<Op> { (0..50_000).map(|i| s.op(i)).collect() };
            assert_eq!(ops(&a), ops(&b), "{kind:?}");
            assert_eq!(a.texts, b.texts, "{kind:?}");
            assert_ne!(a.texts, c.texts, "{kind:?}: the seed must matter");
        }
    }

    #[test]
    fn writes_sit_at_fixed_positions() {
        let cold = Stream::generate(Kind::ColdChurn, 3);
        let writes: Vec<u64> = (0..200)
            .filter(|&i| matches!(cold.op(i), Op::Write(_)))
            .collect();
        assert_eq!(writes, (1..=12).map(|k| 16 * k - 1).collect::<Vec<_>>());
        assert_eq!(cold.op(15), Op::Write(0));
        assert_eq!(cold.op(31), Op::Write(1));
        let hot = Stream::generate(Kind::HotRepeat, 3);
        assert!((0..100_000).all(|i| matches!(hot.op(i), Op::Read(_))));
        let wire = Stream::generate(Kind::WireMixed, 3);
        assert_eq!(wire.op(WRITE_EVERY_WIRE - 1), Op::Write(0));
        assert!(matches!(wire.op(WRITE_EVERY_WIRE), Op::Read(_)));
    }

    #[test]
    fn cold_churn_exceeds_the_cache_and_hot_repeat_fits() {
        let cold = Stream::generate(Kind::ColdChurn, 11);
        assert!(fingerprints(&cold, 16_384).len() >= 4096);
        let hot = Stream::generate(Kind::HotRepeat, 11);
        let hot_fps = fingerprints(&hot, STREAM_LEN as u64);
        assert!(hot_fps.len() <= 1024);
        assert_eq!(hot_fps.len(), HOT_QUERIES);
        // The sample leads with the repeated queries. A join without a
        // filter has no literal, so each pair contributes one join only.
        let sample = hot.sample(SAMPLE);
        let mut lead = sample[..HOT_QUERIES].to_vec();
        lead.sort_unstable();
        assert_eq!(lead, (0..HOT_QUERIES).collect::<Vec<_>>());
        for limit in [SAMPLE, QUALITY] {
            for stream in [&hot, &cold] {
                let s = stream.sample(limit);
                let distinct: HashSet<QuerySpec> = s.iter().map(|&q| stream.queries[q]).collect();
                assert_eq!(distinct.len(), s.len());
                assert!(s.len() > limit * 3 / 4 && s.len() <= limit, "{}", s.len());
            }
        }
    }

    #[test]
    fn every_generated_query_parses_and_binds() {
        let ds = Dataset::generate(5, SMALL);
        let mut engine = engine::Engine::new();
        for r in &ds.relations {
            engine.register(r.clone());
        }
        engine.analyze_all(BUCKETS).expect("analyze");
        let cold = Stream::generate(Kind::ColdChurn, 5);
        for text in cold.texts.iter().take(2000) {
            let q = engine.parse(text).expect("parse");
            engine.estimate(&q).expect("estimate");
        }
    }

    #[test]
    fn same_seed_gives_same_dataset_and_estimate_digest() {
        let digest = |seed: u64| {
            let ds = Dataset::generate(seed, SMALL);
            let mut engine = engine::Engine::new();
            for r in &ds.relations {
                engine.register(r.clone());
            }
            engine.analyze_all(BUCKETS).expect("analyze");
            let stream = Stream::generate(Kind::HotRepeat, seed);
            let mut d = crate::stats::FNV_OFFSET;
            for i in 0..2000 {
                if let Op::Read(q) = stream.op(i) {
                    let parsed = engine.parse(&stream.texts[q]).expect("parse");
                    let est = engine.estimate(&parsed).expect("estimate");
                    d = crate::stats::fnv1a(d, i);
                    d = crate::stats::fnv1a(d, est.to_bits());
                }
            }
            (ds.freqs, d)
        };
        let (f1, d1) = digest(21);
        let (f2, d2) = digest(21);
        let (f3, d3) = digest(22);
        assert_eq!(f1, f2);
        assert_eq!(d1, d2);
        assert_ne!(f1, f3);
        assert_ne!(d1, d3);
    }
}
