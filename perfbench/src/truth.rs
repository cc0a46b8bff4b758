//! Ground truth for the Q-error, computed outside timing from the exact
//! frequency tables. Each run holds this evaluator to `Engine::execute`
//! on its check sample (every shape but the band join, whose executor
//! materialises about 10^8 pairs at this scale); the test below covers
//! the band join on a small dataset.

use crate::gen::{Dataset, QuerySpec, Shape};

/// The exact `COUNT(*)` of `q` from the dataset's frequency tables.
pub fn from_frequencies(ds: &Dataset, q: &QuerySpec) -> u128 {
    let own = &ds.freqs[2 * q.pair + q.side];
    let (l, r) = (&ds.freqs[2 * q.pair], &ds.freqs[2 * q.pair + 1]);
    let sum = |f: &[u64], lo: usize, hi: usize| -> u128 {
        f[lo.min(f.len())..hi.min(f.len())]
            .iter()
            .map(|&x| x as u128)
            .sum()
    };
    let (a, b) = (q.a as usize, q.b as usize);
    match q.shape {
        Shape::Eq => own.get(a).copied().unwrap_or(0) as u128,
        Shape::Lt => sum(own, 0, a),
        Shape::Between => sum(own, a, b + 1),
        Shape::Join => join_sum(l, r, l.len()),
        Shape::JoinLt => join_sum(l, r, a),
        Shape::Band => {
            // prefix[v] = r[0] + … + r[v - 1]
            let prefix: Vec<u128> = std::iter::once(0)
                .chain(r.iter().scan(0u128, |acc, &x| {
                    *acc += x as u128;
                    Some(*acc)
                }))
                .collect();
            let within = |v: usize| {
                prefix[(v + a + 1).min(r.len())] - prefix[v.saturating_sub(a).min(r.len())]
            };
            (0..l.len()).map(|v| l[v] as u128 * within(v)).sum()
        }
    }
}

fn join_sum(l: &[u64], r: &[u64], below: usize) -> u128 {
    l.iter()
        .zip(r)
        .take(below)
        .map(|(&x, &y)| x as u128 * y as u128)
        .sum()
}

/// Q-error `max(est/act, act/est)`, with both sides floored at one row
/// so an empty result or a zero estimate gives a finite error.
pub fn qerror(estimate: f64, actual: u128) -> f64 {
    let (e, a) = (estimate.max(1.0), (actual as f64).max(1.0));
    (e / a).max(a / e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Scale;

    #[test]
    fn frequency_counts_match_execution() {
        let ds = Dataset::generate(
            9,
            Scale {
                left_rows: 3000,
                right_rows: 2000,
            },
        );
        let mut engine = engine::Engine::new();
        for r in &ds.relations {
            engine.register(r.clone());
        }
        let mut rng = 4u64;
        for shape in [
            Shape::Eq,
            Shape::Lt,
            Shape::Between,
            Shape::Join,
            Shape::Band,
            Shape::JoinLt,
        ] {
            for pair in [0, 7] {
                let q = QuerySpec::draw(&mut rng, pair, shape);
                let parsed = engine.parse(&q.sql()).expect("parse");
                let exact = engine.execute(&parsed).expect("execute");
                assert_eq!(from_frequencies(&ds, &q), exact, "{}", q.sql());
            }
        }
    }

    #[test]
    fn qerror_is_symmetric_and_floored() {
        assert_eq!(qerror(10.0, 5), 2.0);
        assert_eq!(qerror(5.0, 10), 2.0);
        assert_eq!(qerror(0.0, 0), 1.0);
    }
}
