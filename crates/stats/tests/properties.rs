//! Property-based tests for statistical invariants.

use proptest::prelude::*;
use rv_stats::{CategoryCount, Cdf, CoMoments, FixedSum, QuantileSketch, Summary};

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

/// Three nonempty sample sets for three-way merge-associativity checks.
fn sample_triples() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (finite_samples(), finite_samples(), finite_samples())
}

proptest! {
    /// A CDF is monotone nondecreasing and ranges over [0, 1].
    #[test]
    fn cdf_monotone(samples in finite_samples()) {
        let cdf = Cdf::from_samples(&samples).unwrap();
        let series = cdf.series_on_grid(cdf.min() - 1.0, cdf.max() + 1.0, 50);
        prop_assert_eq!(series[0].1, 0.0);
        prop_assert_eq!(series.last().unwrap().1, 1.0);
        for w in series.windows(2) {
            prop_assert!(w[1].1 >= w[0].1);
        }
    }

    /// quantile and at are approximate inverses: F(quantile(q)) >= q.
    #[test]
    fn cdf_quantile_inverts(samples in finite_samples(), q in 0.0f64..=1.0) {
        let cdf = Cdf::from_samples(&samples).unwrap();
        prop_assert!(cdf.at(cdf.quantile(q)) >= q - 1e-12);
    }

    /// Summary mean lies within [min, max] and matches the CDF mean.
    #[test]
    fn summary_mean_bounded(samples in finite_samples()) {
        let s = Summary::from_samples(&samples).unwrap();
        prop_assert!(s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9);
        let cdf = Cdf::from_samples(&samples).unwrap();
        prop_assert!((s.mean() - cdf.mean()).abs() < 1e-6);
    }

    /// Quantiles are monotone in q.
    #[test]
    fn summary_quantiles_monotone(samples in finite_samples(), a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let s = Summary::from_samples(&samples).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(s.quantile(lo) <= s.quantile(hi) + 1e-12);
    }

    /// Category fractions sum to 1 over all categories (when nonempty).
    #[test]
    fn category_fractions_sum_to_one(labels in prop::collection::vec(0u8..6, 1..200)) {
        let mut c = CategoryCount::new();
        for l in &labels {
            c.add(&format!("cat{l}"));
        }
        let total: f64 = c.by_name().iter().map(|(name, _)| c.fraction(name)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert_eq!(c.total(), labels.len() as u64);
    }

    /// Sketch merge is associative bitwise:
    /// merge(a, merge(b, c)) == merge(merge(a, b), c).
    #[test]
    fn sketch_merge_associative((a, b, c) in sample_triples()) {
        let (sa, sb, sc) = (
            QuantileSketch::from_samples(&a),
            QuantileSketch::from_samples(&b),
            QuantileSketch::from_samples(&c),
        );
        let mut left = sa.clone();
        let mut bc = sb.clone();
        bc.merge(&sc);
        left.merge(&bc);
        let mut right = sa;
        right.merge(&sb);
        right.merge(&sc);
        prop_assert_eq!(left, right);
    }

    /// Sketch merge is order-canonical: any split of a sample stream into
    /// 1, 4, or 8 contiguous chunks folds to the identical state as the
    /// serial fold — the invariant the campaign's per-worker accumulators
    /// rely on.
    #[test]
    fn sketch_split_points_match_serial_fold(samples in finite_samples()) {
        let serial = QuantileSketch::from_samples(&samples);
        for parts in [1usize, 4, 8] {
            let chunk = samples.len().div_ceil(parts);
            let mut merged = QuantileSketch::new();
            for piece in samples.chunks(chunk.max(1)) {
                merged.merge(&QuantileSketch::from_samples(piece));
            }
            prop_assert_eq!(&merged, &serial, "split into {} parts", parts);
        }
    }

    /// FixedSum and CoMoments share the same bitwise associativity.
    #[test]
    fn fixed_sum_and_comoments_merge_associative((a, b, c) in sample_triples()) {
        let fold = |xs: &[f64]| {
            let mut s = FixedSum::new();
            let mut m = CoMoments::new();
            for (i, &x) in xs.iter().enumerate() {
                s.add(x);
                m.add(x, (i as f64).sin() * 10.0);
            }
            (s, m)
        };
        let ((sa, ma), (sb, mb), (sc, mc)) = (fold(&a), fold(&b), fold(&c));
        let (mut s_left, mut m_left) = (sa, ma);
        let (mut s_bc, mut m_bc) = (sb, mb);
        s_bc.merge(&sc);
        m_bc.merge(&mc);
        s_left.merge(&s_bc);
        m_left.merge(&m_bc);
        let (mut s_right, mut m_right) = (sa, ma);
        s_right.merge(&sb);
        m_right.merge(&mb);
        s_right.merge(&sc);
        m_right.merge(&mc);
        prop_assert_eq!(s_left, s_right);
        prop_assert_eq!(m_left, m_right);
    }

    /// The one retained type the campaign merges: a merged tally equals
    /// the tally of the combined stream, so merging is equivalent to never
    /// having split.
    #[test]
    fn retained_merges_match_rebuild((a, b, _) in sample_triples()) {
        let combined: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let build_cats = |xs: &[f64]| {
            let mut c = CategoryCount::new();
            xs.iter().for_each(|&x| c.add(if x < 0.0 { "neg" } else { "pos" }));
            c
        };
        let mut cats = build_cats(&a);
        cats.merge(&build_cats(&b));
        prop_assert_eq!(cats, build_cats(&combined));
    }
}
