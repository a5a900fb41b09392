//! Categorical tallies.
//!
//! The paper's bar-chart figures (7, 8, 9, 10, 16) are categorical counts;
//! [`CategoryCount`] models those.

use std::collections::BTreeMap;

/// A tally over named categories, preserving deterministic (sorted) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CategoryCount {
    counts: BTreeMap<String, u64>,
}

impl CategoryCount {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation of `category`.
    pub fn add(&mut self, category: &str) {
        self.add_n(category, 1);
    }

    /// Adds `n` observations of `category`. Allocates only for a
    /// category not seen before.
    pub fn add_n(&mut self, category: &str, n: u64) {
        match self.counts.get_mut(category) {
            Some(count) => *count += n,
            None => {
                self.counts.insert(category.to_string(), n);
            }
        }
    }

    /// The count for `category` (zero if never seen).
    pub fn get(&self, category: &str) -> u64 {
        self.counts.get(category).copied().unwrap_or(0)
    }

    /// Total observations across all categories.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct categories.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The share of observations in `category`, in `[0, 1]`.
    pub fn fraction(&self, category: &str) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(category) as f64 / total as f64
        }
    }

    /// `(category, count)` pairs in category-name order, borrowed.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + Clone {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// `(category, count)` pairs sorted by category name.
    pub fn by_name(&self) -> Vec<(&str, u64)> {
        self.iter().collect()
    }

    /// `(category, count)` pairs sorted by ascending count, then name —
    /// the ordering the paper's bar charts use.
    pub fn by_count_ascending(&self) -> Vec<(&str, u64)> {
        let mut v = self.by_name();
        v.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// Merges another tally into this one. Per-category `u64` addition:
    /// associative and commutative, so any merge order yields the same
    /// tally bitwise.
    pub fn merge(&mut self, other: &CategoryCount) {
        for (k, v) in &other.counts {
            self.add_n(k, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_counts_accumulate() {
        let mut c = CategoryCount::new();
        c.add("US");
        c.add("US");
        c.add_n("UK", 5);
        assert_eq!(c.get("US"), 2);
        assert_eq!(c.get("UK"), 5);
        assert_eq!(c.get("FR"), 0);
        assert_eq!(c.total(), 7);
        assert_eq!(c.len(), 2);
        assert!((c.fraction("UK") - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_category_fraction_is_zero() {
        let c = CategoryCount::new();
        assert!(c.is_empty());
        assert_eq!(c.fraction("x"), 0.0);
    }

    #[test]
    fn orderings() {
        let mut c = CategoryCount::new();
        c.add_n("b", 3);
        c.add_n("a", 3);
        c.add_n("z", 1);
        assert_eq!(c.by_name(), vec![("a", 3), ("b", 3), ("z", 1)]);
        assert_eq!(c.by_count_ascending(), vec![("z", 1), ("a", 3), ("b", 3)]);
    }
}
