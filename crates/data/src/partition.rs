//! Partitioning centralized datasets across simulated users.
//!
//! Federated data is naturally partitioned by user; these helpers create
//! that structure from a centralized pool, either IID (a best case no real
//! deployment enjoys) or with label skew (the realistic non-IID case the
//! FedAvg paper evaluates).

use fl_ml::model::Label;
use fl_ml::rng;
use fl_ml::Example;
use rand::RngExt;

/// How a centralized dataset is split across users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionStrategy {
    /// Shuffle and deal examples round-robin.
    Iid,
    /// Each user draws a dominant class; `skew` ∈ \[0,1\] is the probability
    /// an example assigned to the user comes from its dominant class.
    LabelSkew {
        /// Probability mass concentrated on the user's dominant class.
        skew: f64,
    },
}

/// Splits `examples` across `users` partitions.
///
/// For [`PartitionStrategy::LabelSkew`], examples must be classification
/// examples; each user `u` is assigned dominant class `u % classes` and
/// preferentially receives examples of that class.
///
/// # Panics
///
/// Panics if `users == 0`, or for `LabelSkew` if `examples` contains
/// non-classification examples.
pub fn partition(
    examples: Vec<Example>,
    users: usize,
    strategy: PartitionStrategy,
    seed: u64,
) -> Vec<Vec<Example>> {
    assert!(users > 0, "must have at least one user");
    let mut rng = rng::seeded(seed);
    let mut parts: Vec<Vec<Example>> = vec![Vec::new(); users];
    match strategy {
        PartitionStrategy::Iid => {
            let mut shuffled = examples;
            // Fisher–Yates shuffle.
            for i in (1..shuffled.len()).rev() {
                let j = rng.random_range(0..=i);
                shuffled.swap(i, j);
            }
            for (i, ex) in shuffled.into_iter().enumerate() {
                parts[i % users].push(ex);
            }
        }
        PartitionStrategy::LabelSkew { skew } => {
            let classes = examples
                .iter()
                .map(|ex| match ex.label() {
                    Label::Class(c) => c + 1,
                    // fl-lint: allow(panic): documented precondition of sim-side
                    // dataset prep; never reachable from the control plane.
                    _ => panic!("label-skew partitioning requires classification examples"),
                })
                .max()
                .unwrap_or(1);
            // Group examples by class, then deal: with probability `skew`
            // an example goes to a user whose dominant class matches.
            for ex in examples {
                let class = match ex.label() {
                    Label::Class(c) => c,
                    _ => unreachable!(),
                };
                let user = if rng.random::<f64>() < skew {
                    // Uniform among users whose dominant class == class.
                    let matching = (users + classes - 1 - class) / classes;
                    if matching == 0 {
                        rng.random_range(0..users)
                    } else {
                        class + classes * rng.random_range(0..matching)
                    }
                } else {
                    rng.random_range(0..users)
                };
                parts[user.min(users - 1)].push(ex);
            }
        }
    }
    parts
}

/// Measures non-IID-ness of a partition: the mean total-variation distance
/// between each user's label distribution and the global one. 0 = IID.
///
/// # Panics
///
/// Panics on non-classification examples.
// fl-lint: allow(test-only-pub): the non-IID measure of fl-data's partition and synth tests
pub fn label_divergence(parts: &[Vec<Example>]) -> f64 {
    let mut classes = 0usize;
    for p in parts {
        for ex in p {
            match ex.label() {
                Label::Class(c) => classes = classes.max(c + 1),
                // fl-lint: allow(panic): documented in the `# Panics` section;
                // analysis helper for sim datasets, not control-plane code.
                _ => panic!("label divergence requires classification examples"),
            }
        }
    }
    if classes == 0 {
        return 0.0;
    }
    let mut global = vec![0.0f64; classes];
    let mut total = 0.0f64;
    for p in parts {
        for ex in p {
            if let Label::Class(c) = ex.label() {
                global[c] += 1.0;
                total += 1.0;
            }
        }
    }
    if total == 0.0 {
        return 0.0;
    }
    for g in &mut global {
        *g /= total;
    }
    let mut sum_tv = 0.0f64;
    let mut counted = 0usize;
    for p in parts {
        if p.is_empty() {
            continue;
        }
        let mut local = vec![0.0f64; classes];
        for ex in p {
            if let Label::Class(c) = ex.label() {
                local[c] += 1.0;
            }
        }
        let n = p.len() as f64;
        let tv: f64 = local
            .iter()
            .zip(&global)
            .map(|(l, g)| (l / n - g).abs())
            .sum::<f64>()
            / 2.0;
        sum_tv += tv;
        counted += 1;
    }
    sum_tv / counted.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled_pool(per_class: usize, classes: usize) -> Vec<Example> {
        let mut out = Vec::new();
        for c in 0..classes {
            for _ in 0..per_class {
                out.push(Example::classification(vec![c as f32], c));
            }
        }
        out
    }

    #[test]
    fn iid_partition_balances_sizes() {
        let parts = partition(labeled_pool(100, 4), 10, PartitionStrategy::Iid, 1);
        assert_eq!(parts.len(), 10);
        for p in &parts {
            assert_eq!(p.len(), 40);
        }
    }

    #[test]
    fn iid_partition_has_low_divergence() {
        let parts = partition(labeled_pool(200, 4), 8, PartitionStrategy::Iid, 2);
        assert!(label_divergence(&parts) < 0.1);
    }

    #[test]
    fn label_skew_increases_divergence() {
        let pool = labeled_pool(200, 4);
        let iid = partition(pool.clone(), 8, PartitionStrategy::Iid, 3);
        let skewed = partition(pool, 8, PartitionStrategy::LabelSkew { skew: 0.9 }, 3);
        assert!(label_divergence(&skewed) > label_divergence(&iid) + 0.2);
    }

    #[test]
    fn partition_preserves_examples() {
        let pool = labeled_pool(50, 3);
        let n = pool.len();
        let parts = partition(pool, 7, PartitionStrategy::LabelSkew { skew: 0.5 }, 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), n);
    }

    #[test]
    fn skewed_users_are_dominated_by_their_class() {
        let parts = partition(
            labeled_pool(500, 2),
            4,
            PartitionStrategy::LabelSkew { skew: 0.95 },
            5,
        );
        // User 0's dominant class is 0.
        let user0 = &parts[0];
        let zeros = user0
            .iter()
            .filter(|ex| matches!(ex.label(), Label::Class(0)))
            .count();
        assert!(
            zeros as f64 / user0.len() as f64 > 0.7,
            "user 0 has {zeros}/{} class-0 examples",
            user0.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn rejects_zero_users() {
        let _ = partition(vec![], 0, PartitionStrategy::Iid, 0);
    }
}
