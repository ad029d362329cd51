//! Merge pins.
//!
//! Each merge trait has one way to combine parts: `MergeRelease::merge`
//! borrows a slice of per-shard releases, and `MergeAggregate::merge`
//! folds owned per-shard aggregates with `merge_into`. These properties
//! pin what that one form does on arbitrary parts: it sums (aggregates) or
//! concatenates (releases) in shard order when the parts line up, and it
//! is an error on exactly the parts no lockstep round can produce —
//! ragged widths, mixed variants, or no parts at all.

use longsynth::{CumulativeAggregate, HistogramAggregate, Release};
use longsynth_data::BitColumn;
use longsynth_engine::{MergeAggregate, MergeRelease};
use proptest::prelude::*;

/// Histogram part from raw generated data; `kind` mixes Buffered vs
/// Counts so ragged widths AND mixed phases exercise the error paths.
fn histogram_part(kind: u8, n: usize, counts: &[i64]) -> HistogramAggregate {
    if kind.is_multiple_of(3) {
        HistogramAggregate::Buffered { n: n % 1000 }
    } else {
        HistogramAggregate::Counts {
            n: n % 1000,
            counts: counts[..1 + (kind as usize % counts.len().max(1)).min(counts.len() - 1)]
                .to_vec(),
        }
    }
}

/// A histogram part's population and its bins (`None` while buffering).
fn histogram_shape(part: &HistogramAggregate) -> (usize, Option<&[i64]>) {
    match part {
        HistogramAggregate::Buffered { n } => (*n, None),
        HistogramAggregate::Counts { n, counts } => (*n, Some(counts)),
    }
}

/// The concatenation of `parts` in order, as bools.
fn concat_bits<'a>(parts: impl IntoIterator<Item = &'a Vec<bool>>) -> Vec<bool> {
    parts.into_iter().flatten().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histograms sum bin-wise when every part is in the same phase with
    /// the same width, and are rejected otherwise.
    #[test]
    fn histogram_merge_sums_aligned_parts_and_rejects_the_rest(
        kinds in collection::vec(any::<u8>(), 0..6),
        ns in collection::vec(0usize..1000, 6..7),
        counts in collection::vec(-50i64..5000, 8..9),
    ) {
        let parts: Vec<HistogramAggregate> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| histogram_part(kind, ns[i], &counts))
            .collect();
        let width = |part| histogram_shape(part).1.map(<[i64]>::len);
        let aligned = !parts.is_empty() && parts.iter().all(|p| width(p) == width(&parts[0]));
        let merged = HistogramAggregate::merge(parts.clone());
        prop_assert_eq!(merged.is_ok(), aligned);
        if let Ok(merged) = merged {
            let (n, bins) = histogram_shape(&merged);
            prop_assert_eq!(n, parts.iter().map(|p| histogram_shape(p).0).sum::<usize>());
            for (b, &bin) in bins.unwrap_or_default().iter().enumerate() {
                let sum: i64 = parts.iter().map(|p| histogram_shape(p).1.unwrap()[b]).sum();
                prop_assert_eq!(bin, sum);
            }
        }
    }

    /// Threshold increments sum element-wise when every part has the same
    /// width, and ragged widths are rejected.
    #[test]
    fn cumulative_merge_sums_aligned_parts_and_rejects_the_rest(
        ns in collection::vec(0usize..1000, 0..6),
        widths in collection::vec(1usize..9, 6..7),
        increments in collection::vec(0u64..5000, 8..9),
    ) {
        let parts: Vec<CumulativeAggregate> = ns
            .iter()
            .enumerate()
            .map(|(i, &n)| CumulativeAggregate {
                n,
                increments: increments[..widths[i]].to_vec(),
            })
            .collect();
        let aligned = !parts.is_empty()
            && parts.iter().all(|p| p.increments.len() == parts[0].increments.len());
        let merged = CumulativeAggregate::merge(parts.clone());
        prop_assert_eq!(merged.is_ok(), aligned);
        if let Ok(merged) = merged {
            prop_assert_eq!(merged.n, ns.iter().sum::<usize>());
            for (b, &total) in merged.increments.iter().enumerate() {
                prop_assert_eq!(total, parts.iter().map(|p| p.increments[b]).sum::<u64>());
            }
        }
    }

    /// The recompute baseline's raw-column aggregates concatenate.
    #[test]
    fn bit_column_aggregate_merge_concatenates(
        parts_bits in collection::vec(collection::vec(any::<bool>(), 0..150), 0..6)
    ) {
        let parts = parts_bits.iter().map(|bits| BitColumn::from_bools(bits));
        match <BitColumn as MergeAggregate>::merge(parts) {
            Ok(merged) => prop_assert_eq!(merged.iter().collect::<Vec<_>>(), concat_bits(&parts_bits)),
            Err(_) => prop_assert!(parts_bits.is_empty()),
        }
    }

    /// Ragged per-shard initial releases: per-round windows of different
    /// populations per shard (the common case — shard cohorts never split
    /// evenly) concatenate round by round, and shards that disagree on
    /// the window width `k` are rejected.
    #[test]
    fn initial_release_merge_concatenates_per_round(
        per_shard in collection::vec(
            collection::vec(collection::vec(any::<bool>(), 0..80), 1..5),
            1..5
        )
    ) {
        let parts: Vec<Release> = per_shard
            .iter()
            .map(|columns| {
                Release::Initial(columns.iter().map(|b| BitColumn::from_bools(b)).collect())
            })
            .collect();
        let k = per_shard[0].len();
        let aligned = per_shard.iter().all(|columns| columns.len() == k);
        let merged = Release::merge(&parts);
        prop_assert_eq!(merged.is_ok(), aligned);
        if let Ok(merged) = merged {
            let Release::Initial(columns) = merged else {
                panic!("initial parts merge into an initial release");
            };
            prop_assert_eq!(columns.len(), k);
            for (t, column) in columns.iter().enumerate() {
                let expected = concat_bits(per_shard.iter().map(|shard| &shard[t]));
                prop_assert_eq!(column.iter().collect::<Vec<_>>(), expected);
            }
        }
    }

    #[test]
    fn update_release_merge_concatenates(
        columns in collection::vec(collection::vec(any::<bool>(), 0..200), 1..6)
    ) {
        let parts: Vec<Release> = columns
            .iter()
            .map(|b| Release::Update(BitColumn::from_bools(b)))
            .collect();
        let Release::Update(merged) = Release::merge(&parts).unwrap() else {
            panic!("update parts merge into an update release");
        };
        prop_assert_eq!(merged.iter().collect::<Vec<_>>(), concat_bits(&columns));
    }

    /// Mixed-variant shard releases are rejected.
    #[test]
    fn mixed_release_variants_are_rejected(
        bits in collection::vec(any::<bool>(), 0..40)
    ) {
        let parts = vec![Release::Buffered, Release::Update(BitColumn::from_bools(&bits))];
        prop_assert!(Release::merge(&parts).is_err());
    }
}

#[test]
fn empty_merges_are_rejected_for_every_type() {
    assert!(Release::merge(&[]).is_err());
    assert!(<BitColumn as MergeRelease>::merge(&[]).is_err());
    assert!(<() as MergeRelease>::merge(&[]).is_err());
    assert!(HistogramAggregate::merge(Vec::new()).is_err());
    assert!(CumulativeAggregate::merge(Vec::new()).is_err());
    assert!(<BitColumn as MergeAggregate>::merge(Vec::new()).is_err());
}
