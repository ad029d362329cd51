//! Property-based tests for the longitudinal data model.

use longsynth_data::bitstream::BitStream;
use longsynth_data::column::BitColumn;
use longsynth_data::dataset::LongitudinalDataset;
use longsynth_data::generators::{two_state_markov, MarkovParams};
use longsynth_dp::rng::rng_from_seed;
use proptest::prelude::*;

proptest! {
    /// BitColumn round-trips any boolean vector, and a script of `set`
    /// overwrites (0→1, 1→0 and same-value writes) matches a `Vec<bool>`.
    #[test]
    fn column_roundtrip(
        bits in proptest::collection::vec(any::<bool>(), 0..300),
        writes in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..200),
    ) {
        let mut col = BitColumn::from_bools(&bits);
        prop_assert_eq!(col.len(), bits.len());
        let back: Vec<bool> = col.iter().collect();
        prop_assert_eq!(back, bits.clone());
        prop_assert_eq!(col.count_ones(), bits.iter().filter(|&&b| b).count());

        let mut oracle = bits.clone();
        if !oracle.is_empty() {
            for &(at, value) in &writes {
                let i = at % oracle.len();
                col.set(i, value);
                oracle[i] = value;
            }
        }
        let back: Vec<bool> = col.iter().collect();
        prop_assert_eq!(back, oracle.clone());
        prop_assert_eq!(col.count_ones(), oracle.iter().filter(|&&b| b).count());
        prop_assert_eq!(col, BitColumn::from_bools(&oracle));
    }

    /// BitStream: push-only construction preserves every prefix, and
    /// prefix_weight agrees with a naive recount at every cut.
    #[test]
    fn bitstream_prefix_immutability(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut stream = BitStream::new();
        let mut snapshots: Vec<Vec<bool>> = Vec::new();
        for &b in &bits {
            stream.push(b);
            snapshots.push(stream.iter().collect());
        }
        // Every snapshot is a prefix of the final history.
        let full: Vec<bool> = stream.iter().collect();
        for (i, snap) in snapshots.iter().enumerate() {
            prop_assert_eq!(&full[..=i], snap.as_slice());
        }
        for t in 0..=bits.len() {
            let naive = bits[..t].iter().filter(|&&b| b).count();
            prop_assert_eq!(stream.prefix_weight(t), naive);
        }
    }

    /// suffix_pattern equals the hand-rolled big-endian encoding for every
    /// valid (t, k).
    #[test]
    fn suffix_pattern_matches_reference(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
        let stream: BitStream = bits.iter().copied().collect();
        for t in 0..bits.len() {
            for k in 1..=(t + 1).min(16) {
                let mut expect = 0u32;
                for &b in &bits[t + 1 - k..=t] {
                    expect = (expect << 1) | u32::from(b);
                }
                prop_assert_eq!(stream.suffix_pattern(t, k), expect);
            }
        }
    }

    /// Rows → dataset → rows is the identity; columns agree with rows.
    #[test]
    fn dataset_row_column_duality(
        n in 1usize..20,
        t in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng = rng_from_seed(seed);
        use rand::Rng;
        let rows: Vec<BitStream> = (0..n)
            .map(|_| (0..t).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let d = LongitudinalDataset::from_rows(&rows).unwrap();
        prop_assert_eq!(d.individuals(), n);
        prop_assert_eq!(d.rounds(), t);
        for (i, row) in rows.iter().enumerate() {
            let rebuilt = d.row(i, t - 1);
            prop_assert_eq!(&rebuilt, row);
            for round in 0..t {
                prop_assert_eq!(d.value(i, round), row.get(round));
            }
        }
    }

    /// Markov panels: every individual's trajectory is a valid history and
    /// the panel is deterministic in the seed.
    #[test]
    fn markov_deterministic(seed in any::<u64>(), n in 1usize..50, t in 1usize..10) {
        let params = MarkovParams { initial_one: 0.3, stay_one: 0.7, enter_one: 0.1 };
        let a = two_state_markov(&mut rng_from_seed(seed), n, t, params);
        let b = two_state_markov(&mut rng_from_seed(seed), n, t, params);
        prop_assert_eq!(a, b);
    }

    /// Truncation commutes with streaming: replaying a prefix gives the
    /// truncated panel.
    #[test]
    fn truncation_is_prefix(seed in any::<u64>(), n in 1usize..30, t in 2usize..12) {
        let params = MarkovParams { initial_one: 0.5, stay_one: 0.5, enter_one: 0.5 };
        let d = two_state_markov(&mut rng_from_seed(seed), n, t, params);
        let cut = t / 2;
        let p = d.truncated(cut);
        let mut rebuilt = LongitudinalDataset::empty(n);
        for (round, col) in d.stream() {
            if round < cut {
                rebuilt.push_column(col.clone()).unwrap();
            }
        }
        prop_assert_eq!(p, rebuilt);
    }
}

// Word-level splice/concat equivalence: the u64-block fast paths in
// `BitColumn::slice` / `extend_bits` must agree bit-for-bit with the naive
// bit-at-a-time reference on arbitrary lengths, offsets, and alignments.
proptest! {
    /// `slice` equals the bit-by-bit reference on every sub-range.
    #[test]
    fn slice_equals_bit_reference(
        bits in proptest::collection::vec(any::<bool>(), 0..400),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let col = BitColumn::from_bools(&bits);
        let start = ((bits.len() as f64) * start_frac) as usize;
        let len = (((bits.len() - start) as f64) * len_frac) as usize;
        let range = start..start + len;
        let fast = col.slice(range.clone());
        let slow = BitColumn::from_iter_bits(range.map(|i| col.get(i)));
        prop_assert_eq!(fast, slow);
    }

    /// `concat` of an arbitrary partition reconstructs the original column,
    /// and every unused tail bit stays zero (count_ones sees no stray bits).
    #[test]
    fn concat_inverts_partition(
        bits in proptest::collection::vec(any::<bool>(), 1..400),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let col = BitColumn::from_bools(&bits);
        let mut cuts = [
            ((bits.len() as f64) * cut_a) as usize,
            ((bits.len() as f64) * cut_b) as usize,
        ];
        cuts.sort_unstable();
        let parts = [
            col.slice(0..cuts[0]),
            col.slice(cuts[0]..cuts[1]),
            col.slice(cuts[1]..bits.len()),
        ];
        let rejoined = BitColumn::concat(parts.iter());
        prop_assert_eq!(&rejoined, &col);
        prop_assert_eq!(rejoined.count_ones(), bits.iter().filter(|&&b| b).count());
    }

    /// `as_words`/`from_words` round-trip preserves equality.
    #[test]
    fn words_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let col = BitColumn::from_bools(&bits);
        let back = BitColumn::from_words(col.as_words().to_vec(), col.len());
        prop_assert_eq!(back, col);
    }
}

/// The per-bit reference every word-packing constructor must match: a
/// zero column with each bit `set` one at a time.
fn per_bit_oracle(bits: &[bool]) -> BitColumn {
    let mut col = BitColumn::zeros(bits.len());
    for (i, &bit) in bits.iter().enumerate() {
        col.set(i, bit);
    }
    col
}

/// Every constructor's words equal the oracle's, and the bits at
/// positions `>= len` are zero.
fn assert_packs_like_the_oracle(bits: &[bool]) {
    let oracle = per_bit_oracle(bits);
    let len = bits.len();
    let built = [
        ("from_bools", BitColumn::from_bools(bits)),
        (
            "from_iter_bits",
            BitColumn::from_iter_bits(bits.iter().copied()),
        ),
        (
            "from_iter_bits (no size hint)",
            BitColumn::from_iter_bits(bits.iter().copied().filter(|_| true)),
        ),
    ];
    for (name, col) in &built {
        assert_eq!(col.len(), len, "{name} at len {len}");
        assert_eq!(col.as_words(), oracle.as_words(), "{name} at len {len}");
        assert_eq!(col, &oracle, "{name} at len {len}");
    }
    for col in built.iter().map(|(_, col)| col).chain([&oracle]) {
        assert_eq!(col.as_words().len(), len.div_ceil(64), "len {len}");
        if !len.is_multiple_of(64) {
            let last = *col.as_words().last().expect("len > 0");
            assert_eq!(last >> (len % 64), 0, "stray tail bits at len {len}");
        }
    }
}

#[test]
fn constructors_pack_whole_words_like_the_per_bit_oracle() {
    use rand::Rng;
    let mut lengths = vec![0, 1, 63, 64, 65];
    for m in 2..=4 {
        lengths.extend([64 * m - 1, 64 * m, 64 * m + 1]);
    }
    let mut rng = rng_from_seed(41);
    for &len in &lengths {
        assert_packs_like_the_oracle(&vec![true; len]);
        assert_packs_like_the_oracle(&vec![false; len]);
        let random: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
        assert_packs_like_the_oracle(&random);

        let ones = BitColumn::ones(len);
        assert_eq!(ones, per_bit_oracle(&vec![true; len]), "ones at len {len}");
        assert_eq!(ones.count_ones(), len, "ones at len {len}");
        assert_eq!(BitColumn::zeros(len), per_bit_oracle(&vec![false; len]));
    }
}

proptest! {
    /// The same oracle on arbitrary lengths and contents.
    #[test]
    fn constructors_match_the_per_bit_oracle(
        bits in proptest::collection::vec(any::<bool>(), 0..400),
    ) {
        assert_packs_like_the_oracle(&bits);
        let ones = BitColumn::ones(bits.len());
        prop_assert_eq!(ones.count_ones(), bits.len());
    }
}
