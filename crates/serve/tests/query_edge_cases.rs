//! Well-typed queries that have no answer return a typed [`ServeError`]
//! rather than panicking or answering NaN, on static and ragged stores
//! alike; and the widest window the query types admit still answers.

use longsynth_data::BitColumn;
use longsynth_queries::{Pattern, WindowQuery};
use longsynth_serve::{
    QueryKind, QueryService, ReleaseStore, RoundShape, ServeError, ServeQuery, StoreScope,
};

fn ask(service: &QueryService, scope: StoreScope, kind: QueryKind) -> Result<f64, ServeError> {
    service.answer(&ServeQuery { scope, kind })
}

fn zero_width_kinds(t: usize) -> [QueryKind; 2] {
    [
        QueryKind::Pattern {
            t,
            pattern: Pattern::new(0, 0),
        },
        QueryKind::Window {
            t,
            query: WindowQuery::from_predicate(0, |_| true, "empty window"),
        },
    ]
}

fn one_round_kinds(t: usize) -> [QueryKind; 3] {
    [
        QueryKind::CumulativeFraction { t, b: 1 },
        QueryKind::Window {
            t,
            query: WindowQuery::all_ones(1),
        },
        QueryKind::Pattern {
            t,
            pattern: Pattern::parse("1"),
        },
    ]
}

/// Two cohorts over three rounds: cohort 0 (2 records) steps in rounds
/// 0–1, cohort 1 (`second` records) in rounds 1–2, so the merged release
/// is ragged.
fn ragged_store(second: usize) -> ReleaseStore {
    let mut store = ReleaseStore::new();
    let first = BitColumn::from_bools(&[true, false]);
    let other = BitColumn::ones(second);
    let rounds: [(&[usize], Vec<&BitColumn>); 3] = [
        (&[0], vec![&first]),
        (&[0, 1], vec![&first, &other]),
        (&[1], vec![&other]),
    ];
    for (round, (active, parts)) in rounds.into_iter().enumerate() {
        let parts: Vec<BitColumn> = parts.into_iter().cloned().collect();
        let shape = RoundShape::Scheduled {
            round,
            cohorts: 2,
            active,
        };
        store.ingest(shape, &parts, None).unwrap();
    }
    store
}

#[test]
fn zero_width_queries_are_typed_errors_on_static_and_ragged_stores() {
    let mut fixed = ReleaseStore::new();
    let column = BitColumn::from_bools(&[true, false, true]);
    fixed.ingest(RoundShape::Lockstep, &[column], None).unwrap();
    let stores = [(fixed, 0), (ragged_store(3), 1)];
    for (store, t) in stores {
        let service = QueryService::from_store(store);
        for scope in [StoreScope::Merged, StoreScope::Cohort(0)] {
            for kind in zero_width_kinds(t) {
                assert_eq!(ask(&service, scope, kind), Err(ServeError::ZeroWidthQuery));
            }
        }
    }
}

#[test]
fn zero_record_static_scopes_are_typed_errors() {
    let mut store = ReleaseStore::new();
    store
        .ingest(RoundShape::Lockstep, &[BitColumn::zeros(0)], None)
        .unwrap();
    let restored =
        QueryService::restore_json(&QueryService::from_store(store.clone()).snapshot_json())
            .expect("an empty-record store round-trips");
    for service in [QueryService::from_store(store), restored] {
        for scope in [StoreScope::Merged, StoreScope::Cohort(0)] {
            for kind in one_round_kinds(0) {
                assert_eq!(
                    ask(&service, scope, kind),
                    Err(ServeError::EmptyScope { scope, round: 0 })
                );
            }
        }
    }
}

#[test]
fn ragged_merged_scope_skips_empty_cohorts_and_errors_when_all_are_empty() {
    // Cohort 1 has no records: round 1 answers from cohort 0 alone, and
    // round 2, observed only by the empty cohort, has no records to read.
    let service = QueryService::from_store(ragged_store(0));
    assert_eq!(
        ask(
            &service,
            StoreScope::Merged,
            QueryKind::CumulativeFraction { t: 1, b: 2 }
        ),
        Ok(0.5)
    );
    for kind in one_round_kinds(2) {
        assert_eq!(
            ask(&service, StoreScope::Merged, kind),
            Err(ServeError::EmptyScope {
                scope: StoreScope::Merged,
                round: 2
            })
        );
    }
    // A window no cohort observed in full stays a coverage error.
    let wide = QueryKind::Window {
        t: 2,
        query: WindowQuery::all_ones(3),
    };
    assert_eq!(
        ask(&service, StoreScope::Merged, wide),
        Err(ServeError::WindowNotCovered { round: 2, width: 3 })
    );
}

#[test]
fn the_widest_pattern_answers() {
    // Five records over 24 rounds: record i reports 1 in every round
    // except round i, so no record spells the all-ones pattern and each
    // record spells its own one-zero pattern.
    let width = Pattern::MAX_WIDTH;
    let mut store = ReleaseStore::new();
    for round in 0..width {
        let column = BitColumn::from_iter_bits((0..5).map(|i| i != round));
        store.ingest(RoundShape::Lockstep, &[column], None).unwrap();
    }
    let service = QueryService::from_store(store);
    let all_ones = Pattern::new((1 << width) - 1, width);
    let ask_pattern = |pattern| {
        ask(
            &service,
            StoreScope::Merged,
            QueryKind::Pattern {
                t: width - 1,
                pattern,
            },
        )
    };
    assert_eq!(ask_pattern(all_ones), Ok(0.0));
    // Record 0 spells 0 then 23 ones.
    assert_eq!(
        ask_pattern(Pattern::new((1 << (width - 1)) - 1, width)),
        Ok(0.2)
    );
}
