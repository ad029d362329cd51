//! JSON snapshot/restore of a [`ReleaseStore`] — full and incremental.
//!
//! A continual release runs for months; the serving process must not lose
//! the archive on restart. [`snapshot_json`] renders the whole store —
//! merged release, every cohort panel with its entry round, cohort count,
//! aggregation-policy tag — as a self-describing JSON document, and
//! [`restore_json`] rebuilds a store whose query answers are
//! **bit-identical** (the property-based tests in `tests/prop_store.rs`
//! pin this down over random release sequences).
//!
//! Full snapshots are O(store), which is the wrong cost for *periodic*
//! checkpoints of an append-only archive. [`snapshot_since_json`] exports
//! only the rounds released after a known base round — O(delta) — and
//! [`apply_delta_json`] replays such a delta onto a store holding exactly
//! that base. Restoring a base snapshot and chaining deltas is equivalent,
//! bit for bit, to restoring one full snapshot (property-tested).
//!
//! Restore never assembles a store by hand: it **decodes, then replays
//! through live ingestion**. A document of any supported version (v1–v4
//! full snapshots, v1–v2 deltas) decodes into one round plan — for each
//! carried global round, the cohorts carrying a column for it, those
//! columns, and the merged release (in a static document every cohort is
//! active in every round). The plan then runs through the store's single
//! ingest validator, so a snapshot restores exactly when live ingestion
//! could have produced it, and a refusal names the broken invariant in
//! live ingestion's words.
//!
//! Bit columns travel as hex strings of their packed little-endian `u64`
//! words (16 hex digits per word) rather than JSON numbers: lossless at
//! any width, compact, and independent of JSON number precision.

use longsynth_data::BitColumn;
use longsynth_engine::PolicyTag;
use serde::Serialize;

use crate::store::{GrowingPanel, IngestRound, ReleaseStore, ServeError};

/// Format tag embedded in every full snapshot; bump on layout changes.
/// v4 added cohort-coverage metadata on a dynamic store's merged rounds
/// (the windowed shared-noise population releases); v3 added
/// dynamic-panel schedules (per-cohort entry rounds, ragged merged
/// rounds); v2 added the aggregation-policy tag; v1 documents restore as
/// per-shard-era stores (no tag recorded).
const FORMAT: &str = "longsynth-release-store/v4";
/// The pre-coverage dynamic format, still restorable (coverage derives
/// from the cohort windows).
const FORMAT_V3: &str = "longsynth-release-store/v3";
/// The pre-schedule format, still restorable (static stores only).
const FORMAT_V2: &str = "longsynth-release-store/v2";
/// The pre-policy format, still restorable.
const FORMAT_V1: &str = "longsynth-release-store/v1";
/// Format tag of incremental (delta) snapshots. v2 carries dynamic-panel
/// rounds; v1 (static-only) deltas still apply.
const DELTA_FORMAT: &str = "longsynth-release-store-delta/v2";
/// The pre-schedule delta format, still applicable to static stores.
const DELTA_FORMAT_V1: &str = "longsynth-release-store-delta/v1";

#[derive(Serialize)]
struct PanelDto {
    records: u64,
    columns: Vec<String>,
}

/// A cohort panel plus its dynamic-panel entry round (`None` for static
/// stores, whose cohorts all cover every round).
#[derive(Serialize)]
struct CohortDto {
    records: u64,
    entry: Option<u64>,
    columns: Vec<String>,
}

/// One ragged merged round of a dynamic store.
#[derive(Serialize)]
struct RaggedColumnDto {
    records: u64,
    column: String,
}

#[derive(Serialize)]
struct SnapshotDto {
    format: String,
    policy: Option<String>,
    /// True for dynamic (scheduled) stores: `merged` is null and
    /// `merged_rounds`/cohort `entry` fields carry the panel lifecycle.
    dynamic: bool,
    merged: Option<PanelDto>,
    merged_rounds: Vec<RaggedColumnDto>,
    /// Cohort coverage of each dynamic merged round (v4; empty for
    /// static stores).
    coverage: Vec<Vec<u64>>,
    cohorts: Vec<Option<CohortDto>>,
}

#[derive(Serialize)]
struct DeltaDto {
    format: String,
    policy: Option<String>,
    dynamic: bool,
    /// Rounds the receiving store must already hold.
    base_rounds: u64,
    /// Rounds this delta appends.
    delta_rounds: u64,
    merged: Option<PanelDto>,
    merged_rounds: Vec<RaggedColumnDto>,
    cohorts: Vec<Option<CohortDto>>,
}

fn column_to_hex(column: &BitColumn) -> String {
    let mut out = String::with_capacity(column.as_words().len() * 16);
    for word in column.as_words() {
        out.push_str(&format!("{word:016x}"));
    }
    out
}

fn column_from_hex(hex: &str, records: usize) -> Result<BitColumn, ServeError> {
    let expected_words = records.div_ceil(64);
    if hex.len() != expected_words * 16 {
        return Err(ServeError::Snapshot(format!(
            "column hex has {} digits, expected {} for {records} records",
            hex.len(),
            expected_words * 16
        )));
    }
    let mut words = Vec::with_capacity(expected_words);
    for chunk in 0..expected_words {
        let digits = &hex[chunk * 16..(chunk + 1) * 16];
        let word = u64::from_str_radix(digits, 16)
            .map_err(|_| ServeError::Snapshot(format!("invalid hex word {digits:?}")))?;
        words.push(word);
    }
    Ok(BitColumn::from_words(words, records))
}

/// A panel's columns of local rounds `since..`.
fn columns_to_hex(panel: &GrowingPanel, since: usize) -> Option<(u64, Vec<String>)> {
    panel.panel().map(|dataset| {
        let columns = (since.min(dataset.rounds())..dataset.rounds())
            .map(|t| column_to_hex(dataset.column(t)))
            .collect();
        (dataset.individuals() as u64, columns)
    })
}

/// The merged release's rounds `since..`, as [`ReleaseStore::merged_round`]
/// reads them: a panel for a static store, ragged columns for a dynamic
/// one.
fn merged_to_dto(store: &ReleaseStore, since: usize) -> (Option<PanelDto>, Vec<RaggedColumnDto>) {
    let rounds = (since..store.rounds()).map(|t| store.merged_round(t).expect("released"));
    if store.is_dynamic() {
        let rounds = rounds.map(|column| RaggedColumnDto {
            records: column.len() as u64,
            column: column_to_hex(&column),
        });
        return (None, rounds.collect());
    }
    let panel = store.records().map(|records| PanelDto {
        records: records as u64,
        columns: rounds.map(|column| column_to_hex(&column)).collect(),
    });
    (panel, Vec::new())
}

/// Every cohort's columns of the global rounds `since..` (possibly none —
/// the record count still travels so the receiver can validate shape),
/// plus its entry round, which only a dynamic store records.
fn cohorts_to_dto(store: &ReleaseStore, since: usize) -> Vec<Option<CohortDto>> {
    store
        .cohorts
        .iter()
        .zip(&store.entries)
        .map(|(panel, &entry)| {
            let local_since = entry.map_or(0, |e| since.saturating_sub(e));
            columns_to_hex(panel, local_since).map(|(records, columns)| CohortDto {
                records,
                entry: entry.filter(|_| store.is_dynamic()).map(|e| e as u64),
                columns,
            })
        })
        .collect()
}

/// Interprets one JSON value as a non-negative integer index, naming the
/// offending value when it is a number of the wrong shape (negative,
/// fractional, or too large for a 64-bit index) rather than absent.
fn index_from_value(raw: &serde_json::Value, what: &str) -> Result<usize, ServeError> {
    raw.as_usize().ok_or_else(|| {
        let detail = match raw.as_f64() {
            Some(n) if n < 0.0 => format!("{n} is negative"),
            Some(n) if n.fract() != 0.0 => format!("{n} is fractional"),
            Some(n) => format!("{n} overflows a 64-bit index"),
            None => format!("expected a number, found {raw:?}"),
        };
        ServeError::Snapshot(format!("{what} must be a non-negative integer: {detail}"))
    })
}

/// Reads a required non-negative integer field, distinguishing an absent
/// key from a present-but-invalid number so restore failures say which.
fn index_field(value: &serde_json::Value, key: &str, context: &str) -> Result<usize, ServeError> {
    let raw = value
        .get(key)
        .ok_or_else(|| ServeError::Snapshot(format!("{context} missing `{key}`")))?;
    index_from_value(raw, &format!("{context} `{key}`"))
}

fn ragged_from_value(value: &serde_json::Value) -> Result<BitColumn, ServeError> {
    let records = index_field(value, "records", "merged round")?;
    let hex = value
        .get("column")
        .and_then(serde_json::Value::as_str)
        .ok_or_else(|| ServeError::Snapshot("merged round missing `column`".to_string()))?;
    column_from_hex(hex, records)
}

fn policy_to_dto(policy: Option<PolicyTag>) -> Option<String> {
    policy.map(|tag| tag.to_string())
}

fn policy_from_value(value: &serde_json::Value) -> Result<Option<PolicyTag>, ServeError> {
    match value.get("policy") {
        None => Ok(None),
        Some(serde_json::Value::Null) => Ok(None),
        Some(raw) => {
            let text = raw
                .as_str()
                .ok_or_else(|| ServeError::Snapshot("policy is not a string".to_string()))?;
            text.parse()
                .map(Some)
                .map_err(|e: String| ServeError::Snapshot(e))
        }
    }
}

/// Decode a panel value into its columns (`None` for a null panel);
/// `require_columns` distinguishes full snapshots (a stored panel always
/// has ≥ 1 column) from deltas (zero new rounds is legal).
fn panel_columns_from_value(
    value: &serde_json::Value,
    require_columns: bool,
) -> Result<Option<Vec<BitColumn>>, ServeError> {
    if *value == serde_json::Value::Null {
        return Ok(None);
    }
    let records = index_field(value, "records", "panel")?;
    let columns = value
        .get("columns")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| ServeError::Snapshot("panel missing `columns`".to_string()))?;
    if columns.is_empty() && require_columns {
        return Err(ServeError::Snapshot(
            "stored panels always hold at least one column".to_string(),
        ));
    }
    columns
        .iter()
        .map(|col| {
            col.as_str()
                .ok_or_else(|| ServeError::Snapshot("column is not a hex string".to_string()))
                .and_then(|hex| column_from_hex(hex, records))
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// The v4 cohort coverage of a dynamic document's merged rounds (`None`
/// when absent, as in v3).
fn coverage_from_value(value: &serde_json::Value) -> Result<Option<Vec<Vec<usize>>>, ServeError> {
    let Some(rows) = value
        .get("coverage")
        .filter(|raw| **raw != serde_json::Value::Null)
    else {
        return Ok(None);
    };
    let rows = rows
        .as_array()
        .ok_or_else(|| ServeError::Snapshot("coverage is not an array".to_string()))?;
    rows.iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| ServeError::Snapshot("coverage round is not an array".to_string()))?
                .iter()
                .map(|c| index_from_value(c, "coverage entry"))
                .collect()
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// A decoded full or delta document, of any supported version.
struct Document {
    policy: Option<PolicyTag>,
    dynamic: bool,
    /// Per cohort, its entry round (0 in a static document) and the columns
    /// it carries; `None` for a cohort without a panel.
    cohorts: Vec<Option<(usize, Vec<BitColumn>)>>,
    /// The merged release of every carried round.
    merged: Vec<BitColumn>,
}

/// Parse `json` and check that its format tag is one of `accepted`.
fn parse(
    json: &str,
    kind: &str,
    accepted: &[&'static str],
) -> Result<(serde_json::Value, &'static str), ServeError> {
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| ServeError::Snapshot(e.to_string()))?;
    let format = value
        .get("format")
        .and_then(serde_json::Value::as_str)
        .ok_or_else(|| ServeError::Snapshot("missing `format` tag".to_string()))?;
    let known = *accepted.iter().find(|&&f| f == format).ok_or_else(|| {
        ServeError::Snapshot(format!(
            "unsupported {kind} format {format:?} (expected one of {accepted:?})"
        ))
    })?;
    Ok((value, known))
}

fn decode(value: &serde_json::Value, full: bool) -> Result<Document, ServeError> {
    let policy = policy_from_value(value)?;
    let dynamic = value
        .get("dynamic")
        .and_then(serde_json::Value::as_bool)
        .unwrap_or(false);
    let cohorts = value
        .get("cohorts")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| ServeError::Snapshot("missing `cohorts`".to_string()))?
        .iter()
        .map(|cohort| {
            let Some(columns) = panel_columns_from_value(cohort, full)? else {
                return Ok(None);
            };
            let entry = if dynamic {
                index_field(cohort, "entry", "dynamic cohort")?
            } else {
                0
            };
            Ok(Some((entry, columns)))
        })
        .collect::<Result<_, ServeError>>()?;
    let merged = if dynamic {
        value
            .get("merged_rounds")
            .and_then(serde_json::Value::as_array)
            .ok_or_else(|| ServeError::Snapshot("missing `merged_rounds`".to_string()))?
            .iter()
            .map(ragged_from_value)
            .collect::<Result<_, _>>()?
    } else {
        let merged = value
            .get("merged")
            .ok_or_else(|| ServeError::Snapshot("missing `merged`".to_string()))?;
        panel_columns_from_value(merged, full)?.unwrap_or_default()
    };
    Ok(Document {
        policy,
        dynamic,
        cohorts,
        merged,
    })
}

/// The round plan of `doc` against `store`: for every carried round
/// `base..`, the cohorts carrying a column for it and those columns. A
/// cohort's columns start at its entry plus the rounds the store already
/// holds of it, and must fall inside the carried rounds.
fn plan<'a>(
    store: &ReleaseStore,
    base: usize,
    doc: &'a Document,
) -> Result<Vec<IngestRound<'a>>, ServeError> {
    let end = base + doc.merged.len();
    let mut plan: Vec<IngestRound<'a>> = (base..end)
        .zip(&doc.merged)
        .map(|(round, merged)| (round, Vec::new(), Vec::new(), Some(merged)))
        .collect();
    for (c, cohort) in doc.cohorts.iter().enumerate() {
        let Some((entry, columns)) = cohort.as_ref().filter(|(_, cols)| !cols.is_empty()) else {
            continue;
        };
        let first = entry + store.cohort_window(c).map_or(0, |held| held.len());
        let last = first + columns.len();
        if first < base || last > end {
            return Err(ServeError::Snapshot(format!(
                "cohort {c} covers rounds {first}..{last} but the document carries rounds \
                 {base}..{end}"
            )));
        }
        for ((_, active, parts, _), column) in plan[first - base..].iter_mut().zip(columns) {
            active.push(c);
            parts.push(column);
        }
    }
    Ok(plan)
}

/// Replay a round plan through live ingestion; its refusals become
/// snapshot errors with the same message.
fn replay(
    store: &mut ReleaseStore,
    policy: PolicyTag,
    doc: &Document,
    plan: &[IngestRound<'_>],
) -> Result<(), ServeError> {
    store
        .ingest_rounds(policy, doc.cohorts.len(), !doc.dynamic, plan)
        .map_err(|e| match e {
            ServeError::IngestMismatch(msg) => ServeError::Snapshot(msg),
            other => other,
        })
}

/// Render the store as a full JSON snapshot.
pub fn snapshot_json(store: &ReleaseStore) -> String {
    let (merged, merged_rounds) = merged_to_dto(store, 0);
    let coverage = if store.is_dynamic() {
        (0..store.rounds())
            .map(|t| {
                let active = store.merged_coverage(t).expect("a released round");
                active.into_iter().map(|c| c as u64).collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let dto = SnapshotDto {
        format: FORMAT.to_string(),
        policy: policy_to_dto(store.policy()),
        dynamic: store.is_dynamic(),
        merged,
        merged_rounds,
        coverage,
        cohorts: cohorts_to_dto(store, 0),
    };
    serde_json::to_string_pretty(&dto).expect("vendored JSON writer is infallible")
}

/// Rebuild a store from a snapshot produced by [`snapshot_json`] (or by
/// the pre-coverage v3, pre-schedule v2 and pre-policy v1 writers — v2 and
/// v1 stores are static, and an untagged v1 store restores as
/// [`PolicyTag::PerShard`]).
pub fn restore_json(json: &str) -> Result<ReleaseStore, ServeError> {
    let accepted = [FORMAT, FORMAT_V3, FORMAT_V2, FORMAT_V1];
    let (value, format) = parse(json, "snapshot", &accepted)?;
    let doc = decode(&value, true)?;
    if doc.dynamic && (format == FORMAT_V2 || format == FORMAT_V1) {
        return Err(ServeError::Snapshot(format!(
            "dynamic stores need snapshot format {FORMAT:?} or {FORMAT_V3:?}, got {format:?}"
        )));
    }
    let mut store = ReleaseStore::new();
    // An untagged document holding anything can only be a pre-policy (v1)
    // store, which by construction held per-shard concatenation rounds
    // (the replay enforces exactly that). Pin the tag so a later
    // shared-noise ingest cannot retroactively relabel the history.
    let holds_anything = !doc.cohorts.is_empty() || !doc.merged.is_empty();
    let Some(policy) = doc.policy.or(holds_anything.then_some(PolicyTag::PerShard)) else {
        return Ok(store);
    };
    let plan = plan(&store, 0, &doc)?;
    if let Some(recorded) = coverage_from_value(&value)?.filter(|_| doc.dynamic) {
        let replayed = plan.iter().map(|(_, active, _, _)| active);
        if recorded.len() != plan.len() || !recorded.iter().eq(replayed) {
            return Err(ServeError::Snapshot(
                "merged-round coverage metadata disagrees with the cohort windows".to_string(),
            ));
        }
    }
    replay(&mut store, policy, &doc, &plan)?;
    Ok(store)
}

/// Render the rounds released **after** `base_rounds` as an incremental
/// snapshot — O(delta), not O(store). The receiver must hold exactly
/// `base_rounds` rounds when applying ([`apply_delta_json`]).
///
/// Each cohort carries its columns of the global rounds past the base (a
/// cohort retired before the base contributes none; one entering after it
/// contributes all of its columns), plus the merged release of those
/// rounds.
///
/// Errors if the store holds fewer than `base_rounds` rounds.
pub fn snapshot_since_json(store: &ReleaseStore, base_rounds: usize) -> Result<String, ServeError> {
    if base_rounds > store.rounds() {
        return Err(ServeError::Snapshot(format!(
            "delta base {base_rounds} exceeds the store's {} rounds",
            store.rounds()
        )));
    }
    let (merged, merged_rounds) = merged_to_dto(store, base_rounds);
    let dto = DeltaDto {
        format: DELTA_FORMAT.to_string(),
        policy: policy_to_dto(store.policy()),
        dynamic: store.is_dynamic(),
        base_rounds: base_rounds as u64,
        delta_rounds: (store.rounds() - base_rounds) as u64,
        merged,
        merged_rounds,
        cohorts: cohorts_to_dto(store, base_rounds),
    };
    Ok(serde_json::to_string_pretty(&dto).expect("vendored JSON writer is infallible"))
}

/// Apply an incremental snapshot produced by [`snapshot_since_json`] to a
/// store holding exactly the delta's base rounds. The delta's rounds are
/// planned from the base and replayed through live ingestion as one batch:
/// same validation, and a rejected delta leaves the store untouched.
pub fn apply_delta_json(store: &mut ReleaseStore, json: &str) -> Result<(), ServeError> {
    let (value, _) = parse(json, "delta", &[DELTA_FORMAT, DELTA_FORMAT_V1])?;
    let base_rounds = index_field(&value, "base_rounds", "delta")?;
    if store.rounds() != base_rounds {
        return Err(ServeError::Snapshot(format!(
            "delta expects a store at {base_rounds} rounds, this one holds {}",
            store.rounds()
        )));
    }
    let delta_rounds = index_field(&value, "delta_rounds", "delta")?;
    let doc = decode(&value, false)?;
    if delta_rounds == 0 {
        return Ok(());
    }
    let policy = doc.policy.ok_or_else(|| {
        ServeError::Snapshot("delta with rounds carries no policy tag".to_string())
    })?;
    if doc.merged.len() != delta_rounds {
        return Err(ServeError::Snapshot(format!(
            "delta declares {delta_rounds} rounds but carries {} merged columns",
            doc.merged.len()
        )));
    }
    let plan = plan(store, base_rounds, &doc)?;
    replay(store, policy, &doc, &plan)
}

impl crate::QueryService {
    /// Snapshot the underlying store as JSON (read lock held briefly; the
    /// stored statistics are derived data and deliberately not
    /// serialized). The rendered size lands in the `serve_snapshot_bytes`
    /// gauge.
    pub fn snapshot_json(&self) -> String {
        let json = self.with_store(snapshot_json);
        self.note_snapshot_bytes(json.len());
        json
    }

    /// Incremental snapshot of the rounds after `base_rounds` (read lock
    /// held briefly). Periodic checkpointing pairs this with
    /// [`apply_delta_json`](Self::apply_delta_json) at restore time:
    /// O(delta) per checkpoint instead of O(store).
    pub fn snapshot_since_json(&self, base_rounds: usize) -> Result<String, ServeError> {
        let json = self.with_store(|store| snapshot_since_json(store, base_rounds))?;
        self.note_snapshot_bytes(json.len());
        Ok(json)
    }

    /// Apply an incremental snapshot to the underlying store (write lock
    /// held for the call). Sound with histograms already stored: the store
    /// is append-only, so every stored statistic stays valid.
    pub fn apply_delta_json(&self, json: &str) -> Result<(), ServeError> {
        self.with_store_mut(|store| apply_delta_json(store, json))
    }

    /// A fresh service over a store restored from `json` (no histograms
    /// stored yet — reads rebuild them, bit-identical by construction).
    pub fn restore_json(json: &str) -> Result<Self, ServeError> {
        Ok(Self::from_store(restore_json(json)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundShape;

    fn sample_store() -> ReleaseStore {
        sample_store_rounds(5)
    }

    fn sample_store_rounds(rounds: usize) -> ReleaseStore {
        let mut store = ReleaseStore::new();
        for round in 0..rounds {
            let a =
                BitColumn::from_bools(&(0..67).map(|i| (i + round) % 3 == 0).collect::<Vec<_>>());
            let b =
                BitColumn::from_bools(&(0..41).map(|i| (i * round) % 5 == 1).collect::<Vec<_>>());
            store.ingest(RoundShape::Lockstep, &[a, b], None).unwrap();
        }
        store
    }

    fn shared_store(rounds: usize) -> ReleaseStore {
        let mut store = ReleaseStore::new();
        for round in 0..rounds {
            let a =
                BitColumn::from_bools(&(0..13).map(|i| (i + round) % 2 == 0).collect::<Vec<_>>());
            let b =
                BitColumn::from_bools(&(0..9).map(|i| (i * round) % 3 == 1).collect::<Vec<_>>());
            // Independent population panel with its own record count.
            let population =
                BitColumn::from_bools(&(0..29).map(|i| (i ^ round) % 4 == 0).collect::<Vec<_>>());
            store
                .ingest(RoundShape::Lockstep, &[a, b], Some(&population))
                .unwrap();
        }
        store
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let store = sample_store();
        let json = snapshot_json(&store);
        assert!(json.contains(FORMAT));
        assert!(json.contains("per-shard"));
        let restored = restore_json(&json).unwrap();
        assert_eq!(restored, store);
        assert_eq!(restored.policy(), Some(PolicyTag::PerShard));
        // Snapshot of the restore is byte-identical (canonical form).
        assert_eq!(snapshot_json(&restored), json);
    }

    #[test]
    fn shared_store_snapshot_keeps_tag_and_shape() {
        let store = shared_store(4);
        let json = snapshot_json(&store);
        assert!(json.contains("\"shared\""));
        let restored = restore_json(&json).unwrap();
        assert_eq!(restored, store);
        assert_eq!(restored.policy(), Some(PolicyTag::Shared));
        // The merged panel's independent record count survived the
        // restore-time validation (no concatenation sum applies).
        assert_eq!(restored.records(), Some(29));
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = ReleaseStore::new();
        let restored = restore_json(&snapshot_json(&store)).unwrap();
        assert_eq!(restored, store);
        assert_eq!(restored.rounds(), 0);
        assert_eq!(restored.policy(), None);
    }

    #[test]
    fn v1_snapshots_still_restore() {
        // A pre-policy snapshot: v1 tag, no policy key. Its rounds are
        // per-shard concatenation rounds by construction, and the restore
        // pins that tag — so a later shared-noise ingest cannot relabel
        // the history.
        let json = format!(
            r#"{{
  "format": "{FORMAT_V1}",
  "merged": {{ "records": 2, "columns": ["0000000000000003"] }},
  "cohorts": [ {{ "records": 2, "columns": ["0000000000000003"] }} ]
}}"#
        );
        let mut restored = restore_json(&json).unwrap();
        assert_eq!(restored.rounds(), 1);
        assert_eq!(restored.policy(), Some(PolicyTag::PerShard));
        let err = restored
            .ingest(
                RoundShape::Lockstep,
                &[BitColumn::from_bools(&[true, false])],
                Some(&BitColumn::from_bools(&[true, true, true])),
            )
            .unwrap_err();
        assert!(err.to_string().contains("per-shard"), "{err}");
    }

    #[test]
    fn hex_encoding_is_lossless_at_odd_widths() {
        for len in [1usize, 63, 64, 65, 127, 130] {
            let col = BitColumn::from_bools(&(0..len).map(|i| i % 7 == 0).collect::<Vec<_>>());
            let back = column_from_hex(&column_to_hex(&col), len).unwrap();
            assert_eq!(back, col, "len {len}");
        }
    }

    #[test]
    fn restore_rejects_corruption() {
        let store = sample_store();
        let json = snapshot_json(&store);
        // Unknown format tag.
        let bad = json.replace(FORMAT, "longsynth-release-store/v999");
        assert!(matches!(restore_json(&bad), Err(ServeError::Snapshot(_))));
        // Truncated document.
        assert!(restore_json(&json[..json.len() / 2]).is_err());
        // Non-hex column data.
        let bad = json.replacen("00", "zz", 1);
        assert!(restore_json(&bad).is_err());
        // Unknown policy tag.
        let bad = json.replace("per-shard", "maximal");
        assert!(restore_json(&bad).is_err());
        // Not JSON at all.
        assert!(restore_json("hello").is_err());
    }

    #[test]
    fn restore_validates_lockstep_invariants() {
        // Handcraft a snapshot whose cohort record counts cannot sum to the
        // merged count.
        let json = format!(
            r#"{{
  "format": "{FORMAT}",
  "policy": "per-shard",
  "merged": {{ "records": 3, "columns": ["0000000000000007"] }},
  "cohorts": [ {{ "records": 1, "columns": ["0000000000000001"] }} ]
}}"#
        );
        let err = restore_json(&json).unwrap_err();
        assert!(err.to_string().contains("sum"), "{err}");
        // The same shape is legal when tagged shared (independent merged
        // synthesis).
        let json = json.replace("per-shard", "shared");
        let restored = restore_json(&json).unwrap();
        assert_eq!(restored.policy(), Some(PolicyTag::Shared));
    }

    #[test]
    fn restore_refuses_a_per_shard_merged_column_that_is_not_the_concatenation() {
        // The record counts sum (1 + 1 = 2), but the merged bits are the
        // cohorts' in the wrong order.
        let json = format!(
            r#"{{
  "format": "{FORMAT}",
  "policy": "per-shard",
  "merged": {{ "records": 2, "columns": ["0000000000000001"] }},
  "cohorts": [
    {{ "records": 1, "columns": ["0000000000000000"] }},
    {{ "records": 1, "columns": ["0000000000000001"] }}
  ]
}}"#
        );
        let err = restore_json(&json).unwrap_err();
        assert!(matches!(err, ServeError::Snapshot(_)), "{err}");
        let concatenated = json.replacen("0000000000000001", "0000000000000002", 1);
        assert!(restore_json(&concatenated).is_ok());
        // A dynamic document: round 0 concatenates bits 10 and 011.
        let json = snapshot_json(&dynamic_store());
        let round = "\"column\": \"0000000000000019\"";
        assert!(json.contains(round), "{json}");
        let tampered = json.replace(round, "\"column\": \"0000000000000018\"");
        let err = restore_json(&tampered).unwrap_err();
        assert!(matches!(err, ServeError::Snapshot(_)), "{err}");
        // A delta is refused whole, leaving its base untouched.
        let delta = snapshot_since_json(&dynamic_store(), 0).unwrap();
        assert!(delta.contains(round), "{delta}");
        let mut store = ReleaseStore::new();
        let err = apply_delta_json(
            &mut store,
            &delta.replace(round, "\"column\": \"0000000000000018\""),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Snapshot(_)), "{err}");
        assert_eq!(store, ReleaseStore::new());
    }

    #[test]
    fn restore_names_how_a_per_shard_merged_column_differs() {
        // Three one-record cohorts 0, 1, 1 concatenate to bits 110 (0x6).
        let doc = |merged: &str| {
            format!(
                r#"{{
  "format": "{FORMAT}",
  "policy": "per-shard",
  "merged": {{ "records": 3, "columns": ["{merged}"] }},
  "cohorts": [
    {{ "records": 1, "columns": ["0000000000000000"] }},
    {{ "records": 1, "columns": ["0000000000000001"] }},
    {{ "records": 1, "columns": ["0000000000000001"] }}
  ]
}}"#
            )
        };
        assert!(restore_json(&doc("0000000000000006")).is_ok());
        let err = restore_json(&doc("0000000000000002")).unwrap_err();
        assert!(err.to_string().contains("at record 2"), "{err}");
        let err = restore_json(&doc("0000000000000007")).unwrap_err();
        assert!(err.to_string().contains("at record 0"), "{err}");
        let short = doc("0000000000000002").replace("\"records\": 3", "\"records\": 2");
        let err = restore_json(&short).unwrap_err();
        assert!(
            err.to_string()
                .contains("has 2 records, but the cohort columns sum to 3"),
            "{err}"
        );
    }

    #[test]
    fn delta_snapshots_chain_to_the_full_snapshot() {
        for shared in [false, true] {
            let build = |rounds: usize| {
                if shared {
                    shared_store(rounds)
                } else {
                    let mut store = ReleaseStore::new();
                    let full = sample_store();
                    for _ in 0..rounds {
                        let round = store.rounds();
                        let a = full
                            .panel(crate::StoreScope::Cohort(0))
                            .unwrap()
                            .column(round)
                            .clone();
                        let b = full
                            .panel(crate::StoreScope::Cohort(1))
                            .unwrap()
                            .column(round)
                            .clone();
                        store.ingest(RoundShape::Lockstep, &[a, b], None).unwrap();
                    }
                    store
                }
            };
            let full = build(5);
            // Base snapshot at round 2, then deltas 2→4 and 4→5.
            let base = build(2);
            let mut chained = restore_json(&snapshot_json(&base)).unwrap();
            apply_delta_json(&mut chained, &snapshot_since_json(&build(4), 2).unwrap()).unwrap();
            apply_delta_json(&mut chained, &snapshot_since_json(&full, 4).unwrap()).unwrap();
            assert_eq!(chained, full, "shared={shared}");
            // An empty delta is a no-op.
            apply_delta_json(&mut chained, &snapshot_since_json(&full, 5).unwrap()).unwrap();
            assert_eq!(chained, full, "shared={shared}");
        }
    }

    /// A dynamic three-round store with entry-staggered cohorts (mirrors
    /// the rotating fixture in `store::tests`).
    fn dynamic_store() -> ReleaseStore {
        dynamic_store_rounds(3)
    }

    fn dynamic_store_rounds(rounds: usize) -> ReleaseStore {
        let col = |bits: &[bool]| BitColumn::from_bools(bits);
        let mut store = ReleaseStore::new();
        let plan: [(&[usize], Vec<BitColumn>); 3] = [
            (
                &[0, 1],
                vec![col(&[true, false]), col(&[false, true, true])],
            ),
            (
                &[0, 1, 2],
                vec![col(&[true, true]), col(&[false, false, true]), col(&[true])],
            ),
            (&[1, 2], vec![col(&[true, true, true]), col(&[false])]),
        ];
        for (round, (active, parts)) in plan.into_iter().enumerate().take(rounds) {
            let shape = RoundShape::Scheduled {
                round,
                cohorts: 3,
                active,
            };
            store.ingest(shape, &parts, None).unwrap();
        }
        store
    }

    #[test]
    fn dynamic_store_snapshots_roundtrip_with_schedule() {
        let store = dynamic_store();
        let json = snapshot_json(&store);
        assert!(json.contains(FORMAT));
        assert!(json.contains("\"dynamic\": true") || json.contains("\"dynamic\":true"));
        let restored = restore_json(&json).unwrap();
        assert_eq!(restored, store);
        assert!(restored.is_dynamic());
        assert_eq!(restored.cohort_window(0), Some(0..2));
        assert_eq!(restored.cohort_window(2), Some(1..3));
        // Canonical form: snapshot of the restore is byte-identical.
        assert_eq!(snapshot_json(&restored), json);
        // Merged-scope dynamic answers survive the round trip bit-exactly.
        let query = crate::ServeQuery {
            scope: crate::StoreScope::Merged,
            kind: crate::QueryKind::CumulativeFraction { t: 2, b: 1 },
        };
        assert_eq!(
            store.answer(&query).unwrap().to_bits(),
            restored.answer(&query).unwrap().to_bits()
        );
    }

    #[test]
    fn dynamic_deltas_replay_the_schedule() {
        let full = dynamic_store();
        // Base at round 1, delta 1→3: the delta carries cohort 2's entry.
        let base = dynamic_store_rounds(1);
        let mut chained = restore_json(&snapshot_json(&base)).unwrap();
        let delta = snapshot_since_json(&full, 1).unwrap();
        assert!(delta.contains(DELTA_FORMAT));
        apply_delta_json(&mut chained, &delta).unwrap();
        assert_eq!(chained, full);
        // Empty dynamic delta is a no-op.
        apply_delta_json(&mut chained, &snapshot_since_json(&full, 3).unwrap()).unwrap();
        assert_eq!(chained, full);
        // A delta also boots an empty store from base 0.
        let mut fresh = ReleaseStore::new();
        apply_delta_json(&mut fresh, &snapshot_since_json(&full, 0).unwrap()).unwrap();
        assert_eq!(fresh, full);
    }

    #[test]
    fn dynamic_snapshot_coverage_is_validated() {
        let store = dynamic_store();
        let json = snapshot_json(&store);
        assert!(json.contains("\"coverage\""));
        // Tampered coverage that disagrees with the cohort windows is
        // refused (the v3-restore derivation path — no coverage recorded
        // at all — is pinned by the frozen fixture in
        // `tests/prop_store.rs`): round 0's row [0, 1] becomes [1].
        let row = "\"coverage\": [\n    [\n      0,\n      1\n    ],";
        assert!(json.contains(row), "{json}");
        let tampered = json.replace(row, "\"coverage\": [\n    [\n      1\n    ],");
        let err = restore_json(&tampered).unwrap_err();
        assert!(err.to_string().contains("coverage"), "{err}");
    }

    #[test]
    fn dynamic_snapshot_corruption_is_rejected() {
        let store = dynamic_store();
        let json = snapshot_json(&store);
        // A dynamic snapshot claiming a pre-schedule format is refused.
        let bad = json.replace(FORMAT, FORMAT_V2);
        let err = restore_json(&bad).unwrap_err();
        assert!(err.to_string().contains("dynamic"), "{err}");
        // Dropping a cohort's entry round is caught.
        let bad = json.replace("\"entry\": 1", "\"entry\": null");
        assert!(restore_json(&bad).is_err());
        // Cohort windows beyond the stored rounds are caught.
        let bad = json.replace("\"entry\": 1", "\"entry\": 2");
        let err = restore_json(&bad).unwrap_err();
        assert!(err.to_string().contains("covers rounds"), "{err}");
    }

    #[test]
    fn restore_refuses_shapes_live_ingest_cannot_produce() {
        // A static store whose cohort 0 has no panel beside a 2-round
        // merged panel: live ingest steps every cohort in every round.
        let json = format!(
            r#"{{
  "format": "{FORMAT}",
  "policy": "shared",
  "dynamic": false,
  "merged": {{ "records": 3, "columns": ["0000000000000005", "0000000000000003"] }},
  "merged_rounds": [],
  "coverage": [],
  "cohorts": [
    null,
    {{ "records": 2, "entry": null, "columns": ["0000000000000001", "0000000000000002"] }}
  ]
}}"#
        );
        assert!(matches!(restore_json(&json), Err(ServeError::Snapshot(_))));
        // A dynamic store with a round no cohort covers: live ingest
        // refuses an empty active set.
        let json = format!(
            r#"{{
  "format": "{FORMAT}",
  "policy": "shared",
  "dynamic": true,
  "merged": null,
  "merged_rounds": [
    {{ "records": 1, "column": "0000000000000001" }},
    {{ "records": 0, "column": "" }}
  ],
  "coverage": [[0], []],
  "cohorts": [ {{ "records": 1, "entry": 0, "columns": ["0000000000000001"] }} ]
}}"#
        );
        assert!(matches!(restore_json(&json), Err(ServeError::Snapshot(_))));
    }

    #[test]
    fn restore_names_invalid_integer_fields() {
        // A present-but-negative record count is reported as negative, not
        // as an absent field (the two used to share one "missing" message).
        let json = format!(
            r#"{{
  "format": "{FORMAT}",
  "policy": "per-shard",
  "merged": {{ "records": -3, "columns": ["0000000000000007"] }},
  "cohorts": [ {{ "records": 3, "columns": ["0000000000000007"] }} ]
}}"#
        );
        let err = restore_json(&json).unwrap_err();
        assert!(err.to_string().contains("`records`"), "{err}");
        assert!(err.to_string().contains("negative"), "{err}");
        // A genuinely absent field still says so.
        let json = format!(
            r#"{{
  "format": "{FORMAT}",
  "policy": "per-shard",
  "merged": {{ "columns": ["0000000000000007"] }},
  "cohorts": [ {{ "records": 3, "columns": ["0000000000000007"] }} ]
}}"#
        );
        let err = restore_json(&json).unwrap_err();
        assert!(err.to_string().contains("missing `records`"), "{err}");

        let dynamic = snapshot_json(&dynamic_store());
        // A fractional cohort entry round is named as fractional.
        let bad = dynamic.replace("\"entry\": 1", "\"entry\": 1.25");
        let err = restore_json(&bad).unwrap_err();
        assert!(err.to_string().contains("`entry`"), "{err}");
        assert!(err.to_string().contains("fractional"), "{err}");
        // A negative ragged merged-round count is named as negative.
        let bad = dynamic.replacen("\"records\": 5", "\"records\": -5", 1);
        let err = restore_json(&bad).unwrap_err();
        assert!(err.to_string().contains("merged round `records`"), "{err}");
        assert!(err.to_string().contains("negative"), "{err}");
        // A fractional coverage entry is named (the first bare "0," in the
        // document sits inside the coverage rows).
        let bad = dynamic.replacen("0,", "0.75,", 1);
        let err = restore_json(&bad).unwrap_err();
        assert!(err.to_string().contains("coverage entry"), "{err}");
        assert!(err.to_string().contains("fractional"), "{err}");
    }

    #[test]
    fn delta_rejects_invalid_round_counts() {
        let full = sample_store();
        let delta = snapshot_since_json(&full, 3).unwrap();
        // `base_rounds` beyond what a 64-bit index can hold is reported as
        // overflow before any base comparison happens.
        let bad = delta.replace(
            "\"base_rounds\": 3",
            "\"base_rounds\": 1000000000000000000000000000000",
        );
        let mut store = sample_store_rounds(3);
        let err = apply_delta_json(&mut store, &bad).unwrap_err();
        assert!(err.to_string().contains("`base_rounds`"), "{err}");
        assert!(err.to_string().contains("overflows"), "{err}");
        // A negative `delta_rounds` is named as negative.
        let bad = delta.replace("\"delta_rounds\": 2", "\"delta_rounds\": -2");
        let err = apply_delta_json(&mut store, &bad).unwrap_err();
        assert!(err.to_string().contains("`delta_rounds`"), "{err}");
        assert!(err.to_string().contains("negative"), "{err}");
        // The untampered delta still applies cleanly afterwards.
        apply_delta_json(&mut store, &delta).unwrap();
        assert_eq!(store, full);
    }

    #[test]
    fn delta_validation_catches_mismatched_bases() {
        let full = sample_store();
        // Base beyond the store's rounds.
        assert!(snapshot_since_json(&full, 9).is_err());
        // Applying a delta to the wrong base round count.
        let delta = snapshot_since_json(&full, 3).unwrap();
        let mut wrong_base = restore_json(&snapshot_json(&full)).unwrap();
        let err = apply_delta_json(&mut wrong_base, &delta).unwrap_err();
        assert!(err.to_string().contains("3 rounds"), "{err}");
        // A full snapshot is not a delta.
        let mut store = sample_store();
        assert!(apply_delta_json(&mut store, &snapshot_json(&full)).is_err());
    }

    #[test]
    fn service_snapshot_restores_with_identical_answers() {
        use crate::{QueryKind, QueryService, ServeQuery, StoreScope};
        let service = QueryService::from_store(sample_store());
        let query = ServeQuery {
            scope: StoreScope::Cohort(1),
            kind: QueryKind::CumulativeFraction { t: 4, b: 2 },
        };
        let before = service.answer(&query).unwrap();
        let restored = QueryService::restore_json(&service.snapshot_json()).unwrap();
        let after = restored.answer(&query).unwrap();
        assert_eq!(before.to_bits(), after.to_bits());
    }

    #[test]
    fn service_deltas_apply_under_a_warm_cache() {
        use crate::{QueryKind, QueryService, ServeQuery, StoreScope};
        let full = sample_store();
        let base = QueryService::restore_json(&snapshot_json(&sample_store_rounds(3))).unwrap();
        let query = |t| ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t, b: 1 },
        };
        // Read a base round before the delta lands.
        let warm = base.answer(&query(2)).unwrap();
        // Round 4 is not answerable yet.
        assert!(base.answer(&query(4)).is_err());
        base.apply_delta_json(&snapshot_since_json(&full, 3).unwrap())
            .unwrap();
        // New round answerable; warm entry still bit-identical.
        assert!(base.answer(&query(4)).is_ok());
        assert_eq!(base.answer(&query(2)).unwrap().to_bits(), warm.to_bits());
    }
}
