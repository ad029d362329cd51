//! [`GroupArena`]: double-buffered flat storage for record-id groups.
//!
//! Every synthesizer in this crate maintains a partition of record ids
//! into groups (overlap classes for the fixed-window families, Hamming
//! weight classes for the cumulative family) and rebuilds that partition
//! once per update step. The naïve representation — a fresh
//! `Vec<Vec<u32>>` per round, filled by per-id `push` — costs one heap
//! allocation per group per round plus amortized-doubling re-copies, and
//! at n = 10⁶ the id-ordered push walk dominated the whole update step.
//!
//! The paper's update steps make that churn avoidable: every successor
//! group is a concatenation of **contiguous segments** of the current
//! (shuffled) groups, and every segment's size is a released target
//! (`p0`/`p1` per overlap class, per-category targets, promotion counts),
//! so the successor layout can be planned exactly before a single id
//! moves. `GroupArena` exploits this with two flat `Vec<u32>` id stores
//! plus per-group offset tables:
//!
//! 1. [`plan`](GroupArena::plan) takes the successor group sizes and
//!    lays out per-group segment cursors in the back buffer (no
//!    allocation once the buffers have reached steady-state capacity);
//! 2. [`carry`](GroupArena::carry) / [`extend`](GroupArena::extend) /
//!    [`push`](GroupArena::push) write ids directly into the pre-sized
//!    segments (bulk `copy_from_slice` for contiguous moves);
//! 3. [`commit`](GroupArena::commit) verifies every segment was filled
//!    exactly and swaps the buffers.
//!
//! The arena stores ids only — *which* ids move where, and in what
//! order, stays entirely in the calling synthesizer, so the regrouping
//! decisions (and the RNG word stream behind them) are unchanged from
//! the historical `Vec<Vec<u32>>` code. The replay suite in
//! `tests/shuffle_replay.rs` and the property suite in
//! `tests/arena_equivalence.rs` pin that equivalence.

use std::ops::Range;

/// Double-buffered flat group storage. See the module docs.
///
/// A `GroupArena` is always in one of two states:
///
/// * **settled** — the front buffer holds the current partition; groups
///   are readable ([`group`](Self::group)) and shufflable in place
///   ([`group_mut`](Self::group_mut));
/// * **planning** — after [`plan`](Self::plan), successor segments
///   accept writes until [`commit`](Self::commit) swaps the buffers.
///
/// The front partition stays fully readable while planning, which is
/// what lets a round shuffle its current groups and then carry the
/// shuffled segments into the successor layout without a temporary.
#[derive(Debug, Default)]
pub struct GroupArena {
    /// Front id store: group `g` is `ids[offsets[g]..offsets[g+1]]`.
    ids: Vec<u32>,
    /// Front offsets, length `groups + 1`, or empty for zero groups (so
    /// an empty arena holds no heap).
    offsets: Vec<usize>,
    /// Back id store under construction between `plan` and `commit`.
    back_ids: Vec<u32>,
    /// Back offsets, rebuilt by `plan`.
    back_offsets: Vec<usize>,
    /// Per-successor-group write cursor (absolute index into `back_ids`).
    cursors: Vec<usize>,
    /// True between `plan` and `commit`.
    planning: bool,
}

impl GroupArena {
    /// An empty arena with zero groups. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of groups in the settled (front) partition.
    pub fn groups(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of ids stored across all groups.
    pub fn len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// True when no ids are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group `g` of the settled partition.
    pub fn group(&self, g: usize) -> &[u32] {
        &self.ids[self.group_span(g)]
    }

    /// Mutable view of group `g` — the shuffle sites permute groups in
    /// place through this.
    pub fn group_mut(&mut self, g: usize) -> &mut [u32] {
        let span = self.group_span(g);
        &mut self.ids[span]
    }

    /// The absolute range of group `g` inside the flat front store.
    /// Segment carries ([`carry`](Self::carry)) address the front buffer
    /// through these spans.
    pub fn group_span(&self, g: usize) -> Range<usize> {
        assert!(
            g < self.groups(),
            "group {g} out of range {}",
            self.groups()
        );
        self.offsets[g]..self.offsets[g + 1]
    }

    /// Lay out the successor partition: `counts[g]` is the **exact**
    /// size successor group `g` will have. Allocates only while the
    /// buffers grow toward their steady-state capacity; a same-sized
    /// replan reuses both buffers untouched.
    ///
    /// # Panics
    /// Panics if a plan is already open.
    pub fn plan<I>(&mut self, counts: I)
    where
        I: IntoIterator<Item = usize>,
    {
        assert!(
            !self.planning,
            "GroupArena::plan called with a plan already open (missing commit?)"
        );
        self.back_offsets.clear();
        self.cursors.clear();
        self.back_offsets.push(0);
        let mut total = 0usize;
        for count in counts {
            self.cursors.push(total);
            total += count;
            self.back_offsets.push(total);
        }
        // `resize` over `with_capacity` so the segments are addressable
        // by index; the fill is a memset and only the first round (or a
        // population-size change) actually allocates.
        self.back_ids.resize(total, 0);
        self.planning = true;
    }

    /// Append one id to successor group `g`.
    pub fn push(&mut self, g: usize, id: u32) {
        debug_assert!(self.planning, "push outside a plan");
        debug_assert!(
            self.cursors[g] < self.back_offsets[g + 1],
            "successor group {g} overfilled past its planned size {}",
            self.back_offsets[g + 1] - self.back_offsets[g],
        );
        self.back_ids[self.cursors[g]] = id;
        self.cursors[g] += 1;
    }

    /// Bulk-append `ids` to successor group `g` (one `copy_from_slice`).
    pub fn extend(&mut self, g: usize, ids: &[u32]) {
        debug_assert!(self.planning, "extend outside a plan");
        let cursor = self.cursors[g];
        assert!(
            cursor + ids.len() <= self.back_offsets[g + 1],
            "successor group {g} overfilled: {} ids into a segment with {} slots left",
            ids.len(),
            self.back_offsets[g + 1] - cursor,
        );
        self.back_ids[cursor..cursor + ids.len()].copy_from_slice(ids);
        self.cursors[g] = cursor + ids.len();
    }

    /// Bulk-append a segment of the **front** buffer (addressed by a
    /// [`group_span`](Self::group_span)-derived absolute range) to
    /// successor group `g` — the zero-copy path for "this shuffled
    /// prefix/suffix moves to that successor group".
    pub fn carry(&mut self, g: usize, span: Range<usize>) {
        debug_assert!(self.planning, "carry outside a plan");
        let cursor = self.cursors[g];
        assert!(
            cursor + span.len() <= self.back_offsets[g + 1],
            "successor group {g} overfilled: {} ids into a segment with {} slots left",
            span.len(),
            self.back_offsets[g + 1] - cursor,
        );
        let len = span.len();
        self.back_ids[cursor..cursor + len].copy_from_slice(&self.ids[span]);
        self.cursors[g] = cursor + len;
    }

    /// Close the plan: verify every successor segment was filled to its
    /// planned size and swap the buffers, making the successor partition
    /// the settled one.
    ///
    /// # Panics
    /// Panics (in every build profile — an under/overfilled segment
    /// would silently corrupt the group bookkeeping) if any successor
    /// group's write cursor does not sit exactly at its planned end.
    pub fn commit(&mut self) {
        assert!(self.planning, "GroupArena::commit without an open plan");
        for (g, &cursor) in self.cursors.iter().enumerate() {
            let end = self.back_offsets[g + 1];
            assert!(
                cursor == end,
                "successor group {g} filled to {} of its planned {} ids \
                 (regrouping must place every id exactly once)",
                cursor - self.back_offsets[g],
                end - self.back_offsets[g],
            );
        }
        std::mem::swap(&mut self.ids, &mut self.back_ids);
        std::mem::swap(&mut self.offsets, &mut self.back_offsets);
        self.planning = false;
    }

    /// Drop all groups and ids (capacity is retained). Any open plan is
    /// abandoned.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.offsets.clear();
        self.planning = false;
    }

    /// Bytes of heap the arena holds (every buffer's capacity).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.ids.capacity() + self.back_ids.capacity()) * size_of::<u32>()
            + (self.offsets.capacity() + self.back_offsets.capacity() + self.cursors.capacity())
                * size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let arena = GroupArena::new();
        assert_eq!(arena.groups(), 0);
        assert_eq!(arena.len(), 0);
        assert!(arena.is_empty());
        assert_eq!(arena.heap_bytes(), 0);
    }

    #[test]
    fn plan_push_commit_builds_groups() {
        let mut arena = GroupArena::new();
        arena.plan([2, 0, 3]);
        arena.push(0, 10);
        arena.push(2, 20);
        arena.push(0, 11);
        arena.push(2, 21);
        arena.push(2, 22);
        arena.commit();
        assert_eq!(arena.groups(), 3);
        assert_eq!(arena.len(), 5);
        assert_eq!(arena.group(0), &[10, 11]);
        assert_eq!(arena.group(1), &[] as &[u32]);
        assert_eq!(arena.group(2), &[20, 21, 22]);
    }

    #[test]
    fn carry_moves_front_segments_in_order() {
        let mut arena = GroupArena::new();
        arena.plan([4, 2]);
        arena.extend(0, &[1, 2, 3, 4]);
        arena.extend(1, &[5, 6]);
        arena.commit();
        // Successor: group 0 = suffix of old 0 ++ old 1; group 1 =
        // prefix of old 0.
        let span0 = arena.group_span(0);
        let span1 = arena.group_span(1);
        arena.plan([4, 2]);
        arena.carry(0, span0.start + 2..span0.end);
        arena.carry(0, span1.clone());
        arena.carry(1, span0.start..span0.start + 2);
        arena.commit();
        assert_eq!(arena.group(0), &[3, 4, 5, 6]);
        assert_eq!(arena.group(1), &[1, 2]);
    }

    #[test]
    fn group_count_can_change_between_rounds() {
        let mut arena = GroupArena::new();
        arena.plan([3]);
        arena.extend(0, &[7, 8, 9]);
        arena.commit();
        assert_eq!(arena.groups(), 1);
        let span = arena.group_span(0);
        arena.plan([1, 1, 1, 0]);
        arena.carry(2, span.start..span.start + 1);
        arena.carry(0, span.start + 1..span.start + 2);
        arena.carry(1, span.start + 2..span.end);
        arena.commit();
        assert_eq!(arena.groups(), 4);
        assert_eq!(arena.group(0), &[8]);
        assert_eq!(arena.group(1), &[9]);
        assert_eq!(arena.group(2), &[7]);
        assert_eq!(arena.group(3), &[] as &[u32]);
    }

    #[test]
    fn group_mut_permutes_in_place() {
        let mut arena = GroupArena::new();
        arena.plan([3]);
        arena.extend(0, &[1, 2, 3]);
        arena.commit();
        arena.group_mut(0).reverse();
        assert_eq!(arena.group(0), &[3, 2, 1]);
    }

    #[test]
    fn clear_resets_groups() {
        let mut arena = GroupArena::new();
        arena.plan([2]);
        arena.extend(0, &[1, 2]);
        arena.commit();
        arena.clear();
        assert_eq!(arena.groups(), 0);
        assert!(arena.is_empty());
    }

    #[test]
    #[should_panic(expected = "filled to 1 of its planned 2")]
    fn commit_rejects_underfilled_segment() {
        let mut arena = GroupArena::new();
        arena.plan([2]);
        arena.push(0, 1);
        arena.commit();
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn extend_rejects_overfilled_segment() {
        let mut arena = GroupArena::new();
        arena.plan([1]);
        arena.extend(0, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "plan already open")]
    fn double_plan_panics() {
        let mut arena = GroupArena::new();
        arena.plan([1]);
        arena.plan([1]);
    }

    #[test]
    fn replan_at_same_size_reuses_capacity() {
        let mut arena = GroupArena::new();
        arena.plan([2, 2]);
        arena.extend(0, &[1, 2]);
        arena.extend(1, &[3, 4]);
        arena.commit();
        for _ in 0..2 {
            let (a, b) = (arena.group_span(0), arena.group_span(1));
            arena.plan([2, 2]);
            arena.carry(0, b);
            arena.carry(1, a);
            arena.commit();
        }
        assert_eq!(arena.group(0), &[1, 2]);
        assert_eq!(arena.group(1), &[3, 4]);
    }
}
