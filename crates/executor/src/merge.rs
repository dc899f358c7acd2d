//! Streaming k-way merge of sorted row sources.
//!
//! Shared by the row kernel's GatherMerge motion (one already-sorted
//! stream per sending segment) and the spill sort (one per sorted run):
//! both must produce a single globally sorted stream whose order is
//! **deterministic** — ties between sources break toward the lowest
//! source index, which makes the merge byte-identical to a stable sort
//! of the sources' concatenation (in source order). The columnar kernel
//! and the parallel interconnect merge batches under the same contract
//! (`columnar::exec::merge_sorted`).

use crate::eval::compare_rows;
use crate::storage::Row;
use orca_common::{ColId, Result};
use orca_expr::props::OrderSpec;
use std::cmp::Ordering;

/// A pull source of rows for the merge. `next_row` returns `None` when
/// the source is exhausted; it may fail (e.g. a spill-file read).
pub trait RowSource {
    fn next_row(&mut self) -> Result<Option<Row>>;
}

/// A `RowSource` over an in-memory, already-sorted vector of rows.
pub struct VecSource {
    rows: std::vec::IntoIter<Row>,
}

impl VecSource {
    pub fn new(rows: Vec<Row>) -> VecSource {
        VecSource {
            rows: rows.into_iter(),
        }
    }
}

impl RowSource for VecSource {
    fn next_row(&mut self) -> Result<Option<Row>> {
        Ok(self.rows.next())
    }
}

/// Merge `sources` (each sorted by `order` over `layout`) into one sorted
/// vector. Ties break toward the lowest source index. The head of each
/// source is held while merging, so at most k rows are resident beyond
/// the output — the sources themselves may stream.
///
/// k is the segment count (single digits), so the head scan is linear
/// rather than a binary heap: simpler, and faster at this width.
pub fn kway_merge<S: RowSource>(
    sources: Vec<S>,
    order: &OrderSpec,
    layout: &[ColId],
) -> Result<Vec<Row>> {
    let mut merged = Vec::new();
    kway_merge_into(sources, order, layout, |row| {
        merged.push(row);
        Ok(())
    })?;
    Ok(merged)
}

/// Streaming form of [`kway_merge`]: each merged row is handed to `emit`
/// as soon as it is determined, so a consumer can forward rows without
/// materializing the whole output.
pub fn kway_merge_into<S: RowSource>(
    mut sources: Vec<S>,
    order: &OrderSpec,
    layout: &[ColId],
    mut emit: impl FnMut(Row) -> Result<()>,
) -> Result<()> {
    // Prime one head per source; exhausted sources hold None.
    let mut heads: Vec<Option<Row>> = Vec::with_capacity(sources.len());
    for src in sources.iter_mut() {
        heads.push(src.next_row()?);
    }
    loop {
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(row) = head else { continue };
            best = match best {
                None => Some(i),
                Some(b) => {
                    let cmp = compare_rows(row, heads[b].as_ref().unwrap(), order, layout);
                    // Strictly-less replaces; a tie keeps the lower index.
                    if cmp == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(b) = best else { break };
        let row = heads[b].take().unwrap();
        emit(row)?;
        heads[b] = sources[b].next_row()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_common::Datum;

    fn rows(vals: &[i64]) -> Vec<Row> {
        vals.iter().map(|&v| vec![Datum::Int(v)]).collect()
    }

    #[test]
    fn merges_sorted_runs() {
        let order = OrderSpec::by(&[ColId(0)]);
        let layout = vec![ColId(0)];
        let sources = vec![
            VecSource::new(rows(&[1, 4, 7])),
            VecSource::new(rows(&[2, 4, 8])),
            VecSource::new(rows(&[])),
            VecSource::new(rows(&[3, 4])),
        ];
        let merged = kway_merge(sources, &order, &layout).unwrap();
        let got: Vec<i64> = merged.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 4, 4, 7, 8]);
    }

    /// Tie-breaking toward the lowest source index makes the merge equal
    /// to a stable sort of the concatenation — byte-for-byte, including
    /// payload columns not covered by the sort key.
    #[test]
    fn equals_stable_sort_of_concat() {
        let order = OrderSpec::by(&[ColId(0)]);
        let layout = vec![ColId(0), ColId(1)];
        let mk = |pairs: &[(i64, i64)]| -> Vec<Row> {
            pairs
                .iter()
                .map(|&(a, b)| vec![Datum::Int(a), Datum::Int(b)])
                .collect()
        };
        let segs = vec![
            mk(&[(1, 10), (2, 11), (2, 12)]),
            mk(&[(0, 20), (2, 21)]),
            mk(&[(2, 30), (3, 31)]),
        ];
        let mut expected: Vec<Row> = segs.iter().flatten().cloned().collect();
        expected.sort_by(|a, b| compare_rows(a, b, &order, &layout));
        let merged = kway_merge(
            segs.into_iter().map(VecSource::new).collect(),
            &order,
            &layout,
        )
        .unwrap();
        assert_eq!(merged, expected);
    }
}
