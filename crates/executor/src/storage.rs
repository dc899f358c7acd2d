//! Segmented storage: "an array of individual databases, all working
//! together to present a single database image" (§2.1).
//!
//! Tables are stored **natively columnar**: at load time the rows of
//! each (segment, partition) bucket are decomposed once into immutable
//! [`ColumnChunk`]s — typed column vectors with null bitmaps, per-chunk
//! zone maps (min/max/null-count per column) and dictionary-encoded
//! string columns. Scans hand out the chunks' `Arc`-shared column
//! buffers instead of cloning cells, the fused filter path consults the
//! zone maps to skip whole chunks, and the row-kernel oracle derives
//! its `Vec<Row>` view from the same chunks (so it stays the
//! representation-blind differential reference).

use crate::columnar::{Column, ColumnBatch, ValRef};
use orca_catalog::{Distribution, TableDesc};
use orca_common::hash::{segment_for_key, FnvHashMap};
use orca_common::{Datum, MdId, OrcaError, Result, SegmentConfig};
use std::cmp::Ordering;
use std::sync::Arc;

/// A tuple.
pub type Row = Vec<Datum>;

/// Chunk-size ceiling. Chunks are `min(batch_size, MAX_CHUNK_ROWS)`
/// rows: small enough that zone maps prune at a useful granularity even
/// on replicated dimension tables, while any scan batch size ≥ the
/// chunk size still gets the zero-copy fast path (batches are allowed
/// to be smaller than `batch_size`).
pub const MAX_CHUNK_ROWS: usize = 256;

/// Per-column min/max/null statistics for one chunk.
///
/// `min`/`max` are `None` when the chunk's non-null values are not
/// mutually comparable under `Datum::sql_cmp` (mixed comparison
/// classes, NaN) or when every value is NULL — pruning then falls back
/// to the null count alone.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    pub min: Option<Datum>,
    pub max: Option<Datum>,
    pub null_count: usize,
}

/// An immutable horizontal slice of one (segment, partition) bucket in
/// columnar form, shared by `Arc` between replicated segments, scans
/// and the fragment cache.
#[derive(Debug)]
pub struct ColumnChunk {
    pub data: ColumnBatch,
    /// One entry per column of `data`.
    pub zones: Vec<ZoneMap>,
}

fn zone_of(col: &Column) -> ZoneMap {
    // Dict columns carry their sorted dictionary: min/max are its ends.
    if let Some((_, dict, nulls)) = col.dict_parts() {
        return ZoneMap {
            min: dict.first().map(|s| Datum::Str(s.clone())),
            max: dict.last().map(|s| Datum::Str(s.clone())),
            null_count: nulls.map_or(0, |b| b.count_ones()),
        };
    }
    let mut null_count = 0usize;
    let mut comparable = true;
    let (mut min_i, mut max_i) = (None, None);
    for i in 0..col.len() {
        let v = col.get_ref(i);
        if v.is_null() {
            null_count += 1;
            continue;
        }
        if !comparable {
            continue;
        }
        let (Some(mi), Some(ma)) = (min_i, max_i) else {
            min_i = Some(i);
            max_i = Some(i);
            continue;
        };
        match v.sql_cmp(&col.get_ref(mi)) {
            None => {
                comparable = false;
                continue;
            }
            Some(Ordering::Less) => min_i = Some(i),
            _ => {}
        }
        match v.sql_cmp(&col.get_ref(ma)) {
            None => comparable = false,
            Some(Ordering::Greater) => max_i = Some(i),
            _ => {}
        }
    }
    if !comparable {
        (min_i, max_i) = (None, None);
    }
    ZoneMap {
        min: min_i.map(|i| col.get(i)),
        max: max_i.map(|i| col.get(i)),
        null_count,
    }
}

fn build_chunks(rows: &[Row], width: usize, chunk_rows: usize) -> Vec<Arc<ColumnChunk>> {
    rows.chunks(chunk_rows.max(1))
        .map(|slice| {
            let mut data = ColumnBatch::from_rows(slice, width);
            for col in data.cols.iter_mut() {
                if let Some(encoded) = col.dict_encoded() {
                    *col = encoded;
                }
            }
            let zones = data.cols.iter().map(zone_of).collect();
            Arc::new(ColumnChunk { data, zones })
        })
        .collect()
}

/// One table's data: `chunks[s][p]` = the column chunks of partition
/// `p` on segment `s` (unpartitioned tables have a single partition 0).
#[derive(Debug, Clone)]
pub struct SegmentedTable {
    pub desc: Arc<TableDesc>,
    chunks: Vec<Vec<Vec<Arc<ColumnChunk>>>>,
}

impl SegmentedTable {
    /// Distribute `rows` across `num_segments` according to the table's
    /// policy, chunking at the default [`MAX_CHUNK_ROWS`].
    pub fn load(
        desc: Arc<TableDesc>,
        rows: Vec<Row>,
        num_segments: usize,
    ) -> Result<SegmentedTable> {
        SegmentedTable::load_chunked(desc, rows, num_segments, MAX_CHUNK_ROWS)
    }

    /// Distribute and chunk `rows`, with an explicit chunk size.
    pub fn load_chunked(
        desc: Arc<TableDesc>,
        rows: Vec<Row>,
        num_segments: usize,
        chunk_rows: usize,
    ) -> Result<SegmentedTable> {
        let nparts = desc.num_partitions();
        let width = desc.columns.len();
        let replicated = desc.distribution == Distribution::Replicated;
        // Replicated tables are bucketed once and the chunks shared.
        let bucket_segs = if replicated { 1 } else { num_segments };
        let mut buckets = vec![vec![Vec::new(); nparts]; bucket_segs];
        for row in rows {
            if row.len() != width {
                return Err(OrcaError::Execution(format!(
                    "row arity {} != {} for table {}",
                    row.len(),
                    width,
                    desc.name
                )));
            }
            let part = match &desc.partitioning {
                Some(p) => {
                    let v = row[p.column].as_i64().ok_or_else(|| {
                        OrcaError::Execution(format!("non-integer partition key in {}", desc.name))
                    })?;
                    p.part_for_value(v).ok_or_else(|| {
                        OrcaError::Execution(format!(
                            "value {v} outside partition bounds of {}",
                            desc.name
                        ))
                    })?
                }
                None => 0,
            };
            match &desc.distribution {
                Distribution::Hashed(cols) => {
                    let key: Vec<Datum> = cols.iter().map(|c| row[*c].clone()).collect();
                    let s = segment_for_key(&key, num_segments);
                    buckets[s][part].push(row);
                }
                Distribution::Random => {
                    // Deterministic round-robin on a content hash.
                    let s = segment_for_key(&row, num_segments);
                    buckets[s][part].push(row);
                }
                Distribution::Replicated => buckets[0][part].push(row),
                Distribution::Singleton => buckets[0][part].push(row),
            }
        }
        let mut chunks: Vec<Vec<Vec<Arc<ColumnChunk>>>> = buckets
            .iter()
            .map(|parts| {
                parts
                    .iter()
                    .map(|rows| build_chunks(rows, width, chunk_rows))
                    .collect()
            })
            .collect();
        if replicated {
            // Every segment shares the same Arc'd chunks: one physical
            // copy of the data regardless of cluster size.
            let shared = chunks[0].clone();
            chunks = (0..num_segments).map(|_| shared.clone()).collect();
        }
        Ok(SegmentedTable { desc, chunks })
    }

    /// The chunks of the selected partitions on one segment, in scan
    /// order (partitions in the order given, chunks in row order).
    pub fn part_chunks(
        &self,
        segment: usize,
        parts: &Option<Vec<usize>>,
    ) -> Vec<&Arc<ColumnChunk>> {
        let buckets = &self.chunks[segment];
        match parts {
            None => buckets.iter().flatten().collect(),
            Some(ps) => ps
                .iter()
                .filter_map(|p| buckets.get(*p))
                .flatten()
                .collect(),
        }
    }

    /// Rows of the selected partitions on one segment (the row-kernel
    /// oracle's view, materialized cell by cell from the chunks).
    pub fn scan(&self, segment: usize, parts: &Option<Vec<usize>>) -> Vec<Row> {
        let mut out = Vec::new();
        for chunk in self.part_chunks(segment, parts) {
            chunk.data.to_rows(&mut out);
        }
        out
    }

    pub fn total_rows(&self) -> usize {
        self.chunks
            .iter()
            .map(|s| s.iter().flatten().map(|c| c.data.len).sum::<usize>())
            .sum()
    }

    /// All rows regardless of placement (reference-executor view).
    pub fn all_rows(&self, parts: &Option<Vec<usize>>) -> Vec<Row> {
        // Replicated tables share one copy across segments; read segment 0.
        if self.desc.distribution == Distribution::Replicated {
            return self.scan(0, parts);
        }
        (0..self.chunks.len())
            .flat_map(|s| self.scan(s, parts))
            .collect()
    }
}

/// All loaded tables, addressable by MdId.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: FnvHashMap<MdId, SegmentedTable>,
    pub cluster: SegmentConfig,
}

impl Database {
    pub fn new(cluster: SegmentConfig) -> Database {
        Database {
            tables: FnvHashMap::default(),
            cluster,
        }
    }

    pub fn load_table(&mut self, desc: Arc<TableDesc>, rows: Vec<Row>) -> Result<()> {
        let chunk_rows = self.cluster.batch_size.clamp(1, MAX_CHUNK_ROWS);
        let t = SegmentedTable::load_chunked(
            desc.clone(),
            rows,
            self.cluster.num_segments,
            chunk_rows,
        )?;
        self.tables.insert(desc.mdid, t);
        Ok(())
    }

    pub fn table(&self, mdid: MdId) -> Result<&SegmentedTable> {
        self.tables
            .get(&mdid)
            .ok_or_else(|| OrcaError::Execution(format!("table {mdid} not loaded")))
    }

    pub fn num_segments(&self) -> usize {
        self.cluster.num_segments
    }
}

/// True when `col`'s zone map proves a comparison `col <op> lit` (after
/// commuting the literal to the right) can never be TRUE for any row of
/// the chunk — the chunk-skip test of the fused filter path. `lit` may
/// be NULL or of a different comparison class; both prune, matching the
/// three-valued logic of `sql_cmp`-based evaluation.
pub fn zone_prunes_cmp(zone: &ZoneMap, op: orca_expr::CmpOp, lit: &Datum, rows: usize) -> bool {
    use orca_expr::CmpOp;
    // Every row NULL → every comparison NULL → never TRUE.
    if zone.null_count == rows {
        return true;
    }
    // NULL literal → comparison NULL on every row.
    if lit.is_null() {
        return true;
    }
    let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
        return false;
    };
    let lv = ValRef::of(lit);
    let (Some(cmin), Some(cmax)) = (lv.sql_cmp(&ValRef::of(min)), lv.sql_cmp(&ValRef::of(max)))
    else {
        // min/max comparable among themselves but not with the literal
        // ⇒ the literal's class differs from every non-null value's ⇒
        // every comparison is NULL.
        return true;
    };
    match op {
        CmpOp::Eq => cmin == Ordering::Less || cmax == Ordering::Greater,
        // col < lit needs min < lit.
        CmpOp::Lt => cmin != Ordering::Greater,
        // col <= lit needs min <= lit.
        CmpOp::Le => cmin == Ordering::Less,
        // col > lit needs max > lit.
        CmpOp::Gt => cmax != Ordering::Less,
        // col >= lit needs max >= lit.
        CmpOp::Ge => cmax == Ordering::Greater,
        // col != lit can only be all-false when min == lit == max.
        CmpOp::Ne => cmin == Ordering::Equal && cmax == Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_catalog::{ColumnMeta, Partitioning};
    use orca_common::{DataType, SysId};

    fn desc(dist: Distribution) -> Arc<TableDesc> {
        Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 1, 1),
            "t",
            vec![
                ColumnMeta::new("k", DataType::Int),
                ColumnMeta::new("v", DataType::Int),
            ],
            dist,
        ))
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Datum::Int(i), Datum::Int(i * 10)])
            .collect()
    }

    #[test]
    fn hashed_load_places_equal_keys_together() {
        let t = SegmentedTable::load(desc(Distribution::Hashed(vec![0])), rows(100), 4).unwrap();
        assert_eq!(t.total_rows(), 100);
        // Same key, different tables → same segment (co-location).
        let t2 = SegmentedTable::load(desc(Distribution::Hashed(vec![0])), rows(100), 4).unwrap();
        for s in 0..4 {
            let keys1: Vec<i64> = t
                .scan(s, &None)
                .iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect();
            let keys2: Vec<i64> = t2
                .scan(s, &None)
                .iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect();
            assert_eq!(keys1, keys2);
        }
    }

    #[test]
    fn replicated_gives_every_segment_a_copy() {
        let t = SegmentedTable::load(desc(Distribution::Replicated), rows(10), 3).unwrap();
        for s in 0..3 {
            assert_eq!(t.scan(s, &None).len(), 10);
        }
        // all_rows must not triple-count.
        assert_eq!(t.all_rows(&None).len(), 10);
        // The segments share chunk storage, not copies.
        let c0 = t.part_chunks(0, &None);
        let c2 = t.part_chunks(2, &None);
        assert!(Arc::ptr_eq(c0[0], c2[0]));
    }

    #[test]
    fn singleton_lands_on_master_segment() {
        let t = SegmentedTable::load(desc(Distribution::Singleton), rows(5), 4).unwrap();
        assert_eq!(t.scan(0, &None).len(), 5);
        for s in 1..4 {
            assert!(t.scan(s, &None).is_empty());
        }
    }

    #[test]
    fn partition_buckets_and_pruned_scan() {
        let d = Arc::new(
            TableDesc::new(
                MdId::new(SysId::Gpdb, 2, 1),
                "p",
                vec![
                    ColumnMeta::new("k", DataType::Int),
                    ColumnMeta::new("v", DataType::Int),
                ],
                Distribution::Hashed(vec![1]),
            )
            .with_partitioning(Partitioning::range(0, 0, 100, 4)),
        );
        let t = SegmentedTable::load(d, rows(100), 2).unwrap();
        // Partition 1 = keys 25..50.
        let p1: Vec<Row> = (0..2).flat_map(|s| t.scan(s, &Some(vec![1]))).collect();
        assert_eq!(p1.len(), 25);
        assert!(p1.iter().all(|r| {
            let k = r[0].as_i64().unwrap();
            (25..50).contains(&k)
        }));
        // Out-of-bounds value errors.
        let d2 = t.desc.clone();
        assert!(SegmentedTable::load(d2, vec![vec![Datum::Int(500), Datum::Int(0)]], 2).is_err());
    }

    #[test]
    fn database_lookup() {
        let mut db = Database::new(SegmentConfig::default().with_segments(2));
        let d = desc(Distribution::Random);
        db.load_table(d.clone(), rows(7)).unwrap();
        assert_eq!(db.table(d.mdid).unwrap().total_rows(), 7);
        assert!(db.table(MdId::new(SysId::Gpdb, 99, 1)).is_err());
        // Arity mismatch rejected.
        let mut db2 = Database::new(SegmentConfig::default());
        assert!(db2
            .load_table(desc(Distribution::Random), vec![vec![Datum::Int(1)]])
            .is_err());
    }

    #[test]
    fn chunks_carry_zone_maps_and_dicts() {
        let d = Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 3, 1),
            "z",
            vec![
                ColumnMeta::new("k", DataType::Int),
                ColumnMeta::new("s", DataType::Str),
            ],
            Distribution::Singleton,
        ));
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                vec![
                    if i == 3 { Datum::Null } else { Datum::Int(i) },
                    Datum::Str(["b", "a", "c"][i as usize % 3].to_string()),
                ]
            })
            .collect();
        let t = SegmentedTable::load_chunked(d, rows.clone(), 1, 4).unwrap();
        let chunks = t.part_chunks(0, &None);
        assert_eq!(chunks.len(), 3, "10 rows at 4/chunk");
        // First chunk: ints 0,1,2,NULL → min 0, max 2, one null.
        let z = &chunks[0].zones[0];
        assert_eq!(z.min, Some(Datum::Int(0)));
        assert_eq!(z.max, Some(Datum::Int(2)));
        assert_eq!(z.null_count, 1);
        // String column is dictionary-encoded with a sorted dict.
        let (codes, dict, _) = chunks[0].data.cols[1].dict_parts().expect("dict-encoded");
        assert_eq!(dict, ["a", "b", "c"]);
        assert_eq!(codes, [1u32, 0, 2, 1]);
        // Zone map of the dict column spans the dict.
        assert_eq!(chunks[0].zones[1].min, Some(Datum::Str("a".into())));
        assert_eq!(chunks[0].zones[1].max, Some(Datum::Str("c".into())));
        // Round trip through the row view is exact.
        assert_eq!(format!("{:?}", t.scan(0, &None)), format!("{rows:?}"));
    }

    #[test]
    fn zone_pruning_rules() {
        use orca_expr::CmpOp;
        let zone = ZoneMap {
            min: Some(Datum::Int(10)),
            max: Some(Datum::Int(20)),
            null_count: 0,
        };
        let rows = 5;
        // Eq outside [10, 20] prunes; inside does not.
        assert!(zone_prunes_cmp(&zone, CmpOp::Eq, &Datum::Int(9), rows));
        assert!(zone_prunes_cmp(&zone, CmpOp::Eq, &Datum::Int(21), rows));
        assert!(!zone_prunes_cmp(&zone, CmpOp::Eq, &Datum::Int(15), rows));
        // col < 10 and col <= 9 prune; col < 11 does not.
        assert!(zone_prunes_cmp(&zone, CmpOp::Lt, &Datum::Int(10), rows));
        assert!(zone_prunes_cmp(&zone, CmpOp::Le, &Datum::Int(9), rows));
        assert!(!zone_prunes_cmp(&zone, CmpOp::Lt, &Datum::Int(11), rows));
        // col > 20 and col >= 21 prune.
        assert!(zone_prunes_cmp(&zone, CmpOp::Gt, &Datum::Int(20), rows));
        assert!(zone_prunes_cmp(&zone, CmpOp::Ge, &Datum::Int(21), rows));
        assert!(!zone_prunes_cmp(&zone, CmpOp::Ge, &Datum::Int(20), rows));
        // Ne prunes only a constant chunk.
        let konst = ZoneMap {
            min: Some(Datum::Int(7)),
            max: Some(Datum::Int(7)),
            null_count: 0,
        };
        assert!(zone_prunes_cmp(&konst, CmpOp::Ne, &Datum::Int(7), rows));
        assert!(!zone_prunes_cmp(&zone, CmpOp::Ne, &Datum::Int(7), rows));
        // NULL literal and class mismatches prune (all-NULL predicate).
        assert!(zone_prunes_cmp(&zone, CmpOp::Eq, &Datum::Null, rows));
        assert!(zone_prunes_cmp(
            &zone,
            CmpOp::Lt,
            &Datum::Str("x".into()),
            rows
        ));
        // All-null chunk prunes any comparison.
        let nulls = ZoneMap {
            min: None,
            max: None,
            null_count: rows,
        };
        assert!(zone_prunes_cmp(&nulls, CmpOp::Eq, &Datum::Int(1), rows));
        // Unknown zones (incomparable values) never prune.
        let unk = ZoneMap {
            min: None,
            max: None,
            null_count: 0,
        };
        assert!(!zone_prunes_cmp(&unk, CmpOp::Eq, &Datum::Int(1), rows));
    }
}
