//! The cost model is the physical truth: for any layout and query, the
//! *fraction of rows* the logical model predicts equals what a pooled scan
//! of the on-disk generation actually reads under metadata pruning — the
//! property that makes simulation results transfer to the physical
//! substrate.

use oreo::layout::{build_exact_model, LayoutSpec, QdTreeBuilder, RangeLayout, ZOrderLayout};
use oreo::prelude::*;
use oreo::storage::{concat_tables, SnapshotScan};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmproot(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "oreo-it-{}-{}-{}",
        tag,
        std::process::id(),
        rand::random::<u32>()
    ))
}

/// Persist `table` under `assignment` as a fresh store's first generation.
fn persist(
    root: &Path,
    table: &Table,
    assignment: &[u32],
    k: usize,
) -> (TieredStore, TableSnapshot) {
    let mut snapshot = TableSnapshot::build(table, assignment, k, 0, "initial");
    let (store, _) = TieredStore::create(root, &mut snapshot).unwrap();
    (store, snapshot)
}

/// One pooled scan through a cold buffer pool.
fn pooled(snapshot: &TableSnapshot, predicate: &Predicate) -> SnapshotScan {
    let pool = BufferPool::new(BufferPoolConfig::default());
    snapshot.scan_pooled(predicate, &pool).unwrap()
}

#[test]
fn logical_cost_equals_physical_rows_read() {
    let bundle = oreo::workload::tpch_bundle(8_000, 1);
    let table = &bundle.table;
    let stream = bundle.stream(StreamConfig {
        total_queries: 40,
        segments: 4,
        seed: 2,
        ..Default::default()
    });

    let specs: Vec<(&str, Box<dyn LayoutSpec>)> = vec![
        ("range", Box::new(RangeLayout::from_sample(table, 0, 8))),
        (
            "zorder",
            Box::new(ZOrderLayout::from_sample(
                table,
                &[table.schema().col("l_shipdate").unwrap(), 4],
                8,
                8,
            )),
        ),
        (
            "qdtree",
            Box::new(QdTreeBuilder::new(8).build(table, &stream.queries)),
        ),
    ];

    for (name, spec) in specs {
        let root = tmproot(name);
        let (store, snapshot) = persist(&root, table, &spec.assign(table), spec.k());
        let model = build_exact_model(spec.as_ref(), 0, table);

        for q in stream.queries.iter().take(12) {
            let scan = pooled(&snapshot, &q.predicate);
            let physical_fraction = scan.rows_read as f64 / table.num_rows() as f64;
            let logical = model.cost(q);
            assert!(
                (physical_fraction - logical).abs() < 1e-9,
                "{name}: physical {physical_fraction} != logical {logical} for {:?}",
                q.predicate
            );
        }
        drop((store, snapshot));
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn matched_rows_are_identical_across_layouts() {
    // Reorganization must never change query *results* — only I/O. The
    // set of matching rows is layout-invariant.
    let bundle = oreo::workload::telemetry_bundle(5_000, 2);
    let table = &bundle.table;
    let stream = bundle.stream(StreamConfig {
        total_queries: 20,
        segments: 2,
        seed: 3,
        ..Default::default()
    });

    let by_time = RangeLayout::from_sample(table, 0, 6);
    let tree = QdTreeBuilder::new(6).build(table, &stream.queries);

    let root_a = tmproot("layout-a");
    let root_b = tmproot("layout-b");
    let (store_a, snap_a) = persist(&root_a, table, &by_time.assign(table), by_time.k());
    let (store_b, snap_b) = persist(&root_b, table, &tree.assign(table), tree.k());

    for q in &stream.queries {
        let a = pooled(&snap_a, &q.predicate);
        let b = pooled(&snap_b, &q.predicate);
        assert_eq!(
            a.matches, b.matches,
            "layouts disagree on results for {:?}",
            q.predicate
        );
        // and both agree with the in-memory ground truth
        let truth = (table.selectivity(&q.predicate) * table.num_rows() as f64).round() as usize;
        assert_eq!(a.matches.len(), truth);
    }
    drop((store_a, snap_a, store_b, snap_b));
    std::fs::remove_dir_all(&root_a).unwrap();
    std::fs::remove_dir_all(&root_b).unwrap();
}

#[test]
fn physical_reorganization_preserves_content() {
    let bundle = oreo::workload::tpcds_bundle(4_000, 5);
    let table = &bundle.table;
    let schema = table.schema();
    let by_ticket = RangeLayout::from_sample(table, 0, 5);
    let root = tmproot("content");
    let (store, snapshot) = persist(&root, table, &by_ticket.assign(table), 5);
    drop((store, snapshot));

    let stream = bundle.stream(StreamConfig {
        total_queries: 30,
        segments: 3,
        seed: 6,
        ..Default::default()
    });
    let tree = QdTreeBuilder::new(8).build(table, &stream.queries);

    // The rewrite: read the generation back from disk, re-route every row,
    // regroup, and publish the next generation.
    let (store, on_disk, _) = TieredStore::open(&root, schema).unwrap();
    let parts: Vec<_> = on_disk
        .partitions()
        .iter()
        .map(|p| Arc::clone(&p.data))
        .collect();
    let data = concat_tables(schema, &parts).unwrap();
    let rows: Vec<u32> = on_disk
        .partitions()
        .iter()
        .flat_map(|p| p.rows.iter().copied())
        .collect();
    let assignment: Vec<u32> = (0..data.num_rows()).map(|r| tree.route(&data, r)).collect();
    let mut next = TableSnapshot::build_with_rows(&data, &rows, &assignment, tree.k(), 1, "qd");
    store.publish(&mut next).unwrap();
    drop((parts, on_disk, next, store));

    // Reopen the rewritten generation: same multiset of ticket numbers (the
    // unique key), and a pooled full scan still sees every row.
    let (store, back, report) = TieredStore::open(&root, schema).unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(back.num_partitions(), tree.k());
    assert_eq!(back.total_rows(), table.num_rows() as u64);
    let mut original: Vec<i64> = (0..table.num_rows())
        .map(|r| table.scalar(r, 0).as_int().unwrap())
        .collect();
    let mut roundtrip: Vec<i64> = back
        .partitions()
        .iter()
        .flat_map(|p| (0..p.data.num_rows()).map(|r| p.data.scalar(r, 0).as_int().unwrap()))
        .collect();
    original.sort_unstable();
    roundtrip.sort_unstable();
    assert_eq!(original, roundtrip);
    let everything = QueryBuilder::new(schema)
        .ge("ss_ticket_number", i64::MIN)
        .build_predicate();
    assert_eq!(
        pooled(&back, &everything).matches,
        (0..table.num_rows() as u32).collect::<Vec<_>>()
    );

    drop((store, back));
    std::fs::remove_dir_all(&root).unwrap();
}
