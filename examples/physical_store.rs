//! The physical storage substrate: on-disk partitions, metadata-pruned
//! scans through a buffer pool, and a real reorganization — the machinery
//! behind Table I.
//!
//! ```text
//! cargo run --release --example physical_store
//! ```
//!
//! Persists a telemetry-shaped table as a `TieredStore` generation
//! partitioned by arrival time, runs pruned pooled scans, then physically
//! reorganizes to a collector-major Qd-tree layout (reopen from disk →
//! re-route → regroup → publish the next generation) and shows how the
//! same queries' I/O changes.

use oreo::layout::{build_exact_model, LayoutSpec, QdTreeBuilder};
use oreo::prelude::*;
use oreo::storage::concat_tables;
use std::sync::Arc;
use std::time::Instant;

/// Run each query through a cold buffer pool and report what it read.
fn report(
    label: &str,
    snapshot: &TableSnapshot,
    queries: &[(&str, &Query)],
) -> oreo::storage::Result<()> {
    for (name, q) in queries {
        let pool = BufferPool::new(BufferPoolConfig::default());
        let scan = snapshot.scan_pooled(&q.predicate, &pool)?;
        println!(
            "[{label}] {name}: read {}/{} partitions ({:.1} kB from disk), {} rows matched",
            scan.partitions_read,
            scan.partitions_total,
            scan.io_cold_bytes as f64 / 1e3,
            scan.matches.len()
        );
    }
    Ok(())
}

fn main() -> oreo::storage::Result<()> {
    let bundle = oreo::workload::telemetry_bundle(60_000, 3);
    let table = &bundle.table;
    let k = 16;

    // initial on-disk layout: range partitions on arrival_time
    let by_time = RangeLayout::from_sample(table, 0, k);
    let root = std::env::temp_dir().join(format!("oreo-example-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let t0 = Instant::now();
    let mut initial = TableSnapshot::build(table, &by_time.assign(table), k, 0, "by-time");
    let (store, receipt) = TieredStore::create(&root, &mut initial)?;
    println!(
        "wrote {} partitions, {:.1} MB compressed, in {:?}",
        initial.num_partitions(),
        receipt.bytes_written as f64 / 1e6,
        t0.elapsed()
    );

    // two queries from the production mix
    let schema = table.schema();
    let day = 24 * 3600;
    let time_q = QueryBuilder::new(schema)
        .between("arrival_time", 30 * day, 33 * day)
        .build();
    let collector_q = QueryBuilder::new(schema)
        .eq("collector", "collector-001")
        .build();
    let queries = [
        ("3-day time range", &time_q),
        ("collector filter", &collector_q),
    ];
    report("by-time layout", &initial, &queries)?;
    drop((initial, store));

    // physically reorganize to a Qd-tree optimized for collector queries
    let workload: Vec<Query> = (0..50)
        .map(|i| {
            QueryBuilder::new(schema)
                .eq("collector", format!("collector-{:03}", i % 8).as_str())
                .build()
        })
        .collect();
    let tree = QdTreeBuilder::new(k).build(table, &workload);
    let t0 = Instant::now();
    let (store, on_disk, _) = TieredStore::open(&root, schema)?;
    let parts: Vec<_> = on_disk
        .partitions()
        .iter()
        .map(|p| Arc::clone(&p.data))
        .collect();
    let data = concat_tables(schema, &parts)?;
    let rows: Vec<u32> = on_disk
        .partitions()
        .iter()
        .flat_map(|p| p.rows.iter().copied())
        .collect();
    let assignment: Vec<u32> = (0..data.num_rows()).map(|r| tree.route(&data, r)).collect();
    let mut next =
        TableSnapshot::build_with_rows(&data, &rows, &assignment, tree.k(), 1, tree.describe());
    store.publish(&mut next)?;
    println!(
        "\nphysical reorganization to {} took {:?} (read → re-route → regroup → compress + write)",
        tree.describe(),
        t0.elapsed()
    );
    report("qd-tree layout", &next, &queries)?;

    // the logical cost model agrees with what the physical scans did
    let model = build_exact_model(&tree, 1, table);
    println!(
        "\nlogical cost model: collector query reads {:.1}% of rows on the new layout",
        model.cost(&collector_q) * 100.0
    );

    drop((parts, on_disk, next, store));
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
