//! Measuring α on your own hardware, then configuring OREO with it — the
//! deployment workflow the paper prescribes (§VI-D1: "users can measure
//! typical values of α based on their system configuration to provide as
//! inputs to OREO").
//!
//! ```text
//! cargo run --release --example measure_alpha
//! ```
//!
//! Persists the table as an on-disk generation, times a full-scan query
//! (a cold pooled scan) versus a physical reorganization (reopen from disk
//! → re-route → regroup → compress + write + sync), and runs the framework
//! with the measured ratio as its α.

use oreo::layout::LayoutSpec;
use oreo::prelude::*;
use oreo::sim::{run_policy, PolicySetup, Technique};
use oreo::storage::concat_tables;
use std::sync::Arc;
use std::time::Instant;

fn main() -> oreo::storage::Result<()> {
    // 1. Persist a TPC-H-shaped table as the store's first generation.
    let bundle = oreo::workload::tpch_bundle(120_000, 7);
    let table = &bundle.table;
    let schema = table.schema();
    let k = 16;
    let by_key = RangeLayout::from_sample(table, bundle.default_sort_col, k);
    let root = std::env::temp_dir().join(format!("oreo-measure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut initial = TableSnapshot::build(table, &by_key.assign(table), k, 0, "by-key");
    let (store, _) = TieredStore::create(&root, &mut initial)?;
    println!(
        "store: {} partitions, {:.1} MB on disk",
        initial.num_partitions(),
        initial.total_bytes() as f64 / 1e6
    );

    // 2. Measure the scan/reorganization ratio (Table I's methodology). The
    //    full scan reads column 0 through a cold buffer pool: an always-true
    //    atom, because the empty predicate needs no column at all.
    let full = QueryBuilder::new(schema)
        .ge("l_orderkey", i64::MIN)
        .build_predicate();
    let mut scan = 0.0;
    for _ in 0..3 {
        let pool = BufferPool::new(BufferPoolConfig::default());
        let t0 = Instant::now();
        initial.scan_pooled(&full, &pool)?;
        scan += t0.elapsed().as_secs_f64() / 3.0;
    }
    drop((initial, store));

    let ship = schema.col("l_shipdate").expect("shipdate");
    let by_ship = RangeLayout::from_sample(table, ship, k);
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
    let assignment: Vec<u32> = (0..data.num_rows())
        .map(|r| by_ship.route(&data, r))
        .collect();
    let mut next = TableSnapshot::build_with_rows(&data, &rows, &assignment, k, 1, "by-ship");
    store.publish(&mut next)?;
    let reorg = t0.elapsed().as_secs_f64();
    let alpha = (reorg / scan).max(1.0);
    println!("measured: full scan {scan:.4}s, reorganization {reorg:.3}s → α ≈ {alpha:.0}");
    drop((parts, on_disk, next, store));
    std::fs::remove_dir_all(&root)?;

    // 3. Run OREO with the measured α against the do-nothing default.
    let stream = bundle.stream(StreamConfig {
        total_queries: 3_000,
        segments: 6,
        seed: 5,
        ..Default::default()
    });
    let config = OreoConfig {
        alpha,
        partitions: 32,
        data_sample_rows: 4_000,
        ..Default::default()
    };
    let setup = PolicySetup::new(bundle.clone(), Technique::QdTree, config);
    let mut oreo = setup.oreo();
    let r = run_policy(&mut oreo, &stream.queries, 0);
    println!(
        "\nOREO with measured α: query {:.0} + reorg {:.0} = {:.0} logical scans \
         ({} reorganizations over {} queries)",
        r.ledger.query_cost,
        r.ledger.reorg_cost,
        r.total(),
        r.switches,
        r.ledger.queries
    );
    println!(
        "equivalent wall-time estimate: {:.1}s query + {:.1}s reorg",
        r.ledger.query_cost * scan,
        r.switches as f64 * reorg
    );
    Ok(())
}
