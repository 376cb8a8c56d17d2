//! Multi-tenant engine invariants.
//!
//! The load-bearing property of the N-tenant refactor is *per-tenant
//! ledger parity*: serving N tenants interleaved through one engine — one
//! worker pool, one buffer pool, one reorganization scheduler — must
//! produce, for every tenant, a `CostLedger` byte-identical to an
//! independent single-tenant engine run over that tenant's substream
//! alone. The tests here drive interleaved query/ingest/fold streams
//! (randomized and deterministic, memory and tiered+pooled) against that
//! oracle, and a zero-budget starvation test asserts the scheduler's
//! force-admit bound: every tenant's due switch lands within a bounded
//! deferral window even when the α budget admits nothing.

use oreo_core::{CostLedger, OreoConfig};
use oreo_engine::{Engine, EngineConfig, EngineStats, LatencyStats, ReorgBudget, TenantSpec};
use oreo_layout::{LayoutGenerator, RangeLayout, SharedSpec};
use oreo_query::{ColumnType, Query, QueryBuilder, Scalar, Schema};
use oreo_storage::{IngestOp, Table, TableBuilder};
use proptest::prelude::*;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn table(kind: u64, n: i64) -> Arc<Table> {
    let schema = Arc::new(Schema::from_pairs([
        ("ts", ColumnType::Timestamp),
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
    ]));
    let mut b = TableBuilder::new(Arc::clone(&schema));
    for i in 0..n {
        b.push_row(&[
            Scalar::Int(i),
            Scalar::Int((i * (7 + kind as i64)) % 1000),
            Scalar::Int((i * (13 + kind as i64)) % 1000),
        ]);
    }
    Arc::new(b.finish())
}

fn oreo_config(seed: u64) -> OreoConfig {
    OreoConfig {
        alpha: 5.0,
        window: 40,
        generation_interval: 40,
        data_sample_rows: 400,
        partitions: 8,
        seed,
        ..Default::default()
    }
}

fn tenant_spec(name: &str, t: &Arc<Table>, oreo: OreoConfig) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        table: Arc::clone(t),
        initial_spec: Arc::new(RangeLayout::from_sample(t, 0, oreo.partitions)),
        generator: Arc::new(oreo_layout::QdTreeGenerator::new()),
        oreo,
    }
}

fn tmproot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "oreo-mt-{tag}-{}-{}",
        std::process::id(),
        rand::random::<u32>()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One step of a tenant's substream.
#[derive(Clone, Debug)]
enum Op {
    Query(Query),
    Ingest(Vec<IngestOp>),
}

/// Drive `script` through `engine` in lockstep: each query completes (and,
/// if it decided a switch, the switch *publishes*) before the next op
/// runs. The quiesce after every decision is what makes fold contents —
/// and therefore compaction charges — deterministic, so the interleaved
/// run is byte-comparable to the per-tenant oracles.
fn drive(engine: &Engine, script: &[(usize, Op)]) {
    let mut switches = 0u64;
    for (tenant, op) in script {
        match op {
            Op::Query(q) => {
                let out = engine.submit_tracked_to(*tenant, q.clone()).wait();
                if out.decision.is_some() {
                    switches += 1;
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while engine.snapshots_published() < switches {
                        assert!(Instant::now() < deadline, "decided switch never published");
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            }
            Op::Ingest(ops) => {
                engine.ingest_to(*tenant, ops).expect("ingest accepted");
            }
        }
    }
}

/// The oracle: the tenant's substream alone, through a fresh single-tenant
/// engine with the same configuration.
fn run_solo(t: &Arc<Table>, oreo: OreoConfig, config: EngineConfig, ops: &[Op]) -> EngineStats {
    let initial = Arc::new(RangeLayout::from_sample(t, 0, oreo.partitions));
    let engine = Engine::start(
        Arc::clone(t),
        initial,
        Arc::new(oreo_layout::QdTreeGenerator::new()),
        oreo,
        config,
    );
    let script: Vec<(usize, Op)> = ops.iter().map(|op| (0, op.clone())).collect();
    drive(&engine, &script);
    engine.drain();
    engine.shutdown()
}

/// Materialize a proptest-generated `(tenant, kind, param)` trace into the
/// interleaved script plus each tenant's substream (identical objects, so
/// any divergence is the engine's, not the generator's).
fn materialize(tables: &[Arc<Table>], trace: &[(u8, u8, u16)]) -> (Vec<(usize, Op)>, Vec<Vec<Op>>) {
    let n = tables.len();
    let mut script = Vec::with_capacity(trace.len());
    let mut per_tenant: Vec<Vec<Op>> = vec![Vec::new(); n];
    let mut query_seq = vec![0u64; n];
    let mut ingest_seq = vec![0i64; n];
    for &(tenant, kind, param) in trace {
        let tenant = tenant as usize % n;
        let op = if kind < 8 {
            let col = if kind % 2 == 0 { "a" } else { "b" };
            let lo = i64::from(param) % 900;
            let q = QueryBuilder::new(tables[tenant].schema())
                .between(col, lo, lo + 60)
                .build()
                .with_seq(query_seq[tenant]);
            query_seq[tenant] += 1;
            Op::Query(q)
        } else {
            // Sentinel appends outside the base domain (a, b < 1000).
            let base = ingest_seq[tenant];
            ingest_seq[tenant] += 3;
            Op::Ingest(
                (base..base + 3)
                    .map(|i| IngestOp::Append {
                        values: vec![
                            Scalar::Int(10_000 + i),
                            Scalar::Int(5_000 + i),
                            Scalar::Int(0),
                        ],
                    })
                    .collect(),
            )
        };
        per_tenant[tenant].push(op.clone());
        script.push((tenant, op));
    }
    (script, per_tenant)
}

/// Assert tenant `i` of the interleaved run matches its solo oracle
/// exactly — ledger byte-for-byte, switch count, and final layouts.
fn assert_tenant_parity(multi: &EngineStats, i: usize, solo: &EngineStats, label: &str) {
    let ten = &multi.tenants[i];
    assert_eq!(
        ten.ledger, solo.ledger,
        "{label}: tenant {i} ledger diverged from its solo run"
    );
    assert_eq!(ten.switches, solo.switches, "{label}: tenant {i} switches");
    assert_eq!(
        ten.final_physical, solo.final_physical,
        "{label}: tenant {i} physical layout"
    );
    assert_eq!(
        ten.final_logical, solo.final_logical,
        "{label}: tenant {i} logical layout"
    );
}

fn parity_case(trace: &[(u8, u8, u16)], tiered: bool) {
    let tables = [table(0, 1200), table(3, 1200)];
    let (script, per_tenant) = materialize(&tables, trace);
    let names = ["alpha", "beta"];
    let (config, root) = if tiered {
        let root = tmproot("parity");
        (EngineConfig::sequential_parity().tiered(&root), Some(root))
    } else {
        (EngineConfig::sequential_parity(), None)
    };
    let specs = (0..2)
        .map(|i| tenant_spec(names[i], &tables[i], oreo_config(17 + i as u64)))
        .collect();
    let engine = Engine::start_tenants(specs, config);
    drive(&engine, &script);
    engine.drain();
    let multi = engine.shutdown();
    assert!(multi.tiered_errors.is_empty(), "{:?}", multi.tiered_errors);
    for i in 0..2 {
        let (solo_cfg, solo_root) = if tiered {
            let r = tmproot(names[i]);
            (EngineConfig::sequential_parity().tiered(&r), Some(r))
        } else {
            (EngineConfig::sequential_parity(), None)
        };
        let solo = run_solo(
            &tables[i],
            oreo_config(17 + i as u64),
            solo_cfg,
            &per_tenant[i],
        );
        assert!(solo.tiered_errors.is_empty(), "{:?}", solo.tiered_errors);
        let label = if tiered { "tiered" } else { "memory" };
        assert_tenant_parity(&multi, i, &solo, label);
        if let Some(r) = solo_root {
            let _ = std::fs::remove_dir_all(r);
        }
    }
    if let Some(r) = root {
        let _ = std::fs::remove_dir_all(r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Random interleavings of two tenants' query/ingest/fold streams:
    /// per-tenant ledgers must be byte-identical to independent
    /// single-tenant runs, in memory serving.
    #[test]
    fn interleaved_tenants_match_solo_runs_memory(
        trace in proptest::collection::vec((0..2u8, 0..10u8, any::<u16>()), 40..90)
    ) {
        parity_case(&trace, false);
    }

    /// The same invariant through the full disk path: tiered stores under
    /// per-tenant subdirectories, scans through the one shared buffer
    /// pool, folds persisting generations.
    #[test]
    fn interleaved_tenants_match_solo_runs_tiered(
        trace in proptest::collection::vec((0..2u8, 0..10u8, any::<u16>()), 30..60)
    ) {
        parity_case(&trace, true);
    }
}

/// Deterministic three-tenant fold parity through tiered+pooled serving,
/// plus the layout/namespace contracts the refactor promises: per-tenant
/// store subdirectories, per-tenant metric namespaces next to intact
/// aggregate series, and per-tenant stats that add up to the fleet's.
#[test]
fn three_tenants_fold_parity_and_namespaces_tiered() {
    let tables = [table(0, 1500), table(2, 1500), table(5, 1500)];
    let names = ["orders", "events", "logs"];
    let root = tmproot("three");
    // A fixed interleave with queries drifting from column a to b (forcing
    // switches + folds) and ingest bursts on every tenant.
    let trace: Vec<(u8, u8, u16)> = (0..240)
        .map(|i| {
            let tenant = (i % 3) as u8;
            let kind = if i % 11 == 7 {
                9 // ingest burst
            } else if i < 120 {
                0 // column a
            } else {
                1 // column b
            };
            (tenant, kind, (i as u16).wrapping_mul(37) % 900)
        })
        .collect();
    let (script, per_tenant) = materialize(&tables, &trace);
    let specs = (0..3)
        .map(|i| tenant_spec(names[i], &tables[i], oreo_config(29 + i as u64)))
        .collect();
    let engine = Engine::start_tenants(specs, EngineConfig::sequential_parity().tiered(&root));
    // Tenant stores live under per-tenant subdirectories of one data dir.
    for name in names {
        assert!(
            root.join(format!("tenant-{name}"))
                .join("gen-000001")
                .exists(),
            "tenant-{name} store not created"
        );
        assert!(
            root.join(format!("tenant-{name}")).join("wal.log").exists(),
            "tenant-{name} WAL not created"
        );
    }
    drive(&engine, &script);
    engine.drain();

    // Per-tenant metric namespaces exist and agree with the aggregates.
    let snap = engine.registry().snapshot();
    let mut per_tenant_completed = 0;
    for i in 0..3 {
        let c = snap
            .counter(&format!("tenant.{i}.engine.queries_completed"))
            .expect("per-tenant series registered");
        assert!(c > 0, "tenant {i} served no queries?");
        per_tenant_completed += c;
    }
    assert_eq!(
        snap.counter("engine.queries_completed"),
        Some(per_tenant_completed),
        "aggregate must equal the sum of tenant series"
    );

    let registry = Arc::clone(engine.registry());
    let multi = engine.shutdown();
    assert!(multi.tiered_errors.is_empty(), "{:?}", multi.tiered_errors);
    assert_eq!(multi.tenants.len(), 3);

    // One source of truth: the fleet's and each tenant's reported counts
    // are their registry series, the fleet gauges sum the tenants', and the
    // fleet ledger is the merge of the tenants' ledgers.
    let snap = registry.snapshot();
    let counter = |prefix: &str, series: &str| snap.counter(&format!("{prefix}{series}"));
    for (reported, series) in [
        (multi.queries, "engine.queries_completed"),
        (multi.switches, "reorg.switches"),
        (multi.snapshots_published, "reorg.snapshots_published"),
        (multi.rows_scanned, "engine.rows_scanned"),
        (multi.rows_matched, "engine.rows_matched"),
        (multi.bytes_scanned, "engine.bytes_scanned"),
        (multi.cold_scans, "engine.cold_scans"),
        (multi.io_cold_bytes, "engine.io_cold_bytes"),
        (multi.io_cached_bytes, "engine.io_cached_bytes"),
        (multi.scan_io_errors, "engine.scan_io_errors"),
        (multi.delta_bytes_scanned, "engine.delta_bytes_scanned"),
        (multi.ingest_batches, "ingest.batches"),
        (multi.rows_appended, "ingest.rows_appended"),
        (multi.rows_deleted, "ingest.rows_deleted"),
        (multi.ingest_rows_written, "ingest.rows_written"),
    ] {
        assert_eq!(Some(reported), counter("", series), "{series}");
    }
    assert!(
        multi.ingest_batches > 0,
        "the trace ingests on every tenant"
    );
    let mut merged = CostLedger::new();
    for (i, ten) in multi.tenants.iter().enumerate() {
        let prefix = format!("tenant.{i}.");
        for (reported, series) in [
            (ten.queries, "engine.queries_completed"),
            (ten.switches, "reorg.switches"),
            (ten.snapshots_published, "reorg.snapshots_published"),
            (ten.io_cold_bytes, "engine.io_cold_bytes"),
            (ten.io_cached_bytes, "engine.io_cached_bytes"),
        ] {
            assert_eq!(Some(reported), counter(&prefix, series), "{prefix}{series}");
        }
        let latency = snap.histogram(&format!("{prefix}engine.latency_us"));
        let latency = LatencyStats::from_stats(&latency.expect("registered"));
        assert_eq!(ten.latency, latency);
        let total = snap.gauge(&format!("{prefix}ledger.total"));
        assert_eq!(Some(ten.ledger.total()), total);
        merged.merge(&ten.ledger);
    }
    assert_eq!(multi.ledger, merged);
    let gauge = |name: &str| snap.gauge(name).expect("registered");
    for (reported, series) in [
        (multi.wal_bytes as f64, "ingest.wal_bytes"),
        (multi.delta_rows as f64, "ingest.delta_rows"),
        (multi.table_bytes as f64, "alpha.table_bytes"),
        (multi.num_states as f64, "core.num_states"),
        (multi.max_states_seen as f64, "core.max_states_seen"),
        (multi.ledger.total(), "ledger.total"),
    ] {
        let tenant_sum: f64 = (0..3).map(|i| gauge(&format!("tenant.{i}.{series}"))).sum();
        assert!((reported - gauge(series)).abs() < 1e-9, "{series}");
        assert_eq!(gauge(series), tenant_sum, "{series}");
    }
    assert_eq!(
        multi.queries,
        multi.tenants.iter().map(|t| t.queries).sum::<u64>()
    );
    assert!(
        multi.tenants.iter().all(|t| t.switches >= 1),
        "every tenant's drift should reorganize: {:?}",
        multi.tenants.iter().map(|t| t.switches).collect::<Vec<_>>()
    );
    // Windows are tagged with their tenant and every tenant shows up.
    for name in names {
        assert!(
            multi.windows.iter().any(|w| w.tenant == name),
            "no window for {name}"
        );
    }
    for i in 0..3 {
        let solo_root = tmproot(names[i]);
        let solo = run_solo(
            &tables[i],
            oreo_config(29 + i as u64),
            EngineConfig::sequential_parity().tiered(&solo_root),
            &per_tenant[i],
        );
        assert_tenant_parity(&multi, i, &solo, "three-tenant tiered");
        let _ = std::fs::remove_dir_all(solo_root);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A single-tenant engine must not grow tenant-namespaced series — PR 8's
/// registry schema is frozen for the N = 1 case.
#[test]
fn single_tenant_registry_schema_is_unchanged() {
    let t = table(0, 800);
    let engine = Engine::start(
        Arc::clone(&t),
        Arc::new(RangeLayout::from_sample(&t, 0, 8)),
        Arc::new(oreo_layout::QdTreeGenerator::new()),
        oreo_config(1),
        EngineConfig::sequential_parity(),
    );
    for i in 0..50i64 {
        let q = QueryBuilder::new(t.schema())
            .between("a", (i * 11) % 800, (i * 11) % 800 + 40)
            .build();
        engine.submit(q);
    }
    engine.drain();
    let snap = engine.registry().snapshot();
    assert_eq!(snap.counter("engine.queries_completed"), Some(50));
    assert_eq!(
        snap.counter("tenant.0.engine.queries_completed"),
        None,
        "single-tenant runs must not register tenant namespaces"
    );
    let stats = engine.shutdown();
    assert_eq!(stats.tenants.len(), 1);
    assert_eq!(stats.tenants[0].name, "default");
    assert_eq!(stats.tenants[0].queries, 50);
    assert_eq!(stats.tenants[0].ledger, stats.ledger);
}

/// Starvation freedom under a zero α budget: nothing is admissible on
/// budget alone, so *every* switch must land through the force-admit
/// bound. Each tenant's due switches all publish, deferral is observed
/// and recorded, and no window's deferral exceeds the configured bound
/// plus bounded scheduling slack.
#[test]
fn zero_budget_scheduler_never_starves_a_tenant() {
    let tables = [table(0, 1500), table(4, 1500)];
    let names = ["aggressor", "victim"];
    const PER_TENANT: u64 = 700;
    const MAX_DEFER: u64 = 150;
    let specs = (0..2)
        .map(|i| tenant_spec(names[i], &tables[i], oreo_config(43 + i as u64)))
        .collect();
    let engine = Engine::start_tenants(
        specs,
        EngineConfig::sequential_parity().with_budget(ReorgBudget {
            fraction: 0.0,
            burst: 0.0,
            max_defer_queries: MAX_DEFER,
        }),
    );
    // Both tenants drift a → b so both *need* switches; the zero budget
    // defers every one of them until the force-admit clock fires.
    for i in 0..PER_TENANT {
        for (tenant, t) in tables.iter().enumerate() {
            let col = if i < PER_TENANT / 2 { "a" } else { "b" };
            let lo = ((i * 37) % 900) as i64;
            let q = QueryBuilder::new(t.schema())
                .between(col, lo, lo + 60)
                .build();
            // Tracked waits keep the observed clock moving at query
            // granularity, so deferral windows are measured tightly.
            engine.submit_tracked_to(tenant, q).wait();
        }
    }
    engine.drain();
    let stats = engine.shutdown();
    let total_observed = 2 * PER_TENANT;
    assert!(stats.reorg_budget_spent > 0.0, "switches were admitted");
    for ten in &stats.tenants {
        assert!(ten.switches >= 1, "{} never reorganized", ten.name);
        assert_eq!(
            ten.snapshots_published, ten.switches,
            "{}: a due switch never landed",
            ten.name
        );
    }
    assert!(
        stats.tenants.iter().map(|t| t.reorg_deferrals).sum::<u64>() >= 1,
        "a zero budget must actually defer"
    );
    // The deferral window is bounded: force-admit fires MAX_DEFER steps
    // after the decision; the admitted build may then wait behind a
    // bounded number of in-flight builds, never until end-of-stream.
    let slack = total_observed / 2;
    for w in &stats.windows {
        assert!(
            w.deferred_queries <= MAX_DEFER + slack,
            "window for {} deferred {} queries (bound {})",
            w.tenant,
            w.deferred_queries,
            MAX_DEFER + slack
        );
    }
    // And the recorded per-tenant maximum agrees with the windows.
    for ten in &stats.tenants {
        let max_in_windows = stats
            .windows
            .iter()
            .filter(|w| w.tenant == ten.name)
            .map(|w| w.deferred_queries)
            .max()
            .unwrap_or(0);
        assert_eq!(ten.max_deferred_queries, max_in_windows, "{}", ten.name);
    }
}

/// A candidate generator whose first call after `park` is filled parks:
/// it reports on the slot's sender, then waits until its receiver's sender
/// (the test's `release`) sends or is dropped.
struct ParkingGenerator {
    inner: oreo_layout::QdTreeGenerator,
    park: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl LayoutGenerator for ParkingGenerator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate(
        &self,
        sample: &Table,
        workload: &[Query],
        k: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> SharedSpec {
        let park = self.park.lock().expect("park slot poisoned").take();
        if let Some((parked, release)) = park {
            let _ = parked.send(());
            let _ = release.recv();
        }
        self.inner.generate(sample, workload, k, rng)
    }
}

/// Each tenant's OREO sits behind its own lock: while tenant 0's candidate
/// generation is parked (holding tenant 0's lock on one worker), tenant 1's
/// queries complete on the other worker and an ingest into tenant 1 that
/// charges compaction returns.
#[test]
fn one_tenants_candidate_generation_never_stalls_another() {
    let tables = [table(0, 1500), table(1, 1500)];
    let generator = Arc::new(ParkingGenerator {
        inner: oreo_layout::QdTreeGenerator::new(),
        park: Mutex::new(None),
    });
    let mut specs = vec![
        tenant_spec("parked", &tables[0], oreo_config(61)),
        tenant_spec("free", &tables[1], oreo_config(62)),
    ];
    specs[0].generator = Arc::clone(&generator) as Arc<dyn LayoutGenerator>;
    let engine = Engine::start_tenants(specs, EngineConfig::default().with_workers(2));
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    *generator.park.lock().expect("park slot poisoned") = Some((parked_tx, release_rx));
    let query = |tenant: usize, i: i64| {
        let lo = (i * 37) % 900;
        QueryBuilder::new(tables[tenant].schema())
            .between("a", lo, lo + 60)
            .build()
    };
    let (engine_ref, query) = (&engine, &query);
    let finished = std::thread::scope(|scope| {
        // Dropped on every exit from this closure, before the scope joins
        // its threads, so a failed assertion cannot leave a worker parked.
        let _release = release;
        // Tenant 0 runs in lockstep, so none of its queries sits queued for
        // the free worker to pick up.
        scope.spawn(|| {
            for i in 0..200 {
                engine_ref.submit_tracked_to(0, query(0, i)).wait();
            }
        });
        parked
            .recv_timeout(Duration::from_secs(60))
            .expect("tenant 0 never generated candidates");
        let (done, finished) = mpsc::channel();
        scope.spawn(move || {
            for i in 0..20 {
                engine_ref.submit_tracked_to(1, query(1, i)).wait();
            }
            let appends: Vec<IngestOp> = (0..3)
                .map(|i| IngestOp::Append {
                    values: vec![Scalar::Int(10_000 + i), Scalar::Int(i), Scalar::Int(0)],
                })
                .collect();
            let _ = done.send(engine_ref.ingest_to(1, &appends).expect("ingest accepted"));
        });
        finished.recv_timeout(Duration::from_secs(20))
    });
    let receipt = finished.expect("tenant 1 stalled behind tenant 0's candidate generation");
    assert!(receipt.rows_written > 0, "the batch must charge compaction");
    engine.drain();
    let stats = engine.shutdown();
    assert_eq!(stats.tenants[1].queries, 20);
    assert!(stats.tenants[1].ledger.compactions >= 1);
}
