//! The traced run's harness-side spans: a timing wrapper around the
//! candidate generator, the single-threaded layer replay, and the WAL
//! append timing. All spans are recorded around calls into public
//! functions; nothing inside the program is instrumented, so lock waits
//! inside the engine are not visible here.

use crate::report::{percentile, ratio};
use crate::workloads::{Inputs, Op};
use oreo_core::Oreo;
use oreo_engine::materialize;
use oreo_layout::{LayoutGenerator, QdTreeGenerator, SharedSpec};
use oreo_query::Query;
use oreo_sim::{default_spec, run_policy, OreoPolicy};
use oreo_storage::{
    BufferPool, BufferPoolConfig, LayoutId, Table, TableSnapshot, TieredStore, Wal,
};
use rand::rngs::StdRng;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A closed span: `name` ran from `start` to `end` for request `id`, on
/// behalf of the span named `parent` (empty for a root).
pub struct Span {
    /// Which trace the span belongs to (`engine`, `replay`, `wal`).
    pub trace: &'static str,
    /// Request id: the query's position in the due-ordered schedule, or
    /// the batch number.
    pub id: u64,
    /// Layer boundary name.
    pub name: &'static str,
    /// Enclosing span's name.
    pub parent: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
}

/// Spans of a traced run, kept in memory and written out at the end.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record one span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Write the spans as JSON lines (times in µs from the origin).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":\"{}\",\"id\":{},\"name\":\"{}\",\"parent\":\"{}\",\
                 \"start_us\":{},\"end_us\":{}}}",
                s.trace,
                s.id,
                s.name,
                s.parent,
                s.start.saturating_duration_since(self.origin).as_micros(),
                s.end.saturating_duration_since(self.origin).as_micros(),
            )?;
        }
        out.flush()
    }
}

/// The candidate generator handed to the engine, timed: every
/// `LayoutGenerator::generate` call is recorded as a (start, end) pair.
pub struct TimedGenerator {
    inner: QdTreeGenerator,
    calls: Mutex<Vec<(Instant, Instant)>>,
}

impl TimedGenerator {
    /// Wrap the generator `oreo-sim` uses for the telemetry data.
    pub fn new() -> Self {
        Self {
            inner: QdTreeGenerator::new(),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Take the calls recorded so far.
    pub fn take(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.calls.lock().expect("generator spans poisoned"))
    }
}

impl LayoutGenerator for TimedGenerator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate(
        &self,
        sample: &Table,
        workload: &[Query],
        k: usize,
        rng: &mut StdRng,
    ) -> SharedSpec {
        let start = Instant::now();
        let spec = self.inner.generate(sample, workload, k, rng);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("generator spans poisoned")
            .push((start, end));
        spec
    }
}

/// Self times of the single-threaded replay, by layer.
#[derive(Default)]
pub struct Replay {
    /// Replay wall time.
    pub wall: Duration,
    /// `TableSnapshot::scan` / `scan_pooled`.
    pub scan: Duration,
    /// `Oreo::decide` minus the nested `generate` calls.
    pub decide_self: Duration,
    /// `LayoutGenerator::generate`, nested in `decide`.
    pub generate: Duration,
    /// `Oreo::apply_due`, plus the snapshot swap and the pool invalidation
    /// of the old generation when a switch lands.
    pub apply_due: Duration,
    /// `Oreo::settle`.
    pub settle: Duration,
    /// `materialize` of each decided layout.
    pub materialize: Duration,
    /// `TieredStore::publish` of each decided layout.
    pub publish: Duration,
    /// Per-scan times, µs.
    pub scan_us: Vec<f64>,
    /// Candidates generated / admitted, summed over tenants.
    pub generated: u64,
    /// See `generated`.
    pub admitted: u64,
    /// Whether every tenant's ledger equals `oreo-sim`'s OREO run on the
    /// same stream.
    pub parity: bool,
}

impl Replay {
    /// Sum of the layer self times.
    pub fn accounted(&self) -> Duration {
        self.scan
            + self.decide_self
            + self.generate
            + self.apply_due
            + self.settle
            + self.materialize
            + self.publish
    }

    /// Share of the replay wall time no layer span covers, in percent.
    pub fn unaccounted_pct(&self) -> f64 {
        100.0
            * ratio(
                self.wall.as_secs_f64() - self.accounted().as_secs_f64(),
                self.wall.as_secs_f64(),
            )
            .abs()
    }

    /// A layer's share of the replay wall time.
    pub fn share(&self, layer: Duration) -> f64 {
        ratio(layer.as_secs_f64(), self.wall.as_secs_f64())
    }

    /// Median and 99th-percentile scan time, µs.
    pub fn scan_percentiles(&self) -> (f64, f64) {
        (
            percentile(&self.scan_us, 50.0),
            percentile(&self.scan_us, 99.0),
        )
    }
}

/// One tenant's replay state: its own OREO instance, the served snapshot,
/// and (tiered) its disk tier.
struct ReplayTenant {
    oreo: Oreo,
    generator: Arc<TimedGenerator>,
    table: Arc<Table>,
    snapshot: TableSnapshot,
    pending: Vec<(LayoutId, TableSnapshot)>,
    store: Option<TieredStore>,
}

fn covered(calls: &[(Instant, Instant)]) -> Duration {
    calls
        .iter()
        .map(|(s, e)| e.saturating_duration_since(*s))
        .sum()
}

/// Replay every tenant's read stream, in schedule order, through the
/// layers one at a time: scan → `Oreo::decide` (generate nested) →
/// `materialize` + `TieredStore::publish` on a decision → `apply_due` →
/// `settle`. Tiered workloads scan through a buffer pool of the workload's
/// size and keep their generations under `root`.
pub fn replay(inputs: &Inputs, root: &Path, trace: &mut Trace) -> Replay {
    let pool = inputs.tiered.then(|| {
        BufferPool::new(BufferPoolConfig {
            capacity_bytes: inputs.pool_bytes,
            ..BufferPoolConfig::default()
        })
    });
    let mut tenants: Vec<ReplayTenant> = inputs
        .tenants
        .iter()
        .enumerate()
        .map(|(index, t)| {
            let generator = Arc::new(TimedGenerator::new());
            let spec = default_spec(&t.bundle, t.config.partitions, t.config.seed);
            let oreo = Oreo::new(
                Arc::clone(&t.bundle.table),
                Arc::clone(&spec),
                Arc::clone(&generator) as Arc<dyn LayoutGenerator>,
                t.config.clone(),
            );
            let mut snapshot = materialize(&t.bundle.table, &spec, oreo.physical_layout());
            let store = inputs.tiered.then(|| {
                TieredStore::create_for_table(
                    &root.join(format!("replay-{}", t.name)),
                    index as u32,
                    &mut snapshot,
                )
                .expect("create replay tiered store")
                .0
            });
            generator.take();
            ReplayTenant {
                oreo,
                generator,
                table: Arc::clone(&t.bundle.table),
                snapshot,
                pending: Vec::new(),
                store,
            }
        })
        .collect();

    let mut r = Replay::default();
    let start = Instant::now();
    for (id, event) in inputs.events.iter().enumerate() {
        let Op::Query { tenant, index } = event.op else {
            continue;
        };
        let id = id as u64;
        let q = &inputs.tenants[tenant].queries[index];
        let t = &mut tenants[tenant];
        let mut mark = |name: &'static str, parent: &'static str, s: Instant, e: Instant| {
            trace.push(Span {
                trace: "replay",
                id,
                name,
                parent,
                start: s,
                end: e,
            });
            e.saturating_duration_since(s)
        };

        let t0 = Instant::now();
        let scan = match (&pool, t.snapshot.generation()) {
            (Some(pool), Some(_)) => t
                .snapshot
                .scan_pooled(&q.predicate, pool)
                .expect("replay pooled scan"),
            _ => t.snapshot.scan(&q.predicate),
        };
        std::hint::black_box(&scan);
        let t1 = Instant::now();
        let scan_time = mark("scan", "query", t0, t1);
        r.scan += scan_time;
        r.scan_us.push(scan_time.as_secs_f64() * 1e6);

        let mut report = t.oreo.decide(q);
        let t2 = Instant::now();
        let decide = mark("decide", "query", t1, t2);
        let calls = t.generator.take();
        for &(s, e) in &calls {
            mark("generate", "decide", s, e);
        }
        let generate = covered(&calls);
        r.generate += generate;
        r.decide_self += decide.saturating_sub(generate);

        let mut t3 = t2;
        if let Some(target) = report.reorg_decision {
            let spec = t.oreo.spec(target).expect("decided target has a spec");
            let mut snapshot = materialize(&t.table, &spec, target);
            let built = Instant::now();
            r.materialize += mark("materialize", "query", t2, built);
            if let Some(store) = &t.store {
                store.publish(&mut snapshot).expect("replay tiered publish");
            }
            t3 = Instant::now();
            r.publish += mark("publish", "query", built, t3);
            t.pending.push((target, snapshot));
        }

        t.oreo.apply_due(report.seq);
        let physical = t.oreo.physical_layout();
        if let Some(pos) = t.pending.iter().position(|(id, _)| *id == physical) {
            let (_, next) = t
                .pending
                .drain(..=pos)
                .next_back()
                .expect("position exists");
            let old = std::mem::replace(&mut t.snapshot, next);
            if let (Some(pool), Some(generation)) = (&pool, old.generation()) {
                pool.invalidate_generation(generation.table(), generation.number());
            }
        }
        let t4 = Instant::now();
        r.apply_due += mark("apply_due", "query", t3, t4);

        t.oreo.settle(q, &mut report);
        let t5 = Instant::now();
        r.settle += mark("settle", "query", t4, t5);
        mark("query", "", t0, t5);
    }
    r.wall = start.elapsed();

    r.parity = true;
    for (t, input) in tenants.iter().zip(&inputs.tenants) {
        let stats = t.oreo.manager_stats();
        r.generated += stats.generated;
        r.admitted += stats.admitted;
        // `oreo-sim`'s OREO run over the same stream: the policy the
        // replay drove must have billed exactly the same costs.
        let mut sim = OreoPolicy::new(
            Arc::clone(&input.bundle.table),
            default_spec(&input.bundle, input.config.partitions, input.config.seed),
            Arc::new(QdTreeGenerator::new()),
            input.config.clone(),
        );
        let expected = run_policy(&mut sim, &input.queries, 0).ledger;
        if expected != *t.oreo.ledger() {
            eprintln!(
                "replay ledger of tenant {} diverged from oreo-sim: {:?} vs {:?}",
                input.name,
                t.oreo.ledger(),
                expected
            );
            r.parity = false;
        }
    }
    r
}

/// `Wal::append` (append + fsync) timed over the workload's write batches
/// on a scratch log under `root`. Returns per-append times in ms.
pub fn wal_appends(inputs: &Inputs, root: &Path, trace: &mut Trace) -> Vec<f64> {
    if inputs.batches.is_empty() {
        return Vec::new();
    }
    let path = root.join("scratch-wal.log");
    let _ = std::fs::remove_file(&path);
    let (mut wal, _) = Wal::open(&path).expect("open scratch WAL");
    let times = inputs
        .batches
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let start = Instant::now();
            wal.append(i as u64 + 1, ops).expect("scratch WAL append");
            let end = Instant::now();
            trace.push(Span {
                trace: "wal",
                id: i as u64,
                name: "wal_append",
                parent: "",
                start,
                end,
            });
            end.duration_since(start).as_secs_f64() * 1e3
        })
        .collect();
    drop(wal);
    let _ = std::fs::remove_file(&path);
    times
}
