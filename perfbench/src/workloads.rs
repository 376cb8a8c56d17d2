//! The three workloads: what each one generates from `--seed`, and how the
//! engine is configured to serve it. README.md gives the reasons for each
//! choice; the numbers here are the ones it quotes.

use oreo_core::OreoConfig;
use oreo_engine::{Engine, EngineConfig, TenantSpec};
use oreo_layout::{LayoutGenerator, QdTreeGenerator};
use oreo_query::Query;
use oreo_sim::default_spec;
use oreo_storage::IngestOp;
use oreo_workload::{
    mutation_stream, telemetry_bundle, DatasetBundle, MutationConfig, Scenario, ScenarioConfig,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Engine scan workers on every workload.
pub const WORKERS: usize = 2;

/// The policy's own seed (D-UMTS coin flips, sampling). It is part of the
/// program's configuration, not of its input, so `--seed` does not move it.
const POLICY_SEED: u64 = 3;

/// Seed of every read stream (see README.md, "Seeds").
const STREAM_SEED: u64 = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Policy-bound: in memory, candidate generation holds the core lock.
    DiurnalPaced,
    /// Storage-bound: data larger than the buffer pool, closed loop.
    ScanCold,
    /// Two tenants, one of them taking WAL-logged write batches.
    TenantsIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DiurnalPaced,
        Workload::ScanCold,
        Workload::TenantsIngest,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiurnalPaced => "diurnal-paced",
            Workload::ScanCold => "scan-cold",
            Workload::TenantsIngest => "tenants-ingest",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How queries are offered to the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadLoop {
    /// Sent at their due times whatever the engine's state; latency is
    /// timed from the due time.
    Open,
    /// `clients` callers, each sending its next query when the previous
    /// one returns; latency is timed from submit.
    Closed {
        /// Concurrent callers.
        clients: usize,
    },
}

/// One tenant's table, policy configuration and read stream.
pub struct TenantInput {
    /// Tenant name (filesystem-safe: tiered serving uses it as a directory).
    pub name: &'static str,
    /// The telemetry table and its templates.
    pub bundle: DatasetBundle,
    /// The tenant's OREO configuration.
    pub config: OreoConfig,
    /// The tenant's read stream, in submission order.
    pub queries: Vec<Query>,
}

/// One scheduled operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Query `index` of tenant `tenant`'s stream.
    Query {
        /// Tenant index.
        tenant: usize,
        /// Position in the tenant's stream.
        index: usize,
    },
    /// Write batch `batch`, always addressed to tenant 0.
    Ingest {
        /// Position in [`Inputs::batches`].
        batch: usize,
    },
}

/// An operation with its due time, relative to the first submit.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When the operation is due (open loop only; zero in a closed loop).
    pub due: Duration,
    /// What to do.
    pub op: Op,
}

/// Everything a run feeds the engine, generated from the seed alone.
pub struct Inputs {
    /// Tenants, in engine tenant-index order.
    pub tenants: Vec<TenantInput>,
    /// Write batches for tenant 0, in apply order.
    pub batches: Vec<Vec<IngestOp>>,
    /// Operations in due order.
    pub events: Vec<Event>,
    /// Open or closed loop.
    pub load: LoadLoop,
    /// Serve through the disk tier and a buffer pool.
    pub tiered: bool,
    /// Buffer-pool capacity for tiered serving, in bytes.
    pub pool_bytes: u64,
}

/// The zoo scenarios' framework configuration: the paper's defaults
/// (α = 80, ε = 0.08, γ = 1, 64 partitions) with the given candidate
/// window, generation interval and data-sample size. The open-loop
/// workloads use a 2 000-row sample, which keeps generation stalls to a
/// minority of the run (README.md, "Candidate sample").
fn policy_config(window: usize, generation_interval: u64, data_sample_rows: usize) -> OreoConfig {
    OreoConfig {
        alpha: 80.0,
        epsilon: 0.08,
        gamma: 1.0,
        window,
        generation_interval,
        partitions: 64,
        data_sample_rows,
        seed: POLICY_SEED,
        ..Default::default()
    }
}

fn tenant(
    name: &'static str,
    rows: usize,
    data_seed: u64,
    scenario: Scenario,
    (served, block): (usize, usize),
    stream_seed: u64,
    config: OreoConfig,
) -> TenantInput {
    let bundle = telemetry_bundle(rows, data_seed);
    // The zoo sizes its phases from the stream length, so the read stream
    // is a sequence of fixed-length zoo streams (blocks, each with its own
    // stream seed) cut to `served` queries: phases keep their length
    // whatever `--seconds` is.
    let mut queries = Vec::with_capacity(served);
    let mut k = 0;
    while queries.len() < served {
        queries.extend(
            scenario
                .generate(
                    bundle.table.schema(),
                    ScenarioConfig {
                        total_queries: block,
                        seed: stream_seed + k,
                    },
                )
                .queries,
        );
        k += 1;
    }
    queries.truncate(served);
    TenantInput {
        name,
        bundle,
        config,
        queries,
    }
}

/// Offered rate of `diurnal-paced`, queries per second: well below
/// saturation, so generation stalls cover a minority of the run.
const DIURNAL_QPS: f64 = 100.0;
/// Queries per measured second on `scan-cold`. The loop is closed, so this
/// fixes the amount of work, not the rate; it is about the rate two
/// clients reach on a 2-vCPU machine, so a run lasts about `--seconds`.
const SCAN_COLD_QUERIES_PER_SECOND: usize = 700;
/// Offered read rate of `tenants-ingest` over both tenants.
const TENANTS_QPS: f64 = 150.0;
/// Candidate generation interval of both `tenants-ingest` tenants, in
/// queries.
const TENANT_GENERATION_INTERVAL: u64 = 100;
/// Write batches per second on `tenants-ingest`.
const BATCHES_PER_SECOND: f64 = 7.5;

/// Queries of a stream offered at `qps` for `seconds`.
fn paced(qps: f64, seconds: u64) -> usize {
    (qps * seconds as f64).round() as usize
}

/// Due times of `n` events spread evenly from zero at `rate` per second.
fn due(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

impl Inputs {
    /// Generate `workload`'s inputs for a run of `seconds` from `seed`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        match workload {
            Workload::DiurnalPaced => {
                let n = paced(DIURNAL_QPS, seconds);
                let t = tenant(
                    "diurnal",
                    20_000,
                    seed,
                    Scenario::Diurnal,
                    (n, 2_000),
                    STREAM_SEED,
                    policy_config(100, 100, 2_000),
                );
                let events = (0..n)
                    .map(|index| Event {
                        due: due(index, DIURNAL_QPS),
                        op: Op::Query { tenant: 0, index },
                    })
                    .collect();
                Inputs {
                    tenants: vec![t],
                    batches: Vec::new(),
                    events,
                    load: LoadLoop::Open,
                    tiered: false,
                    pool_bytes: 0,
                }
            }
            Workload::ScanCold => {
                let n = SCAN_COLD_QUERIES_PER_SECOND * seconds as usize;
                let t = tenant(
                    "rotating",
                    400_000,
                    seed,
                    Scenario::RotatingPredicates,
                    (n, 20_000),
                    STREAM_SEED,
                    policy_config(200, 1_000, 6_000),
                );
                let events = (0..n)
                    .map(|index| Event {
                        due: Duration::ZERO,
                        op: Op::Query { tenant: 0, index },
                    })
                    .collect();
                Inputs {
                    tenants: vec![t],
                    batches: Vec::new(),
                    events,
                    load: LoadLoop::Closed { clients: 2 },
                    tiered: true,
                    pool_bytes: 2 << 20,
                }
            }
            Workload::TenantsIngest => {
                let n = paced(TENANTS_QPS, seconds);
                let per_tenant = n / 2;
                let writer = tenant(
                    "writer",
                    20_000,
                    seed,
                    Scenario::FlashCrowd,
                    (per_tenant, 3_000),
                    STREAM_SEED,
                    policy_config(100, TENANT_GENERATION_INTERVAL, 2_000),
                );
                let reader = tenant(
                    "reader",
                    20_000,
                    seed.wrapping_add(1),
                    Scenario::Diurnal,
                    (per_tenant, 3_000),
                    STREAM_SEED + 1,
                    policy_config(100, TENANT_GENERATION_INTERVAL, 2_000),
                );
                let batch_count = (BATCHES_PER_SECOND * seconds as f64).round().max(1.0) as usize;
                let mutations = mutation_stream(
                    writer.bundle.table.schema(),
                    writer.bundle.table.num_rows() as u64,
                    MutationConfig {
                        batches: batch_count,
                        appends_per_batch: 200,
                        updates_per_batch: 20,
                        deletes_per_batch: 20,
                        total_queries: per_tenant,
                        seed: seed ^ 0x1A6E57,
                    },
                );
                // Read slots alternate between the tenants. The writer's
                // stream starts half a generation interval after the
                // reader's, so their candidate generations alternate
                // instead of queueing behind each other on the core lock.
                // A tenant has every other slot, so half an interval of its
                // queries is `TENANT_GENERATION_INTERVAL` slots (even, so
                // the writer keeps the even slots).
                let lag = TENANT_GENERATION_INTERVAL;
                let mut events: Vec<Event> = (0..per_tenant)
                    .flat_map(|index| {
                        [(0, 2 * index as u64 + lag), (1, 2 * index as u64 + 1)].map(
                            |(tenant, slot)| Event {
                                due: due(slot as usize, TENANTS_QPS),
                                op: Op::Query { tenant, index },
                            },
                        )
                    })
                    .collect();
                // Batches sit halfway between read slots, so no due time
                // is shared and the order below is total.
                let batch_gap = 1.0 / BATCHES_PER_SECOND;
                events.extend((0..batch_count).map(|batch| Event {
                    due: Duration::from_secs_f64(
                        (batch as f64 + 0.5) * batch_gap + 0.5 / TENANTS_QPS,
                    ),
                    op: Op::Ingest { batch },
                }));
                events.sort_by_key(|e| e.due);
                Inputs {
                    tenants: vec![writer, reader],
                    batches: mutations.batches.into_iter().map(|b| b.ops).collect(),
                    events,
                    load: LoadLoop::Open,
                    tiered: true,
                    pool_bytes: 64 << 20,
                }
            }
        }
    }

    /// Queries across all tenants.
    pub fn total_queries(&self) -> usize {
        self.tenants.iter().map(|t| t.queries.len()).sum()
    }

    /// The candidate generator each tenant would get from `oreo-sim`.
    pub fn plain_generators(&self) -> Vec<Arc<dyn LayoutGenerator>> {
        self.tenants
            .iter()
            .map(|_| Arc::new(QdTreeGenerator::new()) as Arc<dyn LayoutGenerator>)
            .collect()
    }

    /// Start the engine for these inputs, with one candidate generator per
    /// tenant. Tiered serving keeps its generations under `root`.
    pub fn start_engine(&self, root: &Path, generators: &[Arc<dyn LayoutGenerator>]) -> Engine {
        let specs = self
            .tenants
            .iter()
            .zip(generators)
            .map(|(t, g)| TenantSpec {
                name: t.name.into(),
                table: Arc::clone(&t.bundle.table),
                initial_spec: default_spec(&t.bundle, t.config.partitions, t.config.seed),
                generator: Arc::clone(g),
                oreo: t.config.clone(),
            })
            .collect();
        let mut config = EngineConfig::default().with_workers(WORKERS);
        if self.tiered {
            config = config.tiered(root).with_buffer_pool_bytes(self.pool_bytes);
        }
        Engine::start_tenants(specs, config)
    }
}
