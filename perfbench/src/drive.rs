//! The load generator and the correctness gate.
//!
//! At most two load threads: an open loop has one generator thread (the
//! caller's) that issues queries and write batches in due order and one
//! collector thread that waits for results in submission order; a closed
//! loop has its clients and nothing else.
//!
//! Completion is stamped when the collector's in-order
//! [`ResultHandle::wait`] returns. A query that finishes before an earlier
//! one is stamped only once the earlier one has been collected, so open-loop
//! latencies are biased upward by head-of-line waiting in the collector
//! (bounded by the gap between the two completions).

use crate::workloads::{Event, Inputs, LoadLoop, Op};
use oreo_engine::{Engine, EngineStats, QueryOutcome, ResultHandle};
use oreo_query::Predicate;
use oreo_sim::MutableOracle;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Query results kept per tenant for the post-run check.
const SAMPLES_PER_TENANT: usize = 48;

/// Whether query `index` of an `n`-query stream is in the checked sample.
fn sampled(index: usize, n: usize) -> bool {
    index.is_multiple_of((n / SAMPLES_PER_TENANT).max(1))
}

/// A checked query's answer and the write batches that may be visible to
/// it: at least `lo` (acknowledged before submit), at most `hi` (started
/// before the result came back).
struct Sample {
    tenant: usize,
    index: usize,
    matches: Vec<u32>,
    lo: usize,
    hi: usize,
}

/// One query as the harness saw it. Times are offsets from the run origin.
#[derive(Clone, Copy)]
pub struct QuerySpan {
    /// When the query was due (equals `submit` in a closed loop).
    pub due: Duration,
    /// When it was submitted.
    pub submit: Duration,
    /// When its result was collected.
    pub result: Duration,
    /// The engine's service time (`QueryOutcome::latency`).
    pub service: Duration,
    /// Fraction of the tenant's base rows the scan read.
    pub fraction_read: f64,
}

impl QuerySpan {
    /// Time to result: from due (open loop) or submit (closed loop).
    pub fn latency(&self) -> Duration {
        self.result.saturating_sub(self.due)
    }
}

/// One write batch: due, call, return.
#[derive(Clone, Copy)]
pub struct IngestSpan {
    /// When the batch was due.
    pub due: Duration,
    /// When `Engine::ingest_to` was called.
    pub call: Duration,
    /// When it returned.
    pub done: Duration,
    /// Whether it returned an error.
    pub failed: bool,
}

impl IngestSpan {
    /// Ack latency, timed from the due time.
    pub fn ack(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}

/// What one engine run produced.
pub struct Run {
    /// The instant every offset in the spans counts from.
    pub origin: Instant,
    /// Every query, in submission order.
    pub queries: Vec<QuerySpan>,
    /// Every write batch, in due order.
    pub ingests: Vec<IngestSpan>,
    /// First submit to last result.
    pub wall: Duration,
    /// Queries submitted but not completed when the generator finished its
    /// last due operation (open loop; 0 in a closed loop).
    pub backlog_at_last_due: u64,
    /// The engine's shutdown statistics.
    pub stats: EngineStats,
    /// Result mismatches found by the post-run check.
    pub mismatches: u64,
    samples: Vec<Sample>,
    writer_final: Option<(u64, Vec<u32>)>,
}

impl Run {
    /// Operations attempted: queries plus write batches.
    pub fn attempted(&self) -> u64 {
        (self.queries.len() + self.ingests.len()) as u64
    }

    /// Failed operations: pooled scans that fell back to memory, disk-tier
    /// degradations, write batches that returned an error, and wrong
    /// results.
    pub fn failed(&self) -> u64 {
        self.stats.scan_io_errors
            + self.stats.tiered_errors.len() as u64
            + self.ingests.iter().filter(|i| i.failed).count() as u64
            + self.mismatches
    }

    /// Completed queries per second over the measured window.
    pub fn qps(&self) -> f64 {
        self.queries.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Serve `inputs` on `engine`, shut it down, and check the answers.
pub fn run(engine: Engine, inputs: &Inputs) -> Run {
    let origin = Instant::now();
    let samples = Mutex::new(Vec::new());
    let (mut queries, ingests, backlog) = match inputs.load {
        LoadLoop::Open => open_loop(&engine, inputs, origin, &samples),
        LoadLoop::Closed { clients } => (
            closed_loop(&engine, inputs, origin, clients, &samples),
            Vec::new(),
            0,
        ),
    };
    engine.drain();
    queries.sort_by_key(|q| q.submit);
    let first = queries.first().map_or(Duration::ZERO, |q| q.submit);
    let last = queries.iter().map(|q| q.result).max().unwrap_or(first);
    // The writer's final state, read before shutdown (the snapshot is
    // consistent whether or not a fold is still in flight).
    let writer_final = (!inputs.batches.is_empty()).then(|| {
        let scan = engine.pin_of(0).scan(&Predicate::always_true());
        (engine.live_rows_of(0), scan.matches)
    });
    let stats = engine.shutdown();
    let mut run = Run {
        origin,
        queries,
        ingests,
        wall: last.saturating_sub(first).max(Duration::from_nanos(1)),
        backlog_at_last_due: backlog,
        stats,
        mismatches: 0,
        samples: samples.into_inner().expect("sample lock poisoned"),
        writer_final,
    };
    run.mismatches = check(inputs, &run);
    run
}

fn span(
    inputs: &Inputs,
    tenant: usize,
    due: Duration,
    submit: Duration,
    result: Duration,
    outcome: &QueryOutcome,
) -> QuerySpan {
    let rows = inputs.tenants[tenant].bundle.table.num_rows() as u64;
    QuerySpan {
        due,
        submit,
        result,
        service: outcome.latency,
        fraction_read: outcome.scan.fraction_read(rows),
    }
}

/// How long before a due time the generator stops sleeping and spins, so
/// the timer's wake-up delay is not part of every open-loop latency.
const SPIN: Duration = Duration::from_micros(300);

/// Block until `due` after `origin`: sleep to within [`SPIN`] of it, then
/// spin.
fn wait_until(origin: Instant, due: Duration) {
    let now = origin.elapsed();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while origin.elapsed() < due {
        std::hint::spin_loop();
    }
}

struct InFlight {
    tenant: usize,
    index: usize,
    due: Duration,
    submit: Duration,
    handle: ResultHandle,
    lo: usize,
}

fn open_loop(
    engine: &Engine,
    inputs: &Inputs,
    origin: Instant,
    samples: &Mutex<Vec<Sample>>,
) -> (Vec<QuerySpan>, Vec<IngestSpan>, u64) {
    let started_batches = AtomicUsize::new(0);
    let (tx, rx) = channel::<InFlight>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut spans = Vec::with_capacity(inputs.total_queries());
            for f in rx {
                let outcome = f.handle.wait();
                let result = origin.elapsed();
                let n = inputs.tenants[f.tenant].queries.len();
                if sampled(f.index, n) {
                    samples.lock().expect("sample lock poisoned").push(Sample {
                        tenant: f.tenant,
                        index: f.index,
                        matches: outcome.scan.matches.clone(),
                        lo: f.lo,
                        hi: started_batches.load(Ordering::SeqCst),
                    });
                }
                spans.push(span(inputs, f.tenant, f.due, f.submit, result, &outcome));
            }
            spans
        });

        let mut ingests = Vec::with_capacity(inputs.batches.len());
        let mut acked = 0usize;
        let mut submitted = 0u64;
        for &Event { due, op } in &inputs.events {
            wait_until(origin, due);
            match op {
                Op::Query { tenant, index } => {
                    let submit = origin.elapsed();
                    let query = inputs.tenants[tenant].queries[index].clone();
                    let handle = engine.submit_tracked_to(tenant, query);
                    submitted += 1;
                    tx.send(InFlight {
                        tenant,
                        index,
                        due,
                        submit,
                        handle,
                        lo: acked,
                    })
                    .expect("collector alive");
                }
                Op::Ingest { batch } => {
                    started_batches.fetch_add(1, Ordering::SeqCst);
                    let call = origin.elapsed();
                    let result = engine.ingest_to(0, &inputs.batches[batch]);
                    let done = origin.elapsed();
                    acked += 1;
                    ingests.push(IngestSpan {
                        due,
                        call,
                        done,
                        failed: result.is_err(),
                    });
                }
            }
        }
        let backlog = submitted.saturating_sub(engine.completed());
        drop(tx);
        let spans = collector.join().expect("collector panicked");
        (spans, ingests, backlog)
    })
}

fn closed_loop(
    engine: &Engine,
    inputs: &Inputs,
    origin: Instant,
    clients: usize,
    samples: &Mutex<Vec<Sample>>,
) -> Vec<QuerySpan> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut spans = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&Event { op, .. }) = inputs.events.get(i) else {
                            break;
                        };
                        let Op::Query { tenant, index } = op else {
                            unreachable!("closed-loop workloads do not write");
                        };
                        let submit = origin.elapsed();
                        let query = inputs.tenants[tenant].queries[index].clone();
                        let outcome = engine.submit_tracked_to(tenant, query).wait();
                        let result = origin.elapsed();
                        if sampled(index, inputs.tenants[tenant].queries.len()) {
                            samples.lock().expect("sample lock poisoned").push(Sample {
                                tenant,
                                index,
                                matches: outcome.scan.matches.clone(),
                                lo: 0,
                                hi: 0,
                            });
                        }
                        spans.push(span(inputs, tenant, submit, submit, result, &outcome));
                    }
                    spans
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client panicked"))
            .collect()
    })
}

/// The correctness gate, run after the clock stops: every sampled answer
/// of a read-only tenant equals a brute-force `Table::row_matches` pass,
/// every sampled answer of the written tenant equals `MutableOracle`'s
/// answer at some batch count it could have seen, and the written
/// tenant's final live rows and full scan equal the oracle's. Returns the
/// number of mismatches.
fn check(inputs: &Inputs, run: &Run) -> u64 {
    let mut mismatches = 0u64;
    let mut writer_samples = Vec::new();
    for s in &run.samples {
        let tenant = &inputs.tenants[s.tenant];
        let predicate = &tenant.queries[s.index].predicate;
        if s.tenant == 0 && !inputs.batches.is_empty() {
            writer_samples.push(s);
            continue;
        }
        let table = &tenant.bundle.table;
        let expected: Vec<u32> = (0..table.num_rows())
            .filter(|&r| table.row_matches(r, predicate))
            .map(|r| r as u32)
            .collect();
        if expected != s.matches {
            eprintln!(
                "mismatch: tenant {} query {}: {} rows served, {} expected",
                tenant.name,
                s.index,
                s.matches.len(),
                expected.len()
            );
            mismatches += 1;
        }
    }
    if let Some((live_rows, full_scan)) = &run.writer_final {
        let writer = &inputs.tenants[0];
        let mut oracle = MutableOracle::new(&writer.bundle.table);
        let mut verified = vec![false; writer_samples.len()];
        for applied in 0..=inputs.batches.len() {
            if applied > 0 {
                oracle
                    .apply(&inputs.batches[applied - 1])
                    .expect("generated batches are valid");
            }
            for (s, ok) in writer_samples.iter().zip(verified.iter_mut()) {
                if !*ok && (s.lo..=s.hi).contains(&applied) {
                    *ok = oracle.matches(&writer.queries[s.index].predicate) == s.matches;
                }
            }
        }
        for (s, ok) in writer_samples.iter().zip(&verified) {
            if !ok {
                eprintln!(
                    "mismatch: writer query {} matches no state between batches {} and {}",
                    s.index, s.lo, s.hi
                );
                mismatches += 1;
            }
        }
        if *live_rows != oracle.live_rows() {
            eprintln!(
                "mismatch: writer has {live_rows} live rows, oracle {}",
                oracle.live_rows()
            );
            mismatches += 1;
        }
        if *full_scan != oracle.matches(&Predicate::always_true()) {
            eprintln!("mismatch: writer full scan differs from the oracle");
            mismatches += 1;
        }
    }
    mismatches
}

/// Count of samples the gate checked (reported next to the results).
pub fn checked_samples(run: &Run) -> usize {
    run.samples.len() + usize::from(run.writer_final.is_some())
}
