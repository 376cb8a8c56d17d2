//! The OREO serving benchmark: runs one named workload against
//! `oreo-engine` through its public API, checks the answers, and prints
//! every metric with its unit. The last line of standard output is the
//! JSON result.
//!
//! ```text
//! oreo-perfbench --workload <diurnal-paced|scan-cold|tenants-ingest>
//!                --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the same workload and seed again with harness-side spans and
//! prints the per-layer metrics. README.md defines every metric.

mod drive;
mod report;
mod trace;
mod workloads;

use drive::Run;
use oreo_layout::LayoutGenerator;
use report::{cpu_times, mean, median, peak_rss_mb, percentile, ratio, steal_share, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, TimedGenerator, Trace};
use workloads::{Inputs, LoadLoop, Workload, WORKERS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Share of all CPU time stolen by the hypervisor above which a
/// closed-loop run is measured again. Undisturbed `scan-cold` runs on a
/// 2-vCPU VM read 0.1–1%; runs that read 5–7% lost 9–17% of their
/// throughput.
const STEAL_LIMIT: f64 = 0.03;

/// Measured attempts of a closed-loop run, at most.
const CLOSED_LOOP_ATTEMPTS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = value("--workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The run's scratch directory (tiered generations, scratch WAL), inside
/// the working directory; removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> Self {
        let dir = out.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oreo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = std::env::current_dir()
        .expect("working directory")
        .join("perfbench")
        .join("out");
    let scratch = Scratch::new(&out);
    println!(
        "workload {} seed {} seconds {} trace {} (workers {}, available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (metrics, correct, attempted, failed) = if args.trace {
        traced(&args, &scratch, &out)
    } else {
        untraced(&args, &scratch, process_start)
    };
    let correct = correct && metrics.all_finite();
    metrics.print(correct, attempted, failed);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Generate the inputs and start the engine, as a user's process would.
fn set_up(args: &Args, root: &Path) -> (Inputs, oreo_engine::Engine) {
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds);
    let engine = inputs.start_engine(root, &inputs.plain_generators());
    (inputs, engine)
}

fn describe(inputs: &Inputs, run: &Run) {
    println!(
        "{} queries, {} write batches, {} answers checked, {} switches, {} folds, \
         {:.1} MiB of table data",
        run.queries.len(),
        run.ingests.len(),
        drive::checked_samples(run),
        run.stats.switches,
        run.stats.folds(),
        run.stats.table_bytes as f64 / f64::from(1u32 << 20),
    );
    for t in &inputs.tenants {
        println!(
            "  tenant {}: {} rows, {} queries",
            t.name,
            t.bundle.table.num_rows(),
            t.queries.len()
        );
    }
}

/// The end-to-end run: set up `SETUP_REPEATS` times (the last engine is
/// the one measured), serve the workload (twice at most, see
/// `STEAL_LIMIT`), check the answers.
fn untraced(args: &Args, scratch: &Scratch, process_start: Instant) -> (Metrics, bool, u64, u64) {
    let root = scratch.path("engine");
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut started: Option<(Inputs, oreo_engine::Engine)> = None;
    for i in 0..SETUP_REPEATS {
        if let Some((_, engine)) = started.take() {
            engine.shutdown();
            let _ = std::fs::remove_dir_all(&root);
        }
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        started = Some(set_up(args, &root));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, mut engine) = started.expect("at least one set-up");
    // A closed loop's throughput is whatever CPU time the host grants, so
    // a run during which the hypervisor stole more than `STEAL_LIMIT` of
    // it is measured again on a fresh engine, and the attempt with the
    // least steal is kept. The open loops are paced and are not repeated.
    let mut attempts: Vec<(f64, Run)> = Vec::new();
    loop {
        let before = cpu_times();
        let run = drive::run(engine, &inputs);
        let steal = steal_share(before, cpu_times());
        println!("host steal during the run: {:.2}%", 100.0 * steal);
        attempts.push((steal, run));
        if !matches!(inputs.load, LoadLoop::Closed { .. })
            || steal <= STEAL_LIMIT
            || attempts.len() == CLOSED_LOOP_ATTEMPTS
        {
            break;
        }
        println!("measuring again: steal above {:.0}%", 100.0 * STEAL_LIMIT);
        let root = scratch.path(&format!("engine-{}", attempts.len()));
        engine = inputs.start_engine(&root, &inputs.plain_generators());
    }
    let correct = attempts.iter().all(|(_, r)| r.mismatches == 0);
    let attempted = attempts.iter().map(|(_, r)| r.attempted()).sum::<u64>();
    let failed = attempts.iter().map(|(_, r)| r.failed()).sum::<u64>();
    let (_, run) = attempts
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one attempt");
    describe(&inputs, &run);

    let latency: Vec<f64> = run.queries.iter().map(|q| ms(q.latency())).collect();
    println!("latency samples: {}", latency.len());
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("qps", run.qps(), "1/s");
    m.put("latency_p50_ms", percentile(&latency, 50.0), "ms");
    m.put("latency_p99_ms", percentile(&latency, 99.0), "ms");
    m.put("cost_total", run.stats.ledger.total(), "cost");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    // Not in the result line: every metric there exists, and is never 0,
    // on every workload (README.md, "End-to-end metrics").
    m.note(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    if !run.ingests.is_empty() {
        let ack: Vec<f64> = run.ingests.iter().map(|i| ms(i.ack())).collect();
        m.note("ingest_p50_ms", percentile(&ack, 50.0), "ms");
        m.note("ingest_p99_ms", percentile(&ack, 99.0), "ms");
    }
    (m, correct, attempted, failed)
}

/// The traced run: (a) the engine run untraced and then again with spans,
/// (b) the single-threaded layer replay, (c) the WAL appends.
fn traced(args: &Args, scratch: &Scratch, out: &Path) -> (Metrics, bool, u64, u64) {
    let mut trace = Trace::new(Instant::now());

    let root = scratch.path("untraced");
    let (inputs, engine) = set_up(args, &root);
    let untraced = drive::run(engine, &inputs);
    let _ = std::fs::remove_dir_all(&root);

    let generators: Vec<Arc<TimedGenerator>> = inputs
        .tenants
        .iter()
        .map(|_| Arc::new(TimedGenerator::new()))
        .collect();
    let dyn_generators: Vec<Arc<dyn LayoutGenerator>> = generators
        .iter()
        .map(|g| Arc::clone(g) as Arc<dyn LayoutGenerator>)
        .collect();
    let engine = inputs.start_engine(&scratch.path("traced"), &dyn_generators);
    let run = drive::run(engine, &inputs);
    describe(&inputs, &run);
    let generate: Vec<(Instant, Instant)> = generators.iter().flat_map(|g| g.take()).collect();
    for &(start, end) in &generate {
        trace.push(Span {
            trace: "engine",
            id: 0,
            name: "generate",
            parent: "",
            start,
            end,
        });
    }
    // The harness sees only the service duration (`QueryOutcome::latency`),
    // so its span is drawn ending at the result.
    for (id, q) in run.queries.iter().enumerate() {
        for (name, start, end) in [
            ("query", q.due, q.result),
            ("submit_to_result", q.submit, q.result),
            ("service", q.result.saturating_sub(q.service), q.result),
        ] {
            trace.push(Span {
                trace: "engine",
                id: id as u64,
                name,
                parent: if name == "query" { "" } else { "query" },
                start: run.origin + start,
                end: run.origin + end,
            });
        }
    }
    for (id, i) in run.ingests.iter().enumerate() {
        trace.push(Span {
            trace: "engine",
            id: id as u64,
            name: "ingest",
            parent: "",
            start: run.origin + i.call,
            end: run.origin + i.done,
        });
    }

    let replay = trace::replay(&inputs, &scratch.path("replay"), &mut trace);
    let wal_ms = trace::wal_appends(&inputs, &scratch.0, &mut trace);
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| {
        trace.write(&out.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        )))
    }) {
        eprintln!("oreo-perfbench: writing the trace failed: {e}");
    }

    let mut m = Metrics::default();
    let wall = run.wall.as_secs_f64();
    let gen_ms: Vec<f64> = generate.iter().map(|(s, e)| ms(*e - *s)).collect();
    let gen_busy: f64 = gen_ms.iter().sum::<f64>() / 1e3;
    m.put("layout.generate.calls", gen_ms.len() as f64, "count");
    m.put("layout.generate.busy_s", gen_busy, "s");
    m.put("layout.generate.p99_ms", percentile(&gen_ms, 99.0), "ms");
    m.put(
        "layout.generate.share",
        ratio(gen_busy, WORKERS as f64 * wall),
        "ratio",
    );

    m.put(
        "core.decide_self.busy_s",
        replay.decide_self.as_secs_f64(),
        "s",
    );
    m.put("core.settle.busy_s", replay.settle.as_secs_f64(), "s");
    m.put(
        "core.admit_ratio",
        ratio(replay.admitted as f64, replay.generated as f64),
        "ratio",
    );
    m.put("core.max_states", run.stats.max_states_seen as f64, "count");

    let service: Vec<f64> = run.queries.iter().map(|q| ms(q.service)).collect();
    let queue_wait: Vec<f64> = run
        .queries
        .iter()
        .map(|q| ms(q.latency().saturating_sub(q.service)))
        .collect();
    let late: Vec<f64> = run
        .queries
        .iter()
        .map(|q| ms(q.submit.saturating_sub(q.due)))
        .collect();
    let ingest_ack: Vec<f64> = run.ingests.iter().map(|i| ms(i.ack())).collect();
    m.put(
        "engine.queue_wait_ms.p50",
        percentile(&queue_wait, 50.0),
        "ms",
    );
    m.put(
        "engine.queue_wait_ms.p99",
        percentile(&queue_wait, 99.0),
        "ms",
    );
    m.put("engine.service_ms.p50", percentile(&service, 50.0), "ms");
    m.put("engine.service_ms.p99", percentile(&service, 99.0), "ms");
    m.put(
        "engine.ingest_ack_ms.p50",
        percentile(&ingest_ack, 50.0),
        "ms",
    );
    m.put(
        "engine.ingest_ack_ms.p99",
        percentile(&ingest_ack, 99.0),
        "ms",
    );
    m.put("engine.switches", run.stats.switches as f64, "count");
    let windows: Vec<f64> = run
        .stats
        .windows
        .iter()
        .map(|w| w.wall.as_secs_f64())
        .collect();
    m.put("engine.reorg_window_s.mean", mean(&windows), "s");
    m.put(
        "engine.generator_late_ms.p99",
        percentile(&late, 99.0),
        "ms",
    );
    m.put(
        "engine.backlog_at_last_due",
        run.backlog_at_last_due as f64,
        "count",
    );

    let (scan_p50, scan_p99) = replay.scan_percentiles();
    m.put("storage.scan.busy_s", replay.scan.as_secs_f64(), "s");
    m.put("storage.scan.p50_us", scan_p50, "us");
    m.put("storage.scan.p99_us", scan_p99, "us");
    m.put(
        "storage.rows_read_per_match",
        ratio(run.stats.rows_scanned as f64, run.stats.rows_matched as f64),
        "ratio",
    );
    let fractions: Vec<f64> = run.queries.iter().map(|q| q.fraction_read).collect();
    m.put("storage.fraction_read.mean", mean(&fractions), "ratio");
    let pool = run.stats.pool.unwrap_or_default();
    m.put("storage.pool.hit_rate", pool.hit_rate(), "ratio");
    m.put("storage.pool.evictions", pool.evictions as f64, "count");
    m.put(
        "storage.io_cold_mb",
        run.stats.io_cold_bytes as f64 / f64::from(1u32 << 20),
        "MiB",
    );
    let build: Duration = run.stats.windows.iter().map(|w| w.build).sum();
    let write: Duration = run.stats.windows.iter().map(|w| w.write).sum();
    m.put("storage.reorg_build_s", build.as_secs_f64(), "s");
    m.put("storage.reorg_write_s", write.as_secs_f64(), "s");
    m.put(
        "storage.reorg_written_mb",
        run.stats.reorg_bytes_written() as f64 / f64::from(1u32 << 20),
        "MiB",
    );
    m.put(
        "storage.ingest_write_amp",
        run.stats.write_amplification().unwrap_or(0.0),
        "ratio",
    );
    m.put("storage.wal_append_ms.p50", percentile(&wal_ms, 50.0), "ms");
    m.put("storage.wal_append_ms.p99", percentile(&wal_ms, 99.0), "ms");
    m.put("storage.folds", run.stats.folds() as f64, "count");

    m.put("replay.wall_s", replay.wall.as_secs_f64(), "s");
    m.put("replay.scan.share", replay.share(replay.scan), "ratio");
    m.put(
        "replay.generate.share",
        replay.share(replay.generate),
        "ratio",
    );
    m.put(
        "replay.decide_self.share",
        replay.share(replay.decide_self),
        "ratio",
    );
    m.put("replay.settle.share", replay.share(replay.settle), "ratio");
    m.put(
        "replay.reorg.share",
        replay.share(replay.materialize + replay.publish),
        "ratio",
    );
    m.put("obs.replay_unaccounted_pct", replay.unaccounted_pct(), "%");
    m.put(
        "obs.trace_overhead_pct",
        100.0
            * ratio(
                wall - untraced.wall.as_secs_f64(),
                untraced.wall.as_secs_f64(),
            ),
        "%",
    );

    let accounted = replay.unaccounted_pct() <= 5.0;
    if !accounted {
        eprintln!(
            "replay layer self times leave {:.2}% of its wall time unaccounted (limit 5%)",
            replay.unaccounted_pct()
        );
    }
    if !replay.parity {
        eprintln!("replay ledger parity with oreo-sim failed");
    }
    let correct = untraced.mismatches == 0 && run.mismatches == 0 && replay.parity && accounted;
    let attempted = untraced.attempted() + run.attempted();
    let failed = untraced.failed() + run.failed() + u64::from(!replay.parity);
    (m, correct, attempted, failed)
}
