//! `perfbench` — end-to-end and per-layer wall-clock benchmark of the aic
//! checkpoint fleet and engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! From the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload fleet-private --seed 1 --seconds 25 --trace 0`.
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it runs the same workload untraced and then
//! replays its operation sequence single-threaded through the layers'
//! public functions, one span per call, and reports per-layer metrics plus
//! a reconciliation of the layer times against the untraced cut latency;
//! the spans are written to `$CARGO_TARGET_DIR/perfbench-spans/`. Either
//! way the last stdout line is the JSON result; the lines before it are
//! the run header (host parallelism, build profile, seed, link and tenant
//! geometry) and a readable report with every metric's unit and sample
//! count. Every run checks its outputs; the exit code is nonzero when any
//! check fails.

mod engine;
mod fleet;
mod mirror;
mod replay;
mod stats;
mod tracer;

use std::time::Instant;

use aic_ckpt::fleet::SharedDatasetFleet;

use crate::stats::{mean, median, peak_rss_mib, percentile, ratio, Metrics, Outcome};

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 4] = ["fleet-private", "fleet-shared", "fleet-small", "engine-aic"];

/// End-to-end metrics, in report order, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ckpt_mib_s", "MiB/s"),
    ("cut_p50_ms", "ms"),
    ("cut_p95_ms", "ms"),
    ("restore_mean_ms", "ms"),
    ("restore_p90_ms", "ms"),
    ("wire_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

fn shape_of(workload: &str) -> Option<fleet::Shape> {
    let (tenants, pages, overlap_pct) = match workload {
        "fleet-private" => (2, 64, 0),
        "fleet-shared" => (2, 64, 90),
        "fleet-small" => (16, 8, 0),
        _ => return None,
    };
    Some(fleet::Shape {
        tenants,
        pages,
        overlap_pct,
    })
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("--seconds: bad value {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The run header: what a number measured here was measured on.
fn header(args: &Args) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host available_parallelism={} build_profile={} client_threads=1 encode_pool={}",
        cores(),
        profile,
        cores()
    );
    match shape_of(&args.workload) {
        Some(s) => println!(
            "# fleet tenants={} pages_per_tenant={} overlap_pct={} full_every={} crash_every={} crash_levels=1,2,3 link_b3_bps={:e} link_latency_s={} policy=adaptive",
            s.tenants,
            s.pages,
            s.overlap_pct,
            fleet::service_config(cores()).full_every,
            fleet::CRASH_EVERY,
            fleet::LINK_BPS,
            fleet::LINK_LATENCY_S
        ),
        None => println!(
            "# engine persona={} footprint={} duration={} cores={} full_every={} fault=f{}@[{},{}]xbase raid_nodes={} link=testbed(write-behind) policy=AIC",
            engine::PERSONA,
            engine::FOOTPRINT,
            engine::DURATION,
            cores(),
            engine::FULL_EVERY,
            engine::FAULT_LEVEL,
            engine::FAULT_WINDOW.0,
            engine::FAULT_WINDOW.1,
            engine::RAID_NODES
        ),
    }
}

/// One readable line per latency distribution.
fn print_distribution(what: &str, ms: &[f64]) {
    println!(
        "# {what} latency ms: p50={:.3} p90={:.3} p95={:.3} p99={:.3} max={:.3} mean={:.3} (n={})",
        percentile(ms, 50.0),
        percentile(ms, 90.0),
        percentile(ms, 95.0),
        percentile(ms, 99.0),
        percentile(ms, 100.0),
        mean(ms),
        ms.len()
    );
}

/// What an untraced run measured, whichever workload it ran.
struct Measured<'a> {
    setup_s: &'a [f64],
    cut_ms: &'a [f64],
    restore_ms: &'a [f64],
    /// Dirty state checkpointed, bytes, and the seconds it took.
    dirty_bytes: u64,
    busy_s: f64,
    /// Bytes handed to L3.
    wire_bytes: u64,
}

/// The end-to-end metrics. The cut tail is the 95th percentile, the
/// highest with at least ten samples beyond it on every workload at the
/// benchmark's run length. Restores are summarized by their mean, not
/// their median: every workload crashes at levels 1, 2 and 3 in equal
/// shares, and those restores differ in cost by up to 30x, so the median
/// sits on the edge between two of the groups and jumps between them from
/// run to run.
fn end_to_end(m: &Measured<'_>) -> Metrics {
    print_distribution("cut", m.cut_ms);
    print_distribution("restore", m.restore_ms);
    let cuts = m.cut_ms.len() as u64;
    let restores = m.restore_ms.len() as u64;
    let mut out = Metrics::default();
    out.put("setup_s", median(m.setup_s), "s", m.setup_s.len() as u64);
    out.put(
        "ckpt_mib_s",
        m.dirty_bytes as f64 / (1 << 20) as f64 / m.busy_s,
        "MiB/s",
        cuts,
    );
    out.put("cut_p50_ms", percentile(m.cut_ms, 50.0), "ms", cuts);
    out.put("cut_p95_ms", percentile(m.cut_ms, 95.0), "ms", cuts);
    out.put("restore_mean_ms", mean(m.restore_ms), "ms", restores);
    out.put(
        "restore_p90_ms",
        percentile(m.restore_ms, 90.0),
        "ms",
        restores,
    );
    out.put(
        "wire_ratio",
        ratio(m.wire_bytes as f64, m.dirty_bytes as f64),
        "ratio",
        cuts,
    );
    out
}

/// Untraced run of a fleet workload and its end-to-end metrics.
fn fleet_end_to_end(
    args: &Args,
    shape: fleet::Shape,
    start: Instant,
) -> (fleet::FleetRun, SharedDatasetFleet, Metrics) {
    let fl = SharedDatasetFleet::new(shape.tenants, shape.pages, shape.overlap_pct, args.seed);
    let cfg = fleet::service_config(cores());
    let run = fleet::run(&fl, shape, &cfg, args.seconds, start);
    println!(
        "# {} episodes of {} commits per tenant",
        run.episodes,
        fleet::EPISODE_COMMITS
    );
    let m = end_to_end(&Measured {
        setup_s: &run.setup_s,
        cut_ms: &run.cut_ms,
        restore_ms: &run.restore_ms,
        dirty_bytes: run.dirty_bytes,
        busy_s: run.window_s,
        wire_bytes: run.wire_bytes,
    });
    (run, fl, m)
}

/// Untraced run of the engine workload and its end-to-end metrics.
fn engine_end_to_end(args: &Args, start: Instant) -> (engine::EngineRun, Metrics) {
    let run = engine::run(args.seed, cores(), args.seconds, start, args.trace);
    println!("# {} engine runs to completion", run.runs);
    let m = end_to_end(&Measured {
        setup_s: &run.setup_s,
        cut_ms: &run.cut_ms,
        restore_ms: &run.restore_ms,
        dirty_bytes: run.raw_bytes,
        busy_s: run.run_s,
        wire_bytes: run.ds_bytes,
    });
    (run, m)
}

/// Run one workload; returns the outcome and the metrics to report.
fn run_workload(args: &Args, start: Instant) -> (Outcome, Metrics) {
    let (outcome, mut e2e, layers) = match shape_of(&args.workload) {
        Some(shape) => {
            let (run, fl, m) = fleet_end_to_end(args, shape, start);
            let mut outcome = run.outcome;
            let layers = replay::fleet(&fl, shape, &run, args.trace, &mut outcome);
            (outcome, m, layers)
        }
        None => {
            let (run, m) = engine_end_to_end(args, start);
            let mut outcome = run.outcome;
            let layers = replay::engine(args.seed, &run, args.trace, &mut outcome);
            (outcome, m, layers)
        }
    };
    e2e.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    println!(
        "# failed_frac={} (failed {} of {} operations)",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    if args.trace {
        (outcome, layers)
    } else {
        println!("# end-to-end (tracing off)");
        print!("{}", e2e.render());
        (outcome, e2e)
    }
}

/// Tiny-size run of every workload, both modes: each must pass its checks
/// and emit every metric it is declared to emit, each with a unit.
fn self_test(start: Instant) -> bool {
    let mut all_ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: w.to_string(),
                seed: 7,
                seconds: 0.3,
                trace,
            };
            header(&args);
            let (outcome, metrics) = run_workload(&args, start);
            let want: Vec<&str> = if trace {
                replay::PER_LAYER.iter().map(|(n, _)| *n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            let missing: Vec<&str> = want
                .iter()
                .copied()
                .filter(|n| metrics.get(n).is_none_or(|m| m.unit.is_empty()))
                .collect();
            let ok = outcome.failed == 0 && missing.is_empty() && metrics.0.len() == want.len();
            println!(
                "self-test {w} trace={}: {} (missing {missing:?})",
                trace as u8,
                if ok { "ok" } else { "FAILED" }
            );
            all_ok &= ok;
        }
    }
    all_ok
}

/// Pin glibc malloc's thresholds before anything runs. By default glibc
/// serves large blocks with `mmap` and trims the heap eagerly, and raises
/// both thresholds the first time a large mapped block is freed; whether a
/// run reaches that point early depends on timing, which split runs into a
/// fast mode and a slow one (throughput off by 40%, peak RSS by 25%).
/// Fixed thresholds make every run take the same path: blocks under
/// 32 MiB come from the heap and freed memory under 1 GiB is kept.
/// Returns whether the allocator accepted them (false on other libcs).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets malloc tuning parameters and takes two
    // plain integers. It runs first thing in `main`, before this program
    // starts any thread, and both values are inside the ranges glibc
    // accepts (the mmap threshold may be at most 32 MiB on 64-bit hosts);
    // glibc reports a rejected value by returning 0, which is checked.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() -> bool {
    false
}

fn main() {
    let start = Instant::now();
    let allocator_pinned = pin_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-test") {
        let ok = self_test(start);
        std::process::exit(if ok { 0 } else { 1 });
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    header(&args);
    println!("# malloc mmap_threshold=32MiB trim_threshold=1GiB pinned={allocator_pinned}");
    let (outcome, metrics) = run_workload(&args, start);
    println!("{}", stats::result_json(outcome, &metrics));
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
