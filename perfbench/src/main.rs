//! The runtime's benchmark: four workloads, six end-to-end metrics each,
//! and a traced run with a per-layer breakdown.  See `README.md` in this
//! directory for the workload → layer → metric table.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload smooth --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! Lines before it, each starting with `#`, record the configuration, the
//! host-speed references and (traced) the self time per layer.

mod layers;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Metric, Report};
use spans::Tracer;
use stats::{median, ms, quantile};
use workloads::{Checkpoint, RedistSharded, RedistShared, ScratchDir, Smooth, Workload};

/// Workload names.  `BENCHMARK.json` lists only `redist_shared` and
/// `checkpoint`: on a shared 2-core VM the other two do not hold a steady
/// median from run to run (see `README.md`).  Their layers are probed in
/// every traced run.
const WORKLOADS: [&str; 4] = ["smooth", "redist_shared", "redist_sharded", "checkpoint"];

/// Environment variables that each select a different program (fault
/// injection, tracing, backend or timeouts); a run refuses to start under
/// any of them.
const FORBIDDEN_ENV: [&str; 7] = [
    "VF_FAULT_SEED",
    "VF_FAULT_RATE",
    "VF_TRACE",
    "VF_EXEC_BACKEND",
    "VF_EXEC_CUTOFF",
    "VF_SHARD_TIMEOUT",
    "VF_CHANNEL_TIMEOUT_MS",
];

/// Set-ups per untimed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The timed loop keeps going past `--seconds` until it holds this many
/// ops (so ≥ 10 samples lie beyond p90), for at most three times
/// `--seconds`.
const MIN_OPS: usize = 100;

const USAGE: &str =
    "usage: vf-perfbench --workload <smooth|redist_shared|redist_sharded|checkpoint> \
     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(num(&value)?),
                "--seconds" => seconds = Some(num(&value)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let args = Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        };
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {}", args.workload));
        }
        if args.seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Ops attempted and failed (an error or an oracle mismatch).
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Counts one op; a failure is reported on stderr, never a panic.
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("op {} failed: {e}", self.attempted);
        }
    }
}

/// Runs one op and checks it against the workload's oracle.
fn checked_op<W: Workload>(w: &mut W, tracer: &Tracer) -> Result<(), String> {
    let out = w.op(tracer)?;
    w.check(&out)
}

fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut vf_env: Vec<String> = std::env::vars_os()
        .map(|(k, v)| {
            (
                k.to_string_lossy().into_owned(),
                v.to_string_lossy().into_owned(),
            )
        })
        .filter(|(k, _)| k.starts_with("VF_"))
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.escape_default()))
        .collect();
    vf_env.sort();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"profile\": \"{}\", \"commit\": \"{}\", \"vf_env\": {{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_COMMIT"),
        vf_env.join(", ")
    )
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The untraced run: `SETUPS` set-ups, then the timed closed loop.
fn timed<W: Workload>(args: &Args, dir: &Path, process_start: Instant) -> Result<String, String> {
    let off = Tracer::off();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut state: Option<W> = None;
    for i in 0..SETUPS {
        // Drop the previous set-up first, so peak memory is one set-up's.
        drop(state.take());
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut w = W::setup(args.seed, dir)?;
        // The cold-plan warm-up op belongs to set-up and must be correct.
        checked_op(&mut w, &off).map_err(|e| format!("warm-up op: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up");

    let budget = Duration::from_secs(args.seconds);
    let host = layers::HostKernel::new();
    let (mut lat_ms, mut host_ms, mut cpu) = (Vec::new(), Vec::new(), Duration::ZERO);
    let mut tally = Tally::default();
    let start = Instant::now();
    while start.elapsed() < budget || (lat_ms.len() < MIN_OPS && start.elapsed() < 3 * budget) {
        host_ms.push(host.time_ms());
        let cpu0 = stats::process_cpu();
        let t0 = Instant::now();
        let out = w.op(&off);
        let dt = t0.elapsed();
        cpu += stats::process_cpu().saturating_sub(cpu0);
        lat_ms.push(ms(dt));
        tally.record(out.and_then(|o| w.check(&o)));
    }
    let peak_rss = stats::peak_rss_mb();
    drop(w);

    let ops = lat_ms.len() as f64;
    let (seq_ref, raw_write) = layers::host_reference(args.seed, dir)?;
    // On a shared VM whose speed switches between regimes every few
    // seconds and drifts by half within minutes, raw times jump between
    // runs (on a 2-core VM, ten 20 s `smooth` runs spread by 0.41 of their
    // median between quartiles).  They are printed here; the result line
    // carries them in units of the host kernel timed before every op: the
    // median and the CPU over the kernel's median, the tail as the p90 of
    // each op over its own kernel run, which saw the same host regime.
    let kernel_ms = median(&host_ms);
    let op_over_kernel: Vec<f64> = lat_ms.iter().zip(&host_ms).map(|(op, k)| op / k).collect();
    let cpu_ms_per_op = ms(cpu) / ops;
    println!(
        "# ops={} failed_frac={} op_ms_p50={:.4} ms op_ms_p90={:.4} ms cpu_ms_per_op={cpu_ms_per_op:.4} ms \
         host.kernel_ms_p50={kernel_ms:.4} ms host.seq_ref_ms={seq_ref:.4} ms \
         checkpoint.raw_write_ms={raw_write:.4} ms setups_s={setups:.4?}",
        tally.attempted,
        tally.failed as f64 / ops,
        median(&lat_ms),
        quantile(&lat_ms, 0.9),
    );
    let mut report = Report::default();
    report.add("op_host_p50", median(&lat_ms) / kernel_ms, "ratio");
    report.add("op_host_p90", quantile(&op_over_kernel, 0.9), "ratio");
    report.add("cpu_host_per_op", cpu_ms_per_op / kernel_ms, "ratio");
    // Set-up runs before the loop, so it is scaled by the same run's
    // kernel to the reference VM's speed; the raw seconds are on the `#`
    // line.
    let setup_s = median(&setups) * layers::HostKernel::REFERENCE_MS / kernel_ms;
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss, "MB");
    report.add("ok_frac", 1.0 - tally.failed as f64 / ops, "ratio");
    Ok(result_json(tally.failed == 0, &tally, &report.metrics))
}

/// The traced run: interleaved untraced and traced ops of the workload
/// for half of `--seconds`, then every layer probe.  Prints no
/// end-to-end metric.
fn traced<W: Workload>(args: &Args, dir: &Path) -> Result<String, String> {
    let mut w = W::setup(args.seed, dir)?;
    let tracer = Tracer::on();
    tracer.set_on(false);
    checked_op(&mut w, &tracer).map_err(|e| format!("warm-up op: {e}"))?;
    let lookups0 = w.plan_lookups();

    let budget = Duration::from_secs(args.seconds) / 2;
    let mut untraced_ms = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    while start.elapsed() < budget || untraced_ms.len() < 10 {
        let t0 = Instant::now();
        let outcome = w.op(&tracer);
        untraced_ms.push(ms(t0.elapsed()));
        tally.record(outcome.and_then(|o| w.check(&o)));

        tracer.set_on(true);
        let outcome = {
            let _s = tracer.span("op");
            w.op(&tracer)
        };
        tracer.absorb_program_spans();
        tracer.set_on(false);
        tally.record(outcome.and_then(|o| w.check(&o)));
    }
    let hit_ratio = lookups0
        .zip(w.plan_lookups())
        .map(|((h0, l0), (h1, l1))| (h1 - h0) as f64 / (l1 - l0) as f64);
    drop(w);

    let events = tracer.events();
    let traced_ms = median(&tracer.durations("op")) / 1e6;
    let mut report = Report::default();
    report.add(
        "trace.overhead_frac",
        traced_ms / median(&untraced_ms) - 1.0,
        "ratio",
    );
    report.add(
        "trace.unattributed_frac",
        spans::uncovered_frac(&events, "op"),
        "ratio",
    );
    let traced_ops = tracer.durations("op").len();
    println!("# self time per layer over {traced_ops} traced ops (ms per op):");
    for (name, ns) in spans::self_times(&events) {
        println!(
            "#   {name:<40} {:>12.4}",
            ns as f64 / 1e6 / traced_ops as f64
        );
    }
    let probes = Tracer::on();
    layers::probe_all(&probes, args.seed, dir, hit_ratio, &mut report)?;
    write_artifacts(args, &tracer, &probes);

    let (op_ns, _) = probes.total("apps.smoothing_run");
    let share = |name| 100.0 * probes.total(name).0 as f64 / op_ns as f64;
    println!(
        "# smooth probe ops: {:.1} % inside interior-compute spans, {:.2} % inside ghost-exchange spans",
        share("program.interior-compute"),
        share("program.ghost-exchange")
    );
    for f in &report.failures {
        eprintln!("probe check failed: {f}");
    }
    let correct = tally.failed == 0 && report.failures.is_empty();
    Ok(result_json(correct, &tally, &report.metrics))
}

/// Writes both traces (workload ops, layer probes) as Chrome trace files
/// under `out/` in the benchmark's directory.
fn write_artifacts(args: &Args, ops: &Tracer, probes: &Tracer) {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("trace-{}-seed{}", args.workload, args.seed);
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        std::fs::write(out.join(format!("{stem}-ops.json")), ops.to_chrome_json())?;
        std::fs::write(
            out.join(format!("{stem}-layers.json")),
            probes.to_chrome_json(),
        )
    });
    match written {
        Ok(()) => println!(
            "# traces written to {}/{stem}-{{ops,layers}}.json",
            out.display()
        ),
        Err(e) => eprintln!("warning: traces not written: {e}"),
    }
}

fn run<W: Workload>(args: &Args, process_start: Instant) -> Result<String, String> {
    let dir = ScratchDir::new(&args.workload).map_err(|e| format!("scratch directory: {e}"))?;
    if args.trace {
        traced::<W>(args, dir.path())
    } else {
        timed::<W>(args, dir.path(), process_start)
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vf-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = FORBIDDEN_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "vf-perfbench: refusing to run with {} set: each selects a different program",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    println!("# config {}", fingerprint(&args));
    let result = match args.workload.as_str() {
        "smooth" => run::<Smooth>(&args, process_start),
        "redist_shared" => run::<RedistShared>(&args, process_start),
        "redist_sharded" => run::<RedistSharded>(&args, process_start),
        "checkpoint" => run::<Checkpoint>(&args, process_start),
        _ => unreachable!("validated by Args::parse"),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vf-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_core::prelude::ProcId;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload smooth --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("smooth", 7, 3, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 3 --trace 1").is_err());
        assert!(args("--workload smooth --seed x --seconds 3 --trace 1").is_err());
        assert!(args("--workload smooth --seed 7 --seconds 3 --trace 2").is_err());
        assert!(args("--workload smooth --seed 7 --seconds 3").is_err());
    }

    #[test]
    fn a_flipped_bit_in_an_ops_output_is_counted_as_failed() {
        let dir = ScratchDir::new("test-tally").unwrap();
        let mut w = RedistShared::setup(5, dir.path()).unwrap();
        let off = Tracer::off();
        let mut tally = Tally::default();
        tally.record(checked_op(&mut w, &off));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let out = w.op(&off).unwrap();
        let b = w.scope().array_mut("B").unwrap();
        let x = &mut b.local_mut(ProcId(0))[999];
        *x = f64::from_bits(x.to_bits() ^ 1);
        tally.record(w.check(&out));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn the_result_line_has_the_four_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let mut report = Report::default();
        report.add("x", 0.5, "ms");
        let line = result_json(true, &tally, &report.metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 0.5, \"unit\": \"ms\"}}}"
        );
    }
}
