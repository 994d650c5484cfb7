//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <fleet-replay|branchy-cluster|serve-checkpoint>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting the
//! median set-up time), then runs iterations for `--seconds` and prints
//! every end-to-end metric. With `--trace 1` it prints the per-layer
//! metrics instead and writes the spans to
//! `.bench_out/trace-<workload>-seed<n>.json`. Either way the last
//! stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md`.

mod layers;
mod metrics;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use metrics::{Row, Values, END_TO_END, PER_LAYER};
use oracle::Verdict;
use stats::median;
use trace::Tracer;
use workloads::{Inputs, Kind, Size};

/// Set-ups before the first iteration, and again before every later
/// one; `setup_s` is the median of all of them. Spreading the set-ups
/// over the whole run keeps one noisy stretch of wall time (or one busy
/// core) from deciding the figure.
const SETUP_REPS: usize = 5;
/// Timed iterations per untraced run even when `--seconds` is shorter.
const MIN_ITERATIONS: usize = 3;
/// Leading iterations that are checked but not timed: the first one
/// pays for growing the heap to the workload's size.
const WARMUP_ITERATIONS: usize = 1;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn workload_names() -> Vec<&'static str> {
    Kind::ALL.iter().map(|k| k.name()).collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} {v}: not a whole number"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload} (known: {})",
            workload_names().join(", ")
        )
    })?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1 to 600"));
    }
    Ok(Args {
        kind,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Builds the workload's inputs `SETUP_REPS` times; returns the last
/// inputs and each set-up's time in seconds.
pub fn setup(kind: Kind, seed: u64, size: Size, tracer: &mut Tracer) -> (Inputs, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built: Option<Inputs> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let inputs = tracer.span("setup", |t| Inputs::build(kind, seed, size, t));
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &built {
            assert_eq!(
                prev.digest(),
                inputs.digest(),
                "inputs are deterministic in the seed"
            );
        }
        built = Some(inputs);
    }
    (built.expect("SETUP_REPS > 0"), times)
}

/// Scratch space for one run under `.bench_work/`, removed when dropped.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    fn new(kind: Kind) -> Result<WorkDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let root = PathBuf::from(".bench_work").join(format!(
            "{}-{}-{unique}",
            kind.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir { root })
    }

    /// A subdirectory path (not created).
    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = self.root.parent().map(std::fs::remove_dir);
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What an untraced run measured.
struct Untraced {
    verdict: Verdict,
    values: Values,
    digest: String,
    rates: Vec<f64>,
}

/// The untraced run: set-up, then iterations for `seconds` (at least
/// `MIN_ITERATIONS` timed ones after `WARMUP_ITERATIONS` untimed ones);
/// every iteration is checked by the oracle and must reproduce the first
/// iteration's digest and `sim_*` metrics.
fn untraced_run(kind: Kind, seed: u64, seconds: u64, size: Size) -> Result<Untraced, String> {
    let work = WorkDir::new(kind)?;
    let (inputs, mut setup_times) = setup(kind, seed, size, &mut Tracer::off());
    let mut verdict = Verdict::default();
    let mut rates = Vec::new();
    let mut first: Option<(String, Values)> = None;
    let mut warmups = 0;
    let started = Instant::now();
    while rates.len() < MIN_ITERATIONS || started.elapsed() < Duration::from_secs(seconds) {
        if warmups > 0 {
            setup_times.extend(setup(kind, seed, size, &mut Tracer::off()).1);
        }
        let out = workloads::iteration(&inputs, &work.dir("iter"), &mut Tracer::off())?;
        let mut v = out.verdict;
        match &first {
            None => first = Some((out.digest.clone(), out.sim.clone())),
            Some((digest, sim)) if *digest != out.digest || *sim != out.sim => {
                v.fail_run("an iteration's output differs from the first iteration's");
            }
            Some(_) => {}
        }
        verdict.add(v);
        if warmups < WARMUP_ITERATIONS {
            warmups += 1;
        } else {
            rates.push(out.requests_per_sec());
        }
    }
    let (digest, mut values) = first.expect("at least one iteration ran");
    if let Inputs::Serve(s) = &inputs {
        values.set("sim_cpu_cost_s", workloads::serve_reference_cpu_s(s)?);
    }
    values.set("requests_per_sec", median(&rates));
    values.set("setup_s", median(&setup_times));
    values.set("peak_rss_mb", peak_rss_mb());
    values.set(
        "success_ratio",
        1.0 - verdict.failed as f64 / verdict.attempted.max(1) as f64,
    );
    Ok(Untraced {
        verdict,
        values,
        digest,
        rates,
    })
}

fn write_spans(args: &Args, spans: &serde_json::Value) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.kind.name(), args.seed));
    std::fs::write(&path, spans.to_json_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<(Verdict, Vec<Row>), String> {
    if args.trace {
        let work = WorkDir::new(args.kind)?;
        let traced = layers::traced_run(args.kind, args.seed, args.seconds, &work)?;
        let path = write_spans(args, &traced.spans)?;
        println!("spans written to {}", path.display());
        Ok((traced.verdict, traced.values.ordered(&PER_LAYER)))
    } else {
        let run = untraced_run(args.kind, args.seed, args.seconds, Size::BENCH)?;
        let shown: Vec<String> = run.rates.iter().map(|r| format!("{r:.0}")).collect();
        println!(
            "{}: seed {}, output digest {}, {} iterations at req/s [{}]",
            args.kind.name(),
            args.seed,
            run.digest,
            run.rates.len(),
            shown.join(" ")
        );
        Ok((run.verdict, run.values.ordered(&END_TO_END)))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload_names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (verdict, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>18.6} {unit}");
    }
    println!(
        "  oracle: {} of {} requests failed",
        verdict.failed, verdict.attempted
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0 && verdict.attempted > 0,
        verdict.attempted,
        verdict.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug build.
    const TINY: Size = Size {
        invocations: 1_500,
        stream_events: 1_200,
        checkpoint_every: 400,
    };

    #[test]
    fn seeds_change_the_inputs_but_not_the_metric_set() {
        for kind in Kind::ALL {
            let name = kind.name();
            let build = |seed| Inputs::build(kind, seed, TINY, &mut Tracer::off()).digest();
            assert_ne!(
                build(1),
                build(2),
                "{name}: seeds 1 and 2 give the same inputs"
            );
            assert_eq!(build(1), build(1), "{name}: inputs are not deterministic");

            let names = |seed| {
                let run = untraced_run(kind, seed, 0, TINY).expect("workload runs");
                assert_eq!(
                    run.verdict.failed, 0,
                    "{name}: oracle failures at seed {seed}"
                );
                run.values
                    .ordered(&END_TO_END)
                    .into_iter()
                    .map(|(n, _, _)| n)
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(1), names(2), "{name}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload fleet-replay --seed 3 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload fleet-replay --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload fleet-replay --seconds 10 --trace 0")).is_err());
    }
}
