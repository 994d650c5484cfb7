//! Output oracle: invariants checked against the benchmark's own inputs,
//! not against the program's earlier output. Every violation counts
//! toward `failed`.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use serde_json::Value;
use xanadu::xanadu_platform::shard::ShardWorkload;
use xanadu::xanadu_platform::{PlatformReport, SegmentLog};

use crate::stats::fnv1a64;

/// Outcome of one oracle pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Requests triggered.
    pub attempted: u64,
    /// Requests without exactly one valid result (or all of them, when a
    /// run-level invariant fails).
    pub failed: u64,
}

impl Verdict {
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Marks every request failed: the run broke an invariant that no
    /// single request owns (a digest, a checkpoint log, a sum).
    pub fn fail_run(&mut self, why: &str) {
        eprintln!("oracle: {why}");
        self.failed = self.attempted;
    }
}

/// Checks a replay report against its inputs: each trigger has exactly
/// one result with a unique request id, `end_to_end == exec_reference +
/// overhead`, and on linear chains of `depth` every function executed
/// once with one start each.
pub fn check_replay(
    workloads: &[ShardWorkload],
    report: &PlatformReport,
    linear_depth: Option<u32>,
) -> Verdict {
    // Expected multiplicity of every (workflow, trigger time) pair.
    let mut expected: BTreeMap<(&str, u64), u32> = BTreeMap::new();
    for w in workloads {
        for t in &w.triggers {
            *expected.entry((w.dag.name(), t.as_micros())).or_default() += 1;
        }
    }
    let attempted: u64 = expected.values().map(|&n| u64::from(n)).sum();

    let mut seen_ids = HashSet::with_capacity(report.results.len());
    let mut got: BTreeMap<(&str, u64), (u32, u32)> = BTreeMap::new(); // (results, bad)
    let mut unmatched = 0u64;
    for r in &report.results {
        let mut bad = !seen_ids.insert(r.request);
        bad |= r.end_to_end != r.exec_reference + r.overhead;
        if let Some(depth) = linear_depth {
            bad |= r.executed_functions != depth;
            bad |= r.cold_starts + r.warm_starts != r.executed_functions;
        }
        let key = (r.workflow.as_str(), r.trigger.as_micros());
        if !expected.contains_key(&key) {
            unmatched += 1;
            continue;
        }
        let slot = got.entry(key).or_default();
        slot.0 += 1;
        slot.1 += u32::from(bad);
    }

    let mut failed = unmatched;
    for (key, &want) in &expected {
        let (n, bad) = got.get(key).copied().unwrap_or_default();
        failed += if n == want {
            u64::from(bad)
        } else {
            u64::from(want)
        };
    }
    Verdict {
        attempted,
        failed: failed.min(attempted),
    }
}

/// File names inside a serve iteration's output directory.
pub const CHECKPOINTS: &str = "checkpoints";
pub const ALERTS: &str = "alerts.jsonl";
pub const AUDIT: &str = "audit.json";

/// What a `serve` run left behind for the oracle.
pub struct ServeOutputs<'a> {
    /// Stream events the benchmark generated independently.
    pub stream_events: u64,
    /// Epoch width the run was asked for.
    pub checkpoint_every: u64,
    /// `run_serve`'s human summary (carries the digest and alert count).
    pub summary: &'a str,
    /// The output directory holding [`CHECKPOINTS`], [`ALERTS`] and
    /// [`AUDIT`].
    pub dir: &'a Path,
}

/// Checks a serve run: audit requests equal stream events, the four
/// critical-path components sum to the end-to-end sum, the checkpoint
/// log replays with verified digests and one segment per epoch, the
/// alerts file holds one line per alert, and the printed audit digest is
/// the FNV-1a of the exported audit.
pub fn check_serve(out: &ServeOutputs) -> Verdict {
    let mut v = Verdict {
        attempted: out.stream_events,
        failed: 0,
    };
    let audit_json = std::fs::read_to_string(out.dir.join(AUDIT)).unwrap_or_default();
    let audit: Value = match serde_json::from_str(&audit_json) {
        Ok(doc) => doc,
        Err(e) => {
            v.fail_run(&format!("audit export does not parse: {e:?}"));
            return v;
        }
    };
    let requests = audit["requests"].as_u64().unwrap_or(0);
    if requests != out.stream_events {
        v.failed = out.stream_events.abs_diff(requests).max(1);
        eprintln!(
            "oracle: audit holds {requests} requests for {} stream events",
            out.stream_events
        );
    }

    let parts: f64 = ["exec", "cold_start_wait", "queue_wait", "stall"]
        .iter()
        .map(|c| {
            audit["components"][*c]["total_ms"]
                .as_f64()
                .unwrap_or(f64::NAN)
        })
        .sum();
    let e2e = audit["end_to_end_ms"]["sum_ms"]
        .as_f64()
        .unwrap_or(f64::NAN);
    let sums_agree = (parts - e2e).abs() <= 1e-6 * e2e.abs().max(1.0);
    if !sums_agree {
        v.fail_run(&format!(
            "components sum to {parts} ms, end-to-end to {e2e} ms"
        ));
    }

    let log = SegmentLog::open(out.dir.join(CHECKPOINTS));
    let segments = log
        .as_ref()
        .ok()
        .and_then(|l| l.manifest().ok())
        .map(|m| m.segments.len());
    let expected_segments = out.stream_events.div_ceil(out.checkpoint_every) as usize;
    match log.map(|l| l.replay()) {
        Ok(Ok(_)) if segments == Some(expected_segments) => {}
        Ok(Ok(_)) => v.fail_run(&format!(
            "{segments:?} checkpoint segments, expected {expected_segments}"
        )),
        Ok(Err(e)) | Err(e) => v.fail_run(&format!("checkpoint log does not replay: {e}")),
    }

    let alert_lines = std::fs::read_to_string(out.dir.join(ALERTS))
        .map(|t| t.lines().count() as u64)
        .ok();
    if alert_lines.is_none() || alert_lines != summary_alerts(out.summary) {
        v.fail_run(&format!(
            "alerts file has {alert_lines:?} lines, summary reports {:?} alerts",
            summary_alerts(out.summary)
        ));
    }

    let digest = format!("fnv1a64:{:016x}", fnv1a64(audit_json.as_bytes()));
    if summary_digest(out.summary) != Some(digest.as_str()) {
        v.fail_run(&format!("printed audit digest differs from {digest}"));
    }
    v
}

/// The alert count on the summary's `slo: … N alert(s)` line.
fn summary_alerts(summary: &str) -> Option<u64> {
    let line = summary.lines().find(|l| l.starts_with("slo: "))?;
    let head = line.strip_suffix(" alert(s)")?;
    head.rsplit(' ').next()?.parse().ok()
}

/// The digest on the summary's `audit digest: …` line.
pub fn summary_digest(summary: &str) -> Option<&str> {
    summary
        .lines()
        .find_map(|l| l.strip_prefix("audit digest: "))
        .map(str::trim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xanadu::xanadu_chain::{linear_chain, FunctionSpec};
    use xanadu::xanadu_core::speculation::ExecutionMode;
    use xanadu::xanadu_platform::shard::{replay_sharded, ShardOptions};
    use xanadu::xanadu_platform::PlatformConfig;
    use xanadu::xanadu_simcore::{SimDuration, SimTime};

    fn small_replay() -> (Vec<ShardWorkload>, PlatformReport) {
        let workloads: Vec<ShardWorkload> = (0..3)
            .map(|i| ShardWorkload {
                dag: linear_chain(
                    format!("wf{i}"),
                    4,
                    &FunctionSpec::new(format!("wf{i}-f")).service_ms(400.0),
                )
                .unwrap(),
                triggers: (0..5).map(|k| SimTime::from_secs(100 * k + i)).collect(),
            })
            .collect();
        let config = PlatformConfig::for_mode(ExecutionMode::Jit, 7);
        let run = replay_sharded(&config, workloads.clone(), &ShardOptions::default()).unwrap();
        (workloads, run.report)
    }

    #[test]
    fn a_correct_report_passes() {
        let (workloads, report) = small_replay();
        let v = check_replay(&workloads, &report, Some(4));
        assert_eq!(
            v,
            Verdict {
                attempted: 15,
                failed: 0
            }
        );
    }

    #[test]
    fn one_dropped_result_counts_as_one_failure() {
        let (workloads, mut report) = small_replay();
        report.results.remove(6);
        let v = check_replay(&workloads, &report, Some(4));
        assert_eq!(
            v,
            Verdict {
                attempted: 15,
                failed: 1
            }
        );
    }

    #[test]
    fn one_perturbed_overhead_counts_as_one_failure() {
        let (workloads, mut report) = small_replay();
        report.results[3].overhead += SimDuration::from_millis(1);
        let v = check_replay(&workloads, &report, Some(4));
        assert_eq!(
            v,
            Verdict {
                attempted: 15,
                failed: 1
            }
        );
    }

    #[test]
    fn a_duplicated_result_fails_its_trigger() {
        let (workloads, mut report) = small_replay();
        let dup = report.results[2].clone();
        report.results.push(dup);
        let v = check_replay(&workloads, &report, Some(4));
        assert_eq!(v.failed, 1);
    }

    #[test]
    fn a_wrong_chain_depth_fails_every_request() {
        let (workloads, report) = small_replay();
        assert_eq!(check_replay(&workloads, &report, Some(5)).failed, 15);
    }

    #[test]
    fn a_corrupt_checkpoint_segment_fails_the_serve_run() {
        use crate::trace::Tracer;
        use crate::workloads::{run_serve_into, Inputs, Kind, Size};
        let size = Size {
            invocations: 0,
            stream_events: 600,
            checkpoint_every: 200,
        };
        let Inputs::Serve(inp) = Inputs::build(Kind::ServeCheckpoint, 5, size, &mut Tracer::off())
        else {
            unreachable!("serve-checkpoint builds serve inputs")
        };
        let dir = Path::new(".bench_work").join(format!("oracle-{}", std::process::id()));
        let (_, summary) = run_serve_into(&inp, 200, &dir, &mut Tracer::off()).unwrap();
        let outputs = ServeOutputs {
            stream_events: 600,
            checkpoint_every: 200,
            summary: &summary,
            dir: &dir,
        };
        assert_eq!(
            check_serve(&outputs),
            Verdict {
                attempted: 600,
                failed: 0
            }
        );

        let segment = dir.join(CHECKPOINTS).join("segment-000001.json");
        let mut text = std::fs::read_to_string(&segment).unwrap();
        text.push(' ');
        std::fs::write(&segment, text).unwrap();
        let failed = check_serve(&outputs).failed;
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(failed, 600);
    }

    #[test]
    fn summary_lines_parse() {
        let text = "slo: 419 window(s) of 60s, 3 alert(s)\naudit digest: fnv1a64:00ff\n";
        assert_eq!(summary_alerts(text), Some(3));
        assert_eq!(summary_digest(text), Some("fnv1a64:00ff"));
    }
}
