//! The `xanadu serve` daemon tier: unbounded stream ingest with cursor
//! checkpoints and a live observability plane.
//!
//! `serve` is a replay plus a cursor. One long-lived [`Platform`], built
//! exactly as a batch replay of the stream builds it, ingests the trigger
//! stream in *epochs* of `--checkpoint-every` events. Each epoch enqueues
//! only its own slice of triggers and runs the platform strictly up to
//! the next slice's first trigger. Warm workers, keep-alive timers,
//! learned chain profiles and RNG positions therefore carry across epoch
//! boundaries, and the cadence changes nothing that is simulated (see
//! [`Platform::trigger_at`] for the tie rule that makes slice-by-slice
//! ingest equal to up-front ingest). After each epoch one segment holding
//! only the `serve/cursor` document is appended to a [`SegmentLog`] under
//! `--checkpoint-dir`.
//!
//! Rerunning the same command after a kill resumes at the recorded
//! cursor by re-simulating the prefix it covers, silently: no segment
//! appends and no alert-file writes. The re-derived counts must equal
//! the cursor's, or the resume fails with
//! [`CliError::CheckpointMismatch`]. The final audit, SLO and alert
//! exports are **byte-identical** to an uninterrupted run at any cadence.
//! Resume costs O(prefix) simulation; serve holds the whole stream in
//! memory anyway.
//!
//! Observability while running:
//!
//! * `--alerts-out` — every SLO breach appended as one schema-validated
//!   JSON line the moment its window becomes final (see
//!   [`SloMonitor::evaluate_below`] for why a window is only final once
//!   the next trigger time has passed it).
//! * `--metrics-text` — a Prometheus-style text exposition rewritten
//!   atomically (`.tmp` + rename) after every checkpoint.
//! * `--status-every K` — a human status line on stderr every K
//!   checkpoints (stream uptime, ingest rate, window quantiles, open
//!   alerts, sketch occupancy, checkpoint lag).
//!
//! Unlike the other subcommands, `serve` touches the filesystem
//! directly while running (the checkpoint log, the alerts stream and
//! the metrics text are *live* artifacts, not end-of-run exports); only
//! the final `--audit-out`/`--slo-out`/`--bench-out` documents go
//! through the staged-[`ExportFile`] path.

use std::io::Write as _;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::cli::{render_slo_alert, CliError, ExportFile};
use xanadu_chain::{linear_chain, FunctionSpec};
use xanadu_core::speculation::ExecutionMode;
use xanadu_core::{CountMinSketch, SpaceSaving};
use xanadu_platform::export::{
    alert_json_line, service_metrics_text, slo_json_string, streaming_json_string, ServiceStatus,
};
use xanadu_platform::{
    BusEvent, DiffThresholds, MetaStore, ObserverHandle, Platform, PlatformConfig, SegmentLog,
    SloAlert, SloConfig, SloMonitor, StreamingAudit, StreamingConfig,
};
use xanadu_simcore::{fnv1a64, SimDuration, SimTime};
use xanadu_workloads::stream::{
    GeneratedStream, RecordedStream, StreamEvent, StreamHeader, StreamSource,
};

/// Arguments of `xanadu serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Path of a recorded stream file (`xanadu record`); when absent the
    /// stream is regenerated from the population flags below.
    pub stream: Option<String>,
    /// Generated-stream length (ignored with `--stream`).
    pub events: u64,
    /// Generated-stream workflow population (ignored with `--stream`).
    pub workflows: u32,
    /// Linear-chain depth of every workflow (ignored with `--stream`).
    pub depth: u32,
    /// Per-workflow Poisson arrival rate (ignored with `--stream`).
    pub rate_per_hour: f64,
    /// Master seed: arrival processes and the platform.
    pub seed: u64,
    /// Xanadu execution mode of the platform.
    pub mode: ExecutionMode,
    /// Directory of the append-only checkpoint segment log.
    pub checkpoint_dir: String,
    /// Stream events per checkpoint epoch.
    pub checkpoint_every: u64,
    /// Append one JSON alert line here per SLO breach
    /// (`docs/schemas/alerts.schema.json`).
    pub alerts_out: Option<String>,
    /// Rewrite this Prometheus-style text file atomically each flush.
    pub metrics_text: Option<String>,
    /// Write the final streaming-audit JSON here.
    pub audit_out: Option<String>,
    /// Write the final windowed SLO evaluation JSON here.
    pub slo_out: Option<String>,
    /// Path of a `DiffThresholds` JSON document gating the SLO windows.
    pub slo: Option<String>,
    /// Tumbling SLO window width in simulated seconds.
    pub slo_window_secs: u64,
    /// Stop after this many checkpoints (0 = run to stream end). The
    /// kill-and-restart suites use this to pause at an exact boundary.
    pub stop_after_checkpoints: u64,
    /// Print a stderr status line every K checkpoints (0 = off).
    pub status_every: u64,
    /// Capacity of the space-saving edge sketch.
    pub sketch_edges: usize,
    /// Merge a `service` throughput row into this `BENCH_harness.json`.
    pub bench_out: Option<String>,
    /// Exit non-zero when the run ends with any SLO alert raised.
    pub fail_on_alert: bool,
}

/// Arguments of `xanadu record`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordArgs {
    /// Destination stream file.
    pub out: String,
    /// Events to record.
    pub events: u64,
    /// Workflow population.
    pub workflows: u32,
    /// Linear-chain depth of every workflow.
    pub depth: u32,
    /// Per-workflow Poisson arrival rate.
    pub rate_per_hour: f64,
    /// Master seed.
    pub seed: u64,
}

/// Id of the one document each checkpoint segment holds.
const DOC_CURSOR: &str = "serve/cursor";

/// [`ServeCursor`] layout version; 2 added seed, mode, sketch and SLO;
/// 3 split the SLO checkpoint into per-epoch final documents; 4 keeps
/// only the cursor, since resume re-simulates the prefix.
const CURSOR_VERSION: u64 = 4;

/// The resume cursor: every knob a resume must repeat (see
/// [`load_cursor`]) and the counts the prefix it covers must re-derive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServeCursor {
    /// Cursor format version ([`CURSOR_VERSION`]).
    version: u64,
    /// Digest of the stream header — resuming against a different
    /// stream is a mechanical error, not a guess.
    header_digest: String,
    /// Epoch width the checkpoints were cut at.
    checkpoint_every: u64,
    /// Master seed of the platform (`--seed`).
    seed: u64,
    /// Execution mode of the platform (`--mode`).
    mode: ExecutionMode,
    /// Capacity of the edge sketch (`--sketch-edges`).
    sketch_edges: usize,
    /// Tumbling SLO window width (`--slo-window-secs`).
    slo_window_secs: u64,
    /// Digest of the SLO thresholds document (`--slo`).
    slo_digest: String,
    /// Stream events consumed at the cut: where a resume picks up.
    events_consumed: u64,
    /// Requests completed at the cut.
    requests_completed: u64,
    /// Alerts emitted at the cut.
    alerts_emitted: u64,
}

/// The bounded-memory learning plane: hot invocation edges (candidates
/// for speculative pre-warm across implicit chains) plus per-workflow
/// arrival-rate estimates. Recomputed from the stream prefix on resume.
#[derive(Debug)]
struct SketchState {
    /// Space-saving top-K over `caller>callee` edge keys.
    edges: SpaceSaving,
    /// Count-min per-workflow arrival counts.
    rates: CountMinSketch,
}

/// Rows of the count-min arrival sketch (error bound `e/width · N` per
/// estimate with probability `1 − e^−depth`).
const RATE_SKETCH_DEPTH: usize = 4;
const RATE_SKETCH_WIDTH: usize = 512;

/// `fnv1a64:<hex>` over the compact JSON of `value`.
fn json_digest(value: &impl Serialize) -> String {
    let json = serde_json::to_value(value)
        .expect("value serializes")
        .to_json_string();
    format!("fnv1a64:{:016x}", fnv1a64(json.as_bytes()))
}

fn workflow_err(e: impl std::fmt::Display) -> CliError {
    CliError::Workflow(e.to_string())
}

/// Drains a stream source into its header and full event list.
fn drain_stream(mut src: impl StreamSource) -> (StreamHeader, Vec<StreamEvent>) {
    let header = src.header().clone();
    let mut events = Vec::with_capacity(header.events as usize);
    while let Some(ev) = src.next_event() {
        events.push(ev);
    }
    (header, events)
}

/// Runs `xanadu record`: generate the seeded stream and stage it as a
/// JSONL export.
pub fn run_record(record: &RecordArgs, exports: &mut Vec<ExportFile>) -> Result<String, CliError> {
    if record.workflows == 0 {
        return Err(CliError::BadValue {
            flag: "--workflows".into(),
            value: "0".into(),
            expected: "a non-empty workflow population".into(),
        });
    }
    let (header, events) = drain_stream(GeneratedStream::new(
        record.workflows,
        record.depth,
        record.rate_per_hour,
        record.seed,
        record.events,
    ));
    let contents = RecordedStream::render(&header, &events);
    let span_s = events.last().map_or(0.0, |e| e.at_us as f64 / 1e6);
    exports.push(ExportFile {
        path: record.out.clone(),
        contents,
    });
    Ok(format!(
        "recorded {} events — {} workflows × depth {} at {}/h each (seed {}), \
         spanning {span_s:.1}s of stream time\n",
        events.len(),
        header.workflows,
        header.depth,
        header.rate_per_hour,
        header.seed,
    ))
}

/// Reads the cursor of a replayed checkpoint store, if there is one, and
/// checks that every knob shaping the simulation matches `identity`, the
/// cursor this run would write: a resumed run must not blend two
/// configurations.
fn load_cursor(
    durable: &MetaStore,
    identity: &ServeCursor,
    dir: &str,
) -> Result<Option<ServeCursor>, CliError> {
    let Some((doc, _)) = durable.get(DOC_CURSOR) else {
        return Ok(None);
    };
    let version = doc.get("version").and_then(Value::as_u64).unwrap_or(0);
    if version != CURSOR_VERSION {
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} has cursor version {version}, not {CURSOR_VERSION}; \
             point --checkpoint-dir at a fresh directory",
        )));
    }
    let cursor: ServeCursor = serde_json::from_value(doc.clone()).map_err(|e| {
        CliError::Workflow(format!("checkpoint document {DOC_CURSOR} is corrupt: {e}"))
    })?;
    if cursor.header_digest != identity.header_digest {
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} was recorded from a different stream \
             (header digest {} != {}); point --checkpoint-dir \
             at a fresh directory or replay the original stream",
            cursor.header_digest, identity.header_digest
        )));
    }
    let knobs = |c: &ServeCursor| {
        [
            ("--checkpoint-every", c.checkpoint_every.to_string()),
            ("--slo-window-secs", format!("{}s", c.slo_window_secs)),
            ("--seed", c.seed.to_string()),
            ("--mode", c.mode.label().to_string()),
            ("--sketch-edges", c.sketch_edges.to_string()),
            ("--slo", c.slo_digest.clone()),
        ]
    };
    for ((flag, value), (_, recorded)) in knobs(identity).into_iter().zip(knobs(&cursor)) {
        if value != recorded {
            return Err(CliError::BadValue {
                flag: flag.into(),
                value,
                expected: format!("{recorded}, as recorded by the checkpoint in {dir}"),
            });
        }
    }
    Ok(Some(cursor))
}

/// The running service: one platform over the whole stream, its audit
/// and SLO observers, the sketches, and how far into the stream it is.
struct Service<'a> {
    header: &'a StreamHeader,
    events: &'a [StreamEvent],
    checkpoint_every: u64,
    window_us: u64,
    platform: Platform,
    audit: ObserverHandle<StreamingAudit>,
    slo: ObserverHandle<SloMonitor>,
    sketch: SketchState,
    events_consumed: u64,
    epochs: u64,
}

impl<'a> Service<'a> {
    /// Deploys the stream's implicit workflow population on one platform
    /// and attaches the observers that are serve's only record.
    fn new(
        serve: &ServeArgs,
        slo_config: &SloConfig,
        header: &'a StreamHeader,
        events: &'a [StreamEvent],
    ) -> Result<Self, CliError> {
        let config = PlatformConfig::builder()
            .for_mode(serve.mode, serve.seed)
            .record_traces(false)
            .build()
            .map_err(workflow_err)?;
        let mut platform = Platform::new(config);
        for wf in 0..header.workflows {
            let name = header.workflow_name(wf);
            let template = FunctionSpec::new(format!("{name}-f")).service_ms(400.0);
            let dag =
                linear_chain(&name, header.depth as usize, &template).map_err(workflow_err)?;
            platform.deploy_implicit(dag).map_err(workflow_err)?;
        }
        let audit = platform.attach_observer(StreamingAudit::new(StreamingConfig::default()));
        let slo = platform.attach_observer(SloMonitor::collector(slo_config.clone()));
        Ok(Service {
            header,
            events,
            checkpoint_every: serve.checkpoint_every,
            window_us: slo_config.window.as_micros(),
            platform,
            audit,
            slo,
            sketch: SketchState {
                edges: SpaceSaving::new(serve.sketch_edges),
                rates: CountMinSketch::new(RATE_SKETCH_DEPTH, RATE_SKETCH_WIDTH),
            },
            events_consumed: 0,
            epochs: 0,
        })
    }

    /// Ingests the next epoch's slice of triggers and runs the platform
    /// to the cut: strictly before the next slice's first trigger, or to
    /// idle after the last slice. Returns the alerts of the SLO windows
    /// the cut made final.
    fn advance(&mut self) -> Result<Vec<SloAlert>, CliError> {
        let start = self.events_consumed as usize;
        let end = self
            .events_consumed
            .saturating_add(self.checkpoint_every)
            .min(self.events.len() as u64) as usize;
        for ev in &self.events[start..end] {
            let name = self.header.workflow_name(ev.wf);
            self.sketch.rates.observe(&name, 1);
            for hop in 1..self.header.depth {
                let edge = format!("{name}-f{}>{name}-f{hop}", hop - 1);
                self.sketch.edges.observe(&edge);
            }
            self.platform
                .trigger_at(&name, ev.at())
                .map_err(workflow_err)?;
        }
        // Every completion still to come lands at or after the cut, so
        // the SLO windows wholly before it are final.
        let horizon = match self.events.get(end) {
            Some(next) => {
                if let Some(last) = next.at_us.checked_sub(1) {
                    self.platform.run_until(SimTime::from_micros(last));
                }
                next.at_us / self.window_us
            }
            None => {
                self.platform.run_until_idle();
                u64::MAX
            }
        };
        // The streaming audit is serve's only record of a request.
        self.platform.clear_results();
        self.events_consumed = end as u64;
        self.epochs += 1;
        Ok(self.slo.with_mut(|slo| slo.evaluate_below(horizon)))
    }

    /// The cursor at the current cut.
    fn cursor(&self, identity: &ServeCursor) -> ServeCursor {
        ServeCursor {
            events_consumed: self.events_consumed,
            requests_completed: self.audit.with(|audit| audit.summary().requests),
            alerts_emitted: self.slo.with(|slo| slo.alerts().len() as u64),
            ..identity.clone()
        }
    }
}

/// Checks the counts re-derived from the stream prefix against the
/// cursor that recorded them.
fn verify_resume(recorded: &ServeCursor, derived: &ServeCursor, dir: &str) -> Result<(), CliError> {
    let counts = |c: &ServeCursor| {
        [
            ("events_consumed", c.events_consumed),
            ("requests_completed", c.requests_completed),
            ("alerts_emitted", c.alerts_emitted),
        ]
    };
    for ((field, recorded), (_, derived)) in counts(recorded).into_iter().zip(counts(derived)) {
        if recorded != derived {
            return Err(CliError::CheckpointMismatch {
                dir: dir.to_string(),
                field: field.to_string(),
                recorded,
                derived,
            });
        }
    }
    Ok(())
}

/// Atomically replaces `path` with `contents` (`.tmp` + rename, same
/// discipline as the checkpoint log) so scrapers never see a torn file.
fn rewrite_atomic(path: &str, contents: &str) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| workflow_err(format!("{tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| workflow_err(format!("{path}: {e}")))
}

/// Runs `xanadu serve` end to end. See the module docs for the epoch
/// protocol and which artifacts are live versus staged.
///
/// # Errors
///
/// [`CliError::Workflow`] on stream/checkpoint problems,
/// [`CliError::BadValue`] when a resume changes a knob the checkpoint
/// recorded, [`CliError::CheckpointMismatch`] when the re-simulated
/// prefix disagrees with the checkpoint, and [`CliError::SloBreach`] when
/// `--fail-on-alert` is set and the run ends with alerts raised.
pub fn run_serve(
    serve: &ServeArgs,
    source: &impl Fn(&str) -> Result<String, String>,
    exports: &mut Vec<ExportFile>,
) -> Result<String, CliError> {
    let (header, events) = match &serve.stream {
        Some(path) => {
            let text = source(path).map_err(CliError::Workflow)?;
            let recorded = RecordedStream::parse(&text)
                .map_err(|e| CliError::Workflow(format!("{path}: {e}")))?;
            drain_stream(recorded)
        }
        None => drain_stream(GeneratedStream::new(
            serve.workflows,
            serve.depth,
            serve.rate_per_hour,
            serve.seed,
            serve.events,
        )),
    };

    let thresholds: DiffThresholds = match &serve.slo {
        None => DiffThresholds::default(),
        Some(path) => {
            let text = source(path).map_err(CliError::Workflow)?;
            serde_json::from_str(&text).map_err(|e| {
                CliError::Workflow(format!("{path}: not a thresholds document: {e}"))
            })?
        }
    };
    let identity = ServeCursor {
        version: CURSOR_VERSION,
        header_digest: json_digest(&header),
        checkpoint_every: serve.checkpoint_every,
        seed: serve.seed,
        mode: serve.mode,
        sketch_edges: serve.sketch_edges,
        slo_window_secs: serve.slo_window_secs,
        slo_digest: json_digest(&thresholds),
        events_consumed: 0,
        requests_completed: 0,
        alerts_emitted: 0,
    };
    let slo_config = SloConfig {
        window: SimDuration::from_secs(serve.slo_window_secs),
        thresholds,
    };

    let log = SegmentLog::open(&serve.checkpoint_dir)
        .map_err(|e| workflow_err(format!("checkpoint log: {e}")))?;
    let durable = log
        .replay()
        .map_err(|e| workflow_err(format!("checkpoint log: {e}")))?;
    let mut segments = log
        .manifest()
        .map_err(|e| workflow_err(format!("checkpoint log: {e}")))?
        .segments
        .len() as u64;
    let resume = load_cursor(&durable, &identity, &serve.checkpoint_dir)?;

    let started = Instant::now();
    let total = events.len() as u64;
    let mut service = Service::new(serve, &slo_config, &header, &events)?;
    if let Some(recorded) = &resume {
        // Re-derive the durable prefix silently: its segments and alert
        // lines are already written.
        while service.events_consumed < recorded.events_consumed.min(total) {
            service.advance()?;
        }
        verify_resume(recorded, &service.cursor(&identity), &serve.checkpoint_dir)?;
        service.platform.announce(BusEvent::CheckpointRestored {
            epoch: service.epochs,
            segments,
            events: service.events_consumed,
        });
    }
    // Throughput counts only the events this run ingests past the cursor;
    // its wall time still includes re-simulating the prefix.
    let resumed_at = service.events_consumed;

    // The alerts stream is rewritten to exactly the durable alert list on
    // startup: a crash after an append but before the matching checkpoint
    // must not leave phantom lines behind.
    if let Some(path) = &serve.alerts_out {
        let mut text = String::new();
        for alert in service.slo.with(|slo| slo.alerts().to_vec()) {
            text.push_str(&alert_json_line(&alert));
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| workflow_err(format!("{path}: {e}")))?;
    }

    let mut checkpoints_this_run = 0u64;
    while service.events_consumed < total {
        if serve.stop_after_checkpoints > 0 && checkpoints_this_run >= serve.stop_after_checkpoints
        {
            break;
        }
        let evictions_before = service.sketch.edges.evictions();
        let fresh_alerts = service.advance()?;
        if !fresh_alerts.is_empty() {
            if let Some(path) = &serve.alerts_out {
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(path)
                    .map_err(|e| workflow_err(format!("{path}: {e}")))?;
                for alert in &fresh_alerts {
                    writeln!(file, "{}", alert_json_line(alert))
                        .map_err(|e| workflow_err(format!("{path}: {e}")))?;
                }
            }
            for alert in fresh_alerts {
                service.platform.announce(alert.into_event());
            }
        }
        let sketch = &service.sketch;
        let evicted = sketch.edges.evictions() - evictions_before;
        if evicted > 0 {
            let event = BusEvent::SketchEviction {
                evicted,
                occupancy: sketch.edges.occupancy() as u64,
                capacity: sketch.edges.capacity() as u64,
            };
            service.platform.announce(event);
        }

        let cursor = service.cursor(&identity);
        let doc = serde_json::to_value(&cursor).expect("cursor serializes");
        log.append(&[(DOC_CURSOR.to_string(), doc)])
            .map_err(|e| workflow_err(format!("checkpoint log: {e}")))?;
        checkpoints_this_run += 1;
        service.platform.announce(BusEvent::CheckpointWritten {
            epoch: service.epochs - 1,
            segment: segments,
            docs: 1,
            events: cursor.events_consumed,
        });
        segments += 1;

        let summary = service.audit.with(StreamingAudit::summary);
        let wall = started.elapsed().as_secs_f64();
        let sketch = &service.sketch;
        let status = ServiceStatus {
            uptime_ms: events[cursor.events_consumed as usize - 1].at_us as f64 / 1000.0,
            events: cursor.events_consumed,
            requests: cursor.requests_completed,
            checkpoints: service.epochs,
            alerts: cursor.alerts_emitted,
            sketch_occupancy: sketch.edges.occupancy() as u64,
            sketch_capacity: sketch.edges.capacity() as u64,
            sketch_evictions: sketch.edges.evictions(),
            checkpoint_lag_events: total - cursor.events_consumed,
            events_per_sec: if wall > 0.0 {
                (cursor.events_consumed - resumed_at) as f64 / wall
            } else {
                0.0
            },
        };
        if serve.status_every > 0 && checkpoints_this_run.is_multiple_of(serve.status_every) {
            eprintln!(
                "serve: epoch {} | stream {:.1}s | {}/{} events | {:.0} ev/s | \
                 p50 {:.0}ms p95 {:.0}ms | alerts {} | sketch {}/{} | lag {}",
                service.epochs - 1,
                status.uptime_ms / 1000.0,
                status.events,
                total,
                status.events_per_sec,
                summary.end_to_end.quantile_ms(0.5),
                summary.end_to_end.quantile_ms(0.95),
                status.alerts,
                status.sketch_occupancy,
                status.sketch_capacity,
                status.checkpoint_lag_events,
            );
        }
        if let Some(path) = &serve.metrics_text {
            rewrite_atomic(path, &service_metrics_text(&status, &summary))?;
        }
    }

    let (audit_json, summary) = service
        .audit
        .with(|audit| (streaming_json_string(audit), audit.summary()));
    let (slo_report, alerts) = service
        .slo
        .with(|slo| (slo.report(), slo.alerts().to_vec()));
    let audit_digest = format!("fnv1a64:{:016x}", fnv1a64(audit_json.as_bytes()));
    let sketch = &service.sketch;
    let consumed = service.events_consumed;
    let wall = started.elapsed().as_secs_f64();
    let events_per_sec = if wall > 0.0 {
        (consumed - resumed_at) as f64 / wall
    } else {
        0.0
    };

    let mut out = format!(
        "service — {} workflows × depth {}, {} stream events ({}, seed {}, \
         checkpoint every {})\n",
        header.workflows,
        header.depth,
        total,
        serve.mode.label(),
        serve.seed,
        serve.checkpoint_every,
    );
    out.push_str(&format!(
        "stream: {}\n",
        match &serve.stream {
            Some(path) => format!("recorded from {path}"),
            None => format!("generated at {}/h per workflow", header.rate_per_hour),
        }
    ));
    out.push_str(&format!(
        "ingested: {consumed}/{total} events in {} epoch(s) ({checkpoints_this_run} \
         checkpoint(s) this run), wall {wall:.2}s, {events_per_sec:.0} events/sec\n",
        service.epochs,
    ));
    out.push_str(&format!(
        "requests: {}   p50 {:.0}ms   p95 {:.0}ms   p99.9 {:.0}ms\n",
        summary.requests,
        summary.end_to_end.quantile_ms(0.5),
        summary.end_to_end.quantile_ms(0.95),
        summary.end_to_end.quantile_ms(0.999),
    ));
    out.push_str(&format!(
        "sketches: {}/{} edges tracked ({} evictions), {} arrivals counted \
         (±{:.1} per estimate)\n",
        sketch.edges.occupancy(),
        sketch.edges.capacity(),
        sketch.edges.evictions(),
        sketch.rates.total(),
        sketch.rates.error_bound(),
    ));
    out.push_str(&format!(
        "slo: {} window(s) of {}s, {} alert(s)\n",
        slo_report.windows.len(),
        serve.slo_window_secs,
        alerts.len(),
    ));
    out.push_str(&format!(
        "checkpoints: {} segment(s) in {}\n",
        segments, serve.checkpoint_dir,
    ));
    if consumed < total {
        out.push_str(&format!(
            "paused after {checkpoints_this_run} checkpoint(s): {consumed}/{total} events \
             durable — rerun the same command to resume\n",
        ));
    }
    out.push_str(&format!("audit digest: {audit_digest}\n"));

    if let Some(path) = &serve.audit_out {
        exports.push(ExportFile {
            path: path.clone(),
            contents: audit_json,
        });
    }
    if let Some(path) = &serve.slo_out {
        exports.push(ExportFile {
            path: path.clone(),
            contents: slo_json_string(&slo_report),
        });
    }
    if let Some(path) = &serve.bench_out {
        let mut root: Value = source(path)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or_else(|| serde_json::json!({}));
        if let Some(obj) = root.as_object_mut() {
            let amortized_ms = if service.epochs > 0 {
                wall * 1000.0 / checkpoints_this_run.max(1) as f64
            } else {
                0.0
            };
            obj.insert(
                "service".to_string(),
                serde_json::json!({
                    "events_per_sec": events_per_sec,
                    "events": consumed,
                    "requests": summary.requests,
                    "checkpoints": service.epochs,
                    "checkpoint_amortized_ms": amortized_ms,
                    "audit_digest": audit_digest,
                    "source": "xanadu serve",
                }),
            );
        }
        exports.push(ExportFile {
            path: path.clone(),
            contents: root.to_json_string_pretty() + "\n",
        });
    }

    if serve.fail_on_alert && !alerts.is_empty() {
        return Err(CliError::SloBreach {
            windows: slo_report.windows.len(),
            details: alerts.iter().map(render_slo_alert).collect(),
            exports: std::mem::take(exports),
        });
    }
    Ok(out)
}
