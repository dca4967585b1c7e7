//! The coordinator ⇄ worker control protocol, over the checksummed
//! frame layer of `hetrta-api` ([`hetrta_api::wire`]).
//!
//! Distributed sweeps speak six message kinds (`0x20`–`0x25`, disjoint
//! from the serve request/reply kinds and the outcome/aggregate kinds):
//! a worker introduces itself with [`DistMsg::Hello`], the coordinator
//! hands it a shard with [`DistMsg::Assign`] (the job indices plus the
//! full spec text — workers re-expand the spec themselves, so only
//! indices travel), and the worker streams one [`DistMsg::JobDone`] per
//! finished job, a periodic [`DistMsg::Heartbeat`], and a terminal
//! [`DistMsg::ShardDone`]. Payloads are textual in the bit-exact style
//! of [`AnalysisOutcome::encode`](hetrta_api::AnalysisOutcome::encode):
//! every `f64` crosses the wire as its bit pattern, so a re-assembled
//! aggregate is *bitwise* the single-process one.

use std::io::{Read, Write};
use std::time::Duration;

use hetrta_api::wire::{self, malformed, parse_num, text_payload, Tokens, WireError};
use hetrta_api::AnalysisOutcome;
use hetrta_engine::wire::{decode_spec, encode_spec};
use hetrta_engine::{JobMetrics, JobResult, SweepSpec};

/// Frame kind of a [`DistMsg::Assign`].
pub const KIND_ASSIGN: u8 = 0x20;
/// Frame kind of a [`DistMsg::JobDone`].
pub const KIND_JOB_DONE: u8 = 0x21;
/// Frame kind of a [`DistMsg::Heartbeat`].
pub const KIND_HEARTBEAT: u8 = 0x22;
/// Frame kind of a [`DistMsg::ShardDone`].
pub const KIND_SHARD_DONE: u8 = 0x23;
/// Frame kind of a [`DistMsg::Shutdown`].
pub const KIND_SHUTDOWN: u8 = 0x24;
/// Frame kind of a [`DistMsg::Hello`].
pub const KIND_HELLO: u8 = 0x25;

/// Bytes one frame adds around its payload (magic + version + kind +
/// length + checksum) — the byte-accounting constant the coordinator's
/// `bytes_tx`/`bytes_rx` counters use.
pub const FRAME_OVERHEAD: usize = 19;

/// A [`JobResult`] minus its coordinator-irrelevant parts: per-analysis
/// timings feed the *worker's* latency histograms and stay there, and the
/// executing thread id is replaced by the dist-level worker id on
/// reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct WireJobResult {
    /// The job's expansion index.
    pub index: usize,
    /// The cell it contributes to.
    pub cell: usize,
    /// Stable content key of the job's input recipe.
    pub identity: u128,
    /// Whether the worker served it entirely from its caches.
    pub cache_hit: bool,
    /// Wall-clock execution time on the worker.
    pub wall_time: Duration,
    /// Metrics, or the failure message.
    pub metrics: Result<JobMetrics, String>,
}

impl From<&JobResult> for WireJobResult {
    fn from(result: &JobResult) -> Self {
        WireJobResult {
            index: result.index,
            cell: result.cell,
            identity: result.identity,
            cache_hit: result.cache_hit,
            wall_time: result.wall_time,
            metrics: result.metrics.clone(),
        }
    }
}

impl WireJobResult {
    /// Reconstructs an aggregator-ready [`JobResult`], attributing the
    /// job to dist worker `worker`.
    #[must_use]
    pub fn into_result(self, worker: usize) -> JobResult {
        JobResult {
            index: self.index,
            cell: self.cell,
            worker,
            identity: self.identity,
            cache_hit: self.cache_hit,
            wall_time: self.wall_time,
            timings: Vec::new(),
            metrics: self.metrics,
        }
    }
}

/// One coordinator ⇄ worker message.
#[derive(Debug, Clone)]
pub enum DistMsg {
    /// Worker → coordinator, first frame on a fresh connection: which
    /// fleet slot this process is (re-)attaching as.
    Hello {
        /// The worker's fleet slot (`0..workers`).
        worker: usize,
    },
    /// Coordinator → worker: run these expansion indices of this spec.
    /// A worker may receive several assignments over its lifetime (its
    /// own shard first, orphaned indices of a dead peer later).
    Assign {
        /// Expansion indices to run, ascending.
        indices: Vec<usize>,
        /// The sweep (boxed: a spec is large next to the other kinds).
        spec: Box<SweepSpec>,
    },
    /// Worker → coordinator: one finished job.
    JobDone(Box<WireJobResult>),
    /// Worker → coordinator, periodic liveness signal (also sent while a
    /// long job computes, so a busy worker is not mistaken for a dead
    /// one).
    Heartbeat {
        /// Jobs this worker has finished so far, across assignments.
        jobs_done: u64,
    },
    /// Worker → coordinator: the current assignment is fully streamed.
    ShardDone {
        /// Jobs the assignment completed.
        completed: usize,
    },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
}

fn encode_indices(indices: &[usize]) -> String {
    if indices.is_empty() {
        return "-".into();
    }
    let strings: Vec<String> = indices.iter().map(usize::to_string).collect();
    strings.join(",")
}

fn decode_indices(s: &str) -> Result<Vec<usize>, WireError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',').map(|t| parse_num(t, "job index")).collect()
}

fn encode_job(result: &WireJobResult) -> String {
    let mut out = format!(
        "job {} {} {:032x} {} {} ",
        result.index,
        result.cell,
        result.identity,
        u8::from(result.cache_hit),
        result.wall_time.as_nanos()
    );
    match &result.metrics {
        Ok(JobMetrics::Outcomes(outcomes)) => {
            out.push_str(&format!("outcomes {}", outcomes.len()));
            for outcome in outcomes {
                out.push('\n');
                out.push_str(&outcome.encode());
            }
        }
        Ok(JobMetrics::Skipped) => out.push_str("skipped"),
        Err(message) => {
            out.push_str("error\n");
            out.push_str(message);
        }
    }
    out
}

fn decode_job(text: &str) -> Result<WireJobResult, WireError> {
    let (header, rest) = match text.split_once('\n') {
        Some((header, rest)) => (header, rest),
        None => (text, ""),
    };
    let mut tokens = Tokens::new(header, "job result");
    if tokens.next()? != "job" {
        return Err(malformed(format!("job result header `{header}`")));
    }
    let index = parse_num(tokens.next()?, "job index")?;
    let cell = parse_num(tokens.next()?, "cell index")?;
    let identity = {
        let hex = tokens.next()?;
        if hex.len() != 32 {
            return Err(malformed(format!("identity `{hex}` is not 32 hex digits")));
        }
        u128::from_str_radix(hex, 16)
            .map_err(|_| malformed(format!("unparseable identity `{hex}`")))?
    };
    let cache_hit = match tokens.next()? {
        "0" => false,
        "1" => true,
        other => return Err(malformed(format!("cache-hit bit `{other}` is not 0/1"))),
    };
    let wall_time = {
        let nanos: u64 = parse_num(tokens.next()?, "wall time")?;
        Duration::from_nanos(nanos)
    };
    let metrics = match tokens.next()? {
        "outcomes" => {
            let count: usize = parse_num(tokens.next()?, "outcome count")?;
            tokens.finish()?;
            let lines: Vec<&str> = if rest.is_empty() {
                Vec::new()
            } else {
                rest.lines().collect()
            };
            if lines.len() != count {
                return Err(malformed(format!(
                    "job result promises {count} outcomes, carries {}",
                    lines.len()
                )));
            }
            let outcomes = lines
                .iter()
                .map(|line| {
                    AnalysisOutcome::decode(line)
                        .ok_or_else(|| malformed(format!("unparseable outcome line `{line}`")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(JobMetrics::Outcomes(outcomes))
        }
        "skipped" => {
            tokens.finish()?;
            if !rest.is_empty() {
                return Err(malformed("trailing lines after a skipped job result"));
            }
            Ok(JobMetrics::Skipped)
        }
        // The message is the whole remaining text (it may span lines).
        "error" => {
            tokens.finish()?;
            Err(rest.to_string())
        }
        other => return Err(malformed(format!("unknown job metrics tag `{other}`"))),
    };
    Ok(WireJobResult {
        index,
        cell,
        identity,
        cache_hit,
        wall_time,
        metrics,
    })
}

impl DistMsg {
    /// Encodes this message as `(frame kind, payload)`.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            DistMsg::Hello { worker } => (KIND_HELLO, format!("worker {worker}").into_bytes()),
            DistMsg::Assign { indices, spec } => (
                KIND_ASSIGN,
                format!("indices {}\n{}", encode_indices(indices), encode_spec(spec)).into_bytes(),
            ),
            DistMsg::JobDone(result) => (KIND_JOB_DONE, encode_job(result).into_bytes()),
            DistMsg::Heartbeat { jobs_done } => (
                KIND_HEARTBEAT,
                format!("jobs-done {jobs_done}").into_bytes(),
            ),
            DistMsg::ShardDone { completed } => (
                KIND_SHARD_DONE,
                format!("completed {completed}").into_bytes(),
            ),
            DistMsg::Shutdown => (KIND_SHUTDOWN, Vec::new()),
        }
    }

    /// Decodes one message from `(frame kind, payload)`.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for unknown kinds or defective payloads;
    /// nothing panics on untrusted input.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<DistMsg, WireError> {
        match kind {
            KIND_HELLO => {
                let text = text_payload(payload, "hello")?;
                let rest = text
                    .strip_prefix("worker ")
                    .ok_or_else(|| malformed(format!("expected `worker …`, got `{text}`")))?;
                Ok(DistMsg::Hello {
                    worker: parse_num(rest, "worker id")?,
                })
            }
            KIND_ASSIGN => {
                let text = text_payload(payload, "assign")?;
                let (index_line, spec_text) = text
                    .split_once('\n')
                    .ok_or_else(|| malformed("assign payload has no spec after the index line"))?;
                let rest = index_line.strip_prefix("indices ").ok_or_else(|| {
                    malformed(format!("expected `indices …`, got `{index_line}`"))
                })?;
                Ok(DistMsg::Assign {
                    indices: decode_indices(rest)?,
                    spec: Box::new(decode_spec(spec_text)?),
                })
            }
            KIND_JOB_DONE => {
                let text = text_payload(payload, "job result")?;
                Ok(DistMsg::JobDone(Box::new(decode_job(&text)?)))
            }
            KIND_HEARTBEAT => {
                let text = text_payload(payload, "heartbeat")?;
                let rest = text
                    .strip_prefix("jobs-done ")
                    .ok_or_else(|| malformed(format!("expected `jobs-done …`, got `{text}`")))?;
                Ok(DistMsg::Heartbeat {
                    jobs_done: parse_num(rest, "jobs done")?,
                })
            }
            KIND_SHARD_DONE => {
                let text = text_payload(payload, "shard done")?;
                let rest = text
                    .strip_prefix("completed ")
                    .ok_or_else(|| malformed(format!("expected `completed …`, got `{text}`")))?;
                Ok(DistMsg::ShardDone {
                    completed: parse_num(rest, "completed count")?,
                })
            }
            KIND_SHUTDOWN => Ok(DistMsg::Shutdown),
            other => Err(malformed(format!("unknown dist message kind {other:#04x}"))),
        }
    }

    /// Writes this message as one frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the write fails.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), WireError> {
        self.write_to_with(writer, None)
    }

    /// Writes this message as one frame, routed through an optional
    /// fault-injection seam (see
    /// [`FrameFaults`](hetrta_api::wire::FrameFaults)).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the write fails.
    pub fn write_to_with<W: Write>(
        &self,
        writer: &mut W,
        faults: Option<&dyn wire::FrameFaults>,
    ) -> Result<(), WireError> {
        let (kind, payload) = self.encode();
        wire::write_frame_with(writer, kind, &payload, faults)
    }

    /// Reads one message frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] when the peer hung up between frames; every
    /// other defect maps to its variant.
    pub fn read_from<R: Read>(reader: &mut R) -> Result<DistMsg, WireError> {
        Self::read_from_with(reader, None)
    }

    /// Reads one message frame through an optional fault-injection
    /// seam (stalled reads).
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] when the peer hung up between frames; every
    /// other defect maps to its variant.
    pub fn read_from_with<R: Read>(
        reader: &mut R,
        faults: Option<&dyn wire::FrameFaults>,
    ) -> Result<DistMsg, WireError> {
        let (kind, payload) = wire::read_frame_with(reader, faults)?;
        DistMsg::decode(kind, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_api::SimOutcome;
    use hetrta_engine::GeneratorPreset;

    fn sample_spec() -> SweepSpec {
        SweepSpec::fractions(
            GeneratorPreset::Small,
            vec![2, 8],
            vec![0.05, 0.30],
            8,
            0xDAC_2018,
        )
    }

    fn sample_results() -> Vec<WireJobResult> {
        let outcomes = vec![
            AnalysisOutcome::Hom {
                r_hom: 991.0 + f64::EPSILON,
            },
            AnalysisOutcome::Sim(SimOutcome {
                makespan: 812,
                transformed_makespan: None,
            }),
        ];
        vec![
            WireJobResult {
                index: 7,
                cell: 2,
                identity: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233,
                cache_hit: true,
                wall_time: Duration::from_nanos(123_456_789),
                metrics: Ok(JobMetrics::Outcomes(outcomes)),
            },
            WireJobResult {
                index: 0,
                cell: 0,
                identity: 1,
                cache_hit: false,
                wall_time: Duration::ZERO,
                metrics: Ok(JobMetrics::Skipped),
            },
            WireJobResult {
                index: 3,
                cell: 1,
                identity: 42,
                cache_hit: false,
                wall_time: Duration::from_micros(5),
                metrics: Err("generation failed: too few nodes\n(second line)".into()),
            },
        ]
    }

    #[test]
    fn frame_overhead_matches_the_frame_layer() {
        for payload in [&b""[..], b"x", b"some longer payload"] {
            assert_eq!(
                wire::encode_frame(KIND_HELLO, payload).len(),
                payload.len() + FRAME_OVERHEAD
            );
        }
    }

    #[test]
    fn messages_roundtrip() {
        let msgs = vec![
            DistMsg::Hello { worker: 3 },
            DistMsg::Assign {
                indices: vec![0, 2, 4, 31],
                spec: Box::new(sample_spec()),
            },
            DistMsg::Assign {
                indices: Vec::new(),
                spec: Box::new(sample_spec()),
            },
            DistMsg::Heartbeat { jobs_done: 17 },
            DistMsg::ShardDone { completed: 16 },
            DistMsg::Shutdown,
        ];
        for msg in &msgs {
            let (kind, payload) = msg.encode();
            let back = DistMsg::decode(kind, &payload).expect("decodes");
            // DistMsg has no PartialEq (SweepSpec has none); re-encoding
            // is the equality witness, as in the engine's wire tests.
            assert_eq!(back.encode(), (kind, payload.clone()), "msg {msg:?}");
        }
    }

    #[test]
    fn job_results_roundtrip_bitwise() {
        for result in sample_results() {
            let msg = DistMsg::JobDone(Box::new(result.clone()));
            let (kind, payload) = msg.encode();
            let DistMsg::JobDone(back) = DistMsg::decode(kind, &payload).expect("decodes") else {
                panic!("wrong kind back")
            };
            assert_eq!(*back, result);
            let rebuilt = back.into_result(5);
            assert_eq!(rebuilt.worker, 5);
            assert_eq!(rebuilt.index, result.index);
            assert!(rebuilt.timings.is_empty(), "timings stay worker-side");
        }
    }

    #[test]
    fn wire_results_carry_real_job_results() {
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 2, 7);
        let engine = hetrta_engine::Engine::new(1);
        let mut results = Vec::new();
        engine
            .run_job_subset(&spec, &[0, 1], |r| results.push(r))
            .expect("subset runs");
        for result in &results {
            let over_wire = WireJobResult::from(result);
            let (kind, payload) = DistMsg::JobDone(Box::new(over_wire.clone())).encode();
            let DistMsg::JobDone(back) = DistMsg::decode(kind, &payload).expect("decodes") else {
                panic!("wrong kind back")
            };
            // Outcomes cross the wire bitwise, so the reconstructed
            // result aggregates identically.
            assert_eq!(back.metrics, result.metrics);
            assert_eq!(back.identity, result.identity);
        }
    }

    #[test]
    fn malformed_messages_error_typed() {
        let cases: Vec<(u8, &[u8])> = vec![
            (0x77, b"anything"),
            (KIND_HELLO, b"worker"),
            (KIND_HELLO, b"worker x"),
            (KIND_ASSIGN, b"indices 1,2"),
            (KIND_ASSIGN, b"indices 1,frob\npreset small\n"),
            (KIND_ASSIGN, b"shards 1,2\npreset small\n"),
            (KIND_JOB_DONE, b"job 1 2"),
            (KIND_JOB_DONE, b"job 1 2 dead 1 5 skipped"),
            (KIND_JOB_DONE, b"nope 1 2"),
            (
                KIND_JOB_DONE,
                b"job 1 2 00000000000000000000000000000001 1 5 outcomes 2\nhet junk",
            ),
            (
                KIND_JOB_DONE,
                b"job 1 2 00000000000000000000000000000001 2 5 skipped",
            ),
            (
                KIND_JOB_DONE,
                b"job 1 2 00000000000000000000000000000001 1 5 skipped\ntrailing",
            ),
            (KIND_HEARTBEAT, b"jobs-done many"),
            (KIND_SHARD_DONE, b"done 5"),
            (KIND_HELLO, &[0xFF, 0xFE]),
        ];
        for (kind, payload) in cases {
            assert!(
                matches!(DistMsg::decode(kind, payload), Err(WireError::Malformed(_))),
                "decoded unexpectedly: kind {kind:#04x} payload {payload:?}"
            );
        }
    }
}
