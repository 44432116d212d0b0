//! The `semint serve` wire protocol: one JSON object per line over a
//! localhost TCP connection.
//!
//! The workspace is offline and dependency-free, so the protocol reuses the
//! crate's hand-rolled JSON machinery ([`crate::json`]) rather than pulling
//! in serde: every message is a single line stamped `"semint_serve": 1` and
//! the shared `"version"` field ([`crate::json::FORMAT_VERSION`]), parsed
//! with the same reader the serve journal uses — so version-skew handling
//! (absent = v1, newer-than-me = error) is one code path for both formats.
//! Clients send one [`Request`] line and read one [`Response`] line; the
//! connection then closes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use super::queue::{FaultKind, FaultPlan, JobSpec};
use crate::json::{escape_json, parse_stamped, stamp, Json};

/// Default daemon port (override with `--port`; `0` picks an ephemeral one).
pub const DEFAULT_PORT: u16 = 7844;

/// A client-to-daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enqueue a sweep job.
    Submit(JobSpec),
    /// Report job states — all jobs, or one.
    Status {
        /// Restrict the report to this job id.
        job: Option<u64>,
    },
    /// Stop admitting jobs, finish the accepted ones, then exit.
    Shutdown,
}

/// A daemon-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Acknowledged (ping, shutdown).
    Ok,
    /// The submitted job's id.
    Submitted {
        /// Daemon-assigned job id.
        job: u64,
    },
    /// Job states.
    Status {
        /// Whether the daemon is draining toward exit.
        draining: bool,
        /// One snapshot per requested job, oldest first.
        jobs: Vec<JobStatus>,
    },
    /// The request was rejected or failed.
    Error(String),
}

/// One job's externally visible snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Daemon-assigned id.
    pub id: u64,
    /// `queued` / `running` / `done` / `failed`.
    pub state: String,
    /// The failure reason, when `state` is `failed`.
    pub error: Option<String>,
    /// Shards merged so far.
    pub shards_done: u64,
    /// Shards the job was split into.
    pub shards_total: u64,
    /// Shard re-issues so far (crashed or wedged workers).
    pub retries: u64,
    /// Scenarios in the rolling merge so far.
    pub scenarios: u64,
    /// Failures in the rolling merge so far.
    pub failures: u64,
    /// Per-case digests of the rolling merge.
    pub digests: Vec<String>,
    /// The rolling merge as a TSV report (the same format `--save` writes),
    /// so clients can reconstruct the full aggregates.
    pub report_tsv: String,
    /// Whether the job was rebuilt from the journal by `--resume` rather
    /// than submitted to the current daemon process.
    pub recovered: bool,
}

/// Renders a spec as one JSON object (shared with the journal's
/// `job-submitted` entries, so both formats evolve together).
pub(crate) fn render_spec(spec: &JobSpec) -> String {
    let mut out = format!(
        "{{\"seeds_start\": {}, \"seeds_end\": {}, \"profile\": \"{}\", \"case\": \"{}\", \
         \"shards\": {}, \"jobs\": {}, \"batch\": {}, \"model_check\": {}",
        spec.seeds.0,
        spec.seeds.1,
        escape_json(&spec.profile),
        escape_json(&spec.case),
        spec.shards,
        spec.jobs,
        spec.batch,
        spec.model_check,
    );
    if let Some(fault) = spec.fault {
        out.push_str(&format!(
            ", \"fault_shard\": {}, \"fault_after\": {}, \"fault_kind\": \"{}\"",
            fault.shard,
            fault.after,
            fault.kind.label()
        ));
    }
    out.push('}');
    out
}

fn render_status(status: &JobStatus) -> String {
    let mut out = format!(
        "{{\"id\": {}, \"state\": \"{}\"",
        status.id,
        escape_json(&status.state)
    );
    if let Some(error) = &status.error {
        out.push_str(&format!(", \"error\": \"{}\"", escape_json(error)));
    }
    out.push_str(&format!(
        ", \"shards_done\": {}, \"shards_total\": {}, \"retries\": {}, \
         \"scenarios\": {}, \"failures\": {}",
        status.shards_done, status.shards_total, status.retries, status.scenarios, status.failures,
    ));
    out.push_str(", \"digests\": [");
    for (i, digest) in status.digests.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape_json(digest)));
    }
    out.push_str(&format!(
        "], \"report_tsv\": \"{}\"",
        escape_json(&status.report_tsv)
    ));
    if status.recovered {
        out.push_str(", \"recovered\": true");
    }
    out.push('}');
    out
}

/// Renders a request as its one-line wire form (no trailing newline).
pub fn render_request(request: &Request) -> String {
    let mut out = stamp("semint_serve");
    match request {
        Request::Ping => out.push_str(", \"request\": \"ping\""),
        Request::Submit(spec) => {
            out.push_str(", \"request\": \"submit\", \"job\": ");
            out.push_str(&render_spec(spec));
        }
        Request::Status { job } => {
            out.push_str(", \"request\": \"status\"");
            if let Some(id) = job {
                out.push_str(&format!(", \"job\": {id}"));
            }
        }
        Request::Shutdown => out.push_str(", \"request\": \"shutdown\""),
    }
    out.push('}');
    out
}

/// Renders a response as its one-line wire form (no trailing newline).
pub fn render_response(response: &Response) -> String {
    let mut out = stamp("semint_serve");
    match response {
        Response::Ok => out.push_str(", \"response\": \"ok\""),
        Response::Submitted { job } => {
            out.push_str(&format!(", \"response\": \"submitted\", \"job\": {job}"));
        }
        Response::Status { draining, jobs } => {
            out.push_str(&format!(
                ", \"response\": \"status\", \"draining\": {draining}, \"jobs\": ["
            ));
            for (i, job) in jobs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&render_status(job));
            }
            out.push(']');
        }
        Response::Error(message) => {
            out.push_str(&format!(
                ", \"response\": \"error\", \"message\": \"{}\"",
                escape_json(message)
            ));
        }
    }
    out.push('}');
    out
}

/// Parses one spec object back (shared with the journal's replay).
pub(crate) fn parse_spec(doc: &Json) -> Result<JobSpec, String> {
    let fault = match (doc.get("fault_shard"), doc.get("fault_after")) {
        (None, None) => None,
        (Some(shard), Some(after)) => Some(FaultPlan {
            shard: shard.as_u64("fault_shard")?,
            after: after.as_u64("fault_after")?,
            // Absent kind = a pre-FaultPlan writer; those could only crash.
            kind: match doc.get("fault_kind") {
                None => FaultKind::Crash,
                Some(value) => FaultKind::from_label(value.as_str("fault_kind")?)?,
            },
        }),
        _ => return Err("fault_shard and fault_after must be given together".into()),
    };
    Ok(JobSpec {
        seeds: (
            doc.require("seeds_start")?.as_u64("seeds_start")?,
            doc.require("seeds_end")?.as_u64("seeds_end")?,
        ),
        profile: doc.require("profile")?.as_str("profile")?.to_string(),
        case: doc.require("case")?.as_str("case")?.to_string(),
        shards: doc.require("shards")?.as_u64("shards")?,
        jobs: doc.require("jobs")?.as_u64("jobs")? as usize,
        batch: doc.require("batch")?.as_u64("batch")? as usize,
        model_check: doc.require("model_check")?.as_bool("model_check")?,
        fault,
    })
}

fn parse_status(doc: &Json) -> Result<JobStatus, String> {
    let Json::Array(digest_values) = doc.require("digests")? else {
        return Err("\"digests\": expected an array".into());
    };
    let mut digests = Vec::with_capacity(digest_values.len());
    for value in digest_values {
        digests.push(value.as_str("digest")?.to_string());
    }
    Ok(JobStatus {
        id: doc.require("id")?.as_u64("id")?,
        state: doc.require("state")?.as_str("state")?.to_string(),
        error: match doc.get("error") {
            None => None,
            Some(value) => Some(value.as_str("error")?.to_string()),
        },
        shards_done: doc.require("shards_done")?.as_u64("shards_done")?,
        shards_total: doc.require("shards_total")?.as_u64("shards_total")?,
        retries: doc.require("retries")?.as_u64("retries")?,
        scenarios: doc.require("scenarios")?.as_u64("scenarios")?,
        failures: doc.require("failures")?.as_u64("failures")?,
        digests,
        report_tsv: doc.require("report_tsv")?.as_str("report_tsv")?.to_string(),
        // Absent = a pre-journal writer; nothing it reports was recovered.
        recovered: match doc.get("recovered") {
            None => false,
            Some(value) => value.as_bool("recovered")?,
        },
    })
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse_stamped(line, "semint_serve", "protocol")?;
    match doc.require("request")?.as_str("request")? {
        "ping" => Ok(Request::Ping),
        "submit" => Ok(Request::Submit(parse_spec(doc.require("job")?)?)),
        "status" => Ok(Request::Status {
            job: match doc.get("job") {
                None => None,
                Some(value) => Some(value.as_u64("job")?),
            },
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request {other:?}")),
    }
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let doc = parse_stamped(line, "semint_serve", "protocol")?;
    match doc.require("response")?.as_str("response")? {
        "ok" => Ok(Response::Ok),
        "submitted" => Ok(Response::Submitted {
            job: doc.require("job")?.as_u64("job")?,
        }),
        "status" => {
            let Json::Array(job_values) = doc.require("jobs")? else {
                return Err("\"jobs\": expected an array".into());
            };
            let mut jobs = Vec::with_capacity(job_values.len());
            for value in job_values {
                jobs.push(parse_status(value)?);
            }
            Ok(Response::Status {
                draining: doc.require("draining")?.as_bool("draining")?,
                jobs,
            })
        }
        "error" => Ok(Response::Error(
            doc.require("message")?.as_str("message")?.to_string(),
        )),
        other => Err(format!("unknown response {other:?}")),
    }
}

/// How many connect attempts [`call`] makes before giving up.
const CALL_CONNECT_ATTEMPTS: u32 = 6;
/// First retry delay; doubles per attempt up to [`CALL_BACKOFF_CAP`].
const CALL_BACKOFF_START: Duration = Duration::from_millis(25);
/// Retry delays never exceed this.
const CALL_BACKOFF_CAP: Duration = Duration::from_millis(400);

/// Deterministic jitter for attempt `attempt` against `addr`: FNV-1a over
/// the address and the attempt index, finalized and reduced to at most half
/// the base delay.  No clocks, no RNG — the same client retries on the same
/// schedule every run, which keeps the chaos drill reproducible.
fn backoff_jitter(addr: &str, attempt: u32, base: Duration) -> Duration {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in addr.bytes().chain(attempt.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Murmur-style finalizer: FNV's low bits are weak and the modulus below
    // only looks at them.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    let half_ms = (base.as_millis() as u64 / 2).max(1);
    Duration::from_millis(hash % half_ms)
}

/// Connects to `addr`, retrying refused/reset connections with capped
/// exponential backoff: a client racing the daemon's accept loop (`semint
/// submit` right after `semint serve`) waits the race out instead of dying.
/// Only *connect-phase* failures retry — once a request has been written,
/// retrying could double-submit a job.
fn connect_with_backoff(addr: &str) -> Result<TcpStream, String> {
    let mut delay = CALL_BACKOFF_START;
    let mut last_error = String::new();
    for attempt in 0..CALL_CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(delay + backoff_jitter(addr, attempt, delay));
            delay = (delay * 2).min(CALL_BACKOFF_CAP);
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                last_error = e.to_string();
            }
            Err(e) => return Err(format!("cannot reach daemon at {addr}: {e}")),
        }
    }
    Err(format!(
        "cannot reach daemon at {addr} after {CALL_CONNECT_ATTEMPTS} attempts: {last_error}"
    ))
}

/// Sends one request to a daemon at `addr` (e.g. `127.0.0.1:7844`) and
/// reads back its one-line response.  Both directions carry a generous
/// timeout so a wedged daemon surfaces as an error, not a hang.  Refused
/// connections are retried with capped, deterministically jittered backoff;
/// request/response I/O is never retried (a re-sent submit is a new job).
pub fn call(addr: &str, request: &Request) -> Result<Response, String> {
    let stream = connect_with_backoff(addr)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(60))))
        .map_err(|e| format!("cannot set socket timeouts: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone socket: {e}"))?;
    writer
        .write_all(format!("{}\n", render_request(request)).as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    if line.trim().is_empty() {
        return Err(format!("daemon at {addr} closed the connection silently"));
    }
    parse_response(line.trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::FORMAT_VERSION;

    fn sample_spec() -> JobSpec {
        JobSpec {
            seeds: (0, 120),
            profile: "deep".into(),
            case: "all".into(),
            shards: 4,
            jobs: 2,
            batch: 8,
            model_check: true,
            fault: Some(FaultPlan {
                shard: 1,
                after: 5,
                kind: FaultKind::Crash,
            }),
        }
    }

    #[test]
    fn requests_round_trip_including_fault_and_optional_job() {
        let mut requests = vec![
            Request::Ping,
            Request::Submit(sample_spec()),
            Request::Submit(JobSpec {
                fault: None,
                ..sample_spec()
            }),
            Request::Status { job: None },
            Request::Status { job: Some(3) },
            Request::Shutdown,
        ];
        // Every fault kind survives the wire.
        for kind in FaultKind::ALL {
            requests.push(Request::Submit(JobSpec {
                fault: Some(FaultPlan {
                    shard: 0,
                    after: 2,
                    kind,
                }),
                ..sample_spec()
            }));
        }
        for request in requests {
            let line = render_request(&request);
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(parse_request(&line).expect("round trip"), request);
        }
    }

    #[test]
    fn a_fault_without_a_kind_reads_as_a_crash() {
        // Pre-FaultPlan writers sent only the shard/after pair.
        let line = render_request(&Request::Submit(sample_spec()));
        let legacy = line.replace(", \"fault_kind\": \"crash\"", "");
        assert_ne!(line, legacy);
        assert_eq!(
            parse_request(&legacy).expect("legacy fault parses"),
            Request::Submit(sample_spec())
        );
        let bogus = line.replace("\"fault_kind\": \"crash\"", "\"fault_kind\": \"segfault\"");
        assert!(parse_request(&bogus).unwrap_err().contains("fault kind"));
    }

    #[test]
    fn responses_round_trip_including_status_snapshots() {
        let responses = [
            Response::Ok,
            Response::Submitted { job: 7 },
            Response::Error("queue is full (4 of 4 jobs unfinished)".into()),
            Response::Status {
                draining: true,
                jobs: vec![
                    JobStatus {
                        id: 0,
                        state: "done".into(),
                        error: None,
                        shards_done: 4,
                        shards_total: 4,
                        retries: 1,
                        scenarios: 360,
                        failures: 0,
                        digests: vec!["sharedmem:abc".into(), "affine:def".into()],
                        report_tsv: "case\tsharedmem\nscenarios\t120\n".into(),
                        recovered: true,
                    },
                    JobStatus {
                        id: 1,
                        state: "failed".into(),
                        error: Some("shard 2/4 exhausted 2 retries".into()),
                        shards_done: 3,
                        shards_total: 4,
                        retries: 3,
                        scenarios: 270,
                        failures: 2,
                        digests: vec![],
                        report_tsv: String::new(),
                        recovered: false,
                    },
                ],
            },
        ];
        for response in responses {
            let line = render_response(&response);
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(parse_response(&line).expect("round trip"), response);
        }
    }

    #[test]
    fn malformed_and_version_skewed_messages_are_rejected() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{}").unwrap_err().contains("semint_serve"));
        assert!(parse_request("{\"semint_serve\": 2}")
            .unwrap_err()
            .contains("protocol"));
        let line = render_request(&Request::Ping);
        assert!(parse_request(&format!("{line} extra"))
            .unwrap_err()
            .contains("trailing"));
        // Newer documents are rejected with the shared upgrade hint…
        let future = line.replace(&format!("\"version\": {FORMAT_VERSION}"), "\"version\": 99");
        assert!(parse_request(&future).unwrap_err().contains("newer"));
        // …while an absent version field reads as v1 and is tolerated.
        let legacy = line.replace(&format!(", \"version\": {FORMAT_VERSION}"), "");
        assert_ne!(line, legacy);
        assert_eq!(parse_request(&legacy).unwrap(), Request::Ping);
        // A fault shard without its pair is rejected.
        let submit = render_request(&Request::Submit(sample_spec()));
        let broken = submit.replace(", \"fault_after\": 5", "");
        assert!(parse_request(&broken).unwrap_err().contains("together"));
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(100);
        for attempt in 1..CALL_CONNECT_ATTEMPTS {
            let a = backoff_jitter("127.0.0.1:7844", attempt, base);
            assert_eq!(a, backoff_jitter("127.0.0.1:7844", attempt, base));
            assert!(a < base / 2 + Duration::from_millis(1), "{a:?}");
        }
        // Different clients (addresses) jitter apart — that is the point.
        assert_ne!(
            backoff_jitter("127.0.0.1:7844", 1, base),
            backoff_jitter("127.0.0.1:7845", 1, base),
        );
    }

    #[test]
    fn call_retries_until_a_late_listener_binds() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        // Reserve a port, then free it: the first connect attempts are
        // refused, exactly like `semint submit` racing `semint serve`.
        let port = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let listener = TcpListener::bind(("127.0.0.1", port)).expect("port is still free");
            let (stream, _) = listener.accept().expect("client retried into us");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(parse_request(line.trim_end()).unwrap(), Request::Ping);
            let mut stream = stream;
            stream
                .write_all(format!("{}\n", render_response(&Response::Ok)).as_bytes())
                .unwrap();
        });
        let response = call(&addr, &Request::Ping).expect("backoff outlives the bind race");
        assert_eq!(response, Response::Ok);
        server.join().unwrap();
    }

    #[test]
    fn call_gives_up_with_the_attempt_count_after_capped_backoff() {
        // Bind-then-drop: nothing will ever listen here again in this test.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let err =
            call(&format!("127.0.0.1:{port}"), &Request::Ping).expect_err("nobody is listening");
        assert!(err.contains("attempts"), "{err}");
    }
}
