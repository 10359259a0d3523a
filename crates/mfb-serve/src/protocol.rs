//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order. A
//! frame is at most [`MAX_FRAME`] bytes including the newline; anything
//! longer is rejected with a `bad_frame` error and the remainder of the
//! line is discarded, so an oversized (or hostile) client cannot balloon
//! server memory.
//!
//! Every malformed input — invalid JSON, a non-object, a missing or
//! unknown `"op"`, a field of the wrong type — yields a *typed* error
//! response, never a panic and never a closed connection. The property
//! tests in `tests/protocol_props.rs` pin this for arbitrary byte soup.

use serde_json::Value;
use std::fmt;

/// Hard cap on a request frame, bytes, newline included.
pub const MAX_FRAME: usize = 1 << 20;

/// Default priority for submissions that do not set one.
pub const DEFAULT_PRIORITY: u8 = 5;

/// Highest (numerically largest, least urgent) legal priority.
pub const MAX_PRIORITY: u8 = 9;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Enqueue one synthesis job. `job_json` is the re-encoded job entry
    /// (the schema of one element of an `mfb batch` manifest, with
    /// `"repeat"` at most 1). Its `"assay"` must be inline `.assay` source
    /// — a string with a newline, self-contained, no file on the server
    /// needed. A newline-free `"assay"` would name a server-side path, so
    /// it is rejected as `bad_request` before any filesystem access.
    Submit {
        /// Re-encoded JSON of the `"job"` object.
        job_json: String,
        /// Wall-clock budget in seconds, measured from admission.
        timeout_secs: Option<f64>,
        /// 0 (most urgent) ..= [`MAX_PRIORITY`]; FIFO within a level.
        priority: u8,
        /// Client identity for per-client in-flight caps.
        client: String,
        /// When true, the response to `result` carries a JSONL trace.
        trace: bool,
    },
    /// Poll a job's state.
    Status {
        /// The job id returned by `submit`.
        id: String,
    },
    /// Fetch a finished job's outcome (and trace, if requested).
    Result {
        /// The job id returned by `submit`.
        id: String,
    },
    /// Fire the job's cancellation token.
    Cancel {
        /// The job id returned by `submit`.
        id: String,
    },
    /// Server-wide counters: queue depth, job states, cache stats.
    Stats,
    /// Stop admissions, finish the queue, snapshot, shut down.
    Drain,
    /// Liveness probe.
    Ping,
}

/// Machine-readable error category, sent as the `"error"` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The frame was not parseable JSON, or exceeded [`MAX_FRAME`].
    BadFrame,
    /// The frame was JSON but violates the request schema.
    BadRequest,
    /// The request named an operation this server does not know.
    UnknownOp,
    /// The admission queue is at capacity; retry later.
    QueueFull,
    /// The client already has its maximum jobs in flight.
    ClientSaturated,
    /// No job with the given id.
    UnknownJob,
    /// The job exists but has not finished yet.
    NotReady,
    /// The server is draining and admits no new work.
    Draining,
    /// The job could not be run (synthesis failed); the message carries
    /// the typed synthesis error's display form.
    JobFailed,
}

impl ErrorKind {
    /// The stable wire token for this kind.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::BadFrame => "bad_frame",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownOp => "unknown_op",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::ClientSaturated => "client_saturated",
            ErrorKind::UnknownJob => "unknown_job",
            ErrorKind::NotReady => "not_ready",
            ErrorKind::Draining => "draining",
            ErrorKind::JobFailed => "job_failed",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A typed protocol-level failure, rendered as an error response line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// The category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ProtocolError {
            kind,
            message: message.into(),
        }
    }

    /// The single-line JSON response for this error.
    pub fn to_response(&self) -> String {
        format!(
            "{{\"ok\":false,\"error\":{},\"message\":{}}}",
            quote(self.kind.token()),
            quote(&self.message)
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// JSON-quotes a string (the escape subset JSON requires).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn bad_request(msg: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorKind::BadRequest, msg)
}

fn id_field(doc: &Value) -> Result<String, ProtocolError> {
    doc.get("id")
        .ok_or_else(|| bad_request("missing \"id\" field"))?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| bad_request("\"id\" must be a string"))
}

fn check_fields(doc: &Value, allowed: &[&str]) -> Result<(), ProtocolError> {
    let fields = doc
        .as_object()
        .ok_or_else(|| bad_request("request must be a JSON object"))?;
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(bad_request(format!(
                "unknown field {key:?} (expected one of {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Parses one request line. Every failure is a typed [`ProtocolError`];
/// this function never panics on any input (pinned by the property
/// tests).
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    if line.len() > MAX_FRAME {
        return Err(ProtocolError::new(
            ErrorKind::BadFrame,
            format!("frame exceeds {MAX_FRAME} bytes"),
        ));
    }
    let doc: Value = serde_json::from_str(line)
        .map_err(|e| ProtocolError::new(ErrorKind::BadFrame, format!("invalid JSON: {e}")))?;
    if doc.as_object().is_none() {
        return Err(bad_request("request must be a JSON object"));
    }
    let op = doc
        .get("op")
        .ok_or_else(|| bad_request("missing \"op\" field"))?
        .as_str()
        .ok_or_else(|| bad_request("\"op\" must be a string"))?;

    match op {
        "submit" => {
            check_fields(
                &doc,
                &["op", "job", "timeout_secs", "priority", "client", "trace"],
            )?;
            let job = doc
                .get("job")
                .ok_or_else(|| bad_request("submit needs a \"job\" object"))?;
            if job.as_object().is_none() {
                return Err(bad_request("\"job\" must be a JSON object"));
            }
            let job_json = serde_json::to_string(job)
                .map_err(|e| bad_request(format!("\"job\" cannot be re-encoded: {e}")))?;
            let timeout_secs = match doc.get("timeout_secs") {
                None => None,
                Some(v) => Some(
                    v.as_f64()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad_request("\"timeout_secs\" must be a positive number"))?,
                ),
            };
            let priority = match doc.get("priority") {
                None => DEFAULT_PRIORITY,
                Some(v) => {
                    let p = v
                        .as_u64()
                        .filter(|p| *p <= MAX_PRIORITY as u64)
                        .ok_or_else(|| {
                            bad_request(format!("\"priority\" must be 0..={MAX_PRIORITY}"))
                        })?;
                    p as u8
                }
            };
            let client = match doc.get("client") {
                None => "anon".to_owned(),
                Some(v) => v
                    .as_str()
                    .filter(|c| !c.is_empty() && c.len() <= 64)
                    .map(str::to_owned)
                    .ok_or_else(|| {
                        bad_request("\"client\" must be a non-empty string of at most 64 bytes")
                    })?,
            };
            let trace = match doc.get("trace") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| bad_request("\"trace\" must be a boolean"))?,
            };
            Ok(Request::Submit {
                job_json,
                timeout_secs,
                priority,
                client,
                trace,
            })
        }
        "status" => {
            check_fields(&doc, &["op", "id"])?;
            Ok(Request::Status {
                id: id_field(&doc)?,
            })
        }
        "result" => {
            check_fields(&doc, &["op", "id"])?;
            Ok(Request::Result {
                id: id_field(&doc)?,
            })
        }
        "cancel" => {
            check_fields(&doc, &["op", "id"])?;
            Ok(Request::Cancel {
                id: id_field(&doc)?,
            })
        }
        "stats" => {
            check_fields(&doc, &["op"])?;
            Ok(Request::Stats)
        }
        "drain" => {
            check_fields(&doc, &["op"])?;
            Ok(Request::Drain)
        }
        "ping" => {
            check_fields(&doc, &["op"])?;
            Ok(Request::Ping)
        }
        other => Err(ProtocolError::new(
            ErrorKind::UnknownOp,
            format!("unknown op {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        let r =
            parse_request(r#"{"op":"submit","job":{"bench":"PCR"},"timeout_secs":2.5}"#).unwrap();
        match r {
            Request::Submit {
                job_json,
                timeout_secs,
                priority,
                client,
                trace,
            } => {
                assert!(job_json.contains("PCR"));
                assert_eq!(timeout_secs, Some(2.5));
                assert_eq!(priority, DEFAULT_PRIORITY);
                assert_eq!(client, "anon");
                assert!(!trace);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op":"status","id":"j1"}"#).unwrap(),
            Request::Status { id: "j1".into() }
        );
        assert_eq!(
            parse_request(r#"{"op":"result","id":"j1"}"#).unwrap(),
            Request::Result { id: "j1".into() }
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","id":"j1"}"#).unwrap(),
            Request::Cancel { id: "j1".into() }
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"drain"}"#).unwrap(), Request::Drain);
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
    }

    #[test]
    fn typed_errors_for_malformed_frames() {
        let kind = |line: &str| parse_request(line).unwrap_err().kind;
        assert_eq!(kind("not json"), ErrorKind::BadFrame);
        assert_eq!(kind("[1,2,3]"), ErrorKind::BadRequest);
        assert_eq!(kind("{}"), ErrorKind::BadRequest);
        assert_eq!(kind(r#"{"op":"mystery"}"#), ErrorKind::UnknownOp);
        assert_eq!(kind(r#"{"op":"status"}"#), ErrorKind::BadRequest);
        assert_eq!(kind(r#"{"op":"status","id":7}"#), ErrorKind::BadRequest);
        assert_eq!(kind(r#"{"op":"submit"}"#), ErrorKind::BadRequest);
        assert_eq!(
            kind(r#"{"op":"submit","job":{"bench":"PCR"},"timeout_secs":-1}"#),
            ErrorKind::BadRequest
        );
        assert_eq!(
            kind(r#"{"op":"submit","job":{"bench":"PCR"},"priority":99}"#),
            ErrorKind::BadRequest
        );
        assert_eq!(
            kind(r#"{"op":"stats","extra":true}"#),
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn error_responses_are_valid_json() {
        let e = ProtocolError::new(ErrorKind::BadFrame, "quote \" and \\ and\nnewline");
        let line = e.to_response();
        let doc: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("error").and_then(Value::as_str), Some("bad_frame"));
    }

    #[test]
    fn oversized_frames_are_bad_frames() {
        let line = format!("{{\"op\":\"stats\",\"pad\":\"{}\"}}", "x".repeat(MAX_FRAME));
        assert_eq!(parse_request(&line).unwrap_err().kind, ErrorKind::BadFrame);
    }
}
