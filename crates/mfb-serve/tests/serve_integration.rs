//! End-to-end daemon tests over a real TCP socket: submit/status/result
//! round trips, warm-cache hits on resubmission, deadline semantics,
//! typed wire-level errors, trace export, and drain-based graceful
//! shutdown with a persistent snapshot.

use mfb_serve::prelude::*;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn call(&mut self, line: &str) -> Value {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        serde_json::from_str(response.trim()).expect("response is JSON")
    }

    /// Polls `status` until the job is terminal; returns the final
    /// `result` response.
    fn wait(&mut self, id: &str, timeout: Duration) -> Value {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.call(&format!("{{\"op\":\"status\",\"id\":\"{id}\"}}"));
            let state = status
                .get("state")
                .and_then(Value::as_str)
                .unwrap_or("missing");
            if !matches!(state, "queued" | "running") {
                return self.call(&format!("{{\"op\":\"result\",\"id\":\"{id}\"}}"));
            }
            assert!(
                Instant::now() < deadline,
                "job {id} still {state} after {timeout:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

fn start_server(
    cfg: ServerConfig,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<ServeSummary>,
) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (addr, handle, join)
}

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn id_of(v: &Value) -> String {
    v.get("id").and_then(Value::as_str).expect("id").to_owned()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mfb-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn submit_runs_warm_second_time_and_drains_with_snapshot() {
    let dir = tmp_dir("warm");
    let (addr, _handle, join) = start_server(ServerConfig {
        cache_dir: Some(dir.clone()),
        workers: 2,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);

    assert!(ok(&c.call(r#"{"op":"ping"}"#)));

    // Cold run.
    let sub = c.call(r#"{"op":"submit","job":{"bench":"PCR"},"trace":true}"#);
    assert!(ok(&sub), "{sub:?}");
    let id = id_of(&sub);
    let result = c.wait(&id, Duration::from_secs(120));
    assert!(ok(&result), "{result:?}");
    assert_eq!(result.get("state").and_then(Value::as_str), Some("done"));
    let outcome = result.get("outcome").expect("outcome");
    assert_eq!(outcome.get("ok").and_then(Value::as_bool), Some(true));
    let cold_exec = outcome.get("execution_secs").and_then(Value::as_f64);

    // The requested trace came back as parseable JSONL.
    let trace = result
        .get("trace_jsonl")
        .and_then(Value::as_str)
        .expect("trace_jsonl");
    if !trace.is_empty() {
        mfb_obs::export::check_jsonl(trace).expect("trace is well-formed JSONL");
    }

    // Warm run: byte-identical outcome, cache hits counted.
    let sub2 = c.call(r#"{"op":"submit","job":{"bench":"PCR"}}"#);
    let id2 = id_of(&sub2);
    let result2 = c.wait(&id2, Duration::from_secs(120));
    let outcome2 = result2.get("outcome").expect("outcome");
    assert_eq!(
        outcome2.get("execution_secs").and_then(Value::as_f64),
        cold_exec,
        "warm result must match cold"
    );
    assert_eq!(
        outcome2.get("warm_schedule").and_then(Value::as_bool),
        Some(true)
    );

    let stats = c.call(r#"{"op":"stats"}"#);
    assert!(ok(&stats));
    let hits = stats
        .pointer_or("cache", "stats")
        .and_then(|s| s.get("schedule_hits"))
        .and_then(Value::as_u64)
        .expect("schedule_hits");
    assert!(hits > 0, "warm submission must hit the cache: {stats:?}");

    // Drain: server exits cleanly and leaves a snapshot on disk.
    assert!(ok(&c.call(r#"{"op":"drain"}"#)));
    let summary = join.join().expect("server thread");
    assert_eq!(summary.done, 2);
    assert!(summary.snapshot_entries.unwrap_or(0) > 0);
    assert!(dir.join("cache.snap").exists());

    // A fresh server over the same cache-dir starts warm.
    let (addr2, _h2, join2) = start_server(ServerConfig {
        cache_dir: Some(dir.clone()),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c2 = Client::connect(addr2);
    let sub3 = c2.call(r#"{"op":"submit","job":{"bench":"PCR"}}"#);
    let id3 = id_of(&sub3);
    let result3 = c2.wait(&id3, Duration::from_secs(120));
    let outcome3 = result3.get("outcome").expect("outcome");
    assert_eq!(
        outcome3.get("execution_secs").and_then(Value::as_f64),
        cold_exec,
        "restarted server must reproduce results from its snapshot"
    );
    assert!(ok(&c2.call(r#"{"op":"drain"}"#)));
    let summary2 = join2.join().expect("server thread");
    assert!(summary2.loaded.imported > 0, "{:?}", summary2.loaded);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tiny helper: `v["cache"]["stats"]`-style traversal without panicking.
trait PointerOr {
    fn pointer_or(&self, a: &str, b: &str) -> Option<&Value>;
}
impl PointerOr for Value {
    fn pointer_or(&self, a: &str, b: &str) -> Option<&Value> {
        self.get(a).and_then(|v| v.get(b))
    }
}

#[test]
fn deadline_jobs_fail_typed_and_within_twice_the_budget() {
    let (addr, handle, join) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);

    // A budget far too small for Synthetic4 (the largest Table-I
    // bench): must come back `deadline`, and promptly. The elapsed
    // bound allows the worker's 50 ms queue-poll plus checkpoint
    // granularity on top of the 2x-budget acceptance criterion, but
    // stays far under a full Synthetic4 run.
    let budget = Duration::from_millis(5);
    let t0 = Instant::now();
    let sub = c.call(r#"{"op":"submit","job":{"bench":"Synthetic4"},"timeout_secs":0.005}"#);
    assert!(ok(&sub), "{sub:?}");
    let id = id_of(&sub);
    let result = c.wait(&id, Duration::from_secs(30));
    let elapsed = t0.elapsed();
    assert_eq!(
        result.get("state").and_then(Value::as_str),
        Some("deadline"),
        "{result:?}"
    );
    assert_eq!(
        result.get("error_kind").and_then(Value::as_str),
        Some("deadline_exceeded")
    );
    // The acceptance bound is 2x the budget; checkpoints are far finer
    // than 200 ms, so the slack beyond 2x here is only queue polling.
    assert!(
        elapsed < budget * 2 + Duration::from_secs(1),
        "deadline took {elapsed:?} against a {budget:?} budget"
    );

    handle.drain();
    let _ = join.join();
}

/// Wire-level errors are typed on a live connection. Admission control
/// and cancellation are covered deterministically by the unit tests in
/// `src/server.rs`, which drive the dispatcher without worker threads.
#[test]
fn malformed_requests_get_typed_errors() {
    let (addr, handle, join) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);

    let unknown = c.call(r#"{"op":"status","id":"j999"}"#);
    assert_eq!(
        unknown.get("error").and_then(Value::as_str),
        Some("unknown_job")
    );
    let bad = c.call("this is not json");
    assert_eq!(bad.get("error").and_then(Value::as_str), Some("bad_frame"));
    let unknown_op = c.call(r#"{"op":"frobnicate"}"#);
    assert_eq!(
        unknown_op.get("error").and_then(Value::as_str),
        Some("unknown_op")
    );

    handle.drain();
    let _ = join.join();
}

#[test]
fn inline_assay_submission_synthesizes_end_to_end() {
    let (addr, handle, join) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);

    // A self-contained `.assay` program carried in the submit frame: no
    // file ever touches the server's disk.
    let src = "assay-dsl 1\nassay \"wire\"\n\nop a mix 5s wash=2s\nop b detect 4s wash=1s\n\nedge a -> b\n\nflow baseline seed=3\n\nalloc 1 0 0 1\n";
    let job = format!(
        r#"{{"op":"submit","job":{{"assay":{}}}}}"#,
        serde_json::to_string(&src.to_owned()).expect("encode")
    );
    let sub = c.call(&job);
    assert!(ok(&sub), "{sub:?}");
    let result = c.wait(&id_of(&sub), Duration::from_secs(120));
    assert!(ok(&result), "{result:?}");
    assert_eq!(result.get("state").and_then(Value::as_str), Some("done"));
    let outcome = result.get("outcome").expect("outcome");
    assert_eq!(outcome.get("ok").and_then(Value::as_bool), Some(true));
    // The job's display name comes from the program's `assay` statement.
    assert_eq!(outcome.get("name").and_then(Value::as_str), Some("wire"));

    // A syntactically broken inline program fails with a typed error,
    // not a dropped connection.
    let bad = c.call(r#"{"op":"submit","job":{"assay":"assay-dsl 1\nop"}}"#);
    assert_eq!(
        bad.get("ok").and_then(Value::as_bool),
        Some(false),
        "{bad:?}"
    );

    handle.drain();
    join.join().expect("server thread");
}

#[test]
fn submitted_assay_paths_are_refused_without_reading_the_file() {
    let (addr, handle, join) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);

    // A valid assay on the server's disk, named by its absolute path: a
    // client must not be able to make the daemon read (or quote) files.
    let dir = tmp_dir("path");
    let path = dir.join("secret.assay");
    let src = "assay-dsl 1\nassay \"secret-name\"\n\nop a mix 5s wash=2s\nop b detect 4s wash=1s\n\nedge a -> b\n\nalloc 1 0 0 1\n";
    std::fs::write(&path, src).expect("write assay");
    let job = format!(
        r#"{{"op":"submit","job":{{"assay":{}}}}}"#,
        serde_json::to_string(&path.display().to_string()).expect("encode")
    );
    let sub = c.call(&job);
    assert_eq!(
        sub.get("error").and_then(Value::as_str),
        Some("bad_request"),
        "{sub:?}"
    );
    let message = sub.get("message").and_then(Value::as_str).unwrap_or("");
    for leaked in ["secret-name", "assay-dsl", "detect"] {
        assert!(!message.contains(leaked), "file content leaked: {message}");
    }

    handle.drain();
    join.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();
}
