//! End-to-end test of the job service on a live ephemeral-port server:
//! concurrent identical submissions dedupe onto one simulation per
//! distinct cell, every client streams byte-identical manifests,
//! resubmission is pure memo replay, and graceful shutdown leaves no
//! partial memo entries behind.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use wsrs_bench::client;
use wsrs_serve::{MemoKey, MemoStore, Server, ServerOptions};
use wsrs_telemetry::Json;
use wsrs_trace::TraceKey;

/// A tiny two-cell grid (distinct workloads, so two scalar units).
const GRID: &str = "{\"warmup\": 2000, \"measure\": 4000, \"cells\": [\
    {\"workload\": \"gzip\", \"config\": \"RR 256\"},\
    {\"workload\": \"mcf\", \"config\": \"WSRS RC S 512\"}]}";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsrs-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit(addr: &str, body: &str) -> u64 {
    let resp = client::post(addr, "/v1/jobs", body).expect("submit");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    Json::parse(&resp.body_str())
        .unwrap()
        .get("job")
        .and_then(Json::as_u64)
        .expect("job id")
}

fn status(addr: &str, job: u64) -> Json {
    let resp = client::get(addr, &format!("/v1/jobs/{job}")).expect("status");
    assert_eq!(resp.status, 200);
    Json::parse(&resp.body_str()).unwrap()
}

fn status_field(addr: &str, job: u64, field: &str) -> u64 {
    status(addr, job).get(field).and_then(Json::as_u64).unwrap()
}

fn stream(addr: &str, job: u64) -> String {
    let resp = client::get(addr, &format!("/v1/jobs/{job}/stream")).expect("stream");
    assert_eq!(resp.status, 200);
    resp.body_str()
}

fn wait_done(addr: &str, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = status(addr, job);
        if s.get("done").and_then(Json::as_bool) == Some(true) {
            return;
        }
        assert!(Instant::now() < deadline, "job {job} never finished: {s:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn concurrent_clients_dedup_memoize_and_shut_down_cleanly() {
    let memo_dir = temp_dir("memo");
    let trace_dir = temp_dir("traces");
    let opts = ServerOptions {
        workers: 2,
        paused: true, // hold the pool so all four jobs land before any cell runs
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Four identical grids while the workers are paused: the first
    // submission owns both cells, the other three attach to its
    // in-flight simulations.
    let jobs: Vec<u64> = (0..4).map(|_| submit(&addr, GRID)).collect();
    assert_eq!(status_field(&addr, jobs[0], "simulated"), 2);
    assert_eq!(status_field(&addr, jobs[0], "attached"), 0);
    for &job in &jobs[1..] {
        assert_eq!(status_field(&addr, job, "simulated"), 0);
        assert_eq!(status_field(&addr, job, "attached"), 2);
        assert_eq!(status_field(&addr, job, "memoized"), 0);
    }

    let resume = client::post(&addr, "/v1/control/resume", "").unwrap();
    assert_eq!(resume.status, 200);

    // All four clients stream concurrently; every manifest must be
    // byte-identical regardless of which job owned the simulations.
    let manifests: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&job| {
                let addr = addr.clone();
                s.spawn(move || stream(&addr, job))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for m in &manifests[1..] {
        assert_eq!(m, &manifests[0], "streams diverged between clients");
    }
    // Header + one line per cell, all complete JSON.
    let lines: Vec<&str> = manifests[0].lines().collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(
        Json::parse(lines[0])
            .unwrap()
            .get("cells")
            .and_then(Json::as_u64),
        Some(2)
    );
    for line in &lines[1..] {
        let v = Json::parse(line).expect("complete JSON line");
        assert!(v.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(
            v.get("sim_rev").and_then(Json::as_str).unwrap(),
            format!("{:016x}", wsrs_core::sim_revision())
        );
        assert_eq!(
            v.get("config_content_hash")
                .and_then(Json::as_str)
                .unwrap()
                .len(),
            16
        );
        assert_eq!(
            v.get("trace_checksum")
                .and_then(Json::as_str)
                .unwrap()
                .len(),
            16,
            "cells must carry their memo-key trace checksum"
        );
    }

    // Exactly two simulations ran across all four jobs (one unit per
    // distinct cell), and both results were flushed to the memo store.
    let stats = Json::parse(&client::get(&addr, "/v1/stats").unwrap().body_str()).unwrap();
    assert_eq!(stats.get("units_run").and_then(Json::as_u64), Some(2));
    assert_eq!(
        stats
            .get("memo")
            .unwrap()
            .get("writes")
            .and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(stats.get("inflight").and_then(Json::as_u64), Some(0));

    // Resubmission replays purely from the memo store — no new
    // simulation, byte-identical stream.
    let rerun = submit(&addr, GRID);
    assert_eq!(status_field(&addr, rerun, "memoized"), 2);
    assert_eq!(status_field(&addr, rerun, "simulated"), 0);
    wait_done(&addr, rerun);
    assert_eq!(stream(&addr, rerun), manifests[0]);
    let stats = Json::parse(&client::get(&addr, "/v1/stats").unwrap().body_str()).unwrap();
    assert_eq!(stats.get("units_run").and_then(Json::as_u64), Some(2));

    // Graceful shutdown: the run loop exits and the memo directory holds
    // exactly the two complete entries — no temp files, no partials.
    shutdown();
    server_thread.join().expect("server thread");
    let entries: Vec<String> = std::fs::read_dir(&memo_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries.len(), 2, "{entries:?}");
    for name in &entries {
        assert!(
            MemoKey::parse_file_name(name).is_some(),
            "stray file in memo dir: {name}"
        );
    }

    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn bad_submissions_and_unknown_jobs_are_rejected() {
    let memo_dir = temp_dir("memo-errs");
    let trace_dir = temp_dir("traces-errs");
    let opts = ServerOptions {
        workers: 1,
        paused: false,
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    for bad in [
        "{}",
        "{\"experiment\": \"nonesuch\"}",
        "{\"cells\": []}",
        "{\"cells\": [{\"workload\": \"gzip\", \"config\": \"nonesuch\"}]}",
        "{\"cells\": [{\"workload\": \"gzip\", \"config\": \"RR 256\", \"sample\": \
         {\"intervals\": 0, \"interval_uops\": 750, \"detail_warmup\": 1000}}]}",
    ] {
        let resp = client::post(&addr, "/v1/jobs", bad).unwrap();
        assert_eq!(resp.status, 400, "{bad}");
    }
    assert_eq!(client::get(&addr, "/v1/jobs/999").unwrap().status, 404);
    assert_eq!(
        client::get(&addr, "/v1/jobs/999/stream").unwrap().status,
        404
    );
    assert_eq!(client::get(&addr, "/v1/nonesuch").unwrap().status, 404);

    shutdown();
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// A submission that parses but cannot run (a zero `measure` under a
/// sample spec has no sampling plan, a window whose length overflows a
/// `u64`) or carries a malformed field is a 400 naming the field, and never reaches the single worker: a valid job
/// after it still completes, and shutdown is clean.
#[test]
fn bad_requests_leave_the_worker_pool_serving() {
    let memo_dir = temp_dir("memo-survive");
    let trace_dir = temp_dir("traces-survive");
    let opts = ServerOptions {
        workers: 1,
        paused: false,
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    for (bad, field) in [
        (
            "{\"warmup\":5,\"measure\":0,\"cells\":[{\"workload\":\"gzip\",\"config\":\"RR 256\",\
             \"sample\":{\"intervals\":48,\"interval_uops\":750,\"detail_warmup\":1000}}]}",
            "'measure'",
        ),
        (
            "{\"warmup\":\"abc\",\"cells\":[{\"workload\":\"gzip\",\"config\":\"RR 256\"}]}",
            "'warmup'",
        ),
        (
            "{\"warmup\":18446744073709551615,\"measure\":1,\
             \"cells\":[{\"workload\":\"gzip\",\"config\":\"RR 256\"}]}",
            "'warmup' + 'measure'",
        ),
        (
            "{\"cells\":[{\"workload\":\"gzip\",\"config\":\"RR 256\",\
             \"sample\":{\"intervals\":4,\"interval_uops\":750}}]}",
            "'sample.detail_warmup'",
        ),
        (
            "{\"measure\":1000,\"cells\":[{\"workload\":\"gzip\",\"config\":\"RR 256\",\
             \"sample\":{\"intervals\":4294967295,\"interval_uops\":750,\"detail_warmup\":1}}]}",
            "'sample.intervals'",
        ),
    ] {
        let resp = client::post(&addr, "/v1/jobs", bad).unwrap();
        assert_eq!(resp.status, 400, "{bad}");
        assert!(resp.body_str().contains(field), "{}", resp.body_str());
    }

    let job = submit(
        &addr,
        "{\"warmup\": 2000, \"measure\": 4000, \"cells\": [\
         {\"workload\": \"gzip\", \"config\": \"RR 256\"}]}",
    );
    wait_done(&addr, job);
    assert_eq!(stream(&addr, job).lines().count(), 2);

    shutdown();
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// Cell lines carry one configuration fingerprint, `config_content_hash`,
/// and neither retired key (`skip`, `config_hash`); a memoized line
/// replays byte-identically. An entry written by the previous simulator
/// revision, whose lines still carried `config_hash`, is never replayed
/// and is pruned by the memo GC.
#[test]
fn cell_lines_carry_no_retired_keys_and_stale_revisions_miss() {
    const CELL: &str = "{\"warmup\": 2000, \"measure\": 4000, \"cells\": [\
        {\"workload\": \"gzip\", \"config\": \"RR 256\"}]}";
    let memo_dir = temp_dir("memo-stale");
    let trace_dir = temp_dir("traces-stale");
    let opts = ServerOptions {
        workers: 1,
        paused: false,
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let first = submit(&addr, CELL);
    wait_done(&addr, first);
    let streamed = stream(&addr, first);
    let line = streamed.lines().nth(1).expect("one cell line");
    let v = Json::parse(line).expect("complete JSON line");
    assert!(v.get("config_content_hash").is_some(), "{line}");
    assert!(!line.contains("\"config_hash\""), "{line}");
    assert!(v.get("skip").is_none(), "{line}");
    assert!(!line.contains("\"skip\""), "{line}");

    // The entry a parent-revision server wrote for the same cell: same
    // config and trace, the old revision, a `config_hash` key in the line.
    let hex = |field: &str| {
        u64::from_str_radix(v.get(field).and_then(Json::as_str).unwrap(), 16).unwrap()
    };
    let current = MemoKey {
        config: hex("config_content_hash"),
        trace: hex("trace_checksum"),
        sim: wsrs_core::sim_revision(),
        spec: 0,
    };
    let parent = MemoKey {
        sim: wsrs_isa::fnv1a_64(b"wsrs-sim-v2"),
        ..current
    };
    assert_ne!(parent.sim, current.sim);
    let memo_line = std::fs::read_to_string(memo_dir.join(current.file_name())).unwrap();
    assert_eq!(memo_line, line);
    let stale = line.replacen(
        "\"config_content_hash\"",
        "\"config_hash\":\"5d6f1e2a9b3c4d7e\",\"config_content_hash\"",
        1,
    );
    assert_ne!(stale, line, "the cell line renders a content hash");
    std::fs::write(memo_dir.join(parent.file_name()), stale).unwrap();
    std::fs::remove_file(memo_dir.join(current.file_name())).unwrap();

    // Only the parent-revision entry exists: the cell simulates afresh.
    let rerun = submit(&addr, CELL);
    assert_eq!(status_field(&addr, rerun, "memoized"), 0);
    assert_eq!(status_field(&addr, rerun, "simulated"), 1);
    wait_done(&addr, rerun);
    assert_eq!(stream(&addr, rerun), streamed);

    // The fresh entry replays byte-identically.
    let replay = submit(&addr, CELL);
    assert_eq!(status_field(&addr, replay, "memoized"), 1);
    wait_done(&addr, replay);
    assert_eq!(stream(&addr, replay), streamed);

    shutdown();
    server_thread.join().expect("server thread");
    let gc = MemoStore::at(&memo_dir)
        .gc(wsrs_core::sim_revision(), false)
        .unwrap();
    assert_eq!((gc.kept, gc.stale, gc.malformed), (1, 1, 0));
    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// A memo lookup only trusts a stored trace whose header matches the
/// requested window: a trace renamed to another window's file name must
/// not make that window replay the first window's memoized result.
#[test]
fn renamed_trace_does_not_serve_another_windows_memo_entry() {
    let cell = |measure: u64| {
        format!(
            "{{\"warmup\": 2000, \"measure\": {measure}, \"cells\": [\
             {{\"workload\": \"gzip\", \"config\": \"RR 256\"}}]}}"
        )
    };
    let memo_dir = temp_dir("memo-renamed");
    let trace_dir = temp_dir("traces-renamed");
    let opts = ServerOptions {
        workers: 1,
        paused: false,
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());
    let trace_checksum = |streamed: &str| {
        let line = streamed.lines().nth(1).expect("one cell line");
        let v = Json::parse(line).expect("complete JSON line");
        v.get("trace_checksum")
            .and_then(Json::as_str)
            .expect("trace checksum")
            .to_string()
    };

    let first = submit(&addr, &cell(4000));
    wait_done(&addr, first);
    let w1 = trace_checksum(&stream(&addr, first));

    // Plant the recorded trace under the file name of a wider window.
    let names: Vec<String> = std::fs::read_dir(&trace_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| TraceKey::parse_file_name(n).is_some())
        .collect();
    assert_eq!(names.len(), 1, "{names:?}");
    let key = TraceKey::parse_file_name(&names[0]).unwrap();
    assert_eq!(key.measure, 4000);
    let wider = TraceKey {
        measure: 5000,
        ..key
    };
    std::fs::rename(trace_dir.join(&names[0]), trace_dir.join(wider.file_name())).unwrap();

    let second = submit(&addr, &cell(5000));
    assert_eq!(status_field(&addr, second, "memoized"), 0);
    assert_eq!(status_field(&addr, second, "simulated"), 1);
    wait_done(&addr, second);
    assert_ne!(trace_checksum(&stream(&addr, second)), w1);

    shutdown();
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// Starts a server bound to `bind` and returns its port, its shutdown
/// handle, and a channel that receives once [`Server::run`] has returned.
fn start(bind: &str, tag: &str) -> (u16, impl Fn(), std::sync::mpsc::Receiver<()>, [PathBuf; 2]) {
    let dirs = [
        temp_dir(&format!("memo-{tag}")),
        temp_dir(&format!("traces-{tag}")),
    ];
    let opts = ServerOptions {
        workers: 1,
        paused: false,
        memo_dir: dirs[0].clone(),
        trace_dir: dirs[1].clone(),
    };
    let server = Server::bind(bind, &opts).expect("bind");
    let port = server.addr().port();
    let shutdown = server.shutdown_handle();
    let (done, returned) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.run();
        let _ = done.send(());
    });
    (port, shutdown, returned, dirs)
}

/// A client that connects and never sends a request cannot hold the
/// shutdown drain: its request misses the server's request deadline.
#[test]
fn stalled_client_does_not_block_shutdown() {
    let (port, shutdown, returned, dirs) = start("127.0.0.1:0", "stalled");
    let addr = format!("127.0.0.1:{port}");
    let idle = std::net::TcpStream::connect(&addr).expect("connect");
    // A served request proves the idle connection was accepted first.
    assert_eq!(client::get(&addr, "/v1/stats").unwrap().status, 200);

    let t0 = Instant::now();
    shutdown();
    returned
        .recv_timeout(Duration::from_secs(8))
        .expect("Server::run must return despite the stalled client");
    assert!(t0.elapsed() < Duration::from_secs(8));
    drop(idle);
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A client that trickles its request head a byte at a time, each byte
/// well inside any per-read timeout, still cannot hold the shutdown
/// drain: the deadline covers the whole request.
#[test]
fn trickling_client_does_not_block_shutdown() {
    use std::io::Write;
    let (port, shutdown, returned, dirs) = start("127.0.0.1:0", "trickle");
    let addr = format!("127.0.0.1:{port}");
    let mut slow = std::net::TcpStream::connect(&addr).expect("connect");
    slow.write_all(b"GET /v1/stats HTTP/1.1\r\nX-Slow: ")
        .unwrap();
    std::thread::spawn(move || {
        // Stops once the server has closed the connection.
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(200));
            if slow.write_all(b"a").is_err() {
                break;
            }
        }
    });
    assert_eq!(client::get(&addr, "/v1/stats").unwrap().status, 200);

    let t0 = Instant::now();
    shutdown();
    returned
        .recv_timeout(Duration::from_secs(8))
        .expect("Server::run must return despite the trickling client");
    assert!(t0.elapsed() < Duration::from_secs(8));
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A server bound to the unspecified address still shuts down promptly:
/// the waker reaches the blocking `accept` through loopback.
#[test]
fn wildcard_bound_server_shuts_down_promptly() {
    let (port, shutdown, returned, dirs) = start("0.0.0.0:0", "wildcard");
    let addr = format!("127.0.0.1:{port}");
    assert_eq!(client::get(&addr, "/v1/stats").unwrap().status, 200);

    shutdown();
    returned
        .recv_timeout(Duration::from_secs(5))
        .expect("Server::run must return after shutdown");
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A request head over the 64 KiB cap is dropped like any malformed
/// request, and the server goes on serving the next client.
#[test]
fn oversized_request_head_is_refused() {
    use std::io::{Read, Write};
    let (port, shutdown, returned, dirs) = start("127.0.0.1:0", "bighead");
    let addr = format!("127.0.0.1:{port}");
    let mut big = std::net::TcpStream::connect(&addr).expect("connect");
    big.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut head = b"GET /v1/stats HTTP/1.1\r\nX-Big: ".to_vec();
    head.resize(head.len() + (256 << 10), b'a');
    head.extend_from_slice(b"\r\n\r\n");
    // The server may close mid-write; a failed write or read is a refusal.
    let _ = big.write_all(&head);
    let mut answer = Vec::new();
    let _ = big.read_to_end(&mut answer);
    let answer = String::from_utf8_lossy(&answer);
    assert!(!answer.contains(" 200 "), "{answer}");

    assert_eq!(client::get(&addr, "/v1/stats").unwrap().status, 200);
    shutdown();
    returned
        .recv_timeout(Duration::from_secs(8))
        .expect("Server::run must return after shutdown");
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}
