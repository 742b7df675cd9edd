//! Integration test of the live `/metrics` scrape endpoint.
//!
//! The acceptance bar: a raw HTTP `GET /metrics` against a running
//! [`MetricsServer`] returns *byte-identical* output to
//! [`render_prometheus`] over the same registry — the exposition a
//! `--prom FILE` run would write. The scrape happens after a real traced
//! PageRank run has populated the global registry through the engines'
//! resolve-once observer handles (phase histograms + hot-vertex gauges),
//! so the test also pins that the listener serves live engine metrics,
//! not a canned snapshot.
//!
//! One `#[test]` only: the registry is process-global and the run must
//! finish before the body/`render_prometheus` comparison, so splitting
//! into parallel tests would race the exposition.

use cyclops::obs::{install_global, render_prometheus, MetricsServer};
use cyclops::prelude::*;
use cyclops_engine::run_cyclops_traced;
use cyclops_net::trace::TraceSink;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Sends one request line and returns (status line, headers, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, Vec<String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body separator");
    let head = String::from_utf8(raw[..split].to_vec()).expect("headers are utf-8");
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n").map(str::to_string);
    let status = lines.next().expect("status line");
    (status, lines.collect(), body)
}

#[test]
fn scraping_metrics_matches_the_prom_file_exposition() {
    let registry = install_global();

    // A real traced run with hot-vertex capture: resolves EngineObs and
    // HotObs against the global registry and populates both.
    let g = Dataset::Amazon.generate_scaled(0.05, 1);
    let cluster = ClusterSpec::flat(2, 2);
    let p = HashPartitioner.partition(&g, 4);
    let sink = TraceSink::new("cyclops", &cluster).with_hot_k(4);
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 6,
        ..Default::default()
    };
    run_cyclops_traced(
        &CyclopsPageRank { epsilon: 0.0 },
        &g,
        &p,
        &config,
        Some(&sink),
    );

    let mut server = MetricsServer::start("127.0.0.1:0", registry).expect("bind scrape endpoint");
    let addr = server.addr();

    // The run is complete, so the live scrape and a --prom-style render of
    // the same registry must be byte-identical.
    let (status, headers, body) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let expected = render_prometheus(registry);
    assert_eq!(
        body,
        expected.as_bytes(),
        "GET /metrics must match render_prometheus byte-for-byte"
    );
    assert!(
        headers
            .iter()
            .any(|h| h.eq_ignore_ascii_case(&format!("content-length: {}", body.len()))),
        "Content-Length must match the body: {headers:?}"
    );
    assert!(
        headers.iter().any(|h| h
            .to_ascii_lowercase()
            .starts_with("content-type: text/plain")),
        "exposition content type: {headers:?}"
    );

    // The engine's observers actually landed in the exposition.
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("cyclops_phase_ns"),
        "phase histograms:\n{text}"
    );
    assert!(
        text.contains("cyclops_hot_vertex_cost"),
        "hot gauges:\n{text}"
    );
    // The transport's worker-pair traffic counters: the full workers²
    // family resolves at construction, and the traced run pushed real
    // cross-worker traffic through at least one off-diagonal pair.
    assert!(
        text.contains("cyclops_comm_pair_messages_total"),
        "comm pair messages:\n{text}"
    );
    assert!(
        text.contains("cyclops_comm_pair_bytes"),
        "comm pair bytes:\n{text}"
    );
    let off_diagonal_traffic = text.lines().any(|l| {
        l.starts_with("cyclops_comm_pair_bytes{")
            && l.contains("src=\"0\"")
            && !l.contains("dst=\"0\"")
            && !l.trim_end().ends_with(" 0")
    });
    assert!(
        off_diagonal_traffic,
        "no cross-worker bytes recorded:\n{text}"
    );

    // Liveness probe and unknown routes.
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, b"ok\n");
    let (status, _, _) = http_get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // Shutdown releases the port.
    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must stop accepting after shutdown"
    );
}
