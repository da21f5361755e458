//! Hostile-input coverage: malformed, truncated, unknown-field, and
//! oversized requests must produce structured `error` replies — never a
//! panic, never a hang — and must leave the daemon serving.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use procrustes_core::{Engine, Scenario, Sweep};
use procrustes_serve::{Client, ClientError, Response, ServeConfig, Source};

fn hostile_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        max_sweep: 64,
        max_line_bytes: 4096,
        ..ServeConfig::default()
    }
}

#[test]
fn malformed_lines_get_error_replies_and_the_connection_survives() {
    let (addr, server) = common::start(hostile_config());
    let mut client = Client::connect(addr).unwrap();
    let valid = Scenario::builder("VGG-S").build().unwrap().to_json();
    // An `eval` carries only `op` and `scenario`: a `route` field is
    // unknown, even beside a valid scenario.
    let routed = format!(r#"{{"op":"eval","scenario":{valid},"route":"local"}}"#);
    let hostile_lines = [
        "not json".to_string(),
        "{".to_string(),
        "[]".to_string(),
        "42".to_string(),
        r#"{"op":"teapot"}"#.to_string(),
        r#"{"op":"eval"}"#.to_string(),
        r#"{"op":"sweep"}"#.to_string(),
        r#"{"op":"status","verbose":true}"#.to_string(),
        // Unknown field smuggled into an otherwise valid scenario.
        format!(
            r#"{{"op":"eval","scenario":{}}}"#,
            valid.replacen("{\"network\"", "{\"fidelty\":\"x\",\"network\"", 1)
        ),
        // Unknown sweep axis (typo'd "mappings").
        r#"{"op":"sweep","sweep":{"networks":["VGG-S"],"mapings":["KN"]}}"#.to_string(),
        // Parses but fails validation: unknown network, zero batch.
        r#"{"op":"sweep","sweep":{"networks":["AlexNet"]}}"#.to_string(),
        // A nesting bomb must be a parse error, not a stack overflow
        // that aborts the daemon (fits the 4096-byte line limit here;
        // the parser's own depth limit covers larger configurations).
        "[".repeat(2048),
        format!(
            r#"{{"op":"eval","scenario":{}}}"#,
            valid.replacen("\"batch\":16", "\"batch\":0", 1)
        ),
        routed.clone(),
    ];
    for line in &hostile_lines {
        client.send_raw(line).unwrap();
        match client.read_response().unwrap() {
            Response::Error { error } if *line == routed => {
                assert!(error.contains("unknown request field 'route'"), "{error}");
            }
            Response::Error { error } => assert!(!error.is_empty(), "{line}"),
            other => panic!("expected error for {line}, got {}", other.to_json()),
        }
    }
    // Interleaved empty lines are skipped, and the connection still
    // serves real requests afterwards.
    client.send_raw("").unwrap();
    client.send_raw("   ").unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.requests as usize, hostile_lines.len() + 1);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn oversized_sweep_cardinality_is_refused_before_evaluation() {
    let (addr, server) = common::start(hostile_config());
    let mut client = Client::connect(addr).unwrap();
    // 1 network × 65 batches = cardinality 65 > the limit of 64.
    let oversized = Sweep::new()
        .networks(["VGG-S"])
        .batches((1..=65).collect::<Vec<_>>());
    match client.sweep(&oversized) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("cardinality 65"), "{message}");
            assert!(message.contains("64"), "{message}");
        }
        other => panic!("oversized sweep must be refused, got {other:?}"),
    }
    // Nothing was evaluated, and the connection still works.
    let status = client.status().unwrap();
    assert_eq!(status.computed, 0);
    let admitted = client
        .sweep(&Sweep::new().networks(["VGG-S"]).batches([2]))
        .unwrap();
    assert_eq!(admitted.len(), 1);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn truncated_request_gets_an_error_not_a_hang() {
    let (addr, server) = common::start(hostile_config());
    // Half a request and then a half-closed socket: the daemon must
    // answer (an error) and release the connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(br#"{"op":"stat"#).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let line = reply.lines().next().expect("one error line");
    assert!(
        matches!(Response::parse_line(line), Ok(Response::Error { .. })),
        "{reply}"
    );
    // The daemon is still alive for the next client.
    let mut client = Client::connect(addr).unwrap();
    client.status().unwrap();
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn oversized_line_is_discarded_with_an_error_and_the_stream_resyncs() {
    let (addr, server) = common::start(hostile_config());
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    // 16× the configured line limit in one line: the daemon must stop
    // buffering at the limit (not accumulate the whole blob), answer
    // with an error, and resync on the newline.
    let mut blob = vec![b'a'; 16 * 4096];
    blob.push(b'\n');
    writer.write_all(&blob).unwrap();
    writer.write_all(b"{\"op\":\"status\"}\n").unwrap();
    writer.flush().unwrap();
    let mut read_line = || {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        Response::parse_line(line.trim_end()).unwrap()
    };
    match read_line() {
        Response::Error { error } => assert!(error.contains("4096"), "{error}"),
        other => panic!("expected oversized-line error, got {}", other.to_json()),
    }
    // The same connection serves the next request after the resync.
    match read_line() {
        Response::Status(_) => {}
        other => panic!("expected status after resync, got {}", other.to_json()),
    }
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// Sends one `store` line in the wire form earlier versions replicated
/// with, and checks it gets the parser's unknown-op refusal.
fn refused_store(client: &mut Client, fingerprint: u64, doc: &str) {
    let line = format!(r#"{{"op":"store","fp":"{fingerprint:016x}","result":{doc}}}"#);
    client.send_raw(&line).unwrap();
    match client.read_response().unwrap() {
        Response::Error { error } => assert!(error.contains("unknown op 'store'"), "{error}"),
        other => panic!("a store must be refused, got {}", other.to_json()),
    }
}

#[test]
fn a_plain_daemon_refuses_every_store() {
    let (addr, server) = common::start(hostile_config());
    let mut client = Client::connect(addr).unwrap();
    let scenario = Scenario::builder("VGG-S").build().unwrap();
    let honest = Engine::serial().run(&scenario).unwrap().to_json();
    refused_store(&mut client, scenario.fingerprint(), &honest);
    let forged = honest.replacen("\"cycles\":", "\"cycles\":1", 1);
    assert_ne!(forged, honest);
    refused_store(&mut client, scenario.fingerprint(), &forged);
    assert_eq!(client.metrics().unwrap().parse_errors, 2);

    // Nothing was installed: the scenario is computed, to the real bytes.
    let served = client.eval(&scenario).unwrap();
    assert_eq!(served.source, Source::Computed);
    assert_eq!(served.doc, honest);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn retired_search_verb_is_an_unknown_op_and_fresh_metrics_list_five_verbs() {
    let (addr, server) = common::start(hostile_config());
    let mut client = Client::connect(addr).unwrap();

    // Before any eval, the per-verb table holds exactly the five verbs
    // in wire order, with no latency quantile yet.
    let metrics = client.metrics().unwrap();
    let names: Vec<&str> = metrics.verbs.iter().map(|(v, _)| v.as_str()).collect();
    assert_eq!(names, ["eval", "sweep", "status", "metrics", "shutdown"]);
    let eval = metrics.verbs[0].1;
    assert_eq!(eval.requests, 0);
    assert_eq!(eval.p50_ms, None);

    // A stray field on `metrics`, and a well-formed search spec sent to
    // the retired `search` verb: one error line each, both counted as
    // parse errors, and the connection keeps serving.
    let space = Sweep::new().networks(["VGG-S"]).batches([2, 4]).to_json();
    let search = format!(
        r#"{{"op":"search","spec":{{"space":{space},"objectives":["cycles","energy"],"seed":1,"population":4,"budget":8,"rungs":2}}}}"#
    );
    for line in [r#"{"op":"metrics","extra":true}"#, search.as_str()] {
        client.send_raw(line).unwrap();
        match client.read_response().unwrap() {
            Response::Error { error } if line == search => {
                assert!(error.contains("unknown op 'search'"), "{error}");
            }
            Response::Error { error } => assert!(!error.is_empty(), "{line}"),
            other => panic!("expected an error line for {line}, got {}", other.to_json()),
        }
    }
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.parse_errors, 2);
    assert_eq!(metrics.computed, 0);
    let served = client
        .eval(&Scenario::builder("VGG-S").build().unwrap())
        .unwrap();
    assert_eq!(served.source, Source::Computed);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}
