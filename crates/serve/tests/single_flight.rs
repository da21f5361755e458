//! Single-flight through the daemon's in-flight map: however many
//! connections ask for a scenario at once, and in whatever order, it is
//! computed once, every answer is the same bytes, and no two
//! connections ever wait on each other.

mod common;

use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use procrustes_core::{Engine, Scenario, SparsityGen, Sweep};
use procrustes_serve::{Client, ServeConfig, Served, Source};

/// How long a request may take before the test calls it stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `request` on one connection per element of `work`, all released
/// at once, and returns the replies in `work` order. A connection that
/// has not answered within [`READ_TIMEOUT`] fails the test instead of
/// hanging it.
fn race<T: Send + 'static>(
    addr: SocketAddr,
    work: Vec<T>,
    request: fn(&mut Client, T) -> Vec<Served>,
) -> Vec<Vec<Served>> {
    let connections = work.len();
    let start = Arc::new(Barrier::new(connections));
    let (tx, rx) = mpsc::channel();
    let clients: Vec<_> = work
        .into_iter()
        .enumerate()
        .map(|(connection, item)| {
            let (start, tx) = (Arc::clone(&start), tx.clone());
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                start.wait();
                let _ = tx.send((connection, request(&mut client, item)));
            })
        })
        .collect();
    drop(tx);
    let mut replies: Vec<Option<Vec<Served>>> = vec![None; connections];
    for _ in 0..connections {
        let (connection, served) = rx.recv_timeout(READ_TIMEOUT).unwrap_or_else(|_| {
            panic!("a connection failed or had no answer within {READ_TIMEOUT:?}")
        });
        replies[connection] = Some(served);
    }
    for client in clients {
        client.join().expect("a client thread that answered ends");
    }
    replies.into_iter().map(Option::unwrap).collect()
}

fn eval(client: &mut Client, scenario: Scenario) -> Vec<Served> {
    vec![client.eval(&scenario).expect("eval")]
}

fn sweep(client: &mut Client, sweep: Sweep) -> Vec<Served> {
    client.sweep(&sweep).expect("sweep")
}

#[test]
fn eight_connections_racing_one_eval_compute_it_once() {
    let (addr, server) = common::start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let scenario = Scenario::builder("ResNet18")
        .sparsity(SparsityGen::PaperSynthetic { seed: 81 })
        .build()
        .unwrap();
    let expected = Engine::serial().run(&scenario).unwrap().to_json();

    let replies = race(addr, vec![scenario; 8], eval);
    for served in replies.iter().flatten() {
        assert_eq!(served.doc, expected, "every connection gets the same bytes");
    }
    let computed = replies.iter().flatten();
    let computed = computed.filter(|s| s.source == Source::Computed).count();
    assert_eq!(computed, 1, "exactly one connection computed");

    let mut client = Client::connect(addr).unwrap();
    let status = client.status().unwrap();
    assert_eq!((status.computed, status.memo_hits), (1, 7));
    assert_eq!(client.metrics().unwrap().queue_depth, 0);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn opposite_order_sweeps_of_two_scenarios_both_finish() {
    let (addr, server) = common::start(ServeConfig {
        shards: 2,
        cache_dir: None,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    // Fresh scenarios every round, so every round races two computes.
    for seed in 0..32 {
        let pair = |networks: [&str; 2]| {
            Sweep::new()
                .networks(networks)
                .sparsities([SparsityGen::PaperSynthetic { seed }])
                .batches([1])
        };
        let before = client.status().unwrap().computed;
        let replies = race(
            addr,
            vec![pair(["VGG-S", "ResNet18"]), pair(["ResNet18", "VGG-S"])],
            sweep,
        );
        let [forward, backward] = [&replies[0], &replies[1]];
        assert_eq!((forward.len(), backward.len()), (2, 2));
        assert_eq!(forward[0].doc, backward[1].doc, "round {seed}: VGG-S");
        assert_eq!(forward[1].doc, backward[0].doc, "round {seed}: ResNet18");
        let computed = client.status().unwrap().computed - before;
        assert_eq!(computed, 2, "round {seed}: each scenario computes once");
    }
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn a_network_named_twice_is_computed_once_and_answered_twice() {
    let (addr, server) = common::start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let served = client
        .sweep(&Sweep::new().networks(["VGG-S", "VGG-S"]).batches([2]))
        .unwrap();
    assert_eq!(served.len(), 2);
    assert_eq!(
        served[0].doc, served[1].doc,
        "both indices hold one document"
    );
    assert_eq!(
        (served[0].source, served[1].source),
        (Source::Computed, Source::Memo)
    );
    let status = client.status().unwrap();
    assert_eq!((status.computed, status.memo_hits), (1, 1));
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}
