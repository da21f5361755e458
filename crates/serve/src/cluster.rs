//! Cluster layer: the consistent-hash ring and the in-daemon peer
//! forwarding client.
//!
//! A cluster is N daemons started with the *same* `--peers` list. Every
//! node routes each scenario to the fingerprint's **ring owner** (see
//! [`ring_order`]), so any node accepts any request while each distinct
//! scenario is owned — evaluated, memoized, disk-cached — by exactly
//! one node. That extends the single-daemon single-flight guarantee
//! cluster-wide: on the warm path a scenario is computed at most once
//! across the whole cluster, no matter which nodes clients talk to.
//!
//! Forwarding is std-only TCP: one forwarder thread per remote peer
//! holds a persistent connection and relays scenarios as
//! `{"op":"eval","route":"local",...}` requests (`route:"local"` makes
//! forwarding loop-free: the receiving peer must evaluate locally and
//! never re-forward). Peer failure is handled per job, deterministically:
//! a dead, unreachable, or shedding owner is skipped and the job walks
//! the rest of its ring order — re-forwarded to the next live owner or,
//! when the walk reaches this node, evaluated locally. Results are
//! byte-identical wherever they are computed, so failover never changes
//! a single served byte; it only (possibly) recomputes work the dead
//! peer's caches already held.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use procrustes_sim::Fnv1a;

use crate::fault::{Failpoint, Faults};
use crate::proto::{eval_line, Response, Route, Source};
use crate::server::{Job, Shared};

/// Connect timeout for a peer dial; a down host fails fast on a LAN.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a forwarded evaluation may take before the peer is treated
/// as dead (generous: a cold tile-timed evaluation of a large scenario
/// is CPU work, not a hang).
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Write timeout for the forwarded request line.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Backoff before the single same-peer retry (covers a peer mid-restart
/// or a transiently refused connect).
const RETRY_BACKOFF: Duration = Duration::from_millis(100);
/// After a peer is marked dead, forwarders skip it without dialing for
/// this long, then probe it again.
const DEAD_COOLDOWN: Duration = Duration::from_secs(1);

/// The consistent-hash ring: every node's preference order for one
/// fingerprint, computed with rendezvous (highest-random-weight)
/// hashing — each node's weight is FNV-1a over its address string and
/// the fingerprint, and nodes are ranked by descending weight.
///
/// Properties the cluster relies on:
///
/// * **Agreement** — every daemon given the same `--peers` strings
///   computes the same order for every fingerprint; no coordination,
///   no ring state to synchronize.
/// * **Minimal disruption** — removing a node only re-routes the
///   scenarios it owned (they fall to their second-ranked node);
///   everything else keeps its owner and therefore its warm caches.
/// * **Deterministic failover** — "the next ring owner" is position
///   `k+1` of this order, the same on every node that observes the
///   failure.
///
/// The first element is the fingerprint's owner. Ties (astronomically
/// unlikely with 64-bit weights) break by node index, keeping the order
/// total and identical everywhere.
pub fn ring_order(fingerprint: u64, nodes: &[String]) -> Vec<usize> {
    let mut ranked: Vec<(u64, usize)> = nodes
        .iter()
        .enumerate()
        .map(|(index, node)| {
            let mut h = Fnv1a::new();
            h.write(node.as_bytes());
            h.write_u64(fingerprint);
            (h.finish(), index)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, index)| index).collect()
}

/// One ring member's observed health: the dead-until mark plus the
/// instant of the last *successful* exchange, which lets a failure
/// verdict that raced with a success be recognized as stale.
#[derive(Debug, Default, Clone, Copy)]
struct NodeHealth {
    dead_until: Option<Instant>,
    last_alive: Option<Instant>,
}

/// Cluster state shared by forwarder threads and connection threads.
pub(crate) struct ClusterShared {
    /// All ring members (including this daemon), exactly as configured.
    pub nodes: Vec<String>,
    /// This daemon's position in `nodes`.
    pub self_index: usize,
    /// For each node index, the forwarder index owning it (`None` for
    /// self).
    pub forwarder_of: Vec<Option<usize>>,
    /// Per-forwarder queue depth gauges.
    pub depths: Vec<AtomicU64>,
    /// Per-node health marks (the self entry is never set).
    health: Vec<Mutex<NodeHealth>>,
}

impl ClusterShared {
    /// Jobs currently queued across all forwarders.
    pub fn queued(&self) -> u64 {
        self.depths.iter().map(|d| d.load(Ordering::Relaxed)).sum()
    }

    fn is_dead(&self, node: usize) -> bool {
        let health = self.health[node].lock().expect("node health lock");
        health
            .dead_until
            .is_some_and(|until| Instant::now() < until)
    }

    /// Records a failed exchange whose attempt began at
    /// `attempt_started`. The verdict is discarded as stale when some
    /// other thread completed a *successful* exchange after the attempt
    /// began — a slow failure must not re-bury a peer that has since
    /// proven itself alive.
    fn mark_dead_since(&self, node: usize, attempt_started: Instant) {
        let mut health = self.health[node].lock().expect("node health lock");
        if health
            .last_alive
            .is_some_and(|alive| alive >= attempt_started)
        {
            return;
        }
        health.dead_until = Some(Instant::now() + DEAD_COOLDOWN);
    }

    /// Records a successful exchange: clears any dead mark immediately
    /// (a recovered peer must not keep being skipped for the rest of a
    /// cooldown it no longer deserves) and timestamps the proof of life.
    fn mark_alive(&self, node: usize) {
        let mut health = self.health[node].lock().expect("node health lock");
        health.dead_until = None;
        health.last_alive = Some(Instant::now());
    }
}

/// The running cluster plumbing owned by the server: forwarder queues
/// and threads, plus the shared ring state.
pub(crate) struct Cluster {
    pub shared: Arc<ClusterShared>,
    pub senders: Vec<mpsc::SyncSender<Job>>,
    pub handles: Vec<JoinHandle<()>>,
}

impl Cluster {
    /// Spawns one forwarder thread per remote node. `shard_senders` are
    /// cloned into every forwarder for the evaluate-locally fallback.
    pub fn start(
        nodes: Vec<String>,
        self_index: usize,
        queue_cap: usize,
        shard_senders: &[mpsc::SyncSender<Job>],
        server_shared: &Arc<Shared>,
    ) -> Cluster {
        let remote: Vec<usize> = (0..nodes.len()).filter(|&n| n != self_index).collect();
        let mut forwarder_of = vec![None; nodes.len()];
        for (fi, &node) in remote.iter().enumerate() {
            forwarder_of[node] = Some(fi);
        }
        let node_count = nodes.len();
        let shared = Arc::new(ClusterShared {
            nodes,
            self_index,
            forwarder_of,
            depths: remote.iter().map(|_| AtomicU64::new(0)).collect(),
            health: (0..node_count)
                .map(|_| Mutex::new(NodeHealth::default()))
                .collect(),
        });
        let mut senders = Vec::with_capacity(remote.len());
        let mut handles = Vec::with_capacity(remote.len());
        for (fi, &node) in remote.iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Job>(queue_cap);
            senders.push(tx);
            let shared = Arc::clone(&shared);
            let server_shared = Arc::clone(server_shared);
            let shard_senders = shard_senders.to_vec();
            handles.push(std::thread::spawn(move || {
                forwarder_loop(fi, node, &rx, &shared, &server_shared, &shard_senders);
            }));
        }
        Cluster {
            shared,
            senders,
            handles,
        }
    }
}

/// A persistent forwarding connection to one peer.
struct PeerConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl PeerConn {
    /// Dials a peer. With the `peer_dial_refused` failpoint armed and
    /// firing, the dial fails exactly as a down peer would: a refused
    /// connection, before any socket work.
    fn connect(addr: &str, faults: &Faults) -> io::Result<PeerConn> {
        if faults.fires(Failpoint::PeerDialRefused) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "fault injected: peer dial refused",
            ));
        }
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "peer address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(PeerConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Relays one scenario (its canonical text) with `route:"local"`
    /// and reads the single reply line. The `peer_write_timeout`,
    /// `peer_read_timeout`, and `peer_drop_mid_line` failpoints
    /// synthesize the corresponding
    /// socket failures; callers already treat any error here by
    /// dropping the connection, which is exactly right for all three
    /// (after a faulted exchange the stream may hold an unconsumed
    /// reply and must not be reused).
    fn eval(&mut self, scenario: &str, faults: &Faults) -> Result<ForwardOutcome, io::Error> {
        if faults.fires(Failpoint::PeerWriteTimeout) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "fault injected: forwarded write timed out",
            ));
        }
        let mut line = eval_line(scenario, Route::Local);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        if faults.fires(Failpoint::PeerReadTimeout) {
            // The request was written — the peer may well compute and
            // memoize the result — but this side gives up waiting, the
            // worst-case timing for a timeout.
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "fault injected: forwarded read timed out",
            ));
        }
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the forwarding connection",
            ));
        }
        if faults.fires(Failpoint::PeerDropMidLine) {
            // The line arrived but the socket "dies" before it is
            // usable: discard it as a torn read.
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "fault injected: peer connection dropped mid-line",
            ));
        }
        let unusable =
            |m: String| io::Error::new(io::ErrorKind::InvalidData, format!("peer reply: {m}"));
        match Response::parse_line(reply.trim_end()).map_err(unusable)? {
            Response::Result { doc, .. } => Ok(ForwardOutcome::Doc(doc)),
            Response::Shed { .. } => Ok(ForwardOutcome::Shed),
            Response::Error { error } => Ok(ForwardOutcome::Refused(error)),
            other => Err(unusable(other.to_json())),
        }
    }
}

/// What a forwarded evaluation came back as.
enum ForwardOutcome {
    /// The owner served the result document.
    Doc(String),
    /// The owner's queues are full; try the next ring owner.
    Shed,
    /// The owner rejected the scenario itself (deterministic — every
    /// node would answer the same); relay the error, do not fail over.
    Refused(String),
}

/// One peer forwarder: relays its queue over a persistent connection to
/// `nodes[primary]`, failing each job over along its ring order when
/// the peer is dead or shedding.
fn forwarder_loop(
    forwarder_index: usize,
    primary: usize,
    rx: &mpsc::Receiver<Job>,
    cluster: &ClusterShared,
    server: &Arc<Shared>,
    shard_senders: &[mpsc::SyncSender<Job>],
) {
    let mut conn: Option<PeerConn> = None;
    while let Ok(job) = rx.recv() {
        // Decrement at dequeue (the gauge counts jobs *awaiting* a
        // forwarder), so a drained queue reads 0 strictly before the
        // final reply reaches the client.
        cluster.depths[forwarder_index].fetch_sub(1, Ordering::Relaxed);
        forward_one(job, primary, &mut conn, cluster, server, shard_senders);
    }
}

/// Forwards one job: primary owner first (with one backoff retry on a
/// fresh connection), then the remaining ring owners one attempt each,
/// then — at this node's own ring position, or as the last resort —
/// the local shard pool.
fn forward_one(
    job: Job,
    primary: usize,
    conn: &mut Option<PeerConn>,
    cluster: &ClusterShared,
    server: &Arc<Shared>,
    shard_senders: &[mpsc::SyncSender<Job>],
) {
    let owners = ring_order(job.fingerprint, &cluster.nodes);
    debug_assert_eq!(owners[0], primary, "router dispatched to the ring owner");
    for (rank, &owner) in owners.iter().enumerate() {
        if owner == cluster.self_index {
            // Our own ring turn: evaluate locally. Results are
            // byte-identical everywhere, so this changes nothing the
            // client sees. Reaching here means the primary was passed
            // over — a degraded (but correct) completion.
            server.stats.degraded.fetch_add(1, Ordering::Relaxed);
            dispatch_locally(job, shard_senders, server);
            return;
        }
        if rank > 0 {
            server.stats.peer_failovers.fetch_add(1, Ordering::Relaxed);
        }
        if cluster.is_dead(owner) {
            continue;
        }
        // The primary rides this forwarder's persistent connection and
        // gets one retry on a fresh dial after a backoff (a peer
        // mid-restart is not a dead peer). Failover owners get one
        // ad-hoc attempt each to keep worst-case latency bounded.
        let attempts = if owner == primary { 2 } else { 1 };
        let mut held = if owner == primary { conn.take() } else { None };
        let mut outcome = None;
        let attempt_started = Instant::now();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(RETRY_BACKOFF);
            }
            let mut peer = match held.take() {
                Some(peer) => peer,
                None => match PeerConn::connect(&cluster.nodes[owner], &server.faults) {
                    Ok(peer) => peer,
                    Err(_) => continue,
                },
            };
            if let Ok(answer) = peer.eval(&job.text, &server.faults) {
                if owner == primary {
                    *conn = Some(peer);
                }
                outcome = Some(answer);
                break;
            }
            // Socket/protocol failure: drop the connection and (for the
            // primary) dial fresh on the next attempt.
        }
        match outcome {
            Some(ForwardOutcome::Doc(doc)) => {
                cluster.mark_alive(owner);
                server.stats.count(Source::Peer);
                if rank > 0 {
                    server.stats.degraded.fetch_add(1, Ordering::Relaxed);
                }
                let _ = job.reply.send((job.index, Ok((Source::Peer, doc))));
                return;
            }
            Some(ForwardOutcome::Refused(error)) => {
                // Scenario-level rejection is deterministic — every node
                // would answer identically — so relay it, never fail over.
                cluster.mark_alive(owner);
                let _ = job.reply.send((job.index, Err(error)));
                return;
            }
            Some(ForwardOutcome::Shed) => {
                // Alive but saturated: walk on without declaring it dead.
                cluster.mark_alive(owner);
            }
            // A verdict that raced with another thread's success is
            // discarded inside mark_dead_since.
            None => cluster.mark_dead_since(owner, attempt_started),
        }
    }
    // Every remote owner is dead or shedding and the walk never reached
    // our own ring position: evaluate locally anyway — availability
    // first, and the bytes are identical.
    server.stats.degraded.fetch_add(1, Ordering::Relaxed);
    dispatch_locally(job, shard_senders, server);
}

/// The local fallback: queue the job on its fingerprint's shard exactly
/// like a locally-routed request would be.
fn dispatch_locally(job: Job, shard_senders: &[mpsc::SyncSender<Job>], server: &Arc<Shared>) {
    let shard = (job.fingerprint % shard_senders.len().max(1) as u64) as usize;
    server.depths[shard].fetch_add(1, Ordering::Relaxed);
    if shard_senders[shard].send(job).is_err() {
        server.depths[shard].fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn ring_order_is_a_permutation_and_deterministic() {
        let nodes = nodes(5);
        for fp in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let order = ring_order(fp, &nodes);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "permutation for {fp:#x}");
            assert_eq!(order, ring_order(fp, &nodes), "deterministic for {fp:#x}");
        }
    }

    #[test]
    fn ring_order_is_independent_of_which_node_computes_it() {
        // Agreement is by construction (pure function of the strings),
        // but pin that the order does not depend on list rotation the
        // way naive mod-N sharding would: the same *set* under a
        // different listing order maps owners consistently by identity.
        let a = nodes(3);
        let mut b = a.clone();
        b.rotate_left(1);
        for fp in 0..64u64 {
            let owner_a = a[ring_order(fp, &a)[0]].clone();
            let owner_b = b[ring_order(fp, &b)[0]].clone();
            assert_eq!(owner_a, owner_b, "fp {fp}: owner must follow identity");
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_own_keys() {
        let full = nodes(4);
        let mut reduced = full.clone();
        let removed = reduced.remove(2);
        for fp in 0..256u64 {
            let full_owner = &full[ring_order(fp, &full)[0]];
            let reduced_owner = &reduced[ring_order(fp, &reduced)[0]];
            if full_owner != &removed {
                assert_eq!(
                    full_owner, reduced_owner,
                    "fp {fp}: surviving owners must not move"
                );
            } else {
                // The failover owner is the full ring's second choice.
                let second = &full[ring_order(fp, &full)[1]];
                assert_eq!(
                    second, reduced_owner,
                    "fp {fp}: orphaned keys fall to the next ring owner"
                );
            }
        }
    }

    #[test]
    fn stale_failure_verdict_does_not_rebury_a_live_peer() {
        let shared = ClusterShared {
            nodes: nodes(2),
            self_index: 0,
            forwarder_of: vec![None, Some(0)],
            depths: vec![AtomicU64::new(0)],
            health: (0..2).map(|_| Mutex::new(NodeHealth::default())).collect(),
        };
        let attempt_started = Instant::now();
        // Another forwarder completes a successful exchange after this
        // slow attempt began...
        shared.mark_alive(1);
        // ...so the slow attempt's failure verdict is stale: discarded.
        shared.mark_dead_since(1, attempt_started);
        assert!(!shared.is_dead(1), "stale verdict buried a live peer");
        // A failure whose attempt began after the last success counts.
        std::thread::sleep(Duration::from_millis(2));
        shared.mark_dead_since(1, Instant::now());
        assert!(shared.is_dead(1), "fresh failure verdict must stick");
        // And the next success clears the mark immediately — no waiting
        // out the rest of the cooldown.
        shared.mark_alive(1);
        assert!(!shared.is_dead(1), "success must clear the dead mark");
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        let nodes = nodes(3);
        let mut counts = [0usize; 3];
        for fp in 0..3000u64 {
            counts[ring_order(fp, &nodes)[0]] += 1;
        }
        for &c in &counts {
            assert!((600..=1400).contains(&c), "skewed ownership: {counts:?}");
        }
    }
}
