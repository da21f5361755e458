//! Shared loopback-test plumbing.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;

use procrustes_serve::{ServeConfig, Server};

/// A unique temp directory for one test's persistent cache.
#[allow(dead_code)] // not every integration test uses a cache dir
pub fn tmp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!(
        "procrustes-serve-test-{tag}-{}-{nanos}",
        std::process::id()
    ))
}

/// Binds an ephemeral-port daemon and runs it on a background thread.
pub fn start(config: ServeConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback daemon");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}
