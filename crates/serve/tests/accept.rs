//! The accept thread: it blocks in `accept` while the server is idle,
//! and shutdown wakes it at once, whatever address the server is bound
//! to. This file is its own test binary, so every accept thread in the
//! process belongs to one of its tests.

use bear_serve::{Registry, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn idle_server(addr: &str) -> bear_serve::ServerHandle {
    let config = ServerConfig { addr: addr.to_string(), ..ServerConfig::default() };
    Server::start(Arc::new(Registry::new()), config).unwrap()
}

/// `(tid, voluntary_ctxt_switches)` of every live thread named
/// `bear-http-accept` (truncated to 15 bytes in `comm`).
#[cfg(target_os = "linux")]
fn accept_threads() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() != "bear-http-accep" {
            continue;
        }
        let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok());
        if let Some(switches) = switches {
            out.push((task.file_name().to_string_lossy().into_owned(), switches));
        }
    }
    out
}

/// An idle server's accept thread sleeps in `accept`: over 300 ms it
/// is switched out only a handful of times. A thread polling a
/// nonblocking listener every 2 ms is switched out about 150 times.
#[cfg(target_os = "linux")]
#[test]
fn idle_accept_thread_does_not_poll() {
    let server = idle_server("127.0.0.1:0");
    std::thread::sleep(Duration::from_millis(50));
    let before = accept_threads();
    assert!(!before.is_empty(), "no bear-http-accept thread found");
    std::thread::sleep(Duration::from_millis(300));
    let after = accept_threads();
    let mut measured = 0;
    for (tid, start) in &before {
        // A thread of the other tests here may have exited meanwhile.
        let Some((_, end)) = after.iter().find(|(t, _)| t == tid) else { continue };
        measured += 1;
        let gained = end - start;
        assert!(gained <= 5, "accept thread {tid} was switched out {gained} times in 300 ms");
    }
    assert!(measured > 0, "this test's own accept thread vanished");
    assert!(server.shutdown_within(Duration::from_secs(1)));
}

/// Shutdown of a server that never saw a connection returns clean at
/// once, bound to loopback or to every interface.
#[test]
fn shutdown_without_connections_is_prompt() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = idle_server(addr);
        let start = Instant::now();
        assert!(server.shutdown_within(Duration::from_secs(1)), "{addr}: drain was not clean");
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "{addr}: shutdown took {took:?}");
    }
}
