//! HTTP serving front-end for the BEAR query engine.
//!
//! `bear-serve` turns [`bear_core::QueryEngine`] into a network
//! service without adding a single external dependency: a hand-rolled
//! HTTP/1.1 layer over `std::net::TcpListener`, a connection pool
//! built on the engine's own [`bear_core::engine::queue::JobQueue`],
//! and a multi-tenant [`Registry`] whose atomically swappable handles
//! give zero-downtime index hot-swap.
//!
//! # Endpoints
//!
//! | Method | Path          | Parameters                      | Answer |
//! |--------|---------------|---------------------------------|--------|
//! | GET    | `/v1/query`   | `graph`, `seed`                 | full RWR score vector (JSON) |
//! | GET    | `/v1/topk`    | `graph`, `seed`, `k` (≥ 1, default 10) | top-k nodes excluding the seed; `k=0` is rejected with `400 bad_request` |
//! | GET    | `/v1/batch`   | `graph`, `seeds=0,3,7`          | one score vector per seed |
//! | POST   | `/admin/load` | `graph`, `index` (server path)  | publishes the next index version |
//! | GET    | `/healthz`    | —                               | liveness (200 while the process runs) |
//! | GET    | `/readyz`     | —                               | readiness (503 while warming or draining) |
//! | GET    | `/metrics`    | —                               | text exposition of all counters |
//!
//! The `graph` parameter may be omitted when exactly one graph is
//! registered. A per-request deadline arrives as `X-Deadline-Ms` and
//! maps onto the engine's deadline machinery; an expired budget fails
//! fast at admission. Fault classes map onto dedicated status codes
//! (`504` deadline, `429` overload, `503` shutdown — the HTTP mirror
//! of the CLI's exit codes), and degraded answers carry `X-Degraded`,
//! `X-Residual`, `X-Error-Bound`, and `X-Iterations` headers — on
//! `/v1/topk` just as on the full-vector endpoints.
//!
//! `/v1/topk` goes through [`bear_core::QueryEngine::query_top_k`]:
//! the exact pruned solver (`bear_core::topk_pruned`) plus a
//! prefix-aware cache (a request for `k' ≤` a cached `k` is served by
//! truncating the cached ranking — sound because the ranking order is
//! a strict total order). Answers are bit-identical to ranking the
//! full score vector.
//!
//! Score payloads are the shortest round-trip decimal of each `f64`,
//! byte for byte what `format!("{v}")` writes, produced by the std-only
//! Ryū encoder in [`float`]; parsing the JSON numbers back recovers
//! bit-identical values — the save→load→serve differential tests and
//! the root package's wire-encoding test pin this.

pub mod float;
pub mod http;
pub mod registry;
pub mod server;
mod sync;

pub use http::{client, ClientResponse, Request, Response};
pub use registry::{Registry, Tenant};
pub use server::{Server, ServerConfig, ServerHandle, ServerMetrics};
