//! `lastmile-serve`: the always-on congestion query daemon's transport
//! layer — everything between a TCP socket and a `Fn(&Request) ->
//! Response` handler, with nothing about congestion in it.
//!
//! The paper's pipeline is batch-shaped, but its consumers (operators
//! watching per-ASN congestion) are a standing service; this crate puts
//! the store/ingest/pipeline stack in front of concurrent clients while
//! keeping the repo's vendor policy: no external dependencies, just
//! `std::net` and `lastmile-obs`.
//!
//! * [`http`] — a one-request-per-connection HTTP/1.1 `GET` subset.
//! * [`server`] — bounded-concurrency serving: a fixed worker pool
//!   (`serve-0` … `serve-N-1`) fed by a bounded accept queue; a full
//!   queue answers `503` + `Retry-After` immediately instead of
//!   buffering without bound; the acceptor blocks in `accept`, and
//!   [`server::StopHandle::stop`] wakes it, after which queued and
//!   in-flight requests drain before [`Server::run`] returns. On top of
//!   the queue, cost-aware admission control: requests are classified
//!   ([`CostClass`]) and each class has a concurrency budget, so an
//!   expensive-endpoint flood sheds fast 503s (adaptive `Retry-After`,
//!   class named in the body) instead of occupying every worker.
//! * [`signal`] — SIGTERM/SIGINT written to a self-pipe that
//!   [`signal::wait`] blocks on (hand-declared `signal(2)` and
//!   `write(2)`, no libc crate); the caller then stops the server
//!   through its [`server::StopHandle`].
//! * [`access`] — structured JSON access logs: one object per request
//!   through a bounded non-blocking writer that drops-and-counts under
//!   pressure, joinable with trace spans by `X-Request-Id`.
//!
//! Request routing, endpoint payloads, and the startup ingest live in
//! the CLI's `serve` subcommand; worker-side counters and latency
//! histograms live in [`lastmile_obs::ServeMetrics`] so `/metrics` can
//! render them next to the pipeline's `RunMetrics`.

pub mod access;
pub mod http;
pub mod server;
pub mod signal;

pub use access::{AccessLog, AccessRecord};
pub use http::{Request, Response};
pub use server::{adaptive_retry_after, cost_class, CostClass, Handler, Server, ServerConfig};
