//! # shareinsights-server
//!
//! The development/data REST surface of §4.3–4.4, as an in-process router
//! (deterministic and offline; the URL grammar, status codes and payload
//! shapes are what the paper specifies):
//!
//! | route | paper reference |
//! |---|---|
//! | `GET /dashboards` | dashboard listing |
//! | `POST /dashboards/<name>/create` | §4.3.1 create-by-URL |
//! | `PUT /dashboards/<name>/flow` | editor save |
//! | `GET /dashboards/<name>/flow` | editor load |
//! | `POST /dashboards/<name>/run` | execute the pipeline |
//! | `GET /dashboards/<name>/explore` | §4.4 data explorer (headless mode, figure 29) |
//! | `GET /<dashboard>/ds` | figure 27: endpoint data listing |
//! | `GET /<dashboard>/ds/<dataset>` | figure 28: browse endpoint data (`?limit=&offset=`) |
//! | `GET /<dashboard>/ds/<dataset>/groupby/<col>/<agg>/<col>` | figure 30: ad-hoc query |
//! | `POST /dashboards/<name>/stream/start` | give the sources live copies |
//! | `POST /dashboards/<name>/stream/push/<source>` | append one CSV micro-batch and run |
//! | `GET /<dashboard>/ds/<dataset>/subscribe` | SSE stream of generation deltas |
//! | `GET /stats` | per-route counters/latency + query-cache + operator stats |
//! | `GET /metrics` | Prometheus text exposition of the same registry |
//! | `GET /trace/recent` | recent span trees (`?limit=`) |
//! | `GET /trace/<id>` | one trace by hex id (`X-Trace-Id` to set it) |
//!
//! [`serve()`] puts the router behind a real `TcpListener` with a bounded
//! worker pool (see [`serve::ServeOptions`]). Connections are persistent
//! (HTTP/1.1 keep-alive, bounded per-connection request counts and idle
//! windows); [`ClientConnection`] is the matching persistent client. Query
//! results are cached in a generation-stamped, hash-sharded [`QueryCache`]
//! invalidated by dashboard runs and publishes.
//!
//! Ad-hoc query paths compose left to right:
//! `/ds/sales/filter/region/north/groupby/brand/sum/revenue/limit/10`.

pub mod cache;
pub mod http;
pub mod ingest;
pub mod json;
pub mod metrics;
pub mod query;
pub mod reactor;
pub mod router;
pub mod serve;
pub mod shard;
pub mod sql;
pub mod stream;
pub mod traces;
pub mod wire;

pub use cache::{CacheStats, QueryCache, ResultCache};
pub use http::{Method, Request, Response, Status};
pub use json::table_to_json;
pub use router::{Handled, Server};
pub use serve::{
    blocking_get, blocking_request, serve, ClientConnection, ServeMode, ServeOptions,
    ServiceHandle, SseSubscriber,
};
pub use shard::{plan::ScatterPlan, ShardSet};
pub use stream::{StreamHub, Subscription, SubscriptionEnd};
pub use traces::{trace_json, trace_list_json};
pub use wire::{dechunk, sse_frame, sse_head, ResponseStream, SseEvent, SseParser, WireLimits};
