//! The live operator plane: metrics, flight recording, live status,
//! and the HTTP endpoint.
//!
//! The paper's §V-D sizing (≈50 HD7970s serving Apertif in real time)
//! only works as an *operated* system if someone can see the fleet:
//! which devices are Quarantined, what shed tier is in force, how
//! close each tick runs to the real-time deadline. PR 4's telemetry
//! stream made every observable fact of a run a [`crate::TelemetryEvent`];
//! this module turns that stream into the operator plane, without the
//! scheduler/shard/grid hot paths learning anything new — everything
//! here attaches through the existing observer seams
//! ([`crate::Session::run_with`], [`crate::GridSession::run_with`]):
//!
//! * [`registry`] — a lock-cheap in-process [`MetricsRegistry`]
//!   (counters, gauges, fixed-bucket histograms behind `Arc`'d
//!   atomics) and the [`RegistryObserver`] / [`GridRegistry`] bridges
//!   deriving the standard fleet metrics from the stream.
//! * [`recorder`] — the [`FlightRecorder`]: a bounded ring of the last
//!   N events per shard, re-keyed to global beam identity, dumpable as
//!   NDJSON for post-incident replay through the status fold.
//! * [`live`] — [`LiveStatus`] / [`LiveGrid`]: a continuously-folded
//!   [`crate::StatusSnapshot`] (plus the [`GridStatusSnapshot`]
//!   aggregate) readable *while the run is in progress*.
//! * [`expo`] — the Prometheus text exposition format 0.0.4 writer
//!   behind `/metrics`.
//! * [`http`] — the dependency-free [`ObsServer`] on
//!   [`std::net::TcpListener`] serving `/status`,
//!   `/status/shard/<i>`, `/metrics`, `/events?n=<k>`,
//!   `/trace?n=<k>` (NDJSON; `?format=chrome` for a Perfetto-loadable
//!   Chrome trace), `/slo`, and `/healthz`.
//! * [`trace`] — the tracing & self-profiling plane: phase
//!   [`trace::Span`]s through the lock-cheap [`TraceSink`] seam
//!   (scheduler tick phases, capture ingest, grid merge, and the
//!   process supervisor's frame timings, with child spans propagated
//!   upstream as sidecar frames), plus the [`BurnRate`] SLO fold
//!   behind `/slo` and the `fleet_slo_*` gauges. Spans are wall-clock
//!   and never fingerprinted — ledgers stay byte-identical with or
//!   without a sink attached.
//!
//! Wiring a live-observed grid run end to end:
//!
//! ```
//! use dedisp_fleet::obs::{
//!     FlightRecorder, GridFanout, GridRegistry, LiveGrid, MetricsRegistry, ObsServer, ObsState,
//! };
//! use dedisp_fleet::{Grid, GridObserver, ResolvedFleet, SurveyLoad};
//!
//! let shards = vec![
//!     ResolvedFleet::synthetic(1000, &[0.1, 0.1]),
//!     ResolvedFleet::synthetic(1000, &[0.1, 0.1]),
//! ];
//! let load = SurveyLoad::custom(1000, 8, 2);
//!
//! let registry = MetricsRegistry::new();
//! let metrics = GridRegistry::new(&registry, &[2, 2]);
//! let recorder = FlightRecorder::new(1024);
//! let live = LiveGrid::new(&[2, 2]);
//! let server = ObsServer::bind(
//!     "127.0.0.1:0",
//!     ObsState::new(registry.clone(), recorder.clone(), live.clone()),
//! )
//! .unwrap();
//!
//! let sinks: [&dyn GridObserver; 3] = [&metrics, &recorder, &live];
//! let run = Grid::session(&shards)
//!     .load(&load)
//!     .run_with(&GridFanout::new(&sinks))
//!     .unwrap();
//! // While `run_with` was in flight, GET /status on server.addr()
//! // served the partially-folded snapshot; afterwards it agrees with
//! // the report.
//! assert_eq!(live.snapshot().completed, run.report.completed);
//! server.shutdown();
//! ```

pub mod expo;
pub mod http;
pub mod live;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use http::{get, get_timeout, FetchError, Fetched, ObsDirectory, ObsServer, ObsState};
pub use live::{Fanout, GridFanout, GridStatusSnapshot, LiveGrid, LiveStatus};
pub use recorder::{FlightRecorder, RecordedBatch, RecordedEvent};
pub use registry::{
    Counter, Gauge, GridRegistry, Histogram, MetricKind, MetricsRegistry, RegistryObserver,
};
pub use trace::{
    BurnRate, SloConfig, SloSnapshot, SloState, SloWindow, Span, SpanGuard, SpanKind, TraceSink,
};
