//! The dependency-free HTTP status/metrics endpoint.
//!
//! A tiny HTTP/1.1 server hand-rolled on [`std::net::TcpListener`] —
//! the vendor tree has no HTTP crate and must stay offline — serving
//! the operator plane over an [`ObsDirectory`] of one or more grids:
//!
//! | Endpoint                       | Payload |
//! |--------------------------------|---------|
//! | `GET /healthz`                 | `ok` (text/plain) |
//! | `GET /grids`                   | attached grids (id + name), JSON |
//! | `GET /status`                  | [`super::live::GridStatusSnapshot`] JSON (vendored serde_json) |
//! | `GET /status/shard/<j>`        | shard `j`'s [`crate::StatusSnapshot`] JSON |
//! | `GET /metrics`                 | Prometheus text exposition format 0.0.4 |
//! | `GET /events?n=<k>`            | last `k` flight-recorder events, NDJSON (`&format=batch` for the columnar [`super::RecordedBatch`] form) |
//! | `GET /trace?n=<k>`             | last `k` phase spans, NDJSON (`&format=chrome` for Chrome `trace_event` JSON, loadable in Perfetto) |
//! | `GET /slo`                     | the [`super::BurnRate`] fold's [`super::SloSnapshot`]: `ok|warn|page` plus both windows' burn |
//! | `GET /status/grid/<i>`         | grid `i`'s status |
//! | `GET /status/grid/<i>/shard/<j>` | grid `i`, shard `j` |
//! | `GET /metrics/grid/<i>`        | grid `i`'s metrics |
//! | `GET /events/grid/<i>`         | grid `i`'s flight-recorder tail |
//! | `GET /trace/grid/<i>`          | grid `i`'s span tail |
//! | `GET /slo/grid/<i>`            | grid `i`'s SLO state |
//!
//! One server observes a whole deployment: each concurrently running
//! grid attaches its [`ObsState`] to the directory (and detaches when
//! it is done), and the `/…/grid/<i>` routes address them
//! individually. The bare legacy routes keep serving the *lowest-id*
//! attached grid, so single-grid callers never notice the directory.
//! Unknown grid or shard indices are a JSON-bodied 404, never a panic.
//!
//! The server handles one connection at a time on one background
//! thread (operators poll; this is not a serving tier), answers every
//! request with `Connection: close`, and never touches the scheduler:
//! all state components are continuously fed observers, so a `GET`
//! mid-run sees the run as it stands.

use super::live::LiveGrid;
use super::recorder::FlightRecorder;
use super::registry::MetricsRegistry;
use super::trace::{BurnRate, TraceSink};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything the endpoints serve: the metrics registry, the flight
/// recorder, the live grid status, the trace sink, and the SLO fold.
/// Clones share the same underlying state — build one, clone handles
/// into your observers, and hand one clone to [`ObsServer::bind`].
#[derive(Debug, Clone)]
pub struct ObsState {
    /// The metrics registry `/metrics` renders.
    pub registry: MetricsRegistry,
    /// The flight recorder `/events` tails.
    pub recorder: FlightRecorder,
    /// The live status `/status` and `/status/shard/<i>` serve.
    pub live: LiveGrid,
    /// The span sink `/trace` tails.
    pub trace: TraceSink,
    /// The SLO burn-rate fold `/slo` reports.
    pub slo: BurnRate,
}

impl ObsState {
    /// Bundles the three core components, with a fresh (empty) trace
    /// sink and a default-SLO burn fold. Attach shared ones with
    /// [`ObsState::with_trace`] / [`ObsState::with_slo`].
    pub fn new(registry: MetricsRegistry, recorder: FlightRecorder, live: LiveGrid) -> Self {
        Self {
            registry,
            recorder,
            live,
            trace: TraceSink::default(),
            slo: BurnRate::default(),
        }
    }

    /// Serves `sink` on `/trace` — pass the same sink your sessions
    /// record into ([`crate::Session::trace`],
    /// [`crate::GridSession::trace`]).
    #[must_use]
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = sink.clone();
        self
    }

    /// Serves `slo` on `/slo` — pass the same fold you attached as a
    /// run observer.
    #[must_use]
    pub fn with_slo(mut self, slo: &BurnRate) -> Self {
        self.slo = slo.clone();
        self
    }
}

/// One attached grid: a display name plus its observable state.
#[derive(Debug, Clone)]
struct GridEntry {
    name: String,
    state: ObsState,
}

/// The deployment-wide registry one [`ObsServer`] serves: every
/// concurrently running grid attaches its [`ObsState`] under a small
/// integer id and detaches when it finishes. Clones share the same
/// directory — attach from the threads driving the grids, serve from
/// one server.
///
/// Ids are assigned monotonically and never reused within a directory,
/// so an operator's bookmarked `/status/grid/3` can never silently
/// start naming a different grid.
#[derive(Debug, Clone, Default)]
pub struct ObsDirectory {
    grids: Arc<RwLock<BTreeMap<usize, GridEntry>>>,
    next_id: Arc<AtomicUsize>,
}

impl ObsDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a grid's observable state under `name`, returning the
    /// id its `/…/grid/<id>` routes serve under.
    pub fn attach(&self, name: impl Into<String>, state: ObsState) -> usize {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.grids.write().insert(
            id,
            GridEntry {
                name: name.into(),
                state,
            },
        );
        id
    }

    /// Detaches a grid. Returns whether the id was attached.
    pub fn detach(&self, id: usize) -> bool {
        self.grids.write().remove(&id).is_some()
    }

    /// Attached grid count.
    pub fn len(&self) -> usize {
        self.grids.read().len()
    }

    /// Whether no grid is attached.
    pub fn is_empty(&self) -> bool {
        self.grids.read().is_empty()
    }

    /// The attached ids, ascending.
    pub fn ids(&self) -> Vec<usize> {
        self.grids.read().keys().copied().collect()
    }

    /// One grid's state, by id.
    fn get(&self, id: usize) -> Option<ObsState> {
        self.grids.read().get(&id).map(|e| e.state.clone())
    }

    /// The lowest-id grid — what the bare legacy routes serve.
    fn first(&self) -> Option<ObsState> {
        self.grids.read().values().next().map(|e| e.state.clone())
    }

    /// The `/grids` payload.
    fn render(&self) -> String {
        let grids = self.grids.read();
        let rows: Vec<String> = grids
            .iter()
            .map(|(id, e)| format!("{{\"id\":{id},\"name\":{}}}", json_string(&e.name)))
            .collect();
        format!("{{\"grids\":[{}]}}\n", rows.join(","))
    }
}

/// Minimal JSON string quoting for grid names.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Default `/events` tail length when no `?n=` is given.
const DEFAULT_EVENTS_TAIL: usize = 256;

/// Default `/trace` tail length when no `?n=` is given (spans are
/// small and a useful timeline needs a few ticks' worth).
const DEFAULT_TRACE_TAIL: usize = 1024;

/// Per-connection socket timeout: a stalled client cannot wedge the
/// accept loop for longer than this.
const IO_TIMEOUT: Duration = Duration::from_millis(2_000);

/// A running status/metrics server.
///
/// Binding spawns one background accept thread; dropping the handle
/// (or calling [`ObsServer::shutdown`]) stops it. Bind to port 0 to
/// let the OS pick a free port — [`ObsServer::addr`] reports the
/// actual address.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `state`
    /// as the only grid of a fresh directory — the single-grid
    /// convenience form of [`ObsServer::bind_directory`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, state: ObsState) -> io::Result<Self> {
        let directory = ObsDirectory::new();
        directory.attach("grid", state);
        Self::bind_directory(addr, directory)
    }

    /// Binds `addr` and serves every grid attached (now or later) to
    /// `directory`. Keep a clone of the directory to attach and detach
    /// grids while the server runs.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn bind_directory(addr: impl ToSocketAddrs, directory: ObsDirectory) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    // A broken client is its own problem; the next
                    // accept proceeds regardless.
                    let _ = serve_connection(stream, &directory);
                }
            }
        });
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call with one last connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One response, ready to write.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    /// Extra header lines (already `Name: value`, no CRLF) — how the
    /// 405 carries its mandatory `Allow`.
    extra_headers: Vec<&'static str>,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            reason: "OK",
            content_type,
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A 404 with a JSON error body: unknown grids, shards, and paths
    /// are answered, never panicked over.
    fn not_found(why: &str) -> Self {
        Self {
            status: 404,
            reason: "Not Found",
            content_type: "application/json; charset=utf-8",
            extra_headers: Vec::new(),
            body: format!("{{\"error\":{}}}\n", json_string(why)),
        }
    }

    fn method_not_allowed() -> Self {
        Self {
            status: 405,
            reason: "Method Not Allowed",
            content_type: "text/plain; charset=utf-8",
            // RFC 9110 §15.5.6: a 405 MUST name the allowed methods.
            extra_headers: vec!["Allow: GET"],
            body: "only GET is served here\n".to_string(),
        }
    }

    fn bad_request(why: &str) -> Self {
        Self {
            status: 400,
            reason: "Bad Request",
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: format!("{why}\n"),
        }
    }
}

/// Reads the request head (through the blank line), answers, closes.
fn serve_connection(mut stream: TcpStream, directory: &ObsDirectory) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut head = Vec::new();
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 16 * 1024 {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let response = route(request_line, directory);
    let extra: String = response
        .extra_headers
        .iter()
        .map(|h| format!("{h}\r\n"))
        .collect();
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        response.status,
        response.reason,
        response.content_type,
        response.body.len(),
        extra,
        response.body
    )?;
    stream.flush()
}

/// Maps one request line to a response.
fn route(request_line: &str, directory: &ObsDirectory) -> Response {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    if method != "GET" {
        return Response::method_not_allowed();
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/healthz" => return Response::ok("text/plain; charset=utf-8", "ok\n".to_string()),
        "/grids" => {
            return Response::ok("application/json; charset=utf-8", directory.render());
        }
        _ => {}
    }

    // Everything else is grid-scoped: `/<kind>/grid/<i>[/shard/<j>]`
    // addresses one attached grid explicitly; the bare legacy paths
    // address the lowest-id grid.
    let mut segments = path.trim_start_matches('/').split('/');
    let kind = segments.next().unwrap_or("");
    let mut rest: Vec<&str> = segments.collect();
    let state = if rest.first() == Some(&"grid") {
        if rest.len() < 2 {
            return Response::not_found("missing grid index");
        }
        let Ok(id) = rest[1].parse::<usize>() else {
            return Response::not_found("grid index must be an integer");
        };
        let Some(state) = directory.get(id) else {
            return Response::not_found(&format!("no grid {id} is attached"));
        };
        rest.drain(..2);
        state
    } else {
        let Some(state) = directory.first() else {
            return Response::not_found("no grids attached");
        };
        state
    };

    match (kind, rest.as_slice()) {
        ("status", []) => Response::ok(
            "application/json; charset=utf-8",
            state.live.snapshot().to_json(),
        ),
        ("status", ["shard", raw]) => match raw
            .parse::<usize>()
            .ok()
            .and_then(|s| state.live.shard_snapshot(s))
        {
            Some(snapshot) => Response::ok("application/json; charset=utf-8", snapshot.to_json()),
            None => Response::not_found(&format!("no shard {raw} in this grid")),
        },
        ("metrics", []) => Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            state.registry.render_prometheus(),
        ),
        ("events", []) => {
            let n = match query_param(query, "n") {
                None => DEFAULT_EVENTS_TAIL,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => return Response::bad_request("n must be a non-negative integer"),
                },
            };
            let tail = state.recorder.tail(n);
            match query_param(query, "format") {
                None | Some("flat") => Response::ok(
                    "application/x-ndjson; charset=utf-8",
                    FlightRecorder::to_ndjson(&tail),
                ),
                Some("batch") => Response::ok(
                    "application/x-ndjson; charset=utf-8",
                    FlightRecorder::to_ndjson_batched(&tail),
                ),
                Some(_) => Response::bad_request("format must be flat or batch"),
            }
        }
        ("trace", []) => {
            let n = match query_param(query, "n") {
                None => DEFAULT_TRACE_TAIL,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => return Response::bad_request("n must be a non-negative integer"),
                },
            };
            let spans = state.trace.tail(n);
            match query_param(query, "format") {
                None | Some("ndjson") => Response::ok(
                    "application/x-ndjson; charset=utf-8",
                    super::trace::to_ndjson(&spans),
                ),
                Some("chrome") => Response::ok(
                    "application/json; charset=utf-8",
                    super::trace::chrome_trace(&spans),
                ),
                Some(_) => Response::bad_request("format must be ndjson or chrome"),
            }
        }
        ("slo", []) => Response::ok(
            "application/json; charset=utf-8",
            state.slo.snapshot().to_json(),
        ),
        _ => Response::not_found("unknown path"),
    }
}

/// Pulls one `k=v` pair out of a query string.
fn query_param<'q>(query: Option<&'q str>, key: &str) -> Option<&'q str> {
    query?
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
}

/// A fetched HTTP response, as the blocking test client sees it.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// Status code from the response line.
    pub status: u16,
    /// The `Content-Type` header value (empty if absent).
    pub content_type: String,
    /// The response body.
    pub body: String,
}

/// Why a [`get_timeout`] fetch failed, with the timeouts typed out
/// instead of buried in an [`io::Error`] the caller has to sniff.
#[derive(Debug)]
pub enum FetchError {
    /// The TCP connect did not complete within the deadline.
    ConnectTimeout(Duration),
    /// The server accepted the connection but stopped sending before
    /// the response completed.
    ReadTimeout(Duration),
    /// Any other I/O failure (refused, reset, …).
    Io(io::Error),
    /// The response arrived but this minimal parser cannot read it.
    Malformed(&'static str),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::ConnectTimeout(t) => write!(f, "connect timed out after {t:?}"),
            FetchError::ReadTimeout(t) => write!(f, "read timed out after {t:?}"),
            FetchError::Io(e) => write!(f, "i/o error: {e}"),
            FetchError::Malformed(why) => write!(f, "malformed response: {why}"),
        }
    }
}

impl std::error::Error for FetchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FetchError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FetchError> for io::Error {
    fn from(e: FetchError) -> Self {
        match e {
            FetchError::ConnectTimeout(_) | FetchError::ReadTimeout(_) => {
                io::Error::new(io::ErrorKind::TimedOut, e.to_string())
            }
            FetchError::Io(inner) => inner,
            FetchError::Malformed(why) => io::Error::new(io::ErrorKind::InvalidData, why),
        }
    }
}

/// Whether an I/O error kind is how this platform spells a socket
/// timeout (`read` gives `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// A minimal blocking `GET` client for the server above — what the
/// `observe` harness, the examples, and the in-repo tests poll the
/// endpoints with (no HTTP crate exists in the offline vendor tree).
/// Bounded by the server's own per-connection deadline
/// ([`get_timeout`] with a 2 s budget): a stalled or wedged server
/// yields a `TimedOut` error, never a hang.
///
/// # Errors
///
/// Returns the I/O error of the underlying connect/read,
/// `TimedOut` if either stalls past the deadline, or `InvalidData`
/// for a response head this minimal parser cannot read.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Fetched> {
    get_timeout(addr, path, IO_TIMEOUT).map_err(io::Error::from)
}

/// [`get`] with an explicit deadline applied to the connect, the
/// request write, and the response read — and a typed error that
/// distinguishes the timeouts from other failures.
///
/// # Errors
///
/// [`FetchError::ConnectTimeout`] / [`FetchError::ReadTimeout`] when
/// the respective phase exceeds `timeout`, [`FetchError::Io`] for any
/// other I/O failure, [`FetchError::Malformed`] for an unparsable
/// response.
pub fn get_timeout(addr: SocketAddr, path: &str, timeout: Duration) -> Result<Fetched, FetchError> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| {
        if is_timeout(e.kind()) {
            FetchError::ConnectTimeout(timeout)
        } else {
            FetchError::Io(e)
        }
    })?;
    let io_err = |e: io::Error| {
        if is_timeout(e.kind()) {
            FetchError::ReadTimeout(timeout)
        } else {
            FetchError::Io(e)
        }
    };
    stream
        .set_read_timeout(Some(timeout))
        .map_err(FetchError::Io)?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(FetchError::Io)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(io_err)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io_err)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or(FetchError::Malformed("no header/body separator"))?;
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or(FetchError::Malformed("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(FetchError::Malformed("unparsable status line"))?;
    let content_type = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_default();
    Ok(Fetched {
        status,
        content_type,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{GridStatusSnapshot, RegistryObserver};
    use crate::telemetry::{GridObserver, TelemetryEvent};
    use crate::{StatusSnapshot, TickBatch};

    fn test_state() -> ObsState {
        let registry = MetricsRegistry::new();
        let observer = RegistryObserver::new(&registry, 2);
        let recorder = FlightRecorder::new(64);
        let live = LiveGrid::new(&[2, 1]);
        for device in 0..2 {
            let event = TelemetryEvent::Probe {
                device,
                at: device as f64,
                up: true,
            };
            let batch = TickBatch::of(&event);
            observer.fold_batch(&batch);
            recorder.record_batch(Some(0), &batch);
            live.observe_grid_batch(Some(0), &batch);
        }
        ObsState::new(registry, recorder, live)
    }

    #[test]
    fn endpoints_serve_parseable_payloads_and_unknown_paths_404() {
        let server = ObsServer::bind("127.0.0.1:0", test_state()).unwrap();
        let addr = server.addr();

        let health = get(addr, "/healthz").unwrap();
        assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));

        let status = get(addr, "/status").unwrap();
        assert_eq!(status.status, 200);
        assert!(status.content_type.starts_with("application/json"));
        let snapshot = GridStatusSnapshot::from_json(&status.body).unwrap();
        assert_eq!(snapshot.probes, 2);
        assert_eq!(snapshot.shards.len(), 2);

        let shard = get(addr, "/status/shard/0").unwrap();
        let shard_snapshot = StatusSnapshot::from_json(&shard.body).unwrap();
        assert_eq!(shard_snapshot.probes, 2);
        assert_eq!(get(addr, "/status/shard/7").unwrap().status, 404);
        assert_eq!(get(addr, "/status/shard/x").unwrap().status, 404);

        let metrics = get(addr, "/metrics").unwrap();
        assert!(metrics.content_type.contains("version=0.0.4"));
        assert!(metrics.body.contains("# TYPE fleet_events_total counter"));
        assert!(metrics
            .body
            .contains("fleet_events_total{kind=\"probe\"} 2"));

        let events = get(addr, "/events?n=1").unwrap();
        assert!(events.content_type.starts_with("application/x-ndjson"));
        let tail = FlightRecorder::from_ndjson(&events.body).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].shard, Some(0));
        assert_eq!(get(addr, "/events?n=bogus").unwrap().status, 400);

        assert_eq!(get(addr, "/nope").unwrap().status, 404);
        server.shutdown();
    }

    #[test]
    fn a_directory_serves_many_grids_and_detach_is_live() {
        let directory = ObsDirectory::new();
        let server = ObsServer::bind_directory("127.0.0.1:0", directory.clone()).unwrap();
        let addr = server.addr();

        // No grids yet: legacy routes 404 with a JSON error body.
        let empty = get(addr, "/status").unwrap();
        assert_eq!(empty.status, 404);
        assert!(empty.content_type.starts_with("application/json"));
        assert!(empty.body.contains("\"error\""));
        assert_eq!(get(addr, "/grids").unwrap().body, "{\"grids\":[]}\n");

        let a = directory.attach("alpha", test_state());
        let b = directory.attach("beta", test_state());
        assert_eq!(directory.ids(), vec![a, b]);

        // The listing names both grids.
        let grids = get(addr, "/grids").unwrap();
        assert!(grids.body.contains("\"name\":\"alpha\""));
        assert!(grids.body.contains("\"name\":\"beta\""));

        // Per-grid routes address each explicitly; the legacy route is
        // the lowest id.
        for id in [a, b] {
            let status = get(addr, &format!("/status/grid/{id}")).unwrap();
            assert_eq!(status.status, 200);
            let snapshot = GridStatusSnapshot::from_json(&status.body).unwrap();
            assert_eq!(snapshot.probes, 2);
            let shard = get(addr, &format!("/status/grid/{id}/shard/0")).unwrap();
            assert_eq!(shard.status, 200);
            let metrics = get(addr, &format!("/metrics/grid/{id}")).unwrap();
            assert!(metrics.body.contains("fleet_events_total"));
            let events = get(addr, &format!("/events/grid/{id}?n=1")).unwrap();
            assert_eq!(FlightRecorder::from_ndjson(&events.body).unwrap().len(), 1);
        }
        assert_eq!(get(addr, "/status").unwrap().status, 200);

        // Unknown indices: JSON-bodied 404s, server stays up.
        for path in [
            "/status/grid/99",
            "/status/grid/abc",
            "/metrics/grid/99",
            "/events/grid/99",
            &format!("/status/grid/{a}/shard/42"),
        ] {
            let missing = get(addr, path).unwrap();
            assert_eq!(missing.status, 404, "{path}");
            assert!(missing.content_type.starts_with("application/json"));
            assert!(missing.body.contains("\"error\""), "{path}");
        }

        // Detach is live: the id stops resolving, the other survives.
        assert!(directory.detach(a));
        assert!(!directory.detach(a));
        assert_eq!(get(addr, &format!("/status/grid/{a}")).unwrap().status, 404);
        assert_eq!(get(addr, &format!("/status/grid/{b}")).unwrap().status, 200);
        server.shutdown();
    }

    #[test]
    fn batched_events_format_round_trips_over_http() {
        let server = ObsServer::bind("127.0.0.1:0", test_state()).unwrap();
        let addr = server.addr();
        let flat = get(addr, "/events").unwrap();
        let batched = get(addr, "/events?format=batch").unwrap();
        let expanded = FlightRecorder::from_ndjson_batched(&batched.body).unwrap();
        assert_eq!(FlightRecorder::to_ndjson(&expanded), flat.body);
        assert_eq!(get(addr, "/events?format=bogus").unwrap().status, 400);
        server.shutdown();
    }

    #[test]
    fn default_events_tail_and_post_rejection() {
        let server = ObsServer::bind("127.0.0.1:0", test_state()).unwrap();
        let addr = server.addr();
        let events = get(addr, "/events").unwrap();
        assert_eq!(FlightRecorder::from_ndjson(&events.body).unwrap().len(), 2);
        // Non-GET methods are refused (minimal client, hand-rolled),
        // and the 405 names the one allowed method (RFC 9110 §15.5.6).
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        assert!(raw.contains("\r\nAllow: GET\r\n"), "{raw}");
        assert!(raw.contains("\r\nConnection: close\r\n"), "{raw}");
    }

    #[test]
    fn trace_and_slo_endpoints_serve_spans_and_burn_state() {
        use super::super::trace::{Span, SpanKind};

        let state = test_state();
        state.trace.record(Span {
            kind: SpanKind::Dispatch,
            shard: Some(0),
            tick: 3,
            start_ns: 1_000,
            dur_ns: 250,
        });
        state.trace.record(Span {
            kind: SpanKind::Tick,
            shard: Some(0),
            tick: 3,
            start_ns: 900,
            dur_ns: 700,
        });
        let server = ObsServer::bind("127.0.0.1:0", state).unwrap();
        let addr = server.addr();

        let ndjson = get(addr, "/trace").unwrap();
        assert_eq!(ndjson.status, 200);
        assert!(ndjson.content_type.starts_with("application/x-ndjson"));
        let spans = super::super::trace::from_ndjson(&ndjson.body).unwrap();
        assert_eq!(spans.len(), 2);
        // The tail is start-ordered, oldest first.
        assert_eq!(spans[0].kind, SpanKind::Tick);
        assert_eq!(get(addr, "/trace?n=1").unwrap().body.lines().count(), 1);
        assert_eq!(get(addr, "/trace?n=bogus").unwrap().status, 400);
        assert_eq!(get(addr, "/trace?format=bogus").unwrap().status, 400);

        let chrome = get(addr, "/trace?format=chrome").unwrap();
        assert_eq!(chrome.status, 200);
        assert!(chrome.content_type.starts_with("application/json"));
        let value: serde::Value = serde_json::from_str(&chrome.body).unwrap();
        assert!(value.as_object().unwrap().contains_key("traceEvents"));

        let slo = get(addr, "/slo").unwrap();
        assert_eq!(slo.status, 200);
        assert!(slo.content_type.starts_with("application/json"));
        let snapshot = crate::obs::SloSnapshot::from_json(&slo.body).unwrap();
        assert_eq!(snapshot.state, crate::obs::SloState::Ok);
        assert_eq!(snapshot.windows.len(), 2);
        server.shutdown();
    }

    #[test]
    fn get_timeout_types_a_stalled_server_and_a_refused_port() {
        // A listener that accepts but never answers: the read deadline
        // fires as a typed ReadTimeout, not a hang.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept());
        let deadline = Duration::from_millis(200);
        match get_timeout(addr, "/healthz", deadline) {
            Err(FetchError::ReadTimeout(t)) => assert_eq!(t, deadline),
            other => panic!("expected ReadTimeout, got {other:?}"),
        }
        drop(hold);
        // A port nothing listens on: a plain I/O error, and the io
        // conversion keeps its kind distinct from TimedOut.
        let dead = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        match get_timeout(dead, "/healthz", deadline) {
            Err(e @ FetchError::Io(_)) => {
                assert_ne!(io::Error::from(e).kind(), io::ErrorKind::TimedOut);
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn attach_detach_races_concurrent_trace_and_grids_requests() {
        let directory = ObsDirectory::new();
        let server = ObsServer::bind_directory("127.0.0.1:0", directory.clone()).unwrap();
        let addr = server.addr();

        // One grid stays pinned so bare routes always resolve.
        let pinned = directory.attach("pinned", test_state());
        let churn = directory.clone();
        let churner = std::thread::spawn(move || {
            let mut churned = Vec::new();
            for round in 0..40 {
                let id = churn.attach(format!("ephemeral-{round}"), test_state());
                churned.push(id);
                if round % 2 == 0 {
                    assert!(churn.detach(id));
                }
            }
            churned
        });

        // Poll the listing and trace routes while the directory churns:
        // every response must be well-formed — 200 for an attached id,
        // a stable JSON 404 for a detached one, never a panic or a
        // connection drop.
        for i in 0..60 {
            let grids = get(addr, "/grids").unwrap();
            assert_eq!(grids.status, 200);
            assert!(grids.body.contains("\"pinned\""));
            let trace = get(addr, &format!("/trace/grid/{pinned}?n=8")).unwrap();
            assert_eq!(trace.status, 200);
            let slo = get(addr, "/slo").unwrap();
            assert_eq!(slo.status, 200);
            let roaming = get(addr, &format!("/trace/grid/{}", pinned + 1 + (i % 40))).unwrap();
            assert!(
                roaming.status == 200 || roaming.status == 404,
                "unexpected status {}",
                roaming.status
            );
            if roaming.status == 404 {
                assert!(roaming.content_type.starts_with("application/json"));
                assert!(roaming.body.contains("\"error\""));
            }
        }

        let churned = churner.join().unwrap();
        // After the churn settles, detached ids 404 deterministically.
        for id in churned.iter().step_by(2) {
            let gone = get(addr, &format!("/trace/grid/{id}")).unwrap();
            assert_eq!(gone.status, 404);
            assert!(gone.body.contains("\"error\""));
        }
        server.shutdown();
    }
}
