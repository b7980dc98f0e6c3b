//! The query service: admission control, executor threads, and streaming
//! delivery over one resident [`Engine`].
//!
//! A [`QueryServer`] owns a fixed set of **executor threads** and a
//! **bounded admission queue** in front of them. [`QueryServer::submit`]
//! either enqueues the request (admitted) or refuses it immediately with
//! an error response on its sink (rejected) — the queue never grows past
//! `queue_depth`, so a burst of clients degrades into fast rejections
//! instead of unbounded memory.
//!
//! Every executor runs its query as a [`Session`](vida_exec::Session) of
//! the shared engine, so concurrent queries' parallel phases attach to the
//! *same* resident worker pool and time-slice at morsel granularity. The
//! server adds no second pool: executor threads block in `attach_run`
//! while the pool's workers multiplex their morsels.
//!
//! Results stream row-by-row through the output plugins into the
//! request's sink using the [`protocol`](crate::protocol) frames; a slow
//! sink blocks only its own executor (backpressure).
//!
//! **Shutdown is drain-first**: `shutdown()` (and `Drop`) stop admission,
//! let queued and in-flight queries finish, then join the executors.
//! [`QueryServer::drain`] alone blocks until the server is idle without
//! stopping it — useful between phases of a benchmark.

use crate::protocol::{finish_response, write_frame};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use vida_algebra::{lower, rewrite};
use vida_exec::{output, Engine, OutputFormat};
use vida_lang::parse;
use vida_trace::global_metrics;
use vida_types::sync::Mutex;
use vida_types::{Result, Value};

/// Sizing knobs for a [`QueryServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Executor threads draining the admission queue. Each runs one query
    /// at a time; all share the engine's one worker pool.
    pub executors: usize,
    /// Maximum queued (admitted but not yet running) requests before
    /// `submit` rejects.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            executors: 2,
            queue_depth: 64,
        }
    }
}

/// One client query: source text, an optional tenant for cache billing,
/// the output plugin to encode rows with, and the sink that response
/// frames stream into.
pub struct QueryRequest {
    pub query: String,
    pub tenant: Option<String>,
    pub format: OutputFormat,
    pub sink: Box<dyn Write + Send>,
}

impl QueryRequest {
    /// A text-format, untenanted request — the common case.
    pub fn new(query: impl Into<String>, sink: Box<dyn Write + Send>) -> Self {
        QueryRequest {
            query: query.into(),
            tenant: None,
            format: OutputFormat::Text,
            sink,
        }
    }

    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    pub fn with_format(mut self, format: OutputFormat) -> Self {
        self.format = format;
        self
    }
}

impl std::fmt::Debug for QueryRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRequest")
            .field("query", &self.query)
            .field("tenant", &self.tenant)
            .field("format", &self.format)
            .finish_non_exhaustive()
    }
}

/// A point-in-time snapshot of the server's admission counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused (queue full or server shutting down).
    pub rejected: u64,
    /// Queries executed and streamed successfully.
    pub completed: u64,
    /// Queries that errored (parse/plan/execution/sink failures; a query
    /// that panicked counts here too).
    pub failed: u64,
    /// Queries currently running on executor threads.
    pub in_flight: u64,
    /// High-water mark of `in_flight` — `>= 2` proves queries actually
    /// overlapped on the shared pool.
    pub peak_in_flight: u64,
}

struct QueueState {
    queue: VecDeque<QueryRequest>,
    shutdown: bool,
}

struct Shared {
    engine: Arc<Engine>,
    state: Mutex<QueueState>,
    /// Wakes executors on submit/shutdown.
    work_cv: Condvar,
    /// Wakes `drain` when the server may have gone idle.
    idle_cv: Condvar,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
}

/// The resident query service: a bounded admission queue feeding executor
/// threads that run concurrent sessions over one shared [`Engine`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use vida_exec::{Engine, JitOptions, MemoryCatalog};
/// use vida_server::{read_response, QueryRequest, QueryServer, ServerConfig};
/// use vida_types::{Schema, Type, Value};
///
/// let cat = MemoryCatalog::new();
/// cat.register_records(
///     "T",
///     Schema::from_pairs([("x", Type::Int)]),
///     &[Value::record([("x", Value::Int(41))])],
/// )
/// .unwrap();
/// let engine = Arc::new(Engine::new(Arc::new(cat), JitOptions::default()));
/// let server = QueryServer::start(engine, ServerConfig::default());
///
/// let buf = vida_server::service::SharedBuffer::default();
/// assert!(server.submit(QueryRequest::new(
///     "for { t <- T } yield sum t.x",
///     Box::new(buf.clone()),
/// )));
/// server.drain();
/// let resp = read_response(&mut std::io::Cursor::new(buf.take())).unwrap();
/// assert!(resp.is_ok());
/// assert_eq!(resp.rows, vec![b"41".to_vec()]);
/// ```
pub struct QueryServer {
    shared: Arc<Shared>,
    queue_depth: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl QueryServer {
    /// Spawn `config.executors` executor threads over `engine` and start
    /// accepting submissions.
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> QueryServer {
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
        });
        let handles = (0..config.executors.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vida-server-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn server executor")
            })
            .collect();
        QueryServer {
            shared,
            queue_depth: config.queue_depth,
            handles: Mutex::new(handles),
        }
    }

    /// Admit `request` into the queue, or reject it if the queue is full
    /// (or the server is shutting down). Rejection writes an error
    /// response to the request's sink and returns `false`.
    pub fn submit(&self, request: QueryRequest) -> bool {
        {
            let mut state = self.shared.state.lock();
            if !state.shutdown && state.queue.len() < self.queue_depth {
                state.queue.push_back(request);
                self.shared.admitted.fetch_add(1, Ordering::SeqCst);
                self.shared.work_cv.notify_one();
                return true;
            }
        }
        self.shared.rejected.fetch_add(1, Ordering::SeqCst);
        let mut sink = request.sink;
        let _ = write_frame(&mut *sink, b"-server busy: admission queue full");
        let _ = finish_response(&mut *sink);
        false
    }

    /// Block until every admitted query has finished (queue empty, none
    /// in flight). Does not stop the server.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock();
        while !state.queue.is_empty() || self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            state = match self.shared.idle_cv.wait(state) {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
        }
    }

    /// Drain-first shutdown: stop admissions, finish queued and in-flight
    /// queries, join the executors. `Drop` does the same.
    pub fn shutdown(self) {
        self.close();
    }

    fn close(&self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }

    /// The engine all sessions run on.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Current admission counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admitted: self.shared.admitted.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
            completed: self.shared.completed.load(Ordering::SeqCst),
            failed: self.shared.failed.load(Ordering::SeqCst),
            in_flight: self.shared.in_flight.load(Ordering::SeqCst),
            peak_in_flight: self.shared.peak_in_flight.load(Ordering::SeqCst),
        }
    }

    /// The stats endpoint: server admission counters, accumulated engine
    /// [`ExecStats`](vida_exec::ExecStats), cache/tenant/layout counters,
    /// and the global metrics registry, as one JSON object.
    pub fn stats_json(&self) -> String {
        let s = self.stats();
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!(
            "\"server\":{{\"admitted\":{},\"rejected\":{},\"completed\":{},\"failed\":{},\
             \"in_flight\":{},\"peak_in_flight\":{}}},",
            s.admitted, s.rejected, s.completed, s.failed, s.in_flight, s.peak_in_flight
        ));
        out.push_str(&format!(
            "\"engine\":{},",
            self.shared.engine.stats().to_json()
        ));
        match self.shared.engine.cache() {
            Some(cache) => {
                let cs = cache.stats();
                out.push_str(&format!(
                    "\"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\
                     \"invalidations\":{},\"used_bytes\":{},\"budget_bytes\":{},",
                    cs.hits,
                    cs.misses,
                    cs.insertions,
                    cs.evictions,
                    cs.invalidations,
                    cache.used_bytes(),
                    cache.budget_bytes()
                ));
                out.push_str(&format!(
                    "\"layouts\":{},",
                    layouts_json(&cache.layout_counts())
                ));
                out.push_str("\"tenants\":{");
                for (i, name) in cache.tenant_names().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let ts = cache.tenant_stats(name);
                    let budget = match ts.budget_bytes {
                        Some(b) => b.to_string(),
                        None => "null".to_string(),
                    };
                    out.push_str(&format!(
                        "\"{}\":{{\"budget_bytes\":{},\"used_bytes\":{},\"insertions\":{},\
                         \"evictions\":{},\"layouts\":{}}}",
                        json_escape(name),
                        budget,
                        ts.used_bytes,
                        ts.insertions,
                        ts.evictions,
                        layouts_json(&cache.layout_counts_for(name))
                    ));
                }
                out.push_str("}},");
            }
            None => out.push_str("\"cache\":null,"),
        }
        out.push_str(&format!(
            "\"metrics\":{}",
            global_metrics().snapshot().to_json()
        ));
        out.push('}');
        out
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("queue_depth", &self.queue_depth)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

fn layouts_json(counts: &[(vida_cache::Layout, usize)]) -> String {
    let mut out = String::from("{");
    for (i, (layout, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{n}", layout.name()));
    }
    out.push('}');
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn executor_loop(shared: &Shared) {
    loop {
        let request = {
            let mut state = shared.state.lock();
            loop {
                if let Some(request) = state.queue.pop_front() {
                    break request;
                }
                // Drain-first shutdown: only exit once the queue is empty.
                if state.shutdown {
                    return;
                }
                state = match shared.work_cv.wait(state) {
                    Ok(g) => g,
                    Err(e) => e.into_inner(),
                };
            }
        };
        let now = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        shared.peak_in_flight.fetch_max(now, Ordering::SeqCst);
        let ok = serve(&shared.engine, request);
        if ok {
            shared.completed.fetch_add(1, Ordering::SeqCst);
        } else {
            shared.failed.fetch_add(1, Ordering::SeqCst);
        }
        // Decrement under the state lock so `drain`'s re-check of
        // `in_flight` cannot miss this wakeup.
        let _state = shared.state.lock();
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.idle_cv.notify_all();
    }
}

/// Run one request end to end: parse, execute as an engine session, and
/// stream the response frames. Returns whether the query both executed
/// and streamed successfully.
fn serve(engine: &Engine, request: QueryRequest) -> bool {
    let QueryRequest {
        query,
        tenant,
        format,
        mut sink,
    } = request;
    let rows = run_query(engine, &query, tenant.as_deref())
        .and_then(|result| encode_rows(&result, format));
    match rows {
        Ok(rows) => stream_rows(&mut *sink, &rows).is_ok(),
        Err(e) => {
            let _ = write_frame(&mut *sink, format!("-{e}").as_bytes());
            let _ = finish_response(&mut *sink);
            false
        }
    }
}

fn run_query(engine: &Engine, query: &str, tenant: Option<&str>) -> Result<Value> {
    let plan = rewrite(&lower(&parse(query)?)?);
    let mut session = match tenant {
        Some(t) => engine.session_for(t),
        None => engine.session(),
    };
    session.execute(&plan)
}

/// Encode a result into per-row frames through the output plugins. CSV
/// sends its header line as the first row frame.
fn encode_rows(result: &Value, format: OutputFormat) -> Result<Vec<Vec<u8>>> {
    match format {
        OutputFormat::Csv => Ok(output::to_csv(result)?
            .lines()
            .map(|line| line.as_bytes().to_vec())
            .collect()),
        OutputFormat::Text => Ok(output::to_values(result)
            .iter()
            .map(|row| row.to_string().into_bytes())
            .collect()),
        OutputFormat::Values | OutputFormat::BinaryJson => Ok(output::to_values(result)
            .iter()
            .map(output::to_binary_json)
            .collect()),
    }
}

fn stream_rows(sink: &mut dyn Write, rows: &[Vec<u8>]) -> io::Result<()> {
    write_frame(sink, b"+")?;
    for row in rows {
        write_frame(sink, row)?;
    }
    finish_response(sink)
}

/// A cloneable in-memory sink for in-process clients: every clone appends
/// to the same buffer, and [`SharedBuffer::take`] hands the bytes back.
#[derive(Debug, Default, Clone)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// Take the accumulated bytes, leaving the buffer empty.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock())
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_response;
    use std::io::Cursor;
    use std::ops::Range;
    use std::sync::mpsc;
    use std::time::Duration;
    use vida_exec::{JitOptions, MemoryCatalog, SourceProvider};
    use vida_formats::{AccessStats, InputPlugin};
    use vida_types::{Schema, Type};

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(Arc::new(catalog()), JitOptions::default()))
    }

    fn catalog() -> MemoryCatalog {
        let cat = MemoryCatalog::new();
        cat.register_records(
            "Patients",
            Schema::from_pairs([("id", Type::Int), ("age", Type::Int), ("city", Type::Str)]),
            &[
                Value::record([
                    ("id", Value::Int(1)),
                    ("age", Value::Int(71)),
                    ("city", Value::str("geneva")),
                ]),
                Value::record([
                    ("id", Value::Int(2)),
                    ("age", Value::Int(34)),
                    ("city", Value::str("bern")),
                ]),
            ],
        )
        .unwrap();
        cat
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        for _ in 0..5000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    /// A sink that blocks its executor on the first write until released
    /// — makes "two queries in flight at once" deterministic.
    struct GatedSink {
        gate: mpsc::Receiver<()>,
        opened: bool,
        out: SharedBuffer,
    }

    impl Write for GatedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.opened {
                let _ = self.gate.recv();
                self.opened = true;
            }
            self.out.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn gated() -> (mpsc::Sender<()>, SharedBuffer, Box<dyn Write + Send>) {
        let (tx, rx) = mpsc::channel();
        let buf = SharedBuffer::default();
        let sink = GatedSink {
            gate: rx,
            opened: false,
            out: buf.clone(),
        };
        (tx, buf, Box::new(sink))
    }

    #[test]
    fn streams_text_rows_and_counts_completion() {
        let server = QueryServer::start(engine(), ServerConfig::default());
        let buf = SharedBuffer::default();
        assert!(server.submit(QueryRequest::new(
            "for { p <- Patients, p.age > 60 } yield sum p.age",
            Box::new(buf.clone()),
        )));
        server.drain();
        let resp = read_response(&mut Cursor::new(buf.take())).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.rows, vec![b"71".to_vec()]);
        let stats = server.stats();
        assert_eq!((stats.admitted, stats.completed, stats.failed), (1, 1, 0));
    }

    #[test]
    fn binary_rows_decode_back_to_values() {
        let server = QueryServer::start(engine(), ServerConfig::default());
        let buf = SharedBuffer::default();
        server.submit(
            QueryRequest::new(
                "for { p <- Patients } yield list p.id",
                Box::new(buf.clone()),
            )
            .with_format(OutputFormat::BinaryJson),
        );
        server.drain();
        let resp = read_response(&mut Cursor::new(buf.take())).unwrap();
        let ids: Vec<Value> = resp
            .rows
            .iter()
            .map(|r| vida_cache::decode_value(r, 0).unwrap().0)
            .collect();
        assert_eq!(ids, vec![Value::Int(1), Value::Int(2)]);
    }

    #[cfg(unix)]
    #[test]
    fn streams_over_a_socket_pair() {
        use std::os::unix::net::UnixStream;
        let server = QueryServer::start(engine(), ServerConfig::default());
        let (mut client, served) = UnixStream::pair().unwrap();
        server.submit(QueryRequest::new(
            "for { p <- Patients } yield count p",
            Box::new(served),
        ));
        let resp = read_response(&mut client).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.rows, vec![b"2".to_vec()]);
    }

    #[test]
    fn query_errors_come_back_as_error_responses() {
        let server = QueryServer::start(engine(), ServerConfig::default());
        let bad_parse = SharedBuffer::default();
        let bad_name = SharedBuffer::default();
        server.submit(QueryRequest::new("for { oops", Box::new(bad_parse.clone())));
        server.submit(QueryRequest::new(
            "for { x <- NoSuchDataset } yield count x",
            Box::new(bad_name.clone()),
        ));
        server.drain();
        for buf in [bad_parse, bad_name] {
            let resp = read_response(&mut Cursor::new(buf.take())).unwrap();
            assert!(!resp.is_ok());
            assert!(resp.rows.is_empty());
        }
        assert_eq!(server.stats().failed, 2);
    }

    #[test]
    fn full_queue_rejects_with_error_response() {
        let server = QueryServer::start(
            engine(),
            ServerConfig {
                executors: 1,
                queue_depth: 1,
            },
        );
        let plan = "for { p <- Patients } yield count p";
        // Occupy the lone executor...
        let (gate, running_buf, running_sink) = gated();
        assert!(server.submit(QueryRequest::new(plan, running_sink)));
        wait_until("first query in flight", || server.stats().in_flight == 1);
        // ...fill the queue...
        let queued = SharedBuffer::default();
        assert!(server.submit(QueryRequest::new(plan, Box::new(queued.clone()))));
        // ...and the next submission bounces.
        let bounced = SharedBuffer::default();
        assert!(!server.submit(QueryRequest::new(plan, Box::new(bounced.clone()))));
        let resp = read_response(&mut Cursor::new(bounced.take())).unwrap();
        assert!(resp.error.as_deref().unwrap().contains("busy"));
        gate.send(()).unwrap();
        server.drain();
        let stats = server.stats();
        assert_eq!((stats.admitted, stats.rejected, stats.completed), (2, 1, 2));
        assert!(read_response(&mut Cursor::new(running_buf.take()))
            .unwrap()
            .is_ok());
        assert!(read_response(&mut Cursor::new(queued.take()))
            .unwrap()
            .is_ok());
    }

    #[test]
    fn concurrent_queries_overlap_on_one_engine() {
        let server = QueryServer::start(
            engine(),
            ServerConfig {
                executors: 2,
                queue_depth: 8,
            },
        );
        let plan = "for { p <- Patients } yield avg p.age";
        let (gate_a, buf_a, sink_a) = gated();
        let (gate_b, buf_b, sink_b) = gated();
        server.submit(QueryRequest::new(plan, sink_a));
        server.submit(QueryRequest::new(plan, sink_b));
        // Both executors sit blocked in their sinks -> provably overlapped.
        wait_until("both queries in flight", || server.stats().in_flight == 2);
        assert!(server.stats().peak_in_flight >= 2);
        gate_a.send(()).unwrap();
        gate_b.send(()).unwrap();
        server.drain();
        assert_eq!(server.stats().completed, 2);
        for buf in [buf_a, buf_b] {
            assert!(read_response(&mut Cursor::new(buf.take())).unwrap().is_ok());
        }
    }

    #[test]
    fn shutdown_drains_queued_queries_then_rejects() {
        let server = QueryServer::start(
            engine(),
            ServerConfig {
                executors: 1,
                queue_depth: 8,
            },
        );
        let bufs: Vec<SharedBuffer> = (0..4)
            .map(|_| {
                let buf = SharedBuffer::default();
                server.submit(QueryRequest::new(
                    "for { p <- Patients } yield count p",
                    Box::new(buf.clone()),
                ));
                buf
            })
            .collect();
        server.drain();
        server.shutdown();
        for buf in bufs {
            assert!(read_response(&mut Cursor::new(buf.take())).unwrap().is_ok());
        }
    }

    #[test]
    fn tenanted_requests_bill_the_tenant() {
        let server = QueryServer::start(engine(), ServerConfig::default());
        let buf = SharedBuffer::default();
        server.submit(
            QueryRequest::new("for { p <- Patients } yield count p", Box::new(buf.clone()))
                .with_tenant("acme"),
        );
        server.drain();
        assert!(read_response(&mut Cursor::new(buf.take())).unwrap().is_ok());
        // MemoryCatalog queries carry no replica cache, but the stats
        // endpoint still renders coherently.
        let json = server.stats_json();
        assert!(json.contains("\"server\":"));
        assert!(json.contains("\"engine\":"));
        assert!(json.contains("\"metrics\":"));
    }

    #[test]
    fn stats_json_reports_cache_and_tenants_when_attached() {
        let cache = Arc::new(vida_cache::CacheManager::new(1 << 20));
        cache.set_tenant_budget("acme", 1 << 16);
        let cat = MemoryCatalog::new();
        cat.register_records("T", Schema::from_pairs([("x", Type::Int)]), &[])
            .unwrap();
        let opts = JitOptions {
            cache: Some(cache),
            ..Default::default()
        };
        let engine = Arc::new(Engine::new(Arc::new(cat), opts));
        let server = QueryServer::start(engine, ServerConfig::default());
        let json = server.stats_json();
        assert!(json.contains("\"cache\":{"));
        assert!(json.contains("\"acme\":{\"budget_bytes\":65536"));
    }

    /// A test-only `Boom` dataset: `Patients` behind a plugin that panics
    /// whenever a scan or a field read reaches row 1.
    struct Boom(Arc<dyn InputPlugin>);

    impl InputPlugin for Boom {
        fn name(&self) -> &str {
            "Boom"
        }

        fn schema(&self) -> &Schema {
            self.0.schema()
        }

        fn num_units(&self) -> usize {
            self.0.num_units()
        }

        fn read_field(&self, row: usize, col: usize) -> Result<Value> {
            assert_ne!(row, 1, "injected plugin panic");
            self.0.read_field(row, col)
        }

        fn scan_project_range(
            &self,
            cols: &[usize],
            rows: Range<usize>,
            f: &mut dyn FnMut(usize, Vec<Value>) -> Result<()>,
        ) -> Result<()> {
            assert!(!rows.contains(&1), "injected plugin panic");
            self.0.scan_project_range(cols, rows, f)
        }

        fn stats(&self) -> Arc<AccessStats> {
            self.0.stats()
        }

        fn fingerprint(&self) -> (u64, u64) {
            self.0.fingerprint()
        }

        fn field_cost_factor(&self, col: usize) -> f64 {
            self.0.field_cost_factor(col)
        }

        fn raw_bytes(&self) -> usize {
            self.0.raw_bytes()
        }
    }

    #[test]
    fn a_panicking_query_fails_and_the_server_keeps_serving() {
        for threads in [1, 2] {
            let cat = catalog();
            cat.register(Arc::new(Boom(cat.plugin("Patients").unwrap())));
            let opts = JitOptions {
                threads,
                ..Default::default()
            };
            let engine = Arc::new(Engine::new(Arc::new(cat), opts));
            let server = Arc::new(QueryServer::start(engine, ServerConfig::default()));
            let boom = SharedBuffer::default();
            assert!(server.submit(QueryRequest::new(
                "for { b <- Boom } yield sum b.age",
                Box::new(boom.clone()),
            )));
            // Drain on a thread of its own, so a hung executor fails the
            // test by timeout instead of hanging it.
            let (drained, done) = mpsc::channel();
            let drainer = Arc::clone(&server);
            std::thread::spawn(move || {
                drainer.drain();
                let _ = drained.send(());
            });
            wait_until("drain after a panicking query", || done.try_recv().is_ok());
            let resp = read_response(&mut Cursor::new(boom.take())).unwrap();
            let error = resp.error.expect("an error frame");
            assert!(error.contains("panicked"), "threads={threads}: {error}");
            assert_eq!(server.stats().failed, 1, "threads={threads}");
            // The same server answers the next query correctly.
            let next = SharedBuffer::default();
            assert!(server.submit(QueryRequest::new(
                "for { p <- Patients } yield sum p.age",
                Box::new(next.clone()),
            )));
            server.drain();
            let resp = read_response(&mut Cursor::new(next.take())).unwrap();
            assert_eq!(resp.rows, vec![b"105".to_vec()], "threads={threads}");
        }
    }
}
