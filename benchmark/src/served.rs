//! The served path: closed-loop clients in front of a `QueryServer`.
//!
//! Each client thread submits one query, waits until its sink has seen the
//! response's terminator frame, and only then asks again — analysts wait
//! for their answer. Latency runs from just before `submit` to the moment
//! the terminator arrives in the sink (on the executor thread). Responses
//! are kept as bytes and checked against the oracle once the clients have
//! stopped, so checking never competes with the executors for the two
//! cores.

use crate::harness::{Ctx, Tally};
use crate::oracle::frames_match;
use crate::spans::Spans;
use std::io::{self, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vida_exec::{Engine, OutputFormat};
use vida_server::{read_response, QueryRequest, QueryServer, ServerConfig};

/// The issue's admission queue depth.
pub const QUEUE_DEPTH: usize = 64;

#[derive(Default)]
struct SinkState {
    bytes: Vec<u8>,
    /// Length-prefix bytes of the frame being read.
    prefix: Vec<u8>,
    /// Payload bytes of the current frame still to come.
    payload_left: usize,
    first_byte_at: Option<Instant>,
    terminated_at: Option<Instant>,
}

/// A `Write` sink that follows the frame structure of what is written to
/// it and wakes its client when the zero-length terminator frame arrives.
#[derive(Clone, Default)]
pub struct FrameSink(Arc<(Mutex<SinkState>, Condvar)>);

impl Write for FrameSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (lock, cv) = &*self.0;
        let mut s = lock.lock().expect("sink lock");
        s.first_byte_at.get_or_insert_with(Instant::now);
        s.bytes.extend_from_slice(buf);
        let mut rest = buf;
        while !rest.is_empty() {
            if s.payload_left > 0 {
                let n = s.payload_left.min(rest.len());
                s.payload_left -= n;
                rest = &rest[n..];
                continue;
            }
            let n = (4 - s.prefix.len()).min(rest.len());
            s.prefix.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
            if s.prefix.len() == 4 {
                let len = u32::from_le_bytes(s.prefix[..].try_into().expect("4 bytes"));
                s.prefix.clear();
                s.payload_left = len as usize;
                if len == 0 {
                    s.terminated_at = Some(Instant::now());
                    cv.notify_all();
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One finished exchange, as the client saw it.
pub struct Response {
    pub bytes: Vec<u8>,
    pub first_byte_at: Instant,
    pub terminated_at: Instant,
}

impl FrameSink {
    /// Block until the terminator frame has been written, then take the
    /// response. `None` if nothing terminated within the (generous) limit —
    /// counted as a failure by the caller, never a hang.
    pub fn wait(&self) -> Option<Response> {
        let (lock, cv) = &*self.0;
        let guard = lock.lock().expect("sink lock");
        let (mut s, _) = cv
            .wait_timeout_while(guard, Duration::from_secs(60), |s| {
                s.terminated_at.is_none()
            })
            .expect("sink lock");
        Some(Response {
            terminated_at: s.terminated_at.take()?,
            first_byte_at: s.first_byte_at.take()?,
            bytes: std::mem::take(&mut s.bytes),
        })
    }
}

/// Bag results leave as CSV row frames, scalars as one text frame.
pub fn format_for(text: &str) -> OutputFormat {
    if text.contains("yield bag") {
        OutputFormat::Csv
    } else {
        OutputFormat::Text
    }
}

/// What one served stretch measured.
pub struct Served {
    /// submit -> terminator, ms.
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    /// The first stream index no client sent.
    pub next: usize,
}

/// A server over `engine` with one executor per client.
pub fn start(engine: &Arc<Engine>, clients: usize) -> QueryServer {
    QueryServer::start(
        Arc::clone(engine),
        ServerConfig {
            executors: clients,
            queue_depth: QUEUE_DEPTH,
        },
    )
}

/// Send the stream, from query `first` on, through `server` with `clients`
/// closed-loop client threads until `seconds` have passed, then check
/// every response.
pub fn run(
    server: &QueryServer,
    ctx: &mut Ctx,
    first: usize,
    clients: usize,
    seconds: f64,
    spans: &mut Spans,
) -> Served {
    let stream = &ctx.stream;
    let epoch = spans.epoch();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    // (stream index, submit time, response or refusal)
    type Exchange = (usize, Instant, Option<Response>);
    let per_client: Vec<(Vec<Exchange>, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut spans = match epoch {
                        Some(epoch) => Spans::on_track(client as u32 + 1, epoch),
                        None => Spans::off(),
                    };
                    let mut mine = Vec::new();
                    let mut index = first + client;
                    while Instant::now() < deadline {
                        let text = &stream[index % stream.len()].text;
                        let sink = FrameSink::default();
                        let request = QueryRequest::new(text.clone(), Box::new(sink.clone()))
                            .with_format(format_for(text));
                        spans.begin_query();
                        spans.begin("submit");
                        let submitted = Instant::now();
                        let admitted = server.submit(request);
                        spans.end();
                        // Waiting for the executors is the served analogue
                        // of the in-process `execute` span.
                        spans.begin("execute");
                        let response = if admitted { sink.wait() } else { None };
                        spans.end();
                        if let (true, Some(r)) = (spans.is_on(), &response) {
                            spans.begin("read_response");
                            std::hint::black_box(read_response(&mut r.bytes.as_slice())).ok();
                            spans.end();
                        }
                        spans.end_query();
                        mine.push((index, submitted, response));
                        index += clients;
                    }
                    (mine, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.drain();
    let wall_s = t0.elapsed().as_secs_f64();

    let mut out = Served {
        latencies_ms: Vec::new(),
        wall_s,
        next: first,
    };
    let mut tally = Tally::default();
    for (exchanges, client_spans) in per_client {
        spans.absorb(client_spans);
        for (index, submitted, response) in exchanges {
            out.next = out.next.max(index + 1);
            let query = &ctx.stream[index % ctx.stream.len()];
            tally.attempted += 1;
            let Some(response) = response else {
                tally.fail("refused or never terminated", &query.text);
                continue;
            };
            out.latencies_ms
                .push((response.terminated_at - submitted).as_secs_f64() * 1e3);
            let verdict = match read_response(&mut response.bytes.as_slice()) {
                Err(e) => Err(format!("malformed response: {e}")),
                Ok(r) if !r.is_ok() => Err(r.error.unwrap_or_default()),
                Ok(r) => ctx
                    .oracle
                    .expected(query)
                    .and_then(|want| {
                        format_for(&query.text)
                            .write(&want)
                            .map_err(|e| e.to_string())
                    })
                    .and_then(|encoded| {
                        if frames_match(&r.rows, &encoded) {
                            Ok(())
                        } else {
                            Err("wrong answer".to_string())
                        }
                    }),
            };
            if let Err(e) = verdict {
                tally.fail(&e, &query.text);
            }
        }
    }
    ctx.tally.attempted += tally.attempted;
    ctx.tally.failed += tally.failed;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vida_server::write_frame;

    #[test]
    fn sink_sees_the_terminator_across_split_writes() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"+").unwrap();
        write_frame(&mut wire, b"row with \0\0\0\0 inside").unwrap();
        wire.extend_from_slice(&0u32.to_le_bytes());
        let sink = FrameSink::default();
        let mut w = sink.clone();
        // Byte-at-a-time: prefixes and payloads both split across writes.
        for (i, b) in wire.iter().enumerate() {
            assert!(
                sink.0 .0.lock().unwrap().terminated_at.is_none(),
                "early at {i}"
            );
            w.write_all(&[*b]).unwrap();
        }
        let response = sink.wait().expect("terminated");
        assert_eq!(response.bytes, wire);
        let decoded = read_response(&mut response.bytes.as_slice()).unwrap();
        assert_eq!(decoded.rows.len(), 1);
    }
}
