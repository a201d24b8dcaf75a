//! Benchmark-owned wrappers that time a layer from outside: one around
//! the `SourceConnector`, one around the `Transport`. Spans inside the
//! crates are a later change; here every span sits on a public call.

use gasf_core::candidate::FilterId;
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::engine::Emission;
use gasf_core::schema::Schema;
use gasf_net::{Delivery, GroupId, LinkLoad, NetError, NodeId, Transport};
use std::time::Instant;

/// One recorded interval. `parent` names the enclosing span of the same
/// chunk (`""` for a root); times are nanoseconds since the repetition's
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub chunk: u32,
    pub start: u64,
    pub end: u64,
}

pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The connector wrapper. It hands out **one chunk per `arm`** and then
/// reports end-of-stream until armed again, so `Middleware::ingest`
/// (called with `finish: false`) returns after every chunk and the
/// driver can pace, stamp and count between chunks; and it accumulates
/// the time spent inside the wrapped `next_chunk`.
pub struct Stepped {
    inner: Box<dyn SourceConnector>,
    epoch: Instant,
    armed: bool,
    chunk: u32,
    pub busy_ns: u64,
    pub spans: Option<Vec<Span>>,
}

impl Stepped {
    pub fn new(inner: Box<dyn SourceConnector>, epoch: Instant, trace: bool) -> Self {
        Stepped {
            inner,
            epoch,
            armed: false,
            chunk: 0,
            busy_ns: 0,
            spans: trace.then(Vec::new),
        }
    }

    /// Allows the next `next_chunk` call through, as chunk `chunk`.
    pub fn arm(&mut self, chunk: u32) {
        self.armed = true;
        self.chunk = chunk;
    }
}

impl SourceConnector for Stepped {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Chunk>, gasf_core::Error> {
        if !std::mem::take(&mut self.armed) {
            return Ok(None);
        }
        let start = ns_since(self.epoch);
        let chunk = self.inner.next_chunk(max_rows)?;
        let end = ns_since(self.epoch);
        self.busy_ns += end - start;
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name: "sources.replay.next_chunk",
                parent: "chunk",
                chunk: self.chunk,
                start,
                end,
            });
        }
        Ok(chunk)
    }
}

/// The transport wrapper of the traced run: busy time and one span per
/// `send_emission` and per `flush`.
#[derive(Debug)]
pub struct Timed<T> {
    pub inner: T,
    epoch: Instant,
    pub chunk: u32,
    pub send_ns: u64,
    pub flush_ns: u64,
    pub flushes: u64,
    pub spans: Vec<Span>,
}

impl<T: Transport> Timed<T> {
    pub fn new(inner: T, epoch: Instant) -> Self {
        Timed {
            inner,
            epoch,
            chunk: 0,
            send_ns: 0,
            flush_ns: 0,
            flushes: 0,
            spans: Vec::new(),
        }
    }

    fn span(&mut self, name: &'static str, start: u64) -> u64 {
        let end = ns_since(self.epoch);
        self.spans.push(Span {
            name,
            parent: "chunk",
            chunk: self.chunk,
            start,
            end,
        });
        end - start
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn send_emission(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        let start = ns_since(self.epoch);
        let delivery = self.inner.send_emission(group, src, emission, node_of);
        self.send_ns += self.span("wire.tcp.send_emission", start);
        delivery
    }

    fn flush(&mut self) -> Result<(), NetError> {
        let start = ns_since(self.epoch);
        let result = self.inner.flush();
        self.flush_ns += self.span("wire.tcp.flush", start);
        self.flushes += 1;
        result
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn messages(&self) -> u64 {
        self.inner.messages()
    }

    fn link_loads(&self) -> Vec<LinkLoad> {
        self.inner.link_loads()
    }
}
