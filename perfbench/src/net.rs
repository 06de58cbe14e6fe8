//! Pieces shared by the `serve` and `cluster` workloads: the served
//! `lineitem` columns, in-process servers, a byte-counting transport and
//! the client-side decode of raw segments.

use scc_core::{Segment, Value, BLOCK};
use scc_engine::Vector;
use scc_server::protocol::RawSegment;
use scc_server::{Catalog, Server, ServerConfig, Transport};
use scc_storage::{Table, TableBuilder};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The served `lineitem` columns.
pub const COLS: [&str; 4] = ["l_orderkey", "l_quantity", "l_extendedprice", "l_shipdate"];

/// Server worker threads (one per core of the reference machine).
pub const WORKERS: usize = 2;

/// The plain generated columns behind [`COLS`], widened to `i64`.
pub struct Lineitem {
    pub cols: [Vec<i64>; 4],
}

/// A copy of the served columns in the types the table stores.
pub struct Served(Vec<i64>, Vec<i64>, Vec<i64>, Vec<i32>);

impl Lineitem {
    /// Generates TPC-H at `sf` and keeps only the served columns.
    pub fn generate(sf: f64, seed: u64) -> Self {
        Self::from_raw(&scc_tpch::generate(sf, seed).lineitem)
    }

    pub fn from_raw(l: &scc_tpch::gen::Lineitem) -> Self {
        Lineitem {
            cols: [
                l.orderkey.clone(),
                l.quantity.clone(),
                l.extendedprice.clone(),
                l.shipdate.iter().map(|&d| d as i64).collect(),
            ],
        }
    }

    pub fn rows(&self) -> usize {
        self.cols[0].len()
    }

    /// A copy to hand to [`build_table`] (made outside set-up timing).
    pub fn served(&self) -> Served {
        let c = &self.cols;
        Served(c[0].clone(), c[1].clone(), c[2].clone(), c[3].iter().map(|&d| d as i32).collect())
    }
}

/// Encodes the served columns into a compressed table.
pub fn build_table(s: Served) -> Arc<Table> {
    TableBuilder::new("lineitem")
        .add_i64(COLS[0], s.0)
        .add_i64(COLS[1], s.1)
        .add_i64(COLS[2], s.2)
        .add_i32(COLS[3], s.3)
        .build()
}

/// Starts an in-process server on a loopback ephemeral port.
///
/// `Server::start` switches the process-global scc-obs collection on;
/// the benchmark switches it straight back off, so telemetry stays
/// disabled in every timed run (and cannot steer the encode layout of a
/// table built afterwards).
pub fn start_server(catalog: Catalog) -> Server {
    let cfg = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
    let server = Server::start(cfg, catalog).expect("bind a loopback port");
    scc_obs::set_enabled(false);
    server
}

/// A TCP transport that counts the bytes read off the socket.
pub struct Counting {
    inner: TcpStream,
    read: Arc<AtomicU64>,
}

impl Counting {
    pub fn connect(addr: &str, read: &Arc<AtomicU64>) -> std::io::Result<Self> {
        let inner = TcpStream::connect(addr)?;
        inner.set_nodelay(true)?;
        Ok(Counting { inner, read: Arc::clone(read) })
    }
}

impl Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for Counting {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(d)
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_write_timeout(d)
    }
}

/// Client-side decode of a `RawSegments` answer to rows
/// `[row_start, row_start + row_len)`, widened to `i64`.
pub fn decode_raw(
    vtype: u8,
    row_start: u64,
    row_len: u32,
    segments: &[RawSegment],
) -> Result<Vec<i64>, String> {
    fn fill<V: Value>(
        start: usize,
        len: usize,
        segments: &[RawSegment],
        widen: impl Fn(V) -> i64,
    ) -> Result<Vec<i64>, String> {
        let mut out = vec![0i64; len];
        let mut covered = 0;
        let mut scratch: Vec<V> = Vec::new();
        for raw in segments {
            let seg = Segment::<V>::from_bytes(&raw.bytes).map_err(|e| e.to_string())?;
            let first = raw.first_row as usize;
            let (lo, hi) = (start.max(first), (start + len).min(first + seg.len()));
            if lo >= hi {
                continue;
            }
            let offset = lo - first;
            let aligned = offset - offset % BLOCK;
            scratch.clear();
            scratch.resize(hi - first - aligned, V::default());
            seg.try_decode_range(aligned, &mut scratch).map_err(|e| e.to_string())?;
            for (o, &v) in out[lo - start..hi - start].iter_mut().zip(&scratch[offset - aligned..])
            {
                *o = widen(v);
            }
            covered += hi - lo;
        }
        if covered != len {
            return Err(format!("segments cover {covered} of {len} rows"));
        }
        Ok(out)
    }
    let (start, len) = (row_start as usize, row_len as usize);
    match scc_engine::ColType::from_tag(vtype) {
        Some(scc_engine::ColType::I64) => fill::<i64>(start, len, segments, |v| v),
        Some(scc_engine::ColType::I32) => fill::<i32>(start, len, segments, i64::from),
        other => Err(format!("unexpected raw value type {other:?}")),
    }
}

/// A returned vector widened to `i64`, with its plain byte size.
pub fn widen(v: &Vector) -> Result<(Vec<i64>, u64), String> {
    match v {
        Vector::I64(x) => Ok((x.clone(), 8 * x.len() as u64)),
        Vector::I32(x) => Ok((x.iter().map(|&a| a as i64).collect(), 4 * x.len() as u64)),
        other => Err(format!("unexpected vector type {:?}", other.col_type())),
    }
}

/// Plain width in bytes of a served column.
pub fn width(col: usize) -> u64 {
    if col == 3 {
        4
    } else {
        8
    }
}

/// Log-uniform length in `lo..=hi`.
pub fn log_len(rng: &mut crate::util::Rng, lo: usize, hi: usize) -> usize {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    ((a + u * (b - a)).exp().round() as usize).clamp(lo, hi)
}

/// The rows where `quantity == k`, projected to
/// `(orderkey, quantity, extendedprice)`: the oracle of the filtered scans.
pub fn filtered(li: &Lineitem, k: i64) -> [Vec<i64>; 3] {
    let mut out: [Vec<i64>; 3] = Default::default();
    for r in 0..li.rows() {
        if li.cols[1][r] == k {
            out[0].push(li.cols[0][r]);
            out[1].push(li.cols[1][r]);
            out[2].push(li.cols[2][r]);
        }
    }
    out
}

/// Checks a filtered scan's batch against [`filtered`].
pub fn check_scan(batch: &scc_engine::Batch, want: &[Vec<i64>; 3]) -> Result<u64, String> {
    if batch.columns.len() != 3 && !(batch.columns.is_empty() && want[0].is_empty()) {
        return Err(format!("{} columns, expected 3", batch.columns.len()));
    }
    let mut bytes = 0;
    for (i, w) in want.iter().enumerate() {
        let (got, b) = match batch.columns.get(i) {
            Some(v) => widen(v)?,
            None => (Vec::new(), 0),
        };
        if &got != w {
            return Err(format!("column {i}: {} values, expected {}", got.len(), w.len()));
        }
        bytes += b;
    }
    Ok(bytes)
}
