//! `scan`: single-threaded `Scan` → `Select` over a large seeded
//! synthetic table, survivors materialised with `ensure_values`, no
//! aggregation. One column per scheme; a selectivity ladder plus a range
//! predicate on the sorted column and an equality on the dictionary one.

use crate::common::{column_segments, layout_line, scheme_name, stored_ratio, Outcome, Size};
use crate::trace;
use crate::util::{secs, Rng, Stopwatch, Took};
use scc_engine::{Batch, Expr, Operator, Select, Vector};
use scc_storage::disk::stats_handle;
use scc_storage::{Scan, ScanOptions, Table, TableBuilder};
use std::sync::Arc;
use std::time::Instant;

/// Rows of the full-size table.
pub const ROWS: usize = 4 << 20;
/// Rows of a smoke run.
pub const SMOKE_ROWS: usize = 256 << 10;

/// Column names, one per scheme.
pub const COLS: [&str; 4] = ["pfor", "pfor_exc", "sorted", "dict"];

/// Rounds (each operation once, shuffled) per ten seconds.
const ROUNDS_PER_10S: f64 = 75.0;

/// The generated columns, all `i64`.
pub struct Columns {
    /// Uniform in `0..4096`: PFOR at 12 bits, no exceptions.
    pub pfor: Vec<i64>,
    /// 97% uniform in `0..1024`, 3% wide outliers: PFOR with exceptions.
    pub pfor_exc: Vec<i64>,
    /// Running sum of gaps in `0..16`: PFOR-DELTA.
    pub sorted: Vec<i64>,
    /// 50 distinct wide values: PDICT.
    pub dict: Vec<i64>,
    /// The 50 distinct values of `dict`.
    pub dict_values: Vec<i64>,
}

impl Columns {
    pub fn generate(rows: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5CA1);
        let dict_values: Vec<i64> = (0..50).map(|_| (rng.next_u64() >> 24) as i64).collect();
        let mut acc = 0i64;
        let mut c = Columns {
            pfor: Vec::with_capacity(rows),
            pfor_exc: Vec::with_capacity(rows),
            sorted: Vec::with_capacity(rows),
            dict: Vec::with_capacity(rows),
            dict_values,
        };
        for _ in 0..rows {
            let r = rng.next_u64();
            c.pfor.push((r & 4095) as i64);
            c.pfor_exc.push(if (r >> 12) % 100 < 3 {
                (rng.next_u64() >> 24) as i64
            } else {
                ((r >> 20) & 1023) as i64
            });
            acc += ((r >> 32) & 15) as i64;
            c.sorted.push(acc);
            c.dict.push(c.dict_values[((r >> 40) % 50) as usize]);
        }
        c
    }

    pub fn col(&self, i: usize) -> &[i64] {
        [&self.pfor, &self.pfor_exc, &self.sorted, &self.dict][i]
    }

    pub fn rows(&self) -> usize {
        self.pfor.len()
    }

    /// Encodes the columns into a compressed table (consumes them).
    pub fn build(self) -> Arc<Table> {
        TableBuilder::new("scan")
            .add_i64(COLS[0], self.pfor)
            .add_i64(COLS[1], self.pfor_exc)
            .add_i64(COLS[2], self.sorted)
            .add_i64(COLS[3], self.dict)
            .build()
    }
}

/// One operation type: a predicate over the four-column scan.
#[derive(Debug, Clone, Copy)]
pub enum Pred {
    /// `col < lit`.
    Lt(usize, i64),
    /// `col >= lit`.
    Ge(usize, i64),
    /// `lo <= col < hi`.
    Between(usize, i64, i64),
    /// `col == lit`.
    Eq(usize, i64),
}

impl Pred {
    pub fn test(self, c: &Columns, row: usize) -> bool {
        match self {
            Pred::Lt(i, v) => c.col(i)[row] < v,
            Pred::Ge(i, v) => c.col(i)[row] >= v,
            Pred::Between(i, lo, hi) => (lo..hi).contains(&c.col(i)[row]),
            Pred::Eq(i, v) => c.col(i)[row] == v,
        }
    }

    pub fn expr(self) -> Expr {
        match self {
            Pred::Lt(i, v) => Expr::col(i).lt(Expr::lit_i64(v)),
            Pred::Ge(i, v) => Expr::col(i).ge(Expr::lit_i64(v)),
            Pred::Between(i, lo, hi) => {
                Expr::col(i).ge(Expr::lit_i64(lo)).and(Expr::col(i).lt(Expr::lit_i64(hi)))
            }
            Pred::Eq(i, v) => Expr::col(i).eq(Expr::lit_i64(v)),
        }
    }
}

/// The operation types, with seeded literals where the ladder allows.
pub fn op_types(c: &Columns, seed: u64) -> Vec<(&'static str, Pred)> {
    let mut rng = Rng::new(seed ^ 0x0F5);
    let n = c.rows();
    let start = rng.below((n - n / 10) as u64) as usize;
    let (lo, hi) = (c.sorted[start], c.sorted[start + n / 10 - 1] + 1);
    let v = c.dict_values[rng.below(c.dict_values.len() as u64) as usize];
    vec![
        ("sel_0.1pct", Pred::Lt(0, 4)),
        ("sel_10pct", Pred::Lt(1, 105)),
        ("sel_100pct", Pred::Ge(0, 0)),
        ("range_sorted", Pred::Between(2, lo, hi)),
        ("eq_dict", Pred::Eq(3, v)),
    ]
}

/// What a correct scan returns: survivor count and wrapping sums of
/// each column over the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sums: [i64; 4],
}

impl Digest {
    /// The oracle: a plain loop over the generated vectors.
    pub fn oracle(c: &Columns, p: Pred) -> Digest {
        let mut d = Digest::default();
        for row in 0..c.rows() {
            if p.test(c, row) {
                d.rows += 1;
                for (i, s) in d.sums.iter_mut().enumerate() {
                    *s = s.wrapping_add(c.col(i)[row]);
                }
            }
        }
        d
    }

    fn add(&mut self, b: &Batch) -> Result<(), String> {
        self.rows += b.len() as u64;
        for (i, s) in self.sums.iter_mut().enumerate() {
            match b.col(i) {
                Vector::I64(v) => *s = v.iter().fold(*s, |a, &x| a.wrapping_add(x)),
                other => return Err(format!("column {i} came back as {:?}", other.col_type())),
            }
        }
        Ok(())
    }
}

/// Runs one `Scan` → `Select` with materialised survivors. Returns the
/// time spent inside the operators (the digest is taken outside the
/// clocks), the digest, and the compressed-domain counters
/// `(values_decoded, values_returned)`.
pub fn scan_select(
    table: &Arc<Table>,
    pred: Option<Pred>,
) -> (Took, Result<Digest, String>, (u64, u64)) {
    let stats = stats_handle();
    let scan = Scan::new(Arc::clone(table), &COLS, ScanOptions::default(), stats, None);
    let mut op: Box<dyn Operator> = match pred {
        Some(p) => Box::new(Select::new(scan, p.expr())),
        None => Box::new(scan),
    };
    let mut digest = Digest::default();
    let mut err = None;
    let mut t_in = Took::default();
    loop {
        let w = Stopwatch::start();
        let next = op.try_next();
        let batch = match next {
            Ok(Some(mut b)) => b.ensure_values().map(|_| b),
            Ok(None) => {
                t_in += w.read();
                break;
            }
            Err(e) => Err(e),
        };
        t_in += w.read();
        match batch {
            Ok(b) => {
                if let Err(e) = digest.add(&b) {
                    err.get_or_insert(e);
                }
            }
            Err(e) => {
                err.get_or_insert(e.to_string());
                break;
            }
        }
    }
    let (decoded, _) = op.explain().values_totals();
    let returned = digest.rows * COLS.len() as u64;
    (t_in, err.map_or(Ok(digest), Err), (decoded, returned))
}

pub fn run(seed: u64, size: Size) -> Outcome {
    let rows = if size.smoke { SMOKE_ROWS } else { ROWS };
    let mut setup = Vec::new();
    let mut table = None;
    let mut types = Vec::new();
    let mut oracles = Vec::new();
    for rep in 0..size.setup_reps() {
        let cols = Columns::generate(rows, seed);
        if rep == 0 {
            types = op_types(&cols, seed);
            oracles = types.iter().map(|&(_, p)| Digest::oracle(&cols, p)).collect();
        }
        drop(table.take());
        let w = Stopwatch::start();
        table = Some(trace::timed("setup.scan_encode", || cols.build()));
        setup.push(w.read());
    }
    let table = table.expect("at least one set-up");
    let mut out = Outcome {
        setup,
        types: types.iter().map(|t| t.0.to_string()).collect(),
        stored_ratio: stored_ratio(&table, &COLS),
        ..Outcome::default()
    };
    let comp: u64 = COLS.iter().map(|c| table.col(c).compressed_bytes()).sum();
    out.notes.push(format!(
        "scan table: {rows} rows x {} i64 columns, {:.1} MiB compressed",
        COLS.len(),
        comp as f64 / (1 << 20) as f64
    ));
    for c in COLS {
        let segs = column_segments(table.col(c));
        let (layout, scheme, b) =
            segs.first().map_or(("plain", "plain", 0), |s| (s.0.name(), scheme_name(s.1), s.2));
        out.notes.push(format!("column {c}: {scheme} {layout} b={b} ({} segments)", segs.len()));
    }
    out.notes.push(layout_line(&table));

    // Warm-up: one of each, untimed.
    for &(_, p) in &types {
        let _ = scan_select(&table, Some(p));
    }
    let mut stream: Vec<usize> = Vec::new();
    let mut rng = Rng::new(seed);
    for _ in 0..size.rounds(ROUNDS_PER_10S) {
        let mut round: Vec<usize> = (0..types.len()).collect();
        rng.shuffle(&mut round);
        stream.extend(round);
    }
    let wall = Instant::now();
    for i in stream {
        let (t, digest, _) = {
            let _g = trace::span("op.scan_select");
            scan_select(&table, Some(types[i].1))
        };
        let check = digest.and_then(|d| {
            if d == oracles[i] {
                Ok(())
            } else {
                Err(format!("{d:?}, expected {:?}", oracles[i]))
            }
        });
        out.record(i, t, check);
    }
    out.timed_wall_s = secs(wall);
    out
}
