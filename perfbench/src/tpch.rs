//! `tpch`: the 15 implemented TPC-H queries at SF 0.1, single-threaded,
//! default `QueryConfig`, each answer checked against its straight-Rust
//! reference.

use crate::common::{layout_line, Outcome, Size};
use crate::refs::{check_query, expected, QUERIES};
use crate::trace;
use crate::util::{secs, Rng, Stopwatch, Took};
use scc_tpch::{QueryConfig, TpchDb};
use std::time::Instant;

/// Scale factor of the full-size run.
pub const SF: f64 = 0.1;
/// Scale factor of a smoke run.
pub const SMOKE_SF: f64 = 0.01;

/// Repetitions of each query per round, in [`QUERIES`] order (Q1, Q3,
/// Q4, Q5, Q6, Q7, Q10, Q11, Q12, Q14, Q15, Q17, Q18, Q19, Q21): 134
/// runs, ~8 CPU seconds on the reference machine. Q21, about 70% of a
/// one-each stream, runs twice. Ordered by time, Q11, Q15, Q6, Q14, Q17
/// and Q19 fill ranks 1-48, Q10, Q7 and Q3 (~30 ms) ranks 49-84, Q1 and
/// Q5 85-100, Q12 and Q4 101-116, Q18 (~115 ms) 117-132 and Q21
/// (~1.4 s) 133-134. So the median (ranks 67 and 68) lies inside the
/// ~30 ms block and the tail, p90 at rank 121 with 13 runs beyond,
/// inside the Q18 block, both far from the cliff between Q18 and Q21.
pub const REPS: [usize; 15] = [8, 12, 8, 8, 8, 12, 12, 8, 8, 8, 8, 8, 16, 8, 2];

/// Rounds per ten seconds of `--seconds`.
const ROUNDS_PER_10S: f64 = 1.25;

/// Loads the database `reps` times from freshly generated columns and
/// returns it with what each load took (generation is not timed).
pub fn load(sf: f64, seed: u64, reps: usize) -> (TpchDb, Vec<Took>) {
    let mut times = Vec::new();
    let mut db = None;
    for _ in 0..reps {
        let raw = scc_tpch::generate(sf, seed);
        drop(db.take());
        let w = Stopwatch::start();
        let loaded = trace::timed("setup.tpch_load", || TpchDb::load(raw, None));
        times.push(w.read());
        db = Some(loaded);
    }
    (db.expect("at least one load"), times)
}

/// Span name of one query.
pub fn span_name(q: u32) -> &'static str {
    const NAMES: [&str; 15] = [
        "op.q01", "op.q03", "op.q04", "op.q05", "op.q06", "op.q07", "op.q10", "op.q11", "op.q12",
        "op.q14", "op.q15", "op.q17", "op.q18", "op.q19", "op.q21",
    ];
    NAMES[QUERIES.iter().position(|&x| x == q).expect("implemented query")]
}

pub fn run(seed: u64, size: Size) -> Outcome {
    let sf = if size.smoke { SMOKE_SF } else { SF };
    let (db, setup) = load(sf, seed, size.setup_reps());
    let refs: Vec<_> = QUERIES.iter().map(|&q| expected(&db.raw, q)).collect();
    let cfg = QueryConfig::default();
    let mut out = Outcome {
        setup,
        types: QUERIES.iter().map(|q| format!("q{q:02}")).collect(),
        ..Outcome::default()
    };
    out.notes.push(format!("TPC-H SF {sf}: {} lineitem rows", db.lineitem.n_rows()));
    for name in scc_tpch::partition::TABLE_NAMES {
        let t = scc_tpch::queries::table_by_name(&db, name);
        out.notes.push(layout_line(t));
    }

    // Warm-up: every query once, checked, untimed.
    for (i, &q) in QUERIES.iter().enumerate() {
        let run = scc_tpch::queries::run_query(&db, &cfg, q);
        if let Err(e) = check_query(&db, q, &refs[i], &run.batch) {
            eprintln!("warm-up q{q} mismatch: {e}");
        }
    }

    let mut stream: Vec<usize> = Vec::new();
    for _ in 0..size.rounds(ROUNDS_PER_10S) {
        for (i, &r) in REPS.iter().enumerate() {
            stream.extend(std::iter::repeat_n(i, r));
        }
    }
    Rng::new(seed).shuffle(&mut stream);
    let wall = Instant::now();
    for i in stream {
        let q = QUERIES[i];
        let w = Stopwatch::start();
        let run = trace::timed(span_name(q), || scc_tpch::queries::run_query(&db, &cfg, q));
        let took = w.read();
        out.record(i, took, check_query(&db, q, &refs[i], &run.batch));
    }
    out.timed_wall_s = secs(wall);
    out.stored_ratio = stored_ratio_all(&db);
    out
}

/// Compressed per plain bytes over every column the 15 queries touch.
fn stored_ratio_all(db: &TpchDb) -> f64 {
    let mut seen = std::collections::BTreeSet::new();
    let (mut comp, mut plain) = (0u64, 0u64);
    for q in QUERIES {
        for (table, cols) in scc_tpch::queries::touched_columns(q) {
            let t = scc_tpch::queries::table_by_name(db, table);
            for c in *cols {
                if seen.insert((*table, *c)) {
                    comp += t.col(c).compressed_bytes();
                    plain += t.col(c).plain_bytes();
                }
            }
        }
    }
    comp as f64 / plain as f64
}
