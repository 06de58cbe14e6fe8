//! `serve`: an in-process scc-server with two workers on loopback,
//! serving TPC-H `lineitem`. One closed loop (one request in flight at a
//! time) drives two client connections in turn and mixes raw-segment
//! ranges decoded on the client, decoded-value ranges and filtered scans.

use crate::common::{layout_line, stored_ratio, Outcome, Size};
use crate::net::{self, check_scan, decode_raw, filtered, log_len, Counting, Lineitem};
use crate::trace;
use crate::util::{confine_to_one_cpu, secs, Rng, Stopwatch, Took};
use scc_server::protocol::{PredOp, Predicate, Request, Response};
use scc_server::{Catalog, Client, Server};
use scc_storage::Table;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Client connections (one per core of the reference machine).
pub const CONNECTIONS: usize = 2;

/// Rounds per ten seconds; a round is [`MIX`] shuffled.
const ROUNDS_PER_10S: f64 = 600.0;

/// Operation types of one round: four raw ranges, four value ranges and
/// one filtered scan.
const MIX: [usize; 9] = [0, 0, 0, 0, 1, 1, 1, 1, 2];

pub const TYPES: [&str; 3] = ["range_raw", "range_values", "scan_filtered"];

/// Longest raw range: one segment.
pub const RAW_MAX: usize = 64 << 10;
/// Longest value range: three segments.
pub const VALUES_MAX: usize = 3 * (64 << 10);

/// One planned request.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Range { col: usize, start: usize, len: usize, raw: bool },
    Scan { k: i64 },
}

/// Draws the seeded request stream: `rounds` rounds of [`MIX`], each
/// shuffled, every request with its own length, offset, column or
/// literal.
pub fn plan(seed: u64, rows: usize, rounds: usize) -> Vec<(usize, Op)> {
    let mut rng = Rng::new(seed ^ 0x5E7E);
    let mut ops = Vec::new();
    for _ in 0..rounds {
        let mut round = MIX;
        rng.shuffle(&mut round);
        for ty in round {
            let op = match ty {
                2 => Op::Scan { k: 1 + rng.below(50) as i64 },
                _ => {
                    let max = if ty == 0 { RAW_MAX } else { VALUES_MAX };
                    let len = log_len(&mut rng, 8, max.min(rows));
                    let start = rng.below((rows - len + 1) as u64) as usize;
                    Op::Range { col: rng.below(4) as usize, start, len, raw: ty == 0 }
                }
            };
            ops.push((ty, op));
        }
    }
    ops
}

/// Issues one request and checks the answer. Returns what the request
/// took (for raw ranges including the client-side decode) and the plain
/// bytes returned.
pub fn execute(
    client: &mut Client,
    li: &Lineitem,
    op: Op,
    oracle: &mut HashMap<i64, [Vec<i64>; 3]>,
) -> (Took, Result<u64, String>) {
    match op {
        Op::Range { col, start, len, raw } => {
            let req = Request::SegmentRange {
                table: "lineitem".into(),
                column: net::COLS[col].into(),
                row_start: start as u64,
                row_len: len as u32,
                raw,
            };
            let w = Stopwatch::start();
            let resp =
                trace::timed(if raw { "call.range_raw" } else { "call.range_values" }, || {
                    client.call(&req)
                });
            let got = match resp {
                Ok(Response::RawSegments { vtype, row_start, row_len, segments }) => {
                    trace::timed("client.decode", || {
                        decode_raw(vtype, row_start, row_len, &segments)
                    })
                }
                Ok(Response::Values(v)) => net::widen(&v).map(|w| w.0),
                Ok(other) => Err(format!("unexpected response {other:?}")),
                Err(e) => Err(e.to_string()),
            };
            let s = w.read();
            let want = &li.cols[col][start..start + len];
            let check = got.and_then(|g| {
                if g == want {
                    Ok(len as u64 * net::width(col))
                } else {
                    Err(format!("{} rows at {start} of {} differ", len, net::COLS[col]))
                }
            });
            (s, check)
        }
        Op::Scan { k } => {
            let pred = Predicate { column: net::COLS[1].into(), op: PredOp::Eq, literal: k };
            let w = Stopwatch::start();
            let resp = trace::timed("call.scan", || {
                client.scan("lineitem", &net::COLS[..3], Some(pred), 1)
            });
            let s = w.read();
            let want = oracle.entry(k).or_insert_with(|| filtered(li, k));
            (s, resp.map_err(|e| e.to_string()).and_then(|(b, _)| check_scan(&b, want)))
        }
    }
}

/// Builds the served table and starts the server; returns both with what
/// it took.
fn set_up(li: &Lineitem) -> (Arc<Table>, Server, Took) {
    let served = li.served();
    let w = Stopwatch::start();
    let _g = trace::span("setup.serve");
    let table = net::build_table(served);
    let mut catalog = Catalog::new();
    catalog.add(Arc::clone(&table));
    let server = net::start_server(catalog);
    (table, server, w.read())
}

pub fn run(seed: u64, size: Size) -> Outcome {
    let sf = if size.smoke { crate::tpch::SMOKE_SF } else { crate::tpch::SF };
    let li = Lineitem::generate(sf, seed);
    // Before any server starts, so every thread of the workload inherits it.
    let confined = confine_to_one_cpu();
    let mut setup = Vec::new();
    let mut state = None;
    for _ in 0..size.setup_reps() {
        drop(state.take());
        let (table, server, s) = set_up(&li);
        setup.push(s);
        state = Some((table, server));
    }
    let (table, server) = state.expect("at least one set-up");
    let mut out = Outcome {
        setup,
        types: TYPES.iter().map(|t| t.to_string()).collect(),
        stored_ratio: stored_ratio(&table, &net::COLS),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "lineitem SF {sf}: {} rows x {} columns served by {} workers, {CONNECTIONS} connections",
        li.rows(),
        net::COLS.len(),
        net::WORKERS
    ));
    out.notes.push(layout_line(&table));
    out.notes.push(match confined.cpu {
        Some(c) => format!("every thread of the workload confined to CPU {c}"),
        None => "CPU affinity unknown: threads not confined".into(),
    });

    let addr = server.local_addr().to_string();
    let read = Arc::new(AtomicU64::new(0));
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| {
            Client::from_transport(Box::new(Counting::connect(&addr, &read).expect("connect")))
        })
        .collect();
    let mut oracle = HashMap::new();
    // Warm-up: one round, untimed and uncounted.
    for (i, (_, op)) in plan(seed ^ 0xAAAA, li.rows(), 1).into_iter().enumerate() {
        let _ = execute(&mut clients[i % CONNECTIONS], &li, op, &mut oracle);
    }
    read.store(0, Ordering::Relaxed);
    let mut returned = 0u64;
    let wall = Instant::now();
    for (i, (ty, op)) in plan(seed, li.rows(), size.rounds(ROUNDS_PER_10S)).into_iter().enumerate()
    {
        let (s, check) = {
            let _g = trace::span("op.serve");
            execute(&mut clients[i % CONNECTIONS], &li, op, &mut oracle)
        };
        returned += check.as_ref().copied().unwrap_or(0);
        out.record(ty, s, check.map(|_| ()));
    }
    out.timed_wall_s = secs(wall);
    out.wire_ratio = Some(read.load(Ordering::Relaxed) as f64 / returned as f64);
    drop(clients);
    drop(server);
    out
}
