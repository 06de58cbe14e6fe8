//! `cluster`: a `Coordinator` over two in-process scc-server nodes that
//! hold range partitions (with replicas) of TPC-H `lineitem`. One client
//! thread issues filtered scatter-gather scans and `segment_range` calls
//! inside one partition and across a partition boundary.

use crate::common::{layout_line, stored_ratio, Outcome, Size};
use crate::net::{self, check_scan, filtered, log_len, Lineitem};
use crate::trace;
use crate::util::{confine_to_one_cpu, secs, Rng, Stopwatch, Took};
use scc_cluster::{ClusterConfig, Coordinator, Topology};
use scc_server::protocol::{PredOp, Predicate};
use scc_server::{Catalog, Server};
use scc_storage::{partition_table, PartitionManifest, Table};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Shard nodes.
pub const NODES: usize = 2;
/// Range partitions of `lineitem` (the topology default, two per node).
pub const PARTITIONS: usize = 2 * NODES;

/// Rounds per ten seconds; a round is [`MIX`] shuffled.
const ROUNDS_PER_10S: f64 = 550.0;

/// One round: a filtered scan, three in-partition and three
/// cross-boundary ranges.
const MIX: [usize; 7] = [0, 1, 1, 1, 2, 2, 2];

pub const TYPES: [&str; 3] = ["scan_filtered", "range_inside", "range_across"];

/// A running cluster.
pub struct Cluster {
    pub servers: Vec<Server>,
    pub coord: Coordinator,
    pub manifest: PartitionManifest,
}

/// Partitions `table` and starts the nodes and the coordinator.
pub fn start(table: &Arc<Table>) -> Cluster {
    let manifest =
        PartitionManifest::range("lineitem", table.n_rows(), table.seg_rows(), PARTITIONS, NODES);
    let parts = partition_table(table, &manifest);
    let mut catalogs: Vec<Catalog> = (0..NODES).map(|_| Catalog::new()).collect();
    for (p, part) in parts.iter().enumerate() {
        for node in [manifest.primary[p], manifest.replica[p]] {
            catalogs[node].add(Arc::clone(part));
        }
    }
    let servers: Vec<Server> = catalogs.into_iter().map(net::start_server).collect();
    let topology = Topology {
        nodes: servers.iter().map(|s| s.local_addr().to_string()).collect(),
        partitions: PARTITIONS,
        replication: 1,
    };
    let mut coord = Coordinator::new(topology, ClusterConfig::default());
    coord.register(manifest.clone());
    Cluster { servers, coord, manifest }
}

/// One planned call.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Scan {
        k: i64,
    },
    /// `raw`: the nodes ship compressed segments and the coordinator
    /// decodes them.
    Range {
        col: usize,
        start: usize,
        len: usize,
        raw: bool,
    },
}

/// Draws the seeded call stream: `rounds` rounds of [`MIX`], each
/// shuffled. Half the ranges (a coin flip each) ask for raw segments.
pub fn plan(seed: u64, m: &PartitionManifest, rounds: usize) -> Vec<(usize, Op)> {
    let mut rng = Rng::new(seed ^ 0xC1C1);
    let mut ops = Vec::new();
    for _ in 0..rounds {
        let mut round = MIX;
        rng.shuffle(&mut round);
        for ty in round {
            let col = rng.below(4) as usize;
            let raw = rng.below(2) == 1;
            let op = match ty {
                0 => Op::Scan { k: 1 + rng.below(50) as i64 },
                1 => {
                    let (lo, hi) = m.bounds[rng.below(PARTITIONS as u64) as usize];
                    let len = log_len(&mut rng, 8, (64 << 10).min(hi - lo));
                    Op::Range {
                        col,
                        start: lo + rng.below((hi - lo - len + 1) as u64) as usize,
                        len,
                        raw,
                    }
                }
                _ => {
                    // A boundary between partitions p and p + 1.
                    let p = rng.below(PARTITIONS as u64 - 1) as usize;
                    let edge = m.bounds[p].1;
                    let before = log_len(&mut rng, 1, 32 << 10).min(edge - m.bounds[p].0);
                    let after = log_len(&mut rng, 1, 32 << 10).min(m.bounds[p + 1].1 - edge);
                    Op::Range { col, start: edge - before, len: before + after, raw }
                }
            };
            ops.push((ty, op));
        }
    }
    ops
}

/// Runs one call and checks it.
pub fn execute(
    c: &Cluster,
    li: &Lineitem,
    op: Op,
    oracle: &mut HashMap<i64, [Vec<i64>; 3]>,
) -> (Took, Result<(), String>) {
    match op {
        Op::Scan { k } => {
            let pred = Predicate { column: net::COLS[1].into(), op: PredOp::Eq, literal: k };
            let w = Stopwatch::start();
            let got = trace::timed("call.cluster_scan", || {
                c.coord.scan("lineitem", &net::COLS[..3], Some(&pred))
            });
            let s = w.read();
            let want = oracle.entry(k).or_insert_with(|| filtered(li, k));
            (s, got.map_err(|e| e.to_string()).and_then(|(b, _)| check_scan(&b, want).map(|_| ())))
        }
        Op::Range { col, start, len, raw } => {
            let w = Stopwatch::start();
            let got = trace::timed("call.cluster_range", || {
                c.coord.segment_range("lineitem", net::COLS[col], start as u64, len as u32, raw)
            });
            let s = w.read();
            let want = &li.cols[col][start..start + len];
            let check =
                got.map_err(|e| e.to_string()).and_then(|v| net::widen(&v)).and_then(|(g, _)| {
                    if g == want {
                        Ok(())
                    } else {
                        Err(format!("{len} rows at {start} of {} differ", net::COLS[col]))
                    }
                });
            (s, check)
        }
    }
}

/// Scale factor of a smoke run: large enough that every partition holds
/// at least one segment.
const SMOKE_SF: f64 = 0.05;

pub fn run(seed: u64, size: Size) -> Outcome {
    let sf = if size.smoke { SMOKE_SF } else { crate::tpch::SF };
    let li = Lineitem::generate(sf, seed);
    // Before any server starts, so every thread of the workload inherits it.
    let confined = confine_to_one_cpu();
    let mut setup = Vec::new();
    let mut state = None;
    for _ in 0..size.setup_reps() {
        drop(state.take());
        let served = li.served();
        let w = Stopwatch::start();
        let (table, cluster) = trace::timed("setup.cluster", || {
            let table = net::build_table(served);
            let cluster = start(&table);
            (table, cluster)
        });
        setup.push(w.read());
        state = Some((table, cluster));
    }
    let (table, cluster) = state.expect("at least one set-up");
    let mut out = Outcome {
        setup,
        types: TYPES.iter().map(|t| t.to_string()).collect(),
        stored_ratio: stored_ratio(&table, &net::COLS),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "lineitem SF {sf}: {} rows in {PARTITIONS} partitions (with replicas) on {NODES} nodes of {} workers",
        li.rows(),
        net::WORKERS
    ));
    out.notes.push(layout_line(&table));
    out.notes.push(match confined.cpu {
        Some(c) => format!("every thread of the workload confined to CPU {c}"),
        None => "CPU affinity unknown: threads not confined".into(),
    });
    let mut oracle = HashMap::new();
    // Warm-up: one round, untimed and uncounted.
    for (_, op) in plan(seed ^ 0xAAAA, &cluster.manifest, 1) {
        let _ = execute(&cluster, &li, op, &mut oracle);
    }
    let wall = Instant::now();
    for (ty, op) in plan(seed, &cluster.manifest, size.rounds(ROUNDS_PER_10S)) {
        let (s, check) = {
            let _g = trace::span("op.cluster");
            execute(&cluster, &li, op, &mut oracle)
        };
        out.record(ty, s, check);
    }
    out.timed_wall_s = secs(wall);
    out
}
