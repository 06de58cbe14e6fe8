//! The per-layer ledger of a traced run.
//!
//! Each layer is timed from outside, through its public functions: every
//! timed call sits in a span named after the metric it feeds, and the
//! metrics are computed from those spans (the storage scans and the
//! cluster comparison from the operator and call times measured inside
//! them). Every probe's output is also
//! checked, so a layer that answers wrongly counts a failed operation.
//! The ledger is the same whichever workload was traced, so a traced run
//! of any workload reports every per-layer metric.

use crate::common::Size;
use crate::net::{self, check_scan, decode_raw, filtered, log_len};
use crate::refs::{check_query, expected, QUERIES};
use crate::scan::{self, Columns, Digest};
use crate::trace::{self, span, spans_named};
use crate::util::{close, median, Metric, Rng};
use scc_bitpack::kernel::kernels;
use scc_core::{analyze, compress_with_plan, AnalyzeOpts, Layout};
use scc_engine::{
    AggExpr, Batch, Exchange, Expr, HashAggregate, HashJoin, JoinKind, MemSource, Operator,
    OrderBy, Project, Select, SortKey, Vector,
};
use scc_server::protocol::{PredOp, Predicate, Request, Response};
use scc_server::{Catalog, Client};
use scc_tpch::{date, QueryConfig, TpchDb};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rows of the ledger's scan table (same generator as the `scan`
/// workload, so the same schemes and bit widths).
const SCAN_ROWS: usize = 1 << 20;

pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Ledger {
    fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            eprintln!("FAILED ledger {what}: {e}");
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }
}

fn expect(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Σ units / Σ nanoseconds over the spans named `name` (bytes/ns = GB/s).
fn units_per_ns(name: &str) -> f64 {
    let s = spans_named(name);
    s.iter().map(|x| x.units as f64).sum::<f64>() / s.iter().map(|x| x.dur_ns() as f64).sum::<f64>()
}

/// Σ nanoseconds / Σ units over the spans named `name`.
fn ns_per_unit(name: &str) -> f64 {
    1.0 / units_per_ns(name)
}

/// Median span duration in nanoseconds.
fn median_ns(name: &str) -> f64 {
    let d: Vec<f64> = spans_named(name).iter().map(|s| s.dur_ns() as f64).collect();
    if d.is_empty() {
        f64::NAN
    } else {
        median(&d)
    }
}

pub fn run(seed: u64, size: Size) -> Ledger {
    let mut l = Ledger { attempted: 0, failed: 0, metrics: Vec::new() };
    let reps = |n: usize| if size.smoke { n.div_ceil(5) } else { n };
    codec_layers(&mut l, seed, size, &reps);
    let sf = if size.smoke { 0.05 } else { crate::tpch::SF };
    let db = TpchDb::load(scc_tpch::generate(sf, seed), None);
    engine_layer(&mut l, &db, &reps);
    tpch_plans(&mut l, &db, &reps);
    serving_layers(&mut l, &db, seed, &reps);
    l
}

/// bitpack, core and storage, over the scan workload's generator.
fn codec_layers(l: &mut Ledger, seed: u64, size: Size, reps: &dyn Fn(usize) -> usize) {
    let rows = if size.smoke { scan::SMOKE_ROWS } else { SCAN_ROWS };
    let cols = Columns::generate(rows, seed);

    // core: analyze, encode and decode each segment-sized chunk.
    let (mut bits, mut values) = (0u64, 0u64);
    let mut widths = BTreeSet::new();
    let (mut segments, mut vertical_segments) = (0usize, 0usize);
    for c in 0..scan::COLS.len() {
        for chunk in cols.col(c).chunks(scc_storage::SEGMENT_ROWS) {
            let n = chunk.len() as u64;
            let analysis = {
                let mut g = span("core.analyze");
                g.units(n);
                analyze(chunk, &AnalyzeOpts::default())
            };
            let Some(best) = analysis.best() else {
                l.check("core.analyze", Err("no candidate plan".into()));
                continue;
            };
            let seg = {
                let mut g = span("core.encode");
                g.units(n);
                compress_with_plan(chunk, &best.plan)
            };
            bits += 8 * seg.compressed_bytes() as u64;
            values += n;
            widths.insert(seg.bit_width());
            segments += 1;
            vertical_segments += usize::from(seg.layout() == Layout::Vertical);
            let mut out = Vec::with_capacity(chunk.len());
            for _ in 0..reps(5) {
                out.clear();
                let mut g = span("core.decode");
                g.units(n);
                seg.decompress_into(&mut out);
            }
            l.check(
                "core.decode",
                expect(out == chunk, || format!("{} column chunk", scan::COLS[c])),
            );
        }
    }
    l.put("core.analyze_ns_per_value", ns_per_unit("core.analyze"), "ns");
    l.put("core.encode_ns_per_value", ns_per_unit("core.encode"), "ns");
    l.put("core.decode_ns_per_value", ns_per_unit("core.decode"), "ns");
    l.put("core.bits_per_value", bits as f64 / values as f64, "bits");

    // bitpack: the active tier's kernels at the widths the table uses.
    // Unpack is timed in both layouts; pack and compare in the layout the
    // segments above were encoded in (most of them), the one the `scan`
    // workload's set-up and `Select` run.
    let vertical = 2 * vertical_segments > segments;
    println!(
        "ledger: {vertical_segments} of {segments} segments vertical; pack and compare timed {}",
        if vertical { "vertical" } else { "horizontal" }
    );
    let k = kernels();
    let n = 64 << 10;
    let mut rng = Rng::new(seed ^ 0xB17);
    for &b in &widths {
        let mask = if b == 32 { u32::MAX } else { (1u32 << b) - 1 };
        let vals: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32 & mask).collect();
        let words = scc_bitpack::packed_words(n, b);
        let (mut hpacked, mut vpacked) = (vec![0u32; words], vec![0u32; words]);
        let mut out = vec![0u32; n];
        let mut sel = vec![false; n];
        for _ in 0..reps(200) {
            let mut g = span("bitpack.pack");
            g.units(4 * n as u64);
            if vertical {
                k.vpack(&vals, b, &mut vpacked);
            } else {
                k.pack(&vals, b, &mut hpacked);
            }
        }
        if vertical {
            k.pack(&vals, b, &mut hpacked);
        } else {
            k.vpack(&vals, b, &mut vpacked);
        }
        for _ in 0..reps(200) {
            let mut g = span("bitpack.unpack");
            g.units(4 * n as u64);
            k.unpack(&hpacked, b, &mut out);
        }
        l.check("bitpack.unpack", expect(out == vals, || format!("b={b}")));
        for _ in 0..reps(200) {
            let mut g = span("bitpack.vunpack");
            g.units(4 * n as u64);
            k.vunpack(&vpacked, b, &mut out);
        }
        l.check("bitpack.vunpack", expect(out == vals, || format!("b={b}")));
        let hi = mask / 2;
        for _ in 0..reps(200) {
            let mut g = span("bitpack.cmp_range");
            g.units(4 * n as u64);
            if vertical {
                k.vcmp_range(&vpacked, b, 0, hi, false, &mut sel);
            } else {
                k.cmp_range(&hpacked, b, 0, hi, false, &mut sel);
            }
        }
        let ok = sel.iter().zip(&vals).all(|(&s, &v)| s == (v <= hi));
        l.check("bitpack.cmp_range", expect(ok, || format!("b={b}")));
    }
    l.put("bitpack.unpack_gb_s", units_per_ns("bitpack.unpack"), "GB/s");
    l.put("bitpack.vunpack_gb_s", units_per_ns("bitpack.vunpack"), "GB/s");
    l.put("bitpack.cmp_range_gb_s", units_per_ns("bitpack.cmp_range"), "GB/s");
    l.put("bitpack.pack_gb_s", units_per_ns("bitpack.pack"), "GB/s");

    // storage: a full scan without predicate, and the decode economy of
    // the scan workload's predicates.
    let types = scan::op_types(&cols, seed);
    let oracles: Vec<Digest> = types.iter().map(|&(_, p)| Digest::oracle(&cols, p)).collect();
    let all = Digest::oracle(&cols, scan::Pred::Ge(0, i64::MIN));
    let table = cols.build();
    let mut ns_per_row = Vec::new();
    for _ in 0..reps(5) {
        let (s, d, _) = trace::timed("storage.scan", || scan::scan_select(&table, None));
        ns_per_row.push(s.wall * 1e9 / rows as f64);
        l.check("storage.scan", d.and_then(|d| expect(d == all, || format!("{d:?}"))));
    }
    l.put("storage.scan_ns_per_row", median(&ns_per_row), "ns");
    let (mut decoded, mut returned) = (0u64, 0u64);
    for (&(name, p), want) in types.iter().zip(&oracles) {
        let (_, d, (dec, ret)) =
            trace::timed("storage.select", || scan::scan_select(&table, Some(p)));
        decoded += dec;
        returned += ret;
        l.check(name, d.and_then(|d| expect(d == *want, || format!("{d:?}"))));
    }
    l.put("storage.decoded_per_returned", decoded as f64 / returned as f64, "ratio");
}

/// Plain-vector inputs cut from the TPC-H database.
struct EngineInputs {
    orderkey: Vector,
    quantity: Vector,
    extprice: Vector,
    discount: Vector,
    shipdate: Vector,
    returnflag: Vector,
    linestatus: Vector,
    o_orderkey: Vector,
    o_orderdate: Vector,
}

fn codes(values: &[String]) -> Vector {
    let dict: Vec<&String> = values.iter().collect::<BTreeSet<_>>().into_iter().collect();
    Vector::U32(values.iter().map(|v| dict.binary_search(&v).expect("in dict") as u32).collect())
}

/// Pulls every batch with its values materialised and drops it at once,
/// so an operator and its bare source are timed the same way whatever
/// share of the rows the operator keeps. Returns the rows seen.
fn drain(op: &mut dyn Operator) -> usize {
    let mut rows = 0;
    while let Some(mut b) = op.next() {
        b.ensure_values().expect("materialise");
        rows += b.len();
    }
    rows
}

/// Times draining `make(source)` against draining the bare source and
/// returns the operator's own nanoseconds per input row; then checks one
/// more, untimed and collected, run.
fn engine_probe(
    l: &mut Ledger,
    name: &'static str,
    base: &'static str,
    cols: &[&Vector],
    reps: usize,
    make: &dyn Fn(MemSource) -> Box<dyn Operator>,
    check: &dyn Fn(&Batch) -> Result<(), String>,
) -> f64 {
    let rows = cols[0].len();
    let src = || MemSource::new(cols.iter().map(|&c| c.clone()).collect(), scc_engine::VECTOR_SIZE);
    for _ in 0..reps {
        let mut s = src();
        trace::timed(base, || drain(&mut s));
        let mut op = make(src());
        trace::timed(name, || drain(op.as_mut()));
    }
    let out = scc_engine::ops::collect(make(src()).as_mut());
    l.check(name, check(&out));
    (median_ns(name) - median_ns(base)) / rows as f64
}

fn engine_layer(l: &mut Ledger, db: &TpchDb, reps: &dyn Fn(usize) -> usize) {
    let li = &db.raw.lineitem;
    let o = &db.raw.orders;
    let x = EngineInputs {
        orderkey: Vector::I64(li.orderkey.clone()),
        quantity: Vector::I64(li.quantity.clone()),
        extprice: Vector::I64(li.extendedprice.clone()),
        discount: Vector::I64(li.discount.clone()),
        shipdate: Vector::I32(li.shipdate.clone()),
        returnflag: codes(&li.returnflag),
        linestatus: codes(&li.linestatus),
        o_orderkey: Vector::I64(o.orderkey.clone()),
        o_orderdate: Vector::I32(o.orderdate.clone()),
    };
    let n = li.orderkey.len();
    let r = reps(5);
    let cut = date(1995, 6, 17);
    let want_sel = li.shipdate.iter().filter(|&&d| d < cut).count();
    let v = engine_probe(
        l,
        "engine.select",
        "engine.select.source",
        &[&x.quantity, &x.extprice, &x.discount, &x.shipdate],
        r,
        &|s| Box::new(Select::new(s, Expr::col(3).lt(Expr::lit_i32(cut)))),
        &|b| expect(b.len() == want_sel, || format!("{} rows, expected {want_sel}", b.len())),
    );
    l.put("engine.select_ns_per_row", v, "ns");

    let revenue = || {
        Expr::lit_i64(100)
            .sub(Expr::col(1))
            .to_f64()
            .mul(Expr::col(0).to_f64())
            .mul(Expr::lit_f64(0.01))
    };
    let v = engine_probe(
        l,
        "engine.project",
        "engine.project.source",
        &[&x.extprice, &x.discount],
        r,
        &|s| Box::new(Project::new(s, vec![revenue()])),
        &|b| expect(b.len() == n, || format!("{} rows", b.len())),
    );
    l.put("engine.project_ns_per_row", v, "ns");

    let want_sum: f64 =
        li.extendedprice.iter().zip(&li.discount).map(|(&e, &d)| e as f64 * d as f64).sum();
    let v = engine_probe(
        l,
        "engine.agg_keyless",
        "engine.agg_keyless.source",
        &[&x.extprice, &x.discount],
        r,
        &|s| {
            let e = Expr::col(0).to_f64().mul(Expr::col(1).to_f64());
            Box::new(HashAggregate::new(s, vec![], vec![AggExpr::Sum(e)]))
        },
        &|b| {
            let got = if b.len() == 1 { b.col(0).as_f64()[0] } else { f64::NAN };
            expect(close(got, want_sum), || format!("sum {got}, expected {want_sum}"))
        },
    );
    l.put("engine.agg_keyless_ns_per_row", v, "ns");

    let groups: HashSet<(&String, &String)> = li.returnflag.iter().zip(&li.linestatus).collect();
    let want_groups = groups.len();
    let v = engine_probe(
        l,
        "engine.agg_fewgroups",
        "engine.agg_fewgroups.source",
        &[&x.returnflag, &x.linestatus, &x.quantity, &x.extprice],
        r,
        &|s| {
            Box::new(HashAggregate::new(
                s,
                vec![Expr::col(0), Expr::col(1)],
                vec![AggExpr::Sum(Expr::col(2)), AggExpr::Sum(Expr::col(3)), AggExpr::Count],
            ))
        },
        &|b| {
            expect(b.len() == want_groups, || format!("{} groups, expected {want_groups}", b.len()))
        },
    );
    l.put("engine.agg_fewgroups_ns_per_row", v, "ns");

    let want_orders = li.orderkey.iter().collect::<HashSet<_>>().len();
    let v = engine_probe(
        l,
        "engine.agg_manygroups",
        "engine.agg_manygroups.source",
        &[&x.orderkey, &x.quantity],
        r,
        &|s| Box::new(HashAggregate::new(s, vec![Expr::col(0)], vec![AggExpr::Sum(Expr::col(1))])),
        &|b| {
            expect(b.len() == want_orders, || format!("{} groups, expected {want_orders}", b.len()))
        },
    );
    l.put("engine.agg_manygroups_ns_per_row", v, "ns");

    // Join: build alone (empty probe side), then build + probe.
    let orders = || {
        MemSource::new(vec![x.o_orderkey.clone(), x.o_orderdate.clone()], scc_engine::VECTOR_SIZE)
    };
    let empty = Vector::I64(Vec::new());
    let v = engine_probe(
        l,
        "engine.join_build",
        "engine.join_build.source",
        &[&x.o_orderkey, &x.o_orderdate],
        r,
        &|_| {
            let probe = MemSource::new(vec![empty.clone()], scc_engine::VECTOR_SIZE);
            Box::new(HashJoin::new(probe, orders(), vec![0], vec![0], JoinKind::Inner))
        },
        &|b| expect(b.is_empty(), || format!("{} rows from an empty probe", b.len())),
    );
    l.put("engine.join_build_ns_per_row", v, "ns");
    let _ = engine_probe(
        l,
        "engine.join",
        "engine.join.source",
        &[&x.orderkey, &x.extprice],
        r,
        &|s| Box::new(HashJoin::new(s, orders(), vec![0], vec![0], JoinKind::Inner)),
        &|b| expect(b.len() == n, || format!("{} joined rows, expected {n}", b.len())),
    );
    // Probe cost: the whole join less the build alone and the probe
    // side's source, per probe row.
    let probe = (median_ns("engine.join")
        - median_ns("engine.join_build")
        - median_ns("engine.join.source"))
        / n as f64;
    l.put("engine.join_probe_ns_per_row", probe, "ns");

    let v = engine_probe(
        l,
        "engine.sort",
        "engine.sort.source",
        &[&x.extprice, &x.orderkey],
        r,
        &|s| Box::new(OrderBy::new(s, vec![SortKey::desc(0), SortKey::asc(1)])),
        &|b| {
            let e = b.col(0).as_i64();
            expect(b.len() == n && e.windows(2).all(|w| w[0] >= w[1]), || "not sorted".into())
        },
    );
    l.put("engine.sort_ns_per_row", v, "ns");

    // Exchange: two producer threads hand pre-cut partitions over; the
    // merge restores partition order.
    let batches: Vec<Batch> = (0..n)
        .step_by(scc_engine::VECTOR_SIZE)
        .map(|s| {
            let idx: Vec<usize> = (s..(s + scc_engine::VECTOR_SIZE).min(n)).collect();
            Batch::new(vec![x.orderkey.gather(&idx), x.extprice.gather(&idx)])
        })
        .collect();
    let parts: Vec<Vec<Batch>> = batches.chunks(16).map(|c| c.to_vec()).collect();
    for _ in 0..r {
        let mut shares: [Vec<(u64, Vec<Batch>)>; 2] = Default::default();
        for (seq, p) in parts.iter().enumerate() {
            shares[seq % 2].push((seq as u64, p.clone()));
        }
        let out = trace::timed("engine.exchange", || {
            let (tx, rx) = std::sync::mpsc::sync_channel(4);
            let workers = shares
                .into_iter()
                .map(|share| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for (seq, b) in share {
                            if tx.send((seq, Ok(b))).is_err() {
                                return;
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            // The merged batches are kept (moved, not copied) for the
            // order check below.
            let mut ex = Exchange::new(parts.len() as u64, rx, workers);
            std::iter::from_fn(|| ex.next()).collect::<Vec<Batch>>()
        });
        let keys: Vec<i64> = out.iter().flat_map(|b| b.col(0).as_i64().iter().copied()).collect();
        l.check(
            "engine.exchange",
            expect(keys == li.orderkey, || "merged stream out of order".into()),
        );
    }
    l.put("engine.exchange_ns_per_row", median_ns("engine.exchange") / n as f64, "ns");
}

/// Per-query medians of the 15 plans, each answer checked.
fn tpch_plans(l: &mut Ledger, db: &TpchDb, reps: &dyn Fn(usize) -> usize) {
    const SPANS: [&str; 15] = [
        "tpch.q01", "tpch.q03", "tpch.q04", "tpch.q05", "tpch.q06", "tpch.q07", "tpch.q10",
        "tpch.q11", "tpch.q12", "tpch.q14", "tpch.q15", "tpch.q17", "tpch.q18", "tpch.q19",
        "tpch.q21",
    ];
    let cfg = QueryConfig::default();
    for (i, &q) in QUERIES.iter().enumerate() {
        let exp = expected(&db.raw, q);
        let _ = scc_tpch::queries::run_query(db, &cfg, q);
        for _ in 0..reps(if q == 21 { 3 } else { 5 }) {
            let run = trace::timed(SPANS[i], || scc_tpch::queries::run_query(db, &cfg, q));
            l.check(SPANS[i], check_query(db, q, &exp, &run.batch));
        }
        l.put(&format!("{}_ms", SPANS[i]), median_ns(SPANS[i]) / 1e6, "ms");
    }
}

/// Protocol, server, client and coordinator, over the served columns.
fn serving_layers(l: &mut Ledger, db: &TpchDb, seed: u64, reps: &dyn Fn(usize) -> usize) {
    let li = net::Lineitem::from_raw(&db.raw.lineitem);
    let table = net::build_table(li.served());
    let rows = li.rows();
    let mut rng = Rng::new(seed ^ 0x1ED6);
    let mut catalog = Catalog::new();
    catalog.add(Arc::clone(&table));
    let server = net::start_server(catalog);
    let addr = server.local_addr().to_string();

    for _ in 0..reps(20) {
        let hello = trace::timed("server.connect", || {
            Client::connect(&addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.hello().map_err(|e| e.to_string()))
        });
        l.check("server.connect", hello.map(|_| ()));
    }
    let read = Arc::new(AtomicU64::new(0));
    let mut c =
        Client::from_transport(Box::new(net::Counting::connect(&addr, &read).expect("connect")));
    for _ in 0..reps(200) {
        let h = trace::timed("server.health", || c.health());
        l.check("server.health", h.map(|_| ()).map_err(|e| e.to_string()));
    }
    read.store(0, Ordering::Relaxed);
    let mut returned = 0u64;
    for raw_req in [true, false] {
        for _ in 0..reps(200) {
            let col = rng.below(4) as usize;
            let max = if raw_req { crate::serve::RAW_MAX } else { crate::serve::VALUES_MAX };
            let len = log_len(&mut rng, 8, max.min(rows));
            let start = rng.below((rows - len + 1) as u64) as usize;
            let req = Request::SegmentRange {
                table: "lineitem".into(),
                column: net::COLS[col].into(),
                row_start: start as u64,
                row_len: len as u32,
                raw: raw_req,
            };
            let name = if raw_req { "server.range_raw" } else { "server.range_values" };
            let got = match trace::timed(name, || c.call(&req)) {
                Ok(Response::RawSegments { vtype, row_start, row_len, segments }) => {
                    trace::timed("server.client_decode", || {
                        decode_raw(vtype, row_start, row_len, &segments)
                    })
                }
                Ok(Response::Values(v)) => net::widen(&v).map(|w| w.0),
                Ok(other) => Err(format!("unexpected response {other:?}")),
                Err(e) => Err(e.to_string()),
            };
            let want = &li.cols[col][start..start + len];
            returned += len as u64 * net::width(col);
            l.check(name, got.and_then(|g| expect(g == want, || format!("{len} rows at {start}"))));
        }
    }
    let mut scan_oracle = std::collections::HashMap::new();
    for _ in 0..reps(20) {
        let k = 1 + rng.below(50) as i64;
        let pred = Predicate { column: net::COLS[1].into(), op: PredOp::Eq, literal: k };
        let got =
            trace::timed("server.scan", || c.scan("lineitem", &net::COLS[..3], Some(pred), 1));
        let want = scan_oracle.entry(k).or_insert_with(|| filtered(&li, k));
        let bytes = got.map_err(|e| e.to_string()).and_then(|(b, _)| check_scan(&b, want));
        returned += bytes.as_ref().copied().unwrap_or(0);
        l.check("server.scan", bytes.map(|_| ()));
    }
    let wire = read.load(Ordering::Relaxed) as f64 / returned as f64;
    drop(c);
    drop(server);
    l.put("server.connect_us", median_ns("server.connect") / 1e3, "us");
    l.put("server.health_rtt_us", median_ns("server.health") / 1e3, "us");
    l.put("server.range_raw_rtt_us", median_ns("server.range_raw") / 1e3, "us");
    l.put("server.client_decode_us", median_ns("server.client_decode") / 1e3, "us");
    l.put("server.range_values_rtt_us", median_ns("server.range_values") / 1e3, "us");
    l.put("server.scan_rtt_ms", median_ns("server.scan") / 1e6, "ms");
    l.put("server.wire_bytes_per_user_byte", wire, "ratio");

    // Cluster: the coordinator's scatter-gather against the slowest
    // direct scan of the same partitions.
    let cluster = crate::cluster::start(&table);
    let m = &cluster.manifest;
    let mut slowest = Vec::new();
    let mut scan_ns = Vec::new();
    for _ in 0..reps(15) {
        let k = 1 + rng.below(50) as i64;
        let pred = Predicate { column: net::COLS[1].into(), op: PredOp::Eq, literal: k };
        let want = scan_oracle.entry(k).or_insert_with(|| filtered(&li, k)).clone();
        let t = std::time::Instant::now();
        let got = trace::timed("cluster.scan", || {
            cluster.coord.scan("lineitem", &net::COLS[..3], Some(&pred))
        });
        scan_ns.push(t.elapsed().as_nanos() as f64);
        l.check(
            "cluster.scan",
            got.map_err(|e| e.to_string()).and_then(|(b, _)| check_scan(&b, &want).map(|_| ())),
        );
        let mut worst = 0f64;
        let mut rows_back = 0usize;
        for p in 0..m.partitions() {
            let addr = cluster.servers[m.primary[p]].local_addr().to_string();
            let t = std::time::Instant::now();
            let got = trace::timed("cluster.shard_scan", || {
                Client::connect(&addr).map_err(|e| e.to_string()).and_then(|mut c| {
                    c.scan(&m.partition_name(p), &net::COLS[..3], Some(pred.clone()), 0)
                        .map_err(|e| e.to_string())
                })
            });
            worst = worst.max(t.elapsed().as_nanos() as f64);
            match got {
                Ok((b, _)) => rows_back += b.len(),
                Err(e) => l.check("cluster.shard_scan", Err(e)),
            }
        }
        l.check(
            "cluster.shard_scan",
            expect(rows_back == want[0].len(), || format!("{rows_back} rows")),
        );
        slowest.push(worst);
    }
    for _ in 0..reps(100) {
        let (lo, hi) = m.bounds[rng.below(m.partitions() as u64) as usize];
        if hi == lo {
            continue;
        }
        let len = log_len(&mut rng, 8, (64 << 10).min(hi - lo));
        let start = lo + rng.below((hi - lo - len + 1) as u64) as usize;
        let col = rng.below(4) as usize;
        let got = trace::timed("cluster.range", || {
            cluster.coord.segment_range("lineitem", net::COLS[col], start as u64, len as u32, false)
        });
        let want = &li.cols[col][start..start + len];
        l.check(
            "cluster.range",
            got.map_err(|e| e.to_string())
                .and_then(|v| net::widen(&v))
                .and_then(|(g, _)| expect(g == want, || format!("{len} rows at {start}"))),
        );
    }
    drop(cluster);
    let (scan_ms, shard_ms) = (median(&scan_ns) / 1e6, median(&slowest) / 1e6);
    l.put("cluster.scan_ms", scan_ms, "ms");
    l.put("cluster.shard_scan_ms", shard_ms, "ms");
    l.put("cluster.merge_overhead_ms", scan_ms - shard_ms, "ms");
    l.put("cluster.range_us", median_ns("cluster.range") / 1e3, "us");
}
