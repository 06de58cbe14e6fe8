//! Reference answers for the 15 TPC-H queries, computed in straight Rust
//! over the plain generated columns (`TpchDb::raw`), never through the
//! storage or engine crates; and the comparison of a plan's output
//! batch against them.

use crate::util::close;
use scc_engine::{Batch, Vector};
use scc_tpch::{date, RawTables, TpchDb};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The implemented queries, in TPC-H order.
pub const QUERIES: [u32; 15] = [1, 3, 4, 5, 6, 7, 10, 11, 12, 14, 15, 17, 18, 19, 21];

/// One output cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    I(i64),
    F(f64),
    S(String),
}

fn cells_match(a: &Cell, b: &Cell) -> bool {
    match (a, b) {
        (Cell::F(x), Cell::F(y)) => close(*x, *y),
        _ => a == b,
    }
}

fn rows_match(a: &[Cell], b: &[Cell]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cells_match(x, y))
}

/// How a plan's rows must relate to the reference rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Same rows in the same order (floats within tolerance).
    Exact,
    /// Ordered by float column `col` descending, cut at `limit`. Rows
    /// whose sort values tie within tolerance may come in either order,
    /// so each output row is matched by its `key` column against the
    /// full reference set, and the sort column rank by rank.
    TopByFloat { col: usize, key: usize, limit: Option<usize> },
    /// The rows whose float column `col` equals the maximum (TPC-H Q15),
    /// ordered by `key`.
    AtMax { col: usize, key: usize },
}

/// A reference answer: every candidate row in the plan's order, plus the
/// rule to compare with.
#[derive(Debug, Clone)]
pub struct Expected {
    pub rows: Vec<Vec<Cell>>,
    pub check: Check,
}

/// Converts a plan's output batch to rows; dictionary-code columns are
/// resolved to strings through `dicts`.
pub fn batch_rows(batch: &Batch, dicts: &[Option<&[String]>]) -> Result<Vec<Vec<Cell>>, String> {
    let mut rows = vec![Vec::with_capacity(batch.columns.len()); batch.len()];
    for (j, col) in batch.columns.iter().enumerate() {
        for (i, row) in rows.iter_mut().enumerate() {
            let cell = match col {
                Vector::I64(v) => Cell::I(v[i]),
                Vector::I32(v) => Cell::I(v[i] as i64),
                Vector::F64(v) => Cell::F(v[i]),
                Vector::U32(v) => match dicts.get(j).copied().flatten() {
                    Some(dict) => Cell::S(
                        dict.get(v[i] as usize)
                            .ok_or_else(|| format!("code {} beyond dictionary", v[i]))?
                            .clone(),
                    ),
                    None => Cell::I(v[i] as i64),
                },
                other => {
                    return Err(format!("unexpected output column type {:?}", other.col_type()))
                }
            };
            row.push(cell);
        }
    }
    Ok(rows)
}

/// Compares output rows with a reference; `Err` describes the first
/// difference.
pub fn compare(exp: &Expected, out: &[Vec<Cell>]) -> Result<(), String> {
    if let (Some(o), Some(e)) = (out.first(), exp.rows.first()) {
        if o.len() != e.len() {
            return Err(format!("{} columns, expected {}", o.len(), e.len()));
        }
    }
    match exp.check {
        Check::Exact => {
            if out.len() != exp.rows.len() {
                return Err(format!("{} rows, expected {}", out.len(), exp.rows.len()));
            }
            for (i, (o, e)) in out.iter().zip(&exp.rows).enumerate() {
                if !rows_match(o, e) {
                    return Err(format!("row {i}: {o:?}, expected {e:?}"));
                }
            }
            Ok(())
        }
        Check::TopByFloat { col, key, limit } => {
            let want = limit.map_or(exp.rows.len(), |l| l.min(exp.rows.len()));
            if out.len() != want {
                return Err(format!("{} rows, expected {want}", out.len()));
            }
            let mut seen = HashSet::new();
            for (i, o) in out.iter().enumerate() {
                if !cells_match(&o[col], &exp.rows[i][col]) {
                    return Err(format!("rank {i}: {:?}, expected {:?}", o[col], exp.rows[i][col]));
                }
                let k = format!("{:?}", o[key]);
                if !seen.insert(k.clone()) {
                    return Err(format!("key {k} twice"));
                }
                match exp.rows.iter().find(|e| e[key] == o[key]) {
                    Some(e) if rows_match(o, e) => {}
                    Some(e) => return Err(format!("row {i}: {o:?}, expected {e:?}")),
                    None => return Err(format!("row {i}: key {k} not in the reference")),
                }
            }
            Ok(())
        }
        Check::AtMax { col, key } => {
            let fval = |r: &[Cell]| match r[col] {
                Cell::F(v) => v,
                _ => f64::NAN,
            };
            let max = exp.rows.iter().map(|r| fval(r)).fold(f64::NEG_INFINITY, f64::max);
            let at_max: Vec<&Vec<Cell>> = exp.rows.iter().filter(|r| close(fval(r), max)).collect();
            if out.is_empty() || out.len() > at_max.len() {
                return Err(format!("{} rows, expected 1..={}", out.len(), at_max.len()));
            }
            for (i, o) in out.iter().enumerate() {
                if !at_max.iter().any(|e| rows_match(o, e)) {
                    return Err(format!("row {i}: {o:?} is not at the maximum {max}"));
                }
                if i > 0 && int(&out[i - 1][key]) >= int(&o[key]) {
                    return Err(format!("rows {} and {i} out of key order", i - 1));
                }
            }
            Ok(())
        }
    }
}

/// The dictionaries of a query's dictionary-code output columns.
pub fn output_dicts(db: &TpchDb, q: u32) -> Vec<Option<&[String]>> {
    fn d<'a>(t: &'a scc_storage::Table, c: &str) -> Option<&'a [String]> {
        Some(t.str_col(c).dict.as_slice())
    }
    match q {
        1 => vec![d(&db.lineitem, "l_returnflag"), d(&db.lineitem, "l_linestatus")],
        4 => vec![d(&db.orders, "o_orderpriority")],
        5 => vec![d(&db.nation, "n_name")],
        12 => vec![d(&db.lineitem, "l_shipmode")],
        _ => vec![],
    }
}

/// Checks one query run's output batch against its reference.
pub fn check_query(db: &TpchDb, q: u32, exp: &Expected, out: &Batch) -> Result<(), String> {
    let rows = batch_rows(out, &output_dicts(db, q))?;
    compare(exp, &rows)
}

fn nation_key(raw: &RawTables, name: &str) -> i64 {
    let i = raw.nation.name.iter().position(|n| n == name).expect("nation");
    raw.nation.nationkey[i]
}

fn revenue(ext: i64, disc: i64) -> f64 {
    ext as f64 * (100 - disc) as f64 / 100.0
}

fn single(v: f64) -> Expected {
    Expected { rows: vec![vec![Cell::F(v)]], check: Check::Exact }
}

/// Sorts `(key..., float)` candidate rows for a [`Check::TopByFloat`]:
/// descending by the float column, ties by the remaining order.
fn sort_desc_by(
    rows: &mut [Vec<Cell>],
    col: usize,
    then: impl Fn(&[Cell], &[Cell]) -> std::cmp::Ordering,
) {
    rows.sort_by(|a, b| {
        let (Cell::F(x), Cell::F(y)) = (&a[col], &b[col]) else { unreachable!() };
        y.total_cmp(x).then_with(|| then(a, b))
    });
}

fn int(c: &Cell) -> i64 {
    match c {
        Cell::I(v) => *v,
        _ => i64::MIN,
    }
}

/// The reference answer of query `q`.
pub fn expected(raw: &RawTables, q: u32) -> Expected {
    let l = &raw.lineitem;
    let o = &raw.orders;
    let n_li = l.orderkey.len();
    match q {
        1 => {
            let cutoff = date(1998, 12, 1) - 90;
            // sum_qty, sum_base, sum_disc, sum_charge, sum_discount, count
            type Sums = (i64, i64, f64, f64, i64, i64);
            let mut g: BTreeMap<(&str, &str), Sums> = BTreeMap::new();
            for i in 0..n_li {
                if l.shipdate[i] > cutoff {
                    continue;
                }
                let e = g.entry((&l.returnflag[i], &l.linestatus[i])).or_default();
                let disc = revenue(l.extendedprice[i], l.discount[i]);
                e.0 += l.quantity[i];
                e.1 += l.extendedprice[i];
                e.2 += disc;
                e.3 += disc * (100 + l.tax[i]) as f64 / 100.0;
                e.4 += l.discount[i];
                e.5 += 1;
            }
            let rows = g
                .into_iter()
                .map(|((rf, ls), e)| {
                    let n = e.5 as f64;
                    vec![
                        Cell::S(rf.into()),
                        Cell::S(ls.into()),
                        Cell::I(e.0),
                        Cell::I(e.1),
                        Cell::F(e.2),
                        Cell::F(e.3),
                        Cell::F(e.0 as f64 / n),
                        Cell::F(e.1 as f64 / n),
                        Cell::F(e.4 as f64 / n),
                        Cell::I(e.5),
                    ]
                })
                .collect();
            Expected { rows, check: Check::Exact }
        }
        3 => {
            let cut = date(1995, 3, 15);
            let building: HashSet<i64> = (0..raw.customer.custkey.len())
                .filter(|&i| raw.customer.mktsegment[i] == "BUILDING")
                .map(|i| raw.customer.custkey[i])
                .collect();
            let mut info: HashMap<i64, (i32, i32)> = HashMap::new();
            for i in 0..o.orderkey.len() {
                if o.orderdate[i] < cut && building.contains(&o.custkey[i]) {
                    info.insert(o.orderkey[i], (o.orderdate[i], o.shippriority[i]));
                }
            }
            let mut rev: HashMap<i64, f64> = HashMap::new();
            for i in 0..n_li {
                if l.shipdate[i] > cut && info.contains_key(&l.orderkey[i]) {
                    *rev.entry(l.orderkey[i]).or_default() +=
                        revenue(l.extendedprice[i], l.discount[i]);
                }
            }
            let mut rows: Vec<Vec<Cell>> = rev
                .into_iter()
                .map(|(k, r)| {
                    let (d, p) = info[&k];
                    vec![Cell::I(k), Cell::F(r), Cell::I(d as i64), Cell::I(p as i64)]
                })
                .collect();
            sort_desc_by(&mut rows, 1, |a, b| {
                int(&a[2]).cmp(&int(&b[2])).then(int(&a[0]).cmp(&int(&b[0])))
            });
            Expected { rows, check: Check::TopByFloat { col: 1, key: 0, limit: Some(10) } }
        }
        4 => {
            let late: HashSet<i64> = (0..n_li)
                .filter(|&i| l.commitdate[i] < l.receiptdate[i])
                .map(|i| l.orderkey[i])
                .collect();
            let (lo, hi) = (date(1993, 7, 1), date(1993, 10, 1));
            let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
            for i in 0..o.orderkey.len() {
                if o.orderdate[i] >= lo && o.orderdate[i] < hi && late.contains(&o.orderkey[i]) {
                    *counts.entry(&o.orderpriority[i]).or_default() += 1;
                }
            }
            let rows =
                counts.into_iter().map(|(p, c)| vec![Cell::S(p.into()), Cell::I(c)]).collect();
            Expected { rows, check: Check::Exact }
        }
        5 => {
            let asia = raw.region.name.iter().position(|n| n == "ASIA").expect("ASIA");
            let asia = raw.region.regionkey[asia];
            let names: HashMap<i64, &str> = (0..raw.nation.nationkey.len())
                .filter(|&i| raw.nation.regionkey[i] == asia)
                .map(|i| (raw.nation.nationkey[i], raw.nation.name[i].as_str()))
                .collect();
            let supp_nation: HashMap<i64, i64> = raw
                .supplier
                .suppkey
                .iter()
                .copied()
                .zip(raw.supplier.nationkey.iter().copied())
                .collect();
            let cust_nation: HashMap<i64, i64> = raw
                .customer
                .custkey
                .iter()
                .copied()
                .zip(raw.customer.nationkey.iter().copied())
                .collect();
            let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
            let order_cust: HashMap<i64, i64> = (0..o.orderkey.len())
                .filter(|&i| o.orderdate[i] >= lo && o.orderdate[i] < hi)
                .map(|i| (o.orderkey[i], o.custkey[i]))
                .collect();
            let mut rev: HashMap<&str, f64> = HashMap::new();
            for i in 0..n_li {
                let Some(ck) = order_cust.get(&l.orderkey[i]) else { continue };
                let sn = supp_nation[&l.suppkey[i]];
                if cust_nation[ck] != sn {
                    continue;
                }
                let Some(name) = names.get(&sn) else { continue };
                *rev.entry(name).or_default() += revenue(l.extendedprice[i], l.discount[i]);
            }
            let mut rows: Vec<Vec<Cell>> =
                rev.into_iter().map(|(n, r)| vec![Cell::S(n.into()), Cell::F(r)]).collect();
            sort_desc_by(&mut rows, 1, |_, _| std::cmp::Ordering::Equal);
            Expected { rows, check: Check::TopByFloat { col: 1, key: 0, limit: None } }
        }
        6 => {
            let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
            let mut sum = 0.0;
            for i in 0..n_li {
                if l.shipdate[i] >= lo
                    && l.shipdate[i] < hi
                    && (5..=7).contains(&l.discount[i])
                    && l.quantity[i] < 24
                {
                    sum += l.extendedprice[i] as f64 * l.discount[i] as f64 / 100.0;
                }
            }
            single(sum)
        }
        7 => {
            let fr = nation_key(raw, "FRANCE");
            let de = nation_key(raw, "GERMANY");
            let supp_nation: HashMap<i64, i64> = raw
                .supplier
                .suppkey
                .iter()
                .copied()
                .zip(raw.supplier.nationkey.iter().copied())
                .collect();
            let cust_nation: HashMap<i64, i64> = raw
                .customer
                .custkey
                .iter()
                .copied()
                .zip(raw.customer.nationkey.iter().copied())
                .collect();
            let order_cust: HashMap<i64, i64> =
                o.orderkey.iter().copied().zip(o.custkey.iter().copied()).collect();
            let (lo, hi) = (date(1995, 1, 1), date(1996, 12, 31));
            let mut g: BTreeMap<(i64, i64, i64), f64> = BTreeMap::new();
            for i in 0..n_li {
                let ship = l.shipdate[i];
                if ship < lo || ship > hi {
                    continue;
                }
                let sn = supp_nation[&l.suppkey[i]];
                let cn = cust_nation[&order_cust[&l.orderkey[i]]];
                if !((sn == fr && cn == de) || (sn == de && cn == fr)) {
                    continue;
                }
                let year = i64::from(ship >= date(1996, 1, 1));
                *g.entry((sn, cn, year)).or_default() += revenue(l.extendedprice[i], l.discount[i]);
            }
            let rows = g
                .into_iter()
                .map(|((s, c, y), v)| vec![Cell::I(s), Cell::I(c), Cell::I(y), Cell::F(v)])
                .collect();
            Expected { rows, check: Check::Exact }
        }
        10 => {
            let (lo, hi) = (date(1993, 10, 1), date(1994, 1, 1));
            let order_cust: HashMap<i64, i64> = (0..o.orderkey.len())
                .filter(|&i| o.orderdate[i] >= lo && o.orderdate[i] < hi)
                .map(|i| (o.orderkey[i], o.custkey[i]))
                .collect();
            let mut rev: HashMap<i64, f64> = HashMap::new();
            for i in 0..n_li {
                if l.returnflag[i] != "R" {
                    continue;
                }
                let Some(&ck) = order_cust.get(&l.orderkey[i]) else { continue };
                *rev.entry(ck).or_default() += revenue(l.extendedprice[i], l.discount[i]);
            }
            let cust: HashMap<i64, usize> =
                raw.customer.custkey.iter().enumerate().map(|(i, &k)| (k, i)).collect();
            let mut rows: Vec<Vec<Cell>> = rev
                .into_iter()
                .map(|(k, r)| {
                    let c = cust[&k];
                    vec![
                        Cell::I(k),
                        Cell::F(r),
                        Cell::I(raw.customer.acctbal[c]),
                        Cell::I(raw.customer.nationkey[c]),
                    ]
                })
                .collect();
            sort_desc_by(&mut rows, 1, |a, b| int(&a[0]).cmp(&int(&b[0])));
            Expected { rows, check: Check::TopByFloat { col: 1, key: 0, limit: Some(20) } }
        }
        11 => {
            let germany = nation_key(raw, "GERMANY");
            let german: HashSet<i64> = (0..raw.supplier.suppkey.len())
                .filter(|&i| raw.supplier.nationkey[i] == germany)
                .map(|i| raw.supplier.suppkey[i])
                .collect();
            let ps = &raw.partsupp;
            let mut per_part: HashMap<i64, f64> = HashMap::new();
            let mut total = 0.0;
            for i in 0..ps.partkey.len() {
                if german.contains(&ps.suppkey[i]) {
                    let v = ps.supplycost[i] as f64 * ps.availqty[i] as f64;
                    *per_part.entry(ps.partkey[i]).or_default() += v;
                    total += v;
                }
            }
            let threshold = total * (0.0001 / raw.sf);
            let mut rows: Vec<Vec<Cell>> = per_part
                .into_iter()
                .filter(|&(_, v)| v > threshold)
                .map(|(k, v)| vec![Cell::I(k), Cell::F(v)])
                .collect();
            sort_desc_by(&mut rows, 1, |a, b| int(&a[0]).cmp(&int(&b[0])));
            Expected { rows, check: Check::TopByFloat { col: 1, key: 0, limit: None } }
        }
        12 => {
            let prio: HashMap<i64, &str> = o
                .orderkey
                .iter()
                .copied()
                .zip(o.orderpriority.iter().map(String::as_str))
                .collect();
            let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
            let mut g: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
            for i in 0..n_li {
                let mode = l.shipmode[i].as_str();
                if mode != "MAIL" && mode != "SHIP" {
                    continue;
                }
                if !(l.shipdate[i] < l.commitdate[i]
                    && l.commitdate[i] < l.receiptdate[i]
                    && l.receiptdate[i] >= lo
                    && l.receiptdate[i] < hi)
                {
                    continue;
                }
                let p = prio[&l.orderkey[i]];
                let e = g.entry(mode).or_default();
                if p == "1-URGENT" || p == "2-HIGH" {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
            let rows = g
                .into_iter()
                .map(|(m, (h, lo))| vec![Cell::S(m.into()), Cell::I(h), Cell::I(lo)])
                .collect();
            Expected { rows, check: Check::Exact }
        }
        14 => {
            let promo_part: HashMap<i64, bool> = raw
                .part
                .partkey
                .iter()
                .copied()
                .zip(raw.part.ptype.iter().map(|t| t.starts_with("PROMO")))
                .collect();
            let (lo, hi) = (date(1995, 9, 1), date(1995, 10, 1));
            let (mut promo, mut total) = (0.0, 0.0);
            for i in 0..n_li {
                if l.shipdate[i] < lo || l.shipdate[i] >= hi {
                    continue;
                }
                let r = revenue(l.extendedprice[i], l.discount[i]);
                total += r;
                if promo_part[&l.partkey[i]] {
                    promo += r;
                }
            }
            single(100.0 * promo / total)
        }
        15 => {
            let (lo, hi) = (date(1996, 1, 1), date(1996, 4, 1));
            let mut per_supp: BTreeMap<i64, f64> = BTreeMap::new();
            for i in 0..n_li {
                if l.shipdate[i] >= lo && l.shipdate[i] < hi {
                    *per_supp.entry(l.suppkey[i]).or_default() +=
                        revenue(l.extendedprice[i], l.discount[i]);
                }
            }
            let rows = per_supp.into_iter().map(|(k, v)| vec![Cell::I(k), Cell::F(v)]).collect();
            Expected { rows, check: Check::AtMax { col: 1, key: 0 } }
        }
        17 => {
            let p = &raw.part;
            let qualifying: HashSet<i64> = (0..p.partkey.len())
                .filter(|&i| p.brand[i] == "Brand#23" && p.container[i].starts_with("MED"))
                .map(|i| p.partkey[i])
                .collect();
            let mut qty: HashMap<i64, (i64, i64)> = HashMap::new();
            for i in 0..n_li {
                if qualifying.contains(&l.partkey[i]) {
                    let e = qty.entry(l.partkey[i]).or_default();
                    e.0 += l.quantity[i];
                    e.1 += 1;
                }
            }
            let mut sum = 0.0;
            for i in 0..n_li {
                let Some(&(q, c)) = qty.get(&l.partkey[i]) else { continue };
                if (l.quantity[i] as f64) < 0.2 * (q as f64 / c as f64) {
                    sum += l.extendedprice[i] as f64;
                }
            }
            single(sum / 7.0)
        }
        18 => {
            let mut qty: HashMap<i64, i64> = HashMap::new();
            for i in 0..n_li {
                *qty.entry(l.orderkey[i]).or_default() += l.quantity[i];
            }
            let thresh = scc_tpch::queries::q18::threshold(raw.sf);
            let mut rows: Vec<(i64, i64, i32, i64, i64)> = Vec::new();
            for i in 0..o.orderkey.len() {
                let k = o.orderkey[i];
                let q = qty.get(&k).copied().unwrap_or(0);
                if q > thresh {
                    rows.push((o.custkey[i], k, o.orderdate[i], o.totalprice[i], q));
                }
            }
            rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.2.cmp(&b.2)).then(a.1.cmp(&b.1)));
            rows.truncate(100);
            let rows = rows
                .into_iter()
                .map(|r| {
                    vec![
                        Cell::I(r.0),
                        Cell::I(r.1),
                        Cell::I(r.2 as i64),
                        Cell::I(r.3),
                        Cell::I(r.4),
                    ]
                })
                .collect();
            Expected { rows, check: Check::Exact }
        }
        19 => {
            let p = &raw.part;
            let part: HashMap<i64, usize> =
                p.partkey.iter().enumerate().map(|(i, &k)| (k, i)).collect();
            let mut sum = 0.0;
            for i in 0..n_li {
                let mode = l.shipmode[i].as_str();
                if (mode != "AIR" && mode != "REG AIR") || l.shipinstruct[i] != "DELIVER IN PERSON"
                {
                    continue;
                }
                let j = part[&l.partkey[i]];
                let (brand, container, size) =
                    (p.brand[j].as_str(), p.container[j].as_str(), p.size[j]);
                let q = l.quantity[i];
                let hit = (brand == "Brand#12"
                    && container.starts_with("SM")
                    && (1..=11).contains(&q)
                    && (1..=5).contains(&size))
                    || (brand == "Brand#23"
                        && container.starts_with("MED")
                        && (10..=20).contains(&q)
                        && (1..=10).contains(&size))
                    || (brand == "Brand#34"
                        && container.starts_with("LG")
                        && (20..=30).contains(&q)
                        && (1..=15).contains(&size));
                if hit {
                    sum += revenue(l.extendedprice[i], l.discount[i]);
                }
            }
            single(sum)
        }
        21 => {
            let saudi = nation_key(raw, "SAUDI ARABIA");
            let saudi_supp: HashSet<i64> = (0..raw.supplier.suppkey.len())
                .filter(|&i| raw.supplier.nationkey[i] == saudi)
                .map(|i| raw.supplier.suppkey[i])
                .collect();
            let f_orders: HashSet<i64> = (0..o.orderkey.len())
                .filter(|&i| o.orderstatus[i] == "F")
                .map(|i| o.orderkey[i])
                .collect();
            let mut supps: HashMap<i64, HashSet<i64>> = HashMap::new();
            let mut late: HashMap<i64, HashSet<i64>> = HashMap::new();
            for i in 0..n_li {
                let (ok, sk) = (l.orderkey[i], l.suppkey[i]);
                supps.entry(ok).or_default().insert(sk);
                if l.receiptdate[i] > l.commitdate[i] {
                    late.entry(ok).or_default().insert(sk);
                }
            }
            let mut numwait: HashMap<i64, i64> = HashMap::new();
            for (ok, late) in &late {
                if late.len() == 1 && supps[ok].len() >= 2 && f_orders.contains(ok) {
                    let sk = *late.iter().next().expect("one late supplier");
                    if saudi_supp.contains(&sk) {
                        *numwait.entry(sk).or_default() += 1;
                    }
                }
            }
            let mut rows: Vec<(i64, i64)> = numwait.into_iter().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            rows.truncate(100);
            let rows = rows.into_iter().map(|(k, c)| vec![Cell::I(k), Cell::I(c)]).collect();
            Expected { rows, check: Check::Exact }
        }
        _ => panic!("query {q} has no reference"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_tpch::QueryConfig;

    fn small() -> TpchDb {
        TpchDb::load(scc_tpch::generate(0.01, 7), Some(2048))
    }

    #[test]
    fn every_query_matches_its_reference() {
        let db = small();
        for q in QUERIES {
            let exp = expected(&db.raw, q);
            let out = scc_tpch::queries::run_query(&db, &QueryConfig::default(), q).batch;
            check_query(&db, q, &exp, &out).unwrap_or_else(|e| panic!("q{q}: {e}"));
        }
    }

    #[test]
    fn a_wrong_answer_is_a_mismatch() {
        let db = small();
        for q in [1u32, 3, 15, 18] {
            let exp = expected(&db.raw, q);
            let mut out = scc_tpch::queries::run_query(&db, &QueryConfig::default(), q).batch;
            // Corrupt one value of the last column.
            let last = out.columns.len() - 1;
            match &mut out.columns[last] {
                Vector::I64(v) => v[0] += 1,
                Vector::I32(v) => v[0] += 1,
                Vector::F64(v) => v[0] *= 1.001,
                other => panic!("q{q}: unexpected column {:?}", other.col_type()),
            }
            assert!(check_query(&db, q, &exp, &out).is_err(), "q{q}: corruption not caught");
            // A dropped row is caught too.
            let short = Batch::new(out.columns.iter().map(|c| c.gather(&[])).collect());
            assert!(check_query(&db, q, &exp, &short).is_err(), "q{q}: empty output accepted");
        }
    }

    #[test]
    fn ties_within_tolerance_may_swap() {
        let exp = Expected {
            rows: vec![
                vec![Cell::I(1), Cell::F(10.0)],
                vec![Cell::I(2), Cell::F(10.0 + 1e-9)],
                vec![Cell::I(3), Cell::F(5.0)],
            ],
            check: Check::TopByFloat { col: 1, key: 0, limit: Some(2) },
        };
        let swapped = vec![vec![Cell::I(2), Cell::F(10.0)], vec![Cell::I(1), Cell::F(10.0)]];
        assert!(compare(&exp, &swapped).is_ok());
        let wrong = vec![vec![Cell::I(1), Cell::F(10.0)], vec![Cell::I(3), Cell::F(5.0)]];
        assert!(compare(&exp, &wrong).is_err());
    }
}
