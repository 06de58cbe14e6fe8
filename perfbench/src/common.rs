//! What every workload hands back, and helpers shared between them.

use crate::util::{geomean_of_medians, median, peak_rss_mib, tail, Metric, Took};
use scc_core::{Layout, SchemeKind, Segment, Value};
use scc_storage::{Column, ColumnStore, NumColumn, Table};
use std::collections::BTreeMap;

/// How big a run is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `--seconds`: sizes the fixed operation count.
    pub seconds: u64,
    /// Small inputs and one round, for a quick end-to-end check.
    pub smoke: bool,
}

impl Size {
    /// Rounds of the operation mix: a pure function of `--seconds`, so a
    /// run always attempts the same whole rounds, never "as many as fit".
    pub fn rounds(self, per_10s: f64) -> usize {
        if self.smoke {
            1
        } else {
            ((per_10s * self.seconds as f64 / 10.0).round() as usize).max(1)
        }
    }

    /// Set-up repetitions (the median is reported).
    pub fn setup_reps(self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// A workload's measurements. Every time is taken on both clocks
/// ([`Took`]); the end-to-end metrics use CPU time, and wall time is
/// printed beside them.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Each set-up repetition.
    pub setup: Vec<Took>,
    /// Operation type names; `samples` index into them.
    pub types: Vec<String>,
    /// `(type, time)` of every timed operation.
    pub samples: Vec<(usize, Took)>,
    /// Compressed bytes per plain byte of the columns read.
    pub stored_ratio: f64,
    /// Socket bytes read per plain byte returned (`serve` only). Printed
    /// with the run's notes; the result line carries only the metrics
    /// every workload reports.
    pub wire_ratio: Option<f64>,
    /// Lines describing the inputs (encode layout, schemes, sizes).
    pub notes: Vec<String>,
    /// Wall seconds of the timed phase (checks included).
    pub timed_wall_s: f64,
}

impl Outcome {
    /// Records one checked operation.
    pub fn record(&mut self, ty: usize, took: Took, check: Result<(), String>) {
        self.attempted += 1;
        self.samples.push((ty, took));
        if let Err(e) = check {
            self.failed += 1;
            eprintln!("FAILED {}: {e}", self.types[ty]);
        }
    }

    fn series(&self, clock: fn(&Took) -> f64) -> Vec<(usize, f64)> {
        self.samples.iter().map(|(ty, took)| (*ty, clock(took))).collect()
    }

    /// The end-to-end metrics, all on the CPU clock.
    pub fn metrics(&self) -> Vec<Metric> {
        let typed = self.series(|t| t.cpu);
        let lat: Vec<f64> = typed.iter().map(|s| s.1).collect();
        let (_, tail_s) = tail(&lat);
        let setup: Vec<f64> = self.setup.iter().map(|t| t.cpu).collect();
        vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("ops_per_cpu_s", lat.len() as f64 / lat.iter().sum::<f64>(), "ops/s"),
            Metric::new("cpu_tail_ms", tail_s * 1e3, "ms"),
            Metric::new("cpu_geomean_ms", geomean_of_medians(&typed, self.types.len()) * 1e3, "ms"),
            Metric::new("stored_bytes_per_user_byte", self.stored_ratio, "ratio"),
            Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
        ]
    }

    /// Human-readable lines: per-type medians and the tail on both
    /// clocks, and the wall-clock figures the metrics leave out.
    pub fn summary(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (t, name) in self.types.iter().enumerate() {
            let of = |clock: fn(&Took) -> f64| -> Vec<f64> {
                self.samples.iter().filter(|s| s.0 == t).map(|s| clock(&s.1)).collect()
            };
            let (cpu, wall) = (of(|x| x.cpu), of(|x| x.wall));
            if !cpu.is_empty() {
                out.push(format!(
                    "  {name:<14} n={:<5} median cpu {:>10.4} ms  wall {:>10.4} ms",
                    cpu.len(),
                    median(&cpu) * 1e3,
                    median(&wall) * 1e3
                ));
            }
        }
        if !self.samples.is_empty() {
            let cpu: Vec<f64> = self.samples.iter().map(|s| s.1.cpu).collect();
            let wall: Vec<f64> = self.samples.iter().map(|s| s.1.wall).collect();
            let (p, c) = tail(&cpu);
            let (_, w) = tail(&wall);
            out.push(format!(
                "  all ops        n={:<5} p50: cpu {:.4} ms  wall {:.4} ms; tail p{p}: cpu {:.4} ms  wall {:.4} ms",
                cpu.len(),
                median(&cpu) * 1e3,
                median(&wall) * 1e3,
                c * 1e3,
                w * 1e3
            ));
            out.push(format!(
                "  wall clock: {:.5} ops per wall second, set-up median {:.4} s",
                wall.len() as f64 / wall.iter().sum::<f64>(),
                median(&self.setup.iter().map(|t| t.wall).collect::<Vec<_>>())
            ));
        }
        out
    }
}

/// Lower-case scheme name.
pub fn scheme_name(s: SchemeKind) -> &'static str {
    match s {
        SchemeKind::Pfor => "pfor",
        SchemeKind::PforDelta => "pfor-delta",
        SchemeKind::Pdict => "pdict",
    }
}

/// `(layout, scheme, bit width)` of every compressed segment of a store.
fn store_segments<V: Value>(store: &ColumnStore<V>, out: &mut Vec<(Layout, SchemeKind, u32)>) {
    for s in 0..store.n_segments() {
        if let Some(bytes) = store.segment_wire_bytes(s) {
            if let Ok(seg) = Segment::<V>::from_bytes(&bytes) {
                out.push((seg.layout(), seg.scheme(), seg.bit_width()));
            }
        }
    }
}

/// `(layout, scheme, bit width)` of every compressed segment of a column.
pub fn column_segments(col: &Column) -> Vec<(Layout, SchemeKind, u32)> {
    let mut out = Vec::new();
    match col {
        Column::Num(NumColumn::I32(c)) => store_segments(c, &mut out),
        Column::Num(NumColumn::I64(c)) => store_segments(c, &mut out),
        Column::Num(NumColumn::U32(c)) => store_segments(c, &mut out),
        Column::Str(s) => store_segments(&s.codes, &mut out),
        Column::Blob(_) => {}
    }
    out
}

/// One line naming the encode layouts a table's segments were written in.
pub fn layout_line(table: &Table) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, col) in table.columns() {
        for (layout, _, _) in column_segments(col) {
            *counts.entry(layout.name()).or_default() += 1;
        }
    }
    let parts: Vec<String> = counts.iter().map(|(l, n)| format!("{l}={n}")).collect();
    format!("encode layout {}: {} segments", table.name, parts.join(" "))
}

/// Compressed bytes per plain byte over the named columns.
pub fn stored_ratio(table: &Table, cols: &[&str]) -> f64 {
    let comp: u64 = cols.iter().map(|c| table.col(c).compressed_bytes()).sum();
    let plain: u64 = cols.iter().map(|c| table.col(c).plain_bytes()).sum();
    comp as f64 / plain as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_counts_as_a_failed_operation() {
        let mut out = Outcome { types: vec!["q".into()], ..Outcome::default() };
        let took = |s| Took { cpu: s, wall: s };
        out.record(0, took(0.001), Ok(()));
        out.record(0, took(0.002), Err("row 0 differs".into()));
        out.record(0, took(0.003), Ok(()));
        assert_eq!((out.attempted, out.failed), (3, 1));
        // The failed operation is still timed: it completed.
        assert_eq!(out.samples.len(), 3);
    }

    #[test]
    fn rounds_are_a_pure_function_of_seconds() {
        let s = |seconds| Size { seconds, smoke: false };
        assert_eq!(s(10).rounds(100.0), 100);
        assert_eq!(s(5).rounds(100.0), 50);
        assert_eq!(s(1).rounds(1.0), 1);
        assert_eq!(Size { seconds: 60, smoke: true }.rounds(100.0), 1);
    }
}
