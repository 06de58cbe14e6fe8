//! perfbench: the repository's benchmark.
//!
//! ```text
//! perfbench --workload tpch|scan|serve|cluster --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each invocation runs one workload in its own process (the kernel tier
//! and the encode layout are process-global). Untraced runs print the
//! end-to-end metrics; traced runs record spans around every call into a
//! layer, run the per-layer ledger, write the spans to
//! `perfbench/out/trace-<workload>-<seed>.json` and print the per-layer
//! metrics. The last line of standard output is the result object.

mod cluster;
mod common;
mod ledger;
mod net;
mod refs;
mod scan;
mod serve;
mod tpch;
mod trace;
mod util;

use common::{Outcome, Size};
use std::time::Instant;
use util::{result_line, secs};

const WORKLOADS: [&str; 4] = ["tpch", "scan", "serve", "cluster"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let size = Size { seconds: args.seconds, smoke: args.smoke };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!(
        "env: nproc={} kernel_tier={} commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        scc_bitpack::kernel::active().name(),
        util::git_commit()
    );

    let t0 = Instant::now();
    let outcome: Outcome = match args.workload.as_str() {
        "tpch" => tpch::run(args.seed, size),
        "scan" => scan::run(args.seed, size),
        "serve" => serve::run(args.seed, size),
        "cluster" => cluster::run(args.seed, size),
        _ => unreachable!("validated workload"),
    };
    let workload_s = secs(t0);
    for line in &outcome.notes {
        println!("input: {line}");
    }
    for line in outcome.summary() {
        println!("{line}");
    }
    if let Some(w) = outcome.wire_ratio {
        println!("  wire_bytes_per_user_byte = {}", util::num(w));
    }
    let e2e = outcome.metrics();
    let (mut attempted, mut failed) = (outcome.attempted, outcome.failed);
    let metrics = if args.trace {
        // The workload's own figures under tracing, for the overhead
        // comparison with an untraced run; never reported as end-to-end.
        for m in &e2e {
            println!("traced {} = {} {}", m.name, util::num(m.value), m.unit);
        }
        let ledger = ledger::run(args.seed, size);
        attempted += ledger.attempted;
        failed += ledger.failed;
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.json",
            args.workload, args.seed
        ));
        match trace::write_chrome(&path) {
            Ok(()) => println!("trace: {} spans written to {}", trace::count(), path.display()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
        ledger.metrics
    } else {
        e2e
    };
    println!("wall time: workload {workload_s:.2} s, timed phase {:.2} s", outcome.timed_wall_s);
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload and the ledger run end to end at smoke size with no
    /// failed operation. Run with `cargo test --release`.
    #[test]
    fn smoke_runs_every_workload_and_the_ledger() {
        let size = Size { seconds: 1, smoke: true };
        for (name, out) in [
            ("tpch", tpch::run(3, size)),
            ("scan", scan::run(3, size)),
            ("serve", serve::run(3, size)),
            ("cluster", cluster::run(3, size)),
        ] {
            assert!(out.attempted > 0, "{name} attempted nothing");
            assert_eq!(out.failed, 0, "{name} failed operations");
            assert_eq!(out.metrics().len(), 6, "{name} end-to-end metrics");
        }
        trace::enable();
        let l = ledger::run(3, size);
        assert!(l.attempted > 0);
        assert_eq!(l.failed, 0, "ledger failed checks");
        assert_eq!(l.metrics.len(), 45, "per-layer metrics");
    }
}
