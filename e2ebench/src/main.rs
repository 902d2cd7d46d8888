//! Command-line entry point of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <paper-study|loopback-crawl|resume-economy> --seed <n>
//!          --seconds <s> --trace <0|1> [--quick] [--work-dir <dir>]
//! ```
//!
//! Run it from the repository root. It prints the run's provenance, a
//! table of every metric with its unit, any failed check, and, as the
//! last line, the JSON result. Exit code 0 means the run completed
//! (the result says whether its outputs were correct); 2 is a usage
//! error.

use e2ebench::{provenance, result_json, run, Opts, Plan, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <paper-study|loopback-crawl|resume-economy> --seed <n> \
         --seconds <s> --trace <0|1> [--quick] [--work-dir <dir>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut quick = false;
    let mut work_dir = PathBuf::from(".e2ebench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--quick" => quick = true,
            "--work-dir" => work_dir = PathBuf::from(value()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        plan: Plan::new(workload, quick),
        work_dir,
    };

    println!(
        "provenance {}",
        provenance(&opts, std::path::Path::new("."))
    );
    let outcome = run(&opts);
    for m in &outcome.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for (name, values) in &outcome.samples {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("samples {name} (n={}): {}", values.len(), shown.join(" "));
    }
    let ratio = outcome.failed as f64 / outcome.attempted as f64;
    println!(
        "{:<34} {:>18.6} ratio ({} failed of {} attempted)",
        "error_ratio", ratio, outcome.failed, outcome.attempted
    );
    for p in &outcome.problems {
        println!("check failed: {p}");
    }
    println!("{}", result_json(&outcome));
}
