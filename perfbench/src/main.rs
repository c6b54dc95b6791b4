//! Command line:
//! `perfbench --workload <fanout|novel-types|churn-lossy> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a detail line (the counts behind the metrics), then, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 1` the spans of the
//! traced phase are written to `.bench_trace/<workload>-<seed>.tsv`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::churn::ChurnLossy;
use perfbench::fanout::Fanout;
use perfbench::novel::NovelTypes;
use perfbench::{end_to_end, traced, Report, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    if args.trace {
        let spans =
            PathBuf::from(".bench_trace").join(format!("{}-{}.tsv", args.workload, args.seed));
        traced::<W>(args.seed, args.seconds, &spans)
    } else {
        end_to_end::<W>(args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload.as_str() {
        "fanout" => run::<Fanout>(&args),
        "novel-types" => run::<NovelTypes>(&args),
        "churn-lossy" => run::<ChurnLossy>(&args),
        other => Err(format!("unknown workload {other}")),
    });
    match outcome {
        Ok(report) => {
            for f in &report.failures {
                eprintln!("perfbench: check failed: {f}");
            }
            println!("{}", report.detail_json());
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
