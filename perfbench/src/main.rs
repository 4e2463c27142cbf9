//! One benchmark for the hqmr stack.
//!
//! ```text
//! perfbench --workload <ingest|scan|viewer> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Prints one environment record line, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. `--tiny` shrinks every input for the self-test.
//! See `README.md` beside this crate for the metric definitions.

mod chunks;
mod ingest;
mod scan;
mod trace;
mod util;
mod viewer;

use std::fmt::Write as _;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <ingest|scan|viewer> --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Writes the traced run's spans to `.bench_traces/<workload>-<seed>.jsonl`.
pub fn write_trace(args: &Args, tr: &trace::Tracer) {
    let path = std::path::Path::new(".bench_traces")
        .join(format!("{}-{}.jsonl", args.workload, args.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tr.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_json(m: &util::Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        )
        .unwrap();
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "ingest" => ingest::run(&args),
        "scan" => scan::run(&args),
        "viewer" => viewer::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        report.metrics.put("peak_rss_mb", util::peak_rss_mb(), "MB");
    }
    let finite = report.metrics.0.iter().all(|m| m.1.is_finite());

    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut record = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}, \
         \"available_parallelism\": {threads}, \"simd_level\": \"{:?}\", \"tile_parallel\": {}, \
         \"error_rate\": {}",
        args.workload,
        args.seed,
        num(args.seconds),
        args.trace,
        args.tiny,
        hqmr_codec::kernels::simd_level(),
        hqmr_codec::kernels::tile_parallel(),
        num(report.failed as f64 / report.attempted.max(1) as f64),
    );
    for (k, v) in &report.record {
        write!(record, ", \"{k}\": {v}").unwrap();
    }
    write!(
        record,
        ", \"deterministic\": {}}}}}",
        metrics_json(&report.deterministic)
    )
    .unwrap();
    println!("{record}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct && finite,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics),
    );
    ExitCode::SUCCESS
}
