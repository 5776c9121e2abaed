//! Benchmark harness for the tiled QR runtime.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <record-a> <record-b>
//! ```
//!
//! A run builds its inputs from the seed, validates a one-thread reference,
//! sets up (several times; `setup_s` is the median), measures for
//! `--seconds`, checks every result against the reference and prints, as
//! its last stdout line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced, the per-layer
//! metrics with `--trace 1`. Earlier lines (prefixed `#`) carry the
//! provenance and diagnostics. It also writes a record under `out/` beside
//! this package, and with `--trace 1` a Chrome trace-event file. It exits
//! non-zero when a result is wrong. See `README.md` for the workloads.

mod dense;
mod inputs;
mod metrics;
mod probes;
mod provenance;
mod service;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Args, Workload};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench compare <record-a> <record-b>";

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workers: provenance::nproc(),
    })
}

fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &String| std::fs::read_to_string(p).map(|t| metrics::parse_record(&t));
    match (read(a), read(b)) {
        (Ok(ra), Ok(rb)) => match metrics::compare(&ra, &rb) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(3)
            }
        },
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cannot read record: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();

    let prov = provenance::collect(args.workers);
    for (k, v) in &prov {
        println!("# {k}: {v}");
    }
    println!(
        "# workload {name}, seed {}, {} s, trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = match workloads::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("workload {name} could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    for n in &outcome.notes {
        println!("# {n}");
    }

    let catalogue = if args.trace {
        outcome.values.insert(
            "failed_frac",
            stats::ratio(outcome.failed() as f64, outcome.attempted as f64),
        );
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let stem = format!("{name}-seed{}-trace{}", args.seed, args.trace as u8);
    let record = out_dir().join(format!("{stem}.tsv"));
    if let Err(e) = metrics::write_record(&record, &prov, catalogue, &outcome.values) {
        eprintln!("cannot write record {}: {e}", record.display());
    }
    if args.trace {
        let path = out_dir().join(format!("trace-{stem}.json"));
        match trace::write_chrome(&path, &outcome.spans) {
            Ok(()) => println!(
                "# trace: {} spans in {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write trace {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.correct(),
            outcome.attempted.max(1),
            outcome.failed(),
            catalogue,
            &outcome.values,
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
