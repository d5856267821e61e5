//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload, verifies its outputs and prints a
//! detailed report followed, on the last line, by the one-line JSON
//! result. Usually started through `perfbench/run.sh`, which builds this
//! runner and the `gmap` binary first.

use perfbench::host::{nproc, HostBlock};
use perfbench::report::Outcome;
use perfbench::serve::{self, ServeOpts};
use perfbench::sweep::{self, Sweep, SweepOpts};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: perfbench --workload sweep_lru|sweep_prefetch|serve_mix --seed N
                 --seconds S --trace 0|1 [--gmap PATH] [--root DIR]
                 [--out DIR] [--benchmarks a,b,..] [--requests N]

  --gmap PATH        gmap binary for serve_mix (default: next to this binary)
  --root DIR         checkout root holding tests/golden (default: .)
  --out DIR          where reports, spans and traces go (default: .bench_out)
  --benchmarks LIST  sweep only these benchmarks (shortened smoke runs)
  --requests N       serve_mix round length (default 2010)
";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    gmap: PathBuf,
    root: PathBuf,
    out: PathBuf,
    benchmarks: Option<Vec<String>>,
    requests: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut get = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        const FLAGS: [&str; 9] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--gmap",
            "--root",
            "--out",
            "--benchmarks",
            "--requests",
        ];
        if !FLAGS.contains(&flag) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        get.insert(flag, value.clone());
        i += 2;
    }
    let need = |f: &str| get.get(f).cloned().ok_or_else(|| format!("missing {f}"));
    let num = |f: &str, v: String| v.parse::<f64>().map_err(|e| format!("bad {f} {v:?}: {e}"));
    let workload = need("--workload")?;
    if !["sweep_lru", "sweep_prefetch", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds = num("--seconds", need("--seconds")?)?;
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (expected 0 or 1)")),
    };
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let benchmarks = get
        .get("--benchmarks")
        .map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>());
    if let Some(list) = &benchmarks {
        if let Some(bad) = list
            .iter()
            .find(|b| !gmap_gpu::workloads::NAMES.contains(&b.as_str()))
        {
            return Err(format!("unknown benchmark {bad:?}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        gmap: get
            .get("--gmap")
            .map_or_else(|| exe_dir.join("gmap"), PathBuf::from),
        root: get.get("--root").map_or_else(|| ".".into(), PathBuf::from),
        out: get
            .get("--out")
            .map_or_else(|| ".bench_out".into(), PathBuf::from),
        benchmarks,
        requests: match get.get("--requests") {
            Some(n) => n.parse().map_err(|e| format!("bad --requests: {e}"))?,
            None => serve::DEFAULT_REQUESTS,
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = nproc();
    let scale = if args.workload == "serve_mix" {
        "tiny+small"
    } else {
        "tiny"
    };
    let host = match HostBlock::collect(threads, scale, args.seed) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench: refusing to run: {e}");
            return ExitCode::from(3);
        }
    };
    if !args.root.join("tests/golden").is_dir() {
        eprintln!(
            "perfbench: {} holds no tests/golden; run from the repository root",
            args.root.display()
        );
        return ExitCode::from(1);
    }
    let outcome: Outcome = match args.workload.as_str() {
        "serve_mix" => serve::run(&ServeOpts {
            seed: args.seed,
            requests: args.requests,
            threads,
            trace: args.trace,
            gmap: &args.gmap,
            out_dir: args.out.clone(),
        }),
        w => {
            let names: Vec<&str> = match &args.benchmarks {
                Some(list) => list.iter().map(String::as_str).collect(),
                None => gmap_gpu::workloads::NAMES.to_vec(),
            };
            sweep::run(&SweepOpts {
                sweep: if w == "sweep_lru" {
                    Sweep::Lru
                } else {
                    Sweep::Prefetch
                },
                seed: args.seed,
                seconds: args.seconds,
                threads,
                names,
                trace: args.trace,
                root: &args.root,
            })
        }
    };
    if let Some(why) = &outcome.refused {
        eprintln!("perfbench: {why}");
        return ExitCode::from(1);
    }
    let detailed = outcome.detailed(&args.workload, &host, args.trace);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join(format!("{stem}.json")), &detailed))
        .and_then(|()| match &outcome.spans {
            Some(spans) => std::fs::write(args.out.join(format!("{stem}.spans.json")), spans),
            None => Ok(()),
        });
    if let Err(e) = saved {
        eprintln!(
            "perfbench: cannot write reports to {}: {e}",
            args.out.display()
        );
    }
    for p in &outcome.problems {
        eprintln!("perfbench: verification failed: {p}");
    }
    println!("{detailed}");
    println!("{}", outcome.result_line(args.trace));
    ExitCode::SUCCESS
}
