//! `lake-e2e`: one wall-clock benchmark of LAKE's production serving path.
//!
//! ```text
//! lake-e2e run   --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! lake-e2e full  [--quick] [--trace] [--seed N] [--workload W] [--out DIR]
//! lake-e2e check A.json B.json
//! ```
//!
//! `run` is one workload in this process and ends with one JSON line on
//! standard output; `full` runs interleaved rounds of `run` children and
//! writes `results.json`; `check` compares two such files.

mod check;
mod drive;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod target;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use workload::SPECS;

/// Seconds one run measures; also `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
const ROUNDS: usize = 3;
const DEFAULT_SEED: u64 = 12;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("full") => cmd_full(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        _ => Err("usage: lake-e2e run|full|check ... (see benchmark/README.md)".to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lake-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs and bare `--flag`s, in any order.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {key}")))
            .transpose()
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.value("--out").unwrap_or("benchmark/out"))
    }
}

fn result_line(outcome: &run::Outcome) -> Json {
    let metrics = outcome.metrics.iter().map(|(name, value)| {
        let (unit, _) = metrics::describe(name).expect("metric is in a table");
        (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::Str(unit.to_owned()))]))
    });
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    let name = flags.value("--workload").ok_or("run needs --workload")?;
    let spec = workload::spec(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = flags.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = flags.parsed("--seconds")?.unwrap_or(RUN_SECONDS);
    let trace = flags.parsed::<u8>("--trace")?.unwrap_or(0) != 0;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    // A livelock in the stack (README, finding 4) must not outlive the
    // driver's 180 s limit: a run still going after 150 s never ends.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(150));
        eprintln!("lake-e2e: run still going after 150 s, giving up");
        std::process::exit(3);
    });
    let outcome = run::run(spec, seed, seconds, trace, &flags.out_dir());
    println!(
        "workload {name} seed {seed} seconds {seconds} trace {}: {}",
        u8::from(trace),
        spec.why
    );
    for (metric, value) in &outcome.metrics {
        let (unit, better) = metrics::describe(metric).expect("metric is in a table");
        println!("  {metric:<34} {value:>16.4} {unit} ({better} is better)");
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<34} {share:>16.6} ratio ({} of {})",
        "fail_share", outcome.failed, outcome.attempted
    );
    println!("{}", result_line(&outcome).render());
    // A wrong answer fails the run, after the result line the driver reads.
    Ok(if outcome.failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Runs one `run` child and parses the JSON line it ends with.
fn child(name: &str, seed: u64, seconds: f64, trace: bool, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{name}: child printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn metric_value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn cmd_full(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    let seed = flags.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let quick = flags.has("--quick");
    let (rounds, seconds) = if quick { (1, RUN_SECONDS / 10.0) } else { (ROUNDS, RUN_SECONDS) };
    let out = flags.out_dir();
    let names: Vec<&str> = match flags.value("--workload") {
        Some(w) => vec![workload::spec(w).ok_or_else(|| format!("unknown workload {w:?}"))?.name],
        None => SPECS.iter().map(|s| s.name).collect(),
    };

    // Interleaved rounds (A B C D · A B C D · …), each run in its own child
    // with a fresh deployment, so a host regime shift hits all workloads.
    let mut results: Vec<Vec<Json>> = vec![Vec::new(); names.len()];
    let mut calib = Vec::new();
    for round in 0..rounds {
        let before = stats::host_calib_ms();
        for (w, name) in names.iter().enumerate() {
            eprintln!("round {}/{rounds}: {name}", round + 1);
            results[w].push(child(name, seed, seconds, false, &out)?);
        }
        calib.push((before + stats::host_calib_ms()) / 2.0);
    }
    let mut traced: Vec<Option<Json>> = vec![None; names.len()];
    if flags.has("--trace") {
        for (slot, name) in traced.iter_mut().zip(&names) {
            eprintln!("traced: {name}");
            *slot = Some(child(name, seed, seconds, true, &out)?);
        }
    }

    let mut failed_total = 0.0;
    let mut workloads = Vec::new();
    for ((name, runs), traced) in names.iter().zip(&results).zip(&traced) {
        let sum =
            |key: &str| runs.iter().chain(traced).filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
        let (attempted, failed) = (sum("attempted"), sum("failed"));
        failed_total += failed;
        println!(
            "{name}: attempted {attempted} failed {failed} fail_share {}",
            failed / attempted.max(1.0)
        );
        let end_to_end = metrics::END_TO_END.iter().map(|m| {
            let per_round: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, m.name)).collect();
            let med = stats::median(&mut per_round.clone());
            println!(
                "  {:<34} {med:>16.4} {} (median of {} rounds)",
                m.name,
                m.unit,
                per_round.len()
            );
            let entry = Json::obj([
                ("unit", Json::Str(m.unit.to_owned())),
                ("rounds", Json::Arr(per_round.into_iter().map(Json::Num).collect())),
                ("median", Json::Num(med)),
            ]);
            (m.name, entry)
        });
        let mut entry = vec![
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("end_to_end", Json::obj(end_to_end.collect::<Vec<_>>())),
        ];
        if let Some(t) = traced {
            let per_layer = metrics::PER_LAYER.iter().filter_map(|m| {
                let v = metric_value(t, m.name)?;
                println!("  {:<34} {v:>16.4} {}", m.name, m.unit);
                Some((
                    m.name,
                    Json::obj([("unit", Json::Str(m.unit.to_owned())), ("value", Json::Num(v))]),
                ))
            });
            entry.push(("per_layer", Json::obj(per_layer.collect::<Vec<_>>())));
        }
        workloads.push((*name, Json::obj(entry)));
    }
    let doc = Json::obj([
        ("commit", Json::Str(tool_version("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(tool_version("rustc", &["--version"]))),
        ("num_cpus", Json::Num(target::host_cores() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("rounds", Json::Num(rounds as f64)),
        ("host_calib_ms", Json::Arr(calib.into_iter().map(Json::Num).collect())),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let path = out.join("results.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(if failed_total == 0.0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err("check needs two result files".to_owned()) };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let report = check::check(&load(a)?, &load(b)?)?;
    println!("lake.host_calib_ms: A {:.1} B {:.1}", report.calib_ms.0, report.calib_ms.1);
    for r in &report.rows {
        println!(
            "{:<14} {:<14} A {:>14.4} B {:>14.4}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.verdict.name()
        );
    }
    let worse = report.rows.iter().any(|r| r.verdict == check::Verdict::Worse);
    Ok(if worse { ExitCode::from(1) } else { ExitCode::SUCCESS })
}
