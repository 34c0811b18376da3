//! The repository benchmark.
//!
//! ```text
//! labench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! labench compare <result.json> <result.json>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run that replays the same inputs one layer down at
//! a time. The last line on stdout is the run's summary as one JSON
//! object; the full result, with the host fingerprint and (traced) the
//! spans, is written under `labench/results/`. See `labench/README.md`.

mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use la_core::tune::{self, FactorAlgo};
use la_core::TuneConfig;

use inputs::Problem;
use report::{Fingerprint, Metrics, RunResult};
use workloads::Workload;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_child = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--setup-child" => setup_child = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_child,
    })
}

/// Removes every inherited `LA_*` variable, so no tuning knob reaches the
/// library from outside; returns their names.
fn clear_la_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LA_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Time from a cold process to the first answer of each op class, on
/// the systems of [`workloads::setup_inputs`]. Inputs are generated
/// before the clock starts.
fn cold_setup(w: Workload, setup: &[Problem]) -> f64 {
    match w {
        Workload::SmallSolves | Workload::LargeFactor => {
            let routes: &[Option<FactorAlgo>] = if w == Workload::LargeFactor {
                &[Some(FactorAlgo::Blocked), Some(FactorAlgo::Dag)]
            } else {
                &[None]
            };
            let mut calls: Vec<_> = setup
                .iter()
                .flat_map(|p| routes.iter().map(move |&r| (p, r, workloads::fresh(p))))
                .collect();
            let t0 = Instant::now();
            for (p, r, (a, x)) in &mut calls {
                let _ = workloads::routed_solve(p, *r, a, x);
            }
            t0.elapsed().as_secs_f64()
        }
        Workload::SmallBatch => {
            let batches = workloads::batches(setup);
            let t0 = Instant::now();
            for b in &batches {
                workloads::solve_batch(b);
            }
            t0.elapsed().as_secs_f64()
        }
    }
}

/// Median of `SETUP_REPS` cold set-ups, each in a fresh process.
fn setup_seconds(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut v = Vec::new();
    for _ in 0..SETUP_REPS {
        let out = Command::new(&exe)
            .args([
                "--workload",
                a.workload.name(),
                "--seed",
                &a.seed.to_string(),
                "--setup-child",
            ])
            .output()
            .map_err(|e| format!("setup child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let s = text
            .trim()
            .strip_prefix("setup_s=")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "setup child failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        v.push(s);
    }
    stats::median(&mut v).ok_or_else(|| "no set-up samples".into())
}

/// The benchmark's declaration, compiled in so every run can check its
/// output against it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Checks that `m` holds exactly the metrics `BENCHMARK.json` lists for
/// this mode, with their units, and that every value is finite.
fn check_declared(m: &Metrics, trace: bool) -> Result<(), String> {
    let doc =
        la_core::json::Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let mut want: Vec<(&str, &str)> = doc
        .get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json: no {key}"))?
        .iter()
        .filter_map(|d| Some((d.get("name")?.as_str()?, d.get("unit")?.as_str()?)))
        .collect();
    let mut got: Vec<(&str, &str)> =
        m.0.iter()
            .map(|x| (x.name.as_str(), x.unit.as_str()))
            .collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
        return Err(format!(
            "{key} metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    match m.0.iter().find(|x| !x.value.is_finite()) {
        Some(x) => Err(format!("metric {} is not finite", x.name)),
        None => Ok(()),
    }
}

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn run(a: &Args) -> Result<RunResult, String> {
    let fingerprint = Fingerprint::host();
    eprintln!("labench: {:?}", fingerprint);
    let (metrics, extra, correct, attempted, failed, tracer) = if a.trace {
        let pool = workloads::inputs(a.workload, a.seed);
        let out = layers::traced(a.workload, a.seed, &pool, a.seconds);
        (
            out.metrics,
            out.extra,
            out.tally.failed == 0,
            out.tally.attempted,
            out.tally.failed,
            Some(out.tracer),
        )
    } else {
        let setup_s = setup_seconds(a)?;
        let pool = workloads::inputs(a.workload, a.seed);
        let t = workloads::run(a.workload, &pool, a.seconds, None);
        let mut m = Metrics::default();
        m.push("setup_s", setup_s, "s");
        m.0.extend(t.e2e()?.0);
        let mut extra = t.extra;
        extra.push(
            "fail_ratio",
            t.failed as f64 / t.attempted.max(1) as f64,
            "ratio",
        );
        extra.push("wrong_answers", t.wrong as f64, "count");
        (m, extra, t.failed == 0, t.attempted, t.failed, None)
    };
    check_declared(&metrics, a.trace)?;
    let result = RunResult {
        workload: a.workload.name().into(),
        seed: a.seed,
        trace: a.trace,
        fingerprint,
        correct,
        attempted,
        failed,
        metrics,
        extra,
    };
    let dir = results_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, result.to_json(tracer.as_ref())))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    for m in result.metrics.0.iter().chain(&result.extra.0) {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(result)
}

fn compare(paths: &[String]) -> ExitCode {
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|s| RunResult::from_json(&s).map_err(|e| format!("{p}: {e}")))
    };
    let [a, b] = paths else {
        eprintln!("usage: labench compare <a.json> <b.json>");
        return ExitCode::from(2);
    };
    match load(a).and_then(|a| load(b).and_then(|b| report::compare(&a, &b))) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("labench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let cleared = clear_la_env();
    if !cleared.is_empty() {
        eprintln!("labench: cleared inherited {}", cleared.join(", "));
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labench: {e}");
            return ExitCode::from(2);
        }
    };
    if tune::current() != TuneConfig::defaults() {
        eprintln!("labench: tuning configuration differs from the defaults");
        return ExitCode::from(2);
    }
    if args.setup_child {
        let setup = workloads::setup_inputs(args.workload, args.seed);
        println!("setup_s={:?}", cold_setup(args.workload, &setup));
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(r) => {
            println!("{}", r.summary_line());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("labench: wrong answers or failed calls; the run fails");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("labench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_match_the_declaration() {
        let mut t = workloads::Tally::default();
        for i in 0..200 {
            t.call(1e-3 * (1.0 + i as f64 / 200.0), true);
        }
        let mut m = Metrics::default();
        m.push("setup_s", 0.1, "s");
        m.0.extend(t.e2e().unwrap().0);
        check_declared(&m, false).unwrap();
        assert!(check_declared(&m, true).is_err());
        m.0[1].value = f64::NAN;
        assert!(check_declared(&m, false).is_err());
        m.0.pop();
        assert!(check_declared(&m, false).is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload large_factor --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::LargeFactor, 7, 3.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload small_solves").is_err());
        assert!(args("--workload small_solves --seed 1 --trace 2").is_err());
        assert!(args("--workload small_solves --seed 1 --seconds 0").is_err());
    }
}
