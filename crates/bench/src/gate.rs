//! The CI performance gate behind `bench_gate`: every suite's fresh quick
//! sweep against its committed baseline, plus one table of absolute
//! bounds. It reports every suite before it gives its verdict.
//!
//! **Ratio rule.** Runner speeds vary, so raw `fresh/baseline` time ratios
//! are useless: per suite, every row ratio is divided by the median ratio
//! (the machine-speed calibration) and a normalized ratio above
//! [`RATIO_THRESHOLD`] is a regression. A uniformly slower runner shifts
//! the median, not the verdict; one op that got slower *relative to the
//! others* trips it. Rows are matched on `(op, n, threads, nb)`; fresh
//! rows without a baseline row are listed by name, not compared.
//!
//! **Bounds.** Each row of [`BOUNDS`] is a floor, a ceiling or a best-of
//! floor over the values it picks from one section of one file. The file
//! is printed with every value: `[baseline]` bounds only re-read the
//! committed numbers (the quick sweeps stop at n = 512, below the sizes
//! those bounds are about), `[fresh]` ones check the commit under test.
//!
//! Every file, section and picked value must exist: a missing one fails
//! its suite. A value that is not a number (NaN, `null`) fails its bound.

use crate::report::{bench_path, Row};
use la_core::json::Json;
use Kind::*;
use Pick::*;
use Src::*;

/// Largest median-normalized `fresh/baseline` time ratio a row may show.
/// It tolerates noisy shared runners.
pub const RATIO_THRESHOLD: f64 = 1.25;

/// A suite the gate covers: `BENCH_<name>.json` and, where a check needs
/// it, `BENCH_<name>.quick.json`.
pub struct Suite {
    /// File stem, e.g. `blas3`.
    pub name: &'static str,
    /// Row sections the ratio rule compares; empty for bounds only.
    pub sections: &'static [&'static str],
}

/// Every suite, in report order. `serve` has no quick run in CI: its
/// bounds read the committed baseline only.
pub const SUITES: [Suite; 5] = [
    Suite {
        name: "blas3",
        sections: &["thread_sweep", "nb_sweep"],
    },
    Suite {
        name: "mixed",
        sections: &["mixed_sweep"],
    },
    Suite {
        name: "abft",
        sections: &["abft_sweep"],
    },
    Suite {
        name: "dag",
        sections: &["dag_sweep"],
    },
    Suite {
        name: "serve",
        sections: &[],
    },
];

/// Which of a suite's two files a bound reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// The committed `BENCH_<suite>.json`.
    Baseline,
    /// The `BENCH_<suite>.quick.json` just measured.
    Fresh,
}

/// How a bound judges the values it picks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every value ≥ the bound.
    Floor,
    /// Every value ≤ the bound.
    Ceiling,
    /// The largest value ≥ the bound.
    BestFloor,
}

/// The values a bound picks from its section.
#[derive(Clone, Copy, Debug)]
pub enum Pick {
    /// Entries `<head>_<n>` of an object of numbers with `n` ≥ the given
    /// size, where `head` matches the pattern: alternatives split by `|`,
    /// each exact or with a leading or trailing `*`.
    Keys(&'static str, u64),
    /// One field of an object section.
    Field(&'static str),
    /// One field of every row of an array section, or of the rows whose
    /// `mode` is the given one.
    Rows(Option<&'static str>, &'static str),
}

/// One absolute bound.
pub struct Bound {
    /// Suite whose file the bound reads.
    pub suite: &'static str,
    /// Which of the suite's files.
    pub src: Src,
    /// Top-level section of that file.
    pub section: &'static str,
    /// Values picked from the section.
    pub pick: Pick,
    /// How they are judged.
    pub kind: Kind,
    /// The bound.
    pub value: f64,
    /// What the values are, as printed.
    pub what: &'static str,
}

/// Every absolute bound, in report order within each suite.
pub const BOUNDS: &[Bound] = &[
    // The packed register-blocked gemm must keep its headline win over
    // the pre-packed loop-nest substrate where cache blocking pays.
    Bound {
        suite: "blas3",
        src: Baseline,
        section: "speedup_packed_vs_prepacked",
        pick: Keys("gemm", 512),
        kind: Floor,
        value: 3.0,
        what: "packed speedup",
    },
    // The mixed drivers must pay for themselves end to end at the sizes
    // the paper's argument rests on.
    Bound {
        suite: "mixed",
        src: Baseline,
        section: "speedup_mixed_vs_full",
        pick: Keys("gesv", 1024),
        kind: Floor,
        value: 1.2,
        what: "mixed speedup",
    },
    // The f32 solve with double-double residuals pays O(n²) extra per
    // refinement step; it measured 0.86× of plain f64 gesv at n = 1024.
    // The floor catches a silent performance cliff, not a speedup claim.
    Bound {
        suite: "mixed",
        src: Baseline,
        section: "speedup_lattice_vs_full",
        pick: Keys("gesv_*", 1024),
        kind: Floor,
        value: 0.25,
        what: "dd speedup",
    },
    // 4·ε(f64): componentwise backward error of the double-double
    // residual gesvxx on the n = 12 Hilbert system (measured 0.0). The
    // row does not depend on --quick, so the fresh run carries it too.
    Bound {
        suite: "mixed",
        src: Baseline,
        section: "dd_hilbert",
        pick: Field("berr"),
        kind: Ceiling,
        value: 8.9e-16,
        what: "dd berr",
    },
    Bound {
        suite: "mixed",
        src: Fresh,
        section: "dd_hilbert",
        pick: Field("berr"),
        kind: Ceiling,
        value: 8.9e-16,
        what: "dd berr",
    },
    // The O(n²) checksum passes must stay cheap against O(n³) compute.
    // Restated from 1.10 when the packed microkernels landed: the
    // checksums are unchanged, but the compute they amortize against got
    // 3-4× faster (EXPERIMENTS.md).
    Bound {
        suite: "abft",
        src: Baseline,
        section: "abft_overhead",
        pick: Keys("*_verify", 1024),
        kind: Ceiling,
        value: 1.25,
        what: "abft overhead",
    },
    // The tile task graph must keep beating the fork-join blocked path on
    // getrf or potrf, whose trailing updates it overlaps across steps.
    Bound {
        suite: "dag",
        src: Baseline,
        section: "speedup_dag_vs_blocked",
        pick: Keys("getrf|potrf", 2048),
        kind: BestFloor,
        value: 1.15,
        what: "dag speedup",
    },
    // Serving: the latency ceiling and goodput floor are slack because the
    // baseline was measured on a 1-core host; the test-serve soak guards
    // fresh behaviour. No row, clean or chaos, may serve a wrong answer
    // or let a panic escape a job.
    Bound {
        suite: "serve",
        src: Baseline,
        section: "serve_sweep",
        pick: Rows(Some("clean"), "p99_ms"),
        kind: Ceiling,
        value: 100.0,
        what: "p99 ms",
    },
    Bound {
        suite: "serve",
        src: Baseline,
        section: "serve_sweep",
        pick: Rows(Some("clean"), "goodput_jps"),
        kind: Floor,
        value: 500.0,
        what: "goodput jobs/s",
    },
    Bound {
        suite: "serve",
        src: Baseline,
        section: "serve_sweep",
        pick: Rows(None, "wrong"),
        kind: Ceiling,
        value: 0.0,
        what: "wrong",
    },
    Bound {
        suite: "serve",
        src: Baseline,
        section: "serve_sweep",
        pick: Rows(None, "pool_poisonings"),
        kind: Ceiling,
        value: 0.0,
        what: "pool poisonings",
    },
    // Overload at 2× capacity: the admission controller must keep the
    // adaptive row's p99 bounded (measured ~41 ms against a 5 ms delay
    // target, where the fixed-depth row records ~145 ms) without its
    // goodput collapsing. Overload may shed; no row may corrupt, poison
    // or leave an admitted job unresolved.
    Bound {
        suite: "serve",
        src: Baseline,
        section: "overload",
        pick: Rows(Some("adaptive"), "p99_ms"),
        kind: Ceiling,
        value: 120.0,
        what: "overload p99 ms",
    },
    Bound {
        suite: "serve",
        src: Baseline,
        section: "overload",
        pick: Rows(Some("adaptive"), "goodput_jps"),
        kind: Floor,
        value: 300.0,
        what: "overload goodput jobs/s",
    },
    Bound {
        suite: "serve",
        src: Baseline,
        section: "overload",
        pick: Rows(None, "wrong"),
        kind: Ceiling,
        value: 0.0,
        what: "overload wrong",
    },
    Bound {
        suite: "serve",
        src: Baseline,
        section: "overload",
        pick: Rows(None, "pool_poisonings"),
        kind: Ceiling,
        value: 0.0,
        what: "overload pool poisonings",
    },
    Bound {
        suite: "serve",
        src: Baseline,
        section: "overload",
        pick: Rows(None, "unresolved"),
        kind: Ceiling,
        value: 0.0,
        what: "overload unresolved",
    },
];

fn tag(src: Src) -> &'static str {
    match src {
        Baseline => "[baseline]",
        Fresh => "[fresh]",
    }
}

/// Gates every suite on the files in the working directory and prints
/// the verdict; `false` if any suite failed.
pub fn run() -> bool {
    let failed: Vec<&str> = SUITES
        .iter()
        .filter(|s| !gate_suite(s, &|src| load(&bench_path(s.name, src == Fresh))))
        .map(|s| s.name)
        .collect();
    if failed.is_empty() {
        println!("bench_gate: OK");
    } else {
        println!("bench_gate: FAILED: {}", failed.join(", "));
    }
    failed.is_empty()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs the ratio rule and every bound of `suite` on the documents `load`
/// returns, printing each check; `false` if any failed.
fn gate_suite(suite: &Suite, load: &dyn Fn(Src) -> Result<Json, String>) -> bool {
    let bounds = || BOUNDS.iter().filter(|b| b.suite == suite.name);
    let needs_fresh = !suite.sections.is_empty() || bounds().any(|b| b.src == Fresh);
    let srcs: &[Src] = if needs_fresh {
        &[Baseline, Fresh]
    } else {
        &[Baseline]
    };
    let docs: Vec<(Src, Result<Json, String>)> = srcs.iter().map(|&s| (s, load(s))).collect();
    let doc = |src: Src| docs.iter().find(|d| d.0 == src).map(|d| &d.1);

    println!("== {}", suite.name);
    let mut ok = true;
    for (src, d) in &docs {
        let path = bench_path(suite.name, *src == Fresh);
        match d {
            Ok(d) => println!("  {:<10} {path}  host {}", tag(*src), host(d)),
            Err(e) => {
                ok = false;
                println!("  {:<10} {e}  << FAILED", tag(*src));
            }
        }
    }
    if let (Some(Ok(base)), Some(Ok(fresh))) = (doc(Baseline), doc(Fresh)) {
        ok &= match (rows(base, suite.sections), rows(fresh, suite.sections)) {
            (Ok(b), Ok(f)) => ratio_rule(&b, &f),
            (Err(e), _) | (_, Err(e)) => {
                println!("  {e}  << FAILED");
                false
            }
        };
    }
    for b in bounds() {
        if let Some(Ok(d)) = doc(b.src) {
            ok &= check(b, d);
        }
    }
    ok
}

/// The `host` object as `cores=1 auto_thread_budget=1`.
fn host(doc: &Json) -> String {
    let Some(Json::Obj(fields)) = doc.get("host") else {
        return "(none recorded)".into();
    };
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{k}={}", v.as_f64().unwrap_or(f64::NAN)))
        .collect();
    fields.join(" ")
}

/// Every row of `sections`; a missing section, an unreadable row or a
/// time that is not finite and positive is an error.
fn rows(doc: &Json, sections: &[&str]) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for section in sections {
        let arr = doc
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no {section} section"))?;
        for v in arr {
            let r = Row::parse(v).map_err(|e| format!("{section}: {e}"))?;
            if !(r.ms.is_finite() && r.ms > 0.0) {
                return Err(format!("{section}: {}: ms {} is not a time", r.key(), r.ms));
            }
            out.push(r);
        }
    }
    Ok(out)
}

/// The median-normalized regression rule over the fresh rows that have a
/// baseline row; `false` if a row regressed or none is comparable.
fn ratio_rule(base: &[Row], fresh: &[Row]) -> bool {
    let mut ratios: Vec<(String, f64)> = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for f in fresh {
        match base.iter().find(|b| b.same_point(f)) {
            Some(b) => ratios.push((f.key(), f.ms / b.ms)),
            None => unmatched.push(f.key()),
        }
    }
    if ratios.is_empty() {
        println!("  no comparable rows  << FAILED");
        return false;
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|r| r.1).collect();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    println!(
        "  {} comparable rows, median fresh/baseline ratio {median:.3} (normalizing), \
         threshold {RATIO_THRESHOLD:.2}",
        ratios.len()
    );
    let mut ok = true;
    for (key, r) in &ratios {
        let norm = r / median;
        let flag = if norm > RATIO_THRESHOLD {
            ok = false;
            "  << REGRESSION"
        } else {
            ""
        };
        println!("  {key:<34} ratio {r:7.3}  normalized {norm:7.3}{flag}");
    }
    if !unmatched.is_empty() {
        println!("  {} fresh rows without a baseline row:", unmatched.len());
        for key in &unmatched {
            println!("    {key}");
        }
    }
    ok
}

/// Whether a `<head>_<n>` key is picked by `pattern` and `min_n`.
fn key_matches(key: &str, pattern: &str, min_n: u64) -> bool {
    let Some((head, n)) = key.rsplit_once('_') else {
        return false;
    };
    n.parse::<u64>().is_ok_and(|n| n >= min_n)
        && pattern.split('|').any(|p| {
            if let Some(tail) = p.strip_prefix('*') {
                head.ends_with(tail)
            } else if let Some(lead) = p.strip_suffix('*') {
                head.starts_with(lead)
            } else {
                head == p
            }
        })
}

/// A serve row's name: `gesv clean c=4`, or the overload row's mode.
fn row_name(row: &Json) -> String {
    let mut parts: Vec<String> = ["op", "mode"]
        .iter()
        .filter_map(|k| row.get(k).and_then(Json::as_str).map(str::to_string))
        .collect();
    if let Some(c) = row.get("concurrency").and_then(Json::as_f64) {
        parts.push(format!("c={c}"));
    }
    parts.join(" ")
}

/// The values `b` picks from `doc`, each with its name; an error when the
/// section is missing or picks nothing.
fn picked(b: &Bound, doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let section = doc
        .get(b.section)
        .ok_or_else(|| format!("no {} section", b.section))?;
    let value = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let vals: Vec<(String, f64)> = match (b.pick, section) {
        (Keys(pattern, min_n), Json::Obj(entries)) => entries
            .iter()
            .filter(|(k, _)| key_matches(k, pattern, min_n))
            .map(|(k, v)| (k.clone(), value(Some(v))))
            .collect(),
        (Field(f), Json::Obj(_)) => vec![(format!("{}.{f}", b.section), value(section.get(f)))],
        (Rows(mode, f), Json::Arr(rows)) => rows
            .iter()
            .filter(|r| mode.map_or(true, |m| r.get("mode").and_then(Json::as_str) == Some(m)))
            .map(|r| (row_name(r), value(r.get(f))))
            .collect(),
        _ => return Err(format!("{} section has the wrong shape", b.section)),
    };
    if vals.is_empty() {
        return Err(format!("{} picks nothing in {}", b.what, b.section));
    }
    Ok(vals)
}

/// Judges one bound on `doc`, printing every value; `false` if it failed.
fn check(b: &Bound, doc: &Json) -> bool {
    let t = tag(b.src);
    let vals = match picked(b, doc) {
        Ok(v) => v,
        Err(e) => {
            println!("  {t:<10} {e}  << FAILED");
            return false;
        }
    };
    // Written so that NaN fails both ways.
    let within = |v: f64| match b.kind {
        Ceiling => v <= b.value,
        Floor | BestFloor => v >= b.value,
    };
    let (limit, miss) = match b.kind {
        Ceiling => ("ceiling", "  << ABOVE CEILING"),
        Floor => ("floor", "  << BELOW FLOOR"),
        BestFloor => ("floor", "  (below floor)"),
    };
    let bound = num(b.value);
    for (name, v) in &vals {
        let flag = if within(*v) { "" } else { miss };
        let label = format!("{} {name}", b.what);
        println!(
            "  {t:<10} {label:<40} {:>9}  ({limit} {bound}){flag}",
            num(*v)
        );
    }
    if b.kind == BestFloor {
        let best = vals.iter().map(|v| v.1).fold(f64::NEG_INFINITY, f64::max);
        if !within(best) {
            println!(
                "  {t:<10} {}: best {}  << BELOW FLOOR {bound}",
                b.what,
                num(best)
            );
            return false;
        }
        return true;
    }
    vals.iter().all(|v| within(v.1))
}

/// Three decimals, or three significant digits for tiny values.
fn num(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).expect("test JSON parses")
    }

    fn bound(section: &'static str, pick: Pick, kind: Kind, value: f64) -> Bound {
        Bound {
            suite: "t",
            src: Fresh,
            section,
            pick,
            kind,
            value,
            what: "test",
        }
    }

    fn timed(ms: &[f64]) -> Vec<Row> {
        let ops = ["gemm", "syrk", "trsm", "getrf", "potrf"];
        ops.iter()
            .zip(ms)
            .map(|(op, &ms)| Row::new(*op, 512, ms))
            .collect()
    }

    #[test]
    fn ratio_rule_trips_on_one_slowed_row_only() {
        let base = timed(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let uniform = timed(&[3.0, 6.0, 9.0, 12.0, 15.0]);
        assert!(ratio_rule(&base, &uniform));
        let one_slow = timed(&[1.0, 2.0, 3.0, 4.0 * 1.3, 5.0]);
        assert!(!ratio_rule(&base, &one_slow));
        assert!(!ratio_rule(&base, &[Row::new("gemv", 512, 1.0)]));
    }

    #[test]
    fn each_bound_kind_trips() {
        let d = doc(r#"{"s":{"x_512":1.0,"x_1024":3.0,"y_1024":2.0},"f":{"v":1e-15}}"#);
        assert!(check(&bound("s", Keys("x", 1024), Floor, 2.5), &d));
        assert!(!check(&bound("s", Keys("x", 512), Floor, 2.5), &d));
        assert!(check(&bound("s", Keys("*", 1024), Ceiling, 3.0), &d));
        assert!(!check(&bound("s", Keys("x|y", 1024), Ceiling, 2.5), &d));
        assert!(!check(&bound("f", Field("v"), Ceiling, 8.9e-16), &d));
        assert!(check(&bound("f", Field("v"), Ceiling, 2e-15), &d));
        // Best-of fails only when every picked value is below.
        assert!(check(&bound("s", Keys("x|y", 1024), BestFloor, 2.5), &d));
        assert!(!check(&bound("s", Keys("x|y", 1024), BestFloor, 3.5), &d));
        // A missing value, section or match fails.
        assert!(!check(&bound("f", Field("w"), Ceiling, 1.0), &d));
        assert!(!check(&bound("g", Field("v"), Ceiling, 1.0), &d));
        assert!(!check(&bound("s", Keys("z", 0), Floor, 0.0), &d));
    }

    fn serve(wrong_in_chaos: u32) -> Json {
        doc(&format!(
            r#"{{"serve_sweep":[
                {{"op":"gesv","mode":"clean","concurrency":1,"p99_ms":0.5,
                  "goodput_jps":2900,"wrong":0,"pool_poisonings":0}},
                {{"op":"chaos","mode":"chaos","concurrency":4,"p99_ms":900,
                  "goodput_jps":10,"wrong":{wrong_in_chaos},"pool_poisonings":0}}],
              "overload":[{{"mode":"adaptive","p99_ms":40,"goodput_jps":2000,
                  "wrong":0,"pool_poisonings":0,"unresolved":0}}]}}"#
        ))
    }

    #[test]
    fn a_wrong_answer_on_a_chaos_row_fails() {
        let s = &SUITES[4];
        assert_eq!(s.name, "serve");
        assert!(gate_suite(s, &|_| Ok(serve(0))));
        assert!(!gate_suite(s, &|_| Ok(serve(1))));
    }

    #[test]
    fn a_missing_file_section_or_bad_time_fails() {
        let blas3 = &SUITES[0];
        let rows = r#"[{"op":"gemm","n":512,"threads":1,"nb":0,"ms":1.5}]"#;
        let full = format!(
            r#"{{"thread_sweep":{rows},"nb_sweep":{rows},
                "speedup_packed_vs_prepacked":{{"gemm_512":4.0}}}}"#
        );
        assert!(gate_suite(blas3, &|_| Ok(doc(&full))));
        let no_nb = full.replace("nb_sweep", "other");
        assert!(!gate_suite(blas3, &|src| Ok(doc(if src == Fresh {
            &no_nb
        } else {
            &full
        }))));
        let zero_ms = full.replace("1.5", "0.0");
        assert!(!gate_suite(blas3, &|src| Ok(doc(if src == Fresh {
            &zero_ms
        } else {
            &full
        }))));
        let nan_ms = full.replace("1.5", "null");
        assert!(!gate_suite(blas3, &|src| Ok(doc(if src == Fresh {
            &nan_ms
        } else {
            &full
        }))));
        assert!(!gate_suite(blas3, &|src| match src {
            Baseline => Ok(doc(&full)),
            Fresh => Err("BENCH_blas3.quick.json: not found".into()),
        }));
        let no_overload = r#"{"serve_sweep":[{"op":"gesv","mode":"clean","concurrency":1,
            "p99_ms":0.5,"goodput_jps":2900,"wrong":0,"pool_poisonings":0}]}"#;
        assert!(!gate_suite(&SUITES[4], &|_| Ok(doc(no_overload))));
    }

    #[test]
    fn committed_baselines_pass_against_themselves() {
        let committed = [
            include_str!("../../../BENCH_blas3.json"),
            include_str!("../../../BENCH_mixed.json"),
            include_str!("../../../BENCH_abft.json"),
            include_str!("../../../BENCH_dag.json"),
            include_str!("../../../BENCH_serve.json"),
        ];
        for (suite, text) in SUITES.iter().zip(committed) {
            assert!(gate_suite(suite, &|_| Ok(doc(text))), "{}", suite.name);
        }
    }

    #[test]
    fn written_rows_read_back() {
        let row = Row {
            threads: Some(4),
            nb: Some(192),
            gflops: Some(9.5),
            iter: Some(2),
            ..Row::new("getrf_dag", 2048, 12.25)
        };
        let mut report = crate::report::Report::new("t", true, &[]);
        report.rows("s", [&row]);
        let (path, text) = report.finish();
        assert_eq!(path, "BENCH_t.quick.json");
        let back = doc(&text);
        let arr = back.get("s").and_then(Json::as_arr).expect("section");
        assert_eq!(Row::parse(&arr[0]), Ok(row));
    }
}
