//! The one output format every sweep shares: timed [`Row`]s, the `host`
//! object, and the `BENCH_<suite>[.quick].json` file that `bench_gate`
//! reads back with the same types.

use la_core::json::{Json, JsonBuf};

/// Path of a suite's results file, relative to the working directory:
/// the committed baseline, or the `--quick` CI run written beside it.
pub(crate) fn bench_path(suite: &str, quick: bool) -> String {
    format!("BENCH_{suite}{}.json", if quick { ".quick" } else { "" })
}

/// Whether the sweep was asked for its CI-sized `--quick` run.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Cores the host reports; every `host` object records it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// One timed measurement of a sweep section. The gate matches rows across
/// files on `(op, n, threads, nb)`; suites that do not vary the thread
/// budget or block size leave those `None`, and they are not written.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Operation name, e.g. `gemm`, `getrf_nb`, `gesv_mixed`, `potrf_dag`.
    pub op: String,
    /// Problem order.
    pub n: usize,
    /// Thread budget the row ran under (`0`: the auto budget).
    pub threads: Option<usize>,
    /// Block or tile size the row ran under (`0`: the default).
    pub nb: Option<usize>,
    /// Best-of-reps wall-clock milliseconds.
    pub ms: f64,
    /// Refinement steps the mixed-precision driver took.
    pub iter: Option<usize>,
    /// Model GF/s of the run.
    pub gflops: Option<f64>,
}

impl Row {
    /// A row carrying only the fields every suite records.
    pub fn new(op: impl Into<String>, n: usize, ms: f64) -> Row {
        Row {
            op: op.into(),
            n,
            threads: None,
            nb: None,
            ms,
            iter: None,
            gflops: None,
        }
    }

    /// Reads a row written by [`Report::rows`]. A row without `op`, `n`
    /// or a numeric `ms` is an error: a NaN or infinite time is written
    /// as `null`.
    pub(crate) fn parse(v: &Json) -> Result<Row, String> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        let op = v.get("op").and_then(Json::as_str).ok_or("row without op")?;
        let missing = |k: &str| format!("row {op}: no numeric {k}");
        Ok(Row {
            op: op.to_string(),
            n: num("n").ok_or_else(|| missing("n"))? as usize,
            threads: num("threads").map(|t| t as usize),
            nb: num("nb").map(|b| b as usize),
            ms: num("ms").ok_or_else(|| missing("ms"))?,
            iter: num("iter").map(|i| i as usize),
            gflops: num("gflops"),
        })
    }

    /// Whether `other` measures the same configuration.
    pub(crate) fn same_point(&self, other: &Row) -> bool {
        (&self.op, self.n, self.threads, self.nb) == (&other.op, other.n, other.threads, other.nb)
    }

    /// The name the gate prints, e.g. `gemm n=512 threads=1 nb=0`.
    pub(crate) fn key(&self) -> String {
        format!(
            "{} n={} threads={} nb={}",
            self.op,
            self.n,
            self.threads.unwrap_or(0),
            self.nb.unwrap_or(0)
        )
    }
}

/// A sweep's results document, written as `BENCH_<suite>[.quick].json`:
/// the `host` object first, then the sections in the order they are added.
pub struct Report {
    path: String,
    j: JsonBuf,
}

impl Report {
    /// Starts the document with its `host` object: the core count, then
    /// `extra` fields that qualify every row (thread budget, tile size).
    pub fn new(suite: &str, quick: bool, extra: &[(&str, u64)]) -> Report {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("host");
        j.begin_obj();
        j.field_uint("cores", host_cores() as u64);
        for &(k, v) in extra {
            j.field_uint(k, v);
        }
        j.end_obj();
        Report {
            path: bench_path(suite, quick),
            j,
        }
    }

    /// Adds a section of timed rows.
    pub fn rows<'a>(&mut self, section: &str, rows: impl IntoIterator<Item = &'a Row>) {
        let j = &mut self.j;
        j.key(section);
        j.begin_arr();
        for r in rows {
            j.begin_obj();
            j.field_str("op", &r.op);
            j.field_uint("n", r.n as u64);
            for (k, v) in [("threads", r.threads), ("nb", r.nb)] {
                if let Some(v) = v {
                    j.field_uint(k, v as u64);
                }
            }
            j.field_num("ms", r.ms);
            if let Some(g) = r.gflops {
                j.field_num("gflops", g);
            }
            if let Some(i) = r.iter {
                j.field_uint("iter", i as u64);
            }
            j.end_obj();
        }
        j.end_arr();
    }

    /// Adds an object section of named numbers, e.g. `{"gemm_512": 4.43}`.
    pub fn map(&mut self, section: &str, entries: impl IntoIterator<Item = (String, f64)>) {
        self.j.key(section);
        self.j.begin_obj();
        for (k, v) in entries {
            self.j.field_num(&k, v);
        }
        self.j.end_obj();
    }

    /// The writer, for a section of any other shape.
    pub fn json(&mut self) -> &mut JsonBuf {
        &mut self.j
    }

    /// Closes the document and writes it to the working directory.
    pub fn write(self) {
        let (path, text) = self.finish();
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    /// The file's path and its closed document.
    pub(crate) fn finish(mut self) -> (String, String) {
        self.j.end_obj();
        (self.path, self.j.into_string())
    }
}
