//! Results: named metrics with units, the host fingerprint every result
//! carries, the result document written at exit (through
//! [`la_core::json`]) and the one-line summary printed last on stdout.

use la_core::json::{Json, JsonBuf};

use crate::trace::Tracer;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    fn write(&self, j: &mut JsonBuf) {
        j.begin_obj();
        for m in &self.0 {
            j.key(&m.name);
            j.begin_obj();
            j.field_num("value", m.value);
            j.field_str("unit", &m.unit);
            j.end_obj();
        }
        j.end_obj();
    }

    fn parse(v: &Json) -> Result<Self, String> {
        let Json::Obj(members) = v else {
            return Err("metrics: not an object".into());
        };
        let mut out = Metrics::default();
        for (name, m) in members {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name}: no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric {name}: no unit"))?;
            out.push(name.clone(), value, unit);
        }
        Ok(out)
    }
}

/// What a result depends on besides the code: results are comparable
/// only when every field matches.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    pub cpu: String,
    /// Cargo features the benchmark builds the library with.
    pub features: String,
    /// GEMM microkernel the `Auto` selection resolves to on this host.
    pub kernel: String,
    pub rustc: String,
    pub arch: String,
}

const FINGERPRINT_KEYS: [&str; 6] = ["cores", "cpu", "features", "kernel", "rustc", "arch"];

impl Fingerprint {
    pub fn host() -> Self {
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu: cpu_model(),
            features: "simd".into(),
            kernel: la_blas::kernel::kernel_for::<f64>(la_core::tune::GemmKernel::Auto)
                .name()
                .into(),
            rustc: env!("LABENCH_RUSTC_VERSION").into(),
            arch: std::env::consts::ARCH.into(),
        }
    }

    fn fields(&self) -> [String; 6] {
        [
            self.cores.to_string(),
            self.cpu.clone(),
            self.features.clone(),
            self.kernel.clone(),
            self.rustc.clone(),
            self.arch.clone(),
        ]
    }

    fn write(&self, j: &mut JsonBuf) {
        j.begin_obj();
        for (k, v) in FINGERPRINT_KEYS.iter().zip(self.fields()) {
            j.field_str(k, &v);
        }
        j.end_obj();
    }

    fn parse(v: &Json) -> Result<Self, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fingerprint: missing {k}"))
        };
        Ok(Fingerprint {
            cores: field("cores")?
                .parse()
                .map_err(|e| format!("fingerprint cores: {e}"))?,
            cpu: field("cpu")?,
            features: field("features")?,
            kernel: field("kernel")?,
            rustc: field("rustc")?,
            arch: field("arch")?,
        })
    }

    /// The fields that differ from `other`, as `key: a != b` lines.
    pub fn mismatches(&self, other: &Fingerprint) -> Vec<String> {
        FINGERPRINT_KEYS
            .iter()
            .zip(self.fields().iter().zip(other.fields()))
            .filter(|(_, (a, b))| *a != b)
            .map(|(k, (a, b))| format!("{k}: {a:?} != {b:?}"))
            .collect()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything one run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub fingerprint: Fingerprint,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Metrics,
    /// Further measurements kept in the result document only.
    pub extra: Metrics,
}

impl RunResult {
    /// The full result document, with the trace's spans when given.
    pub fn to_json(&self, spans: Option<&Tracer>) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_str("workload", &self.workload);
        j.field_uint("seed", self.seed);
        j.key("trace");
        j.boolean(self.trace);
        j.key("fingerprint");
        self.fingerprint.write(&mut j);
        j.key("correct");
        j.boolean(self.correct);
        j.field_uint("attempted", self.attempted);
        j.field_uint("failed", self.failed);
        j.key("metrics");
        self.metrics.write(&mut j);
        j.key("extra");
        self.extra.write(&mut j);
        if let Some(t) = spans {
            j.key("spans");
            t.write_json(&mut j);
        }
        j.end_obj();
        j.into_string()
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        let doc = Json::parse(s)?;
        let str_of = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result: missing {k}"))
        };
        let num_of = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result: missing {k}"))
        };
        let bool_of = |k: &str| match doc.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("result: missing {k}")),
        };
        let obj = |k: &str| doc.get(k).ok_or_else(|| format!("result: missing {k}"));
        Ok(RunResult {
            workload: str_of("workload")?,
            seed: num_of("seed")? as u64,
            trace: bool_of("trace")?,
            fingerprint: Fingerprint::parse(obj("fingerprint")?)?,
            correct: bool_of("correct")?,
            attempted: num_of("attempted")? as u64,
            failed: num_of("failed")? as u64,
            metrics: Metrics::parse(obj("metrics")?)?,
            extra: Metrics::parse(obj("extra")?)?,
        })
    }

    /// The last line the benchmark prints.
    pub fn summary_line(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("correct");
        j.boolean(self.correct);
        j.field_uint("attempted", self.attempted);
        j.field_uint("failed", self.failed);
        j.key("metrics");
        self.metrics.write(&mut j);
        j.end_obj();
        j.into_string()
    }
}

/// Compares two result documents metric by metric. Refuses results from
/// different hosts, builds or workloads.
pub fn compare(a: &RunResult, b: &RunResult) -> Result<String, String> {
    let mismatched = a.fingerprint.mismatches(&b.fingerprint);
    if !mismatched.is_empty() {
        return Err(format!(
            "refusing to compare results with different fingerprints:\n  {}",
            mismatched.join("\n  ")
        ));
    }
    if a.workload != b.workload || a.trace != b.trace {
        return Err(format!(
            "refusing to compare {} (trace {}) with {} (trace {})",
            a.workload, a.trace, b.workload, b.trace
        ));
    }
    let mut out = format!("{:<32} {:>14} {:>14} {:>8}\n", a.workload, "a", "b", "b/a");
    for m in a.metrics.0.iter().chain(&a.extra.0) {
        let Some(v) = b.metrics.get(&m.name).or_else(|| b.extra.get(&m.name)) else {
            continue;
        };
        out += &format!(
            "{:<32} {:>14.6} {:>14.6} {:>8.3}  {}\n",
            m.name,
            m.value,
            v,
            v / m.value,
            m.unit
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut metrics = Metrics::default();
        metrics.push("latency_p50_ms", 0.123_456_789_012_345_6, "ms");
        metrics.push("setup_s", 1e-4 / 3.0, "s");
        let mut extra = Metrics::default();
        extra.push("fail_ratio", 0.0, "ratio");
        extra.push("la90.self_us.n8", -0.25, "us");
        RunResult {
            workload: "small_solves".into(),
            seed: 42,
            trace: false,
            fingerprint: Fingerprint {
                cores: 2,
                cpu: "Some \"CPU\" @ 2.0GHz".into(),
                features: "simd".into(),
                kernel: "simd".into(),
                rustc: "rustc 1.0.0".into(),
                arch: "x86_64".into(),
            },
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
            extra,
        }
    }

    #[test]
    fn result_round_trips_through_la_core_json() {
        let r = sample();
        let mut t = Tracer::new();
        t.time("la90", 3, None, || ());
        let back = RunResult::from_json(&r.to_json(Some(&t))).unwrap();
        assert_eq!(back, r);
        // Values survive bit for bit.
        assert_eq!(
            back.metrics.get("setup_s").unwrap().to_bits(),
            (1e-4f64 / 3.0).to_bits()
        );
    }

    #[test]
    fn summary_line_has_exactly_the_four_keys() {
        let line = sample().summary_line();
        let Json::Obj(members) = Json::parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = members[3].1.get("latency_p50_ms").unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn compare_refuses_mixed_fingerprints() {
        let a = sample();
        let mut b = sample();
        assert!(compare(&a, &b).is_ok());
        b.fingerprint.cores = 4;
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("cores"), "{err}");
        let mut c = sample();
        c.fingerprint.features = String::new();
        assert!(compare(&a, &c).is_err());
    }
}
