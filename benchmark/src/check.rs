//! `check <a.json> <b.json>`: is run B worse than run A, per workload and
//! end-to-end metric, by more than the benchmark's own bounds?

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The two runs cannot be compared: the host was differently loaded, or
    /// a run's own rounds spread wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

pub struct Report {
    pub rows: Vec<Row>,
    /// Median `lake.host_calib_ms` of each run.
    pub calib_ms: (f64, f64),
}

fn numbers(v: Option<&Json>) -> Vec<f64> {
    v.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// (max − min) ÷ median of a run's rounds; 0 for a single round.
fn spread(rounds: &[f64], med: f64) -> f64 {
    let max = rounds.iter().copied().fold(f64::MIN, f64::max);
    let min = rounds.iter().copied().fold(f64::MAX, f64::min);
    if rounds.len() < 2 || med == 0.0 {
        0.0
    } else {
        (max - min) / med.abs()
    }
}

/// Compares two `results.json` documents. A workload or metric missing from
/// either side is an error, not a pass.
pub fn check(a: &Json, b: &Json) -> Result<Report, String> {
    let calib = |doc: &Json| median(&mut numbers(doc.get("host_calib_ms")));
    let calib_ms = (calib(a), calib(b));
    let host_differs = calib_ms.0 > 0.0 && ((calib_ms.1 - calib_ms.0) / calib_ms.0).abs() > 0.10;
    let workloads = a.get("workloads").and_then(Json::as_obj).ok_or("A has no workloads")?;
    let mut rows = Vec::new();
    for (name, wa) in workloads {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("B has no workload {name}"))?;
        for m in &END_TO_END {
            let side = |w: &Json, which: &str| {
                let entry = w.get("end_to_end").and_then(|e| e.get(m.name));
                let med = entry.and_then(|e| e.get("median")).and_then(Json::as_f64);
                let rounds = numbers(entry.and_then(|e| e.get("rounds")));
                med.map(|med| (med, spread(&rounds, med)))
                    .ok_or_else(|| format!("{which} has no {name}.{}", m.name))
            };
            let ((va, sa), (vb, sb)) = (side(wa, "A")?, side(wb, "B")?);
            let worse_by = if m.better == "lower" { (vb - va) / va } else { (va - vb) / va };
            let verdict = if host_differs || sa > m.bound || sb > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row { workload: name.clone(), metric: m.name, a: va, b: vb, verdict });
        }
    }
    Ok(Report { rows, calib_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results document with one workload whose every metric has the given
    /// three rounds, made worse by `excess` times the metric's own bound.
    fn doc(calib_ms: f64, excess: f64, rounds: [f64; 3]) -> Json {
        let metrics = END_TO_END.iter().map(|m| {
            let by = excess * m.bound;
            let s = if m.better == "lower" { 1.0 + by } else { 1.0 - by };
            let mut r: Vec<f64> = rounds.iter().map(|v| v * s).collect();
            let med = median(&mut r);
            let entry = Json::obj([
                ("rounds", Json::Arr(r.into_iter().map(Json::Num).collect())),
                ("median", Json::Num(med)),
            ]);
            (m.name, entry)
        });
        Json::obj([
            ("host_calib_ms", Json::Arr(vec![Json::Num(calib_ms)])),
            ("workloads", Json::obj([("point", Json::obj([("end_to_end", Json::obj(metrics))]))])),
        ])
    }

    fn all(a: &Json, b: &Json, want: Verdict) -> bool {
        let report = check(a, b).unwrap();
        report.rows.len() == END_TO_END.len() && report.rows.iter().all(|r| r.verdict == want)
    }

    const STEADY: [f64; 3] = [100.0, 101.0, 99.0];

    #[test]
    fn same_numbers_are_ok_and_a_gain_is_ok() {
        let a = doc(500.0, 0.0, STEADY);
        assert!(all(&a, &a, Verdict::Ok));
        assert!(all(&a, &doc(500.0, -2.0, STEADY), Verdict::Ok));
    }

    #[test]
    fn worse_only_beyond_each_metrics_own_bound() {
        let a = doc(500.0, 0.0, STEADY);
        assert!(all(&a, &doc(500.0, 0.8, STEADY), Verdict::Ok));
        assert!(all(&a, &doc(500.0, 1.2, STEADY), Verdict::Worse));
    }

    #[test]
    fn unresolved_when_the_host_or_the_rounds_disagree() {
        let a = doc(500.0, 0.0, STEADY);
        assert!(all(&a, &doc(580.0, 2.0, STEADY), Verdict::Unresolved));
        assert!(all(&a, &doc(500.0, 2.0, [100.0, 140.0, 80.0]), Verdict::Unresolved));
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let a = doc(500.0, 0.0, STEADY);
        let empty = Json::obj([("workloads", Json::obj([("point", Json::obj::<String>([]))]))]);
        assert!(check(&a, &empty).is_err());
        assert!(check(&a, &Json::obj::<String>([])).is_err());
    }
}
