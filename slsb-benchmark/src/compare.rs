//! Result records and `slsb-benchmark compare`.
//!
//! Every run can append its result to a JSON Lines file (`--out`). Given
//! the files of a parent (A) and a change (B), `compare` judges each
//! end-to-end metric of `BENCHMARK.json` per workload:
//!
//! - **regressed**: B's median is worse than A's by more than the bound,
//!   and by more than A's own quartile spread;
//! - **unresolved**: A's own quartile spread exceeds the bound, so a
//!   difference that size cannot be told from noise — unless every B run
//!   reads better than every A run;
//! - **improved**: B wins at least 9 of every 10 pairs (i-th A run against
//!   i-th B run, ties counting for neither) and the medians differ by more
//!   than A's interquartile distance;
//! - **unchanged** otherwise.

use crate::layers::Better;
use crate::stats::{median, quartiles, relative_spread};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The last line a run prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// One line of an `--out` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: u8,
    pub result: RunReport,
}

/// The subset of `BENCHMARK.json` compare needs.
#[derive(Debug, Deserialize)]
pub struct BenchmarkFile {
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
    pub workloads: Vec<NamedWorkload>,
}

#[derive(Debug, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[derive(Debug, Deserialize)]
pub struct NamedWorkload {
    pub name: String,
}

impl BenchmarkFile {
    pub fn parse(text: &str) -> Result<BenchmarkFile, String> {
        serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))
    }
}

fn better(s: &str) -> Result<Better, String> {
    match s {
        "higher" => Ok(Better::Higher),
        "lower" => Ok(Better::Lower),
        other => Err(format!("unknown direction {other:?}")),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric on one workload, A against B.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub median_a: f64,
    pub median_b: f64,
    /// `(B − A) / A`, signed so that positive is worse.
    pub worse_by: f64,
    /// A's interquartile distance over its median.
    pub spread_a: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

pub fn judge(a: &[f64], b: &[f64], dir: Better, bound: f64) -> Judgement {
    let (ma, mb) = (median(a), median(b));
    let sign = match dir {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (mb - ma) / ma.abs();
    let is_better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| is_better(b[i], a[i])).count();
    let all_better = b.iter().all(|&y| a.iter().all(|&x| is_better(y, x)));
    let (q1, q3) = quartiles(a);
    let spread_a = relative_spread(a);
    let gain = pairs > 0 && wins * 10 >= pairs * 9 && (mb - ma).abs() > q3 - q1 && worse_by < 0.0;
    // A slowdown larger than both the bound and A's noise is a regression
    // even when that noise is wider than the bound.
    let verdict = if worse_by > bound.max(spread_a) {
        Verdict::Regressed
    } else if spread_a > bound && !all_better {
        Verdict::Unresolved
    } else if gain {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        median_a: ma,
        median_b: mb,
        worse_by,
        spread_a,
        wins,
        pairs,
        verdict,
    }
}

pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Renders the comparison; the flag is true when B regressed or produced
/// incorrect runs.
pub fn compare(
    bench: &BenchmarkFile,
    a: &[Record],
    b: &[Record],
) -> Result<(String, bool), String> {
    let mut out = format!(
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>8} {:>6} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "A iqr", "bound", "wins"
    );
    let mut bad = false;
    for w in &bench.workloads {
        let runs = |rs: &[Record]| -> Vec<RunReport> {
            rs.iter()
                .filter(|r| r.workload == w.name && r.trace == 0)
                .map(|r| r.result.clone())
                .collect()
        };
        let (ra, rb) = (runs(a), runs(b));
        if ra.is_empty() || rb.is_empty() {
            out.push_str(&format!(
                "{:<14} (no untraced runs on both sides)\n",
                w.name
            ));
            continue;
        }
        let incorrect = rb.iter().filter(|r| !r.correct || r.failed > 0).count();
        if incorrect > 0 {
            bad = true;
            out.push_str(&format!(
                "{:<14} {incorrect} B runs failed their output checks\n",
                w.name
            ));
        }
        for m in &bench.end_to_end {
            let vals = |rs: &[RunReport]| -> Result<Vec<f64>, String> {
                rs.iter()
                    .map(|r| {
                        r.metrics
                            .get(&m.name)
                            .map(|v| v.value)
                            .ok_or_else(|| format!("{}: a run lacks {}", w.name, m.name))
                    })
                    .collect()
            };
            let j = judge(&vals(&ra)?, &vals(&rb)?, better(&m.better)?, m.bound);
            bad |= j.verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{:<14} {:<18} {:>12.6} {:>12.6} {:>7.1}% {:>7.1}% {:>5.0}% {:>2}/{:<3}  {}\n",
                w.name,
                format!("{} ({})", m.name, m.unit),
                j.median_a,
                j.median_b,
                j.worse_by * 100.0,
                j.spread_a * 100.0,
                m.bound * 100.0,
                j.wins,
                j.pairs,
                j.verdict.name()
            ));
        }
    }
    out.push_str(&layer_moves(bench, a, b)?);
    Ok((out, bad))
}

/// Per-layer metrics have no bound; this lists, per workload, the ones
/// whose median moved by more than A's own interquartile distance, so a
/// regression above can be traced to a layer.
fn layer_moves(bench: &BenchmarkFile, a: &[Record], b: &[Record]) -> Result<String, String> {
    let mut out = String::new();
    for w in &bench.workloads {
        let traced = |rs: &[Record]| -> Vec<RunReport> {
            rs.iter()
                .filter(|r| r.workload == w.name && r.trace == 1)
                .map(|r| r.result.clone())
                .collect()
        };
        let (ra, rb) = (traced(a), traced(b));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for m in &bench.per_layer {
            let vals = |rs: &[RunReport]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).map(|v| v.value))
                    .collect()
            };
            let (va, vb) = (vals(&ra), vals(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&va);
            let (ma, mb) = (median(&va), median(&vb));
            if (mb - ma).abs() > q3 - q1 {
                let dir = better(&m.better)?;
                let worse = (dir == Better::Lower) == (mb > ma);
                out.push_str(&format!(
                    "layer {:<14} {:<40} {:>14.6} -> {:>14.6} {:<6} {}\n",
                    w.name,
                    m.name,
                    ma,
                    mb,
                    m.unit,
                    if worse { "worse" } else { "better" }
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 3)).collect()
    }

    #[test]
    fn bound_logic() {
        // Tight runs, B 20% slower: beyond a 10% bound.
        let a = ten(1.0, 0.01);
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let j = judge(&a, &slow, Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Regressed);
        assert!((j.worse_by - 0.2).abs() < 1e-9);
        // 5% slower stays within the bound.
        let bit: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            judge(&a, &bit, Better::Lower, 0.10).verdict,
            Verdict::Unchanged
        );
        // B faster in every pair by more than A's spread: a gain.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let j = judge(&a, &fast, Better::Lower, 0.10);
        assert_eq!((j.verdict, j.wins, j.pairs), (Verdict::Improved, 10, 10));
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            judge(&a, &slow, Better::Higher, 0.10).verdict,
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &fast, Better::Higher, 0.10).verdict,
            Verdict::Regressed
        );
        // A spread wider than the bound leaves a slowdown unresolved...
        let noisy = ten(1.0, 0.3);
        assert!(relative_spread(&noisy) > 0.10);
        let worse: Vec<f64> = noisy.iter().map(|x| x * 1.15).collect();
        assert_eq!(
            judge(&noisy, &worse, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        // ...unless every B run beats every A run...
        let far: Vec<f64> = noisy.iter().map(|x| x * 0.3).collect();
        assert_eq!(
            judge(&noisy, &far, Better::Lower, 0.10).verdict,
            Verdict::Improved
        );
        // ...and a slowdown beyond A's spread is still a regression.
        let doubled: Vec<f64> = noisy.iter().map(|x| x * 2.0).collect();
        assert_eq!(
            judge(&noisy, &doubled, Better::Lower, 0.10).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_reads_records_and_flags_regressions() {
        let bench = BenchmarkFile::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        let line = |wall: f64| {
            let mut metrics = BTreeMap::new();
            metrics.insert(
                "wall_s".to_string(),
                MetricValue {
                    value: wall,
                    unit: "s".into(),
                },
            );
            serde_json::to_string(&Record {
                workload: "w".into(),
                seed: 1,
                trace: 0,
                result: RunReport {
                    correct: true,
                    attempted: 3,
                    failed: 0,
                    metrics,
                },
            })
            .unwrap()
        };
        let a: String = (0..10)
            .map(|i| line(1.0 + 0.001 * f64::from(i)) + "\n")
            .collect();
        let b: String = (0..10)
            .map(|i| line(1.5 + 0.001 * f64::from(i)) + "\n")
            .collect();
        let (a, b) = (parse_records(&a).unwrap(), parse_records(&b).unwrap());
        let (text, bad) = compare(&bench, &a, &b).unwrap();
        assert!(bad, "{text}");
        assert!(text.contains("regressed"), "{text}");
        let (text, bad) = compare(&bench, &a, &a).unwrap();
        assert!(!bad && text.contains("unchanged"), "{text}");
    }
}
