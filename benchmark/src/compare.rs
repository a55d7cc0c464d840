//! `benchmark compare`: judges a change against its parent from two sets
//! of repeated runs, one verdict per (workload, end-to-end metric).
//!
//! The rules are the benchmark's own: the regression bound of each metric
//! comes from `BENCHMARK.json`; a gain needs the change to win at least
//! nine tenths of the (parent, change) pairs, ties counting for neither,
//! with medians further apart than the parent's quartile spread; a metric
//! whose parent spread exceeds its bound is unresolved unless every change
//! run beats every parent run.

use std::collections::BTreeMap;

use actop_trace::{parse_json, Json};

use crate::stats::{median, quartiles};

/// One end-to-end metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end declarations of a `BENCHMARK.json` document.
pub fn bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let spec = parse_json(spec)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (better, bound) {
                (Some(b @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err(format!("{name}: needs better=lower|higher and a bound")),
            }
        })
        .collect()
}

/// Per-workload, per-metric values of a results file, in run order. The
/// file holds `--repeat` rows (one JSON object per line with `workload`
/// and `result`) or one document with those rows under `rows`.
pub fn load_runs(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let rows: Vec<Json> = match parse_json(text) {
        Ok(doc) => doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("document without a rows list")?
            .to_vec(),
        Err(_) => text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(parse_json)
            .collect::<Result<_, _>>()?,
    };
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for row in &rows {
        let (Some(workload), Some(Json::Obj(metrics))) = (
            row.get("workload").and_then(Json::as_str),
            row.get("result").and_then(|r| r.get("metrics")),
        ) else {
            continue;
        };
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// Judges one metric from paired runs (the `i`-th parent run against the
/// `i`-th change run).
pub fn judge(parent: &[f64], change: &[f64], bound: &Bound) -> Verdict {
    // `gain(a, b)`: how much better `b` reads than `a`, in the metric's
    // direction.
    let gain = |a: f64, b: f64| if bound.lower_is_better { a - b } else { b - a };
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = q3 - q1;
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(p, c) > 0.0));
    if spread > bound.bound * pm.abs() && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| gain(p, c) > 0.0)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(pm, cm) > spread {
        Verdict::Better
    } else if -gain(pm, cm) > bound.bound * pm.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Compares two results files under a `BENCHMARK.json`; returns the
/// report and whether any metric got worse.
pub fn compare(spec: &str, parent: &str, change: &str) -> Result<(String, bool), String> {
    let bounds = bounds(spec)?;
    let (parent, change) = (load_runs(parent)?, load_runs(change)?);
    let mut out = String::new();
    let mut worse = false;
    for (workload, p_metrics) in &parent {
        let Some(c_metrics) = change.get(workload) else {
            out.push_str(&format!("{workload}: no change runs\n"));
            continue;
        };
        for b in &bounds {
            let (Some(p), Some(c)) = (p_metrics.get(&b.name), c_metrics.get(&b.name)) else {
                continue;
            };
            let verdict = judge(p, c, b);
            worse |= verdict == Verdict::Worse;
            let (pq1, pq3) = quartiles(p);
            let (cq1, cq3) = quartiles(c);
            out.push_str(&format!(
                "{workload:<18} {:<14} {:<10} parent {} [{pq1}, {pq3}] change {} [{cq1}, {cq3}] n={}/{} bound {}\n",
                b.name,
                format!("{verdict:?}").to_lowercase(),
                median(p),
                median(c),
                p.len(),
                c.len(),
                b.bound,
            ));
        }
    }
    Ok((out, worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "wall_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&parent, &faster, &lower(0.05)), Verdict::Better);
        assert_eq!(judge(&parent, &slower, &lower(0.05)), Verdict::Worse);
        assert_eq!(judge(&parent, &same, &lower(0.05)), Verdict::Unchanged);
        // A parent spread wider than the bound leaves the metric open...
        let noisy: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i)).collect();
        let noisy_change: Vec<f64> = noisy.iter().map(|p| p * 1.01).collect();
        assert_eq!(
            judge(&noisy, &noisy_change, &lower(0.05)),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far: Vec<f64> = noisy.iter().map(|p| p - 20.0).collect();
        assert_eq!(judge(&noisy, &far, &lower(0.05)), Verdict::Better);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_pairs() {
        let parent = vec![10.0; 10];
        let mut change = vec![9.0; 10];
        change[0] = 11.0;
        assert_eq!(judge(&parent, &change, &lower(0.5)), Verdict::Better);
        change[1] = 10.0; // a tie counts for neither side
        assert_eq!(judge(&parent, &change, &lower(0.5)), Verdict::Unchanged);
    }

    #[test]
    fn loads_rows_and_documents() {
        let row = r#"{"workload":"w","seed":1,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":2.5,"unit":"s"}}}}"#;
        let lines = format!("{row}\n{row}\n");
        let runs = load_runs(&lines).unwrap();
        assert_eq!(runs["w"]["wall_s"], vec![2.5, 2.5]);
        let doc = format!("{{\"rows\":[{row}]}}");
        assert_eq!(load_runs(&doc).unwrap()["w"]["wall_s"], vec![2.5]);
        let spec = r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#;
        assert_eq!(bounds(spec).unwrap(), vec![lower(0.1)]);
    }
}
