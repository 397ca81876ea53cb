//! `compare A.json B.json`: is B no worse than A, metric by metric and
//! workload by workload, by the bounds the benchmark fixed?

use dfsim_core::tables::TextTable;

use crate::harness::SCHEMA;
use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, SETUP_FLOOR_S};
use crate::stats::{fmt_value, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound, and by more than
    /// either side's own run-to-run spread.
    Regressed,
    /// The run-to-run spread is wider than the bound: the runs cannot tell
    /// "unchanged" from "regressed", and the row says so.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(a: &Summary, b: &Summary, m: &Metric) -> Verdict {
    // How much worse B's median is than A's (negative = better), and the
    // wider of the two run-to-run spreads, both absolute.
    let worse = match m.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1);
    // `setup_s` is microseconds on most workloads: below the floor neither a
    // shift nor a scatter means anything.
    let floor = if m.name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
    let bound = m.bound * a.median.abs();
    if worse > bound && worse > spread && worse > floor {
        Verdict::Regressed
    } else if spread > bound && spread > floor {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One workload of a result file.
struct Entry<'a> {
    name: &'a str,
    attempted: u64,
    failed: u64,
    events: u64,
    digest: &'a str,
    metrics: &'a Json,
}

fn entries<'a>(doc: &'a Json, path: &str) -> Result<Vec<Entry<'a>>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA)
        || doc.get("kind").and_then(Json::as_str) != Some("run")
    {
        return Err(format!("{path}: not a `{SCHEMA}` run file"));
    }
    let field = |w: &'a Json, key: &str| {
        w.get(key).ok_or_else(|| format!("{path}: a workload lacks `{key}`"))
    };
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no workloads"))?
        .iter()
        .map(|w| {
            Ok(Entry {
                name: field(w, "name")?.as_str().unwrap_or(""),
                attempted: field(w, "attempted")?.as_u64().unwrap_or(0),
                failed: field(w, "failed")?.as_u64().unwrap_or(0),
                events: field(w, "events")?.as_u64().unwrap_or(0),
                digest: field(w, "sim_digest")?.as_str().unwrap_or(""),
                metrics: field(w, "metrics")?,
            })
        })
        .collect()
}

fn summary(metrics: &Json, name: &str) -> Option<Summary> {
    let values: Vec<f64> =
        metrics.get(name)?.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    Summary::of(&values)
}

/// Compare two parsed run files; prints one row per (metric, workload) and
/// returns whether B passes: no `regressed` row and no larger failed share.
pub fn compare(a_doc: &Json, b_doc: &Json, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a_entries, b_entries) = (entries(a_doc, a_path)?, entries(b_doc, b_path)?);
    let mut pass = true;
    println!("A = {a_path}\nB = {b_path}");
    let mut table = TextTable::new(vec![
        "workload",
        "metric",
        "A median [min-max]",
        "B median [min-max]",
        "B/A",
        "spread A, B",
        "bound",
        "verdict",
    ]);
    let mut identities = Vec::new();
    for a in &a_entries {
        let Some(b) = b_entries.iter().find(|b| b.name == a.name) else {
            identities.push(format!("{:<18} missing from B", a.name));
            pass = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary(a.metrics, m.name), summary(b.metrics, m.name))
            else {
                identities.push(format!("{:<18} {}: no samples on one side", a.name, m.name));
                pass = false;
                continue;
            };
            let v = verdict(&sa, &sb, m);
            pass &= v != Verdict::Regressed;
            let side = |s: &Summary| {
                format!("{} [{}-{}]", fmt_value(s.median), fmt_value(s.min), fmt_value(s.max))
            };
            table.row(vec![
                a.name.to_string(),
                m.name.to_string(),
                side(&sa),
                side(&sb),
                format!("{:.4} (base {})", sb.median / sa.median, fmt_value(sa.median)),
                format!("{:.1}%, {:.1}%", sa.spread() * 100.0, sb.spread() * 100.0),
                format!("{:.0}%", m.bound * 100.0),
                v.label().to_string(),
            ]);
        }
        let same = a.events == b.events && a.digest == b.digest;
        // Failed shares compare as cross products, so 0 attempts is no
        // division.
        let more_failures = b.failed * a.attempted > a.failed * b.attempted;
        pass &= !more_failures;
        identities.push(format!(
            "{:<18} events {} vs {}, sim_digest {} vs {}: {}; failed_runs {}/{} vs {}/{}{}",
            a.name,
            a.events,
            b.events,
            a.digest,
            b.digest,
            if same { "identical" } else { "DIFFERENT simulated statistics" },
            a.failed,
            a.attempted,
            b.failed,
            b.attempted,
            if more_failures { ": MORE FAILURES" } else { "" }
        ));
    }
    print!("{}", table.render());
    println!("{}", identities.join("\n"));
    println!("{}", if pass { "PASS: no regression" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    /// A metric with a 10% bound, whatever the benchmark's own table says.
    fn metric(name: &'static str, better: Better) -> Metric {
        Metric { name, unit: "", better, bound: 0.10 }
    }

    #[test]
    fn verdicts_on_hand_made_samples() {
        let wall = &metric("wall_s", Better::Lower);
        let base = s(&[6.4, 6.5, 6.5, 6.6, 6.5]);
        assert_eq!(verdict(&base, &s(&[6.6, 6.7, 6.6, 6.8, 6.7]), wall), Verdict::Ok);
        assert_eq!(verdict(&base, &s(&[7.4, 7.5, 7.5, 7.6, 7.5]), wall), Verdict::Regressed);
        assert_eq!(verdict(&base, &s(&[5.0, 5.1, 5.0, 5.2, 5.1]), wall), Verdict::Ok, "faster");
        // Same median as the base, but the runs scatter by more than the
        // bound: not "unchanged".
        assert_eq!(verdict(&base, &s(&[5.5, 6.5, 7.6, 6.5, 5.6]), wall), Verdict::Unresolved);
        // Far worse than even a wide spread: still a regression.
        assert_eq!(verdict(&base, &s(&[12.0, 13.0, 14.5, 13.0, 12.1]), wall), Verdict::Regressed);

        let rate = &metric("events_per_s", Better::Higher);
        let base = s(&[2.0e6, 2.0e6, 2.1e6]);
        assert_eq!(verdict(&base, &s(&[1.7e6, 1.7e6, 1.7e6]), rate), Verdict::Regressed);
        assert_eq!(verdict(&base, &s(&[2.4e6, 2.4e6, 2.4e6]), rate), Verdict::Ok);
    }

    #[test]
    fn a_sub_floor_setup_change_is_not_a_regression() {
        let setup = &metric("setup_s", Better::Lower);
        let base = s(&[0.0003, 0.0003, 0.0003]);
        assert_eq!(verdict(&base, &s(&[0.0006, 0.0006, 0.0006]), setup), Verdict::Ok);
        assert_eq!(verdict(&base, &s(&[0.0001, 0.0003, 0.0009]), setup), Verdict::Ok, "scatter");
        assert_eq!(verdict(&s(&[6.5, 6.5, 6.5]), &s(&[9.0, 9.0, 9.0]), setup), Verdict::Regressed);
    }

    fn run_file(wall: [f64; 3], failed: u64, digest: &str) -> Json {
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let values = if m.name == "wall_s" { wall.to_vec() } else { vec![1.0, 1.0, 1.0] };
            (m.name, s(&values).to_json(m.unit, &values))
        }));
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("kind", Json::str("run")),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("fig8_qadp")),
                    ("attempted", Json::Num(3.0)),
                    ("failed", Json::Num(failed as f64)),
                    ("events", Json::Num(12_990_888.0)),
                    ("sim_digest", Json::str(digest)),
                    ("metrics", metrics),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_passes_a_a_and_fails_regressions_and_new_failures() {
        let a = run_file([6.5, 6.5, 6.6], 0, "00ff");
        // Through the file format, as the command reads it.
        let reread = Json::parse(&a.pretty()).unwrap();
        assert_eq!(compare(&a, &reread, "a", "a"), Ok(true));
        assert_eq!(compare(&a, &run_file([9.0, 9.0, 9.1], 0, "00ff"), "a", "b"), Ok(false));
        assert_eq!(compare(&a, &run_file([6.5, 6.5, 6.6], 1, "00ff"), "a", "b"), Ok(false));
        // Different simulated statistics are printed, not gated: a behaviour
        // fix changes them on purpose.
        assert_eq!(compare(&a, &run_file([6.5, 6.5, 6.6], 0, "1234"), "a", "b"), Ok(true));
        assert!(compare(&Json::obj([("schema", Json::str("other"))]), &a, "x", "a").is_err());
    }
}
