//! One workload run's result: the stamp, the metric values, and the
//! rendering the driver reads (human lines, then one JSON line).

use crate::spec::{self, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    stamp: Vec<(&'static str, String)>,
    values: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed beside the metric table.
    info: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64) -> Report {
        let mut r = Report {
            attempted: 0,
            failed: 0,
            stamp: Vec::new(),
            values: BTreeMap::new(),
            info: Vec::new(),
            notes: Vec::new(),
        };
        r.stamp("workload", workload);
        r.stamp("seed", seed);
        r.stamp(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        r.stamp("kernel", tss_core::Kernel::active().name());
        r.stamp("git_rev", git_rev());
        r
    }

    pub fn stamp(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.stamp.push((key, value.to_string()));
    }

    pub fn stamp_pairs(&self) -> Vec<(&'static str, String)> {
        self.stamp.clone()
    }

    /// Sets a metric of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::unit_of(name).is_some(),
            "{name} is not a declared metric"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push((name, value, unit));
    }

    /// Counts one attempted op; `Err` (a wrong answer, an error or a
    /// caught panic) also counts it as failed.
    pub fn outcome(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn correct_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// Human-readable lines, then the result line: every end-to-end
    /// metric (untraced run) or every per-layer metric (traced run).
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for (k, v) in &self.stamp {
            let _ = writeln!(out, "# stamp {k} = {v}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "# failure {n}");
        }
        let table = if traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        for m in table {
            let _ = writeln!(out, "{} = {} {}", m.name, num(self.get(m.name)), m.unit);
        }
        for (name, v, unit) in &self.info {
            let _ = writeln!(out, "{name} = {} {unit}", num(*v));
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                if !traced {
                    assert!(self.values.contains_key(m.name), "{} not measured", m.name);
                }
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(self.get(m.name)),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
