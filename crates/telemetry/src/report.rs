//! Structured, schema-versioned run reports.
//!
//! A [`RunReport`] is one run cell's telemetry: identity (workload,
//! component, scale), the cumulative per-epoch counter rows, the
//! histograms, and end-of-run named counters. Reports serialize to JSON
//! under the [`SCHEMA`] tag and parse back with [`RunReport::from_json`]
//! so the `report` CLI and CI validators can consume files from older
//! runs and reject files from incompatible ones.

use std::fmt::Write as _;

use crate::hist::FixedHistogram;
use crate::json::{self, Json};

/// Schema tag written into every report; bump on breaking layout change.
pub const SCHEMA: &str = "domino-telemetry/1";

/// Telemetry of one run cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Schema tag ([`SCHEMA`] when produced by this crate version).
    pub schema: String,
    /// Workload name (e.g. `OLTP`).
    pub workload: String,
    /// Component / prefetcher name (e.g. `Domino`).
    pub component: String,
    /// Run kind: `coverage`, `timing`, or `multicore`.
    pub kind: String,
    /// Trace events in the run.
    pub events: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Warmup prefix in accesses (included in the series; excluded from
    /// the engine's headline metrics).
    pub warmup: u64,
    /// Epoch length in ticks of the epoch clock, which the engines
    /// advance once per L1 miss (not per access; the name is kept for
    /// schema compatibility).
    pub epoch_accesses: u64,
    /// Column names of the epoch rows.
    pub fields: Vec<String>,
    /// Cumulative counter rows, one per epoch, in field order.
    pub epochs: Vec<Vec<u64>>,
    /// Named histograms.
    pub histograms: Vec<(String, FixedHistogram)>,
    /// End-of-run named counters (sorted by name before export).
    pub counters: Vec<(String, u64)>,
}

/// One epoch's *delta* row (cumulative rows differenced), plus derived
/// rates used by the anomaly scan.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDelta {
    /// Epoch index (0-based).
    pub index: usize,
    /// Field values for this epoch alone.
    pub values: Vec<u64>,
}

impl RunReport {
    /// Index of a field by name.
    pub fn field(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == name)
    }

    /// Per-epoch deltas of the cumulative rows (first epoch is itself).
    pub fn deltas(&self) -> Vec<EpochDelta> {
        let mut out = Vec::with_capacity(self.epochs.len());
        let width = self.fields.len();
        let mut prev = vec![0u64; width];
        for (index, row) in self.epochs.iter().enumerate() {
            let values: Vec<u64> = row
                .iter()
                .zip(&prev)
                .map(|(&cur, &p)| cur.saturating_sub(p))
                .collect();
            prev.clone_from(row);
            out.push(EpochDelta { index, values });
        }
        out
    }

    /// Per-epoch ratio `num/den` over the delta rows (`None` entries
    /// where the epoch's denominator is zero).
    pub fn epoch_rate(&self, num: &str, den: &str) -> Option<Vec<Option<f64>>> {
        let (ni, di) = (self.field(num)?, self.field(den)?);
        Some(
            self.deltas()
                .iter()
                .map(|d| {
                    let den = d.values[di];
                    (den > 0).then(|| d.values[ni] as f64 / den as f64)
                })
                .collect(),
        )
    }

    /// Epoch indices whose `num/den` rate drops more than `factor`×
    /// below the run-mean rate — the report CLI's anomaly flag
    /// (`factor = 2.0`: "epochs where accuracy is >2× below the mean").
    pub fn anomalous_epochs(&self, num: &str, den: &str, factor: f64) -> Vec<usize> {
        let Some(rates) = self.epoch_rate(num, den) else {
            return Vec::new();
        };
        let defined: Vec<f64> = rates.iter().filter_map(|r| *r).collect();
        if defined.is_empty() {
            return Vec::new();
        }
        let mean = defined.iter().sum::<f64>() / defined.len() as f64;
        let floor = mean / factor;
        rates
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                Some(v) if *v < floor => Some(i),
                _ => None,
            })
            .collect()
    }

    /// End-of-run counter lookup.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the report as pretty-printed JSON. Counters are sorted
    /// by name and every collection renders in deterministic order, so
    /// identical runs produce byte-identical files at any job count.
    pub fn to_json(&self) -> String {
        let mut counters = self.counters.clone();
        counters.sort();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json::quote(&self.schema));
        let _ = writeln!(out, "  \"workload\": {},", json::quote(&self.workload));
        let _ = writeln!(out, "  \"component\": {},", json::quote(&self.component));
        let _ = writeln!(out, "  \"kind\": {},", json::quote(&self.kind));
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"warmup\": {},", self.warmup);
        let _ = writeln!(out, "  \"epoch_accesses\": {},", self.epoch_accesses);
        let fields: Vec<String> = self.fields.iter().map(|f| json::quote(f)).collect();
        let _ = writeln!(out, "  \"fields\": [{}],", fields.join(", "));
        out.push_str("  \"epochs\": [\n");
        for (i, row) in self.epochs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}{}",
                json::u64_array(row),
                if i + 1 < self.epochs.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"bounds\": {}, \"counts\": {}, \"sum\": {}}}{}",
                json::quote(name),
                json::u64_array(h.bounds()),
                json::u64_array(h.counts()),
                h.sum(),
                if i + 1 < self.histograms.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  ],\n  \"counters\": [\n");
        for (i, (name, value)) in counters.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {}}}{}",
                json::quote(name),
                value,
                if i + 1 < counters.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report, validating the schema tag and the row shapes.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        Self::from_value(&json::parse(text)?)
    }

    /// [`RunReport::from_json`] over an already-parsed [`Json`] value
    /// (e.g. one element of an aggregate sweep file's `reports` array).
    pub fn from_value(v: &Json) -> Result<RunReport, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?}, want {SCHEMA:?}"));
        }
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field {name:?}"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or(format!("missing integer field {name:?}"))
        };
        let u64_vec = |item: &Json| -> Result<Vec<u64>, String> {
            item.as_arr()
                .ok_or("expected array")?
                .iter()
                .map(|x| x.as_u64().ok_or("expected unsigned integer".to_string()))
                .collect()
        };
        let fields: Vec<String> = v
            .get("fields")
            .and_then(Json::as_arr)
            .ok_or("missing fields")?
            .iter()
            .map(|f| f.as_str().map(str::to_string).ok_or("non-string field"))
            .collect::<Result<_, _>>()?;
        let epochs: Vec<Vec<u64>> = v
            .get("epochs")
            .and_then(Json::as_arr)
            .ok_or("missing epochs")?
            .iter()
            .map(u64_vec)
            .collect::<Result<_, _>>()?;
        for row in &epochs {
            if row.len() != fields.len() {
                return Err(format!(
                    "ragged epoch row: {} values for {} fields",
                    row.len(),
                    fields.len()
                ));
            }
        }
        let histograms: Vec<(String, FixedHistogram)> = v
            .get("histograms")
            .and_then(Json::as_arr)
            .ok_or("missing histograms")?
            .iter()
            .map(|h| -> Result<_, String> {
                let name = h
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("histogram without name")?;
                let bounds = u64_vec(h.get("bounds").ok_or("histogram without bounds")?)?;
                let counts = u64_vec(h.get("counts").ok_or("histogram without counts")?)?;
                let sum = h
                    .get("sum")
                    .and_then(Json::as_u64)
                    .ok_or("histogram without sum")?;
                if counts.len() != bounds.len() + 1 {
                    return Err(format!("histogram {name:?}: bad bucket count"));
                }
                Ok((
                    name.to_string(),
                    FixedHistogram::from_parts(bounds, counts, sum),
                ))
            })
            .collect::<Result<_, _>>()?;
        let counters: Vec<(String, u64)> = v
            .get("counters")
            .and_then(Json::as_arr)
            .ok_or("missing counters")?
            .iter()
            .map(|c| -> Result<_, String> {
                Ok((
                    c.get("name")
                        .and_then(Json::as_str)
                        .ok_or("counter without name")?
                        .to_string(),
                    c.get("value")
                        .and_then(Json::as_u64)
                        .ok_or("counter without value")?,
                ))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunReport {
            schema: schema.to_string(),
            workload: str_field("workload")?,
            component: str_field("component")?,
            kind: str_field("kind")?,
            events: u64_field("events")?,
            seed: u64_field("seed")?,
            warmup: u64_field("warmup")?,
            epoch_accesses: u64_field("epoch_accesses")?,
            fields,
            epochs,
            histograms,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut h = FixedHistogram::new(&[4, 16]);
        h.record(2);
        h.record(100);
        RunReport {
            schema: SCHEMA.to_string(),
            workload: "OLTP".into(),
            component: "Domino".into(),
            kind: "coverage".into(),
            events: 100,
            seed: 42,
            warmup: 25,
            epoch_accesses: 50,
            fields: vec!["accesses".into(), "covered".into(), "issued".into()],
            epochs: vec![vec![50, 10, 20], vec![100, 40, 50]],
            histograms: vec![("distance".into(), h)],
            counters: vec![("z.last".into(), 9), ("a.first".into(), 1)],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample();
        let text = r.to_json();
        let back = RunReport::from_json(&text).unwrap();
        // Counters are sorted on export.
        let mut expect = r.clone();
        expect.counters.sort();
        assert_eq!(back, expect);
    }

    #[test]
    fn deltas_difference_cumulative_rows() {
        let r = sample();
        let d = r.deltas();
        assert_eq!(d[0].values, vec![50, 10, 20]);
        assert_eq!(d[1].values, vec![50, 30, 30]);
    }

    #[test]
    fn epoch_rate_and_anomalies() {
        let mut r = sample();
        // Accuracy per epoch: 0.5, 1.0 → mean 0.75; nothing below 0.375.
        assert!(r.anomalous_epochs("covered", "issued", 2.0).is_empty());
        // Add a collapsed epoch: 1 covered of 40 issued (rate 0.025).
        r.epochs.push(vec![150, 41, 90]);
        let flagged = r.anomalous_epochs("covered", "issued", 2.0);
        assert_eq!(flagged, vec![2]);
    }

    #[test]
    fn zero_denominator_epochs_are_skipped() {
        let mut r = sample();
        r.epochs.push(vec![150, 40, 50]); // no issues this epoch
        let rates = r.epoch_rate("covered", "issued").unwrap();
        assert_eq!(rates[2], None);
        assert!(r.anomalous_epochs("covered", "issued", 2.0).is_empty());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample().to_json().replace(SCHEMA, "domino-telemetry/999");
        let err = RunReport::from_json(&text).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let mut r = sample();
        r.epochs[1].pop();
        let err = RunReport::from_json(&r.to_json()).unwrap_err();
        assert!(err.contains("ragged"), "{err}");
    }

    #[test]
    fn counter_lookup() {
        let r = sample();
        assert_eq!(r.counter("a.first"), Some(1));
        assert_eq!(r.counter("missing"), None);
    }
}
