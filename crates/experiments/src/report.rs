//! Measurement records and human-readable report formatting.

use serde::{Deserialize, Serialize};

/// One measured data point of an experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// The experiment the point belongs to (e.g. `"table1"`).
    pub experiment: String,
    /// The setting (e.g. `"basic model, even n"`).
    pub setting: String,
    /// The problem or quantity measured (e.g. `"leader election"`).
    pub quantity: String,
    /// Ring size.
    pub n: usize,
    /// Identifier universe size.
    pub universe: u64,
    /// The measured value (rounds, family size, …); `None` when the task is
    /// unsolvable in this setting.
    pub value: Option<f64>,
    /// The paper's asymptotic prediction evaluated at these parameters
    /// (constants set to 1), for shape comparison.
    pub predicted: Option<f64>,
    /// Whether the result was verified against ground truth.
    pub verified: bool,
}

impl Measurement {
    /// The ratio of measured value to prediction, if both are present —
    /// constant ratios across a sweep indicate the right asymptotic shape.
    pub fn ratio(&self) -> Option<f64> {
        match (self.value, self.predicted) {
            (Some(v), Some(p)) if p > 0.0 => Some(v / p),
            _ => None,
        }
    }
}

/// Formats measurements as a GitHub-flavoured markdown table, one row per
/// measurement, in the given order.
pub fn format_markdown_table(measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("| setting | quantity | n | N | measured | predicted (shape) | measured/predicted | verified |\n");
    out.push_str("|---|---|---:|---:|---:|---:|---:|---|\n");
    for m in measurements {
        let value = m
            .value
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "unsolvable".to_string());
        let predicted = m
            .predicted
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "—".to_string());
        let ratio = m
            .ratio()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "—".to_string());
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            m.setting,
            m.quantity,
            m.n,
            m.universe,
            value,
            predicted,
            ratio,
            if m.verified { "yes" } else { "NO" },
        ));
    }
    out
}

/// Averages the `value` of measurements sharing (setting, quantity, n,
/// universe), producing one row per group — useful to compress repetitions.
pub fn aggregate(measurements: &[Measurement]) -> Vec<Measurement> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(String, String, usize, u64), Vec<&Measurement>> = BTreeMap::new();
    for m in measurements {
        groups
            .entry((m.setting.clone(), m.quantity.clone(), m.n, m.universe))
            .or_default()
            .push(m);
    }
    groups
        .into_values()
        .map(|group| {
            let values: Vec<f64> = group.iter().filter_map(|m| m.value).collect();
            let mean = if values.is_empty() {
                None
            } else {
                Some(values.iter().sum::<f64>() / values.len() as f64)
            };
            Measurement {
                value: mean,
                verified: group.iter().all(|m| m.verified),
                ..group[0].clone()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(setting: &str, n: usize, value: Option<f64>) -> Measurement {
        Measurement {
            experiment: "test".into(),
            setting: setting.into(),
            quantity: "rounds".into(),
            n,
            universe: 64,
            value,
            predicted: Some(10.0),
            verified: true,
        }
    }

    #[test]
    fn markdown_table_contains_all_rows() {
        let rows = vec![sample("a", 8, Some(20.0)), sample("b", 9, None)];
        let table = format_markdown_table(&rows);
        assert!(table.contains("| a | rounds | 8 | 64 | 20 | 10.0 | 2.00 | yes |"));
        assert!(table.contains("unsolvable"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn aggregation_averages_repetitions() {
        let rows = vec![
            sample("a", 8, Some(10.0)),
            sample("a", 8, Some(20.0)),
            sample("b", 8, Some(5.0)),
        ];
        let agg = aggregate(&rows);
        assert_eq!(agg.len(), 2);
        let a = agg.iter().find(|m| m.setting == "a").unwrap();
        assert_eq!(a.value, Some(15.0));
    }

    #[test]
    fn ratio_requires_both_values() {
        assert_eq!(sample("a", 8, None).ratio(), None);
        assert_eq!(sample("a", 8, Some(20.0)).ratio(), Some(2.0));
    }

    #[test]
    fn from_json_round_trips_serialization() {
        let unpredicted = Measurement {
            universe: u64::MAX,
            predicted: None,
            verified: false,
            ..sample("c", 1 << 20, Some(0.5))
        };
        for m in [
            sample("a", 8, Some(20.0)),
            sample("b", 9, None),
            unpredicted,
        ] {
            let text = serde_json::to_string(&m).unwrap();
            let parsed = Measurement::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(parsed, m);
        }
        let read = |text: &str| Measurement::from_json(&serde_json::from_str(text).unwrap());
        assert_eq!(
            read("{}").unwrap_err(),
            "Measurement is missing `experiment`"
        );
        let line = serde_json::to_string(&sample("a", 8, None)).unwrap();
        assert_eq!(
            read(&line.replace("\"n\":8", "\"n\":-8")).unwrap_err(),
            "Measurement.n: expected an unsigned integer, found a number"
        );
        assert!(read(&line.replace("\"verified\":true", "\"verified\":1")).is_err());
        // A null or absent `value` is an unsolvable task.
        let absent = line.replace("\"value\":null,", "");
        assert_ne!(absent, line);
        assert_eq!(read(&absent).unwrap(), sample("a", 8, None));
    }
}
