//! The regression corpus: shrunk failing scenarios, pinned forever.
//!
//! Workflow (documented in ROADMAP.md):
//!
//! 1. A sweep or property test observes a factorized-vs-materialized
//!    divergence and [`shrink`](fn@crate::shrink)s it; the failure message
//!    contains the minimal spec as one line of JSON.
//! 2. That JSON is appended — with a note naming the bug — to
//!    `crates/gen/corpus/regressions.json` and committed together with
//!    the fix.
//! 3. Every subsequent sweep, `cargo test`, and CI `scenario_sweep
//!    --quick` run replays the whole corpus first, so a fixed bug can
//!    never silently return.
//!
//! Entries are *specs*, not matrices: a few lines of JSON regenerate
//! the exact scenario bit-for-bit (generation is a pure function of
//! the spec).

use crate::diff::{check_scenario, Workload};
use crate::spec::ScenarioSpec;
use serde::{get_field, DeError, Deserialize, Serialize, Value};

/// One pinned scenario: the shrunk spec plus why it is here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// What this entry regression-tests (bug reference, one line).
    pub note: String,
    /// The shrunk scenario spec.
    pub spec: ScenarioSpec,
}

/// A set of pinned regression scenarios.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Corpus {
    /// The pinned entries, replayed in order.
    pub entries: Vec<CorpusEntry>,
}

impl Serialize for Corpus {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "schema".to_owned(),
                Value::Str("amalur-regression-corpus/v1".to_owned()),
            ),
            (
                "entries".to_owned(),
                Value::Array(self.entries.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

impl Deserialize for Corpus {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let schema: String = get_field(v, "schema")?;
        if schema != "amalur-regression-corpus/v1" {
            return Err(DeError(format!("unknown corpus schema `{schema}`")));
        }
        match v.get("entries") {
            Some(Value::Array(items)) => Ok(Self {
                entries: items
                    .iter()
                    .map(CorpusEntry::from_value)
                    .collect::<Result<_, _>>()?,
            }),
            _ => Err(DeError("missing `entries` array".to_owned())),
        }
    }
}

/// The checked-in corpus text, embedded so every consumer (tests, the
/// sweep bin, downstream crates) replays the same pinned set without
/// path gymnastics.
pub const BUILTIN_CORPUS_JSON: &str = include_str!("../corpus/regressions.json");

impl Corpus {
    /// Parses the checked-in regression corpus.
    ///
    /// # Panics
    /// When `corpus/regressions.json` does not parse — a broken corpus
    /// is a build error, not a runtime condition.
    pub fn builtin() -> Self {
        serde_json::from_str(BUILTIN_CORPUS_JSON).expect("corpus/regressions.json must parse")
    }

    /// Parses a corpus from JSON text.
    ///
    /// # Errors
    /// Returns the parse/validation error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Replays every entry through the differential harness, returning
    /// one `(entry, message)` per violation (empty = corpus green).
    pub fn replay(&self, workloads: &[Workload]) -> Vec<(CorpusEntry, String)> {
        let mut violations = Vec::new();
        for entry in &self.entries {
            match check_scenario(&entry.spec, workloads) {
                Ok(divergences) if divergences.is_empty() => {}
                Ok(divergences) => {
                    let details: Vec<String> =
                        divergences.iter().map(ToString::to_string).collect();
                    violations.push((entry.clone(), details.join("; ")));
                }
                Err(e) => violations.push((entry.clone(), format!("infrastructure: {e}"))),
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Topology;

    #[test]
    fn builtin_corpus_parses_and_is_nonempty() {
        let corpus = Corpus::builtin();
        assert!(
            corpus.entries.len() >= 6,
            "corpus should pin at least the original shrunk set, got {}",
            corpus.entries.len()
        );
        // Every topology family stays pinned.
        for kind in ["star", "snowflake", "chain", "m:n"] {
            assert!(
                corpus
                    .entries
                    .iter()
                    .any(|e| e.spec.topology.kind() == kind),
                "no corpus entry for {kind}"
            );
        }
    }

    #[test]
    fn corpus_round_trips_through_json() {
        let corpus = Corpus {
            entries: vec![CorpusEntry {
                note: "example".to_owned(),
                spec: ScenarioSpec {
                    topology: Topology::Chain { hops: 2 },
                    sparse_mask: 1,
                    density: 0.5,
                    ..ScenarioSpec::default()
                },
            }],
        };
        let text = serde_json::to_string_pretty(&corpus).unwrap();
        assert_eq!(Corpus::from_json(&text).unwrap(), corpus);
    }

    #[test]
    fn bad_schema_is_rejected() {
        assert!(Corpus::from_json(r#"{"schema":"nope/v9","entries":[]}"#).is_err());
    }

    #[test]
    fn builtin_corpus_replays_green() {
        let violations = Corpus::builtin().replay(&crate::ALL_WORKLOADS);
        assert!(
            violations.is_empty(),
            "{}",
            violations
                .iter()
                .map(|(e, m)| format!("[{}] {m}", e.note))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
