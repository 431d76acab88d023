//! The scenario grammar: what a generated DI landscape looks like.
//!
//! A [`ScenarioSpec`] is a small, fully serializable description of a
//! data-integration scenario — topology plus a handful of continuous
//! knobs. Everything downstream (generation, shrinking, the regression
//! corpus) operates on this value, never on the generated matrices, so
//! a failing scenario can be pinned, minimized and replayed from a few
//! lines of JSON.

use serde::{get_field, DeError, Deserialize, Serialize, Value};

/// How the sources relate to one another.
///
/// Every topology has a distinguished *base* table whose rows define the
/// target rows (except [`Topology::ManyToMany`], where target rows are
/// link edges). The remaining sources augment it with feature columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One fact table, `satellites` dimension tables joined directly to
    /// it (PK–FK, fan-out ≥ 1).
    Star {
        /// Number of dimension tables (≥ 1).
        satellites: usize,
    },
    /// `arms` lookup chains of length `depth` hanging off the base —
    /// a star whose dimensions are themselves normalized.
    Snowflake {
        /// Number of chains (≥ 1).
        arms: usize,
        /// Tables per chain (≥ 1); `depth = 1` degenerates to a star.
        depth: usize,
    },
    /// A single multi-hop lookup chain `base → L₁ → … → L_hops`.
    Chain {
        /// Number of lookup hops (≥ 1).
        hops: usize,
    },
    /// Two entity tables related through a link set: one target row per
    /// M:N edge, *both* indicators carry fan-out.
    ManyToMany,
}

impl Topology {
    /// Number of source tables this topology produces.
    pub fn num_sources(&self) -> usize {
        match self {
            Topology::Star { satellites } => 1 + satellites,
            Topology::Snowflake { arms, depth } => 1 + arms * depth,
            Topology::Chain { hops } => 1 + hops,
            Topology::ManyToMany => 2,
        }
    }

    /// Short kind label used for coverage bucketing (`star`,
    /// `snowflake`, `chain`, `m:n`).
    pub fn kind(&self) -> &'static str {
        match self {
            Topology::Star { .. } => "star",
            Topology::Snowflake { .. } => "snowflake",
            Topology::Chain { .. } => "chain",
            Topology::ManyToMany => "m:n",
        }
    }
}

/// A complete, seed-deterministic description of one DI scenario.
///
/// The grammar's knobs:
///
/// | knob | effect |
/// |---|---|
/// | `topology` | star / snowflake / multi-hop chain / M:N link |
/// | `base_rows`, `base_cols` | fact-table shape (target rows for joins) |
/// | `dim_rows`, `dim_cols` | shape of every non-base table |
/// | `skew` | 0 = uniform FK draws; > 0 = power-law fan-out hotspots |
/// | `shared_cols` | per-satellite shared-column window into the base (a redundancy grid) |
/// | `sparse_mask` | bit `k` set → source `k` is generated sparse (zeros outside a `density` draw) |
/// | `density` | fill ratio of sparse sources |
/// | `coverage` | fraction of base rows matched by each satellite (1.0 = left-join full) |
/// | `seed` | the whole scenario is a pure function of (spec, seed) |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Source relationship shape.
    pub topology: Topology,
    /// Rows of the base table (target rows for join topologies; number
    /// of link edges for [`Topology::ManyToMany`]).
    pub base_rows: usize,
    /// Feature columns of the base table.
    pub base_cols: usize,
    /// Rows of every non-base (dimension / lookup / entity) table.
    pub dim_rows: usize,
    /// Feature columns of every non-base table.
    pub dim_cols: usize,
    /// Fan-out skew exponent: FK draws use `u^(1+3·skew)`, so `0.0` is
    /// uniform and larger values concentrate references on a few hot
    /// dimension rows.
    pub skew: f64,
    /// Width of the shared-column window each satellite shares with the
    /// base (clamped to disjoint windows within `base_cols`). Ignored
    /// for [`Topology::ManyToMany`], where a consistent assignment does
    /// not exist in general.
    pub shared_cols: usize,
    /// Bitmask of sources generated sparse (each cell kept at
    /// `density`); bit `k` addresses source `k` in metadata order.
    pub sparse_mask: u64,
    /// Non-zero fraction for sparse sources, in `(0, 1]`.
    pub density: f64,
    /// Fraction of base rows each satellite matches, in `(0, 1]`.
    pub coverage: f64,
    /// RNG seed; with the spec it fully determines the scenario.
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            topology: Topology::Star { satellites: 1 },
            base_rows: 80,
            base_cols: 3,
            dim_rows: 20,
            dim_cols: 6,
            skew: 0.0,
            shared_cols: 0,
            sparse_mask: 0,
            density: 1.0,
            coverage: 1.0,
            seed: 1,
        }
    }
}

impl ScenarioSpec {
    /// A deterministic "size" of the spec, strictly decreased by every
    /// [`shrink candidate`](ScenarioSpec::shrink_candidates) — the
    /// termination measure of the shrinking loop.
    pub fn complexity(&self) -> u64 {
        let topo = 8 * self.topology.num_sources() as u64;
        topo + (self.base_rows + self.dim_rows + self.base_cols + self.dim_cols + self.shared_cols)
            as u64
            + u64::from(self.skew > 0.0)
            + u64::from(self.sparse_mask != 0)
            + u64::from(self.density < 1.0)
            + u64::from(self.coverage < 1.0)
    }

    /// Coverage bucket label, `"<topology-kind>/<skew bucket>"` — the
    /// grouping key of `BENCH_coverage.json`.
    pub fn bucket(&self) -> String {
        let skew = if self.skew > 0.0 { "skewed" } else { "uniform" };
        format!("{}/{}", self.topology.kind(), skew)
    }
}

// --- serialization (regression corpus) -------------------------------------
//
// `ScenarioSpec` derives both traits; `Topology` is an enum, which the
// shim's derive does not cover, so its impls are written out.

impl Serialize for Topology {
    fn to_value(&self) -> Value {
        let fields = match self {
            Topology::Star { satellites } => vec![
                ("kind".to_owned(), Value::Str("star".to_owned())),
                ("satellites".to_owned(), Value::Int(*satellites as i64)),
            ],
            Topology::Snowflake { arms, depth } => vec![
                ("kind".to_owned(), Value::Str("snowflake".to_owned())),
                ("arms".to_owned(), Value::Int(*arms as i64)),
                ("depth".to_owned(), Value::Int(*depth as i64)),
            ],
            Topology::Chain { hops } => vec![
                ("kind".to_owned(), Value::Str("chain".to_owned())),
                ("hops".to_owned(), Value::Int(*hops as i64)),
            ],
            Topology::ManyToMany => vec![("kind".to_owned(), Value::Str("m:n".to_owned()))],
        };
        Value::Object(fields)
    }
}

impl Deserialize for Topology {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind: String = get_field(v, "kind")?;
        match kind.as_str() {
            "star" => Ok(Topology::Star {
                satellites: get_field(v, "satellites")?,
            }),
            "snowflake" => Ok(Topology::Snowflake {
                arms: get_field(v, "arms")?,
                depth: get_field(v, "depth")?,
            }),
            "chain" => Ok(Topology::Chain {
                hops: get_field(v, "hops")?,
            }),
            "m:n" => Ok(Topology::ManyToMany),
            other => Err(DeError(format!("unknown topology kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_counts_per_topology() {
        assert_eq!(Topology::Star { satellites: 3 }.num_sources(), 4);
        assert_eq!(Topology::Snowflake { arms: 2, depth: 2 }.num_sources(), 5);
        assert_eq!(Topology::Chain { hops: 3 }.num_sources(), 4);
        assert_eq!(Topology::ManyToMany.num_sources(), 2);
    }

    #[test]
    fn json_round_trip_every_topology() {
        for topology in [
            Topology::Star { satellites: 2 },
            Topology::Snowflake { arms: 2, depth: 3 },
            Topology::Chain { hops: 2 },
            Topology::ManyToMany,
        ] {
            let spec = ScenarioSpec {
                topology,
                skew: 0.7,
                shared_cols: 2,
                sparse_mask: 0b10,
                density: 0.25,
                coverage: 0.8,
                seed: 99,
                ..ScenarioSpec::default()
            };
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    /// The JSON of one spec per topology, byte for byte: the corpus
    /// format, pinned.
    #[test]
    fn json_is_pinned_for_every_topology() {
        let golden = [
            (
                Topology::Star { satellites: 2 },
                r#"{"kind":"star","satellites":2}"#,
            ),
            (
                Topology::Snowflake { arms: 2, depth: 3 },
                r#"{"kind":"snowflake","arms":2,"depth":3}"#,
            ),
            (Topology::Chain { hops: 2 }, r#"{"kind":"chain","hops":2}"#),
            (Topology::ManyToMany, r#"{"kind":"m:n"}"#),
        ];
        for (topology, json) in golden {
            let spec = ScenarioSpec {
                topology,
                skew: 0.7,
                shared_cols: 2,
                sparse_mask: 0b10,
                density: 0.25,
                coverage: 0.8,
                seed: 99,
                ..ScenarioSpec::default()
            };
            let want = format!(
                r#"{{"topology":{json},"base_rows":80,"base_cols":3,"dim_rows":20,"dim_cols":6,"skew":0.7,"shared_cols":2,"sparse_mask":2,"density":0.25,"coverage":0.8,"seed":99}}"#
            );
            assert_eq!(serde_json::to_string(&spec).unwrap(), want);
        }
    }

    #[test]
    fn bucket_labels() {
        let mut spec = ScenarioSpec::default();
        assert_eq!(spec.bucket(), "star/uniform");
        spec.skew = 0.9;
        spec.topology = Topology::ManyToMany;
        assert_eq!(spec.bucket(), "m:n/skewed");
    }
}
