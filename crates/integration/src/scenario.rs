//! The four dataset relationships of Table I as integration planners.
//!
//! Given source tables, a scenario kind and an entity key, the planners
//! run schema matching and entity resolution, decide the target
//! (mediated) schema, and emit everything the downstream ML layers need:
//! the source data matrices `Dₖ`, the complete [`DiMetadata`] (mapping,
//! indicator and redundancy matrices) and, for a pair, the defining tgds.
//!
//! [`integrate_pair`] and [`integrate_star`](crate::integrate_star) are
//! one planner: source 0 is the base, every later source is aligned to
//! it, and only the row alignment differs between scenarios.
//!
//! | Scenario | Paper example | Target rows | Star |
//! |---|---|---|---|
//! | [`ScenarioKind::FullOuterJoin`] | Example 1 | base rows, then each later source's unmatched rows | — |
//! | [`ScenarioKind::InnerJoin`]     | Example 2 | base rows matched in every later source | [`StarKind::Inner`](crate::StarKind::Inner) |
//! | [`ScenarioKind::LeftJoin`]      | Example 3 | all base rows | [`StarKind::Left`](crate::StarKind::Left) |
//! | [`ScenarioKind::Union`]         | Example 4 | base rows ++ every later source's rows | — |
//!
//! Column correspondences come from [`IntegrationOptions::column_matches`]
//! when given, else from schema matching against the base. Per later
//! source, a correspondence claims its base column first; then a
//! same-named column claims a target column this source does not feed
//! yet; any other column becomes a new target column, except under
//! [`ScenarioKind::Union`], whose target keeps the shared columns only.

use crate::er::{match_keys, Keys};
use crate::matching::{match_profiled, ColumnMatch, MatchingConfig, ProfiledTable};
use crate::metadata::DiMetadata;
use crate::tgd::{Atom, Tgd};
use crate::{ErConfig, IntegrationError, Result};
use amalur_matrix::{DenseMatrix, NO_MATCH};
use amalur_relational::{hash_join, union_all, JoinType, Table};

/// The dataset relationship between sources and target (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Example 1: all rows from both sources, matched entities merged.
    FullOuterJoin,
    /// Example 2: only entities present in both sources.
    InnerJoin,
    /// Example 3: all left rows, augmented where the right matches.
    LeftJoin,
    /// Example 4: disjoint row sets over a shared feature schema.
    Union,
}

impl ScenarioKind {
    /// The relational join type that materializes this scenario
    /// (union has none).
    pub fn join_type(&self) -> Option<JoinType> {
        match self {
            ScenarioKind::FullOuterJoin => Some(JoinType::FullOuter),
            ScenarioKind::InnerJoin => Some(JoinType::Inner),
            ScenarioKind::LeftJoin => Some(JoinType::Left),
            ScenarioKind::Union => None,
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ScenarioKind::FullOuterJoin => "full outer join",
            ScenarioKind::InnerJoin => "inner join",
            ScenarioKind::LeftJoin => "left join",
            ScenarioKind::Union => "union",
        };
        f.write_str(s)
    }
}

/// Options for [`integrate_pair`] and [`integrate_star`](crate::integrate_star).
#[derive(Debug, Clone)]
pub struct IntegrationOptions {
    /// Entity-key columns `(base, other)` used by entity resolution: the
    /// first names the key of the left or base table, the second the key
    /// of the right table or of every satellite. The key is
    /// identification metadata, not a feature, so it is excluded from
    /// the target schema (like `n` in the running example).
    pub key: (String, String),
    /// Explicit column correspondences `(base column, other column)`,
    /// applied by both planners to every non-base source; when `None`,
    /// schema matching discovers them per source. Either way a
    /// same-named column that no correspondence names still maps onto
    /// its namesake.
    pub column_matches: Option<Vec<(String, String)>>,
    /// Entity-resolution configuration.
    pub er: ErConfig,
    /// Schema-matching configuration.
    pub matching: MatchingConfig,
    /// Value used to encode NULLs when converting tables to matrices.
    pub null_value: f64,
}

impl IntegrationOptions {
    /// Options with the given entity key and defaults elsewhere
    /// (fuzzy entity resolution — the paper's approximate-ER setting).
    pub fn with_key(left: impl Into<String>, right: impl Into<String>) -> Self {
        Self {
            key: (left.into(), right.into()),
            column_matches: None,
            er: ErConfig::default(),
            matching: MatchingConfig::default(),
            null_value: 0.0,
        }
    }

    /// Options for clean identifier keys: entity resolution by exact
    /// equality only (ids, surrogate keys).
    pub fn with_exact_key(left: impl Into<String>, right: impl Into<String>) -> Self {
        let mut opts = Self::with_key(left, right);
        opts.er.exact_only = true;
        opts
    }
}

/// Everything an integration planner produces.
#[derive(Debug, Clone)]
pub struct IntegrationResult {
    /// Scenario that was planned.
    pub kind: ScenarioKind,
    /// The three matrices per source, plus the target schema.
    pub metadata: DiMetadata,
    /// Source data matrices `Dₖ` (mapped numeric columns only).
    pub source_data: Vec<DenseMatrix>,
    /// The schema mappings defining the scenario.
    pub tgds: Vec<Tgd>,
}

/// Numeric feature columns of a table, excluding the entity key.
fn feature_columns<'t>(t: &'t Table, key: &str) -> Vec<&'t str> {
    t.numeric_column_names()
        .into_iter()
        .filter(|c| *c != key)
        .collect()
}

/// Plans the integration of two source tables under the given scenario.
///
/// Source 0 (the left table) is the base table for redundancy purposes:
/// overlapping values in the right table are marked redundant (§III-C).
///
/// Empty source tables are *not* an error here: a silo that contributed
/// no rows yet is still a valid integration partner, and the outer-join
/// kinds flow it through as a (possibly zero-row) target. Only when both
/// sources carry rows and the target is still empty — an inner join over
/// disjoint or all-NULL keys, a union without shared features — is the
/// empty result a matching failure worth surfacing.
///
/// # Errors
/// * [`IntegrationError::UnknownColumn`] for missing key columns.
/// * [`IntegrationError::NoMatches`] when both sources have rows and the
///   target has no columns (a union without shared feature columns) or
///   no rows (an inner join over disjoint or all-NULL keys).
pub fn integrate_pair(
    left: &Table,
    right: &Table,
    kind: ScenarioKind,
    opts: &IntegrationOptions,
) -> Result<IntegrationResult> {
    let plan = plan(left, &[right], kind, opts)?;
    let tgds = scenario_tgds(
        kind,
        left,
        right,
        &plan.metadata.target_columns,
        opts,
        &plan.correspondences[0],
    );
    Ok(IntegrationResult {
        kind,
        metadata: plan.metadata,
        source_data: plan.source_data,
        tgds,
    })
}

/// What [`plan`] derives for its callers.
pub(crate) struct Plan {
    pub(crate) metadata: DiMetadata,
    pub(crate) source_data: Vec<DenseMatrix>,
    /// Per non-base source, the correspondences against the base it was
    /// planned with.
    pub(crate) correspondences: Vec<Vec<ColumnMatch>>,
}

/// The one planner behind [`integrate_pair`] and
/// [`integrate_star`](crate::integrate_star): aligns every satellite to
/// `base` under `kind` and derives the target schema, each source's
/// mapped columns, `CMₖ`, `CIₖ`, `Rₖ` (all ones for the base, against
/// every earlier source for the rest) and `Dₖ`. The base's keys are
/// rendered once and its columns profiled once for all satellites.
pub(crate) fn plan(
    base: &Table,
    satellites: &[&Table],
    kind: ScenarioKind,
    opts: &IntegrationOptions,
) -> Result<Plan> {
    let (base_key, sat_key) = (&opts.key.0, &opts.key.1);
    let tables = || std::iter::once(base).chain(satellites.iter().copied());
    for (t, key) in tables().zip(std::iter::once(base_key).chain(std::iter::repeat(sat_key))) {
        t.schema()
            .index_of(key)
            .map_err(|_| IntegrationError::UnknownColumn(key.clone()))?;
    }

    // --- Target schema: base features, then each satellite's claims -----
    let base_features = feature_columns(base, base_key);
    let mut target_columns: Vec<String> = base_features.iter().map(|c| (*c).to_owned()).collect();
    let mut base_profile = None;
    let mut features = vec![base_features.clone()];
    // Per source and feature, the target column it feeds.
    let mut feeds: Vec<Vec<Option<usize>>> = vec![(0..base_features.len()).map(Some).collect()];
    let mut correspondences = Vec::with_capacity(satellites.len());
    for s in satellites {
        let matches: Vec<ColumnMatch> = match &opts.column_matches {
            Some(given) => given
                .iter()
                .map(|(l, r)| ColumnMatch {
                    left: l.clone(),
                    right: r.clone(),
                    score: 1.0,
                })
                .collect(),
            None => match_profiled(
                base_profile.get_or_insert_with(|| ProfiledTable::new(base, &opts.matching)),
                &ProfiledTable::new(s, &opts.matching),
                &opts.matching,
            ),
        };
        let feats = feature_columns(s, sat_key);
        let mut target_of: Vec<Option<usize>> = vec![None; feats.len()];
        let mut fed = vec![false; target_columns.len()];
        for m in &matches {
            let f = feats.iter().position(|c| *c == m.right);
            let t = base_features.iter().position(|c| *c == m.left);
            if let (Some(f), Some(t)) = (f, t) {
                if target_of[f].is_none() && !fed[t] {
                    target_of[f] = Some(t);
                    fed[t] = true;
                }
            }
        }
        for (f, name) in feats.iter().enumerate() {
            if target_of[f].is_some() {
                continue;
            }
            match target_columns.iter().position(|c| c == name) {
                Some(t) if !fed[t] => {
                    target_of[f] = Some(t);
                    fed[t] = true;
                }
                Some(_) => {}
                None if kind != ScenarioKind::Union => {
                    target_of[f] = Some(target_columns.len());
                    target_columns.push((*name).to_owned());
                    fed.push(true);
                }
                None => {}
            }
        }
        features.push(feats);
        feeds.push(target_of);
        correspondences.push(matches);
    }
    // A union keeps the base columns every other source feeds.
    let mut position = Vec::with_capacity(target_columns.len());
    let mut kept = 0;
    for t in 0..target_columns.len() {
        let keep = kind != ScenarioKind::Union || feeds[1..].iter().all(|f| f.contains(&Some(t)));
        position.push(keep.then_some(kept));
        kept += usize::from(keep);
    }
    let target_columns: Vec<String> = target_columns
        .into_iter()
        .zip(&position)
        .filter_map(|(c, p)| p.map(|_| c))
        .collect();

    // --- Row alignment: entity resolution against the base --------------
    // Example 4 presumes disjoint row sets, so a union resolves nothing.
    let base_keys = (kind != ScenarioKind::Union)
        .then(|| Keys::new(base, base_key))
        .transpose()?;
    let mut sat_of_base: Vec<Vec<i64>> = Vec::with_capacity(satellites.len());
    for s in satellites {
        let mut map = vec![NO_MATCH; base.num_rows()];
        if let Some(keys) = &base_keys {
            for m in match_keys(keys, &Keys::new(s, sat_key)?, &opts.er) {
                map[m.left] = m.right as i64;
            }
        }
        sat_of_base.push(map);
    }
    let base_rows: Vec<usize> = match kind {
        ScenarioKind::InnerJoin => (0..base.num_rows())
            .filter(|&i| sat_of_base.iter().all(|m| m[i] != NO_MATCH))
            .collect(),
        _ => (0..base.num_rows()).collect(),
    };
    let mut cis: Vec<Vec<i64>> = std::iter::once(base_rows.iter().map(|&r| r as i64).collect())
        .chain(
            sat_of_base
                .iter()
                .map(|m| base_rows.iter().map(|&r| m[r]).collect()),
        )
        .collect();
    if matches!(kind, ScenarioKind::FullOuterJoin | ScenarioKind::Union) {
        // Then every satellite row no base row matched, satellite by
        // satellite, each on a target row of its own.
        for (k, (s, map)) in satellites.iter().zip(&sat_of_base).enumerate() {
            let mut matched = vec![false; s.num_rows()];
            for &r in map.iter().filter(|&&r| r != NO_MATCH) {
                matched[r as usize] = true;
            }
            for r in (0..s.num_rows()).filter(|&r| !matched[r]) {
                for (j, ci) in cis.iter_mut().enumerate() {
                    ci.push(if j == k + 1 { r as i64 } else { NO_MATCH });
                }
            }
        }
    }
    let target_rows = cis[0].len();

    // With rows in every source, an empty target is a matching failure;
    // an empty source legitimately yields an empty target.
    if tables().all(|t| t.num_rows() > 0) {
        let names = tables().map(Table::name).collect::<Vec<_>>().join(" and ");
        if target_columns.is_empty() {
            return Err(IntegrationError::NoMatches(format!(
                "no target columns for {kind} of {names}"
            )));
        }
        if target_rows == 0 {
            return Err(IntegrationError::NoMatches(format!(
                "{kind} of {names} produced no target rows (no entity matches on key ({base_key}, {sat_key}))"
            )));
        }
    }

    // --- Per-source metadata and Dₖ -------------------------------------
    let mut metadata = DiMetadata::new(target_columns, target_rows);
    let mut source_data = Vec::with_capacity(cis.len());
    for (((t, feats), target_of), ci) in tables().zip(&features).zip(&feeds).zip(cis) {
        // Mapped columns in source-schema order.
        let mut cm = vec![NO_MATCH; metadata.target_cols()];
        let mut mapped = Vec::new();
        for (f, target) in feats.iter().zip(target_of) {
            if let Some(p) = target.and_then(|t| position[t]) {
                cm[p] = mapped.len() as i64;
                mapped.push((*f).to_owned());
            }
        }
        metadata.push_source(t.name(), mapped, cm, ci, t.num_rows())?;
        let mapped = &metadata.sources[metadata.sources.len() - 1].mapped_columns;
        let refs: Vec<&str> = mapped.iter().map(String::as_str).collect();
        source_data.push(t.to_matrix(&refs, opts.null_value)?);
    }
    Ok(Plan {
        metadata,
        source_data,
        correspondences,
    })
}

/// Generates the Table I tgd set for a scenario, using real column names
/// as variables (mapped columns share the variable of their target
/// column; source-only columns keep their own names).
fn scenario_tgds(
    kind: ScenarioKind,
    left: &Table,
    right: &Table,
    target_columns: &[String],
    opts: &IntegrationOptions,
    column_matches: &[ColumnMatch],
) -> Vec<Tgd> {
    let key_var = opts.key.0.clone();
    let left_vars: Vec<String> = left
        .schema()
        .names()
        .iter()
        .map(|c| {
            if *c == opts.key.0 {
                key_var.clone()
            } else {
                (*c).to_owned()
            }
        })
        .collect();
    let right_vars: Vec<String> = right
        .schema()
        .names()
        .iter()
        .map(|c| {
            if *c == opts.key.1 {
                key_var.clone()
            } else {
                // A matched right column shares its left counterpart's var.
                column_matches
                    .iter()
                    .find(|m| m.right == **c)
                    .map_or_else(|| (*c).to_owned(), |m| m.left.clone())
            }
        })
        .collect();
    let s1 = Atom {
        relation: left.name().to_owned(),
        vars: left_vars,
    };
    let s2 = Atom {
        relation: right.name().to_owned(),
        vars: right_vars,
    };
    let t = Atom {
        relation: "T".to_owned(),
        vars: target_columns.to_vec(),
    };
    let join = Tgd::new(Some("m1"), vec![s1.clone(), s2.clone()], vec![t.clone()]);
    let proj1 = Tgd::new(Some("m2"), vec![s1], vec![t.clone()]);
    let proj2 = Tgd::new(Some("m3"), vec![s2], vec![t]);
    match kind {
        ScenarioKind::FullOuterJoin => vec![join, proj1, proj2],
        ScenarioKind::InnerJoin => vec![join],
        ScenarioKind::LeftJoin => vec![join, proj1],
        ScenarioKind::Union => vec![proj1, proj2],
    }
}

/// Materializes the scenario relationally (the traditional DI path of
/// Fig. 2), returning the target table projected to the mediated schema.
/// Used to cross-check the matrix-level assembly.
///
/// # Errors
/// Propagates relational errors (missing columns, schema mismatches).
pub fn materialize_relationally(
    left: &Table,
    right: &Table,
    kind: ScenarioKind,
    opts: &IntegrationOptions,
    target_columns: &[String],
) -> Result<Table> {
    let refs: Vec<&str> = target_columns.iter().map(String::as_str).collect();
    match kind.join_type() {
        Some(jt) => {
            let joined = hash_join(left, right, &[(&opts.key.0, &opts.key.1)], jt)?;
            Ok(joined.project(&refs)?)
        }
        None => {
            // Union: project each source to the mediated schema first
            // (sources need not share their *other* columns).
            let l = left.project(&refs)?;
            let r = right.project(&refs)?;
            Ok(union_all(&[&l, &r])?)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::matching::match_schemas;
    use amalur_relational::{DataType, TableBuilder};

    /// S1(m, n, a, hr) of Figure 2a.
    pub(crate) fn s1() -> Table {
        TableBuilder::new(
            "S1",
            &[
                ("m", DataType::Int64),
                ("n", DataType::Utf8),
                ("a", DataType::Float64),
                ("hr", DataType::Float64),
            ],
        )
        .unwrap()
        .row(vec![0.into(), "Jack".into(), 20.0.into(), 60.0.into()])
        .unwrap()
        .row(vec![1.into(), "Sam".into(), 35.0.into(), 58.0.into()])
        .unwrap()
        .row(vec![0.into(), "Ruby".into(), 22.0.into(), 65.0.into()])
        .unwrap()
        .row(vec![1.into(), "Jane".into(), 37.0.into(), 70.0.into()])
        .unwrap()
        .build()
    }

    /// S2(m, n, a, o, dd) of Figure 2b.
    pub(crate) fn s2() -> Table {
        TableBuilder::new(
            "S2",
            &[
                ("m", DataType::Int64),
                ("n", DataType::Utf8),
                ("a", DataType::Float64),
                ("o", DataType::Float64),
                ("dd", DataType::Utf8),
            ],
        )
        .unwrap()
        .row(vec![
            1.into(),
            "Rose".into(),
            45.0.into(),
            95.0.into(),
            "1/4/21".into(),
        ])
        .unwrap()
        .row(vec![
            0.into(),
            "Castiel".into(),
            20.0.into(),
            97.0.into(),
            "3/8/22".into(),
        ])
        .unwrap()
        .row(vec![
            1.into(),
            "Jane".into(),
            37.0.into(),
            92.0.into(),
            "11/5/21".into(),
        ])
        .unwrap()
        .build()
    }

    fn opts() -> IntegrationOptions {
        IntegrationOptions::with_key("n", "n")
    }

    #[test]
    fn full_outer_join_reproduces_figure4_metadata() {
        let r = integrate_pair(&s1(), &s2(), ScenarioKind::FullOuterJoin, &opts()).unwrap();
        assert_eq!(r.metadata.target_columns, vec!["m", "a", "hr", "o"]);
        assert_eq!(r.metadata.target_rows, 6);
        let s1m = &r.metadata.sources[0];
        let s2m = &r.metadata.sources[1];
        // CM₁ = [0, 1, 2, -1]; CM₂ = [0, 1, -1, 2] (Figure 4a).
        assert_eq!(s1m.mapping.compressed(), &[0, 1, 2, NO_MATCH]);
        assert_eq!(s2m.mapping.compressed(), &[0, 1, NO_MATCH, 2]);
        // CI₁ = [0,1,2,3,-1,-1]; CI₂ = [-1,-1,-1,2,0,1] (Figure 4b).
        assert_eq!(
            s1m.indicator.compressed(),
            &[0, 1, 2, 3, NO_MATCH, NO_MATCH]
        );
        assert_eq!(
            s2m.indicator.compressed(),
            &[NO_MATCH, NO_MATCH, NO_MATCH, 2, 0, 1]
        );
        // R₂ zero exactly at Jane's shared (m, a) cells (Figure 4c).
        assert_eq!(s2m.redundancy().get(3, 0), 0.0);
        assert_eq!(s2m.redundancy().get(3, 1), 0.0);
        assert_eq!(s2m.redundancy().get(3, 3), 1.0);
        assert_eq!(s2m.redundancy().zero_count(), 2);
        assert!(s1m.redundancy().is_all_ones());
        // D₁ is 4×3 (m,a,hr), D₂ is 3×3 (m,a,o).
        assert_eq!(r.source_data[0].shape(), (4, 3));
        assert_eq!(r.source_data[1].shape(), (3, 3));
        assert_eq!(r.source_data[0].row(0), &[0.0, 20.0, 60.0]);
        assert_eq!(r.source_data[1].row(2), &[1.0, 37.0, 92.0]);
    }

    #[test]
    fn full_outer_tgds_match_table1() {
        let r = integrate_pair(&s1(), &s2(), ScenarioKind::FullOuterJoin, &opts()).unwrap();
        assert_eq!(r.tgds.len(), 3);
        assert!(r.tgds[0].is_full()); // m1
        assert!(!r.tgds[1].is_full()); // m2: ∃o
        assert!(!r.tgds[2].is_full()); // m3: ∃hr
        assert_eq!(r.tgds[1].existential_vars(), ["o"].into_iter().collect());
        assert_eq!(r.tgds[2].existential_vars(), ["hr"].into_iter().collect());
    }

    #[test]
    fn inner_join_keeps_only_jane() {
        let r = integrate_pair(&s1(), &s2(), ScenarioKind::InnerJoin, &opts()).unwrap();
        assert_eq!(r.metadata.target_rows, 1);
        assert_eq!(r.metadata.sources[0].indicator.compressed(), &[3]);
        assert_eq!(r.metadata.sources[1].indicator.compressed(), &[2]);
        // Jane's shared columns in S2 are still redundant w.r.t. S1.
        assert_eq!(r.metadata.sources[1].redundancy().zero_count(), 2);
        assert_eq!(r.tgds.len(), 1);
        assert!(r.tgds[0].is_full());
    }

    #[test]
    fn left_join_keeps_all_left_rows() {
        let r = integrate_pair(&s1(), &s2(), ScenarioKind::LeftJoin, &opts()).unwrap();
        assert_eq!(r.metadata.target_rows, 4);
        assert_eq!(r.metadata.sources[0].indicator.compressed(), &[0, 1, 2, 3]);
        assert_eq!(
            r.metadata.sources[1].indicator.compressed(),
            &[NO_MATCH, NO_MATCH, NO_MATCH, 2]
        );
        assert_eq!(r.tgds.len(), 2);
    }

    #[test]
    fn union_stacks_rows_over_shared_columns() {
        let r = integrate_pair(&s1(), &s2(), ScenarioKind::Union, &opts()).unwrap();
        // Shared numeric features of S1 and S2: m, a.
        assert_eq!(r.metadata.target_columns, vec!["m", "a"]);
        assert_eq!(r.metadata.target_rows, 7);
        assert!(r.metadata.sources[1].redundancy().is_all_ones());
        assert_eq!(r.tgds.len(), 2);
        assert_eq!(r.tgds[0].body.len(), 1);
    }

    #[test]
    fn explicit_column_matches_override_matching() {
        let mut o = opts();
        o.column_matches = Some(vec![("m".into(), "m".into()), ("a".into(), "a".into())]);
        let r = integrate_pair(&s1(), &s2(), ScenarioKind::FullOuterJoin, &o).unwrap();
        assert_eq!(r.metadata.target_columns, vec!["m", "a", "hr", "o"]);
    }

    /// `{id, a, z}`, whose `a` the matcher pairs with the right's `A`.
    pub(crate) fn name_clash_left() -> Table {
        let mut b = TableBuilder::new(
            "L",
            &[
                ("id", DataType::Int64),
                ("a", DataType::Float64),
                ("z", DataType::Float64),
            ],
        )
        .unwrap();
        for i in 1..=3 {
            b = b
                .row(vec![
                    i.into(),
                    (10.0 * i as f64).into(),
                    (500.0 + i as f64).into(),
                ])
                .unwrap();
        }
        b.build()
    }

    /// `{id, a, A}`: `A` holds the left `a`'s values, `a` others.
    pub(crate) fn name_clash_right() -> Table {
        let mut b = TableBuilder::new(
            "R",
            &[
                ("id", DataType::Int64),
                ("a", DataType::Float64),
                ("A", DataType::Float64),
            ],
        )
        .unwrap();
        for i in 1..=3 {
            b = b
                .row(vec![
                    i.into(),
                    (70.0 * i as f64).into(),
                    (10.0 * i as f64).into(),
                ])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn same_named_column_left_unmatched_is_not_a_second_target_column() {
        let (l, r) = (name_clash_left(), name_clash_right());
        let o = IntegrationOptions::with_exact_key("id", "id");
        let m = match_schemas(&l, &r, &o.matching);
        assert!(m.iter().any(|m| m.left == "a" && m.right == "A"), "{m:?}");
        let p = integrate_pair(&l, &r, ScenarioKind::FullOuterJoin, &o).unwrap();
        assert_eq!(p.metadata.target_columns, vec!["a", "z"]);
        assert_eq!(p.metadata.sources[1].mapped_columns, vec!["A"]);
        assert_eq!(p.metadata.sources[1].mapping.compressed(), &[0, NO_MATCH]);

        // An explicit correspondence leaves the namesakes to each other.
        let mut o = IntegrationOptions::with_exact_key("id", "id");
        o.column_matches = Some(vec![("z".into(), "A".into())]);
        let p = integrate_pair(&l, &r, ScenarioKind::LeftJoin, &o).unwrap();
        assert_eq!(p.metadata.target_columns, vec!["a", "z"]);
        assert_eq!(p.metadata.sources[1].mapped_columns, vec!["a", "A"]);
        assert_eq!(p.metadata.sources[1].mapping.compressed(), &[0, 1]);
    }

    #[test]
    fn missing_key_column_errors() {
        let o = IntegrationOptions::with_key("nope", "n");
        assert!(integrate_pair(&s1(), &s2(), ScenarioKind::InnerJoin, &o).is_err());
        let o = IntegrationOptions::with_key("n", "nope");
        assert!(integrate_pair(&s1(), &s2(), ScenarioKind::InnerJoin, &o).is_err());
    }

    #[test]
    fn materialize_relationally_matches_target_schema() {
        let r = integrate_pair(&s1(), &s2(), ScenarioKind::FullOuterJoin, &opts()).unwrap();
        let t = materialize_relationally(
            &s1(),
            &s2(),
            ScenarioKind::FullOuterJoin,
            &opts(),
            &r.metadata.target_columns,
        )
        .unwrap();
        assert_eq!(t.num_rows(), 6);
        assert_eq!(t.schema().names(), vec!["m", "a", "hr", "o"]);
    }

    #[test]
    fn scenario_kind_display_and_join_type() {
        assert_eq!(ScenarioKind::FullOuterJoin.to_string(), "full outer join");
        assert_eq!(ScenarioKind::Union.join_type(), None);
        assert_eq!(ScenarioKind::InnerJoin.join_type(), Some(JoinType::Inner));
    }
}
