//! Entity resolution: discovering row matches between source tables.
//!
//! The paper's running example links `S1`'s *Jane* with `S2`'s *Jane*
//! ("Same Entity", Fig. 2). This module produces such row matchings —
//! the input to the indicator matrices of §III-B — with a standard
//! blocking + similarity pipeline:
//!
//! 1. **Exact phase**: rows whose rendered keys are equal match with
//!    score 1.0. A key that occurs `k_l` times on the left and `k_r`
//!    times on the right yields the `min(k_l, k_r)` pairs that zip the
//!    two occurrence lists in row order — exactly what a greedy 1:1
//!    resolution keeps of the `k_l · k_r` equal-score candidates. Every
//!    occurrence, paired or surplus, stays out of the fuzzy phase.
//!
//!    Each table's key column is rendered once, into one buffer (the
//!    cell's `Display`, NULL empty), and its non-empty keys are ordered by
//!    (a fixed 64-bit FNV-1a hash of the rendered key, the key, the row).
//!    Equal keys are then one run with its rows ascending, so one merge
//!    join over both orders, finding runs by a linear scan, emits the
//!    zipped pairs. The hash only makes the order cheap to compare: two
//!    keys meet only when the strings themselves are equal, so a hash
//!    collision costs a string comparison, never a wrong match. A star
//!    orders its base's keys once for all of its satellites.
//! 2. **Blocking**: the remaining rows are compared only within blocks
//!    that share the lower-cased first character of the key, avoiding
//!    the quadratic all-pairs comparison.
//! 3. **Similarity**: a Jaro–Winkler score over the rendered key values;
//!    pairs scoring at least the threshold become candidates.
//! 4. **1:1 greedy resolution**: candidates are accepted in descending
//!    score order (ties by left row, then right row), each row used at
//!    most once.
//!
//! The output is deliberately *approximate* metadata (§V-B: "the results
//! from an entity resolution approach... are most likely approximate"):
//! the threshold trades recall for precision, and downstream consumers
//! (federated learning in particular) must tolerate imperfect matches.
//!
//! # The similarity filter chain
//!
//! Step 3 never changes *which* pairs become candidates or their scores
//! — it only avoids work for pairs that cannot reach the threshold. The
//! plain definition (two string decodes, five allocations and an
//! `O(len · window)` scan per pair) survives as the `#[cfg(test)]` oracle
//! in `reference.rs`, and differential tests pin the two bit for bit.
//! Per in-block pair, the `jw` module runs:
//!
//! 1. **Decode once.** Each key is decoded to `char`s once per call and
//!    carries a signature: 128 `u8` bins counting its characters by code
//!    point mod 128.
//! 2. **Count bound.** A Jaro match pairs two *equal* characters and
//!    uses each position once, so the match count `m` satisfies
//!    `m ≤ Σ_c min(cnt_a[c], cnt_b[c])`. Characters sharing a bin
//!    (non-ASCII) only loosen this, since
//!    `min(x₁ + x₂, y₁ + y₂) ≥ min(x₁, y₁) + min(x₂, y₂)`. The pair is
//!    skipped when the score evaluated at that `m`, with zero
//!    transpositions and the pair's real common prefix, falls short of
//!    the threshold.
//! 3. **Scan with early exit.** Survivors run the standard windowed scan
//!    over reused taken-flags. After a miss at position `i`,
//!    `m ≤ matches so far + chars of a still unscanned`, and the scan
//!    stops as soon as that bound falls short.
//! 4. **Score.** Transpositions are counted in place from the
//!    taken-flags and the score is computed by the one float expression
//!    the bounds use too.
//!
//! *Why each bound is ≥ the true score.* With `m` matches, `t`
//! transpositions and lengths `l_a`, `l_b`, Jaro is
//! `(m/l_a + m/l_b + (m − t)/m) / 3`. For `M ≥ m` the bound evaluates
//! `(M/l_a + M/l_b + 1) / 3`: IEEE division and addition are monotone in
//! each operand and `(m − t)/m ≤ 1` rounds to at most `1`, so the bound's
//! Jaro is ≥ the true Jaro as floats, not just as reals. The Winkler
//! step `j + p · 0.1 · (1 − j)` uses the same prefix `p` on both sides
//! and is increasing in `j` over the reals; its roundings can perturb
//! that by a few 1e-16, which a slack of 1e-12 on the comparison
//! absorbs (a pair that close to the threshold is scored, not skipped).
//!
//! *Saturation caveat.* A count that wraps or saturates would make a bin
//! too *small* and the bound unsound. A key of at most 255 chars cannot
//! overflow a `u8` bin; longer keys get no signature and are bounded by
//! `min(l_a, l_b)` instead.

use crate::jw::{similarity_at_least, KeyArena, Scratch, Verdict};
use crate::{metrics, IntegrationError, Result};
use amalur_relational::{Column, Table};
use std::cmp::Ordering;
use std::fmt::Write as _;

/// A scored row correspondence `(left row, right row)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowMatch {
    /// Row index in the left table.
    pub left: usize,
    /// Row index in the right table.
    pub right: usize,
    /// Match confidence in `[0, 1]`.
    pub score: f64,
}

/// Configuration for [`match_rows`].
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Minimum similarity for a candidate pair to be accepted.
    pub threshold: f64,
    /// When `true`, only exact key equality is considered (fast path for
    /// clean keys such as surrogate ids).
    pub exact_only: bool,
}

impl Default for ErConfig {
    fn default() -> Self {
        Self {
            threshold: 0.85,
            exact_only: false,
        }
    }
}

/// Resolves entities between `left` and `right` on the given key columns.
///
/// # Errors
/// Returns an error when a key column is missing.
pub fn match_rows(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
    config: &ErConfig,
) -> Result<Vec<RowMatch>> {
    let lkeys = Keys::new(left, left_key)?;
    let rkeys = Keys::new(right, right_key)?;
    Ok(match_keys(&lkeys, &rkeys, config))
}

/// One table's key column, rendered once: every row's key back to back
/// in one buffer (NULL renders empty), and the non-empty keys in the
/// exact phase's order.
pub(crate) struct Keys {
    text: String,
    /// Row `i`'s key is `text[ends[i - 1]..ends[i]]` (from 0 for row 0).
    ends: Vec<usize>,
    /// `(fnv1a(key), row)` of every non-empty key, ordered by hash, then
    /// key, then row: equal keys form one run with its rows ascending.
    order: Vec<(u64, usize)>,
}

impl Keys {
    /// Renders column `key` of `table` and orders its non-empty keys.
    pub(crate) fn new(table: &Table, key: &str) -> Result<Self> {
        let col = table
            .column_by_name(key)
            .map_err(|_| IntegrationError::UnknownColumn(key.to_owned()))?;
        let mut keys = Keys {
            text: String::new(),
            ends: Vec::with_capacity(col.len()),
            order: Vec::new(),
        };
        match col {
            Column::Int64(v) => keys.render(v),
            Column::Float64(v) => keys.render(v),
            Column::Bool(v) => keys.render(v),
            Column::Utf8(v) => keys.render(v),
        }
        let mut order: Vec<(u64, usize)> = (0..keys.len())
            .filter_map(|i| {
                let k = keys.get(i);
                (!k.is_empty()).then(|| (fnv1a(k), i))
            })
            .collect();
        order.sort_unstable_by(|&(h, i), &(g, j)| {
            h.cmp(&g)
                .then_with(|| keys.get(i).cmp(keys.get(j)))
                .then(i.cmp(&j))
        });
        keys.order = order;
        Ok(keys)
    }

    /// Appends each cell's `Display` (what `Value`'s renders), NULL as
    /// nothing, without building a `Value`.
    fn render<T: std::fmt::Display>(&mut self, cells: &[Option<T>]) {
        for cell in cells {
            if let Some(x) = cell {
                // Writing into a `String` cannot fail.
                let _ = write!(self.text, "{x}");
            }
            self.ends.push(self.text.len());
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Row `i`'s rendered key.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// The end of the run of equal keys that starts at `order[p]`.
    fn run_end(&self, p: usize) -> usize {
        let (h, i) = self.order[p];
        let key = self.get(i);
        p + 1
            + self.order[p + 1..]
                .iter()
                .take_while(|&&(g, j)| g == h && self.get(j) == key)
                .count()
    }
}

/// The 64-bit FNV-1a hash of `s`'s bytes: fixed, so the exact phase's
/// key order is the same on every run and platform.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// [`match_rows`] over already rendered keys.
pub(crate) fn match_keys(lkeys: &Keys, rkeys: &Keys, config: &ErConfig) -> Vec<RowMatch> {
    // Rows out of play: first every occurrence of an exactly matched key,
    // then also the rows the greedy resolution consumes.
    let mut left_taken = vec![false; lkeys.len()];
    let mut right_taken = vec![false; rkeys.len()];
    let mut out = exact_matches(lkeys, rkeys, &mut left_taken, &mut right_taken);

    if !config.exact_only {
        let mut candidates =
            fuzzy_candidates(lkeys, rkeys, &left_taken, &right_taken, config.threshold);
        // Greedy 1:1 resolution by descending score (deterministic ties).
        // No candidate touches an exactly matched row, so the exact
        // matches above are what the greedy pass would have kept of them.
        candidates.sort_unstable_by(|x, y| {
            y.score
                .partial_cmp(&x.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| x.left.cmp(&y.left))
                .then_with(|| x.right.cmp(&y.right))
        });
        for c in candidates {
            if left_taken[c.left] || right_taken[c.right] {
                continue;
            }
            left_taken[c.left] = true;
            right_taken[c.right] = true;
            out.push(c);
        }
    }
    // Each left row is matched at most once, so the (left, right) order
    // is a placement by left row, not a sort.
    let mut by_left = vec![None; lkeys.len()];
    for m in out {
        by_left[m.left] = Some(m);
    }
    by_left.into_iter().flatten().collect()
}

/// The exact phase: one merge join over both sides' key orders. Both
/// orders compare (hash, key) first, so a key shared by the two sides
/// meets itself once; its two runs, rows ascending, are zipped and all
/// of their occurrences flagged.
fn exact_matches(
    lkeys: &Keys,
    rkeys: &Keys,
    left_taken: &mut [bool],
    right_taken: &mut [bool],
) -> Vec<RowMatch> {
    let (lorder, rorder) = (&lkeys.order, &rkeys.order);
    let mut out = Vec::new();
    let (mut p, mut q) = (0, 0);
    while p < lorder.len() && q < rorder.len() {
        let ((h, i), (g, j)) = (lorder[p], rorder[q]);
        match h.cmp(&g).then_with(|| lkeys.get(i).cmp(rkeys.get(j))) {
            Ordering::Less => p += 1,
            Ordering::Greater => q += 1,
            Ordering::Equal => {
                let (ls, rs) = (&lorder[p..lkeys.run_end(p)], &rorder[q..rkeys.run_end(q)]);
                out.extend(ls.iter().zip(rs).map(|(&(_, left), &(_, right))| RowMatch {
                    left,
                    right,
                    score: 1.0,
                }));
                ls.iter().for_each(|&(_, i)| left_taken[i] = true);
                rs.iter().for_each(|&(_, j)| right_taken[j] = true);
                p += ls.len();
                q += rs.len();
            }
        }
    }
    out
}

/// The fuzzy phase: every pair of rows not matched exactly whose keys
/// share a block and score at least `threshold`.
fn fuzzy_candidates(
    lkeys: &Keys,
    rkeys: &Keys,
    left_taken: &[bool],
    right_taken: &[bool],
    threshold: f64,
) -> Vec<RowMatch> {
    let block_of = |s: &str| s.chars().next().map(|c| c.to_ascii_lowercase());
    // Right rows in (block, row) order, so a block is one contiguous run
    // of decoded keys.
    let mut blocked: Vec<(char, usize)> = (0..rkeys.len())
        .filter(|&j| !right_taken[j])
        .filter_map(|j| block_of(rkeys.get(j)).map(|b| (b, j)))
        .collect();
    blocked.sort_unstable();
    let mut right = KeyArena::default();
    for &(_, j) in &blocked {
        right.push(rkeys.get(j));
    }

    let mut candidates = Vec::new();
    let mut probe = KeyArena::default();
    let mut scratch = Scratch::default();
    let (mut block_pairs, mut pruned, mut scored) = (0usize, 0u64, 0u64);
    for (i, &taken) in left_taken.iter().enumerate() {
        if taken {
            continue;
        }
        let k = lkeys.get(i);
        let Some(b) = block_of(k) else { continue };
        let start = blocked.partition_point(|&(c, _)| c < b);
        let len = blocked[start..].partition_point(|&(c, _)| c == b);
        if len == 0 {
            continue;
        }
        probe.clear();
        probe.push(k);
        let key = probe.get(0);
        block_pairs += len;
        for (p, &(_, j)) in (start..).zip(&blocked[start..start + len]) {
            match similarity_at_least(key, right.get(p), threshold, &mut scratch) {
                Verdict::Pruned => pruned += 1,
                Verdict::Below => scored += 1,
                Verdict::Reached(score) => {
                    scored += 1;
                    candidates.push(RowMatch {
                        left: i,
                        right: j,
                        score,
                    });
                }
            }
        }
    }
    metrics::ER_BLOCK_PAIRS.add(block_pairs as u64);
    metrics::ER_BOUND_PRUNED.add(pruned);
    metrics::ER_SCORED.add(scored);
    metrics::ER_ACCEPTED.add(candidates.len() as u64);
    candidates
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::{self, jaro_winkler};
    use amalur_relational::{DataType, TableBuilder, Value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn left() -> Table {
        TableBuilder::new("S1", &[("n", DataType::Utf8), ("a", DataType::Float64)])
            .unwrap()
            .row(vec!["Jack".into(), 20.0.into()])
            .unwrap()
            .row(vec!["Sam".into(), 35.0.into()])
            .unwrap()
            .row(vec!["Ruby".into(), 22.0.into()])
            .unwrap()
            .row(vec!["Jane".into(), 37.0.into()])
            .unwrap()
            .build()
    }

    fn right() -> Table {
        TableBuilder::new("S2", &[("n", DataType::Utf8), ("o", DataType::Float64)])
            .unwrap()
            .row(vec!["Rose".into(), 95.0.into()])
            .unwrap()
            .row(vec!["Castiel".into(), 97.0.into()])
            .unwrap()
            .row(vec!["Jane".into(), 92.0.into()])
            .unwrap()
            .build()
    }

    #[test]
    fn running_example_matches_jane() {
        let matches = match_rows(&left(), &right(), "n", "n", &ErConfig::default()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].left, 3);
        assert_eq!(matches[0].right, 2);
        assert_eq!(matches[0].score, 1.0);
    }

    #[test]
    fn fuzzy_matching_catches_typos() {
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Johnathan Smith".into()])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jonathan Smith".into()])
            .unwrap()
            .build();
        let matches = match_rows(&l, &r, "n", "n", &ErConfig::default()).unwrap();
        assert_eq!(matches.len(), 1);
        assert!(matches[0].score > 0.85 && matches[0].score < 1.0);
    }

    #[test]
    fn exact_only_mode_skips_fuzzy() {
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Johnathan".into()])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jonathan".into()])
            .unwrap()
            .build();
        let cfg = ErConfig {
            exact_only: true,
            ..ErConfig::default()
        };
        assert!(match_rows(&l, &r, "n", "n", &cfg).unwrap().is_empty());
    }

    #[test]
    fn blocking_prevents_cross_initial_comparisons() {
        // "Zane" vs "Jane" is close in edit distance but lives in a
        // different block, so the fuzzy phase never sees the pair.
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Zane".into()])
            .unwrap()
            .build();
        let matches = match_rows(&l, &right(), "n", "n", &ErConfig::default()).unwrap();
        assert!(matches.is_empty());
    }

    #[test]
    fn one_to_one_resolution() {
        // Two identical left keys, one right key: only one match survives.
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .build();
        let matches = match_rows(&l, &right(), "n", "n", &ErConfig::default()).unwrap();
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn nulls_never_match() {
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec![Value::Null])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec![Value::Null])
            .unwrap()
            .build();
        assert!(match_rows(&l, &r, "n", "n", &ErConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn integer_keys_match_exactly() {
        let l = TableBuilder::new("l", &[("id", DataType::Int64)])
            .unwrap()
            .row(vec![7.into()])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("id", DataType::Int64)])
            .unwrap()
            .row(vec![7.into()])
            .unwrap()
            .row(vec![8.into()])
            .unwrap()
            .build();
        let matches = match_rows(&l, &r, "id", "id", &ErConfig::default()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].right, 0);
    }

    #[test]
    fn unknown_key_column_errors() {
        assert!(match_rows(&left(), &right(), "nope", "n", &ErConfig::default()).is_err());
        assert!(match_rows(&left(), &right(), "n", "nope", &ErConfig::default()).is_err());
    }

    #[test]
    fn matching_is_deterministic_and_order_pinned() {
        // Ambiguous input: two fuzzy candidates per side competing for
        // the same rows, plus an exact tie. With hash-ordered blocking
        // the greedy resolution could flip between runs; the BTreeMap
        // containers pin the exact output.
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .row(vec!["Janet".into()])
            .unwrap()
            .row(vec!["Jan".into()])
            .unwrap()
            .row(vec!["Rose".into()])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Janett".into()])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .row(vec!["Rosa".into()])
            .unwrap()
            .build();
        let expected = match_rows(&l, &r, "n", "n", &ErConfig::default()).unwrap();
        assert!(!expected.is_empty());
        // Output is sorted by (left, right) — a stable public order.
        for w in expected.windows(2) {
            assert!((w[0].left, w[0].right) < (w[1].left, w[1].right));
        }
        // Bit-identical across repeated runs in the same process (fresh
        // containers each call, so this exercises iteration order).
        for _ in 0..16 {
            let again = match_rows(&l, &r, "n", "n", &ErConfig::default()).unwrap();
            assert_eq!(again, expected);
        }
    }

    #[test]
    fn jaro_winkler_reference_values() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.9611).abs() < 1e-3);
        assert!((jaro_winkler("DWAYNE", "DUANE") - 0.84).abs() < 1e-2);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("a", ""), 0.0);
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    /// Compares bit for bit, which `f64`'s `==` does not.
    fn bits(matches: &[RowMatch]) -> Vec<(usize, usize, u64)> {
        matches
            .iter()
            .map(|m| (m.left, m.right, m.score.to_bits()))
            .collect()
    }

    fn keyed(name: &str, dtype: DataType, keys: Vec<Value>) -> Table {
        let mut b = TableBuilder::new(name, &[("k", dtype)]).unwrap();
        for k in keys {
            b = b.row(vec![k]).unwrap();
        }
        b.build()
    }

    #[test]
    fn duplicated_exact_keys_zip_in_row_order() {
        // 3 × 2 occurrences of "7" (an int column against a float column
        // that renders 7.0 as "7"), surplus on the left; 1 × 3 of "9",
        // surplus on the right; NULLs and loners in between.
        let l = keyed(
            "l",
            DataType::Int64,
            vec![
                7.into(),
                9.into(),
                Value::Null,
                7.into(),
                3.into(),
                7.into(),
            ],
        );
        let r = keyed(
            "r",
            DataType::Float64,
            vec![
                9.0.into(),
                7.0.into(),
                9.0.into(),
                Value::Null,
                7.0.into(),
                9.0.into(),
                4.5.into(),
            ],
        );
        let got = match_rows(&l, &r, "k", "k", &ErConfig::default()).unwrap();
        let pairs: Vec<(usize, usize)> = got.iter().map(|m| (m.left, m.right)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (3, 4)]);
        assert!(got.iter().all(|m| m.score == 1.0));
        let expected = reference::match_rows(&l, &r, "k", "k", &ErConfig::default()).unwrap();
        assert_eq!(bits(&got), bits(&expected));
    }

    /// A table keyed by person-like names drawn from a small pool, so
    /// that keys repeat, collide across sides, differ by a typo, differ
    /// only in the case of the blocking character, or are missing.
    fn random_keys(rng: &mut StdRng, rows: usize) -> Vec<Value> {
        const GIVEN: [&str; 8] = [
            "jane", "janet", "john", "jon", "Johanna", "rosa", "rose", "émile",
        ];
        const FAMILY: [&str; 6] = ["smith", "smyth", "schmidt", "jones", "jonas", "ångström"];
        (0..rows)
            .map(|_| {
                let mut key = format!(
                    "{} {}",
                    GIVEN[rng.gen_range(0..GIVEN.len())],
                    FAMILY[rng.gen_range(0..FAMILY.len())]
                );
                match rng.gen_range(0..8) {
                    0 => return Value::Null,
                    1 => key.clear(), // renders like NULL
                    2 => key = key.to_uppercase(),
                    3 => {
                        let at = rng.gen_range(1..key.chars().count());
                        key = key
                            .chars()
                            .enumerate()
                            .filter(|&(i, _)| i != at)
                            .map(|(_, c)| c)
                            .collect();
                    }
                    4 => key.push(char::from(b'a' + rng.gen_range(0..26u8))),
                    _ => {}
                }
                Value::Str(key)
            })
            .collect()
    }

    /// The key types a column can hold, with the cells the exact phase
    /// must tell apart or equate by their rendering: `-0.0` renders "-0"
    /// and `0` "0", `7` and `7.0` both render "7", NaN renders "NaN",
    /// and a string may spell any of them. NULL renders empty.
    pub(crate) const KEY_TYPES: [DataType; 4] = [
        DataType::Int64,
        DataType::Float64,
        DataType::Bool,
        DataType::Utf8,
    ];

    pub(crate) fn random_typed_keys(rng: &mut StdRng, dtype: DataType, rows: usize) -> Vec<Value> {
        let pool: Vec<Value> = match dtype {
            DataType::Int64 => vec![0.into(), 7.into(), (-3).into(), 12.into(), Value::Null],
            DataType::Float64 => vec![
                0.0.into(),
                (-0.0).into(),
                7.0.into(),
                f64::NAN.into(),
                2.5.into(),
                (-3.0).into(),
                f64::INFINITY.into(),
                Value::Null,
            ],
            DataType::Bool => vec![true.into(), false.into(), Value::Null],
            DataType::Utf8 => ["7", "0", "-0", "NaN", "true", "7.0", "", "inf", "jane"]
                .into_iter()
                .map(Value::from)
                .chain([Value::Null])
                .collect(),
        };
        (0..rows)
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        /// The exact phase's rendered-string semantics on every pair of
        /// key types, duplicates on both sides, exact and fuzzy.
        #[test]
        fn typed_key_match_rows_equals_reference(
            seed in 0u64..u64::MAX,
            ltype in 0usize..4,
            rtype in 0usize..4,
            threshold in 0.5f64..1.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (lt, rt) = (KEY_TYPES[ltype], KEY_TYPES[rtype]);
            let l = keyed("l", lt, random_typed_keys(&mut rng, lt, seed as usize % 40));
            let r = keyed("r", rt, random_typed_keys(&mut rng, rt, (seed >> 8) as usize % 40));
            for exact_only in [false, true] {
                let config = ErConfig { threshold, exact_only };
                let got = match_rows(&l, &r, "k", "k", &config).unwrap();
                let expected = reference::match_rows(&l, &r, "k", "k", &config).unwrap();
                prop_assert_eq!(bits(&got), bits(&expected));
            }
        }
    }

    #[test]
    fn signed_zero_nan_and_integral_floats_match_by_rendering() {
        let l = keyed(
            "l",
            DataType::Float64,
            vec![(-0.0).into(), 0.0.into(), f64::NAN.into(), 7.0.into()],
        );
        let r = keyed("r", DataType::Int64, vec![7.into(), 0.into(), 0.into()]);
        let s = keyed("s", DataType::Utf8, vec!["NaN".into(), "-0".into()]);
        let exact = ErConfig {
            exact_only: true,
            ..ErConfig::default()
        };
        let pairs = |a: &Table, b: &Table| -> Vec<(usize, usize)> {
            let got = match_rows(a, b, "k", "k", &exact).unwrap();
            got.iter().map(|m| (m.left, m.right)).collect()
        };
        // "-0" is not "0"; "0" zips with the first "0"; "7" equals "7".
        assert_eq!(pairs(&l, &r), vec![(1, 1), (3, 0)]);
        assert_eq!(pairs(&l, &s), vec![(0, 1), (2, 0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn match_rows_equals_reference(seed in 0u64..u64::MAX, threshold in 0.5f64..1.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let l = keyed("l", DataType::Utf8, random_keys(&mut rng, seed as usize % 60));
            let r = keyed("r", DataType::Utf8, random_keys(&mut rng, (seed >> 8) as usize % 60));
            for exact_only in [false, true] {
                let config = ErConfig { threshold, exact_only };
                let got = match_rows(&l, &r, "k", "k", &config).unwrap();
                let expected = reference::match_rows(&l, &r, "k", "k", &config).unwrap();
                prop_assert_eq!(bits(&got), bits(&expected));
            }
        }
    }
}
