//! Reference oracles: the matchers' plain definitions, compiled for tests
//! only.
//!
//! These are the loops `er.rs` and `matching.rs` ran before they were
//! made fast, kept word for word: Jaro–Winkler over `&str` with fresh
//! buffers per call, an exact phase that emits every pair of equal keys,
//! a fuzzy phase that scores every in-block pair, and a Jaccard overlap
//! that rebuilds both value sets per column pair. The production code
//! must return what these return, bit for bit; the differential tests in
//! `er.rs` and `matching.rs` hold it to that.

use crate::er::{ErConfig, RowMatch};
use crate::matching::{name_similarity, types_compatible, ColumnMatch, MatchingConfig};
use crate::{IntegrationError, Result};
use amalur_relational::Table;
use std::collections::{BTreeMap, BTreeSet};

/// `match_rows` by definition: all pairs of equal keys, all in-block
/// pairs, one greedy pass over the lot.
pub(crate) fn match_rows(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
    config: &ErConfig,
) -> Result<Vec<RowMatch>> {
    let lcol = left
        .column_by_name(left_key)
        .map_err(|_| IntegrationError::UnknownColumn(left_key.to_owned()))?;
    let rcol = right
        .column_by_name(right_key)
        .map_err(|_| IntegrationError::UnknownColumn(right_key.to_owned()))?;

    let lkeys: Vec<String> = (0..left.num_rows())
        .map(|i| lcol.get(i).to_string())
        .collect();
    let rkeys: Vec<String> = (0..right.num_rows())
        .map(|i| rcol.get(i).to_string())
        .collect();

    let mut candidates: Vec<RowMatch> = Vec::new();

    // Exact phase: key equality on the rendered key (NULL renders empty
    // and is skipped — NULL matches nothing). BTreeMap keeps iteration
    // (and hence candidate emission) in a deterministic order.
    let mut exact: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (j, k) in rkeys.iter().enumerate() {
        if !k.is_empty() {
            exact.entry(k.as_str()).or_default().push(j);
        }
    }
    let mut left_exactly_matched = vec![false; lkeys.len()];
    let mut right_exactly_matched = vec![false; rkeys.len()];
    for (i, k) in lkeys.iter().enumerate() {
        if k.is_empty() {
            continue;
        }
        if let Some(js) = exact.get(k.as_str()) {
            for &j in js {
                candidates.push(RowMatch {
                    left: i,
                    right: j,
                    score: 1.0,
                });
                left_exactly_matched[i] = true;
                right_exactly_matched[j] = true;
            }
        }
    }

    // Fuzzy phase with blocking: compare only rows whose normalized first
    // character agrees, and only rows not already matched exactly.
    if !config.exact_only {
        let block_of =
            |s: &str| -> Option<char> { s.chars().next().map(|c| c.to_ascii_lowercase()) };
        let mut blocks: BTreeMap<char, Vec<usize>> = BTreeMap::new();
        for (j, k) in rkeys.iter().enumerate() {
            if right_exactly_matched[j] {
                continue;
            }
            if let Some(b) = block_of(k) {
                blocks.entry(b).or_default().push(j);
            }
        }
        for (i, k) in lkeys.iter().enumerate() {
            if left_exactly_matched[i] || k.is_empty() {
                continue;
            }
            let Some(b) = block_of(k) else { continue };
            let Some(js) = blocks.get(&b) else { continue };
            for &j in js {
                let s = jaro_winkler(k, &rkeys[j]);
                if s >= config.threshold {
                    candidates.push(RowMatch {
                        left: i,
                        right: j,
                        score: s,
                    });
                }
            }
        }
    }

    // Greedy 1:1 resolution by descending score (deterministic ties).
    candidates.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.left.cmp(&y.left))
            .then_with(|| x.right.cmp(&y.right))
    });
    let mut used_left = vec![false; left.num_rows()];
    let mut used_right = vec![false; right.num_rows()];
    let mut out = Vec::new();
    for c in candidates {
        if used_left[c.left] || used_right[c.right] {
            continue;
        }
        used_left[c.left] = true;
        used_right[c.right] = true;
        out.push(c);
    }
    out.sort_by_key(|m| (m.left, m.right));
    Ok(out)
}

/// Jaro similarity of two strings.
fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_taken = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_matched: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == ca {
                b_taken[j] = true;
                matches += 1;
                a_matched.push(ca);
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let b_matched: Vec<char> = b
        .iter()
        .zip(&b_taken)
        .filter(|&(_, &t)| t)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = a_matched
        .iter()
        .zip(&b_matched)
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro–Winkler similarity: Jaro boosted by shared prefix (≤ 4 chars).
pub(crate) fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Jaccard similarity of distinct rendered values (up to `sample` each).
pub(crate) fn value_overlap(
    left: &Table,
    lcol: &str,
    right: &Table,
    rcol: &str,
    sample: usize,
) -> f64 {
    let distinct = |t: &Table, col: &str| -> BTreeSet<String> {
        // Callers validated the column name; an empty set (zero overlap)
        // is the defensive answer for the unreachable miss.
        let Ok(c) = t.column_by_name(col) else {
            return BTreeSet::new();
        };
        let mut out = BTreeSet::new();
        for i in 0..t.num_rows().min(sample) {
            let v = c.get(i);
            if !v.is_null() {
                out.insert(v.to_string());
            }
        }
        out
    };
    let a = distinct(left, lcol);
    let b = distinct(right, rcol);
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(&b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// `match_schemas` by definition: both value sets rebuilt for every
/// type-compatible column pair.
pub(crate) fn match_schemas(
    left: &Table,
    right: &Table,
    config: &MatchingConfig,
) -> Vec<ColumnMatch> {
    let mut candidates: Vec<ColumnMatch> = Vec::new();
    for lf in left.schema().fields() {
        for rf in right.schema().fields() {
            if !types_compatible(lf.dtype, rf.dtype) {
                continue;
            }
            let name_s = name_similarity(&lf.name, &rf.name);
            let value_s = value_overlap(left, &lf.name, right, &rf.name, config.value_sample);
            let score = config.name_weight * name_s + config.value_weight * value_s;
            if score >= config.threshold {
                candidates.push(ColumnMatch {
                    left: lf.name.clone(),
                    right: rf.name.clone(),
                    score,
                });
            }
        }
    }
    // Greedy 1:1 assignment by descending score; ties broken by name for
    // determinism.
    candidates.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.left.cmp(&y.left))
            .then_with(|| x.right.cmp(&y.right))
    });
    let mut used_left: BTreeSet<String> = BTreeSet::new();
    let mut used_right: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    for c in candidates {
        if used_left.contains(&c.left) || used_right.contains(&c.right) {
            continue;
        }
        used_left.insert(c.left.clone());
        used_right.insert(c.right.clone());
        out.push(c);
    }
    out
}
