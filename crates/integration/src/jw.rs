//! Bound-pruned, allocation-free Jaro–Winkler over pre-decoded keys.
//!
//! The fuzzy phase of [`crate::er`] asks one question per in-block pair:
//! *does the Jaro–Winkler score reach the threshold, and if so what is
//! it?* [`similarity_at_least`] answers it with the filter chain and the
//! soundness argument laid out in the [`crate::er`] module docs; this
//! file holds the pieces — keys decoded once into a [`KeyArena`], the
//! character-count signature, the score expression shared by bound and
//! kernel, and the scan itself over reused [`Scratch`].

/// Count bins per signature. A char lands in bin `code point mod 128`:
/// ASCII keeps one bin per character, everything wider shares bins.
const BINS: usize = 128;

/// Longest key (in chars) that gets a count signature. A longer key could
/// hold one character more than 255 times; its `u8` bin would wrap, the
/// count would come out *too small* and the bound would stop being a
/// bound. Such keys skip the count filter and fall back to
/// `min(len_a, len_b)`.
const MAX_COUNTED_LEN: usize = u8::MAX as usize;

/// Slack added to an upper bound before it is compared with the
/// threshold. The Jaro part of the bound is monotone in the match count
/// operation by operation, so it needs none; the Winkler boost
/// `j + p·0.1·(1 − j)` is monotone in `j` over the reals but each of its
/// three roundings may be off by half an ulp (< 2⁻⁵³ for values in
/// `[0, 1]`), so two evaluations can disagree with the real order by a
/// few 1e-16. 1e-12 covers that thousands of times over and costs only
/// the pairs whose bound lands that close to the threshold — they are
/// scored instead of skipped.
const BOUND_SLACK: f64 = 1e-12;

/// Decoded keys packed back to back, each with its count signature.
#[derive(Default)]
pub(crate) struct KeyArena {
    chars: Vec<char>,
    /// `ends[k]` is one past key `k`'s last char in `chars`.
    ends: Vec<usize>,
    counts: Vec<[u8; BINS]>,
}

/// One key of a [`KeyArena`].
#[derive(Clone, Copy)]
pub(crate) struct Key<'a> {
    chars: &'a [char],
    counts: &'a [u8; BINS],
}

impl KeyArena {
    /// Decodes `key` and appends it.
    pub(crate) fn push(&mut self, key: &str) {
        let start = self.chars.len();
        self.chars.extend(key.chars());
        let decoded = &self.chars[start..];
        let mut counts = [0u8; BINS];
        if decoded.len() <= MAX_COUNTED_LEN {
            for &c in decoded {
                // Cannot overflow: no bin exceeds the key length.
                counts[c as usize % BINS] += 1;
            }
        }
        self.ends.push(self.chars.len());
        self.counts.push(counts);
    }

    /// Empties the arena, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.chars.clear();
        self.ends.clear();
        self.counts.clear();
    }

    /// Key number `k`, in push order.
    pub(crate) fn get(&self, k: usize) -> Key<'_> {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        Key {
            chars: &self.chars[start..self.ends[k]],
            counts: &self.counts[k],
        }
    }
}

/// Upper bound on the number of Jaro matches between `a` and `b`: a match
/// pairs two equal characters and uses each position once, so character
/// `c` contributes at most `min(cnt_a[c], cnt_b[c])`; characters sharing
/// a bin can only raise the sum of minima.
fn match_bound(a: Key<'_>, b: Key<'_>) -> usize {
    let shorter = a.chars.len().min(b.chars.len());
    if a.chars.len().max(b.chars.len()) > MAX_COUNTED_LEN {
        return shorter;
    }
    // ≤ 128 · 255, so the sum fits the `u16` lanes it vectorizes into.
    let shared: u16 = a
        .counts
        .iter()
        .zip(b.counts)
        .map(|(&x, &y)| u16::from(x.min(y)))
        .sum();
    usize::from(shared)
}

/// The Jaro–Winkler score of a pair with `matches` matches and
/// `transpositions` transpositions — the reference's float expression,
/// operation for operation, so equal counts give equal bits.
fn score(matches: usize, transpositions: usize, la: usize, lb: usize, prefix: usize) -> f64 {
    let jaro = if matches == 0 {
        0.0
    } else {
        let m = matches as f64;
        (m / la as f64 + m / lb as f64 + (m - transpositions as f64) / m) / 3.0
    };
    jaro + prefix as f64 * 0.1 * (1.0 - jaro)
}

/// `true` when a pair with at most `matches` matches provably scores
/// below `threshold`: the score at `matches` matches and no
/// transposition bounds every score the pair can still reach.
fn out_of_reach(matches: usize, la: usize, lb: usize, prefix: usize, threshold: f64) -> bool {
    score(matches, 0, la, lb, prefix) + BOUND_SLACK < threshold
}

/// Taken-flags of the scan, reused across pairs.
#[derive(Default)]
pub(crate) struct Scratch {
    a_taken: Vec<bool>,
    b_taken: Vec<bool>,
}

/// What [`similarity_at_least`] found out about a pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Verdict {
    /// The count bound ruled the pair out; nothing was scanned.
    Pruned,
    /// The pair was scanned and scores below the threshold.
    Below,
    /// The pair's Jaro–Winkler score, which is `>=` the threshold.
    Reached(f64),
}

/// Decides whether `jaro_winkler(a, b) >= threshold` and returns the
/// exact score when it is.
pub(crate) fn similarity_at_least(
    a: Key<'_>,
    b: Key<'_>,
    threshold: f64,
    scratch: &mut Scratch,
) -> Verdict {
    let reached = |s: f64| {
        if s >= threshold {
            Verdict::Reached(s)
        } else {
            Verdict::Below
        }
    };
    let (la, lb) = (a.chars.len(), b.chars.len());
    if la == 0 || lb == 0 {
        return reached(if la == lb { 1.0 } else { 0.0 });
    }
    let prefix = a
        .chars
        .iter()
        .zip(b.chars)
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    let bound = match_bound(a, b);
    if out_of_reach(bound, la, lb, prefix, threshold) {
        return Verdict::Pruned;
    }

    let (a, b) = (a.chars, b.chars);
    let window = (la.max(lb) / 2).saturating_sub(1);
    scratch.a_taken.clear();
    scratch.a_taken.resize(la, false);
    scratch.b_taken.clear();
    scratch.b_taken.resize(lb, false);
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(lb);
        let hit = (lo..hi).find(|&j| !scratch.b_taken[j] && b[j] == ca);
        if let Some(j) = hit {
            scratch.a_taken[i] = true;
            scratch.b_taken[j] = true;
            matches += 1;
        } else {
            // Only a miss lowers what is still reachable: every char of
            // `a` not yet scanned can add one match at most.
            let reachable = bound.min(matches + (la - i - 1));
            if out_of_reach(reachable, la, lb, prefix, threshold) {
                return Verdict::Below;
            }
        }
    }

    // Matched chars of `a` and of `b`, each in position order, compared
    // pairwise; half the mismatches are transpositions.
    let mut mismatched = 0usize;
    let mut j = 0;
    for (i, &ca) in a.iter().enumerate() {
        if !scratch.a_taken[i] {
            continue;
        }
        while !scratch.b_taken[j] {
            j += 1;
        }
        if ca != b[j] {
            mismatched += 1;
        }
        j += 1;
    }
    reached(score(matches, mismatched / 2, la, lb, prefix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::jaro_winkler;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn verdict(a: &str, b: &str, threshold: f64) -> Verdict {
        let mut keys = KeyArena::default();
        keys.push(a);
        keys.push(b);
        similarity_at_least(keys.get(0), keys.get(1), threshold, &mut Scratch::default())
    }

    /// The contract: the exact reference score when it reaches the
    /// threshold, a refusal only when it does not.
    fn agrees_with_reference(a: &str, b: &str, threshold: f64) -> Result<(), TestCaseError> {
        let expected = jaro_winkler(a, b);
        let reaches = expected >= threshold; // false for a NaN threshold
        match verdict(a, b, threshold) {
            Verdict::Reached(s) => {
                prop_assert!(reaches, "reached {s} but reference {expected}");
                prop_assert_eq!(s.to_bits(), expected.to_bits());
            }
            declined => prop_assert!(
                !reaches,
                "{declined:?} at {threshold} but reference {expected}"
            ),
        }
        Ok(())
    }

    /// One letter overflows a `u8` bin in a long key; `á é ı` share bins
    /// with `a i 1` (code points 128 apart); `日` and `😀` are wider than
    /// one byte in UTF-8.
    const ALPHABETS: [&str; 5] = [
        "a",
        "ab",
        "abcdefghijklmnopqrstuvwxyz",
        "aáeéi1ı 日😀",
        "JjOoHhNn -'",
    ];

    fn random_key(rng: &mut StdRng, alphabet: &[char]) -> String {
        let len = match rng.gen_range(0..10) {
            0 => 0,
            1 => 1,
            2 => rng.gen_range(250..400), // past the u8 bins
            _ => rng.gen_range(2..16),
        };
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }

    /// `key` after `edits` random substitutions, swaps, insertions and
    /// deletions.
    fn misspell(rng: &mut StdRng, key: &str, alphabet: &[char], edits: usize) -> String {
        let mut chars: Vec<char> = key.chars().collect();
        for _ in 0..edits {
            let fresh = alphabet[rng.gen_range(0..alphabet.len())];
            let at = rng.gen_range(0..chars.len() + 1);
            match rng.gen_range(0..4) {
                0 if at < chars.len() => chars[at] = fresh,
                1 if at + 1 < chars.len() => chars.swap(at, at + 1),
                2 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.insert(at, fresh),
            }
        }
        chars.into_iter().collect()
    }

    fn random_pair(seed: u64) -> (String, String) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet: Vec<char> = ALPHABETS[rng.gen_range(0..ALPHABETS.len())]
            .chars()
            .collect();
        let a = random_key(&mut rng, &alphabet);
        let b = match rng.gen_range(0..4) {
            0 => random_key(&mut rng, &alphabet),
            1 => {
                // Shared prefix, unrelated tail.
                let keep = rng.gen_range(0..6);
                let tail = random_key(&mut rng, &alphabet);
                a.chars().take(keep).chain(tail.chars()).collect()
            }
            2 => a.chars().rev().collect(),
            _ => {
                let edits = rng.gen_range(0..4);
                misspell(&mut rng, &a, &alphabet, edits)
            }
        };
        (a, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6000))]
        #[test]
        fn kernel_matches_reference(seed in 0u64..u64::MAX, threshold in 0.0f64..1.0) {
            let (a, b) = random_pair(seed);
            agrees_with_reference(&a, &b, threshold)?;
            // On the boundary: the score itself must be reached, the next
            // float above it must not.
            let exact = jaro_winkler(&a, &b);
            agrees_with_reference(&a, &b, exact)?;
            agrees_with_reference(&a, &b, f64::from_bits(exact.to_bits() + 1))?;
        }
    }

    #[test]
    fn thresholds_outside_the_unit_interval() {
        for (a, b) in [("", ""), ("a", ""), ("jane", "jane"), ("jane", "john")] {
            for threshold in [0.0, 1.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
                agrees_with_reference(a, b, threshold).unwrap();
            }
        }
    }

    #[test]
    fn count_bound_prunes_without_scanning() {
        assert_eq!(verdict("jabcdefg", "jzzzzzzz", 0.85), Verdict::Pruned);
        // Same letters, different order: the counts cannot tell, the scan can.
        assert_eq!(verdict("jabcdefg", "jgfedcba", 0.85), Verdict::Below);
    }

    #[test]
    fn keys_past_the_u8_bins_are_not_under_counted() {
        // 300 × 'a' wraps a u8 bin to 44; a bound built from that would
        // cap the score near 0.43 and prune a near-identical pair.
        let a = "a".repeat(300);
        let b = format!("{}b", "a".repeat(299));
        let expected = jaro_winkler(&a, &b);
        assert!(expected > 0.99);
        assert_eq!(verdict(&a, &b, 0.9), Verdict::Reached(expected));
    }
}
