//! Seeded input generators. Everything the program under test receives is
//! made here from `--seed`; the program never sees the seed or the
//! workload's name.

use crate::rng::Rng;
use std::collections::BTreeSet;

/// One silo as the bytes of a CSV file; the file stem becomes the table name.
#[derive(Debug, Clone, PartialEq)]
pub struct SiloCsv {
    pub stem: &'static str,
    pub text: String,
}

// ---------------------------------------------------------------------
// fuzzy_pair: two silos keyed by person names, with planted typos
// ---------------------------------------------------------------------

/// Two silos over partly shared entities and the matching a perfect
/// entity resolution would return.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzyPair {
    pub left: SiloCsv,
    pub right: SiloCsv,
    /// `(left row, right row)` of every shared entity, sorted.
    pub truth: Vec<(usize, usize)>,
    /// Shared entities whose right-hand key carries a typo.
    pub typos: usize,
}

/// Key column of both silos.
pub const FUZZY_KEY: &str = "name";
/// Binary label column of the left silo.
pub const FUZZY_LABEL: &str = "outcome";
const SHARED_COLS: usize = 5;
const LEFT_OWN_COLS: usize = 24;
const RIGHT_OWN_COLS: usize = 25;
const TYPO_SHARE: f64 = 0.3;

// 20 consonants are the initials; blocking in the program's entity
// resolution is by first character, so rows spread over 20 blocks.
const ONSETS: &[&str] = &[
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "q", "r", "s", "t", "v", "w", "x",
    "z", "br", "ch", "dr", "fl", "gr", "kl", "pr", "sh", "st", "tr", "th", "sk",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "y", "ai", "ou", "ea", "io"];
const CODAS: &[&str] = &["", "", "", "n", "r", "s", "l", "m", "k", "t", "nd", "rt"];

fn word(rng: &mut Rng, syllables: usize) -> String {
    let mut w = String::new();
    for i in 0..syllables {
        // The first onset is a single consonant: it is the block key.
        let onset = if i == 0 {
            ONSETS[rng.below(20)]
        } else {
            ONSETS[rng.below(ONSETS.len())]
        };
        w.push_str(onset);
        w.push_str(VOWELS[rng.below(VOWELS.len())]);
        w.push_str(CODAS[rng.below(CODAS.len())]);
    }
    w
}

/// "family given" style key: two pronounceable words, 12 to 30 letters.
fn person_name(rng: &mut Rng) -> String {
    let family = 3 + rng.below(2);
    let given = 2 + rng.below(2);
    format!("{} {}", word(rng, family), word(rng, given))
}

/// One edit (substitute, delete, insert or transpose) that leaves the
/// first character alone, so the typo stays inside its block.
fn typo(name: &str, rng: &mut Rng) -> String {
    let chars: Vec<char> = name.chars().collect();
    loop {
        let mut c = chars.clone();
        let pos = 1 + rng.below(c.len() - 1);
        let letter = (b'a' + rng.below(26) as u8) as char;
        match rng.below(4) {
            0 => c[pos] = letter,
            1 => {
                c.remove(pos);
            }
            2 => c.insert(pos, letter),
            _ if pos + 1 < c.len() => c.swap(pos, pos + 1),
            _ => continue,
        }
        let out: String = c.into_iter().collect();
        if out != name {
            return out;
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Six decimals: what a CSV export of measurements looks like, and a
/// third of the bytes of full `f64` precision.
fn cell(v: f64) -> String {
    format!("{}", (v * 1e6).round() / 1e6)
}

/// Two silos of `rows` rows each: half of each silo's entities are shared
/// with the other, [`TYPO_SHARE`] of the shared ones are misspelt on the
/// right. Shared columns `s0..` carry equal values on shared entities.
pub fn fuzzy_pair(seed: u64, rows: usize) -> FuzzyPair {
    let mut rng = Rng::fork(seed, "fuzzy_pair");
    let shared = rows / 2;
    let only = rows - shared;
    let entities = shared + 2 * only;

    let mut taken = BTreeSet::new();
    let mut names = Vec::with_capacity(entities);
    while names.len() < entities {
        let n = person_name(&mut rng);
        if taken.insert(n.clone()) {
            names.push(n);
        }
    }
    // Entity e: shared if e < shared, then left-only, then right-only.
    let mut right_names: Vec<String> = names.clone();
    let mut typos = 0;
    for name in right_names.iter_mut().take(shared) {
        if rng.chance(TYPO_SHARE) {
            let mut t = typo(name, &mut rng);
            while !taken.insert(t.clone()) {
                t = typo(name, &mut rng);
            }
            *name = t;
            typos += 1;
        }
    }
    let shared_vals: Vec<[f64; SHARED_COLS]> = (0..entities)
        .map(|_| std::array::from_fn(|_| rng.range_f64(0.0, 100.0)))
        .collect();

    let mut left_order: Vec<usize> = (0..shared + only).collect();
    let mut right_order: Vec<usize> = (0..shared).chain(shared + only..entities).collect();
    shuffle(&mut left_order, &mut rng);
    shuffle(&mut right_order, &mut rng);

    let mut left = String::with_capacity(rows * 260);
    left.push_str(FUZZY_KEY);
    left.push(',');
    left.push_str(FUZZY_LABEL);
    for j in 0..SHARED_COLS {
        left.push_str(&format!(",s{j}"));
    }
    for j in 0..LEFT_OWN_COLS {
        left.push_str(&format!(",lab_{j:02}"));
    }
    left.push('\n');
    let mut left_row_of = vec![usize::MAX; entities];
    for (row, &e) in left_order.iter().enumerate() {
        left_row_of[e] = row;
        let own: Vec<f64> = (0..LEFT_OWN_COLS).map(|_| rng.normal()).collect();
        let logit = 0.8 * own[0] - 0.6 * own[1]
            + 0.4 * own[2]
            + 0.02 * (shared_vals[e][0] - 50.0)
            + 0.5 * rng.normal();
        left.push_str(&names[e]);
        left.push_str(if logit > 0.0 { ",1" } else { ",0" });
        for v in shared_vals[e].iter().chain(&own) {
            left.push(',');
            left.push_str(&cell(*v));
        }
        left.push('\n');
    }

    let mut right = String::with_capacity(rows * 260);
    right.push_str(FUZZY_KEY);
    for j in 0..SHARED_COLS {
        right.push_str(&format!(",s{j}"));
    }
    for j in 0..RIGHT_OWN_COLS {
        right.push_str(&format!(",rx_{j:02}"));
    }
    right.push('\n');
    let mut truth = Vec::with_capacity(shared);
    for (row, &e) in right_order.iter().enumerate() {
        if e < shared {
            truth.push((left_row_of[e], row));
        }
        right.push_str(&right_names[e]);
        for v in shared_vals[e]
            .iter()
            .copied()
            .chain((0..RIGHT_OWN_COLS).map(|_| rng.normal()))
        {
            right.push(',');
            right.push_str(&cell(v));
        }
        right.push('\n');
    }
    truth.sort_unstable();

    FuzzyPair {
        left: SiloCsv {
            stem: "silo_a",
            text: left,
        },
        right: SiloCsv {
            stem: "silo_b",
            text: right,
        },
        truth,
        typos,
    }
}

// ---------------------------------------------------------------------
// exact_star: a label-holding base and three satellites on integer keys
// ---------------------------------------------------------------------

/// The drug-risk shape of the paper's introduction: a clinic table that
/// holds the label, and hospital, pharmacy and laboratory tables that
/// each miss some patients.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactStar {
    pub base: SiloCsv,
    pub satellites: Vec<SiloCsv>,
    /// Per satellite, the satellite row of each base row (`None` where
    /// the satellite misses the patient).
    pub truth: Vec<Vec<Option<usize>>>,
}

pub const STAR_KEY: &str = "pid";
pub const STAR_LABEL: &str = "adverse_event";
const STAR_MISSING: f64 = 0.1;

pub fn exact_star(seed: u64, patients: usize) -> ExactStar {
    let mut rng = Rng::fork(seed, "exact_star");
    let mut base = format!("{STAR_KEY},{STAR_LABEL},age,weight\n");
    let headers = [
        "pid,sbp,dbp\n",
        "pid,dose,n_drugs\n",
        "pid,creatinine,alt\n",
    ];
    let mut sat_rows: Vec<Vec<(usize, String)>> = vec![Vec::new(); 3];
    for pid in 0..patients {
        let age = rng.range_f64(20.0, 90.0);
        let weight = rng.range_f64(45.0, 120.0);
        let sbp = rng.range_f64(95.0, 180.0);
        let dbp = sbp - rng.range_f64(30.0, 60.0);
        let dose = rng.range_f64(1.0, 12.0);
        let n_drugs = 1 + rng.below(8);
        let creatinine = rng.range_f64(0.5, 2.5);
        let alt = rng.range_f64(10.0, 80.0);
        let logit = 0.04 * (age - 60.0)
            + 0.35 * (dose - 6.0)
            + 1.2 * (creatinine - 1.4)
            + 0.25 * (n_drugs as f64 - 4.0)
            + 0.02 * (sbp - 135.0)
            + rng.range_f64(-1.5, 1.5);
        base.push_str(&format!(
            "{pid},{},{},{}\n",
            u8::from(logit > 0.0),
            cell(age),
            cell(weight)
        ));
        let lines = [
            format!("{pid},{},{}\n", cell(sbp), cell(dbp)),
            format!("{pid},{},{n_drugs}\n", cell(dose)),
            format!("{pid},{},{}\n", cell(creatinine), cell(alt)),
        ];
        for (rows, line) in sat_rows.iter_mut().zip(lines) {
            if !rng.chance(STAR_MISSING) {
                rows.push((pid, line));
            }
        }
    }
    let stems = ["hospital", "pharmacy", "lab"];
    let mut satellites = Vec::new();
    let mut truth = Vec::new();
    for ((mut rows, header), stem) in sat_rows.into_iter().zip(headers).zip(stems) {
        // Satellites arrive in their own order, not the clinic's.
        shuffle(&mut rows, &mut rng);
        let mut of_base = vec![None; patients];
        let mut text = String::from(header);
        for (row, (pid, line)) in rows.iter().enumerate() {
            of_base[*pid] = Some(row);
            text.push_str(line);
        }
        satellites.push(SiloCsv { stem, text });
        truth.push(of_base);
    }
    ExactStar {
        base: SiloCsv {
            stem: "clinic",
            text: base,
        },
        satellites,
        truth,
    }
}

// ---------------------------------------------------------------------
// serve: request streams
// ---------------------------------------------------------------------

/// One request of an open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    /// Which registered dataset the request scores against.
    pub dataset: usize,
    /// Which of that dataset's pooled scoring vectors it carries.
    pub vector: usize,
}

/// Assigns a dataset and a scoring vector to every due time. Requests of
/// one burst (one shared due time) go to one dataset; bursts visit
/// dataset 0 three times for each visit to dataset 1 when there are two.
pub fn request_stream(seed: u64, due_ns: &[u64], datasets: usize, pool: usize) -> Vec<Arrival> {
    let mut rng = Rng::fork(seed, "request_stream");
    let mut burst = 0usize;
    let mut out = Vec::with_capacity(due_ns.len());
    for (i, &due) in due_ns.iter().enumerate() {
        if i > 0 && due != due_ns[i - 1] {
            burst += 1;
        }
        let dataset = if datasets > 1 && burst % 4 == 3 { 1 } else { 0 };
        out.push(Arrival {
            due_ns: due,
            dataset,
            vector: rng.below(pool),
        });
    }
    out
}

/// `count` scoring vectors of `dim` weights each, in `[-1, 1)`.
pub fn scoring_vectors(seed: u64, stream: &str, count: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::fork(seed, stream);
    (0..count)
        .map(|_| (0..dim).map(|_| rng.range_f64(-1.0, 1.0)).collect())
        .collect()
}

// ---------------------------------------------------------------------
// fedavg: horizontally partitioned regression data
// ---------------------------------------------------------------------

/// One party's rows: `x` row-major `rows × features`, `y` of `rows`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartyData {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
}

/// Standard-normal features, one linear truth shared by all parties, and
/// label noise so the loss has a floor above zero.
pub fn fed_parties(seed: u64, parties: usize, rows: usize, features: usize) -> Vec<PartyData> {
    let mut rng = Rng::fork(seed, "fed_parties");
    let truth: Vec<f64> = (0..features).map(|_| rng.range_f64(-2.0, 2.0)).collect();
    (0..parties)
        .map(|_| {
            let mut x = Vec::with_capacity(rows * features);
            let mut y = Vec::with_capacity(rows);
            for _ in 0..rows {
                let mut dot = 0.0;
                for w in &truth {
                    let v = rng.normal();
                    dot += w * v;
                    x.push(v);
                }
                y.push(dot + 0.5 * rng.normal());
            }
            PartyData { x, y }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::due_times_ns;

    #[test]
    fn same_seed_gives_byte_identical_csvs() {
        assert_eq!(fuzzy_pair(11, 200), fuzzy_pair(11, 200));
        assert_ne!(fuzzy_pair(11, 200).left.text, fuzzy_pair(12, 200).left.text);
        assert_eq!(exact_star(11, 300), exact_star(11, 300));
        assert_ne!(exact_star(11, 300).base.text, exact_star(12, 300).base.text);
    }

    #[test]
    fn same_seed_gives_identical_request_streams_and_parties() {
        let due = due_times_ns(1600.0, 16, 0.1);
        assert_eq!(
            request_stream(5, &due, 2, 64),
            request_stream(5, &due, 2, 64)
        );
        assert_ne!(
            request_stream(5, &due, 2, 64),
            request_stream(6, &due, 2, 64)
        );
        assert_eq!(scoring_vectors(5, "a", 4, 9), scoring_vectors(5, "a", 4, 9));
        assert_eq!(fed_parties(5, 2, 50, 4), fed_parties(5, 2, 50, 4));
    }

    #[test]
    fn fuzzy_pair_plants_the_stated_structure() {
        let p = fuzzy_pair(3, 2000);
        let keys = |csv: &str| -> Vec<String> {
            csv.lines()
                .skip(1)
                .map(|l| l.split(',').next().unwrap().to_owned())
                .collect()
        };
        let (l, r) = (keys(&p.left.text), keys(&p.right.text));
        assert_eq!((l.len(), r.len()), (2000, 2000));
        assert_eq!(p.truth.len(), 1000, "half of each silo is shared");
        let share = p.typos as f64 / 1000.0;
        assert!((0.25..0.35).contains(&share), "typo share {share}");
        let mut differing = 0;
        for &(i, j) in &p.truth {
            assert_eq!(
                l[i].chars().next(),
                r[j].chars().next(),
                "typo moved the block"
            );
            differing += usize::from(l[i] != r[j]);
        }
        assert_eq!(differing, p.typos);
        let initials: BTreeSet<char> = l.iter().filter_map(|k| k.chars().next()).collect();
        assert!(initials.len() >= 20, "{} initials", initials.len());
        // 1 key + 1 label + 5 shared + 24 own; 1 key + 5 shared + 25 own.
        assert_eq!(p.left.text.lines().next().unwrap().split(',').count(), 31);
        assert_eq!(p.right.text.lines().next().unwrap().split(',').count(), 31);
    }

    #[test]
    fn exact_star_truth_points_at_the_same_patient() {
        let s = exact_star(9, 500);
        for (sat, truth) in s.satellites.iter().zip(&s.truth) {
            let pids: Vec<usize> = sat
                .text
                .lines()
                .skip(1)
                .map(|l| l.split(',').next().unwrap().parse().unwrap())
                .collect();
            assert!(pids.len() < 500 && pids.len() > 400);
            for (pid, row) in truth.iter().enumerate() {
                if let Some(r) = row {
                    assert_eq!(pids[*r], pid);
                }
            }
            assert_eq!(truth.iter().flatten().count(), pids.len());
        }
    }

    #[test]
    fn bursts_alternate_three_to_one_over_two_datasets() {
        let due = due_times_ns(1600.0, 16, 0.08);
        let s = request_stream(1, &due, 2, 8);
        let per_burst: Vec<usize> = s.chunks(16).map(|b| b[0].dataset).collect();
        assert_eq!(per_burst, vec![0, 0, 0, 1, 0, 0, 0, 1]);
        assert!(s
            .chunks(16)
            .all(|b| b.iter().all(|a| a.dataset == b[0].dataset)));
        assert!(request_stream(1, &due, 1, 8).iter().all(|a| a.dataset == 0));
    }
}
