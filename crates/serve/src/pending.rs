//! The pending queue: the serving layer's whole queueing and batching
//! policy as a plain data structure — no clock, no thread, no channel,
//! no lock. `server.rs` wraps one instance in a `Mutex` + `Condvar`;
//! everything that decides *what runs next, with whom* is here, where
//! the tests below can drive it step by step.
//!
//! # Policy
//!
//! * **Admission** ([`Pending::admit`]) appends to one arrival-ordered
//!   queue. It refuses with [`ServeError::ShuttingDown`] once
//!   [`Pending::begin_drain`] was called and with
//!   [`ServeError::Overloaded`] when `len == capacity` — that comparison
//!   *is* the serving layer's backpressure bound (there is no channel
//!   whose buffer could hide more): at most `capacity` jobs are ever
//!   pending. Both refusals are decided by the same `&mut self` call as
//!   the push, so under the server's lock an admitted job is always
//!   ahead of the drain: admitted ⇒ taken.
//! * **Dispatch** ([`Pending::take`]) is what an idle worker calls. It
//!   removes the *oldest* job; if that is a predict it also removes, in
//!   arrival order, every later pending predict of the same
//!   (dataset, version) while the batch stays within `max_batch_cols`
//!   operand columns, and stops at the first same-key predict that does
//!   not fit — a later, narrower one may not overtake it, so answers
//!   for one (dataset, version) leave in arrival order.
//!
//! Nothing is ever *held*: a batch is whatever backlog built up behind
//! busy workers, and a request that finds a worker idle runs alone at
//! once. Batch composition cannot change an answer (every predict runs
//! the column-stable kernel), so this is purely a throughput policy.

use crate::error::{Result, ServeError};
use std::collections::VecDeque;

/// What the queue needs to know about a predict to batch it.
pub(crate) trait Batchable {
    /// Predicts coalesce only within one (dataset, version).
    fn key(&self) -> (&str, u64);
    /// Operand columns this request contributes to a batch (≥ 1).
    fn cols(&self) -> usize;
}

/// One admitted request.
pub(crate) enum Job<P, T> {
    Predict(P),
    Train(T),
}

/// One unit of worker execution.
pub(crate) enum Work<P, T> {
    /// One GEMM's worth of predicts for the same (dataset, version),
    /// in arrival order; never empty.
    PredictBatch(Vec<P>),
    Train(T),
}

/// Arrival-ordered admitted jobs (see the module docs).
pub(crate) struct Pending<P, T> {
    jobs: VecDeque<Job<P, T>>,
    capacity: usize,
    draining: bool,
}

impl<P: Batchable, T> Pending<P, T> {
    /// An empty queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        Self {
            jobs: VecDeque::new(),
            capacity,
            draining: false,
        }
    }

    /// Appends `job`, or refuses it (dropping it) with a typed error.
    pub fn admit(&mut self, job: Job<P, T>) -> Result<()> {
        if self.draining {
            return Err(ServeError::ShuttingDown);
        }
        if self.jobs.len() == self.capacity {
            return Err(ServeError::Overloaded {
                capacity: self.capacity,
            });
        }
        self.jobs.push_back(job);
        Ok(())
    }

    /// Removes the oldest job and, for a predict, its batch companions;
    /// `None` when nothing is pending.
    ///
    /// Removing a companion from the middle shifts the (at most
    /// `capacity`) jobs on its shorter side; same-key backlogs are
    /// mostly contiguous, so the common removal is from the front.
    pub fn take(&mut self, max_batch_cols: usize) -> Option<Work<P, T>> {
        let first = match self.jobs.pop_front()? {
            Job::Train(t) => return Some(Work::Train(t)),
            Job::Predict(p) => p,
        };
        let mut cols = first.cols();
        let mut batch = vec![first];
        let mut i = 0;
        while cols < max_batch_cols && i < self.jobs.len() {
            match &self.jobs[i] {
                Job::Predict(p) if p.key() == batch[0].key() => {
                    if cols + p.cols() > max_batch_cols {
                        break;
                    }
                    cols += p.cols();
                    if let Some(Job::Predict(p)) = self.jobs.remove(i) {
                        batch.push(p);
                    }
                }
                _ => i += 1,
            }
        }
        Some(Work::PredictBatch(batch))
    }

    /// From now on every [`Self::admit`] is refused; what is already
    /// pending stays takeable.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether [`Self::begin_drain`] was called — with an empty queue,
    /// a worker's signal to exit.
    pub fn is_draining(&self) -> bool {
        self.draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A predict reduced to what the policy reads, plus its admission
    /// sequence number.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct P {
        seq: usize,
        dataset: &'static str,
        version: u64,
        cols: usize,
    }

    impl Batchable for P {
        fn key(&self) -> (&str, u64) {
            (self.dataset, self.version)
        }
        fn cols(&self) -> usize {
            self.cols
        }
    }

    type Queue = Pending<P, usize>;

    fn predict(seq: usize, dataset: &'static str, version: u64, cols: usize) -> Job<P, usize> {
        Job::Predict(P {
            seq,
            dataset,
            version,
            cols,
        })
    }

    /// The sequence numbers of one taken unit (a train is a batch of one).
    fn seqs(work: Option<Work<P, usize>>) -> Vec<usize> {
        match work {
            None => Vec::new(),
            Some(Work::Train(seq)) => vec![seq],
            Some(Work::PredictBatch(batch)) => batch.iter().map(|p| p.seq).collect(),
        }
    }

    #[test]
    fn mixed_backlog_leaves_as_one_batch_per_key() {
        let mut q = Queue::new(8);
        for (seq, dataset) in ["a", "b", "a", "b", "a"].into_iter().enumerate() {
            q.admit(predict(seq, dataset, 1, 1)).unwrap();
        }
        assert_eq!(seqs(q.take(32)), [0, 2, 4]);
        assert_eq!(seqs(q.take(32)), [1, 3]);
        assert_eq!(seqs(q.take(32)), []);
    }

    #[test]
    fn versions_and_trains_do_not_coalesce() {
        let mut q = Queue::new(8);
        q.admit(predict(0, "a", 1, 1)).unwrap();
        q.admit(Job::Train(1)).unwrap();
        q.admit(predict(2, "a", 2, 1)).unwrap();
        q.admit(predict(3, "a", 1, 1)).unwrap();
        assert_eq!(seqs(q.take(32)), [0, 3]);
        assert_eq!(seqs(q.take(32)), [1]);
        assert_eq!(seqs(q.take(32)), [2]);
    }

    #[test]
    fn request_wider_than_the_room_left_starts_the_next_batch() {
        let mut q = Queue::new(8);
        q.admit(predict(0, "a", 1, 2)).unwrap();
        q.admit(predict(1, "a", 1, 3)).unwrap(); // 2 + 3 > 4
        q.admit(predict(2, "a", 1, 1)).unwrap(); // would fit, may not overtake
        q.admit(predict(3, "a", 1, 9)).unwrap(); // wider than any batch
        assert_eq!(seqs(q.take(4)), [0]);
        assert_eq!(seqs(q.take(4)), [1, 2]);
        assert_eq!(seqs(q.take(4)), [3], "an over-wide request runs alone");
    }

    #[test]
    fn width_one_disables_coalescing() {
        let mut q = Queue::new(8);
        q.admit(predict(0, "a", 1, 1)).unwrap();
        q.admit(predict(1, "a", 1, 1)).unwrap();
        assert_eq!(seqs(q.take(1)), [0]);
        assert_eq!(seqs(q.take(1)), [1]);
    }

    #[test]
    fn capacity_is_exact_and_drain_refuses_but_empties() {
        let mut q = Queue::new(2);
        q.admit(predict(0, "a", 1, 1)).unwrap();
        q.admit(Job::Train(1)).unwrap();
        assert!(matches!(
            q.admit(predict(2, "a", 1, 1)),
            Err(ServeError::Overloaded { capacity: 2 })
        ));
        assert_eq!(seqs(q.take(32)), [0]);
        q.admit(predict(3, "b", 1, 1)).unwrap(); // a slot freed
        assert!(!q.is_draining());
        q.begin_drain();
        assert!(q.is_draining());
        assert!(matches!(
            q.admit(Job::Train(4)),
            Err(ServeError::ShuttingDown)
        ));
        assert_eq!(seqs(q.take(32)), [1]);
        assert_eq!(seqs(q.take(32)), [3]);
        assert!(q.take(32).is_none());
    }

    /// What the model remembers of an admitted job.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Admitted {
        Predict(P),
        Train(usize),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Random interleavings of admits (two datasets × two versions,
        /// widths 1–4, trains) and takes against an arrival-ordered
        /// model of what is pending. The vendored proptest only draws
        /// from ranges, so a case is a seed and the interleaving is
        /// generated from it here.
        #[test]
        fn random_interleavings_keep_every_invariant(
            seed in 0u64..u64::MAX,
            capacity in 1usize..12,
            max_batch_cols in 1usize..9,
            admit_pct in 35u64..80,
            steps in 20usize..120,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = Queue::new(capacity);
            let mut model: Vec<Admitted> = Vec::new();
            let mut taken: Vec<u32> = Vec::new();
            let mut draining = false;

            // One take, checked against the model; returns whether the
            // queue had anything.
            let check_take = |q: &mut Queue,
                              model: &mut Vec<Admitted>,
                              taken: &mut Vec<u32>|
             -> std::result::Result<bool, TestCaseError> {
                let Some(work) = q.take(max_batch_cols) else {
                    prop_assert!(model.is_empty(), "take found nothing with jobs pending");
                    return Ok(false);
                };
                prop_assert!(!model.is_empty(), "take invented work");
                let got = match work {
                    Work::Train(seq) => {
                        // Starts at the oldest pending job.
                        prop_assert_eq!(&model[0], &Admitted::Train(seq));
                        vec![seq]
                    }
                    Work::PredictBatch(batch) => {
                        prop_assert!(!batch.is_empty());
                        prop_assert_eq!(&model[0], &Admitted::Predict(batch[0].clone()));
                        let key = batch[0].key();
                        let cols: usize = batch.iter().map(P::cols).sum();
                        prop_assert!(batch.iter().all(|p| p.key() == key), "mixed keys");
                        prop_assert!(
                            cols <= max_batch_cols || batch.len() == 1,
                            "{cols} columns in a batch of {}", batch.len()
                        );
                        // Exactly the longest fitting prefix of the
                        // pending same-key predicts, in arrival order:
                        // per-key order is preserved across batches and
                        // nothing that fits is left behind.
                        let same_key: Vec<&P> = model
                            .iter()
                            .filter_map(|a| match a {
                                Admitted::Predict(p) if p.key() == key => Some(p),
                                _ => None,
                            })
                            .collect();
                        let mut room = max_batch_cols.saturating_sub(same_key[0].cols);
                        let mut expect = vec![same_key[0].seq];
                        for p in &same_key[1..] {
                            if p.cols > room {
                                break;
                            }
                            room -= p.cols;
                            expect.push(p.seq);
                        }
                        let got: Vec<usize> = batch.iter().map(|p| p.seq).collect();
                        prop_assert_eq!(&got, &expect);
                        got
                    }
                };
                for seq in got {
                    taken[seq] += 1;
                    model.retain(|a| match a {
                        Admitted::Predict(p) => p.seq != seq,
                        Admitted::Train(s) => *s != seq,
                    });
                }
                Ok(true)
            };

            for step in 0..steps {
                if !draining && step == steps * 4 / 5 && rng.gen_range(0..2) == 0 {
                    q.begin_drain();
                    draining = true;
                }
                if rng.gen_range(0..100u64) < admit_pct {
                    let seq = taken.len();
                    let (job, remembered) = if rng.gen_range(0..8) == 0 {
                        (Job::Train(seq), Admitted::Train(seq))
                    } else {
                        let p = P {
                            seq,
                            dataset: if rng.gen_range(0..2) == 0 { "a" } else { "b" },
                            version: rng.gen_range(1..3),
                            cols: rng.gen_range(1..5),
                        };
                        (Job::Predict(p.clone()), Admitted::Predict(p))
                    };
                    let full = model.len() == capacity;
                    match q.admit(job) {
                        Ok(()) => {
                            prop_assert!(!draining && !full, "admitted while draining or full");
                            model.push(remembered);
                            taken.push(0);
                        }
                        Err(ServeError::ShuttingDown) => prop_assert!(draining),
                        Err(ServeError::Overloaded { capacity: c }) => {
                            prop_assert!(!draining && full, "Overloaded at {} of {capacity}", model.len());
                            prop_assert_eq!(c, capacity);
                        }
                        Err(e) => prop_assert!(false, "unexpected refusal: {e}"),
                    }
                } else {
                    check_take(&mut q, &mut model, &mut taken)?;
                }
            }

            // Drain: admits are refused, takes empty the queue, and every
            // admitted job was taken exactly once.
            q.begin_drain();
            prop_assert!(matches!(q.admit(Job::Train(usize::MAX)), Err(ServeError::ShuttingDown)));
            while check_take(&mut q, &mut model, &mut taken)? {}
            prop_assert!(model.is_empty());
            prop_assert!(taken.iter().all(|&n| n == 1), "taken counts: {taken:?}");
        }
    }
}
