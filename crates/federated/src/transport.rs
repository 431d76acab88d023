//! The wire between parties and the orchestrator.
//!
//! Every party↔orchestrator message in the federated protocols rides on
//! a [`Transport`]. The transport does not move bytes — parties are
//! in-process — it *decides the fate* of each message attempt: delivered
//! (after how much virtual delay, how many duplicated copies), dropped,
//! corrupted in flight, or delivered with a stale round tag. So the full
//! failure-handling path is exercised without sockets or real sleeps.
//!
//! # The exchange
//!
//! Surviving those fates is one function, `exchange` (crate-private):
//! one request/reply with one party. FedAvg calls it once per party per
//! round, VFL once per party per phase, and neither protocol contains a
//! retry loop of its own. It checks the party's crash window, then runs
//! up to [`RetryPolicy::max_attempts`] attempts with exponential backoff
//! and seeded jitter under the per-attempt and total virtual deadlines,
//! accounts every attempt in [`CommStats`] (bytes and messages per
//! attempt and per duplicated copy, drops, stragglers, corrupt / stale
//! rejects, timeouts, crash outages), emits the party-level
//! [`RoundEvent`]s and reports the virtual milliseconds consumed. The
//! caller supplies what is protocol-specific: a closure that serves one
//! delivered request (FedAvg's local update — trained on the first
//! delivery, freshly noised on each — or VFL's channel send/recv) and
//! an accept check on a delivered reply (FedAvg's [`Envelope`] round
//! tag and checksum).
//!
//! The exchange takes **two round numbers**. The *logical* round is the
//! unit callers and users speak — FedAvg round, VFL epoch: crash windows
//! ([`Transport::available`]), [`RoundEvent::round`] and
//! [`crate::FederatedError::QuorumLost`] are in it. The *wire* round
//! keys the seeded draws — [`MessageMeta::round`] and the backoff
//! jitter. FedAvg passes its round for both; VFL has two exchanges per
//! epoch and passes `2·epoch + phase` on the wire so their fault draws
//! are independent, while availability is still asked per epoch.
//!
//! Two transports ship with the crate:
//!
//! * [`ReliableTransport`] — every attempt is delivered once after one
//!   RTT; the pre-fault-model behavior.
//! * [`crate::FaultyTransport`] — deterministic, seed-driven fault
//!   injection from a [`crate::FaultPlan`].
//!
//! Determinism contract: a transport's fate for a message must be a
//! pure function of the message's [`MessageMeta`] (plus the transport's
//! own immutable configuration). This is what makes checkpoint/resume
//! bit-identical: replaying round `r` after a resume consults the
//! transport with the same metadata and gets the same answers.

use crate::protocol::CommStats;
use crate::{FederatedError, Result};
use rand::{Rng, RngCore, SeedableRng};

/// Direction of a message on the (virtual) wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Orchestrator → party (model broadcast, requests).
    Down,
    /// Party → orchestrator (updates, partial results, acks).
    Up,
}

/// Metadata identifying one delivery attempt of one logical message.
#[derive(Debug, Clone, Copy)]
pub struct MessageMeta {
    /// Wire round the message belongs to (see the module docs): the
    /// FedAvg round, or `2·epoch + phase` for VFL.
    pub round: usize,
    /// Party index.
    pub party: usize,
    /// Wire direction.
    pub direction: Direction,
    /// Zero-based retry attempt for this logical message.
    pub attempt: usize,
    /// Payload size in bytes (for traffic accounting).
    pub bytes: usize,
}

/// What the transport did with one message attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The message arrived after `delay_ms` of virtual time, `copies`
    /// (≥ 1) times — the network may replay a message it already
    /// delivered, and receivers must deduplicate.
    Delivered {
        /// Virtual one-way latency in milliseconds.
        delay_ms: u64,
        /// Number of delivered copies (1 = normal, ≥ 2 = duplicated).
        copies: usize,
    },
    /// The message never arrived; the sender only learns via timeout.
    Dropped,
    /// The message arrived but its payload was damaged in flight — the
    /// receiver's checksum verification fails and the message is
    /// discarded.
    Corrupted {
        /// Virtual one-way latency in milliseconds.
        delay_ms: u64,
    },
    /// The message arrived carrying a stale round tag (a delayed
    /// retransmission from an earlier round); receivers reject it by
    /// tag comparison.
    Stale {
        /// Virtual one-way latency in milliseconds.
        delay_ms: u64,
        /// The round tag the envelope arrives with.
        stale_round: usize,
    },
}

/// A pluggable network between the orchestrator and the parties.
pub trait Transport {
    /// Decides the fate of one message attempt. Must be deterministic
    /// in `meta` (see the module docs).
    fn fate(&mut self, meta: &MessageMeta) -> Fate;

    /// Whether `party` is up during logical `round` — FedAvg round or
    /// VFL epoch (crash/recovery schedule). Unavailable parties neither
    /// receive nor send anything.
    fn available(&self, _party: usize, _round: usize) -> bool {
        true
    }

    /// Base one-way latency in virtual milliseconds; deliveries slower
    /// than this count as stragglers.
    fn rtt_ms(&self) -> u64 {
        DEFAULT_RTT_MS
    }
}

/// Default virtual one-way latency.
pub const DEFAULT_RTT_MS: u64 = 50;

/// The perfectly reliable in-process network: every attempt is
/// delivered exactly once after one RTT.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReliableTransport;

impl Transport for ReliableTransport {
    fn fate(&mut self, _meta: &MessageMeta) -> Fate {
        Fate::Delivered {
            delay_ms: DEFAULT_RTT_MS,
            copies: 1,
        }
    }
}

/// Retry/timeout/backoff policy for one logical message exchange.
///
/// Time is virtual (milliseconds of simulated wall clock); no real
/// sleeping happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delivery attempts per party per round (first try included).
    pub max_attempts: usize,
    /// Per-round virtual deadline per party; replies landing after it
    /// count as timeouts.
    pub deadline_ms: u64,
    /// Virtual time the orchestrator waits before declaring one
    /// attempt lost.
    pub attempt_timeout_ms: u64,
    /// Base of the exponential backoff between attempts.
    pub backoff_base_ms: u64,
    /// Jitter fraction applied on top of the exponential backoff
    /// (deterministic per message, seeded from the run seed).
    pub backoff_jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            deadline_ms: 2_000,
            attempt_timeout_ms: 200,
            backoff_base_ms: 100,
            backoff_jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Rejects a policy under which no message would ever be sent.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(FederatedError::InvalidConfig(
                "retry policy needs at least one attempt".into(),
            ));
        }
        Ok(())
    }
}

/// One event on a round's virtual timeline (all times are virtual
/// milliseconds within the party's round, never wall clock — seeded
/// runs replay bit-identically, instrumentation included).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundEvent {
    /// The logical round the event belongs to.
    pub round: usize,
    /// The party involved, or `None` for orchestrator-level events
    /// (quorum outcomes).
    pub party: Option<usize>,
    /// Virtual milliseconds since the party's round started.
    pub at_ms: u64,
    /// What happened.
    pub kind: RoundEventKind,
}

/// The kinds of [`RoundEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundEventKind {
    /// The party was inside a crash window; no attempts were made.
    Crashed,
    /// A retry attempt started (attempt index ≥ 1).
    Retry {
        /// The attempt number (first try is 0, so retries start at 1).
        attempt: usize,
    },
    /// Exponential backoff (with deterministic jitter) before a retry.
    Backoff {
        /// Virtual milliseconds waited.
        wait_ms: u64,
    },
    /// The per-round deadline passed (or the retry budget ran out)
    /// without an accepted reply; the party is missing this round.
    DeadlineExceeded,
    /// The party's update was accepted.
    Responded,
    /// Every party responded and the round aggregated fully.
    QuorumFull {
        /// Parties whose updates were aggregated.
        responded: usize,
    },
    /// Quorum met with partial participation; aggregation reweighted.
    QuorumDegraded {
        /// Parties whose updates were aggregated.
        responded: usize,
        /// Responders the quorum policy required.
        needed: usize,
    },
    /// Below quorum: the round left the model untouched.
    QuorumSkipped {
        /// Parties that did respond.
        responded: usize,
        /// Responders the quorum policy required.
        needed: usize,
    },
}

/// One logical request to one party (see the module docs for the two
/// round numbers).
pub(crate) struct Request {
    /// Logical round: FedAvg round or VFL epoch.
    pub round: usize,
    /// Wire round keying fates and backoff jitter.
    pub wire_round: usize,
    /// Party index.
    pub party: usize,
    /// Request payload size on the downlink.
    pub bytes: usize,
}

/// Counts an arrival slower than the base RTT and hands back its delay.
fn arrival(comm: &mut CommStats, rtt_ms: u64, delay_ms: u64) -> u64 {
    if delay_ms > rtt_ms {
        comm.stragglers += 1;
    }
    delay_ms
}

/// One request/reply exchange with a party over the faulty wire — the
/// only retry / deadline / accounting loop in the crate (see the module
/// docs). Returns the accepted reply, or `None` when the party was
/// crashed, timed out or ran out of attempts, and the virtual
/// milliseconds the exchange consumed.
///
/// `serve` runs once per delivered request and returns the reply with
/// its wire size; a request the wire drops or damages is never served,
/// and a served reply the wire drops or damages is discarded before the
/// retry — which keeps in-process party channels in lock-step. What a
/// repeated `serve` of one exchange may reuse is the caller's decision
/// and must not show: FedAvg trains on the first call and afterwards
/// re-seals that update under fresh DP noise, VFL redoes its channel
/// round trip. `accept` is the receiver's check on a delivered reply;
/// `emit` receives the party-level [`RoundEvent`]s in execution order.
///
/// # Errors
/// Only what `serve` returns.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exchange<T: Transport, R>(
    transport: &mut T,
    comm: &mut CommStats,
    retry: &RetryPolicy,
    seed: u64,
    request: Request,
    serve: &mut dyn FnMut() -> Result<(R, usize)>,
    accept: &dyn Fn(&R) -> bool,
    emit: &mut dyn FnMut(RoundEvent),
) -> Result<(Option<R>, u64)> {
    let Request {
        round,
        wire_round,
        party,
        bytes,
    } = request;
    let mut event = |at_ms: u64, kind: RoundEventKind| {
        emit(RoundEvent {
            round,
            party: Some(party),
            at_ms,
            kind,
        });
    };
    if !transport.available(party, round) {
        comm.crash_outages += 1;
        event(0, RoundEventKind::Crashed);
        return Ok((None, 0));
    }
    let rtt = transport.rtt_ms();
    let mut elapsed: u64 = 0;
    for attempt in 0..retry.max_attempts {
        if attempt > 0 {
            comm.retries += 1;
            let wait_ms = backoff_ms(
                retry.backoff_base_ms,
                retry.backoff_jitter,
                seed,
                wire_round,
                party,
                attempt,
            );
            event(elapsed, RoundEventKind::Retry { attempt });
            event(elapsed, RoundEventKind::Backoff { wait_ms });
            elapsed += wait_ms;
        }
        if elapsed > retry.deadline_ms {
            break;
        }
        let meta = |direction: Direction, bytes: usize| MessageMeta {
            round: wire_round,
            party,
            direction,
            attempt,
            bytes,
        };

        // --- downlink: the request -------------------------------------
        comm.record_attempt(Direction::Down, bytes);
        match transport.fate(&meta(Direction::Down, bytes)) {
            Fate::Dropped => {
                comm.drops += 1;
                elapsed += retry.attempt_timeout_ms;
                continue;
            }
            Fate::Corrupted { delay_ms } | Fate::Stale { delay_ms, .. } => {
                // The party discards the damaged/stale request and stays
                // silent; the orchestrator times the attempt out.
                comm.corrupt_rejected += 1;
                elapsed += arrival(comm, rtt, delay_ms).max(retry.attempt_timeout_ms);
                continue;
            }
            Fate::Delivered { delay_ms, copies } => {
                // Duplicate requests are accounted but served once.
                comm.record_duplicates(Direction::Down, bytes, copies - 1);
                elapsed += arrival(comm, rtt, delay_ms);
            }
        }
        if elapsed > retry.deadline_ms {
            break;
        }

        // --- the party's side, then uplink: the reply -------------------
        let (reply, reply_bytes) = serve()?;
        comm.record_attempt(Direction::Up, reply_bytes);
        match transport.fate(&meta(Direction::Up, reply_bytes)) {
            Fate::Dropped => {
                comm.drops += 1;
                elapsed += retry.attempt_timeout_ms;
            }
            Fate::Corrupted { delay_ms } => {
                comm.corrupt_rejected += 1;
                elapsed += arrival(comm, rtt, delay_ms).max(retry.attempt_timeout_ms);
            }
            Fate::Stale { delay_ms, .. } => {
                comm.stale_rejected += 1;
                elapsed += arrival(comm, rtt, delay_ms).max(retry.attempt_timeout_ms);
            }
            Fate::Delivered { delay_ms, copies } => {
                comm.record_duplicates(Direction::Up, reply_bytes, copies - 1);
                elapsed += arrival(comm, rtt, delay_ms);
                if elapsed > retry.deadline_ms {
                    // The straggler's reply landed after the round
                    // closed — too late to use.
                    break;
                }
                if accept(&reply) {
                    event(elapsed, RoundEventKind::Responded);
                    return Ok((Some(reply), elapsed));
                }
                // Unreachable on honest transports; count and retry.
                comm.corrupt_rejected += 1;
            }
        }
    }
    comm.timeouts += 1;
    event(elapsed, RoundEventKind::DeadlineExceeded);
    // The party consumed virtual time up to its deadline (or its last
    // attempt's completion, whichever came first).
    Ok((None, elapsed.min(retry.deadline_ms)))
}

/// A round-tagged, checksummed model payload — what actually travels
/// on the uplink in fault-tolerant FedAvg.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Round the payload was computed for.
    pub round: usize,
    /// Sending party.
    pub party: usize,
    /// Sample count backing the update (quorum reweighting).
    pub samples: usize,
    /// The model coefficients.
    pub payload: Vec<f64>,
    /// FNV-1a over the round tag, party, sample count and payload bits.
    pub checksum: u64,
}

impl Envelope {
    /// Seals a payload with its integrity checksum.
    pub fn new(round: usize, party: usize, samples: usize, payload: Vec<f64>) -> Self {
        let checksum = envelope_checksum(round, party, samples, &payload);
        Self {
            round,
            party,
            samples,
            payload,
            checksum,
        }
    }

    /// Whether the envelope survived the wire intact.
    pub fn verify(&self) -> bool {
        envelope_checksum(self.round, self.party, self.samples, &self.payload) == self.checksum
    }

    /// Simulates in-flight damage: perturbs one payload value (chosen
    /// by `salt`) without fixing up the checksum, so [`Self::verify`]
    /// fails.
    #[cfg(test)]
    fn corrupt_in_flight(&mut self, salt: u64) {
        if self.payload.is_empty() {
            // No payload bits to flip — damage the tag instead.
            self.checksum ^= 1;
            return;
        }
        let idx = (salt as usize) % self.payload.len();
        let bits = self.payload[idx].to_bits() ^ (1u64 << (salt % 52));
        self.payload[idx] = f64::from_bits(bits);
    }
}

/// FNV-1a over the envelope's identifying fields and payload bits.
fn envelope_checksum(round: usize, party: usize, samples: usize, payload: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(round as u64);
    mix(party as u64);
    mix(samples as u64);
    for &v in payload {
        mix(v.to_bits());
    }
    h
}

/// A seeded RNG that counts its draws, so its exact position in the
/// stream can be checkpointed and restored (resume fast-forwards a
/// fresh stream by `draws` steps). This is the "RNG cursor" recorded in
/// [`crate::Checkpoint`].
#[derive(Debug, Clone)]
pub struct CursorRng {
    rng: rand::rngs::StdRng,
    seed: u64,
    draws: u64,
}

impl CursorRng {
    /// A fresh stream at position zero.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            seed,
            draws: 0,
        }
    }

    /// Rebuilds the stream at a checkpointed position.
    pub fn restore(seed: u64, draws: u64) -> Self {
        let mut rng = Self::new(seed);
        for _ in 0..draws {
            let _ = rng.next_u64();
        }
        debug_assert_eq!(rng.draws, draws);
        rng
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many 64-bit values have been drawn so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl RngCore for CursorRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// Deterministic per-decision stream: hashes the identifying fields
/// into a seed so every (seed, round, party, direction, attempt, salt)
/// tuple gets an independent, reproducible generator. Fault injection
/// and backoff jitter both draw from streams built here, which is what
/// keeps them pure functions of the message identity.
pub fn decision_rng(
    seed: u64,
    round: usize,
    party: usize,
    direction: Direction,
    attempt: usize,
    salt: u64,
) -> rand::rngs::StdRng {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut mix = |v: u64| {
        h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
    };
    mix(round as u64);
    mix(party as u64);
    mix(match direction {
        Direction::Down => 1,
        Direction::Up => 2,
    });
    mix(attempt as u64);
    mix(salt);
    rand::rngs::StdRng::seed_from_u64(h)
}

/// Deterministic exponential backoff with jitter, in virtual
/// milliseconds, for retry `attempt` (≥ 1) of a message.
pub fn backoff_ms(
    base_ms: u64,
    jitter: f64,
    seed: u64,
    round: usize,
    party: usize,
    attempt: usize,
) -> u64 {
    let exp = base_ms.saturating_mul(1u64 << (attempt - 1).min(16));
    let u: f64 = decision_rng(seed, round, party, Direction::Down, attempt, 0x0BAC_C0FF).gen();
    (exp as f64 * (1.0 + jitter * u)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_always_delivers_once() {
        let mut t = ReliableTransport;
        for round in 0..5 {
            for attempt in 0..3 {
                let meta = MessageMeta {
                    round,
                    party: 0,
                    direction: Direction::Up,
                    attempt,
                    bytes: 64,
                };
                assert_eq!(
                    t.fate(&meta),
                    Fate::Delivered {
                        delay_ms: DEFAULT_RTT_MS,
                        copies: 1
                    }
                );
            }
            assert!(t.available(0, round));
        }
    }

    /// A transport with a fixed fate per `(direction, attempt)` —
    /// attempts beyond the script are delivered cleanly — that is down
    /// during one logical round and insists on the wire round in every
    /// message it is shown.
    struct Scripted {
        down: Vec<Fate>,
        up: Vec<Fate>,
        crashed_round: Option<usize>,
    }

    const CLEAN: Fate = Fate::Delivered {
        delay_ms: DEFAULT_RTT_MS,
        copies: 1,
    };
    const LOGICAL_ROUND: usize = 6;
    const WIRE_ROUND: usize = 13;
    const PARTY: usize = 2;

    impl Transport for Scripted {
        fn fate(&mut self, meta: &MessageMeta) -> Fate {
            assert_eq!(meta.round, WIRE_ROUND, "fates are keyed by the wire round");
            assert_eq!(meta.party, PARTY);
            let script = match meta.direction {
                Direction::Down => &self.down,
                Direction::Up => &self.up,
            };
            script.get(meta.attempt).copied().unwrap_or(CLEAN)
        }

        fn available(&self, party: usize, round: usize) -> bool {
            assert_eq!(party, PARTY);
            self.crashed_round != Some(round)
        }
    }

    /// One row of the exchange table: a fate script and everything the
    /// exchange must report for it.
    #[derive(Default)]
    struct Case {
        name: &'static str,
        down: Vec<Fate>,
        up: Vec<Fate>,
        crashed_round: Option<usize>,
        /// The accept check passes replies numbered at least this (the
        /// reply is the zero-based count of serves before it).
        accept_from: usize,
        reply: Option<usize>,
        comm: CommStats,
        elapsed_ms: u64,
        events: Vec<(u64, RoundEventKind)>,
    }

    /// The one fault loop, driven case by case: 80-byte requests,
    /// 24-byte replies, three attempts, 200 ms attempt timeout, 2 s
    /// deadline and jitter-free backoff (100 ms, 200 ms), so every
    /// expected figure below is hand-computed. Covers both protocols —
    /// there is no second path to test.
    #[test]
    fn exchange_table() {
        use RoundEventKind::{Backoff, Crashed, DeadlineExceeded, Responded, Retry};
        let retry = RetryPolicy {
            max_attempts: 3,
            deadline_ms: 2_000,
            attempt_timeout_ms: 200,
            backoff_base_ms: 100,
            backoff_jitter: 0.0,
        };
        let retry1 = Retry { attempt: 1 };
        let backoff1 = Backoff { wait_ms: 100 };
        let cases = [
            Case {
                name: "clean delivery",
                reply: Some(0),
                comm: CommStats {
                    bytes_down: 80,
                    bytes_up: 24,
                    messages: 2,
                    ..CommStats::default()
                },
                elapsed_ms: 100,
                events: vec![(100, Responded)],
                ..Case::default()
            },
            Case {
                name: "down drop then delivery",
                down: vec![Fate::Dropped],
                reply: Some(0),
                comm: CommStats {
                    bytes_down: 160,
                    bytes_up: 24,
                    messages: 3,
                    retries: 1,
                    drops: 1,
                    ..CommStats::default()
                },
                elapsed_ms: 400,
                events: vec![(200, retry1), (200, backoff1), (400, Responded)],
                ..Case::default()
            },
            Case {
                name: "down corrupt",
                down: vec![Fate::Corrupted { delay_ms: 50 }],
                reply: Some(0),
                comm: CommStats {
                    bytes_down: 160,
                    bytes_up: 24,
                    messages: 3,
                    retries: 1,
                    corrupt_rejected: 1,
                    ..CommStats::default()
                },
                elapsed_ms: 400,
                events: vec![(200, retry1), (200, backoff1), (400, Responded)],
                ..Case::default()
            },
            Case {
                name: "up stale",
                up: vec![Fate::Stale {
                    delay_ms: 50,
                    stale_round: WIRE_ROUND - 1,
                }],
                reply: Some(1),
                comm: CommStats {
                    bytes_down: 160,
                    bytes_up: 48,
                    messages: 4,
                    retries: 1,
                    stale_rejected: 1,
                    ..CommStats::default()
                },
                elapsed_ms: 450,
                events: vec![(250, retry1), (250, backoff1), (450, Responded)],
                ..Case::default()
            },
            Case {
                // The damaged reply is also slow: it costs its own 300 ms,
                // not the shorter attempt timeout, and counts a straggler.
                name: "up corrupt",
                up: vec![Fate::Corrupted { delay_ms: 300 }],
                reply: Some(1),
                comm: CommStats {
                    bytes_down: 160,
                    bytes_up: 48,
                    messages: 4,
                    retries: 1,
                    stragglers: 1,
                    corrupt_rejected: 1,
                    ..CommStats::default()
                },
                elapsed_ms: 550,
                events: vec![(350, retry1), (350, backoff1), (550, Responded)],
                ..Case::default()
            },
            Case {
                name: "duplicate copies",
                down: vec![Fate::Delivered {
                    delay_ms: 50,
                    copies: 2,
                }],
                up: vec![Fate::Delivered {
                    delay_ms: 50,
                    copies: 3,
                }],
                reply: Some(0),
                comm: CommStats {
                    bytes_down: 160,
                    bytes_up: 72,
                    messages: 5,
                    duplicates: 3,
                    ..CommStats::default()
                },
                elapsed_ms: 100,
                events: vec![(100, Responded)],
                ..Case::default()
            },
            Case {
                // Served and delivered, but the round had closed: the
                // party is missing and is charged its deadline.
                name: "straggler landing past the deadline",
                up: vec![Fate::Delivered {
                    delay_ms: 2_500,
                    copies: 1,
                }],
                comm: CommStats {
                    bytes_down: 80,
                    bytes_up: 24,
                    messages: 2,
                    stragglers: 1,
                    timeouts: 1,
                    ..CommStats::default()
                },
                elapsed_ms: 2_000,
                events: vec![(2_550, DeadlineExceeded)],
                ..Case::default()
            },
            Case {
                name: "retry budget exhausted",
                down: vec![Fate::Dropped; 3],
                comm: CommStats {
                    bytes_down: 240,
                    messages: 3,
                    retries: 2,
                    drops: 3,
                    timeouts: 1,
                    ..CommStats::default()
                },
                elapsed_ms: 900,
                events: vec![
                    (200, retry1),
                    (200, backoff1),
                    (500, Retry { attempt: 2 }),
                    (500, Backoff { wait_ms: 200 }),
                    (900, DeadlineExceeded),
                ],
                ..Case::default()
            },
            Case {
                name: "crash window",
                crashed_round: Some(LOGICAL_ROUND),
                comm: CommStats {
                    crash_outages: 1,
                    ..CommStats::default()
                },
                events: vec![(0, Crashed)],
                ..Case::default()
            },
            Case {
                // Availability is asked in the logical unit: an outage at
                // the number the wire round happens to have is no outage.
                name: "crash window at the wire round's number",
                crashed_round: Some(WIRE_ROUND),
                reply: Some(0),
                comm: CommStats {
                    bytes_down: 80,
                    bytes_up: 24,
                    messages: 2,
                    ..CommStats::default()
                },
                elapsed_ms: 100,
                events: vec![(100, Responded)],
                ..Case::default()
            },
            Case {
                name: "delivered reply failing the accept check",
                accept_from: 1,
                reply: Some(1),
                comm: CommStats {
                    bytes_down: 160,
                    bytes_up: 48,
                    messages: 4,
                    retries: 1,
                    corrupt_rejected: 1,
                    ..CommStats::default()
                },
                elapsed_ms: 300,
                events: vec![(100, retry1), (100, backoff1), (300, Responded)],
                ..Case::default()
            },
        ];
        for case in cases {
            let mut transport = Scripted {
                down: case.down,
                up: case.up,
                crashed_round: case.crashed_round,
            };
            let mut comm = CommStats::default();
            let mut serves = 0usize;
            let mut events = Vec::new();
            let (reply, elapsed_ms) = exchange(
                &mut transport,
                &mut comm,
                &retry,
                7,
                Request {
                    round: LOGICAL_ROUND,
                    wire_round: WIRE_ROUND,
                    party: PARTY,
                    bytes: 80,
                },
                &mut || {
                    serves += 1;
                    Ok((serves - 1, 24))
                },
                &|reply: &usize| *reply >= case.accept_from,
                &mut |event| events.push(event),
            )
            .unwrap();
            let name = case.name;
            assert_eq!(reply, case.reply, "{name}: reply");
            assert_eq!(comm, case.comm, "{name}: accounting");
            assert_eq!(elapsed_ms, case.elapsed_ms, "{name}: virtual ms");
            let expected: Vec<RoundEvent> = case
                .events
                .iter()
                .map(|&(at_ms, kind)| RoundEvent {
                    round: LOGICAL_ROUND,
                    party: Some(PARTY),
                    at_ms,
                    kind,
                })
                .collect();
            assert_eq!(events, expected, "{name}: events");
        }
    }

    #[test]
    fn envelope_checksum_catches_damage() {
        let env = Envelope::new(3, 1, 40, vec![1.0, -2.5, 0.25]);
        assert!(env.verify());
        for salt in 0..32 {
            let mut damaged = env.clone();
            damaged.corrupt_in_flight(salt);
            assert!(!damaged.verify(), "salt {salt} produced a valid envelope");
        }
        let mut empty = Envelope::new(0, 0, 0, vec![]);
        assert!(empty.verify());
        empty.corrupt_in_flight(7);
        assert!(!empty.verify());
    }

    #[test]
    fn envelope_checksum_binds_round_tag() {
        let env = Envelope::new(3, 1, 40, vec![1.0]);
        let mut retagged = env.clone();
        retagged.round = 2; // replayed under an old tag
        assert!(!retagged.verify());
    }

    #[test]
    fn cursor_rng_restores_exact_position() {
        let mut a = CursorRng::new(99);
        let prefix: Vec<u64> = (0..17).map(|_| a.next_u64()).collect();
        assert_eq!(a.draws(), 17);
        let mut b = CursorRng::restore(99, a.draws());
        assert_eq!(b.draws(), 17);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let _ = prefix;
    }

    #[test]
    fn decision_rng_is_pure_and_distinct() {
        use rand::Rng;
        let draw = |round, party, attempt| -> u64 {
            decision_rng(7, round, party, Direction::Up, attempt, 1).gen()
        };
        assert_eq!(draw(0, 0, 0), draw(0, 0, 0));
        assert_ne!(draw(0, 0, 0), draw(1, 0, 0));
        assert_ne!(draw(0, 0, 0), draw(0, 1, 0));
        assert_ne!(draw(0, 0, 0), draw(0, 0, 1));
    }

    #[test]
    fn backoff_grows_exponentially_and_is_deterministic() {
        let b1 = backoff_ms(100, 0.2, 5, 3, 0, 1);
        let b2 = backoff_ms(100, 0.2, 5, 3, 0, 2);
        let b3 = backoff_ms(100, 0.2, 5, 3, 0, 3);
        assert!((100..=120).contains(&b1));
        assert!((200..=240).contains(&b2));
        assert!((400..=480).contains(&b3));
        assert_eq!(b2, backoff_ms(100, 0.2, 5, 3, 0, 2));
    }
}
