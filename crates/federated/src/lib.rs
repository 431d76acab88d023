//! Federated learning over data silos (§II-C and §V of the paper).
//!
//! "In the existence of privacy constraints, Amalur will conduct
//! privacy-preserving data integration operations over the silos, and
//! split the learning process over the silos. The central orchestrator
//! will coordinate communication between silos, and the encryption/
//! decryption during aggregating the results and updating the weights."
//!
//! * [`align`] — turns a [`amalur_factorize::FactorizedTable`] into per-party feature
//!   views `Xₖ = (IₖDₖMₖᵀ) ∘ Rₖ` restricted to each source's columns:
//!   the paper's §V-A insight that the mapping/indicator matrices define
//!   the federated feature spaces (`X_A = I₁D₁M₁ᵀ`, `X_B = I₂D₂M₂ᵀ`).
//! * [`vfl`] — vertical federated linear regression (Yang et al.'s
//!   protocol shape): parties hold disjoint feature slices of the same
//!   aligned rows; partial predictions are aggregated through the
//!   orchestrator under a chosen [`PrivacyMode`] (plaintext baseline,
//!   additive secret sharing, or Paillier homomorphic encryption).
//! * [`hfl`] — horizontal FedAvg: parties hold disjoint row sets of the
//!   same schema (the union scenario); the orchestrator averages local
//!   models, optionally noised by the Laplace mechanism.
//!
//! Parties run as real threads connected to the orchestrator by
//! `crossbeam` channels — message counts and byte volumes are observable,
//! which is what the §V-B encryption-overhead study measures.
//!
//! # Fault model
//!
//! Real federations run over WANs that drop, delay, duplicate, and
//! corrupt traffic, and silos crash. Three modules make the
//! orchestrators survive that:
//!
//! * [`transport`] — the **transport contract** and the **one
//!   fault-aware exchange** both protocols run. Every message attempt
//!   is submitted to a [`Transport`], which assigns it a
//!   [`transport::Fate`] (delivered with a delay and a copy count,
//!   dropped, corrupted, or stale). The contract requires fates to be
//!   **pure functions of the message identity** (round, party,
//!   direction, attempt) — a transport may not keep hidden mutable
//!   state — which is what makes whole training trajectories
//!   reproducible from a seed and lets checkpoints skip transport
//!   state entirely. Time is virtual: delays and timeouts are
//!   milliseconds of simulated clock, so tests never sleep.
//!   [`ReliableTransport`] is the zero-fault instance. The exchange —
//!   crash-window check, retry with seeded backoff under the
//!   [`RetryPolicy`] deadlines, per-attempt [`CommStats`] accounting,
//!   party-level [`RoundEvent`]s — is written once there; [`hfl`] calls
//!   it per party per round and [`vfl`] per party per phase. It takes
//!   two round numbers: the *logical* round (FedAvg round, VFL epoch),
//!   which crash windows, events and
//!   [`FederatedError::QuorumLost`] speak, and the *wire* round that
//!   keys fates and backoff jitter (the same number for FedAvg,
//!   `2·epoch + phase` for VFL). A fault plan therefore means the same
//!   thing whichever protocol runs under it.
//! * [`faults`] — [`FaultyTransport`] executes a seeded [`FaultPlan`]
//!   (drop/straggler/duplicate/corrupt/stale probabilities plus
//!   per-party [`faults::CrashWindow`]s) under that contract.
//! * [`checkpoint`] — round-level snapshots. The **checkpoint format**
//!   (`amalur-fedavg-checkpoint/v1`) is JSON with every float stored
//!   as its IEEE-754 bit pattern in hex, so a killed run resumed from
//!   its last checkpoint finishes **bit-identical** to an
//!   uninterrupted one.
//!
//! **Quorum semantics**: a FedAvg round aggregates when at least
//! `ceil(min_fraction · n)` parties (never fewer than one) deliver a
//! valid, round-tagged update before the round deadline; the average is
//! reweighted by the *responding* sample counts. A below-quorum round
//! leaves the model unchanged, and after `patience` consecutive misses
//! the run fails fast with [`FederatedError::QuorumLost`] rather than
//! hang. All of this is accounted in [`CommStats`], which counts every
//! wire attempt (retries and duplicates included). `CommStats` is the
//! one live, replayable accounting value — part of every [`Checkpoint`]
//! and compared bit for bit; its wire counters are written only by its
//! own `record_attempt` / `record_duplicates`, and
//! [`CommStats::to_metrics`] is its export into a metrics registry, not
//! a second counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod checkpoint;
mod error;
pub mod faults;
pub mod hfl;
mod protocol;
pub mod transport;
pub mod vfl;

pub use align::{party_views, PartyView};
pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use error::{FederatedError, Result};
pub use faults::{FaultPlan, FaultyTransport};
pub use hfl::{
    train_fedavg, train_fedavg_with_transport, FedAvgOrchestrator, HflConfig, HflResult,
    PartySamples, QuorumPolicy, RetryPolicy, RoundEvent, RoundEventKind,
};
pub use protocol::{CommStats, PrivacyMode};
pub use transport::{ReliableTransport, Transport};
pub use vfl::{train_vfl, train_vfl_with_transport, VflConfig, VflResult};
