//! Round-level orchestrator checkpoints.
//!
//! A [`Checkpoint`] freezes everything the FedAvg orchestrator needs to
//! continue a run as if it had never stopped: the round counter, the
//! global model, the loss history, the communication counters, the
//! consecutive-quorum-failure count, and the orchestrator RNG cursor
//! (seed position of the DP-noise stream). Fault decisions need no
//! state here — the transport contract (see [`crate::transport`])
//! makes them pure functions of the message identity.
//!
//! # Format (`amalur-fedavg-checkpoint/v1`)
//!
//! JSON with every `f64` stored as its IEEE-754 bit pattern in
//! 16-digit lowercase hex (`"3fe0000000000000"`), because a
//! decimal-formatted float does not round-trip bit-exactly and the
//! resume guarantee is *bit identity*, not approximate equality.
//! Counters are plain integers; `crypto_time` is nanoseconds.

use crate::protocol::CommStats;
use crate::{FederatedError, Result};
use serde::Value;

/// Schema tag written into every checkpoint.
pub const CHECKPOINT_SCHEMA: &str = "amalur-fedavg-checkpoint/v1";

/// Frozen orchestrator state (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Next round to execute (rounds `0..round` are complete).
    pub round: usize,
    /// Global model coefficients (`d` values).
    pub global: Vec<f64>,
    /// Per-round union loss recorded so far.
    pub loss_history: Vec<f64>,
    /// Communication accounting so far.
    pub comm: CommStats,
    /// Orchestrator RNG cursor: number of 64-bit draws consumed from
    /// the seeded DP/jitter stream.
    pub rng_draws: u64,
    /// Consecutive quorum-failed rounds leading into `round`.
    pub quorum_failures: usize,
}

impl Checkpoint {
    /// Serializes to the v1 JSON format.
    ///
    /// # Errors
    /// [`FederatedError::Checkpoint`] when the value tree fails to
    /// serialize (not expected for well-formed checkpoints).
    pub fn to_json(&self) -> Result<String> {
        let bits = |xs: &[f64]| {
            Value::Array(
                xs.iter()
                    .map(|x| Value::Str(format!("{:016x}", x.to_bits())))
                    .collect(),
            )
        };
        let int = |v: usize| Value::Int(v as i64);
        let comm = Value::Object(vec![
            ("bytes_up".into(), int(self.comm.bytes_up)),
            ("bytes_down".into(), int(self.comm.bytes_down)),
            ("messages".into(), int(self.comm.messages)),
            (
                "crypto_time_ns".into(),
                int(self.comm.crypto_time.as_nanos() as usize),
            ),
            ("retries".into(), int(self.comm.retries)),
            ("drops".into(), int(self.comm.drops)),
            ("timeouts".into(), int(self.comm.timeouts)),
            ("stragglers".into(), int(self.comm.stragglers)),
            ("duplicates".into(), int(self.comm.duplicates)),
            ("corrupt_rejected".into(), int(self.comm.corrupt_rejected)),
            ("stale_rejected".into(), int(self.comm.stale_rejected)),
            ("crash_outages".into(), int(self.comm.crash_outages)),
            ("rounds_degraded".into(), int(self.comm.rounds_degraded)),
            ("rounds_skipped".into(), int(self.comm.rounds_skipped)),
        ]);
        let root = Value::Object(vec![
            ("schema".into(), Value::Str(CHECKPOINT_SCHEMA.into())),
            ("round".into(), int(self.round)),
            ("rng_draws".into(), Value::Str(self.rng_draws.to_string())),
            ("quorum_failures".into(), int(self.quorum_failures)),
            ("global_bits".into(), bits(&self.global)),
            ("loss_bits".into(), bits(&self.loss_history)),
            ("comm".into(), comm),
        ]);
        serde_json::to_string_pretty(&root).map_err(|e| FederatedError::Checkpoint(e.to_string()))
    }

    /// Parses the v1 JSON format.
    ///
    /// # Errors
    /// [`FederatedError::Checkpoint`] on malformed input or a schema
    /// mismatch.
    pub fn from_json(text: &str) -> Result<Self> {
        let err = |m: String| FederatedError::Checkpoint(m);
        let root: Value = serde_json::from_str(text).map_err(|e| err(e.to_string()))?;
        let schema = get_str(&root, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(err(format!("unknown checkpoint schema `{schema}`")));
        }
        let comm_v = root
            .get("comm")
            .ok_or_else(|| err("missing field `comm`".into()))?;
        let comm = CommStats {
            bytes_up: get_usize(comm_v, "bytes_up")?,
            bytes_down: get_usize(comm_v, "bytes_down")?,
            messages: get_usize(comm_v, "messages")?,
            crypto_time: std::time::Duration::from_nanos(
                get_usize(comm_v, "crypto_time_ns")? as u64
            ),
            retries: get_usize(comm_v, "retries")?,
            drops: get_usize(comm_v, "drops")?,
            timeouts: get_usize(comm_v, "timeouts")?,
            stragglers: get_usize(comm_v, "stragglers")?,
            duplicates: get_usize(comm_v, "duplicates")?,
            corrupt_rejected: get_usize(comm_v, "corrupt_rejected")?,
            stale_rejected: get_usize(comm_v, "stale_rejected")?,
            crash_outages: get_usize(comm_v, "crash_outages")?,
            rounds_degraded: get_usize(comm_v, "rounds_degraded")?,
            rounds_skipped: get_usize(comm_v, "rounds_skipped")?,
        };
        Ok(Self {
            round: get_usize(&root, "round")?,
            global: get_bits(&root, "global_bits")?,
            loss_history: get_bits(&root, "loss_bits")?,
            comm,
            rng_draws: get_str(&root, "rng_draws")?
                .parse::<u64>()
                .map_err(|e| err(format!("rng_draws: {e}")))?,
            quorum_failures: get_usize(&root, "quorum_failures")?,
        })
    }
}

fn get_str(v: &Value, key: &str) -> Result<String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        other => Err(FederatedError::Checkpoint(format!(
            "field `{key}`: expected string, found {other:?}"
        ))),
    }
}

fn get_usize(v: &Value, key: &str) -> Result<usize> {
    match v.get(key) {
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as usize),
        other => Err(FederatedError::Checkpoint(format!(
            "field `{key}`: expected non-negative integer, found {other:?}"
        ))),
    }
}

fn get_bits(v: &Value, key: &str) -> Result<Vec<f64>> {
    let items = match v.get(key) {
        Some(Value::Array(items)) => items,
        other => {
            return Err(FederatedError::Checkpoint(format!(
                "field `{key}`: expected array, found {other:?}"
            )))
        }
    };
    items
        .iter()
        .map(|item| match item {
            Value::Str(s) => u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|e| {
                FederatedError::Checkpoint(format!("field `{key}`: bad hex `{s}`: {e}"))
            }),
            other => Err(FederatedError::Checkpoint(format!(
                "field `{key}`: expected hex string, found {other:?}"
            ))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            round: 12,
            global: vec![1.5, -0.25, f64::MIN_POSITIVE, -0.0, 1e300],
            loss_history: (0..12).map(|i| 1.0 / (i as f64 + 1.0) + 0.123).collect(),
            comm: CommStats {
                bytes_up: 960,
                bytes_down: 960,
                messages: 80,
                crypto_time: std::time::Duration::from_nanos(12345),
                retries: 7,
                drops: 5,
                timeouts: 2,
                stragglers: 3,
                duplicates: 1,
                corrupt_rejected: 1,
                stale_rejected: 2,
                crash_outages: 4,
                rounds_degraded: 3,
                rounds_skipped: 1,
            },
            rng_draws: u64::MAX - 3, // must survive as a u64, not an i64
            quorum_failures: 1,
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ck = sample();
        let parsed = Checkpoint::from_json(&ck.to_json().unwrap()).unwrap();
        assert_eq!(parsed.round, ck.round);
        assert_eq!(parsed.rng_draws, ck.rng_draws);
        assert_eq!(parsed.quorum_failures, ck.quorum_failures);
        for (a, b) in ck.global.iter().zip(&parsed.global) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in ck.loss_history.iter().zip(&parsed.loss_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(parsed.comm.retries, 7);
        assert_eq!(parsed.comm.crypto_time.as_nanos(), 12345);
        assert_eq!(parsed.comm.rounds_skipped, 1);
    }

    #[test]
    fn rejects_foreign_schema_and_garbage() {
        assert!(matches!(
            Checkpoint::from_json("{\"schema\": \"other/v9\"}"),
            Err(FederatedError::Checkpoint(_))
        ));
        assert!(Checkpoint::from_json("not json").is_err());
        let truncated = sample()
            .to_json()
            .unwrap()
            .replace("\"round\"", "\"wrong\"");
        assert!(Checkpoint::from_json(&truncated).is_err());
    }
}
