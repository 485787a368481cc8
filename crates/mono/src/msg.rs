//! Monolithic stack wire messages.
//!
//! One merged vocabulary instead of per-module envelopes: a single
//! [`MonoMsg::Step`] can carry *both* the decision of instance `k` and
//! the proposal of instance `k+1` (optimization O1), and an
//! [`MonoMsg::AckDiff`] carries an ack *and* freshly abcast application
//! messages riding to the coordinator (optimization O2).

pub use fortika_net::VoteRecord;

use fortika_net::wire::{Wire, WireError, WireReader, WireWriter};
use fortika_net::{AppMsg, Batch, RecoveryMsg};

/// A decision announcement for one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Decided instance.
    pub instance: u64,
    /// Round in which the decision was reached.
    pub round: u32,
    /// Full value; `None` is the `DECISION` tag (receivers decide the
    /// proposal of `round` they already hold).
    pub full: Option<Batch>,
}

/// A proposal for one instance/round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// Proposed instance.
    pub instance: u64,
    /// Round of the proposal.
    pub round: u32,
    /// Proposed batch.
    pub value: Batch,
}

/// Messages of the monolithic atomic broadcast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonoMsg {
    /// Decision and/or proposal — combined when optimization O1 applies.
    Step {
        /// Decision of the previous instance, if any.
        decision: Option<Decision>,
        /// Proposal for the next instance, if any.
        proposal: Option<Proposal>,
    },
    /// Ack of `(instance, round)` plus piggybacked application messages
    /// (optimization O2; empty without it).
    AckDiff {
        /// Acked instance.
        instance: u64,
        /// Acked round.
        round: u32,
        /// Application messages riding to the coordinator.
        msgs: Vec<AppMsg>,
    },
    /// Standalone hand-off of application messages to the coordinator
    /// (used when no ack is imminent, e.g. at low load).
    Forward {
        /// The messages.
        msgs: Vec<AppMsg>,
    },
    /// Diffusion to all processes (only with optimization O2 disabled —
    /// the modular stack's dissemination pattern).
    Diffuse {
        /// The message.
        msg: AppMsg,
    },
    /// Estimate for a round change, carrying the sender's undelivered own
    /// messages for re-hand-off to the new coordinator (§4.2: "if the
    /// coordinator changes, m is again piggybacked on the estimate").
    Estimate {
        /// Instance.
        instance: u64,
        /// Round being entered.
        round: u32,
        /// Adoption timestamp of `value` (0 = initial).
        ts: u32,
        /// The sender's current estimate.
        value: Batch,
        /// Undelivered own messages re-routed to the new coordinator.
        msgs: Vec<AppMsg>,
    },
    /// Pull-based recovery: ask for the decision of `instance`.
    DecisionRequest {
        /// The missing instance.
        instance: u64,
    },
    /// A recovery-round coordinator soliciting estimates: processes that
    /// have not yet joined `(instance, round)` join it and reply with
    /// their estimate. Without this, idle processes would only join via
    /// slow periodic timers and recovery would crawl.
    EstimateRequest {
        /// The instance being recovered.
        instance: u64,
        /// The round the requester coordinates.
        round: u32,
    },
    /// Failure-detector heartbeat.
    Heartbeat,
    /// Catch-up and snapshot transfer: the replica log's messages, on
    /// tags 9–12 (see [`fortika_net::replica_log`]).
    Recovery(RecoveryMsg),
}

const TAG_STEP: u8 = 1;
const TAG_ACK_DIFF: u8 = 2;
const TAG_FORWARD: u8 = 3;
const TAG_DIFFUSE: u8 = 4;
const TAG_ESTIMATE: u8 = 5;
const TAG_DECISION_REQUEST: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_ESTIMATE_REQUEST: u8 = 8;
/// First of the four tags carrying [`RecoveryMsg`].
const TAG_RECOVERY: u8 = 9;

impl From<RecoveryMsg> for MonoMsg {
    fn from(m: RecoveryMsg) -> Self {
        MonoMsg::Recovery(m)
    }
}

impl Wire for Decision {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.instance);
        w.put_u32(self.round);
        self.full.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Decision {
            instance: r.get_u64()?,
            round: r.get_u32()?,
            full: Option::<Batch>::decode(r)?,
        })
    }
}

impl Wire for Proposal {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.instance);
        w.put_u32(self.round);
        self.value.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Proposal {
            instance: r.get_u64()?,
            round: r.get_u32()?,
            value: Batch::decode(r)?,
        })
    }
}

impl Wire for MonoMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MonoMsg::Step { decision, proposal } => {
                w.put_u8(TAG_STEP);
                decision.encode(w);
                proposal.encode(w);
            }
            MonoMsg::AckDiff {
                instance,
                round,
                msgs,
            } => {
                w.put_u8(TAG_ACK_DIFF);
                w.put_u64(*instance);
                w.put_u32(*round);
                msgs.encode(w);
            }
            MonoMsg::Forward { msgs } => {
                w.put_u8(TAG_FORWARD);
                msgs.encode(w);
            }
            MonoMsg::Diffuse { msg } => {
                w.put_u8(TAG_DIFFUSE);
                msg.encode(w);
            }
            MonoMsg::Estimate {
                instance,
                round,
                ts,
                value,
                msgs,
            } => {
                w.put_u8(TAG_ESTIMATE);
                w.put_u64(*instance);
                w.put_u32(*round);
                w.put_u32(*ts);
                value.encode(w);
                msgs.encode(w);
            }
            MonoMsg::DecisionRequest { instance } => {
                w.put_u8(TAG_DECISION_REQUEST);
                w.put_u64(*instance);
            }
            MonoMsg::EstimateRequest { instance, round } => {
                w.put_u8(TAG_ESTIMATE_REQUEST);
                w.put_u64(*instance);
                w.put_u32(*round);
            }
            MonoMsg::Heartbeat => {
                w.put_u8(TAG_HEARTBEAT);
            }
            MonoMsg::Recovery(m) => m.encode_at(TAG_RECOVERY, w),
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_STEP => Ok(MonoMsg::Step {
                decision: Option::<Decision>::decode(r)?,
                proposal: Option::<Proposal>::decode(r)?,
            }),
            TAG_ACK_DIFF => Ok(MonoMsg::AckDiff {
                instance: r.get_u64()?,
                round: r.get_u32()?,
                msgs: Vec::<AppMsg>::decode(r)?,
            }),
            TAG_FORWARD => Ok(MonoMsg::Forward {
                msgs: Vec::<AppMsg>::decode(r)?,
            }),
            TAG_DIFFUSE => Ok(MonoMsg::Diffuse {
                msg: AppMsg::decode(r)?,
            }),
            TAG_ESTIMATE => Ok(MonoMsg::Estimate {
                instance: r.get_u64()?,
                round: r.get_u32()?,
                ts: r.get_u32()?,
                value: Batch::decode(r)?,
                msgs: Vec::<AppMsg>::decode(r)?,
            }),
            TAG_DECISION_REQUEST => Ok(MonoMsg::DecisionRequest {
                instance: r.get_u64()?,
            }),
            TAG_ESTIMATE_REQUEST => Ok(MonoMsg::EstimateRequest {
                instance: r.get_u64()?,
                round: r.get_u32()?,
            }),
            TAG_HEARTBEAT => Ok(MonoMsg::Heartbeat),
            t => RecoveryMsg::decode_at(t, TAG_RECOVERY, r).map(MonoMsg::Recovery),
        }
    }
}

/// Convenience constructor: a full-value decision message.
pub fn decision_full(instance: u64, round: u32, value: Batch) -> MonoMsg {
    MonoMsg::Step {
        decision: Some(Decision {
            instance,
            round,
            full: Some(value),
        }),
        proposal: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fortika_net::wire::{decode, encode};
    use fortika_net::{MsgId, ProcessId};

    fn msg(p: u16, seq: u64) -> AppMsg {
        AppMsg::new(MsgId::new(ProcessId(p), seq), Bytes::from_static(b"m"))
    }

    fn batch() -> Batch {
        Batch::normalize(vec![msg(0, 0), msg(1, 3)])
    }

    #[test]
    fn all_variants_round_trip() {
        let variants = vec![
            MonoMsg::Step {
                decision: Some(Decision {
                    instance: 5,
                    round: 0,
                    full: None,
                }),
                proposal: Some(Proposal {
                    instance: 6,
                    round: 0,
                    value: batch(),
                }),
            },
            MonoMsg::Step {
                decision: None,
                proposal: Some(Proposal {
                    instance: 1,
                    round: 2,
                    value: batch(),
                }),
            },
            decision_full(9, 1, batch()),
            MonoMsg::AckDiff {
                instance: 7,
                round: 0,
                msgs: vec![msg(2, 0), msg(2, 1)],
            },
            MonoMsg::Forward {
                msgs: vec![msg(1, 0)],
            },
            MonoMsg::Diffuse { msg: msg(0, 9) },
            MonoMsg::Estimate {
                instance: 3,
                round: 4,
                ts: 2,
                value: batch(),
                msgs: vec![msg(1, 1)],
            },
            MonoMsg::DecisionRequest { instance: 11 },
            MonoMsg::EstimateRequest {
                instance: 12,
                round: 2,
            },
            MonoMsg::Heartbeat,
            MonoMsg::Recovery(RecoveryMsg::JoinRequest { watermark: 7 }),
            MonoMsg::Recovery(RecoveryMsg::StateTransfer {
                from: 0,
                values: vec![batch(), Batch::empty()],
                frontier: 9,
            }),
            MonoMsg::Recovery(RecoveryMsg::SnapshotTransfer {
                last_included: 63,
                digest: 0xFEED_F00D,
                total: 9000,
                offset: 8192,
                chunk: Bytes::from_static(b"chunk"),
                frontier: 99,
            }),
            MonoMsg::Recovery(RecoveryMsg::SnapshotPull {
                last_included: 63,
                offset: 8192,
            }),
        ];
        for v in variants {
            let bytes = encode(&v);
            assert_eq!(bytes.len(), v.encoded_len(), "variant {v:?}");
            assert_eq!(decode::<MonoMsg>(bytes).unwrap(), v, "variant {v:?}");
        }
    }

    #[test]
    fn parts_and_vote_record_round_trip_at_their_encoded_len() {
        for d in [
            Decision {
                instance: 5,
                round: 0,
                full: None,
            },
            Decision {
                instance: 6,
                round: 2,
                full: Some(batch()),
            },
        ] {
            let bytes = encode(&d);
            assert_eq!(bytes.len(), d.encoded_len());
            assert_eq!(decode::<Decision>(bytes).unwrap(), d);
        }
        let p = Proposal {
            instance: 7,
            round: 1,
            value: batch(),
        };
        let bytes = encode(&p);
        assert_eq!(bytes.len(), p.encoded_len());
        assert_eq!(decode::<Proposal>(bytes).unwrap(), p);
        let rec = VoteRecord {
            round: 3,
            ts: 4,
            value: batch(),
        };
        let bytes = encode(&rec);
        assert_eq!(bytes.len(), rec.encoded_len());
        assert_eq!(decode::<VoteRecord>(bytes).unwrap(), rec);
    }

    #[test]
    fn combined_step_is_barely_larger_than_proposal() {
        // O1's point: the tag decision adds ~14 bytes to the proposal
        // message instead of costing a separate message.
        let proposal_only = MonoMsg::Step {
            decision: None,
            proposal: Some(Proposal {
                instance: 6,
                round: 0,
                value: batch(),
            }),
        };
        let combined = MonoMsg::Step {
            decision: Some(Decision {
                instance: 5,
                round: 0,
                full: None,
            }),
            proposal: Some(Proposal {
                instance: 6,
                round: 0,
                value: batch(),
            }),
        };
        let a = encode(&proposal_only).len();
        let b = encode(&combined).len();
        assert!(b - a <= 16, "tag decision should be tiny, added {}", b - a);
    }
}
