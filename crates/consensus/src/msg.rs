//! Consensus wire messages.

pub use fortika_net::{coordinator, VoteRecord};

use fortika_net::wire::{Wire, WireError, WireReader, WireWriter};
use fortika_net::{Batch, RecoveryMsg};

/// Messages exchanged by the consensus module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusMsg {
    /// Coordinator's proposal for `(instance, round)`.
    Propose {
        /// Consensus instance (the paper's `k`).
        instance: u64,
        /// Round within the instance (0 in good runs).
        round: u32,
        /// Proposed value.
        value: Batch,
    },
    /// A process's estimate, sent to the coordinator of `round` after a
    /// suspicion-driven round change (the estimate phase is skipped in
    /// round 0 — the paper's first optimization).
    Estimate {
        /// Consensus instance.
        instance: u64,
        /// Round the sender is entering.
        round: u32,
        /// The sender's current estimate.
        value: Batch,
        /// Round in which the estimate was last adopted (0 = initial).
        ts: u32,
    },
    /// Positive acknowledgement of the coordinator's proposal.
    Ack {
        /// Consensus instance.
        instance: u64,
        /// Round being acknowledged.
        round: u32,
    },
    /// Request for one decision value: the recovery path when a
    /// `DECISION` tag arrives without the matching proposal (and its
    /// sweep retry). Catch-up over a range uses
    /// [`RecoveryMsg::JoinRequest`] instead.
    DecisionRequest {
        /// Consensus instance.
        instance: u64,
    },
    /// Full decision value: the answer to a
    /// [`DecisionRequest`](Self::DecisionRequest), or help for a lagging
    /// coordinator still proposing in a decided instance.
    DecisionFull {
        /// Consensus instance.
        instance: u64,
        /// The decided value.
        value: Batch,
    },
    /// Catch-up and snapshot transfer: the replica log's messages, on
    /// tags 6–9 (see [`fortika_net::replica_log`]).
    Recovery(RecoveryMsg),
}

const TAG_PROPOSE: u8 = 1;
const TAG_ESTIMATE: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_DECISION_REQUEST: u8 = 4;
const TAG_DECISION_FULL: u8 = 5;
/// First of the four tags carrying [`RecoveryMsg`].
const TAG_RECOVERY: u8 = 6;

impl From<RecoveryMsg> for ConsensusMsg {
    fn from(m: RecoveryMsg) -> Self {
        ConsensusMsg::Recovery(m)
    }
}

impl Wire for ConsensusMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ConsensusMsg::Propose {
                instance,
                round,
                value,
            } => {
                w.put_u8(TAG_PROPOSE);
                w.put_u64(*instance);
                w.put_u32(*round);
                value.encode(w);
            }
            ConsensusMsg::Estimate {
                instance,
                round,
                value,
                ts,
            } => {
                w.put_u8(TAG_ESTIMATE);
                w.put_u64(*instance);
                w.put_u32(*round);
                w.put_u32(*ts);
                value.encode(w);
            }
            ConsensusMsg::Ack { instance, round } => {
                w.put_u8(TAG_ACK);
                w.put_u64(*instance);
                w.put_u32(*round);
            }
            ConsensusMsg::DecisionRequest { instance } => {
                w.put_u8(TAG_DECISION_REQUEST);
                w.put_u64(*instance);
            }
            ConsensusMsg::DecisionFull { instance, value } => {
                w.put_u8(TAG_DECISION_FULL);
                w.put_u64(*instance);
                value.encode(w);
            }
            ConsensusMsg::Recovery(m) => m.encode_at(TAG_RECOVERY, w),
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_PROPOSE => Ok(ConsensusMsg::Propose {
                instance: r.get_u64()?,
                round: r.get_u32()?,
                value: Batch::decode(r)?,
            }),
            TAG_ESTIMATE => Ok(ConsensusMsg::Estimate {
                instance: r.get_u64()?,
                round: r.get_u32()?,
                ts: r.get_u32()?,
                value: Batch::decode(r)?,
            }),
            TAG_ACK => Ok(ConsensusMsg::Ack {
                instance: r.get_u64()?,
                round: r.get_u32()?,
            }),
            TAG_DECISION_REQUEST => Ok(ConsensusMsg::DecisionRequest {
                instance: r.get_u64()?,
            }),
            TAG_DECISION_FULL => Ok(ConsensusMsg::DecisionFull {
                instance: r.get_u64()?,
                value: Batch::decode(r)?,
            }),
            t => RecoveryMsg::decode_at(t, TAG_RECOVERY, r).map(ConsensusMsg::Recovery),
        }
    }
}

/// Decision dissemination payload, reliably broadcast by the deciding
/// coordinator.
///
/// In round 0 (good runs) the value is omitted — the `DECISION` *tag*
/// optimization of §3.2: receivers already hold the round-0 proposal. In
/// later rounds the full value travels with the notice, since proposals
/// may not have reached everyone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionNotice {
    /// Consensus instance.
    pub instance: u64,
    /// Round in which the decision was reached.
    pub round: u32,
    /// Full value (absent for the round-0 tag optimization).
    pub full: Option<Batch>,
}

impl Wire for DecisionNotice {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.instance);
        w.put_u32(self.round);
        self.full.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(DecisionNotice {
            instance: r.get_u64()?,
            round: r.get_u32()?,
            full: Option::<Batch>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fortika_net::wire::{decode, encode};
    use fortika_net::{AppMsg, MsgId, ProcessId};

    fn batch() -> Batch {
        Batch::normalize(vec![AppMsg::new(
            MsgId::new(ProcessId(1), 9),
            Bytes::from_static(b"payload"),
        )])
    }

    #[test]
    fn messages_round_trip() {
        let msgs = vec![
            ConsensusMsg::Propose {
                instance: 3,
                round: 0,
                value: batch(),
            },
            ConsensusMsg::Estimate {
                instance: 4,
                round: 2,
                value: batch(),
                ts: 1,
            },
            ConsensusMsg::Ack {
                instance: 5,
                round: 1,
            },
            ConsensusMsg::DecisionRequest { instance: 6 },
            ConsensusMsg::DecisionFull {
                instance: 7,
                value: batch(),
            },
            ConsensusMsg::Recovery(RecoveryMsg::JoinRequest { watermark: 0 }),
            ConsensusMsg::Recovery(RecoveryMsg::StateTransfer {
                from: 3,
                values: vec![batch(), Batch::empty(), batch()],
                frontier: 42,
            }),
            ConsensusMsg::Recovery(RecoveryMsg::SnapshotTransfer {
                last_included: 63,
                digest: 0xDEAD_BEEF,
                total: 4097,
                offset: 4096,
                chunk: Bytes::from_static(b"tail byte"),
                frontier: 80,
            }),
            ConsensusMsg::Recovery(RecoveryMsg::SnapshotPull {
                last_included: 63,
                offset: 4096,
            }),
        ];
        for m in msgs {
            let bytes = encode(&m);
            assert_eq!(bytes.len(), m.encoded_len(), "{m:?}");
            assert_eq!(decode::<ConsensusMsg>(bytes).unwrap(), m);
        }
    }

    #[test]
    fn notice_round_trips_both_forms() {
        for n in [
            DecisionNotice {
                instance: 1,
                round: 0,
                full: None,
            },
            DecisionNotice {
                instance: 2,
                round: 3,
                full: Some(batch()),
            },
        ] {
            let bytes = encode(&n);
            assert_eq!(bytes.len(), n.encoded_len());
            assert_eq!(decode::<DecisionNotice>(bytes).unwrap(), n);
        }
    }

    #[test]
    fn tag_notice_is_tiny() {
        // The DECISION-tag optimization: a tagged notice is ~13 bytes
        // regardless of the decided batch size.
        let n = DecisionNotice {
            instance: u64::MAX,
            round: 0,
            full: None,
        };
        assert_eq!(encode(&n).len(), 13);
    }

    #[test]
    fn coordinator_rotation() {
        assert_eq!(coordinator(0, 3), ProcessId(0));
        assert_eq!(coordinator(1, 3), ProcessId(1));
        assert_eq!(coordinator(3, 3), ProcessId(0));
        assert_eq!(coordinator(0, 7), ProcessId(0));
        assert_eq!(coordinator(9, 7), ProcessId(2));
    }

    #[test]
    fn vote_record_round_trips() {
        let rec = VoteRecord {
            instance: 8,
            round: 4,
            value: batch(),
        };
        let bytes = encode(&rec);
        assert_eq!(bytes.len(), rec.encoded_len());
        assert_eq!(decode::<VoteRecord>(bytes.clone()).unwrap(), rec);
        // The record is the tail of the proposal it votes on, which the
        // replica log persists as a view.
        let proposal = encode(&ConsensusMsg::Propose {
            instance: 8,
            round: 4,
            value: batch(),
        });
        assert!(proposal.ends_with(&bytes));
    }

    #[test]
    fn corrupt_tag_rejected() {
        let bytes = Bytes::from_static(&[99]);
        assert!(decode::<ConsensusMsg>(bytes).is_err());
    }
}
