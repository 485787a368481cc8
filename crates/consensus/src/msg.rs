//! Consensus wire messages.

use fortika_net::wire::{Wire, WireError, WireReader, WireWriter};
use fortika_net::{Batch, ProcessId};

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
    /// [`JoinRequest`](Self::JoinRequest) instead.
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
    /// "My contiguous replayed prefix ends at `watermark`": broadcast
    /// as the rejoin announcement of a (re)started process (which
    /// advertises instance 0), and unicast as the catch-up range pull
    /// of any process that is behind. Peers that are ahead answer with
    /// a [`StateTransfer`](Self::StateTransfer), or with the snapshot
    /// when `watermark` lies in their compacted prefix.
    JoinRequest {
        /// First instance the sender is missing.
        watermark: u64,
    },
    /// Bulk catch-up reply: the decided values of the consecutive
    /// instances `from, from+1, …`, plus the sender's own replay
    /// frontier so the puller can keep pulling, one range per reply,
    /// until it reaches the live edge.
    StateTransfer {
        /// Instance of `values[0]`.
        from: u64,
        /// Decided values of `from..from + values.len()`.
        values: Vec<Batch>,
        /// The sender's contiguous decided prefix length.
        frontier: u64,
    },
    /// One chunk of a log-compaction snapshot, serving a joiner whose
    /// gap starts below the sender's compacted prefix (the decided
    /// values there are evicted; the snapshot replaces them). Chunks are
    /// pulled at round-trip pace via [`SnapshotPull`](Self::SnapshotPull)
    /// like `StateTransfer` batches; once complete, the joiner installs
    /// the snapshot and resumes log catch-up at `last_included + 1`.
    SnapshotTransfer {
        /// Highest instance the snapshot covers.
        last_included: u64,
        /// Digest of the snapshot (integrity check across chunks).
        digest: u64,
        /// Total encoded snapshot size in bytes.
        total: u32,
        /// Offset of `chunk` within the encoded snapshot.
        offset: u32,
        /// The chunk bytes.
        chunk: bytes::Bytes,
        /// The sender's contiguous replay frontier (catch-up target).
        frontier: u64,
    },
    /// Joiner-side request for the next snapshot chunk.
    SnapshotPull {
        /// Which snapshot is being pulled (its highest instance).
        last_included: u64,
        /// Byte offset of the requested chunk.
        offset: u32,
    },
}

const TAG_PROPOSE: u8 = 1;
const TAG_ESTIMATE: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_DECISION_REQUEST: u8 = 4;
const TAG_DECISION_FULL: u8 = 5;
const TAG_JOIN_REQUEST: u8 = 6;
const TAG_STATE_TRANSFER: u8 = 7;
const TAG_SNAPSHOT_TRANSFER: u8 = 8;
const TAG_SNAPSHOT_PULL: u8 = 9;

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
            ConsensusMsg::JoinRequest { watermark } => {
                w.put_u8(TAG_JOIN_REQUEST);
                w.put_u64(*watermark);
            }
            ConsensusMsg::StateTransfer {
                from,
                values,
                frontier,
            } => {
                w.put_u8(TAG_STATE_TRANSFER);
                w.put_u64(*from);
                w.put_u64(*frontier);
                values.encode(w);
            }
            ConsensusMsg::SnapshotTransfer {
                last_included,
                digest,
                total,
                offset,
                chunk,
                frontier,
            } => {
                w.put_u8(TAG_SNAPSHOT_TRANSFER);
                w.put_u64(*last_included);
                w.put_u64(*digest);
                w.put_u32(*total);
                w.put_u32(*offset);
                w.put_u64(*frontier);
                chunk.encode(w);
            }
            ConsensusMsg::SnapshotPull {
                last_included,
                offset,
            } => {
                w.put_u8(TAG_SNAPSHOT_PULL);
                w.put_u64(*last_included);
                w.put_u32(*offset);
            }
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
            TAG_JOIN_REQUEST => Ok(ConsensusMsg::JoinRequest {
                watermark: r.get_u64()?,
            }),
            TAG_STATE_TRANSFER => Ok(ConsensusMsg::StateTransfer {
                from: r.get_u64()?,
                frontier: r.get_u64()?,
                values: Vec::<Batch>::decode(r)?,
            }),
            TAG_SNAPSHOT_TRANSFER => Ok(ConsensusMsg::SnapshotTransfer {
                last_included: r.get_u64()?,
                digest: r.get_u64()?,
                total: r.get_u32()?,
                offset: r.get_u32()?,
                frontier: r.get_u64()?,
                chunk: bytes::Bytes::decode(r)?,
            }),
            TAG_SNAPSHOT_PULL => Ok(ConsensusMsg::SnapshotPull {
                last_included: r.get_u64()?,
                offset: r.get_u32()?,
            }),
            t => Err(WireError::InvalidTag(t)),
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

/// The coordinator of `round`: processes rotate in round-robin order,
/// with `p1` coordinating round 0 of every instance (the property the
/// monolithic stack's optimization O1 builds on).
pub fn coordinator(round: u32, n: usize) -> ProcessId {
    ProcessId((round as usize % n) as u16)
}

/// The crash-recovery stable record of one consensus instance: the
/// round this process last voted (acked/adopted) in, the adoption
/// timestamp of its estimate, and the estimate itself.
///
/// Chandra–Toueg safety hinges on a voter carrying its locked
/// `(estimate, ts)` into every later round and never regressing to a
/// lower round; a process revived with amnesia would break exactly that
/// invariant, so this record is written to stable storage atomically
/// with every vote and replayed into the fresh stack on restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteRecord {
    /// Round of the last vote (lower-round proposals are refused).
    pub round: u32,
    /// Adoption timestamp of `value` (round + 1 at ack time).
    pub ts: u32,
    /// The locked estimate.
    pub value: Batch,
}

impl Wire for VoteRecord {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.round);
        w.put_u32(self.ts);
        self.value.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(VoteRecord {
            round: r.get_u32()?,
            ts: r.get_u32()?,
            value: Batch::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fortika_net::wire::{decode, encode};
    use fortika_net::{AppMsg, MsgId};

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
            ConsensusMsg::JoinRequest { watermark: 0 },
            ConsensusMsg::StateTransfer {
                from: 3,
                values: vec![batch(), Batch::empty(), batch()],
                frontier: 42,
            },
            ConsensusMsg::SnapshotTransfer {
                last_included: 63,
                digest: 0xDEAD_BEEF,
                total: 4097,
                offset: 4096,
                chunk: Bytes::from_static(b"tail byte"),
                frontier: 80,
            },
            ConsensusMsg::SnapshotPull {
                last_included: 63,
                offset: 4096,
            },
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
            round: 4,
            ts: 5,
            value: batch(),
        };
        let bytes = encode(&rec);
        assert_eq!(bytes.len(), rec.encoded_len());
        assert_eq!(decode::<VoteRecord>(bytes).unwrap(), rec);
    }

    #[test]
    fn corrupt_tag_rejected() {
        let bytes = Bytes::from_static(&[99]);
        assert!(decode::<ConsensusMsg>(bytes).is_err());
    }
}
