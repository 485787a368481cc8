//! Both stacks carry the replica log's messages on four consecutive tags
//! of their own, in the same order (consensus 6–9, monolith 9–12),
//! followed by the same body bytes.

use bytes::Bytes;
use fortika::consensus::ConsensusMsg;
use fortika::mono::msg::MonoMsg;
use fortika::net::wire::{decode, encode, Wire};
use fortika::net::{AppMsg, Batch, MsgId, ProcessId, RecoveryMsg};

fn batch(seq: u64) -> Batch {
    Batch::normalize(vec![AppMsg::new(
        MsgId::new(ProcessId(1), seq),
        Bytes::from_static(b"payload"),
    )])
}

/// One message of each kind, in tag order.
fn bodies() -> Vec<RecoveryMsg> {
    vec![
        RecoveryMsg::JoinRequest { watermark: 42 },
        RecoveryMsg::StateTransfer {
            from: 3,
            values: vec![batch(9), Batch::empty(), batch(11)],
            frontier: 80,
        },
        RecoveryMsg::SnapshotTransfer {
            last_included: 63,
            digest: 0xDEAD_BEEF,
            total: 4097,
            offset: 4096,
            chunk: Bytes::from_static(b"tail byte"),
            frontier: 90,
        },
        RecoveryMsg::SnapshotPull {
            last_included: 63,
            offset: 4096,
        },
    ]
}

/// Encodes `msg`, checks `encoded_len` and the round trip, and returns
/// the frame.
fn frame<M: Wire + PartialEq + std::fmt::Debug>(msg: M) -> Bytes {
    let bytes = encode(&msg);
    assert_eq!(bytes.len(), msg.encoded_len(), "{msg:?}");
    assert_eq!(decode::<M>(bytes.clone()).unwrap(), msg);
    bytes
}

#[test]
fn recovery_frames_match_byte_for_byte_after_the_tag() {
    for (i, body) in bodies().into_iter().enumerate() {
        let modular = frame(ConsensusMsg::Recovery(body.clone()));
        let mono = frame(MonoMsg::Recovery(body.clone()));
        assert_eq!(modular[0], 6 + i as u8, "{body:?}");
        assert_eq!(mono[0], 9 + i as u8, "{body:?}");
        assert_eq!(modular[1..], mono[1..], "{body:?}");
    }
}

#[test]
fn fixed_size_bodies_keep_their_field_order() {
    // JoinRequest: watermark. SnapshotPull: last_included, offset.
    let join = frame(MonoMsg::Recovery(RecoveryMsg::JoinRequest {
        watermark: 42,
    }));
    let mut want = vec![9];
    want.extend(42u64.to_le_bytes());
    assert_eq!(join[..], want[..]);
    let pull = RecoveryMsg::SnapshotPull {
        last_included: 63,
        offset: 4096,
    };
    let pull = frame(ConsensusMsg::Recovery(pull));
    let mut want = vec![9];
    want.extend(63u64.to_le_bytes());
    want.extend(4096u32.to_le_bytes());
    assert_eq!(pull[..], want[..]);
}

#[test]
fn tags_past_the_recovery_range_are_rejected() {
    assert!(decode::<ConsensusMsg>(Bytes::from_static(&[10, 0])).is_err());
    assert!(decode::<MonoMsg>(Bytes::from_static(&[13, 0])).is_err());
}
