//! Property-based roundtrip tests for the wire codec: any message that can
//! be constructed encodes to exactly `encoded_len` bytes and decodes back
//! to an equal value.

use proptest::prelude::*;

use smr_types::{ClientId, ReplicaId, RequestId, SeqNum, Slot, View};
use smr_wire::{AcceptedEntry, Batch, ClientMsg, Codec, ProtocolMsg, Reply, Request};

fn arb_request() -> impl Strategy<Value = Request> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(c, s, p)| Request::new(RequestId::new(ClientId(c), SeqNum(s)), p))
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(c, s, p)| Reply::new(RequestId::new(ClientId(c), SeqNum(s)), p))
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(arb_request(), 0..12).prop_map(Batch::new)
}

fn arb_protocol_msg() -> impl Strategy<Value = ProtocolMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(v, s)| ProtocolMsg::Prepare {
            view: View(v),
            first_unstable: Slot(s)
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), any::<u64>(), arb_batch()), 0..4)
        )
            .prop_map(|(v, d, acc)| ProtocolMsg::Promise {
                view: View(v),
                decided_upto: Slot(d),
                accepted: acc
                    .into_iter()
                    .map(|(s, av, b)| AcceptedEntry {
                        slot: Slot(s),
                        view: View(av),
                        batch: b
                    })
                    .collect(),
            }),
        (any::<u64>(), any::<u64>(), arb_batch()).prop_map(|(v, s, b)| ProtocolMsg::Propose {
            view: View(v),
            slot: Slot(s),
            batch: b
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(v, s, d)| ProtocolMsg::Accept {
            view: View(v),
            slot: Slot(s),
            decided_upto: Slot(d)
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(f, t)| ProtocolMsg::CatchupQuery {
            from: Slot(f),
            to: Slot(t)
        }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), arb_batch()), 0..4)
        )
            .prop_map(|(d, entries)| ProtocolMsg::CatchupReply {
                decided_upto: Slot(d),
                entries: entries.into_iter().map(|(s, b)| (Slot(s), b)).collect(),
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(v, d)| ProtocolMsg::Heartbeat {
            view: View(v),
            decided_upto: Slot(d)
        }),
        (any::<u64>(), any::<u16>()).prop_map(|(v, r)| ProtocolMsg::Suspect {
            view: View(v),
            from: ReplicaId(r)
        }),
    ]
}

fn arb_client_msg() -> impl Strategy<Value = ClientMsg> {
    prop_oneof![
        arb_request().prop_map(ClientMsg::Request),
        arb_reply().prop_map(ClientMsg::Reply),
        proptest::option::of(any::<u16>()).prop_map(|r| ClientMsg::Redirect {
            leader: r.map(ReplicaId)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrips(req in arb_request()) {
        let bytes = req.encode_to_vec();
        prop_assert_eq!(bytes.len(), req.encoded_len());
        prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn batch_roundtrips(batch in arb_batch()) {
        let bytes = batch.encode_to_vec();
        prop_assert_eq!(bytes.len(), batch.encoded_len());
        prop_assert_eq!(Batch::decode(&bytes).unwrap(), batch);
    }

    #[test]
    fn protocol_msg_roundtrips(msg in arb_protocol_msg()) {
        let bytes = msg.encode_to_vec();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(ProtocolMsg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn client_msg_roundtrips(msg in arb_client_msg()) {
        let bytes = msg.encode_to_vec();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(ClientMsg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = ProtocolMsg::decode(&bytes);
        let _ = ClientMsg::decode(&bytes);
        let _ = Batch::decode(&bytes);
    }

    #[test]
    fn frames_survive_arbitrary_chunking(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 1..6),
        cut in any::<u8>(),
    ) {
        use smr_wire::{Frame, FrameDecoder};
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&Frame::encode_to_vec(p));
        }
        let cut = (cut as usize % wire.len().max(1)).max(1);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in wire.chunks(cut) {
            dec.extend(chunk);
            while let Some(p) = dec.next_frame().unwrap() {
                out.push(p);
            }
        }
        prop_assert_eq!(out, payloads);
    }
}
