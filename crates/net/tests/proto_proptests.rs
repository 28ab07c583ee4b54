//! Property tests for the wire protocol: random frames must survive
//! encode → decode, every strict prefix must read as "incomplete", and
//! random garbage must never panic the decoder. (Delivery split at
//! arbitrary boundaries is `nonblock_fuzz.rs`'s subject.)

use proptest::prelude::*;
use rnet::{Blob, DecodeError, Frame, LeaderRow, WireArg};

fn arb_blob() -> impl Strategy<Value = Blob> {
    ("[a-z.]{0,12}", proptest::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(tag, bytes)| Blob { tag, bytes })
}

// The vendored proptest has no `Arbitrary` for u128: build hashes from
// two u64 halves.
fn arb_hash() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| ((hi as u128) << 64) | lo as u128)
}

fn arb_arg() -> impl Strategy<Value = WireArg> {
    prop_oneof![
        (any::<u64>(), arb_blob()).prop_map(|(key, blob)| WireArg::Inline { key, blob }),
        (any::<u64>(), arb_hash()).prop_map(|(key, hash)| WireArg::Block { key, hash }),
    ]
}

fn arb_row() -> impl Strategy<Value = LeaderRow> {
    ("[ -~]{0,40}", -1e300f64..1e300f64, any::<u32>(), any::<u64>()).prop_map(
        |(label, accuracy, epochs, task_us)| LeaderRow { label, accuracy, epochs, task_us },
    )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        ("[ -~]{0,24}", any::<u32>(), 0u32..16, any::<u32>())
            .prop_map(|(name, cores, gpus, mem_gib)| Frame::Hello { name, cores, gpus, mem_gib }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            proptest::option::of("[a-z._]{1,20}"),
            0u32..4,
            proptest::collection::vec(any::<u32>(), 0..8),
            proptest::collection::vec(any::<u32>(), 0..4),
            proptest::collection::vec(arb_arg(), 0..5),
        )
            .prop_map(
                |(exec_id, task_id, attempt, node, fn_id, fn_name, variant, cores, gpus, args)| {
                    Frame::Submit {
                        exec_id,
                        task_id,
                        attempt,
                        node,
                        fn_id,
                        fn_name,
                        variant,
                        cores,
                        gpus,
                        args,
                    }
                }
            ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_blob(), 0..4)
        )
            .prop_map(|(exec_id, recv_us, start_us, end_us, outputs)| Frame::Done {
                exec_id,
                recv_us,
                start_us,
                end_us,
                outputs
            }),
        (any::<u64>(), "[ -~]{0,60}")
            .prop_map(|(exec_id, message)| Frame::Failed { exec_id, message }),
        (any::<u64>(), any::<u64>(), any::<bool>())
            .prop_map(|(seq, t_send_us, telemetry)| Frame::Heartbeat { seq, t_send_us, telemetry }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(seq, t_send_us, recv_us, reply_us)| Frame::HeartbeatAck {
                seq,
                t_send_us,
                recv_us,
                reply_us
            }
        ),
        (any::<u64>(), arb_blob()).prop_map(|(key, blob)| Frame::Data { key, blob }),
        arb_hash().prop_map(|hash| Frame::BlockRequest { hash }),
        (arb_hash(), arb_blob()).prop_map(|(hash, blob)| Frame::BlockData { hash, blob }),
        arb_hash().prop_map(|hash| Frame::BlockEvict { hash }),
        ("[ -~]{0,24}", any::<u32>())
            .prop_map(|(tenant, proto)| Frame::ClientHello { tenant, proto }),
        ("[ -~]{0,24}", "[ -~]{0,120}", "[a-z]{0,8}", any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(name, space_json, algo, trials, seed, wave)| Frame::SubmitSweep {
                name,
                space_json,
                algo,
                trials,
                seed,
                wave
            }),
        (any::<u32>(), "[ -~]{0,60}")
            .prop_map(|(code, message)| Frame::SweepReject { code, message }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            -1e300f64..1e300f64,
            "[ -~]{0,40}",
            any::<u64>(),
            any::<u32>(),
        )
            .prop_map(
                |(
                    sweep_id,
                    state,
                    done,
                    failed,
                    total,
                    best_acc,
                    best_label,
                    throttled,
                    follow,
                )| {
                    Frame::SweepStatus {
                        sweep_id,
                        state,
                        done,
                        failed,
                        total,
                        best_acc,
                        best_label,
                        throttled,
                        follow,
                    }
                }
            ),
        (any::<u64>(), proptest::collection::vec(arb_row(), 0..6))
            .prop_map(|(sweep_id, rows)| Frame::LeaderboardChunk { sweep_id, rows }),
        any::<u64>().prop_map(|sweep_id| Frame::CancelSweep { sweep_id }),
        (any::<u64>(), any::<u32>(), any::<u64>(), "[ -~]{0,60}").prop_map(
            |(sweep_id, state, wall_us, message)| Frame::SweepDone {
                sweep_id,
                state,
                wall_us,
                message
            }
        ),
        Just(Frame::Shutdown),
    ]
}

proptest! {
    /// A lone frame decodes from its exact buffer and from every prefix
    /// returns "incomplete" rather than garbage or panic.
    #[test]
    fn single_frame_roundtrip_and_prefix_safety(frame in arb_frame()) {
        let buf = frame.encode();
        let (decoded, used) = Frame::decode(&buf).unwrap().expect("complete");
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(used, buf.len());
        for cut in 1..buf.len() {
            prop_assert_eq!(Frame::decode(&buf[..cut]).unwrap(), None);
        }
    }

    /// A retired type byte (7 `Fetch`, 10 `TraceChunk`, 11 `StatsSnapshot`,
    /// 12 `BlockPut`) is an unknown frame type from the header alone,
    /// whatever length and payload follow it.
    #[test]
    fn retired_type_bytes_decode_as_unknown(
        t in prop_oneof![Just(7u8), Just(10u8), Just(11u8), Just(12u8)],
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = vec![b'R', b'N', 1, t];
        buf.extend_from_slice(&tail);
        prop_assert_eq!(Frame::decode(&buf), Err(DecodeError::UnknownFrameType(t)));
    }

    /// Random bytes never panic the decoder: they either fail cleanly or
    /// wait for more input.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Frame::decode(&bytes);
    }
}
