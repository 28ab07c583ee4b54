//! One encoder for both frame forms: a [`FrameRef`] decoded from an owned
//! frame's bytes encodes back to exactly those bytes, and copies back into
//! the frame it came from.

use proptest::prelude::*;
use rnet::{Blob, Frame, FrameRef, LeaderRow, SendBuf, WireArg};

const TEXT: &str = "[ -~]{0,24}";

fn arb_blob() -> impl Strategy<Value = Blob> {
    ("[a-z.]{0,12}", proptest::collection::vec(any::<u8>(), 0..300))
        .prop_map(|(tag, bytes)| Blob { tag, bytes })
}

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
    (TEXT, -1e300f64..1e300f64, any::<u32>(), any::<u64>()).prop_map(
        |(label, accuracy, epochs, task_us)| LeaderRow { label, accuracy, epochs, task_us },
    )
}

/// Two u64 and two u32 fields, the common shape of a frame's numbers.
fn ids() -> impl Strategy<Value = (u64, u64, u32, u32)> {
    (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>())
}

/// Every frame type, with every string, blob and list drawn at random.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (TEXT, any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(name, cores, gpus, mem_gib)| Frame::Hello { name, cores, gpus, mem_gib }),
        (
            ids(),
            proptest::option::of("[a-z._]{1,20}"),
            proptest::collection::vec(any::<u32>(), 0..8),
            proptest::collection::vec(any::<u32>(), 0..4),
            proptest::collection::vec(arb_arg(), 0..5),
        )
            .prop_map(|((exec_id, task_id, attempt, node), fn_name, cores, gpus, args)| {
                Frame::Submit {
                    exec_id,
                    task_id,
                    attempt,
                    node,
                    fn_id: task_id ^ exec_id,
                    fn_name,
                    variant: attempt % 4,
                    cores,
                    gpus,
                    args,
                }
            }),
        (ids(), proptest::collection::vec(arb_blob(), 0..4)).prop_map(
            |((exec_id, recv_us, start_us, end_us), outputs)| Frame::Done {
                exec_id,
                recv_us,
                start_us: u64::from(start_us),
                end_us: u64::from(end_us),
                outputs,
            }
        ),
        (any::<u64>(), TEXT).prop_map(|(exec_id, message)| Frame::Failed { exec_id, message }),
        (any::<u64>(), any::<u64>(), any::<bool>())
            .prop_map(|(seq, t_send_us, telemetry)| Frame::Heartbeat { seq, t_send_us, telemetry }),
        ids().prop_map(|(seq, t_send_us, recv_us, reply_us)| Frame::HeartbeatAck {
            seq,
            t_send_us,
            recv_us: u64::from(recv_us),
            reply_us: u64::from(reply_us),
        }),
        (any::<u64>(), arb_blob()).prop_map(|(key, blob)| Frame::Data { key, blob }),
        arb_hash().prop_map(|hash| Frame::BlockRequest { hash }),
        (arb_hash(), arb_blob()).prop_map(|(hash, blob)| Frame::BlockData { hash, blob }),
        arb_hash().prop_map(|hash| Frame::BlockEvict { hash }),
        (TEXT, any::<u32>()).prop_map(|(tenant, proto)| Frame::ClientHello { tenant, proto }),
        (TEXT, "[ -~]{0,120}", "[a-z]{0,8}", ids()).prop_map(
            |(name, space_json, algo, (seed, _, trials, wave))| Frame::SubmitSweep {
                name,
                space_json,
                algo,
                trials,
                seed,
                wave,
            }
        ),
        (any::<u32>(), TEXT).prop_map(|(code, message)| Frame::SweepReject { code, message }),
        (ids(), ids(), -1e300f64..1e300f64, TEXT).prop_map(
            |((sweep_id, throttled, state, done), (_, _, failed, total), best_acc, best_label)| {
                Frame::SweepStatus {
                    sweep_id,
                    state,
                    done,
                    failed,
                    total,
                    best_acc,
                    best_label,
                    throttled,
                    follow: state & 1,
                }
            }
        ),
        (any::<u64>(), proptest::collection::vec(arb_row(), 0..6))
            .prop_map(|(sweep_id, rows)| Frame::LeaderboardChunk { sweep_id, rows }),
        any::<u64>().prop_map(|sweep_id| Frame::CancelSweep { sweep_id }),
        (ids(), TEXT).prop_map(|((sweep_id, wall_us, state, _), message)| Frame::SweepDone {
            sweep_id,
            state,
            wall_us,
            message,
        }),
        Just(Frame::Shutdown),
    ]
}

proptest! {
    // Enough cases that each of the 18 frame types is drawn about 30 times.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The borrowed twin of any frame puts the owned frame's bytes, through
    /// `encode` and through a `SendBuf`, and copies back into the frame.
    #[test]
    fn a_borrowed_frame_encodes_to_its_owned_twins_bytes(frame in arb_frame()) {
        let wire = frame.encode();
        let (borrowed, used) = FrameRef::decode(&wire).unwrap().expect("complete");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(&borrowed.encode(), &wire);
        let mut send = SendBuf::new();
        send.push(&borrowed);
        let mut pushed = Vec::new();
        send.flush(&mut pushed).unwrap();
        prop_assert_eq!(&pushed, &wire);
        prop_assert_eq!(&borrowed.to_owned(), &frame);
    }
}
