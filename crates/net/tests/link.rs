//! `rnet::link::Link` over real loopback sockets: what a read hands out,
//! when it stops, what ends a link, and when the poller watches for WRITE.
//! The split property is seeded like `nonblock_fuzz.rs`; the rest are
//! single scenarios.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rnet::{Blob, Event, Frame, FrameRef, Link, Poller, SendBuf};

/// The link's poll token in every test.
const TOKEN: u64 = 3;

/// A connected pair: the peer's plain blocking socket, and our end adopted
/// as a link on `poller`.
fn pair(poller: &Poller) -> (TcpStream, Link) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (ours, _) = listener.accept().unwrap();
    peer.set_nodelay(true).unwrap();
    (peer, Link::adopt(ours, poller, TOKEN).unwrap())
}

/// Wait for the next readiness events; a wait that times out fails the test.
fn wait(poller: &Poller, events: &mut Vec<Event>) {
    let n = poller.wait(events, Some(Duration::from_secs(5))).unwrap();
    assert!(n > 0, "no readiness event in 5 s");
}

/// Read events until `want` frames arrived or the link ended; returns the
/// frames and whether the link is still open.
fn read_frames(poller: &Poller, link: &mut Link, want: usize) -> (Vec<Frame>, bool) {
    let mut frames = Vec::new();
    let mut events = Vec::new();
    while frames.len() < want {
        wait(poller, &mut events);
        let got = link.read(|frame| {
            frames.push(frame.to_owned());
            true
        });
        if !got.open {
            return (frames, false);
        }
    }
    (frames, true)
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(seq, t_send_us)| Frame::Heartbeat {
            seq,
            t_send_us,
            telemetry: false
        }),
        (any::<u64>(), "[ -~]{0,40}")
            .prop_map(|(exec_id, message)| Frame::Failed { exec_id, message }),
        any::<u64>().prop_map(|h| Frame::BlockRequest { hash: u128::from(h) << 3 }),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..300))
            .prop_map(|(key, bytes)| Frame::Data { key, blob: Blob { tag: "t".into(), bytes } }),
        // Past one 64 KiB read: the link reads again after a full one.
        (any::<u64>(), 60_000usize..150_000).prop_map(|(key, n)| Frame::Data {
            key,
            blob: Blob { tag: "big".into(), bytes: vec![(key % 251) as u8; n] }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However the peer splits its writes, `read` hands out every frame
    /// whole and in order.
    #[test]
    fn frames_written_in_random_splits_come_out_whole_and_in_order(
        frames in proptest::collection::vec(arb_frame(), 1..10),
        splits in proptest::collection::vec(1usize..700, 1..24),
    ) {
        let poller = Poller::new().unwrap();
        let (mut peer, mut link) = pair(&poller);
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let writer = std::thread::spawn(move || {
            let mut at = 0;
            for (i, n) in splits.iter().cycle().enumerate() {
                if at == wire.len() {
                    break;
                }
                let end = (at + n).min(wire.len());
                peer.write_all(&wire[at..end]).unwrap();
                at = end;
                if i % 4 == 0 {
                    // Let the reader catch up, so reads end mid-frame.
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            peer
        });
        let (got, open) = read_frames(&poller, &mut link, frames.len());
        let _peer = writer.join().unwrap();
        prop_assert!(open);
        prop_assert_eq!(got, frames);
    }
}

#[test]
fn a_short_read_returns_without_reading_what_arrives_after_it() {
    let poller = Poller::new().unwrap();
    let (mut peer, mut link) = pair(&poller);
    // A second handle on our socket: it sees what the link has not read.
    let probe = link.stream().try_clone().unwrap();
    let mut events = Vec::new();
    peer.write_all(&Frame::BlockRequest { hash: 1 }.encode()).unwrap();
    wait(&poller, &mut events);
    let mut seen = Vec::new();
    let got = link.read(|frame| {
        if let FrameRef::BlockRequest { hash } = frame {
            seen.push(hash);
        }
        // The read that delivered this frame was short. Refill the socket
        // before the handler returns: a link that read again would find it.
        peer.write_all(&Frame::BlockRequest { hash: 2 }.encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match probe.peek(&mut [0u8]) {
                Ok(n) if n > 0 => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                other => panic!("the second frame never arrived: {other:?}"),
            }
        }
        true
    });
    assert!(got.open);
    assert_eq!(seen, [1], "the link read on after a short read");
    // The level-triggered poller raises the event again for those bytes.
    wait(&poller, &mut events);
    let got = link.read(|frame| {
        if let FrameRef::BlockRequest { hash } = frame {
            seen.push(hash);
        }
        false
    });
    assert!(!got.open, "a handler's false ends the link");
    assert_eq!(seen, [1, 2]);
}

#[test]
fn eof_mid_frame_a_corrupt_frame_and_a_refusing_handler_each_end_the_link() {
    let poller = Poller::new().unwrap();
    let wire = Frame::Failed { exec_id: 7, message: "gone".into() }.encode();

    // EOF inside a frame.
    let (mut peer, mut link) = pair(&poller);
    peer.write_all(&wire[..wire.len() - 2]).unwrap();
    peer.shutdown(Shutdown::Write).unwrap();
    let (frames, open) = read_frames(&poller, &mut link, 1);
    assert!(frames.is_empty() && !open, "EOF mid-frame: {frames:?}, open {open}");
    link.close(&poller);

    // Bytes that are no frame.
    let (mut peer, mut link) = pair(&poller);
    peer.write_all(b"totally not a frame").unwrap();
    let (frames, open) = read_frames(&poller, &mut link, 1);
    assert!(frames.is_empty() && !open, "garbage: {frames:?}, open {open}");
    link.close(&poller);

    // A handler that says no: the frame after it is never handed out.
    let (mut peer, mut link) = pair(&poller);
    peer.write_all(&[wire.clone(), wire].concat()).unwrap();
    let mut events = Vec::new();
    wait(&poller, &mut events);
    let mut calls = 0;
    let got = link.read(|_| {
        calls += 1;
        false
    });
    assert!(!got.open);
    assert_eq!(calls, 1);
}

#[test]
fn a_refused_backlog_arms_write_interest_and_a_drained_one_disarms_it() {
    let poller = Poller::new().unwrap();
    let (peer, mut link) = pair(&poller);
    let mut send = SendBuf::new();
    assert_eq!(link.flush(&poller, &mut send).unwrap(), 0, "nothing to write");
    let bytes = vec![5u8; 1 << 20];
    for key in 0..16 {
        send.push(&Frame::Data { key, blob: Blob { tag: "t".into(), bytes: bytes.clone() } });
    }
    let total = send.pending();
    let mut written = link.flush(&poller, &mut send).unwrap();
    assert!(!send.is_empty(), "loopback took a 16 MiB backlog in one flush");

    let reader = std::thread::spawn(move || {
        let mut peer = peer;
        let mut buf = vec![0u8; 1 << 16];
        let mut read = 0;
        while read < total {
            read += peer.read(&mut buf).unwrap();
        }
        (peer, read)
    });
    // Only WRITE readiness can fire here: the peer sends nothing.
    let mut events = Vec::new();
    let mut writable = 0;
    while !send.is_empty() {
        wait(&poller, &mut events);
        for ev in &events {
            assert!(ev.token == TOKEN && ev.writable, "{ev:?}");
            writable += 1;
            written += link.flush(&poller, &mut send).unwrap();
        }
    }
    let (_peer, read) = reader.join().unwrap();
    assert!(writable > 0);
    assert_eq!((written, read), (total, total));
    // Drained: back to READ, so an idle, writable socket raises nothing.
    let n = poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
    assert_eq!(n, 0, "write interest outlived the backlog: {events:?}");
}
