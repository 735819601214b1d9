//! TCP framing robustness: the reader must reassemble frames
//! identically no matter how the sender's bytes are sliced across
//! `write` calls.
//!
//! A real peer coalesces small frames into one write and splits large
//! ones into two slices (the zero-copy path from the wire-path PR), but
//! the *network* owes us nothing: TCP may deliver any byte-level
//! segmentation. These tests connect a raw socket, perform the
//! handshake, and drip envelope frames through chunk sizes
//! N ∈ {1, 2, 7, 4096}, asserting the demultiplexed frames match what a
//! single contiguous write produces. One more pins the handshake
//! itself: an acceptor refuses any link mode but the resilient one.

use chorus_core::SessionTransport as _;
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use chorus_wire::{ControlFrame, Envelope, LinkFrame};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

chorus_core::locations! { N0, N1 }
type Duo = chorus_core::LocationSet!(N0, N1);

/// Payloads sized to straddle every chunk boundary in the matrix,
/// including empty and one crossing the 4096 chunk size.
fn test_frames() -> Vec<Envelope> {
    vec![
        Envelope::new(1, 0, b"".to_vec()),
        Envelope::new(1, 1, b"short".to_vec()),
        Envelope::new(2, 0, (0..=255u8).collect::<Vec<u8>>()),
        Envelope::new(1, 2, vec![0xA5; 5000]),
    ]
}

/// Encodes `frame` exactly as `TcpTransport` puts it on the wire: a
/// `u32` little-endian outer length, then the link-frame data header
/// (tag + per-link sequence), then the envelope bytes.
fn wire_bytes(link_seq: u64, frame: &Envelope) -> Vec<u8> {
    let inner = frame.encode();
    let mut out = ((chorus_wire::DATA_HEADER_LEN + inner.len()) as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&chorus_wire::data_header(link_seq));
    out.extend_from_slice(&inner);
    out
}

/// The handshake's link mode byte for a resilient sender.
const MODE_RESILIENT: u8 = 1;

/// Binds a receiver for `N1` and returns it with its address.
fn bind_receiver() -> (TcpTransport<Duo, N1>, SocketAddr) {
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(N0, addrs[0])
        .location(N1, addrs[1])
        .build::<Duo>()
        .unwrap();
    (TcpTransport::bind(N1, config).unwrap(), addrs[1])
}

/// Connects a raw socket to `addr` posing as `N0` and sends the
/// handshake: a length-prefixed frame carrying the link mode byte and
/// the sender's name. The listener is bound before `bind` returns, so
/// a single connect suffices (the OS backlog holds it until the
/// acceptor thread runs).
fn raw_handshake(addr: SocketAddr, mode: u8) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let hello = [&[mode][..], b"N0"].concat();
    stream.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
    stream.write_all(&hello).unwrap();
    stream.flush().unwrap();
    stream
}

/// Binds a receiver for `N1`, connects a raw socket posing as a
/// resilient `N0`, and returns both once the receiver's resume cursor
/// has been read off the socket. (The acks the receiver sends later
/// are never read; they sit harmlessly in the socket buffer.)
fn receiver_and_raw_sender() -> (TcpTransport<Duo, N1>, TcpStream) {
    let (receiver, addr) = bind_receiver();
    let mut stream = raw_handshake(addr, MODE_RESILIENT);
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).unwrap();
    assert_eq!(
        LinkFrame::decode(&body).unwrap(),
        LinkFrame::Control(ControlFrame::Resume { next: 0 }),
        "a fresh link resumes from frame 0"
    );
    (receiver, stream)
}

/// Writes `bytes` in `chunk`-sized slices, flushing after every slice
/// so each becomes its own TCP segment (as far as loopback allows).
fn write_chunked(stream: &mut TcpStream, bytes: &[u8], chunk: usize) {
    for piece in bytes.chunks(chunk) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
    }
}

#[test]
fn chunked_writes_reassemble_identically_to_a_single_write() {
    // The reference: every frame delivered from one contiguous write.
    let reference: Vec<Envelope> = {
        let (receiver, mut stream) = receiver_and_raw_sender();
        let mut all = Vec::new();
        for (seq, frame) in test_frames().iter().enumerate() {
            all.extend_from_slice(&wire_bytes(seq as u64, frame));
        }
        stream.write_all(&all).unwrap();
        stream.flush().unwrap();
        test_frames().iter().map(|f| receiver.receive_frame(f.session, "N0").unwrap()).collect()
    };
    assert_eq!(reference, test_frames(), "single-write delivery is the baseline");

    for chunk in [1usize, 2, 7, 4096] {
        let (receiver, mut stream) = receiver_and_raw_sender();
        for (seq, frame) in test_frames().iter().enumerate() {
            write_chunked(&mut stream, &wire_bytes(seq as u64, frame), chunk);
        }
        let got: Vec<Envelope> = test_frames()
            .iter()
            .map(|f| receiver.receive_frame(f.session, "N0").unwrap())
            .collect();
        assert_eq!(
            got, reference,
            "chunk size {chunk}: reassembly must match the single-write delivery"
        );
    }
}

#[test]
fn chunk_boundaries_inside_the_length_prefix_are_harmless() {
    // One frame whose 4-byte outer length, 20-byte header, and payload
    // all straddle 3-byte chunks — every prefix field gets split.
    let (receiver, mut stream) = receiver_and_raw_sender();
    let frame = Envelope::new(7, 0, b"boundary-crossing payload".to_vec());
    write_chunked(&mut stream, &wire_bytes(0, &frame), 3);
    assert_eq!(receiver.receive_frame(7, "N0").unwrap(), frame);
}

#[test]
fn large_payloads_cross_the_two_slice_send_path_intact() {
    // > 16 KiB payloads leave a real sender as two write slices (header
    // buffer + uncopied payload); whatever segmentation TCP applies,
    // the peer must reassemble the exact bytes. 64 KiB + 3 keeps the
    // length odd relative to every buffer size involved.
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(N0, addrs[0])
        .location(N1, addrs[1])
        .build::<Duo>()
        .unwrap();
    let receiver = TcpTransport::bind(N1, config.clone()).unwrap();
    let sender = TcpTransport::bind(N0, config).unwrap();

    let payload: Vec<u8> = (0..65_539u32).map(|i| (i % 251) as u8).collect();
    let frame = Envelope::new(3, 0, payload.clone());
    sender.send_frame("N1", frame.clone()).unwrap();
    // A small frame behind the large one catches any residue the
    // two-slice path might leave in the stream.
    let chaser = Envelope::new(3, 1, b"chaser".to_vec());
    sender.send_frame("N1", chaser.clone()).unwrap();

    let got = receiver.receive_frame(3, "N0").unwrap();
    assert_eq!(got.payload, payload.as_slice());
    assert_eq!(got, frame);
    assert_eq!(receiver.receive_frame(3, "N0").unwrap(), chaser);
}

#[test]
fn a_large_frame_dripped_byte_wise_still_reassembles() {
    // The reader's pooled-scratch path under the most adversarial
    // segmentation: a 20 KiB frame arriving in 4096-byte chunks, then
    // the same frame arriving byte-by-byte on a fresh connection.
    let payload: Vec<u8> = (0..20_480u32).map(|i| (i.wrapping_mul(31) % 256) as u8).collect();
    let frame = Envelope::new(9, 0, payload);

    for chunk in [4096usize, 1] {
        let (receiver, mut stream) = receiver_and_raw_sender();
        write_chunked(&mut stream, &wire_bytes(0, &frame), chunk);
        assert_eq!(
            receiver.receive_frame(9, "N0").unwrap(),
            frame,
            "chunk size {chunk} corrupted a large frame"
        );
    }
}

#[test]
fn a_handshake_in_any_other_mode_is_refused() {
    let (receiver, addr) = bind_receiver();
    let mut stream = raw_handshake(addr, 0);
    // A well-formed data frame right behind the hello: had the acceptor
    // admitted the connection, it would land in session 1's mailbox.
    let smuggled = Envelope::new(1, 0, b"smuggled".to_vec());
    let _ = stream.write_all(&wire_bytes(0, &smuggled));
    // The acceptor sends no resume cursor and closes the connection (a
    // reset when our frame was still unread in its socket buffer).
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 64];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
            ) => {}
        other => panic!("expected the refused connection to close, got {other:?}"),
    }
    assert!(
        receiver.try_receive_frame(1, "N0").unwrap().is_none(),
        "nothing from a refused connection may reach a mailbox"
    );
}
