//! Stress and robustness tests for the transports: large payloads, many
//! messages, many peers, and error paths.

use chorus_core::{Endpoint, SessionTransport as _, TransportError};
use chorus_transport::{
    free_local_addrs, LocalTransport, LocalTransportChannel, TcpConfigBuilder, TcpTransport,
};
use chorus_wire::Envelope;

chorus_core::locations! { N0, N1, N2, N3 }
type Net = chorus_core::LocationSet!(N0, N1, N2, N3);
type Duo = chorus_core::LocationSet!(N0, N1);

#[test]
fn tcp_carries_large_payloads() {
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(N0, addrs[0])
        .location(N1, addrs[1])
        .build::<Duo>()
        .unwrap();

    let payload: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
    let expected = payload.clone();

    let cfg = config.clone();
    let receiver = std::thread::spawn(move || {
        let t = TcpTransport::bind(N1, cfg).unwrap();
        t.receive_frame(0, "N0").unwrap().payload
    });
    let sender = TcpTransport::bind(N0, config).unwrap();
    sender.send_frame("N1", Envelope::new(0, 0, payload)).unwrap();
    assert_eq!(receiver.join().unwrap(), expected);
}

#[test]
fn tcp_interleaves_many_messages_in_order() {
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(N0, addrs[0])
        .location(N1, addrs[1])
        .build::<Duo>()
        .unwrap();

    const N: u32 = 500;
    let cfg = config.clone();
    let receiver = std::thread::spawn(move || {
        let endpoint = Endpoint::new(TcpTransport::bind(N1, cfg).unwrap());
        let session = endpoint.session_with_id(0);
        for i in 0..N {
            let msg = session.receive_bytes("N0").unwrap();
            assert_eq!(msg, i.to_le_bytes().to_vec(), "message {i} out of order");
            session.send_bytes("N0", &msg).unwrap();
        }
    });
    let endpoint = Endpoint::new(TcpTransport::bind(N0, config).unwrap());
    let session = endpoint.session_with_id(0);
    for i in 0..N {
        session.send_bytes("N1", &i.to_le_bytes()).unwrap();
        assert_eq!(session.receive_bytes("N1").unwrap(), i.to_le_bytes().to_vec());
    }
    receiver.join().unwrap();
}

#[test]
fn channel_fabric_supports_all_pairs_concurrently() {
    let channel = LocalTransportChannel::<Net>::new();
    let mut handles = Vec::new();

    macro_rules! node {
        ($ty:ty, $peers:expr) => {{
            let c = channel.clone();
            handles.push(std::thread::spawn(move || {
                let endpoint = Endpoint::new(LocalTransport::new(<$ty>::default(), c));
                let session = endpoint.session_with_id(0);
                let peers: &[&str] = $peers;
                // Send a greeting to every peer, then collect one from each.
                for p in peers {
                    session.send_bytes(p, format!("hi-{p}").as_bytes()).unwrap();
                }
                let mut got = Vec::new();
                for p in peers {
                    got.push(String::from_utf8(session.receive_bytes(p).unwrap()).unwrap());
                }
                got
            }));
        }};
    }

    node!(N0, &["N1", "N2", "N3"]);
    node!(N1, &["N0", "N2", "N3"]);
    node!(N2, &["N0", "N1", "N3"]);
    node!(N3, &["N0", "N1", "N2"]);

    for h in handles {
        let got = h.join().unwrap();
        assert_eq!(got.len(), 3);
        // Every received message names the *receiver*.
        for msg in got {
            assert!(msg.starts_with("hi-N"), "unexpected {msg}");
        }
    }
}

#[test]
fn tcp_rejects_unknown_peers_without_blocking() {
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(N0, addrs[0])
        .location(N1, addrs[1])
        .build::<Duo>()
        .unwrap();
    let t = TcpTransport::bind(N0, config).unwrap();
    let sent = t.send_frame("Nobody", Envelope::new(0, 0, b"x".to_vec()));
    assert!(matches!(sent, Err(TransportError::UnknownLocation(_))));
    assert!(matches!(t.receive_frame(0, "Nobody"), Err(TransportError::UnknownLocation(_))));
}

#[test]
fn transport_error_display_names_the_peer() {
    let err = TransportError::UnknownLocation("N7".to_string());
    assert!(err.to_string().contains("N7"));
}
