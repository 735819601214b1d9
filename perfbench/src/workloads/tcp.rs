//! `kvs_tcp_sizes`: a closed loop with one client; each op is a blocking
//! `Session::epp_and_run(SimpleKvs)` over two resilient `TcpTransport`
//! endpoints on host loopback, with default link knobs.

use super::{kvs_codec_and_handler, panic_text, STALL};
use crate::gen::{KvsModel, KvsPlan};
use crate::probe::{DeliverClock, MsgLayer, Probed};
use crate::trace::{self, Name};
use crate::{measure, repeat_setup, Meter, Phase};
use chorus_core::Endpoint;
use chorus_protocols::kvs_simple::{SimpleKvs, SimpleKvsCensus};
use chorus_protocols::roles::{Client, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpLinkStats, TcpTransport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Ops run before measuring: caches fill and lazy set-up ends.
const WARMUP_OPS: u64 = 2_000;
/// `peak_rss_mib` is VmHWM once this many measured ops have completed:
/// equal work on every commit, whatever its speed.
pub const RSS_AT_OPS: u64 = 30_000;

type Census = SimpleKvsCensus;
type ClientEp<const ON: bool> = Endpoint<Census, Client, Probed<TcpTransport<Census, Client>, ON>>;
type ServerEp<const ON: bool> =
    Endpoint<Census, Primary, Probed<TcpTransport<Census, Primary>, ON>>;

struct Rig<const ON: bool> {
    client: ClientEp<ON>,
    server: Arc<ServerEp<ON>>,
    client_msgs: Arc<MsgLayer>,
    server_msgs: Arc<MsgLayer>,
    deliver: Option<Arc<DeliverClock>>,
    /// Session ids (and the load thread's op span) for the server role
    /// thread; `None` stops it.
    ids: Sender<Option<(u64, Option<u32>)>>,
    /// The server role's outcome per session.
    served: Receiver<Result<(), String>>,
    server_thread: Option<JoinHandle<()>>,
    next_id: u64,
    /// The link's two addresses, both on host loopback.
    addrs: Vec<std::net::SocketAddr>,
}

impl<const ON: bool> Rig<ON> {
    fn build() -> Self {
        let addrs = free_local_addrs(2).expect("reserve loopback ports");
        assert!(addrs.iter().all(|a| a.ip().is_loopback()), "the link must stay on loopback");
        let config = TcpConfigBuilder::new()
            .location(Client, addrs[0])
            .location(Primary, addrs[1])
            .build::<Census>()
            .expect("complete census");
        let deliver = ON.then(|| Arc::new(DeliverClock::default()));
        let client_msgs = MsgLayer::new(deliver.clone());
        let server_msgs = MsgLayer::new(deliver.clone());
        let server_transport = TcpTransport::bind(Primary, config.clone()).expect("bind server");
        let client_transport = TcpTransport::bind(Client, config).expect("bind client");
        let server = Arc::new(
            Endpoint::builder(Primary)
                .transport(Probed::<_, ON>::new(server_transport))
                .layer(Arc::clone(&server_msgs))
                .build(),
        );
        let client = Endpoint::builder(Client)
            .transport(Probed::<_, ON>::new(client_transport))
            .layer(Arc::clone(&client_msgs))
            .build();
        let (ids, id_rx) = channel();
        let (served_tx, served) = channel();
        let server_thread = {
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name("kvs-server".into())
                .spawn(move || serve(&server, &id_rx, &served_tx))
                .expect("spawn the server role thread")
        };
        let mut rig = Rig {
            client,
            server,
            client_msgs,
            server_msgs,
            deliver,
            ids,
            served,
            server_thread: Some(server_thread),
            next_id: 0,
            addrs,
        };
        let response = rig.op(Request::Get("setup-probe".into())).expect("setup op completes");
        assert_eq!(response, Response::NotFound, "setup probe answered wrongly");
        rig
    }

    /// One blocking KVS session.
    fn op(&mut self, request: Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let span = trace::span(Name::Op, id);
        let cause = span.as_ref().map(trace::Guard::index);
        self.ids.send(Some((id, cause))).map_err(|_| "server role thread exited".to_string())?;
        let response = catch_unwind(AssertUnwindSafe(|| {
            let session = self.client.session_with_id(id);
            let _span = trace::span(Name::Session, id);
            let out = session.epp_and_run(SimpleKvs {
                request: session.local(request),
                state: session.remote(Primary),
            });
            session.unwrap(out)
        }))
        .map_err(|p| panic_text(&*p))?;
        self.served.recv_timeout(STALL).map_err(|_| "server role stalled".to_string())??;
        Ok(response)
    }

    fn link_stats(&self) -> (TcpLinkStats, TcpLinkStats) {
        (self.client.transport().inner().link_stats(), self.server.transport().inner().link_stats())
    }

    fn messages(&self) -> (u64, u64) {
        let msgs = self.client_msgs.msgs.load(Ordering::Relaxed)
            + self.server_msgs.msgs.load(Ordering::Relaxed);
        let bytes = self.client_msgs.bytes.load(Ordering::Relaxed)
            + self.server_msgs.bytes.load(Ordering::Relaxed);
        (msgs, bytes)
    }
}

impl<const ON: bool> Drop for Rig<ON> {
    fn drop(&mut self) {
        let _ = self.ids.send(None);
        if let Some(thread) = self.server_thread.take() {
            let _ = thread.join();
        }
    }
}

/// The server role: one blocking session per id, against one store.
fn serve<const ON: bool>(
    server: &ServerEp<ON>,
    ids: &Receiver<Option<(u64, Option<u32>)>>,
    served: &Sender<Result<(), String>>,
) {
    let store = SharedStore::new();
    while let Ok(Some((id, cause))) = ids.recv() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let session = server.session_with_id(id);
            let _span = trace::span_under(Name::Session, id, cause);
            session.epp_and_run(SimpleKvs {
                request: session.remote(Client),
                state: session.local(store.clone()),
            });
        }))
        .map_err(|p| panic_text(&*p));
        if served.send(outcome).is_err() {
            return;
        }
    }
}

fn drive<const ON: bool>(
    rig: &mut Rig<ON>,
    plan: &KvsPlan,
    model: &mut KvsModel,
    n: &mut u64,
    meter: &mut Meter,
) {
    loop {
        let (op, request, bytes) = plan.request(0, *n);
        *n += 1;
        let issued = Instant::now();
        let result = rig.op(request);
        let now = Instant::now();
        match result {
            Ok(response) => match model.check(plan, 0, op, &response) {
                Ok(delivered) => meter.ok(issued, now, bytes + delivered),
                Err(what) => meter.wrong(what),
            },
            Err(_) => meter.fail(),
        }
        if meter.done(now) {
            return;
        }
    }
}

pub fn phase<const ON: bool>(plan: &KvsPlan, seconds: f64, setup_batches: usize) -> Phase {
    let (setup_times, (mut rig, mut model, mut n), warm) =
        repeat_setup(setup_batches, WARMUP_OPS, |warm| {
            let mut rig = Rig::<ON>::build();
            let mut model = KvsModel::new(plan);
            let mut n = 0u64;
            drive(&mut rig, plan, &mut model, &mut n, warm);
            (rig, model, n)
        });

    let (msgs0, bytes0) = rig.messages();
    let (client0, server0) = rig.link_stats();
    let mut meter = measure(seconds, RSS_AT_OPS, &warm, |meter| {
        drive(&mut rig, plan, &mut model, &mut n, meter)
    });
    let (msgs1, bytes1) = rig.messages();
    let (client1, server1) = rig.link_stats();
    let ops = meter.attempted.max(1) as f64;

    // Exactly two messages per session over the rig's life (the setup
    // probe included).
    let (all_msgs, _) = rig.messages();
    if all_msgs != 2 * rig.next_id {
        meter.wrong(format!("{all_msgs} messages for {} sessions", rig.next_id));
    }

    let mut phase = Phase::new(setup_times, meter);
    phase.notes.push(("link", format!("host loopback {} <-> {}", rig.addrs[0], rig.addrs[1])));
    phase.layers.push(("session.msgs_per_op", (msgs1 - msgs0) as f64 / ops));
    phase.layers.push(("session.bytes_per_op", (bytes1 - bytes0) as f64 / ops));
    let batches = (client1.batches - client0.batches) + (server1.batches - server0.batches);
    let frames = (client1.batched_frames - client0.batched_frames)
        + (server1.batched_frames - server0.batched_frames);
    phase.layers.extend([
        ("tcp.frames_per_batch", frames as f64 / batches.max(1) as f64),
        ("tcp.batches_per_op", batches as f64 / ops),
        ("tcp.replayed_frames", (client1.replayed_frames + server1.replayed_frames) as f64),
        ("tcp.reconnects", (client1.reconnects + server1.reconnects) as f64),
    ]);
    if ON {
        let client = &rig.client.transport().stats;
        let server = &rig.server.transport().stats;
        let send_ns = trace::mean_of([&client.send, &server.send]);
        let recv_ns = trace::mean_of([&client.recv_block, &server.recv_block]);
        let deliver = rig.deliver.as_ref().expect("traced rigs time delivery");
        let (encode, decode, handler) = kvs_codec_and_handler(plan, 2048);
        phase.layers.extend([
            ("wire.encode_ns", encode),
            ("wire.decode_ns", decode),
            ("handler.ns", handler),
            ("session.deliver_p50_us", deliver.histo.quantile(0.5) / 1e3),
            ("session.deliver_p99_us", deliver.histo.quantile(0.99) / 1e3),
            ("transport.send_ns", send_ns),
            ("transport.recv_block_us", recv_ns / 1e3),
        ]);
    }
    phase
}
