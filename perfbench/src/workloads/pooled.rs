//! `kvs_pooled_local`: a closed loop of 64 logical clients, each op one
//! `PooledKvsClient`/`PooledKvsServer` pair spawned with a fresh session
//! id on a `SessionRuntime` with one worker per core, over one
//! long-lived `LocalTransport` endpoint pair.

use super::{kvs_codec_and_handler, STALL};
use crate::gen::{KvsModel, KvsOp, KvsPlan};
use crate::probe::{DeliverClock, MsgLayer, Probed, RuntimeStats, Traced, TransportStats};
use crate::trace::{self, Name};
use crate::{host_cores, measure, repeat_setup, Meter, Phase};
use chorus_core::{Endpoint, SessionHandle, SessionRuntime};
use chorus_protocols::kvs_simple::{PooledKvsClient, PooledKvsServer, SimpleKvsCensus};
use chorus_protocols::roles::{Client, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{LocalTransport, LocalTransportChannel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Ops run before measuring: caches fill and lazy set-up ends.
const WARMUP_OPS: u64 = 20_000;
/// `peak_rss_mib` is VmHWM once this many measured ops have completed:
/// equal work on every commit, whatever its speed.
pub const RSS_AT_OPS: u64 = 200_000;

type Census = SimpleKvsCensus;
type ClientEp<const ON: bool> =
    Endpoint<Census, Client, Probed<LocalTransport<Census, Client>, ON>>;
type ServerEp<const ON: bool> =
    Endpoint<Census, Primary, Probed<LocalTransport<Census, Primary>, ON>>;

/// Sessions kept in flight.
const SLOTS: usize = 64;

/// One pool worker per core, as users get it.
pub fn pool_size() -> usize {
    host_cores()
}

struct Rig<const ON: bool> {
    // Declared first so the pool stops before the endpoints drop.
    runtime: SessionRuntime,
    client: Arc<ClientEp<ON>>,
    server: Arc<ServerEp<ON>>,
    store: SharedStore,
    client_msgs: Arc<MsgLayer>,
    server_msgs: Arc<MsgLayer>,
    deliver: Option<Arc<DeliverClock>>,
    stats: Arc<RuntimeStats>,
    next_id: u64,
    done_tx: Sender<usize>,
    done_rx: Receiver<usize>,
    sessions: u64,
}

struct InFlight {
    op: KvsOp,
    bytes: u64,
    issued: Instant,
    client: SessionHandle<Response>,
    server: SessionHandle<()>,
}

impl<const ON: bool> Rig<ON> {
    fn build() -> Self {
        let fabric = LocalTransportChannel::<Census>::new();
        let deliver = ON.then(|| Arc::new(DeliverClock::default()));
        let client_msgs = MsgLayer::new(deliver.clone());
        let server_msgs = MsgLayer::new(deliver.clone());
        let client = Arc::new(
            Endpoint::builder(Client)
                .transport(Probed::<_, ON>::new(LocalTransport::new(Client, fabric.clone())))
                .layer(Arc::clone(&client_msgs))
                .build(),
        );
        let server = Arc::new(
            Endpoint::builder(Primary)
                .transport(Probed::<_, ON>::new(LocalTransport::new(Primary, fabric)))
                .layer(Arc::clone(&server_msgs))
                .build(),
        );
        let (done_tx, done_rx) = channel();
        let mut rig = Rig {
            runtime: SessionRuntime::new(pool_size()),
            client,
            server,
            store: SharedStore::new(),
            client_msgs,
            server_msgs,
            deliver,
            stats: Arc::default(),
            next_id: 0,
            done_tx,
            done_rx,
            sessions: 0,
        };
        // The first op completes the setup: a probe key outside every
        // slot's key range.
        let probe = rig.spawn(usize::MAX, Request::Get("setup-probe".into()));
        assert_eq!(
            probe.1.join().expect("setup op completes"),
            Response::NotFound,
            "setup probe answered wrongly"
        );
        probe.2.join().expect("setup server completes");
        rig.done_rx.recv().expect("setup completion reported");
        rig
    }

    fn spawn(
        &mut self,
        slot: usize,
        request: Request,
    ) -> (Instant, SessionHandle<Response>, SessionHandle<()>) {
        let id = self.next_id;
        self.next_id += 1;
        self.sessions += 1;
        let issued = Instant::now();
        let server_program = Traced::<_, ON>::new(
            PooledKvsServer::new(self.store.clone()),
            id,
            &self.stats,
            &self.server.transport().stamps,
            None,
        );
        let client_program = Traced::<_, ON>::new(
            PooledKvsClient::new(request),
            id,
            &self.stats,
            &self.client.transport().stamps,
            Some((slot, self.done_tx.clone())),
        );
        let (server, client) = if ON {
            let start = trace::now_ns();
            let span = trace::span(Name::Spawn, id);
            let server = self.runtime.spawn(&self.server, id, server_program);
            drop(span);
            let mid = trace::now_ns();
            let span = trace::span(Name::Spawn, id);
            let client = self.runtime.spawn(&self.client, id, client_program);
            drop(span);
            self.stats.spawn.record(mid - start);
            self.stats.spawn.record(trace::now_ns() - mid);
            (server, client)
        } else {
            let server = self.runtime.spawn(&self.server, id, server_program);
            (server, self.runtime.spawn(&self.client, id, client_program))
        };
        (issued, client, server)
    }

    fn messages(&self) -> (u64, u64) {
        let msgs = self.client_msgs.msgs.load(Ordering::Relaxed)
            + self.server_msgs.msgs.load(Ordering::Relaxed);
        let bytes = self.client_msgs.bytes.load(Ordering::Relaxed)
            + self.server_msgs.bytes.load(Ordering::Relaxed);
        (msgs, bytes)
    }
}

/// Drives the closed loop until `meter` says stop, then drains.
fn drive<const ON: bool>(
    rig: &mut Rig<ON>,
    plan: &KvsPlan,
    model: &mut KvsModel,
    counters: &mut [u64],
    meter: &mut Meter,
) {
    let mut slots: Vec<Option<InFlight>> = (0..SLOTS).map(|_| None).collect();
    let issue = |rig: &mut Rig<ON>, slot: usize, counters: &mut [u64]| {
        let (op, request, bytes) = plan.request(slot, counters[slot]);
        counters[slot] += 1;
        let (issued, client, server) = rig.spawn(slot, request);
        InFlight { op, bytes, issued, client, server }
    };
    for (slot, entry) in slots.iter_mut().enumerate() {
        *entry = Some(issue(rig, slot, counters));
    }
    let mut in_flight = SLOTS;
    while in_flight > 0 {
        let Ok(slot) = rig.done_rx.recv_timeout(STALL) else {
            meter.wrong(format!("{in_flight} sessions stalled for {STALL:?}"));
            return;
        };
        let done = slots[slot].take().expect("a finished slot was in flight");
        let client = done.client.join();
        let server = done.server.join();
        let now = Instant::now();
        match (client, server) {
            (Ok(response), Ok(())) => match model.check(plan, slot, done.op, &response) {
                Ok(delivered) => meter.ok(done.issued, now, done.bytes + delivered),
                Err(what) => meter.wrong(what),
            },
            _ => meter.fail(),
        }
        if meter.done(now) {
            in_flight -= 1;
        } else {
            slots[slot] = Some(issue(rig, slot, counters));
        }
    }
}

pub fn phase<const ON: bool>(plan: &KvsPlan, seconds: f64, setup_batches: usize) -> Phase {
    let (setup_times, (mut rig, mut model, mut counters), warm) =
        repeat_setup(setup_batches, WARMUP_OPS, |warm| {
            let mut rig = Rig::<ON>::build();
            let mut model = KvsModel::new(plan);
            let mut counters = vec![0u64; SLOTS];
            drive(&mut rig, plan, &mut model, &mut counters, warm);
            (rig, model, counters)
        });

    let (msgs0, bytes0) = rig.messages();
    let sessions0 = rig.sessions;
    let mut meter = measure(seconds, RSS_AT_OPS, &warm, |meter| {
        drive(&mut rig, plan, &mut model, &mut counters, meter)
    });
    let (msgs1, bytes1) = rig.messages();
    let ops = (rig.sessions - sessions0) as f64;

    // Exactly two messages per KVS session, over the whole rig's life.
    let (all_msgs, _) = rig.messages();
    if all_msgs != 2 * rig.sessions {
        meter.wrong(format!("{all_msgs} messages for {} sessions (expected 2 each)", rig.sessions));
    }

    let mut phase = Phase::new(setup_times, meter);
    phase.notes.push(("in_flight", SLOTS.to_string()));
    phase.layers.push(("session.msgs_per_op", (msgs1 - msgs0) as f64 / ops));
    phase.layers.push(("session.bytes_per_op", (bytes1 - bytes0) as f64 / ops));
    if ON {
        let client = &rig.client.transport().stats;
        let server = &rig.server.transport().stats;
        let total = |counter: fn(&TransportStats) -> &AtomicU64| {
            counter(client).load(Ordering::Relaxed) + counter(server).load(Ordering::Relaxed)
        };
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let tries = total(|s| &s.try_calls);
        let hits = total(|s| &s.try_hits);
        let regs = total(|s| &s.register_calls);
        let ready = total(|s| &s.register_ready);
        let stats = &rig.stats;
        let deliver = rig.deliver.as_ref().expect("traced rigs time delivery");
        let (encode, decode, handler) = kvs_codec_and_handler(plan, 64);
        phase.layers.extend([
            ("wire.encode_ns", encode),
            ("wire.decode_ns", decode),
            ("handler.ns", handler),
            ("session.deliver_p50_us", deliver.histo.quantile(0.5) / 1e3),
            ("session.deliver_p99_us", deliver.histo.quantile(0.99) / 1e3),
            ("transport.send_ns", trace::mean_of([&client.send, &server.send])),
            ("transport.recv_block_us", 0.0),
            ("transport.try_recv_hit_ratio", ratio(hits, tries)),
            ("transport.waker_ready_ratio", ratio(ready, regs)),
            ("runtime.spawn_ns", stats.spawn.mean()),
            ("runtime.resume_ns", stats.resume.mean()),
            (
                "runtime.resumes_per_session",
                ratio(
                    stats.resumes.load(Ordering::Relaxed),
                    stats.sessions.load(Ordering::Relaxed),
                ),
            ),
            ("runtime.wake_to_resume_p50_us", stats.wake_to_resume.quantile(0.5) / 1e3),
            ("runtime.wake_to_resume_p99_us", stats.wake_to_resume.quantile(0.99) / 1e3),
        ]);
    }
    phase
}
