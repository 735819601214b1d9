//! `lottery_local`: the census-polymorphic DPrio lottery (3 clients, 3
//! servers, an analyst) in a closed loop with one draw in flight. Seven
//! persistent blocking endpoints share one `LocalTransportChannel`; each
//! party's thread loops over fresh session ids handed out by the load thread.

use super::{panic_text, STALL};
use crate::gen::LotteryPlan;
use crate::probe::{DeliverClock, MsgLayer, Probed, TransportStats};
use crate::trace::{self, Name};
use crate::{measure, repeat_setup, Meter, Phase};
use chorus_core::{ChoreographyLocation, Endpoint, LocationSet};
use chorus_mpc::field::FLOTTERY;
use chorus_protocols::lottery::{Lottery, LotteryError};
use chorus_protocols::roles::{Analyst, C1, C2, C3, S1, S2, S3};
use chorus_transport::{LocalTransport, LocalTransportChannel};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Ops run before measuring: caches fill and lazy set-up ends.
const WARMUP_OPS: u64 = 1_000;
/// `peak_rss_mib` is VmHWM once this many measured ops have completed:
/// equal work on every commit, whatever its speed.
pub const RSS_AT_OPS: u64 = 10_000;

type Clients = chorus_core::LocationSet!(C1, C2, C3);
type Servers = chorus_core::LocationSet!(S1, S2, S3);
type Census = chorus_core::LocationSet!(Analyst, C1, C2, C3, S1, S2, S3);

/// The paper's τ: a multiple of the number of clients.
const TAU: u64 = 300;
/// Messages one draw sends: 9 client shares, 3 × 6 server-to-server
/// gathers (commitments, ψ, ρ), 3 shares to the analyst.
const MSGS_PER_DRAW: u64 = 30;
const PARTIES: usize = 7;

/// What one party reports for one draw: the analyst's payout, or
/// nothing for the other parties; `Err` if the party's session failed.
type Report = (usize, Result<Option<Result<u64, LotteryError>>, String>);
type Command = (u64, [u64; 3], Option<u32>);

struct Rig<const ON: bool> {
    /// Per party: session id, secrets and the load thread's op span; `None`
    /// stops the party.
    commands: Vec<Sender<Option<Command>>>,
    reports: Receiver<Report>,
    threads: Vec<JoinHandle<()>>,
    msgs: Arc<MsgLayer>,
    deliver: Option<Arc<DeliverClock>>,
    stats: Vec<Arc<TransportStats>>,
    next_id: u64,
}

/// Spawns one party's thread: a persistent endpoint looping over the
/// session ids (and secrets) the load thread sends.
macro_rules! party {
    ($rig:ident, $channel:ident, $reports:ident, $index:expr, $loc:ty, |$session:ident, $secrets:ident| $body:expr) => {{
        let (tx, rx) = channel::<Option<Command>>();
        let transport = Probed::<_, ON>::new(LocalTransport::new(<$loc>::new(), $channel.clone()));
        $rig.stats.push(Arc::clone(&transport.stats));
        let endpoint = Endpoint::builder(<$loc>::new())
            .transport(transport)
            .layer(Arc::clone(&$rig.msgs))
            .build();
        let reports = $reports.clone();
        let thread = std::thread::Builder::new()
            .name(format!("lottery-{}", <$loc>::NAME))
            .spawn(move || {
                while let Ok(Some((id, $secrets, cause))) = rx.recv() {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let $session = endpoint.session_with_id(id);
                        let _span = trace::span_under(Name::Session, id, cause);
                        $body
                    }))
                    .map_err(|p| panic_text(&*p));
                    if reports.send(($index, outcome)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn a lottery party");
        $rig.commands.push(tx);
        $rig.threads.push(thread);
    }};
}

macro_rules! client_party {
    ($rig:ident, $channel:ident, $reports:ident, $index:expr, $loc:ty, $slot:expr) => {
        party!($rig, $channel, $reports, $index, $loc, |session, secrets| {
            session.epp_and_run(Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
                secrets: &session.local_faceted(FLOTTERY::new(secrets[$slot])),
                tau: TAU,
                cheaters: &session.remote_faceted(Servers::new()),
                phantom: PhantomData,
            });
            None
        })
    };
}

macro_rules! server_party {
    ($rig:ident, $channel:ident, $reports:ident, $index:expr, $loc:ty) => {
        party!($rig, $channel, $reports, $index, $loc, |session, _secrets| {
            session.epp_and_run(Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
                secrets: &session.remote_faceted(Clients::new()),
                tau: TAU,
                cheaters: &session.local_faceted(false),
                phantom: PhantomData,
            });
            None
        })
    };
}

impl<const ON: bool> Rig<ON> {
    fn build() -> Self {
        let fabric = LocalTransportChannel::<Census>::new();
        let deliver = ON.then(|| Arc::new(DeliverClock::default()));
        let (reports_tx, reports) = channel::<Report>();
        let mut rig = Rig {
            commands: Vec::with_capacity(PARTIES),
            reports,
            threads: Vec::with_capacity(PARTIES),
            msgs: MsgLayer::new(deliver.clone()),
            deliver,
            stats: Vec::with_capacity(PARTIES),
            next_id: 0,
        };
        party!(rig, fabric, reports_tx, 0, Analyst, |session, _secrets| {
            let out =
                session.epp_and_run(Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
                    secrets: &session.remote_faceted(Clients::new()),
                    tau: TAU,
                    cheaters: &session.remote_faceted(Servers::new()),
                    phantom: PhantomData,
                });
            Some(session.unwrap(out))
        });
        client_party!(rig, fabric, reports_tx, 1, C1, 0);
        client_party!(rig, fabric, reports_tx, 2, C2, 1);
        client_party!(rig, fabric, reports_tx, 3, C3, 2);
        server_party!(rig, fabric, reports_tx, 4, S1);
        server_party!(rig, fabric, reports_tx, 5, S2);
        server_party!(rig, fabric, reports_tx, 6, S3);
        debug_assert_eq!(Census::LENGTH, PARTIES);
        rig.draw([1, 2, 3]).expect("setup draw completes");
        rig
    }

    /// One draw over a fresh session id, checked: every party finished,
    /// the analyst's payout is one of the secrets, and exactly 30
    /// messages were sent.
    fn draw(&mut self, secrets: [u64; 3]) -> Result<(), Failure> {
        let id = self.next_id;
        self.next_id += 1;
        let before = self.msgs.msgs.load(Ordering::Relaxed);
        let span = trace::span(Name::Op, id);
        let cause = span.as_ref().map(trace::Guard::index);
        for command in &self.commands {
            command.send(Some((id, secrets, cause))).map_err(|_| Failure::Error)?;
        }
        let mut payout = None;
        let mut failed = false;
        for _ in 0..PARTIES {
            match self.reports.recv_timeout(STALL) {
                Ok((_, Ok(Some(result)))) => payout = Some(result),
                Ok((_, Ok(None))) => {}
                Ok((_, Err(_))) => failed = true,
                Err(_) => return Err(Failure::Wrong(format!("draw {id} stalled"))),
            }
        }
        if failed {
            return Err(Failure::Error);
        }
        let sent = self.msgs.msgs.load(Ordering::Relaxed) - before;
        if sent != MSGS_PER_DRAW {
            return Err(Failure::Wrong(format!("draw {id} sent {sent} messages, not 30")));
        }
        match payout {
            Some(Ok(value)) if secrets.contains(&value) => Ok(()),
            other => Err(Failure::Wrong(format!(
                "draw {id}: payout {other:?} is not one of the secrets {secrets:?}"
            ))),
        }
    }
}

impl<const ON: bool> Drop for Rig<ON> {
    fn drop(&mut self) {
        for command in &self.commands {
            let _ = command.send(None);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[derive(Debug)]
enum Failure {
    /// A party's session failed with an error.
    Error,
    /// The draw completed with a wrong outcome.
    Wrong(String),
}

fn drive<const ON: bool>(rig: &mut Rig<ON>, plan: &LotteryPlan, n: &mut u64, meter: &mut Meter) {
    loop {
        let secrets = plan.draw(*n);
        *n += 1;
        let issued = Instant::now();
        let result = rig.draw(secrets);
        let now = Instant::now();
        match result {
            // Application bytes: three 8-byte secrets in, one payout out.
            Ok(()) => meter.ok(issued, now, 32),
            Err(Failure::Error) => meter.fail(),
            Err(Failure::Wrong(what)) => meter.wrong(what),
        }
        if meter.done(now) {
            return;
        }
    }
}

pub fn phase<const ON: bool>(plan: &LotteryPlan, seconds: f64, setup_batches: usize) -> Phase {
    let (setup_times, (mut rig, mut n), warm) = repeat_setup(setup_batches, WARMUP_OPS, |warm| {
        let mut rig = Rig::<ON>::build();
        let mut n = 0u64;
        drive(&mut rig, plan, &mut n, warm);
        (rig, n)
    });

    let msgs0 = rig.msgs.msgs.load(Ordering::Relaxed);
    let bytes0 = rig.msgs.bytes.load(Ordering::Relaxed);
    let meter = measure(seconds, RSS_AT_OPS, &warm, |meter| drive(&mut rig, plan, &mut n, meter));
    let ops = meter.attempted.max(1) as f64;
    let msgs = rig.msgs.msgs.load(Ordering::Relaxed) - msgs0;
    let bytes = rig.msgs.bytes.load(Ordering::Relaxed) - bytes0;

    let mut phase = Phase::new(setup_times, meter);
    phase.notes.push(("parties", PARTIES.to_string()));
    phase.layers.push(("session.msgs_per_op", msgs as f64 / ops));
    phase.layers.push(("session.bytes_per_op", bytes as f64 / ops));
    if ON {
        let send_ns = trace::mean_of(rig.stats.iter().map(|s| &s.send));
        let recv_ns = trace::mean_of(rig.stats.iter().map(|s| &s.recv_block));
        let deliver = rig.deliver.as_ref().expect("traced rigs time delivery");
        phase.layers.extend([
            ("session.deliver_p50_us", deliver.histo.quantile(0.5) / 1e3),
            ("session.deliver_p99_us", deliver.histo.quantile(0.99) / 1e3),
            ("transport.send_ns", send_ns),
            ("transport.recv_block_us", recv_ns / 1e3),
        ]);
    }
    phase
}
