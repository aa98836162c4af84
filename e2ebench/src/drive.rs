//! Load drivers: closed- and open-loop phases over TCP, and the same two
//! phases for in-process scalar batching. Every reply is matched once by
//! correlation id (or ticket) and checked by the [`Oracle`].

use crate::stats::DueRecord;
use crate::workload::{Item, Oracle, Verdict};
use hefv_engine::prelude::*;
use hefv_net::Client;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How long a client waits for any one reply before declaring the rest
/// of its phase missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The benchmark's own account of a run, compared against the server's
/// and engine's counters at the end.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests issued (scalar requests on `scalar_batch`).
    pub attempted: u64,
    /// Requests answered with a correct result.
    pub ok: u64,
    /// Typed refusals and execution errors, by `ErrorCode` name.
    pub refused: BTreeMap<&'static str, u64>,
    /// Wrong, undecodable, duplicated or unexpected replies.
    pub wrong: u64,
    /// Requests that never got a reply.
    pub missing: u64,
    /// Frames written to the server.
    pub frames_sent: u64,
    /// Reply frames read back.
    pub replies: u64,
    /// Engine jobs that completed (one per answered TCP request; one per
    /// scalar batch), correct or not.
    pub jobs_ok: u64,
    /// Scalar batches observed and their summed sizes.
    pub batches: u64,
    /// Scalar requests inside those batches.
    pub batched: u64,
    /// The first wrong reply, for the error message.
    pub first_wrong: Option<String>,
}

impl Tally {
    /// Requests that did not end in a correct result.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Refusals of every class.
    pub fn refused_total(&self) -> u64 {
        self.refused.values().sum()
    }

    pub(crate) fn record(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Ok => self.ok += 1,
            Verdict::Refused(code) => *self.refused.entry(code.name()).or_default() += 1,
            Verdict::Wrong(why) => self.wrong(why),
        }
    }

    /// Records the verdict on a reply matched to its request: anything
    /// but a refusal is a job the engine completed.
    pub(crate) fn record_job(&mut self, verdict: Verdict) {
        if !matches!(verdict, Verdict::Refused(_)) {
            self.jobs_ok += 1;
        }
        self.record(verdict);
    }

    pub(crate) fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.first_wrong.get_or_insert(why);
    }
}

pub(crate) fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Sends each item once, serially, and makes every correct result the
/// item's reference. Off the timed path: this is where results are
/// decrypted against the model before any timing starts.
///
/// # Errors
///
/// Transport failures.
pub fn verify_serially(
    addr: SocketAddr,
    items: &mut [Item],
    oracle: &Oracle,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut client = Client::from_stream(connect(addr)?);
    for item in items.iter_mut() {
        tally.attempted += 1;
        tally.frames_sent += 1;
        let reply = client
            .call(&item.frame)
            .map_err(|e| format!("serial call: {e}"))?;
        tally.replies += 1;
        let (verdict, result) = oracle.check(item, &reply);
        if verdict == Verdict::Ok {
            item.reference = result;
        }
        tally.record_job(verdict);
    }
    Ok(())
}

/// Closed loop over one connection: keeps `inflight` requests
/// outstanding, sending the next (seeded choice from `items`) as each
/// reply arrives, until `duration` has passed; then drains. Returns the
/// arrival offset of every correct reply.
///
/// # Errors
///
/// Connection failures (reply losses are counted, not errors).
pub fn tcp_closed(
    addr: SocketAddr,
    items: &[Item],
    oracle: &Oracle,
    rng: &mut StdRng,
    inflight: usize,
    duration: Duration,
    tally: &mut Tally,
) -> Result<Vec<(Duration, u64)>, String> {
    let mut client = Client::from_stream(connect(addr)?);
    let mut pending: HashMap<u64, usize> = HashMap::new();
    let start = Instant::now();
    let mut send = |client: &mut Client,
                    pending: &mut HashMap<u64, usize>,
                    tally: &mut Tally|
     -> Result<(), String> {
        let i = rng.gen_range(0..items.len());
        let corr = client
            .send_frame(&items[i].frame)
            .map_err(|e| format!("send: {e}"))?;
        pending.insert(corr, i);
        tally.attempted += 1;
        tally.frames_sent += 1;
        Ok(())
    };
    for _ in 0..inflight {
        send(&mut client, &mut pending, tally)?;
    }
    let mut ok_at = Vec::new();
    while !pending.is_empty() {
        let (corr, reply) = match client.recv_reply() {
            Ok(r) => r,
            Err(_) => {
                tally.missing += pending.len() as u64;
                break;
            }
        };
        let at = start.elapsed();
        tally.replies += 1;
        let Some(i) = pending.remove(&corr) else {
            tally.wrong(format!("reply for unknown or repeated corr {corr}"));
            continue;
        };
        if at < duration {
            send(&mut client, &mut pending, tally)?;
        }
        let verdict = oracle.check(&items[i], &reply).0;
        if verdict == Verdict::Ok {
            ok_at.push((at, 1));
        }
        tally.record_job(verdict);
    }
    Ok(ok_at)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// Open loop over one connection: the calling thread sends each request
/// at its due time regardless of replies while a reader thread takes
/// replies in completion order, timestamps and checks them. Latency runs
/// from the due time.
///
/// # Errors
///
/// Connection failures.
pub fn tcp_open(
    addr: SocketAddr,
    items: &[Item],
    oracle: &Oracle,
    sched: &[(Duration, usize)],
    tally: &mut Tally,
) -> Result<DueRecord, String> {
    let stream = connect(addr)?;
    let mut tx = Client::from_stream(stream.try_clone().map_err(|e| e.to_string())?);
    let mut rx = Client::from_stream(stream);
    let mut rec = DueRecord::new(sched.iter().map(|&(d, _)| d).collect());
    let start = Instant::now() + Duration::from_millis(5);
    let received = thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut got = Vec::with_capacity(sched.len());
            while got.len() < sched.len() {
                let Ok((corr, reply)) = rx.recv_reply() else {
                    break;
                };
                let at = start.elapsed();
                let verdict = match sched.get(corr as usize) {
                    Some(&(_, i)) => oracle.check(&items[i], &reply).0,
                    None => Verdict::Wrong(format!("reply for unknown corr {corr}")),
                };
                got.push((corr as usize, at, verdict));
            }
            got
        });
        for (k, &(due, i)) in sched.iter().enumerate() {
            sleep_until(start + due);
            rec.sent[k] = Some(start.elapsed());
            if tx.send_frame(&items[i].frame).is_err() {
                rec.sent[k] = None;
                break;
            }
        }
        reader.join().expect("reader thread")
    });
    tally.attempted += sched.len() as u64;
    tally.frames_sent += rec.sent.iter().filter(|s| s.is_some()).count() as u64;
    tally.replies += received.len() as u64;
    let mut seen = HashSet::new();
    for (k, at, verdict) in received {
        if k < sched.len() && !seen.insert(k) {
            tally.wrong(format!("repeated reply for corr {k}"));
            continue;
        }
        if verdict == Verdict::Ok {
            rec.done[k] = Some(at);
        }
        tally.record_job(verdict);
    }
    tally.missing += (sched.len() - seen.len()) as u64;
    Ok(rec)
}

/// A submitted scalar request awaiting its batch.
struct Pending {
    k: usize,
    ticket: ScalarTicket,
    expect: u64,
}

/// One packed batch as its members saw it.
struct Batch {
    packed: hefv_core::prelude::Ciphertext,
    size: usize,
    /// `(request index, slot, expected value, completion offset)`.
    members: Vec<(usize, usize, u64, Duration)>,
}

/// Waits every ticket in submission order, timestamping completions and
/// keeping one packed ciphertext per batch for the post-phase check.
fn scalar_consumer(
    rx: mpsc::Receiver<Pending>,
    start: Instant,
) -> (HashMap<u64, Batch>, Vec<ErrorCode>) {
    let mut batches: HashMap<u64, Batch> = HashMap::new();
    let mut refused = Vec::new();
    for p in rx {
        match p.ticket.wait() {
            Ok(res) => {
                let at = start.elapsed();
                batches
                    .entry(res.job_id)
                    .or_insert_with(|| Batch {
                        packed: res.packed,
                        size: res.batch_size,
                        members: Vec::new(),
                    })
                    .members
                    .push((p.k, res.slot, p.expect, at));
            }
            Err(e) => refused.push(e.code()),
        }
    }
    (batches, refused)
}

/// What a scalar phase measured, after the off-path check.
#[derive(Debug, Default)]
pub struct ScalarPhase {
    /// `(request index, completion offset)` of every correct request.
    pub ok: Vec<(usize, Duration)>,
    /// Batch sizes, one per batch.
    pub sizes: Vec<usize>,
    /// Per batch: when its first member completed, and its correct members.
    pub completions: Vec<(Duration, u64)>,
    /// Submission offset of every request, in order.
    pub sent_at: Vec<Duration>,
}

/// Decrypts each packed batch once and checks every member's slot.
fn scalar_verify(
    batches: HashMap<u64, Batch>,
    refused: Vec<ErrorCode>,
    oracle: &Oracle,
    tally: &mut Tally,
) -> ScalarPhase {
    let mut phase = ScalarPhase::default();
    for code in refused {
        tally.record(Verdict::Refused(code));
    }
    for (job, b) in batches {
        tally.jobs_ok += 1;
        tally.batches += 1;
        tally.batched += b.members.len() as u64;
        phase.sizes.push(b.size);
        let slots = oracle.slots(&b.packed);
        let mut used = HashSet::new();
        let mut ok = 0;
        for &(k, slot, want, at) in &b.members {
            if used.insert(slot) && slots.get(slot) == Some(&want) {
                phase.ok.push((k, at));
                tally.record(Verdict::Ok);
                ok += 1;
            } else {
                tally.wrong(format!(
                    "batch {job} slot {slot}: got {:?} want {want}",
                    slots.get(slot)
                ));
            }
        }
        let first = b.members.iter().map(|m| m.3).min().unwrap_or_default();
        phase.completions.push((first, ok));
    }
    phase
}

/// Submits scalar `Mul`s: `due` gives each request's offset from the
/// phase start (`None`: submit as fast as the window allows, until
/// `duration`). At most `window` tickets wait unconsumed.
#[allow(clippy::too_many_arguments)]
fn scalar_phase(
    router: &ShardRouter,
    tenant: TenantId,
    t: u64,
    oracle: &Oracle,
    rng: &mut StdRng,
    window: usize,
    due: Option<&[Duration]>,
    duration: Duration,
    tally: &mut Tally,
) -> ScalarPhase {
    let (tx, rx) = mpsc::sync_channel::<Pending>(window);
    let start = Instant::now();
    let mut sent_at = Vec::new();
    let mut submit_refusals = 0usize;
    let (batches, refused) = thread::scope(|s| {
        let consumer = s.spawn(move || scalar_consumer(rx, start));
        loop {
            match due {
                Some(d) if sent_at.len() == d.len() => break,
                Some(d) => sleep_until(start + d[sent_at.len()]),
                None if start.elapsed() >= duration => break,
                None => {}
            }
            let (lhs, rhs) = (rng.gen_range(0..t), rng.gen_range(0..t));
            let expect = (lhs as u128 * rhs as u128 % t as u128) as u64;
            let req = ScalarRequest {
                tenant,
                op: ScalarOp::Mul,
                lhs,
                rhs,
            };
            let k = sent_at.len();
            sent_at.push(start.elapsed());
            match router.submit_scalar(req) {
                Ok(ticket) => tx
                    .send(Pending { k, ticket, expect })
                    .expect("consumer alive"),
                Err(e) => {
                    submit_refusals += 1;
                    tally.record(Verdict::Refused(e.code()));
                }
            }
        }
        drop(tx);
        router.flush_batches();
        consumer.join().expect("consumer thread")
    });
    let answered =
        submit_refusals + refused.len() + batches.values().map(|b| b.members.len()).sum::<usize>();
    tally.attempted += sent_at.len() as u64;
    tally.missing += (sent_at.len() - answered) as u64;
    let mut phase = scalar_verify(batches, refused, oracle, tally);
    phase.sent_at = sent_at;
    phase
}

/// Closed scalar loop: keeps `window` scalar requests outstanding (enough
/// for full batches) until `duration` passes, then flushes and drains.
#[allow(clippy::too_many_arguments)]
pub fn scalar_closed(
    router: &ShardRouter,
    tenant: TenantId,
    t: u64,
    oracle: &Oracle,
    rng: &mut StdRng,
    window: usize,
    duration: Duration,
    tally: &mut Tally,
) -> ScalarPhase {
    scalar_phase(
        router, tenant, t, oracle, rng, window, None, duration, tally,
    )
}

/// Open scalar loop: submits each request at its due offset; latency runs
/// from the due time to the ticket's completion.
pub fn scalar_open(
    router: &ShardRouter,
    tenant: TenantId,
    t: u64,
    oracle: &Oracle,
    rng: &mut StdRng,
    due: &[Duration],
    tally: &mut Tally,
) -> (DueRecord, ScalarPhase) {
    let phase = scalar_phase(
        router,
        tenant,
        t,
        oracle,
        rng,
        due.len() + 1,
        Some(due),
        Duration::ZERO,
        tally,
    );
    let mut rec = DueRecord::new(due.to_vec());
    for (s, &at) in rec.sent.iter_mut().zip(&phase.sent_at) {
        *s = Some(at);
    }
    for &(k, at) in &phase.ok {
        rec.done[k] = Some(at);
    }
    (rec, phase)
}
