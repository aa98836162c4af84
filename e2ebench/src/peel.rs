//! The outside-in layer peel. For a seeded sample of the workload's
//! requests, each request is timed through every level's public entry
//! point in turn:
//!
//! 1. TCP `Client` send + receive (`net`);
//! 2. in-process `ShardRouter::dispatch_frame` (`router`);
//! 3. `wire::decode_request` → `ShardRouter::call` → `wire::encode_response`
//!    (`wire`, `engine`);
//! 4. the request's op graph as direct `eval` / `galois` calls.
//!
//! Layer self time is the difference between adjacent levels. The peel's
//! health check does not use those differences, which add up to the round
//! trip by construction: it compares the round trip with the sum of the
//! spans timed on their own — the client's send, the server's checks and
//! seal of the two envelopes, `dispatch_frame` and the client's check of
//! the reply — so a layer the peel misses shows as residual. The same
//! sample then times the `eval`, `galois`, `batch` and `math` kernels one
//! call at a time on the workload's own ciphertexts, whether or not the
//! workload's graph calls them.

use crate::drive::{self, Tally};
use crate::stack::Stack;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{random_slots, Item, Oracle, Verdict};
use hefv_core::crc32::crc32;
use hefv_core::eval::{self, lift_q_to_full, relinearize, scale_full_to_q, tensor};
use hefv_core::galois::{apply_galois_in, sum_slots_in};
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::wire;
use hefv_math::dispatch::kernels;
use hefv_net::{envelope, Client};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

/// What the peel measured.
pub struct Peeled {
    /// Per-layer metrics the peel derives, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Traced ÷ untraced serial round trip.
    pub trace_overhead_ratio: f64,
    /// Median over requests of |round trip − Σ spans timed on their own|
    /// ÷ round trip.
    pub residual_share: f64,
    /// The span dump.
    pub spans: String,
    /// Wrong results met while peeling.
    pub errors: Vec<String>,
}

fn val<'a>(inputs: &'a [Ciphertext], values: &'a [Ciphertext], r: ValRef) -> &'a Ciphertext {
    match r {
        ValRef::Input(i) => &inputs[i as usize],
        ValRef::Op(j) => &values[j as usize],
    }
}

/// Level 4: evaluates `req`'s op graph with direct library calls, one span
/// per call, through the same arena-backed entry points the engine's
/// workers use (a run of ≥ 2 rotations of one value is hoisted). Returns
/// the graph's result.
fn run_graph(
    tr: &mut Tracer,
    r: u64,
    parent: usize,
    stack: &Stack,
    req: &EvalRequest,
    arena: &Arena,
) -> Ciphertext {
    let ctx = &*stack.ctx;
    let p = Some(parent);
    let key = |g: u32| {
        stack
            .galois()
            .key_for(g as usize)
            .expect("exponent from the key set")
    };
    let mut values: Vec<Ciphertext> = Vec::with_capacity(req.ops.len());
    let mut at = 0;
    while at < req.ops.len() {
        if let EvalOp::Rotate(a, _) = req.ops[at] {
            let run = req.ops[at..]
                .iter()
                .take_while(|o| matches!(o, EvalOp::Rotate(b, _) if *b == a))
                .count();
            if run >= 2 {
                let (h, _) = tr.time(r, p, "galois.hoist", || {
                    HoistedCiphertext::new_in(ctx, val(&req.inputs, &values, a), arena)
                });
                for o in &req.ops[at..at + run] {
                    let EvalOp::Rotate(_, g) = *o else {
                        unreachable!("run holds rotations")
                    };
                    let (out, _) = tr.time(r, p, "galois.rotate_hoisted", || {
                        h.rotate_in(ctx, key(g), arena)
                    });
                    values.push(out);
                }
                h.recycle(arena);
                at += run;
                continue;
            }
        }
        let v = |x| val(&req.inputs, &values, x);
        let (out, _) = match req.ops[at] {
            EvalOp::Add(a, b) => tr.time(r, p, "eval.add", || eval::add(ctx, v(a), v(b))),
            EvalOp::Sub(a, b) => tr.time(r, p, "eval.sub", || eval::sub(ctx, v(a), v(b))),
            EvalOp::Neg(a) => tr.time(r, p, "eval.neg", || eval::neg(ctx, v(a))),
            EvalOp::Mul(a, b) => tr.time(r, p, "eval.mul", || {
                eval::mul_in(ctx, v(a), v(b), stack.rlk(), Backend::default(), arena)
            }),
            EvalOp::MulPlain(a, i) => tr.time(r, p, "eval.mul_plain", || {
                let operand = PlainOperand::new(ctx, &req.plaintexts[i as usize]);
                eval::mul_plain_operand_in(ctx, v(a), &operand, arena)
            }),
            EvalOp::Rotate(a, g) => tr.time(r, p, "galois.rotate", || {
                apply_galois_in(ctx, v(a), key(g), arena)
            }),
            EvalOp::SumSlots(a) => tr.time(r, p, "galois.sum_slots", || {
                sum_slots_in(ctx, v(a), stack.galois(), arena)
            }),
        };
        values.push(out);
        at += 1;
    }
    let result = values.pop().expect("request has ops");
    for v in values {
        arena.recycle_ciphertext(v);
    }
    result
}

/// Times the kernels of every layer once on `a`, `b` under `parent`;
/// returns the tensor residual (µs): `eval::tensor` minus its 4 lifts,
/// 4 forward NTTs, 3 inverse NTTs and 3 scales.
fn kernel_breakdown(
    tr: &mut Tracer,
    r: u64,
    parent: usize,
    stack: &Stack,
    a: &Ciphertext,
    b: &Ciphertext,
    rng: &mut StdRng,
) -> f64 {
    let ctx = &*stack.ctx;
    let p = Some(parent);
    let backend = Backend::default();
    let (t, n) = (ctx.params().t, ctx.params().n);
    let enc = BatchEncoder::new(t, n).expect("batching parameters");

    let (tres, tensor_id) = tr.time(r, p, "eval.tensor", || tensor(ctx, a, b, backend));
    tr.time(r, p, "eval.relin", || relinearize(ctx, &tres, stack.rlk()));
    tr.time(r, p, "eval.mul", || {
        eval::mul(ctx, a, b, stack.rlk(), backend)
    });
    let mut parts = 0.0;
    let mut lifted = Vec::new();
    for poly in [a.c0(), a.c1(), b.c0(), b.c1()] {
        let (l, id) = tr.time(r, p, "eval.lift", || lift_q_to_full(ctx, poly, backend));
        parts += tr.dur_us(id);
        lifted.push(l);
    }
    for l in &mut lifted {
        let (_, id) = tr.time(r, p, "eval.ntt_forward_full", || {
            l.ntt_forward(ctx.ntt_full())
        });
        parts += tr.dur_us(id);
    }
    for l in lifted.iter_mut().take(3) {
        let (_, id) = tr.time(r, p, "eval.ntt_inverse_full", || {
            l.ntt_inverse(ctx.ntt_full())
        });
        parts += tr.dur_us(id);
    }
    for l in lifted.iter().take(3) {
        let (_, id) = tr.time(r, p, "eval.scale", || scale_full_to_q(ctx, l, backend));
        parts += tr.dur_us(id);
    }
    let residual = tr.dur_us(tensor_id) - parts;

    let plain = enc.encode(&random_slots(rng, t, n));
    tr.time(r, p, "eval.mul_plain", || eval::mul_plain(ctx, a, &plain));
    tr.time(r, p, "eval.add", || eval::add(ctx, a, b));

    let (h, _) = tr.time(r, p, "galois.hoist", || HoistedCiphertext::new(ctx, a));
    for key in stack.galois().keys().iter().take(4) {
        tr.time(r, p, "galois.rotate_hoisted", || h.rotate(ctx, key));
    }
    tr.time(r, p, "galois.sum_slots", || {
        sum_slots(ctx, a, stack.galois())
    });

    let slots = random_slots(rng, t, n);
    let (pt, _) = tr.time(r, p, "batch.encode", || enc.encode(&slots));
    tr.time(r, p, "batch.encrypt", || encrypt(ctx, stack.pk(), &pt, rng));
    tr.time(r, p, "batch.decode", || enc.decode(&pt));
    residual
}

/// One limb of each `math` kernel on the active lane, `reps` times.
fn math_probe(tr: &mut Tracer, stack: &Stack, limb: &[u64], reps: usize) {
    let table = &stack.ctx.ntt_q()[0];
    let k = kernels();
    let mut x = limb.to_vec();
    let y: Vec<u64> = limb.iter().rev().copied().collect();
    let mut dst = vec![0u64; limb.len()];
    let root = tr.open(u64::MAX, None, "math.probe");
    for _ in 0..reps {
        tr.time(u64::MAX, Some(root), "math.ntt_forward", || {
            k.ntt_forward(table, &mut x)
        });
        tr.time(u64::MAX, Some(root), "math.ntt_inverse", || {
            k.ntt_inverse(table, &mut x)
        });
        tr.time(u64::MAX, Some(root), "math.pointwise_mul", || {
            k.pointwise_mul(table.modulus(), &x, &y, &mut dst)
        });
    }
    tr.close(root);
}

/// Per-request level timings, µs.
#[derive(Default)]
struct Levels {
    rtt: Vec<f64>,
    tax: Vec<f64>,
    tax_share: Vec<f64>,
    engine_overhead: Vec<f64>,
    cost_ratio: Vec<f64>,
    peel_residual: Vec<f64>,
    tensor_residual: Vec<f64>,
    bytes_in: Vec<f64>,
    bytes_out: Vec<f64>,
}

/// Peels `samples` seeded requests from `items`.
///
/// # Errors
///
/// Transport failures.
pub fn peel(
    stack: &Stack,
    items: &[Item],
    oracle: &Oracle,
    rng: &mut StdRng,
    samples: usize,
    tally: &mut Tally,
) -> Result<Peeled, String> {
    let ctx = &*stack.ctx;
    let picks: Vec<usize> = (0..samples.max(1))
        .map(|_| rng.gen_range(0..items.len()))
        .collect();
    let mut errors = Vec::new();
    let mut client = Client::from_stream(drive::connect(stack.addr())?);
    let check = |verdict: Verdict, what: &str, tally: &mut Tally, errors: &mut Vec<String>| {
        if let Verdict::Wrong(why) = &verdict {
            errors.push(format!("{what}: {why}"));
        }
        tally.record_job(verdict);
    };

    // Untraced serial round trips of the same frames: the baseline for
    // the trace overhead. Replies are checked after the clock stops.
    let t0 = Instant::now();
    let mut replies = Vec::with_capacity(picks.len());
    for &i in &picks {
        replies.push(client.call(&items[i].frame).map_err(|e| e.to_string())?);
    }
    let untraced_us = t0.elapsed().as_secs_f64() * 1e6 / picks.len() as f64;
    for (&i, reply) in picks.iter().zip(&replies) {
        tally.attempted += 1;
        tally.frames_sent += 1;
        tally.replies += 1;
        check(
            oracle.check(&items[i], reply).0,
            "untraced reply",
            tally,
            &mut errors,
        );
    }
    drop(replies);

    let mut tr = Tracer::default();
    let mut lv = Levels::default();
    let arena = Arena::new();
    for (r, &i) in picks.iter().enumerate() {
        let item = &items[i];
        let r = r as u64;
        let root = tr.open(r, None, "request");
        // Level 1: the TCP round trip.
        let l1 = tr.open(r, Some(root), "net.call");
        let (corr, send) = tr.time(r, Some(l1), "net.send_frame", || {
            client.send_frame(&item.frame)
        });
        let corr = corr.map_err(|e| e.to_string())?;
        let (reply, _) = tr.time(r, Some(l1), "net.recv_reply", || {
            client.recv_reply_for(corr)
        });
        let reply = reply.map_err(|e| e.to_string())?;
        tr.close(l1);
        tally.attempted += 1;
        tally.frames_sent += 1;
        tally.replies += 1;
        let _ = tr.time(r, Some(root), "wire.decode_response", || {
            wire::decode_response(ctx, &reply)
        });
        check(
            oracle.check(item, &reply).0,
            "net reply",
            tally,
            &mut errors,
        );
        // What the server and client do to the two envelopes besides the
        // socket I/O: check the request's CRC, seal the reply, check it.
        let body = |env: &[u8]| env[envelope::LEN_BYTES..env.len() - envelope::CRC_BYTES].to_vec();
        let sent = body(&envelope::encode_checked(corr, &item.frame));
        let (_, verify_req) = tr.time(r, Some(root), "net.server_verify", || crc32(&sent));
        let (sealed, seal) = tr.time(r, Some(root), "net.server_seal", || {
            envelope::encode_checked(corr, &reply)
        });
        let sealed = body(&sealed);
        let (_, verify_reply) = tr.time(r, Some(root), "net.client_verify", || crc32(&sealed));
        // Level 2: the router's frame entry point, in process.
        let (reply2, l2) = tr.time(r, Some(root), "router.dispatch_frame", || {
            stack.router.dispatch_frame(&item.frame)
        });
        tally.attempted += 1;
        check(
            oracle.check(item, &reply2).0,
            "dispatch_frame reply",
            tally,
            &mut errors,
        );
        // Level 3: decode → call → encode.
        let (req, _) = tr.time(r, Some(root), "wire.decode_request", || {
            wire::decode_request(ctx, &item.frame)
        });
        let req = req.map_err(|e| e.to_string())?;
        let for_call = req.clone();
        let (resp, call_id) = tr.time(r, Some(root), "engine.call", || stack.router.call(for_call));
        tally.attempted += 1;
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => {
                check(
                    Verdict::Refused(e.code()),
                    "engine call",
                    tally,
                    &mut errors,
                );
                tr.close(root);
                continue;
            }
        };
        check(
            oracle.check_result(item, &resp.result),
            "engine call",
            tally,
            &mut errors,
        );
        let est = resp.report.est_cost_us;
        let outcome = Ok(resp);
        tr.time(r, Some(root), "wire.encode_response", || {
            wire::encode_response(&outcome)
        });
        tr.time(r, Some(root), "wire.encode_request", || {
            wire::encode_request(&req)
        });
        // Level 4: the graph as direct library calls.
        let l4 = tr.open(r, Some(root), "graph");
        let result = run_graph(&mut tr, r, l4, stack, &req, &arena);
        tr.close(l4);
        if let Verdict::Wrong(why) = oracle.check_result(item, &result) {
            errors.push(format!("direct graph: {why}"));
        }
        // Kernels one call at a time, on this request's ciphertexts.
        let kb = tr.open(r, Some(root), "kernels");
        let a = &req.inputs[0];
        let b = req.inputs.get(1).unwrap_or(a);
        lv.tensor_residual
            .push(kernel_breakdown(&mut tr, r, kb, stack, a, b, rng));
        tr.close(kb);
        tr.close(root);

        let (rtt, d2, call_us) = (tr.dur_us(l1), tr.dur_us(l2), tr.dur_us(call_id));
        let own: f64 = [send, verify_req, l2, seal, verify_reply]
            .into_iter()
            .map(|id| tr.dur_us(id))
            .sum();
        lv.rtt.push(rtt);
        lv.tax.push(rtt - d2);
        lv.tax_share.push((rtt - d2) / rtt);
        lv.peel_residual.push((rtt - own).abs() / rtt);
        lv.engine_overhead.push(call_us - tr.dur_us(l4));
        lv.cost_ratio.push(call_us / est);
        lv.bytes_in.push(item.frame.len() as f64);
        lv.bytes_out.push(reply.len() as f64);
    }
    let limb = items[picks[0]].req.inputs[0].c0().row(0).to_vec();
    math_probe(&mut tr, stack, &limb, 64);

    // Kernel metrics come from the one-call-at-a-time breakdown, the same
    // calls on every workload; the request-level spans feed the layers.
    let med = |name: &str| median(&tr.durations_us(name, None));
    let kmed = |name: &str| median(&tr.durations_us(name, Some("kernels")));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let rtt = median(&lv.rtt);
    let metrics = vec![
        ("net.rtt_us", rtt),
        ("net.tax_us", median(&lv.tax)),
        ("net.tax_share", median(&lv.tax_share)),
        ("net.send_us", med("net.send_frame")),
        ("net.bytes_in_per_req", mean(&lv.bytes_in)),
        ("net.bytes_out_per_req", mean(&lv.bytes_out)),
        ("wire.encode_request_us", med("wire.encode_request")),
        ("wire.decode_request_us", med("wire.decode_request")),
        ("wire.encode_response_us", med("wire.encode_response")),
        ("wire.decode_response_us", med("wire.decode_response")),
        ("router.dispatch_frame_us", med("router.dispatch_frame")),
        ("engine.call_us", med("engine.call")),
        ("engine.overhead_us", median(&lv.engine_overhead)),
        ("engine.cost_model_error_ratio", median(&lv.cost_ratio)),
        ("batch.encode_us", kmed("batch.encode")),
        ("batch.encrypt_us", kmed("batch.encrypt")),
        ("batch.decode_us", kmed("batch.decode")),
        ("eval.mul_us", kmed("eval.mul")),
        ("eval.tensor_us", kmed("eval.tensor")),
        ("eval.lift_us", kmed("eval.lift")),
        ("eval.scale_us", kmed("eval.scale")),
        ("eval.relin_us", kmed("eval.relin")),
        ("eval.tensor_residual_us", median(&lv.tensor_residual)),
        ("eval.ntt_forward_full_us", kmed("eval.ntt_forward_full")),
        ("eval.ntt_inverse_full_us", kmed("eval.ntt_inverse_full")),
        ("eval.mul_plain_us", kmed("eval.mul_plain")),
        ("eval.add_us", kmed("eval.add")),
        ("galois.hoist_us", kmed("galois.hoist")),
        ("galois.rotate_hoisted_us", kmed("galois.rotate_hoisted")),
        ("galois.sum_slots_us", kmed("galois.sum_slots")),
        ("math.ntt_forward_us", med("math.ntt_forward")),
        ("math.ntt_inverse_us", med("math.ntt_inverse")),
        ("math.pointwise_mul_us", med("math.pointwise_mul")),
        ("math.limb_bytes", (limb.len() * 8) as f64),
    ];
    Ok(Peeled {
        metrics,
        trace_overhead_ratio: mean(&lv.rtt) / untraced_us,
        residual_share: median(&lv.peel_residual),
        spans: tr.dump(),
        errors,
    })
}
