//! The four workloads: their op graphs, seeded input pools, cleartext
//! models and the reply oracle.

use crate::stack::{Stack, TENANT};
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::wire::{self, ResponseFrame};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// A named workload. Rates and latency limits are fixed here and recorded
/// in `BENCHMARK.json`; keep them identical across commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined `Add` of two client-encrypted ciphertexts (transport-bound).
    AddStream,
    /// `Mul → MulPlain → Add` (Mult-bound: Lift, NTT, tensor, Scale, relin).
    MulGraph,
    /// Hoisted run of 4 `Rotate`s, summed, folded by `SumSlots` and added
    /// back to the sum (key-switch-bound).
    RotateFold,
    /// In-process scalar `Mul`s the engine packs into slot batches.
    ScalarBatch,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload::AddStream,
    Workload::MulGraph,
    Workload::RotateFold,
    Workload::ScalarBatch,
];

/// Distinct inputs per run; requests cycle through them in seeded order.
pub const POOL: usize = 8;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AddStream => "add_stream",
            Workload::MulGraph => "mul_graph",
            Workload::RotateFold => "rotate_fold",
            Workload::ScalarBatch => "scalar_batch",
        }
    }

    /// Open-loop offered rate: requests (scalar requests) per second, about
    /// a third of the closed-loop capacity on a 2-vCPU host, where latency
    /// does not yet swing with the capacity the host's neighbours take.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::AddStream => 100.0,
            Workload::MulGraph => 30.0,
            Workload::RotateFold => 30.0,
            Workload::ScalarBatch => 10_000.0,
        }
    }

    /// Latency limit for `slo_attainment`, ms.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::AddStream => 40.0,
            Workload::MulGraph => 120.0,
            Workload::RotateFold => 120.0,
            Workload::ScalarBatch => 250.0,
        }
    }

    /// Whether requests travel over TCP (all but `scalar_batch`).
    pub fn is_tcp(self) -> bool {
        self != Workload::ScalarBatch
    }
}

/// One pooled request: the frame the client sends, the request it
/// encodes, the cleartext model of its result slots, and — once a reply
/// has been decrypted and matched against the model — that verified
/// result ciphertext.
pub struct Item {
    /// The request.
    pub req: EvalRequest,
    /// `wire::encode_request(&req)`.
    pub frame: Vec<u8>,
    /// Expected result slots.
    pub expect: Vec<u64>,
    /// A verified result; later replies equal to it need no decryption.
    pub reference: Option<Ciphertext>,
}

/// Uniform random slot values in `Z_t`.
pub fn random_slots(rng: &mut StdRng, t: u64, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..t)).collect()
}

/// Cleartext model of the Galois automorphism `x → x^g` on slots: apply it
/// to the encoded plaintext's coefficients, then decode.
pub fn rotate_model(enc: &BatchEncoder, slots: &[u64], g: u32, t: u64) -> Vec<u64> {
    let coeffs = enc.encode(slots).coeffs().to_vec();
    let n = coeffs.len();
    let mut out = vec![0u64; n];
    for (i, &c) in coeffs.iter().enumerate() {
        let j = (i * g as usize) % (2 * n);
        if j < n {
            out[j] = (out[j] + c) % t;
        } else {
            out[j - n] = (out[j - n] + t - c) % t;
        }
    }
    enc.decode(&Plaintext::new(out, t, n))
}

/// The four rotation exponents of a `rotate_fold` request: a seeded
/// choice of distinct exponents from the tenant's slot-sum key set.
pub fn rotation_exponents(keys: &GaloisKeySet, rng: &mut StdRng) -> Vec<u32> {
    let mut all: Vec<u32> = keys.keys().iter().map(|k| k.g as u32).collect();
    let mut picked = Vec::new();
    while picked.len() < 4 && !all.is_empty() {
        picked.push(all.swap_remove(rng.gen_range(0..all.len())));
    }
    picked
}

/// Builds the workload's pool of `size` distinct TCP requests (for
/// `scalar_batch`: the packed `Mul` a full batch becomes, which the peel
/// uses). Slots are uniform in `Z_t`, so every rotation and product is
/// checked on random data.
pub fn build_pool(w: Workload, stack: &Stack, rng: &mut StdRng, size: usize) -> Vec<Item> {
    let ctx = &stack.ctx;
    let (t, n) = (ctx.params().t, ctx.params().n);
    let enc = BatchEncoder::new(t, n).expect("batching parameters");
    let exps = rotation_exponents(stack.galois(), rng);
    (0..size)
        .map(|_| {
            let a = random_slots(rng, t, n);
            let b = random_slots(rng, t, n);
            let ct = |s: &[u64], rng: &mut StdRng| encrypt(ctx, stack.pk(), &enc.encode(s), rng);
            let (ca, cb) = (ct(&a, rng), ct(&b, rng));
            let zip = |f: &dyn Fn(u64, u64) -> u64, x: &[u64], y: &[u64]| -> Vec<u64> {
                x.iter().zip(y).map(|(&x, &y)| f(x, y)).collect()
            };
            let mulmod = |x: u64, y: u64| (x as u128 * y as u128 % t as u128) as u64;
            let addmod = |x: u64, y: u64| (x + y) % t;
            let (req, expect) = match w {
                Workload::AddStream => (
                    EvalRequest::binary(TENANT, EvalOp::Add, ca, cb),
                    zip(&addmod, &a, &b),
                ),
                Workload::ScalarBatch => (
                    EvalRequest::binary(TENANT, EvalOp::Mul, ca, cb),
                    zip(&mulmod, &a, &b),
                ),
                Workload::MulGraph => {
                    let p = random_slots(rng, t, n);
                    let abp = zip(&mulmod, &zip(&mulmod, &a, &b), &p);
                    let req = EvalRequest {
                        tenant: TENANT,
                        inputs: vec![ca, cb],
                        plaintexts: vec![enc.encode(&p)],
                        ops: vec![
                            EvalOp::Mul(ValRef::Input(0), ValRef::Input(1)),
                            EvalOp::MulPlain(ValRef::Op(0), 0),
                            EvalOp::Add(ValRef::Op(1), ValRef::Input(0)),
                        ],
                        deadline_us: None,
                        trace_id: None,
                    };
                    (req, zip(&addmod, &abp, &a))
                }
                Workload::RotateFold => {
                    // Every rotation feeds the result, and the final Add
                    // keeps the rotated slots in it: `SumSlots` alone is
                    // invariant under slot permutations and would pass a
                    // wrong rotation.
                    let mut ops: Vec<EvalOp> = exps
                        .iter()
                        .map(|&g| EvalOp::Rotate(ValRef::Input(0), g))
                        .collect();
                    ops.extend([
                        EvalOp::Add(ValRef::Op(0), ValRef::Op(1)),
                        EvalOp::Add(ValRef::Op(2), ValRef::Op(3)),
                        EvalOp::Add(ValRef::Op(4), ValRef::Op(5)),
                        EvalOp::SumSlots(ValRef::Op(6)),
                        EvalOp::Add(ValRef::Op(7), ValRef::Op(6)),
                    ]);
                    let folded = exps
                        .iter()
                        .map(|&g| rotate_model(&enc, &a, g, t))
                        .reduce(|x, y| zip(&addmod, &x, &y))
                        .expect("four exponents");
                    let total = folded.iter().fold(0, |s, &v| (s + v) % t);
                    let req = EvalRequest {
                        tenant: TENANT,
                        inputs: vec![ca],
                        plaintexts: Vec::new(),
                        ops,
                        deadline_us: None,
                        trace_id: None,
                    };
                    (req, folded.iter().map(|&v| (v + total) % t).collect())
                }
            };
            Item {
                frame: wire::encode_request(&req),
                req,
                expect,
                reference: None,
            }
        })
        .collect()
}

/// How one reply checked out.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Correct result.
    Ok,
    /// A typed refusal or execution error.
    Refused(ErrorCode),
    /// A result that is undecodable or decrypts to the wrong slots.
    Wrong(String),
}

/// Checks replies against the cleartext model with the tenant's secret key.
#[derive(Clone)]
pub struct Oracle {
    ctx: Arc<FvContext>,
    sk: Arc<SecretKey>,
    enc: Arc<BatchEncoder>,
}

impl Oracle {
    /// An oracle for `stack`'s tenant.
    pub fn new(stack: &Stack) -> Self {
        let p = stack.ctx.params();
        Oracle {
            ctx: Arc::clone(&stack.ctx),
            sk: Arc::new(stack.sk.clone()),
            enc: Arc::new(BatchEncoder::new(p.t, p.n).expect("batching parameters")),
        }
    }

    /// Decrypts and decodes a result's slots.
    pub fn slots(&self, ct: &Ciphertext) -> Vec<u64> {
        self.enc.decode(&decrypt(&self.ctx, &self.sk, ct))
    }

    /// Checks a reply frame for `item`. A result equal to the item's
    /// verified reference is correct without decryption; anything else is
    /// decrypted and compared slot for slot with the model.
    pub fn check(&self, item: &Item, reply: &[u8]) -> (Verdict, Option<Ciphertext>) {
        match wire::decode_response(&self.ctx, reply) {
            Err(e) => (Verdict::Wrong(format!("undecodable reply: {e}")), None),
            Ok(ResponseFrame::Err { code, .. }) => (Verdict::Refused(code), None),
            Ok(ResponseFrame::Ok(resp)) => {
                let verdict = self.check_result(item, &resp.result);
                (verdict, Some(resp.result))
            }
        }
    }

    /// Checks a result ciphertext for `item`: equal to the verified
    /// reference, or decrypting to the model's slots.
    pub fn check_result(&self, item: &Item, ct: &Ciphertext) -> Verdict {
        if item.reference.as_ref() == Some(ct) {
            return Verdict::Ok;
        }
        self.check_ct(ct, &item.expect)
    }

    /// Compares a ciphertext's decrypted slots with `expect`.
    pub fn check_ct(&self, ct: &Ciphertext, expect: &[u64]) -> Verdict {
        let got = self.slots(ct);
        match got.iter().zip(expect).position(|(g, e)| g != e) {
            None => Verdict::Ok,
            Some(i) => Verdict::Wrong(format!("slot {i}: got {} want {}", got[i], expect[i])),
        }
    }
}
