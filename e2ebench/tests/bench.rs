//! The benchmark's own tests: the statistics it reports with, and each
//! workload driver end to end on the small `insecure_medium` set
//! (t = 7681, so slots batch), including an oracle that must trip on a
//! tampered reply.

use e2ebench::drive::{self, Tally};
use e2ebench::run::{arrivals, cross_check};
use e2ebench::stack::{Stack, TENANT};
use e2ebench::stats::{
    highest_supported_percentile, phase_rate, quantile, samples_beyond, DueRecord,
};
use e2ebench::workload::{self, Oracle, Verdict, Workload, ALL, POOL};
use e2ebench::{END_TO_END, PER_LAYER};
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::wire::{self, ResponseFrame};
use hefv_net::Client;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn medium() -> FvParams {
    FvParams {
        t: 7681,
        ..FvParams::insecure_medium()
    }
}

#[test]
fn percentile_helper_reports_highest_with_ten_beyond() {
    let cands = [50.0, 90.0, 95.0, 99.0, 99.9];
    assert_eq!(samples_beyond(200, 95.0), 10);
    assert_eq!(highest_supported_percentile(200, &cands), Some(95.0));
    assert_eq!(highest_supported_percentile(199, &cands), Some(90.0));
    assert_eq!(highest_supported_percentile(1000, &cands), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000, &cands), Some(99.9));
    assert_eq!(highest_supported_percentile(19, &cands), None);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.5), 50.0);
    assert_eq!(quantile(&v, 0.95), 95.0);
    assert_eq!(quantile(&v, 1.0), 100.0);
    assert!(quantile(&[], 0.5).is_nan());
}

#[test]
fn stalled_generator_inflates_due_time_latency() {
    // Requests due every 10 ms; the generator stalls 50 ms before request
    // 3 and then sends the backlog at once; each reply takes 1 ms.
    let ms = Duration::from_millis;
    let mut rec = DueRecord::new((0..10).map(|i| ms(10 * i)).collect());
    for i in 0..10u64 {
        let sent = if i < 3 {
            ms(10 * i)
        } else {
            ms(80).max(ms(10 * i))
        };
        rec.sent[i as usize] = Some(sent);
        rec.done[i as usize] = Some(sent + ms(1));
    }
    let lat = rec.latencies_ms();
    assert_eq!(lat.len(), 10);
    // Timed from the send, every request would read 1 ms; from the due
    // time, the stall shows on every request it delayed.
    assert!((lat[0] - 1.0).abs() < 1e-9);
    assert!((lat[3] - 51.0).abs() < 1e-9, "stall hidden: {lat:?}");
    assert!(lat[3..8].iter().all(|&l| l > 10.0));
    assert!((rec.gen_lag_ms()[3] - 50.0).abs() < 1e-9);
    assert!((rec.attainment(5.0) - 0.5).abs() < 1e-9);
    // A request that never completes counts as a miss, not as absent.
    rec.done[9] = None;
    assert!((rec.attainment(5.0) - 0.4).abs() < 1e-9);
}

#[test]
fn arrivals_are_seeded_and_counted() {
    let a = arrivals(&mut StdRng::seed_from_u64(5), 100.0, Duration::from_secs(2));
    let b = arrivals(&mut StdRng::seed_from_u64(5), 100.0, Duration::from_secs(2));
    assert_eq!(a, b);
    assert_eq!(a.len(), 200);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&d| d < Duration::from_secs(2)));
}

/// Re-encodes an OK reply with `ct` added to its result: a well-formed
/// reply carrying a wrong ciphertext.
fn tamper(ctx: &FvContext, reply: &[u8], pt: &Plaintext) -> Vec<u8> {
    let ResponseFrame::Ok(mut resp) = wire::decode_response(ctx, reply).expect("decodable") else {
        panic!("expected an OK reply");
    };
    resp.result = add(ctx, &resp.result, &trivial_encrypt(ctx, pt));
    wire::encode_response(&Ok(resp))
}

fn run_tcp_workload(w: Workload) {
    let stack = Stack::start(medium(), 3, 2).expect("stack");
    let mut rng = StdRng::seed_from_u64(9);
    let oracle = Oracle::new(&stack);
    let mut tally = Tally::default();
    let mut items = workload::build_pool(w, &stack, &mut rng, POOL);
    drive::verify_serially(stack.addr(), &mut items, &oracle, &mut tally).expect("serial");
    assert!(
        items.iter().all(|i| i.reference.is_some()),
        "{w:?}: model disagrees with the server"
    );
    drive::tcp_closed(
        stack.addr(),
        &items,
        &oracle,
        &mut rng,
        2,
        Duration::from_millis(200),
        &mut tally,
    )
    .expect("closed");
    let due = arrivals(&mut rng, 200.0, Duration::from_millis(200));
    let sched: Vec<_> = due
        .iter()
        .enumerate()
        .map(|(k, &d)| (d, k % items.len()))
        .collect();
    let rec = drive::tcp_open(stack.addr(), &items, &oracle, &sched, &mut tally).expect("open");
    assert_eq!(rec.latencies_ms().len(), sched.len());
    assert_eq!(
        (tally.wrong, tally.missing, tally.failed()),
        (0, 0, 0),
        "{w:?}: {tally:?}"
    );
    assert!(tally.ok > 0);
    assert_eq!(cross_check(&stack, &tally), Vec::<String>::new());

    // The oracle trips on a wrong result and on a corrupted frame.
    let mut client = Client::connect(stack.addr()).expect("connect");
    let reply = client.call(&items[0].frame).expect("call");
    assert_eq!(oracle.check(&items[0], &reply).0, Verdict::Ok);
    let (t, n) = (stack.ctx.params().t, stack.ctx.params().n);
    let one = BatchEncoder::new(t, n).unwrap().encode(&[1]);
    assert!(matches!(
        oracle.check(&items[0], &tamper(&stack.ctx, &reply, &one)).0,
        Verdict::Wrong(_)
    ));
    let mut cut = reply.clone();
    cut.truncate(reply.len() / 2);
    assert!(matches!(oracle.check(&items[0], &cut).0, Verdict::Wrong(_)));
    if w == Workload::RotateFold {
        // A hoisted rotation by the wrong exponent: a valid ciphertext
        // whose slots are permuted differently.
        let mut req = items[0].req.clone();
        let EvalOp::Rotate(_, g1) = req.ops[1] else {
            panic!("rotate_fold starts with its rotations")
        };
        req.ops[0] = EvalOp::Rotate(ValRef::Input(0), g1);
        let wrong = client.call(&wire::encode_request(&req)).expect("call");
        assert!(matches!(
            wire::decode_response(&stack.ctx, &wrong),
            Ok(ResponseFrame::Ok(_))
        ));
        assert!(matches!(
            oracle.check(&items[0], &wrong).0,
            Verdict::Wrong(_)
        ));
    }
    stack.stop();
}

#[test]
fn add_stream_driver_checks_every_reply() {
    run_tcp_workload(Workload::AddStream);
}

#[test]
fn mul_graph_driver_checks_every_reply() {
    run_tcp_workload(Workload::MulGraph);
}

#[test]
fn rotate_fold_driver_checks_every_reply() {
    run_tcp_workload(Workload::RotateFold);
}

#[test]
fn scalar_batch_driver_checks_every_slot() {
    let stack = Stack::start(medium(), 4, 2).expect("stack");
    let mut rng = StdRng::seed_from_u64(11);
    let oracle = Oracle::new(&stack);
    let mut tally = Tally::default();
    let (t, n) = (stack.ctx.params().t, stack.ctx.params().n);
    let closed = drive::scalar_closed(
        &stack.router,
        TENANT,
        t,
        &oracle,
        &mut rng,
        2 * n,
        Duration::from_millis(200),
        &mut tally,
    );
    assert!(
        closed.sizes.contains(&n),
        "closed loop should fill batches: {:?}",
        closed.sizes
    );
    let due = arrivals(&mut rng, 2000.0, Duration::from_millis(200));
    let (rec, _) = drive::scalar_open(
        &stack.router,
        TENANT,
        t,
        &oracle,
        &mut rng,
        &due,
        &mut tally,
    );
    assert_eq!(rec.latencies_ms().len(), due.len());
    assert_eq!(
        (tally.wrong, tally.missing, tally.failed()),
        (0, 0, 0),
        "{tally:?}"
    );
    assert_eq!(cross_check(&stack, &tally), Vec::<String>::new());

    // A tampered packed result decrypts to the wrong slot.
    let ticket = stack
        .router
        .submit_scalar(ScalarRequest {
            tenant: TENANT,
            op: ScalarOp::Mul,
            lhs: 3,
            rhs: 5,
        })
        .expect("submit");
    stack.router.flush_batches();
    let res = ticket.wait().expect("batch");
    assert_eq!(oracle.slots(&res.packed)[res.slot], 15);
    let bump = BatchEncoder::new(t, n).unwrap().encode(&vec![1; n]);
    let tampered = add(&stack.ctx, &res.packed, &trivial_encrypt(&stack.ctx, &bump));
    assert_ne!(oracle.slots(&tampered)[res.slot], 15);
    stack.stop();
}

#[test]
fn benchmark_json_and_design_record_match_the_code() {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .expect(path)
            .split_whitespace()
            .collect::<String>()
    };
    let bench = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let design = read(concat!(env!("CARGO_MANIFEST_DIR"), "/design.json"));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            bench.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "BENCHMARK.json lacks metric {name} [{unit}]"
        );
        assert!(
            design.contains(&format!("\"{name}\":")),
            "design.json does not describe {name}"
        );
    }
    for w in ALL {
        let section = design
            .split(&format!("\"{}\":{{", w.name()))
            .nth(1)
            .unwrap_or("");
        let section = section.split("\"predicts\"").next().unwrap_or("");
        let rate = format!("\"open_rate_per_s\":{}", w.open_rate());
        let slo = format!("\"latency_limit_ms\":{}", w.slo_ms());
        assert!(
            section.contains(&rate) && section.contains(&slo),
            "{}: expected {rate} and {slo}",
            w.name()
        );
        assert!(
            bench.contains(&format!("\"name\":\"{}\"", w.name())),
            "BENCHMARK.json lacks workload {}",
            w.name()
        );
    }
}

#[test]
fn phase_rate_counts_stalls_but_not_the_drain() {
    // 100/s for 8 s, except second 2 stalls to 10/s; a drain tail after
    // the phase does not count.
    let mut done = Vec::new();
    for sec in 0..8u64 {
        let n = if sec == 2 { 10 } else { 100 };
        done.extend((0..n).map(|i| {
            (
                Duration::from_micros(sec * 1_000_000 + i * 1_000_000 / n),
                1,
            )
        }));
    }
    done.extend((0..50).map(|i| (Duration::from_millis(8000 + i), 1)));
    let rate = phase_rate(&done, Duration::from_secs(8));
    assert!((rate - 709.0 / 7.99).abs() < 0.01, "stall hidden: {rate}");
    // Batched completions: 4096 requests every 0.3 s read as 4096 / 0.3,
    // not as whole batches per second.
    let batches: Vec<_> = (0..40u64)
        .map(|i| (Duration::from_millis(50 + 300 * i), 4096))
        .collect();
    let rate = phase_rate(&batches, Duration::from_secs(12));
    assert!((rate - 4096.0 / 0.3).abs() < 1.0, "{rate}");
    assert_eq!(phase_rate(&batches[..1], Duration::from_secs(12)), 0.0);
}
