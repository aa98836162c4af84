//! Thread-lifecycle hygiene: engines (with their batch-linger timers),
//! routers and net servers must not leak OS threads across repeated
//! start/stop cycles.
//!
//! The engine's linger timer and workers, the router's shard engines and
//! the net server's poll thread are all joined on shutdown; this suite
//! pins that down by counting the process's live `hefv-*` threads around
//! many cycles. Linux-only (it reads `/proc/self/task`), which covers CI.

#![cfg(target_os = "linux")]

use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::router::ShardSpec;
use hefv_net::{Client, NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The harness runs `#[test]`s concurrently, and a sibling test's live
/// workers would skew this process's task count — every counting test
/// holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live threads spawned by the library. Every long-lived engine, router
/// and server thread is named `hefv-*`; counting only those keeps the
/// harness's own test threads, which start and exit while a counting
/// test runs, out of the figure. A new thread carries its spawner's name
/// until it renames itself, so this first waits (up to 2 s) until no
/// other thread carries the calling test thread's name.
fn live_threads() -> usize {
    let me = std::fs::read_to_string("/proc/thread-self/comm").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .collect();
        let unnamed = names.iter().filter(|name| **name == me).count() > 1;
        if !unnamed || std::time::Instant::now() >= deadline {
            return names
                .iter()
                .filter(|name| name.starts_with("hefv-"))
                .count();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `live_threads()` once it has fallen to `limit`, or after 2 s. A
/// joined thread can still be listed for a moment after `join` returns;
/// a leaked one stays listed.
fn settled_threads(limit: usize) -> usize {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        let n = live_threads();
        if n <= limit || std::time::Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn live_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn toy_ctx() -> Arc<FvContext> {
    Arc::new(FvContext::new(FvParams::insecure_toy()).unwrap())
}

#[test]
fn repeated_engine_start_stop_leaks_no_threads() {
    let _guard = serial();
    let ctx = toy_ctx();
    // Warm up allocator/runtime threads before taking the baseline.
    Engine::start(Arc::clone(&ctx), EngineConfig::default()).shutdown();
    let before = live_threads();
    for _ in 0..20 {
        let engine = Engine::start(
            Arc::clone(&ctx),
            EngineConfig {
                workers: 3,
                // A short linger so the timer thread actually ticks
                // (not just parks) before shutdown joins it.
                batch_linger: Some(Duration::from_millis(1)),
                ..EngineConfig::default()
            },
        );
        std::thread::sleep(Duration::from_millis(3));
        engine.shutdown();
    }
    let after = settled_threads(before);
    assert!(
        after <= before,
        "thread leak: {before} tasks before, {after} after 20 engine cycles"
    );
}

#[test]
fn repeated_router_and_server_start_stop_leaks_no_threads() {
    let _guard = serial();
    let ctx = toy_ctx();
    let cycle = || {
        let router = Arc::new(ShardRouter::new());
        for i in 0..2 {
            router
                .add_shard(ShardSpec {
                    name: format!("s{i}"),
                    ctx: Arc::clone(&ctx),
                    config: EngineConfig {
                        workers: 2,
                        batch_linger: Some(Duration::from_millis(1)),
                        ..EngineConfig::default()
                    },
                })
                .unwrap();
        }
        let server =
            NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();
        // Touch the socket path so the poll loop does real work.
        let _ = Client::connect(server.local_addr()).unwrap();
        server.shutdown();
        router.shutdown();
    };
    cycle(); // warm-up
    let before = live_threads();
    for _ in 0..10 {
        cycle();
    }
    let after = settled_threads(before);
    assert!(
        after <= before,
        "thread leak: {before} tasks before, {after} after 10 router+server cycles"
    );
}

/// Chaos-injected worker panics must be fully contained: across 20
/// engine lifecycles of forced panics, quarantine trips, and quarantine
/// expiry, no OS thread leaks (`catch_unwind` keeps the worker alive, a
/// panicking worker is not respawned-and-abandoned), no fd leaks, and
/// every submission gets exactly one answer — an Ok, a contained
/// `Internal` panic report, or a typed `Quarantined` refusal. Nothing
/// hangs, nothing vanishes.
#[test]
fn chaos_panic_cycles_leak_no_threads_fds_or_replies() {
    let _guard = serial();
    // Injected panics would spray default-hook backtraces over the test
    // output; filter exactly those, delegate everything else.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("chaos:"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("chaos:"));
        if !injected {
            prev(info);
        }
    }));

    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(77);
    let (_sk, pk, rlk) = keygen(&ctx, &mut rng);
    let (t, n) = (ctx.params().t, ctx.params().n);
    const TTL: Duration = Duration::from_millis(20);
    let cycle = |rng: &mut StdRng| {
        let engine = Engine::start(
            Arc::clone(&ctx),
            EngineConfig {
                workers: 2,
                shedding: SheddingPolicy {
                    quarantine_after: 3,
                    quarantine_ttl: TTL,
                    ..SheddingPolicy::default()
                },
                chaos: Some(ChaosPlan {
                    panic: 1.0, // every executed job panics in the worker
                    ..ChaosPlan::default()
                }),
                ..EngineConfig::default()
            },
        );
        engine.register_tenant(1, TenantKeys::compute(pk.clone(), rlk.clone()));
        let enc =
            |v: u64, rng: &mut StdRng| encrypt(&ctx, &pk, &Plaintext::new(vec![v], t, n), rng);
        let (mut panicked, mut quarantined) = (0u32, 0u32);
        for _ in 0..8 {
            let req = EvalRequest::binary(1, EvalOp::Mul, enc(2, rng), enc(3, rng));
            // Exactly one answer per submission: a refusal at the door
            // or a (failed) reply from the worker. A lost correlation
            // would hang `call` forever — the suite timeout catches it.
            match engine.call(req) {
                Ok(_) => panic!("panic:1.0 cannot produce a clean reply"),
                Err(e) if e.code() == ErrorCode::Internal => panicked += 1,
                Err(e) if e.code() == ErrorCode::Quarantined => quarantined += 1,
                Err(e) => panic!("unexpected refusal class: {e}"),
            }
        }
        assert_eq!(panicked, 3, "exactly K strikes execute");
        assert_eq!(quarantined, 5, "the rest are fenced at admission");
        assert_eq!(engine.stats().quarantine_active, 1);
        // Quarantine expiry: after the TTL the signature is admitted
        // (and panics) again, and the gauge self-corrects on scrape.
        std::thread::sleep(TTL + Duration::from_millis(10));
        assert_eq!(engine.stats().quarantine_active, 0, "TTL sweep");
        let req = EvalRequest::binary(1, EvalOp::Mul, enc(4, rng), enc(5, rng));
        assert_eq!(
            engine.call(req).expect_err("still panicking").code(),
            ErrorCode::Internal,
            "expired quarantine admits the signature again"
        );
        engine.shutdown();
    };
    cycle(&mut rng); // warm-up
    let (threads_before, fds_before) = (live_threads(), live_fds());
    for _ in 0..20 {
        cycle(&mut rng);
    }
    let (threads_after, fds_after) = (settled_threads(threads_before), live_fds());
    assert!(
        threads_after <= threads_before,
        "thread leak: {threads_before} tasks before, {threads_after} after 20 chaos cycles"
    );
    assert!(
        fds_after <= fds_before,
        "fd leak: {fds_before} fds before, {fds_after} after 20 chaos cycles"
    );
}

#[test]
fn dropping_the_server_joins_the_poll_thread() {
    let _guard = serial();
    let ctx = toy_ctx();
    let router = Arc::new(ShardRouter::new());
    router
        .add_shard(ShardSpec {
            name: "s0".into(),
            ctx,
            config: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        })
        .unwrap();
    let before = live_threads();
    {
        let _server =
            NetServer::bind("127.0.0.1:0", Arc::clone(&router), ServerConfig::default()).unwrap();
        assert!(live_threads() > before, "poll thread is running");
        // Dropped here without an explicit shutdown().
    }
    assert_eq!(
        settled_threads(before),
        before,
        "drop must join the poll thread"
    );
    router.shutdown();
}
