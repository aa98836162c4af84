//! Asserts the arena-backed hot path's headline property: once the
//! per-worker [`Arena`] is warm, steady-state `Mult` and hoisted-rotation
//! evaluation perform **zero heap allocation** — every `k·n` buffer is
//! recycled, the math kernels run on stack scratch, and the automorphism
//! tables are cached.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this file
//! deliberately holds a single `#[test]` so no concurrent test pollutes
//! the counters.
//!
//! The evaluation runs on whichever kernel table `HEFV_KERNEL` /
//! `HEFV_FORCE_SCALAR` selected for the process, so the test also drives
//! the HPS Lift/Scale entries of the scalar and the AVX2 table directly:
//! both lanes are checked in every run.

use hefv_core::galois::{GaloisKey, GaloisKeySet, HoistedCiphertext};
use hefv_core::prelude::*;
use hefv_math::dispatch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[test]
fn warm_arena_mult_and_rotate_allocate_zero_bytes() {
    let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let (sk, pk, rlk) = keygen(&ctx, &mut rng);
    let key = GaloisKey::generate(&ctx, &sk, 3, &mut rng);
    let key2 = GaloisKey::generate(&ctx, &sk, 5, &mut rng);
    let slot_keys = GaloisKeySet::for_slot_sum(&ctx, &sk, &mut rng);
    let n = ctx.params().n;
    let pa = Plaintext::new(vec![1, 0, 1], ctx.params().t, n);
    let pb = Plaintext::new(vec![1, 1], ctx.params().t, n);
    let ca = encrypt(&ctx, &pk, &pa, &mut rng);
    let cb = encrypt(&ctx, &pk, &pb, &mut rng);
    let backend = Backend::Hps(HpsPrecision::Fixed);

    let arena = Arena::new();
    let steady_iteration = |arena: &Arena| {
        // One relinearized multiplication...
        let prod = hefv_core::eval::mul_in(&ctx, &ca, &cb, &rlk, backend, arena);
        // ...one hoisted decomposition serving two rotations...
        let hoisted = HoistedCiphertext::new_in(&ctx, &prod, arena);
        let r1 = hoisted.rotate_in(&ctx, &key, arena);
        let r2 = hoisted.rotate_in(&ctx, &key2, arena);
        hoisted.recycle(arena);
        // ...and a full hoisted slot sum.
        let summed = hefv_core::galois::sum_slots_in(&ctx, &r1, &slot_keys, arena);
        // Recycle every output: the steady-state loop is closed.
        arena.recycle_ciphertext(prod);
        arena.recycle_ciphertext(r1);
        arena.recycle_ciphertext(r2);
        arena.recycle_ciphertext(summed);
    };

    // Warm-up: populate the arena pools, the automorphism-table cache and
    // any lazily sized internals.
    for _ in 0..3 {
        steady_iteration(&arena);
    }

    let (allocs_before, bytes_before) = snapshot();
    for _ in 0..5 {
        steady_iteration(&arena);
    }
    let (allocs_after, bytes_after) = snapshot();

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state Mult/rotate hot path must not allocate \
         ({} allocations, {} bytes over 5 iterations, {} lane)",
        allocs_after - allocs_before,
        bytes_after - bytes_before,
        dispatch::backend_name(),
    );
    assert_eq!(bytes_after - bytes_before, 0, "zero bytes at steady state");

    // Both lanes of the Lift/Scale seam, over a column range that starts
    // and ends off the 4-lane grid so the vector lane's scalar tail runs.
    let rns = ctx.rns();
    let lift_src = vec![7u64; rns.base_q().len() * n];
    let scale_src = vec![11u64; rns.base_full().len() * n];
    let cols = 1..n - 2;
    let mut lift_out = vec![0u64; rns.base_p().len() * cols.len()];
    let mut scale_out = vec![0u64; rns.base_q().len() * cols.len()];
    let tables = [Some(dispatch::scalar_kernels()), dispatch::avx2_kernels()];
    for k in tables.into_iter().flatten() {
        let (allocs_before, bytes_before) = snapshot();
        k.extend_hps_cols(rns.lift(), &lift_src, n, cols.clone(), &mut lift_out);
        k.scale_hps_cols(
            ctx.scale(),
            rns,
            &scale_src,
            n,
            cols.clone(),
            &mut scale_out,
        );
        let (allocs_after, bytes_after) = snapshot();
        assert_eq!(
            (allocs_after - allocs_before, bytes_after - bytes_before),
            (0, 0),
            "{} Lift/Scale lane must not allocate",
            k.backend().name()
        );
    }

    // Sanity: the evaluation above actually computes — decrypt one result.
    let check = hefv_core::eval::mul_in(&ctx, &ca, &cb, &rlk, backend, &arena);
    let expect = decrypt(&ctx, &sk, &mul(&ctx, &ca, &cb, &rlk, backend));
    assert_eq!(decrypt(&ctx, &sk, &check), expect);
}
