//! Allocation counts of the typed step path and of a checkpoint freeze, as exact
//! gates.
//!
//! A typed message costs one allocation and one bulk pass on each side (DESIGN.md,
//! "Typed marshalling"), and a freeze encodes only the MANA regions whose state
//! changed (DESIGN.md, "What a freeze costs"). A growth-by-doubling, a double copy
//! or a temporary that creeps back in moves one of the counts below and fails here,
//! in tier-1, instead of waiting for a benchmark to notice the allocator lock.
//!
//! This file is its own test crate so that it can install a counting
//! `#[global_allocator]` (which needs `unsafe`) while every library keeps
//! `#![forbid(unsafe_code)]`. Each thread counts its own allocator calls in a
//! thread-local, so neither the libtest harness thread nor the peer rank can leak
//! into a count.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use mana::ckpt::LocalDrainObserver;
use mana::config::ManaConfig;
use mana::runtime::ManaRank;
use mana::{Op, Session};
use mpi_engine::Backend;
use mpi_model::op::UserFunctionRegistry;
use mpi_model::typed::{DoubleInt, MpiData};
use parking_lot::RwLock;
use split_proc::address_space::UpperHalfSpace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// `Some(n)` while this thread is inside [`allocations_in`]: its own count, which
    /// no other thread's allocations can reach.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

impl CountingAllocator {
    fn count() {
        // `try_with`: the allocator is still called while a thread's locals are torn down.
        let _ = COUNT.try_with(|count| count.set(count.get().map(|n| n + 1)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) the calling thread makes
/// inside `body`.
fn allocations_in<R>(body: impl FnOnce() -> R) -> (u64, R) {
    COUNT.set(Some(0));
    let result = body();
    (COUNT.take().expect("set above, on this thread"), result)
}

/// The codec alone: one exactly-sized buffer per call, on the scalars' bulk path
/// and on the per-element path every other type takes (`DoubleInt` implements only
/// `encode_element`/`decode_element`, like a user's derived struct).
fn codec_counts() {
    let halo: Vec<f64> = (0..512).map(|i| i as f64 * 0.5).collect();
    let (encode, wire) = allocations_in(|| f64::encode(&halo));
    assert_eq!(wire.len(), 4096);
    assert_eq!(encode, 1, "f64::encode of 512 elements");
    let (decode, back) = allocations_in(|| f64::decode(&wire));
    assert_eq!(back.unwrap(), halo);
    assert_eq!(decode, 1, "f64::decode of 4 KiB");
    let (encode, payload) = allocations_in(|| f64::encode_payload(&halo));
    assert_eq!(payload, wire);
    assert_eq!(encode, 1, "f64::encode_payload of 512 elements");

    let pairs = vec![
        DoubleInt {
            value: 1.5,
            index: 3
        };
        100
    ];
    let (encode, wire) = allocations_in(|| DoubleInt::encode(&pairs));
    assert_eq!(encode, 1, "DoubleInt::encode of 100 elements");
    let (decode, back) = allocations_in(|| DoubleInt::decode(&wire));
    assert_eq!(back.unwrap(), pairs);
    assert_eq!(decode, 1, "DoubleInt::decode of 100 elements");
}

/// Allocations of one typed call on a 2-rank world: rank 0 sends 512 `f64`s, rank 1
/// receives them; the same again non-blocking; rank 0 broadcasts 512 `f64`s; then
/// both allreduce one `f64` (counted over both ranks, since which of them arrives
/// last and assembles the round's result is a race).
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepCounts {
    send: u64,
    recv: u64,
    isend: u64,
    send_wait: u64,
    irecv: u64,
    recv_wait: u64,
    /// Root, then non-root.
    bcast: [u64; 2],
    allreduce: u64,
}

const WARM_UP: usize = 8;
const ROUNDS: usize = 200;

/// One [`StepCounts`] per round, after [`WARM_UP`] uncounted rounds have sized the
/// mailboxes and the sessions' caches.
fn step_counts() -> Vec<StepCounts> {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let lowers = Backend::Mpich
        .launch(2, Arc::clone(&registry), 1)
        .unwrap()
        .0;
    let halo: Vec<f64> = (0..512).map(|i| i as f64 * 0.25).collect();
    // Per rank and round: allocations of the blocking point-to-point call, the
    // non-blocking post and its wait, the bcast and the allreduce.
    let per_rank: Vec<Vec<[u64; 5]>> = std::thread::scope(|scope| {
        let ranks: Vec<_> = lowers
            .into_iter()
            .map(|lower| {
                let (registry, halo) = (Arc::clone(&registry), &halo);
                scope.spawn(move || {
                    let config = ManaConfig::new_design();
                    let mut session = Session::new(ManaRank::new(lower, config, registry).unwrap());
                    let world = session.world().unwrap();
                    let me = session.world_rank();
                    let mut counts = Vec::with_capacity(ROUNDS);
                    for round in 0..WARM_UP + ROUNDS {
                        let (p2p, ()) = allocations_in(|| {
                            if me == 0 {
                                session.send(halo, 1, 5, world).unwrap();
                            } else {
                                let (got, _) = session.recv::<f64>(512, 0, 5, world).unwrap();
                                assert_eq!(&got, halo);
                            }
                        });
                        let (post, request) = allocations_in(|| {
                            if me == 0 {
                                session.isend(halo, 1, 6, world).unwrap()
                            } else {
                                session.irecv::<f64>(512, 0, 6, world).unwrap()
                            }
                        });
                        let (wait, (got, _)) =
                            allocations_in(|| request.wait(&mut session).unwrap());
                        assert_eq!(got.len(), if me == 0 { 0 } else { 512 });
                        let mut data = if me == 0 { halo.clone() } else { Vec::new() };
                        let (bcast, ()) =
                            allocations_in(|| session.bcast(&mut data, 0, world).unwrap());
                        assert_eq!(&data, halo);
                        let (allreduce, sum) = allocations_in(|| {
                            session.allreduce(&[1.0f64], Op::sum(), world).unwrap()
                        });
                        assert_eq!(sum, [2.0]);
                        if round >= WARM_UP {
                            counts.push([p2p, post, wait, bcast, allreduce]);
                        }
                    }
                    counts
                })
            })
            .collect();
        ranks.into_iter().map(|rank| rank.join().unwrap()).collect()
    });
    std::iter::zip(&per_rank[0], &per_rank[1])
        .map(|(root, leaf)| StepCounts {
            send: root[0],
            recv: leaf[0],
            isend: root[1],
            send_wait: root[2],
            irecv: leaf[1],
            recv_wait: leaf[2],
            bcast: [root[3], leaf[3]],
            allreduce: root[4] + leaf[4],
        })
        .collect()
}

/// Rounds in which isend or irecv may pay one allocation more than its steady count:
/// every request takes a fresh slot in the session's virtual-id table (ids are never
/// reused), so the table's slot vector doubles now and then — at most once per power
/// of two of requests posted, a handful of rounds out of [`ROUNDS`]. A copy on the
/// path would cost one more in every round.
const SLOT_GROWTH_ROUNDS: usize = 8;

#[test]
fn typed_step_path_allocation_counts_are_exact() {
    codec_counts();
    // Send: the payload, encoded in place. Receive: the decoded elements. Isend: the
    // payload; the eager send completes it, so its wait allocates nothing. Irecv
    // posts a descriptor without allocating; its wait decodes the elements.
    // Allreduce, per rank: the encoded send buffer the byte-level call borrows, the
    // payload the engine copies it into, the accumulator and the decoded result; per
    // round: the fabric's slot map, ordered contributions and their `Arc`, and one
    // fan-out vector per reader. Bcast, per rank: the root's encoded buffer, the
    // payload the engine copies it into and the decoded result; the non-root's empty
    // contribution, its receive buffer and the decoded result; per round the same
    // five as the allreduce, split two and three between the ranks by which arrives
    // last — a race, so the pair is compared in sorted order.
    let expected = StepCounts {
        send: 1,
        recv: 1,
        isend: 1,
        send_wait: 0,
        irecv: 0,
        recv_wait: 1,
        bcast: [3 + 2, 3 + 3],
        allreduce: 2 * 4 + 5,
    };
    let mut grown = 0;
    for (round, counts) in step_counts().into_iter().enumerate() {
        let isend_grew = counts.isend == expected.isend + 1;
        let irecv_grew = counts.irecv == expected.irecv + 1;
        grown += usize::from(isend_grew) + usize::from(irecv_grew);
        let mut bcast = counts.bcast;
        bcast.sort_unstable();
        let steady = StepCounts {
            isend: counts.isend - u64::from(isend_grew),
            irecv: counts.irecv - u64::from(irecv_grew),
            bcast,
            ..counts
        };
        assert_eq!(steady, expected, "round {round}: {counts:?}");
    }
    assert!(
        grown <= 2 * SLOT_GROWTH_ROUNDS,
        "isend and irecv paid one more allocation in {grown} posts over {ROUNDS} rounds"
    );
}

/// A checkpoint freeze (`snapshot_checkpoint`, after the drain phases) of a one-rank
/// world: `(first, second)` freeze's allocations, the second with nothing changed
/// since the first.
fn freeze_counts() -> (u64, u64) {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let lower = Backend::Mpich
        .launch(1, Arc::clone(&registry), 1)
        .unwrap()
        .0
        .remove(0);
    let mut rank = ManaRank::new(lower, ManaConfig::new_design(), registry).unwrap();
    rank.world().unwrap();
    rank.upper_mut().map_region("app.state", vec![0u8; 4096]);
    let mut freeze = || {
        let plan = rank.begin_checkpoint().unwrap();
        rank.drain_quiescent(&plan, &LocalDrainObserver::default())
            .unwrap();
        rank.complete_drain().unwrap();
        allocations_in(|| rank.snapshot_checkpoint().unwrap()).0
    };
    (freeze(), freeze())
}

/// Allocations of a `region_mut` of a region that is already dirty and that no frozen
/// image shares.
fn dirty_region_mut_count() -> u64 {
    let mut space = UpperHalfSpace::new();
    space.map_region("app.state", vec![0u8; 4096]);
    space.region_mut("app.state").unwrap()[0] = 1;
    allocations_in(|| space.region_mut("app.state").unwrap()[1] = 2).0
}

#[test]
fn an_unchanged_freeze_and_a_dirty_region_mut_allocation_counts_are_exact() {
    // A freeze with nothing changed encodes no MANA region: each maps the buffer the
    // last freeze encoded. What is left: per MANA region, its name as a `String` and
    // as the space's shared `Arc<str>` (10); the dirty set's node, emptied by the last
    // freeze (1); the image metadata's implementation name (1); and the clone that
    // freezes the image: that name again and one node each for the region map and the
    // dirty set, every name and region shared by refcount (3). Before MANA kept its
    // encodings and the space shared its names, both freezes took 98 (five JSON
    // encodings, and one `String` per name in each map of the clone).
    let (first, second) = freeze_counts();
    assert_eq!(first, 90, "first freeze: five JSON encodings, each kept");
    assert_eq!(second, 10 + 1 + 1 + 3, "second freeze, nothing changed");
    // The dirty set already holds the name, and the region is the space's alone:
    // nothing to allocate. It took 1 (the name, as a `String`) before.
    assert_eq!(dirty_region_mut_count(), 0, "region_mut of a dirty region");
}
