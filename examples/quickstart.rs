//! Quickstart: wrap an MPI job in MANA via the `JobRuntime` orchestrator, compute
//! through the typed session API, take a *coordinated* transparent checkpoint, kill
//! the job, restart it on a fresh MPI library session, and keep computing with the
//! exact same typed handles.
//!
//! ```text
//! cargo run --example quickstart [mpich|craympi|openmpi|exampi]
//! ```
//!
//! The optional argument picks the simulated MPI implementation — the same program
//! runs unchanged on any of them. Note what the application code does *not* contain:
//! no byte marshalling, no `MPI_BYTE` buffers, no per-call constant lookups — the
//! `Session` resolves each predefined handle once and `allreduce::<i32>` carries its
//! own encoding.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "an example stops at its first failure, with the message"
)]

use mana_repro::job_runtime::{Backend, JobConfig, JobRuntime};
use mana_repro::mana::{Comm, Datatype, ManaConfig, Op, StoragePolicy};

const RANKS: usize = 4;

fn main() {
    let backend = std::env::args()
        .nth(1)
        .map(|name| Backend::from_name(&name).unwrap_or_else(|| panic!("unknown backend {name}")))
        .unwrap_or(Backend::Mpich);
    let runtime = JobRuntime::new(
        JobConfig::new(RANKS, backend)
            .with_mana(ManaConfig::new_design().with_storage(StoragePolicy::Incremental)),
    );

    println!(
        "== phase 1: run under {} and take a coordinated checkpoint ==",
        backend.name()
    );
    runtime
        .run(|mut session, ctx| {
            let me = session.world_rank();
            let world = session.world()?;
            let int = session.datatype::<i32>()?;

            // Some computation: a global sum everyone agrees on.
            let total = session.allreduce(&[me + 1], Op::sum(), world)?[0];
            // Stash application state — the *typed* MPI handles included! — in the
            // upper half. They serialize as the same virtual ids as raw handles.
            session
                .upper_mut()
                .store_json("app.progress", &(me, total, world, int, Op::<i32>::sum()))?;
            // The coordinator drives all ranks through drain → parallel write →
            // commit; the generation is published only once every rank's image is in.
            let report = ctx.checkpoint(&mut session)?;
            println!(
                "rank {me}: checkpointed {} bytes (sum so far = {total})",
                report.written_bytes
            );
            Ok(())
        })
        .expect("phase 1");

    println!(
        "\n== phase 2: restart generation {} on a brand-new MPI session ==",
        runtime.published_generation().expect("one commit")
    );
    let restored = runtime.restart(backend).expect("restart");
    let (results, generation) = runtime
        .run_restored(restored, |mut session, _ctx| {
            let me = session.world_rank();
            // Recover the saved typed handles and keep going — they are still valid,
            // and they come back with their element types attached.
            let (saved_me, saved_sum, world, _int, sum): (i32, i32, Comm, Datatype<i32>, Op<i32>) =
                session.upper().load_json("app.progress")?;
            assert_eq!(saved_me, me);
            let total = session.allreduce(&[saved_sum], sum, world)?[0];
            Ok((me, saved_sum, total))
        })
        .expect("phase 2");
    assert_eq!(generation, 0);

    for (me, before, after) in results {
        println!(
            "rank {me}: sum before checkpoint = {before}, new global sum after restart = {after}"
        );
    }
    println!("\nquickstart finished: the same typed handles survived the restart.");
}
