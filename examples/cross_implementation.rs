//! "Develop once, run everywhere" — and even *restart somewhere else*: run the CoMD
//! proxy under MPICH, take a coordinated checkpoint, and resume the same job under
//! Open MPI with one method call (paper §9's cross-implementation restart, which this
//! reproduction supports because nothing implementation-specific is stored in the
//! image).
//!
//! Also audits each implementation for the MANA-required MPI subset of paper §5.
//!
//! ```text
//! cargo run --example cross_implementation
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example stops at its first failure, with the message"
)]

use mana_repro::job_runtime::{Backend, JobConfig, JobRuntime};
use mana_repro::mana::{ManaConfig, StoragePolicy};
use mana_repro::mana_apps::{run_app, AppId, RunConfig};

const RANKS: usize = 4;
const TOTAL_STEPS: u64 = 10;
const CHECKPOINT_AT: u64 = 4;

fn main() {
    // Subset audit (paper §5): which implementations can host MANA at all?
    for backend in Backend::DISTINCT {
        let probe = JobRuntime::new(JobConfig::new(1, backend));
        let audits = probe
            .run(|session, _ctx| Ok(session.audit_lower_half()))
            .expect("probe");
        println!(
            "{:<8} provides the MANA-required subset: {} ({} optional features beyond it)",
            backend.name(),
            audits[0].compatible(),
            audits[0].optional_features.len()
        );
    }

    let config = ManaConfig::new_design().with_storage(StoragePolicy::Incremental);
    let runtime = JobRuntime::new(JobConfig::new(RANKS, Backend::Mpich).with_mana(config));

    println!("\n== run CoMD under MPICH and checkpoint at step {CHECKPOINT_AT} ==");
    runtime
        .run(|mut session, ctx| {
            let report = run_app(
                AppId::CoMd,
                &mut session,
                &RunConfig {
                    iterations: CHECKPOINT_AT,
                    state_scale: 1e-4,
                    checkpoint: None,
                },
            )?;
            let ckpt = ctx.checkpoint(&mut session)?;
            println!(
                "rank {} under {}: {} crossings, wrote {} bytes ({} logical)",
                report.rank,
                session.implementation_name(),
                report.crossings,
                ckpt.written_bytes,
                ckpt.logical_bytes
            );
            Ok(())
        })
        .expect("mpich phase");

    println!("\n== restart that generation under Open MPI and finish the run ==");
    let restored = runtime.restart(Backend::OpenMpi).expect("restart");
    let (reports, generation) = runtime
        .run_restored(restored, |mut session, _ctx| {
            let implementation = session.implementation_name();
            let report = run_app(
                AppId::CoMd,
                &mut session,
                &RunConfig {
                    iterations: TOTAL_STEPS,
                    state_scale: 1e-4,
                    checkpoint: None,
                },
            )?;
            Ok((implementation, report))
        })
        .expect("openmpi phase");
    for (implementation, report) in reports {
        println!(
            "rank {} now under {}: completed {} steps, checksum {:.6}",
            report.rank, implementation, report.iterations_completed, report.checksum
        );
    }
    println!(
        "\ncheckpointed generation {generation} under MPICH, restarted under Open MPI — \
         same application, same handles."
    );
}
