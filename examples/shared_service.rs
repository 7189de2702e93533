//! Two jobs, one checkpoint service: both register as tenants of a shared
//! [`CkptService`] and checkpoint through [`JobRuntime::with_service`]. Because the
//! jobs run the identical application, the second tenant's chunk payloads are
//! already in the shared content-addressed space — its storage traffic is manifests
//! only — while each tenant keeps (and restarts from) its own namespaced
//! generations, metered against its own quota.
//!
//! ```text
//! cargo run --release --example shared_service
//! ```

use ckpt_store::{CkptService, ServiceConfig};
use job_runtime::{Backend, JobConfig, JobRuntime};
use mana::{Op, Session};
use mpi_model::error::MpiResult;

const STEPS: u64 = 8;
const WORLD: usize = 2;

/// One step of the workload. The stored state depends on the rank and the step —
/// not on which job runs it — which is exactly the "many jobs of the same app"
/// shape the service's cross-job dedup exploits.
fn step(session: &mut Session, step: u64) -> MpiResult<i64> {
    let me = session.world_rank() as u64;
    let bulk: Vec<u8> = (0..256 * 1024)
        .map(|i| {
            ((i as u64 + me * 7919 + step * 104_729).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24)
                as u8
        })
        .collect();
    session.upper_mut().map_region("app.bulk", bulk);
    let world = session.world()?;
    Ok(session.allreduce(&[me as i64 + step as i64], Op::sum(), world)?[0])
}

fn main() -> MpiResult<()> {
    let service = CkptService::new(ServiceConfig::default())?;

    let mut reference: Option<Vec<i64>> = None;
    for name in ["job-a", "job-b"] {
        let tenant = service.register_tenant(name);
        let runtime = JobRuntime::with_service(
            JobConfig::new(WORLD, Backend::Mpich)
                .with_checkpoint_every(2)
                .with_async_checkpoint(),
            tenant.clone(),
        );
        let results = runtime.run_steps(STEPS, step)?.results()?;
        tenant.storage().wait_idle();

        let stats = tenant.stats();
        println!(
            "{name}: {} checkpoints committed, {} KiB logical written, {} KiB physical \
             ({} new chunks, {} reused)",
            runtime.storage().generations().len(),
            stats.logical_bytes_written / 1024,
            stats.physical_bytes_written / 1024,
            stats.chunks_new,
            stats.chunks_reused,
        );
        match &reference {
            None => reference = Some(results),
            Some(expected) => assert_eq!(&results, expected, "identical jobs, identical results"),
        }

        // Each tenant restarts from its *own* newest committed generation.
        let (generation, images) = tenant.storage().latest_valid_images(WORLD)?;
        assert_eq!(images.len(), WORLD);
        println!("{name}: restartable from generation {generation}");
    }

    let stats = service.stats();
    let second = &stats.tenants[1];
    assert!(
        second.chunks_reused > 0,
        "the second job must re-reference the first job's chunks"
    );
    println!(
        "service: {:.2}x logical/physical across both tenants — the second identical \
         job was nearly free ✓",
        stats.dedup_ratio()
    );
    Ok(())
}
