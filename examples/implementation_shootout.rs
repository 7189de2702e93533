//! The paper's "develop once, run everywhere" pitch from the application developer's
//! point of view: run the same application under MANA on every simulated MPI backend
//! the orchestrator knows — without changing a line of application code. The backend
//! is one field of the `JobConfig`.
//!
//! ```text
//! cargo run --example implementation_shootout
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example stops at its first failure, with the message"
)]

use mana_repro::job_runtime::{Backend, JobConfig, JobRuntime};
use mana_repro::mana_apps::{run_app, AppId, RunConfig};

const RANKS: usize = 4;
const STEPS: u64 = 6;

fn main() {
    println!(
        "{:<10} {:<8} {:>12} {:>16} {:>14}",
        "impl", "app", "ranks", "crossings/rank", "checksum"
    );
    for backend in Backend::ALL {
        // CoMD and LULESH stay within ExaMPI's subset; run both everywhere.
        for app in [AppId::CoMd, AppId::Lulesh] {
            let runtime = JobRuntime::new(JobConfig::new(RANKS, backend));
            let reports = runtime
                .run(move |mut session, _ctx| {
                    run_app(
                        app,
                        &mut session,
                        &RunConfig {
                            iterations: STEPS,
                            state_scale: 1e-4,
                            checkpoint: None,
                        },
                    )
                })
                .expect("run");
            let crossings = reports.iter().map(|r| r.crossings).sum::<u64>() / reports.len() as u64;
            println!(
                "{:<10} {:<8} {:>12} {:>16} {:>14.6}",
                backend.name(),
                app.name(),
                RANKS,
                crossings,
                reports[0].checksum
            );
        }
    }
    println!(
        "\nThe same application binaries (and the same MANA codebase) ran under four MPI \
         implementations; only the `JobConfig` backend field changed."
    );
}
