//! Failure detection and the structured recovery log.
//!
//! This module is the *detection* half of the self-healing loop
//! ([`crate::JobRuntime::run_steps_self_healing`] is the *recovery* half):
//!
//! * a [`HeartbeatMonitor`] thread polls the fabric's heartbeat lane against a
//!   per-rank deadline, and on expiry declares the silent ranks dead, feeds them to
//!   the [`Coordinator`] (so drains fail fast with "peer dead" instead of burning
//!   their stall budget), and aborts both the fabric and the commit barrier so every
//!   surviving rank unwinds promptly;
//! * a [`RecoveryLog`] records every step of detect → abort-pending → fallback →
//!   relaunch → resume as a timestamped, JSON-serializable event stream an operator
//!   (or the chaos soak's assertions, or the bench harness) can read back.
//!
//! Nothing here is chaos-specific: the monitor detects *any* silence past the
//! deadline — injected crashes, unhealed partitions, or a genuinely hung rank.

use crate::coordinator::Coordinator;
use mpi_model::types::Rank;
use net_sim::clock;
use net_sim::Fabric;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One step of a self-healing job's lifecycle, as recorded in a [`RecoveryLog`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecoveryEventKind {
    /// A chaos plan was installed on a fresh incarnation's fabric.
    ChaosInstalled {
        /// Seed the plan was rolled from (0 for hand-built plans).
        seed: u64,
        /// Faults scheduled for this incarnation.
        faults: usize,
        /// How many of them are lethal (cannot be masked by the transport).
        lethal: usize,
    },
    /// A scheduled fault actually fired during the incarnation.
    FaultInjected {
        /// Id of the fault in the *original* plan (stable across relaunches).
        fault_id: usize,
        /// Fault category ("crash", "partition", "node-failure", ...).
        category: String,
    },
    /// A rank's heartbeat age crossed the detector deadline.
    HeartbeatExpired {
        /// The silent rank.
        rank: Rank,
        /// Observed heartbeat age when the detector fired, in milliseconds.
        age_ms: u64,
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
        /// Time from the fault's ground-truth onset (the fabric's record of the
        /// kill or partition start) to this detection, when the fabric knows it.
        detection_latency_ms: Option<u64>,
    },
    /// The detector declared a set of ranks dead (one event per detection sweep).
    RanksDeclaredDead {
        /// The declared ranks, in rank order.
        ranks: Vec<Rank>,
        /// Best-known cause, from the fabric's death records ("crash",
        /// "node-failure", ...) or "unresponsive" for partition/hang silence.
        cause: String,
    },
    /// The world was aborted: every blocked rank was woken with a failure so the
    /// dead incarnation could be joined and torn down.
    WorldAborted {
        /// The abort reason handed to fabric and coordinator.
        reason: String,
    },
    /// Pending (uncommitted) checkpoint generations of the dead incarnation were
    /// aborted so they can never be mistaken for restorable state.
    PendingAborted {
        /// The aborted generation numbers.
        generations: Vec<u64>,
    },
    /// The job fell back to its newest committed generation (or to its initial
    /// state when nothing had committed yet).
    FallbackRestored {
        /// The restored generation; `None` means a from-scratch relaunch.
        generation: Option<u64>,
        /// The step the resumed run continues from.
        start_step: u64,
    },
    /// A fresh world was launched for the next incarnation.
    WorldRelaunched {
        /// 1-based incarnation number of the new world.
        incarnation: u32,
    },
    /// The job resumed on a **different world size**: an elastic restart
    /// ([`crate::JobConfig::elastic`]) remapped the checkpointed ranks onto the
    /// surviving nodes instead of waiting for the dead ones to heal.
    WorldResized {
        /// World size of the checkpointed (dead) incarnation.
        from: usize,
        /// World size the job resumed with.
        to: usize,
    },
    /// The resumed incarnation started stepping again.
    Resumed {
        /// Recovery blackout: wall time from failure detection to the resumed
        /// world being ready to step, in milliseconds.
        blackout_ms: u64,
    },
    /// Every rank completed all requested steps; the job is done.
    JobCompleted {
        /// Total incarnations the job ran (1 = no recovery was ever needed).
        incarnations: u32,
        /// Automatic recoveries performed (0 = a clean run).
        recoveries: u32,
    },
}

/// One timestamped entry of a [`RecoveryLog`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Milliseconds since the log was created.
    pub at_ms: u64,
    /// 1-based incarnation of the world the event belongs to.
    pub incarnation: u32,
    /// What happened.
    pub kind: RecoveryEventKind,
}

struct LogInner {
    epoch: Instant,
    events: Mutex<Vec<RecoveryEvent>>,
}

/// The structured, shareable event log of one self-healing job. Cheap to clone
/// (all clones append to the same stream); serialize with [`RecoveryLog::to_json`].
#[derive(Clone)]
pub struct RecoveryLog {
    inner: Arc<LogInner>,
}

impl Default for RecoveryLog {
    fn default() -> Self {
        RecoveryLog::new()
    }
}

impl RecoveryLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        RecoveryLog {
            inner: Arc::new(LogInner {
                epoch: clock::now(),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Append an event, stamped with the log's elapsed clock.
    pub fn record(&self, incarnation: u32, kind: RecoveryEventKind) {
        let at_ms = self.inner.epoch.elapsed().as_millis() as u64;
        self.inner.events.lock().push(RecoveryEvent {
            at_ms,
            incarnation,
            kind,
        });
    }

    /// A snapshot of every event recorded so far, in order.
    pub fn events(&self) -> Vec<RecoveryEvent> {
        self.inner.events.lock().clone()
    }

    /// Number of completed automatic recoveries (one per [`RecoveryEventKind::Resumed`]).
    pub fn recoveries(&self) -> u32 {
        self.inner
            .events
            .lock()
            .iter()
            .filter(|e| matches!(e.kind, RecoveryEventKind::Resumed { .. }))
            .count() as u32
    }

    /// Every detection latency the detector could ground-truth, in milliseconds.
    pub fn detection_latencies_ms(&self) -> Vec<u64> {
        self.inner
            .events
            .lock()
            .iter()
            .filter_map(|e| match &e.kind {
                RecoveryEventKind::HeartbeatExpired {
                    detection_latency_ms,
                    ..
                } => *detection_latency_ms,
                _ => None,
            })
            .collect()
    }

    /// Every recovery blackout (detection → resumed), in milliseconds.
    pub fn blackouts_ms(&self) -> Vec<u64> {
        self.inner
            .events
            .lock()
            .iter()
            .filter_map(|e| match &e.kind {
                RecoveryEventKind::Resumed { blackout_ms } => Some(*blackout_ms),
                _ => None,
            })
            .collect()
    }

    /// Categories of the faults that actually fired, in firing order.
    pub fn injected_categories(&self) -> Vec<String> {
        self.inner
            .events
            .lock()
            .iter()
            .filter_map(|e| match &e.kind {
                RecoveryEventKind::FaultInjected { category, .. } => Some(category.clone()),
                _ => None,
            })
            .collect()
    }

    /// The whole event stream as pretty-printed JSON (the `RECOVERY_log.json`
    /// artifact format).
    #[expect(
        clippy::expect_used,
        reason = "infallible by construction — events are derived plain structs with no non-serializable fields, and the artifact writer has no Result channel"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.events()).expect("recovery events serialize")
    }
}

/// What a [`HeartbeatMonitor`] observed over its lifetime, returned by
/// [`HeartbeatMonitor::stop`].
#[derive(Debug, Default)]
pub struct MonitorReport {
    /// Ranks declared dead, in declaration order.
    pub declared_dead: Vec<Rank>,
    /// Ranks the fabric marked dead by the time the monitor stopped, ascending.
    pub(crate) killed: Vec<Rank>,
    /// Instant of the first declaration (the start of the recovery blackout).
    pub(crate) first_detection: Option<Instant>,
}

impl MonitorReport {
    /// The ranks the failure took, ascending: those declared and those killed. The
    /// monitor aborts the world on its first declaration, so a killed rank whose
    /// heartbeat expires a poll after another's is never declared.
    pub(crate) fn lost(&self) -> Vec<Rank> {
        let mut lost = self.declared_dead.clone();
        lost.extend(&self.killed);
        lost.sort_unstable();
        lost.dedup();
        lost
    }
}

struct MonitorShared {
    declared: Mutex<Vec<Rank>>,
    first_detection: Mutex<Option<Instant>>,
}

/// The per-incarnation failure detector: a thread polling
/// [`Fabric::heartbeat_ages`] against a deadline.
///
/// On expiry it (in order) records the detection in the [`RecoveryLog`] with its
/// ground-truth latency, feeds the dead ranks to `Coordinator::note_dead_ranks`
/// (drains fail fast), poisons the commit barrier via [`Coordinator::abort`], and
/// aborts the fabric — waking every rank blocked in a receive or collective with
/// [`mpi_model::error::MpiError::JobAborted`] so the incarnation can be joined.
pub struct HeartbeatMonitor {
    stop: Arc<AtomicBool>,
    shared: Arc<MonitorShared>,
    handle: std::thread::JoinHandle<()>,
    fabric: Fabric,
}

impl HeartbeatMonitor {
    /// Enable the fabric's heartbeat lane and start watching it. `deadline` is the
    /// silence threshold; the poll period is `deadline / 8`, clamped to 1–25 ms.
    pub fn spawn(
        fabric: Fabric,
        coordinator: Arc<Coordinator>,
        log: RecoveryLog,
        deadline: Duration,
        incarnation: u32,
    ) -> Self {
        fabric.enable_heartbeats();
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(MonitorShared {
            declared: Mutex::new(Vec::new()),
            first_detection: Mutex::new(None),
        });
        let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(25));
        let stop_flag = Arc::clone(&stop);
        let state = Arc::clone(&shared);
        let watched = fabric.clone();
        let handle = std::thread::spawn(move || {
            let mut declared: Vec<Rank> = Vec::new();
            while !stop_flag.load(Ordering::Acquire) {
                clock::sleep(poll);
                let ages = fabric.heartbeat_ages();
                let mut newly: Vec<Rank> = Vec::new();
                for (index, age) in ages.iter().enumerate() {
                    let rank = index as Rank;
                    if *age > deadline && !declared.contains(&rank) {
                        let now = clock::now();
                        let latency = fabric
                            .failure_instant(rank)
                            .map(|at| now.saturating_duration_since(at).as_millis() as u64);
                        log.record(
                            incarnation,
                            RecoveryEventKind::HeartbeatExpired {
                                rank,
                                age_ms: age.as_millis() as u64,
                                deadline_ms: deadline.as_millis() as u64,
                                detection_latency_ms: latency,
                            },
                        );
                        declared.push(rank);
                        newly.push(rank);
                    }
                }
                if newly.is_empty() {
                    continue;
                }
                state.first_detection.lock().get_or_insert_with(clock::now);
                state.declared.lock().extend(newly.iter().copied());
                let cause = newly
                    .iter()
                    .map(|rank| {
                        fabric
                            .death_cause(*rank)
                            .unwrap_or_else(|| "unresponsive".to_string())
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                log.record(
                    incarnation,
                    RecoveryEventKind::RanksDeclaredDead {
                        ranks: newly.clone(),
                        cause,
                    },
                );
                coordinator.note_dead_ranks(&newly);
                let reason =
                    format!("heartbeat deadline ({deadline:?}) expired for ranks {newly:?}");
                coordinator.abort(&reason);
                fabric.abort(&reason);
                log.record(incarnation, RecoveryEventKind::WorldAborted { reason });
            }
        });
        HeartbeatMonitor {
            stop,
            shared,
            handle,
            fabric: watched,
        }
    }

    /// Stop polling, join the detector thread, and return what it observed.
    pub fn stop(self) -> MonitorReport {
        self.stop.store(true, Ordering::Release);
        let _ = self.handle.join();
        MonitorReport {
            declared_dead: self.shared.declared.lock().clone(),
            killed: self.fabric.dead_ranks(),
            first_detection: *self.shared.first_detection.lock(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_store::CheckpointStorage;
    use mpi_model::error::MpiError;
    use net_sim::{Fabric, FabricConfig};

    #[test]
    fn log_round_trips_through_json_and_counts_recoveries() {
        let log = RecoveryLog::new();
        log.record(
            1,
            RecoveryEventKind::ChaosInstalled {
                seed: 7,
                faults: 3,
                lethal: 1,
            },
        );
        log.record(
            1,
            RecoveryEventKind::HeartbeatExpired {
                rank: 2,
                age_ms: 260,
                deadline_ms: 250,
                detection_latency_ms: Some(261),
            },
        );
        log.record(2, RecoveryEventKind::Resumed { blackout_ms: 40 });
        log.record(
            2,
            RecoveryEventKind::JobCompleted {
                incarnations: 2,
                recoveries: 1,
            },
        );
        assert_eq!(log.recoveries(), 1);
        assert_eq!(log.detection_latencies_ms(), vec![261]);
        assert_eq!(log.blackouts_ms(), vec![40]);
        let json = log.to_json();
        let parsed: Vec<RecoveryEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, log.events());
    }

    #[test]
    fn monitor_detects_a_killed_rank_and_aborts_world_and_barrier() {
        let fabric = Fabric::new(FabricConfig::new(2, 1));
        let coordinator = Arc::new(Coordinator::new(2, None, CheckpointStorage::unmetered()));
        let log = RecoveryLog::new();
        let deadline = Duration::from_millis(40);
        let monitor = HeartbeatMonitor::spawn(
            fabric.clone(),
            Arc::clone(&coordinator),
            log.clone(),
            deadline,
            1,
        );
        // Rank 1 dies; rank 0 keeps beating (as its fabric ops would).
        fabric.kill_rank(1, "crash");
        let deadline_hit = clock::now() + Duration::from_secs(2);
        while !fabric.aborted() && clock::now() < deadline_hit {
            fabric.beat(0);
            clock::sleep(Duration::from_millis(2));
        }
        assert!(fabric.aborted(), "monitor never aborted the fabric");
        // Rank 0 dies too, a moment after the abort: never declared, yet lost.
        fabric.kill_rank(0, "node-failure");
        let report = monitor.stop();
        assert_eq!(report.declared_dead, vec![1]);
        assert_eq!(report.lost(), vec![0, 1]);
        assert!(report.first_detection.is_some());
        assert_eq!(coordinator.dead_ranks(), vec![1]);
        // The commit barrier is poisoned: a survivor's commit fails immediately.
        assert!(coordinator.commit(0, 0, None).is_err());
        let latencies = log.detection_latencies_ms();
        assert_eq!(latencies.len(), 1, "one ground-truthed detection");
        assert!(
            (20..2000).contains(&latencies[0]),
            "latency {}ms should land near the deadline",
            latencies[0]
        );
        let kinds: Vec<_> = log.events().iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.iter().any(
            |k| matches!(k, RecoveryEventKind::RanksDeclaredDead { ranks, cause }
                if ranks == &vec![1] && cause == "crash")
        ));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, RecoveryEventKind::WorldAborted { .. })));
    }

    #[test]
    fn a_survivor_parked_at_the_commit_barrier_is_not_declared_dead() {
        let fabric = Fabric::new(FabricConfig::new(2, 1));
        let coordinator = Arc::new(
            Coordinator::new(2, None, CheckpointStorage::unmetered())
                .on_fabric(Some(fabric.clone())),
        );
        let monitor = HeartbeatMonitor::spawn(
            fabric.clone(),
            Arc::clone(&coordinator),
            RecoveryLog::new(),
            Duration::from_millis(50),
            1,
        );
        // Rank 1 dies before it can commit; rank 0 arrives at the barrier and waits
        // there, making no fabric call, until the detector poisons the round.
        fabric.kill_rank(1, "crash");
        let waited = coordinator.commit(0, 0, None);
        assert!(
            matches!(&waited, Err(MpiError::Checkpoint(reason)) if reason.contains("[1]")),
            "{waited:?}"
        );
        assert_eq!(monitor.stop().declared_dead, vec![1]);
        // A rank killed while it waits there finds out where it stands.
        let fabric = Fabric::new(FabricConfig::new(2, 2));
        let coordinator = Coordinator::new(2, None, CheckpointStorage::unmetered())
            .on_fabric(Some(fabric.clone()));
        fabric.kill_rank(0, "crash");
        assert_eq!(
            coordinator.commit(0, 0, None),
            Err(MpiError::RankKilled { rank: 0 })
        );
        assert!(coordinator.commit(1, 0, None).is_err(), "the round is lost");
    }

    #[test]
    fn monitor_stays_quiet_while_everyone_beats() {
        let fabric = Fabric::new(FabricConfig::new(2, 1));
        let coordinator = Arc::new(Coordinator::new(2, None, CheckpointStorage::unmetered()));
        let log = RecoveryLog::new();
        let monitor = HeartbeatMonitor::spawn(
            fabric.clone(),
            Arc::clone(&coordinator),
            log.clone(),
            Duration::from_millis(50),
            1,
        );
        for _ in 0..30 {
            fabric.beat(0);
            fabric.beat(1);
            clock::sleep(Duration::from_millis(5));
        }
        let report = monitor.stop();
        assert!(report.declared_dead.is_empty());
        assert!(!fabric.aborted());
        assert!(log.events().is_empty());
    }
}
