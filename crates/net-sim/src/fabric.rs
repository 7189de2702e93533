//! The fabric: the shared, in-memory "network" connecting all ranks of a job, and the
//! per-rank [`Endpoint`] the MPI implementations use to move bytes.
//!
//! Beyond plain delivery, the fabric carries the three lanes the self-healing
//! orchestrator is built on:
//!
//! * **A chaos lane.** An installed [`ChaosPlan`] can delay, drop (then retransmit)
//!   or reorder individual messages, partition rank sets, and kill ranks or whole
//!   "nodes" — all seeded and replayable. Masked faults are absorbed by per-pair
//!   sequencing plus the mailbox re-sequencing lane; lethal faults surface as
//!   [`MpiError::RankKilled`] on the victim and silence everywhere else.
//! * **A heartbeat lane.** When enabled, every endpoint operation (and every slice of
//!   a blocking wait) records a beat for its rank on a shared board. Beats from dead
//!   or partition-isolated ranks are suppressed, so "no beat within the deadline" is
//!   exactly the observable a failure detector needs.
//! * **An abort lane.** [`Fabric::abort`] wakes every blocked rank with
//!   [`MpiError::JobAborted`], which is how a detector tears down a world whose
//!   survivors are wedged on a dead peer.

use crate::bytes::PayloadBuf;
use crate::chaos::{ChaosPlan, FaultKind};
use crate::mailbox::Mailbox;
use crate::message::{Envelope, MatchSpec};
use crate::stats::{FabricStats, StatsSnapshot};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::status::Status;
use mpi_model::types::{ContextId, Rank};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a blocking wait lasts, counted from its first park, before the fabric
/// declares the job wedged. Real MPI would hang forever; failing fast keeps the test
/// suite debuggable. Generous enough for heavily oversubscribed CI machines.
const BLOCKING_TIMEOUT: Duration = Duration::from_secs(60);

/// Wait-slice length used once the fabric is "lively" (chaos installed or heartbeats
/// enabled): blocked ranks wake this often to beat, pump held messages, and notice
/// deaths or aborts. Without liveliness, a wait parks until woken or timed out.
const WAIT_SLICE: Duration = Duration::from_millis(2);

/// How many times a wait probes its state, yielding the core between probes, before
/// it goes on to park. A fixed count, not a duration: a wait reads no clock until it
/// parks. Ranks of a bulk-synchronous step reach a receive or a collective tens of
/// microseconds apart, which is about what this many yields cover, and whatever is
/// caught in the spin costs neither side a futex round trip. Checked on the repo
/// benchmark's workloads (steps/s at 0 / 32 / 128 / 512, medians of three 10 s
/// runs): `collective_scf` 2.8k / 10.6k / 11.1k / 10.7k, `halo_p2p` 6.0k / 7.1k /
/// 7.4k / 6.7k, `ckpt_incremental` 5.7k / 7.1k / 6.8k / 6.9k; `ckpt_full_async`,
/// one rank that never waits, does not care.
const PARK_SPIN: u32 = 128;

/// Configuration for a fabric instance.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of ranks connected to the fabric.
    pub world_size: usize,
    /// Session nonce distinguishing this "hardware instantiation" from any other.
    ///
    /// This models the non-checkpointable NIC/switch state: a restarted job gets a new
    /// fabric with a new nonce, and nothing in a checkpoint image may depend on it.
    pub(crate) session_nonce: u64,
}

impl FabricConfig {
    /// Convenience constructor.
    pub fn new(world_size: usize, session_nonce: u64) -> Self {
        FabricConfig {
            world_size,
            session_nonce,
        }
    }
}

/// One place ranks block — a rank's mailbox, the collective table, the registration
/// board: the state waited on, the condvar parked on, and how many are parked there.
/// Every blocking wait is [`Endpoint::park_until`] on one of them.
struct WaitSite<S> {
    /// What the wait diagnostic calls this site.
    name: &'static str,
    state: Mutex<S>,
    changed: Condvar,
    /// Only written with `state` held, which is also what orders it (`Relaxed`).
    parked: AtomicUsize,
}

impl<S> WaitSite<S> {
    #[track_caller]
    fn new(name: &'static str, state: S) -> Self {
        WaitSite {
            name,
            state: Mutex::new(state),
            changed: Condvar::new(),
            parked: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, S> {
        self.state.lock()
    }

    /// The one wake discipline: whoever changes something a waiter may be parked on
    /// — the site's state, or the failure lane its wait slices re-read — passes
    /// through the site's mutex (`site.wake(site.lock())` if the change was made
    /// elsewhere) and notifies only if someone is parked. A waiter holds the mutex
    /// from its probe to its park, so it probes after the change or is counted
    /// already: no wake-up is lost, and a change nobody waits for costs no notify.
    fn wake(&self, held: MutexGuard<'_, S>) {
        let parked = self.parked.load(Ordering::Relaxed) > 0;
        drop(held);
        if parked {
            self.changed.notify_all();
        }
    }
}

struct RankSlot {
    mailbox: WaitSite<Mailbox>,
    open: AtomicBool,
}

struct CollectiveSlot {
    expected: usize,
    contributions: HashMap<usize, PayloadBuf>,
    /// The ordered contributions, shared: every reader receives refcount bumps of
    /// the same `expected` buffers, so an N-way fan-out moves no payload bytes.
    result: Option<Arc<Vec<PayloadBuf>>>,
    readers_remaining: usize,
}

/// Registration board entry for one collective round: who has announced intent to
/// enter the collective keyed by `(context, seq)`. The board is the fabric half of
/// the two-phase collective protocol ("trivial barrier"): a member may *withdraw* its
/// registration — atomically, and only while the round is still incomplete — which is
/// what lets a rank step out to service a checkpoint without ever being caught inside
/// the collective's critical phase.
struct RegistrationSlot {
    expected: usize,
    registered: MemberSet,
    /// Once every member has registered the round is *committed*: withdrawals fail
    /// and every member must proceed into the real collective exchange.
    committed: bool,
}

/// A set of communicator member indices as a bitmap. Members 0..64 live inline, so
/// a round on a communicator of up to 64 ranks allocates nothing.
#[derive(Default)]
struct MemberSet {
    low: u64,
    high: Vec<u64>,
    len: usize,
}

impl MemberSet {
    fn contains(&self, index: usize) -> bool {
        let word = if index < 64 {
            self.low
        } else {
            self.high.get(index / 64 - 1).copied().unwrap_or(0)
        };
        word >> (index % 64) & 1 == 1
    }

    /// Add or remove `index`; setting a member to the state it already has is a no-op.
    fn set(&mut self, index: usize, present: bool) {
        if self.contains(index) == present {
            return;
        }
        let word = if index < 64 {
            &mut self.low
        } else {
            let at = index / 64 - 1;
            if self.high.len() <= at {
                self.high.resize(at + 1, 0);
            }
            &mut self.high[at]
        };
        *word ^= 1 << (index % 64);
        if present {
            self.len += 1;
        } else {
            self.len -= 1;
        }
    }
}

/// The member indices below `expected` that `present` rejects, for wait diagnostics.
fn absent(expected: usize, present: impl Fn(&usize) -> bool) -> Vec<usize> {
    (0..expected).filter(|index| !present(index)).collect()
}

/// A rank's death record: when it died and why.
#[derive(Debug, Clone)]
struct DeathRecord {
    at: Instant,
    cause: String,
}

/// One active network partition: `isolated` ranks cannot reach the rest of the world
/// (and their heartbeats are suppressed) until `heals_at`, if ever.
struct ActivePartition {
    isolated: HashSet<Rank>,
    started: Instant,
    heals_at: Option<Instant>,
}

/// Why a held message is being withheld, and when it may go.
enum Release {
    /// Deliver once this instant passes (delay, or drop-then-retransmit).
    At(Instant),
    /// Deliver once this many messages have been injected fabric-wide (reorder),
    /// or once the retransmit backstop instant passes — whichever comes first. The
    /// backstop matters at the tail of a run: if traffic ends before enough
    /// overtaking messages are injected, a real transport's retransmit timer still
    /// fires; without it the held message would be parked forever and wedge its
    /// receiver.
    AfterInjected(u64, Instant),
    /// Deliver once no active partition separates source from destination.
    WhenConnected,
}

/// Retransmit backstop for reorder holds: long enough that overtaking traffic
/// normally wins the race (the reorder is observed), short enough to stay inside
/// the masked-outage envelope of every heartbeat deadline used in practice.
const REORDER_BACKSTOP: Duration = Duration::from_millis(50);

struct HeldEnvelope {
    envelope: Envelope,
    release: Release,
}

/// Installed chaos plan plus per-fault fired flags.
struct ChaosExec {
    plan: ChaosPlan,
    fired: Vec<bool>,
}

struct FabricInner {
    world_size: usize,
    session_nonce: u64,
    epoch: Instant,
    slots: Vec<RankSlot>,
    collectives: WaitSite<HashMap<(ContextId, u64), CollectiveSlot>>,
    registrations: WaitSite<HashMap<(ContextId, u64), RegistrationSlot>>,
    next_context: AtomicU64,
    next_seq: AtomicU64,
    /// Per-(source, destination) consecutive delivery sequence counters, row-major
    /// `source * world_size + dest`. Assigned at injection, before chaos.
    pair_seqs: Vec<AtomicU64>,
    /// Fabric operations performed, per rank and globally; trigger clocks for chaos.
    rank_ops: Vec<AtomicU64>,
    global_ops: AtomicU64,
    collective_entries: Vec<AtomicU64>,
    injected_messages: AtomicU64,
    /// Whether any chaos/heartbeat machinery is active; when false every per-op hook
    /// is a single relaxed load and blocking waits use the full timeout.
    lively: AtomicBool,
    heartbeats_enabled: AtomicBool,
    /// Microseconds since `epoch` of each rank's last heartbeat.
    beats: Vec<AtomicU64>,
    deaths: Mutex<HashMap<Rank, DeathRecord>>,
    aborted: AtomicBool,
    abort_reason: Mutex<Option<String>>,
    partitions: Mutex<Vec<ActivePartition>>,
    held: Mutex<Vec<HeldEnvelope>>,
    chaos: Mutex<Option<ChaosExec>>,
    stats: FabricStats,
}

/// The shared fabric connecting every rank of one job (one "session" of the network
/// hardware). Cloning is cheap (it is an `Arc` underneath); each simulated MPI
/// implementation's launch routine creates one fabric and hands each rank an
/// [`Endpoint`] onto it.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("world_size", &self.inner.world_size)
            .field("session_nonce", &self.inner.session_nonce)
            .finish()
    }
}

impl Fabric {
    /// Create a new fabric for `config.world_size` ranks.
    pub fn new(config: FabricConfig) -> Self {
        let slots = (0..config.world_size)
            .map(|_| RankSlot {
                mailbox: WaitSite::new("mailbox", Mailbox::new()),
                open: AtomicBool::new(true),
            })
            .collect();
        let n = config.world_size;
        Fabric {
            inner: Arc::new(FabricInner {
                world_size: n,
                session_nonce: config.session_nonce,
                epoch: crate::clock::now(),
                slots,
                collectives: WaitSite::new("collective table", HashMap::new()),
                registrations: WaitSite::new("registration board", HashMap::new()),
                // Contexts 1 and 2 are reserved for MPI_COMM_WORLD / MPI_COMM_SELF.
                next_context: AtomicU64::new(16),
                next_seq: AtomicU64::new(0),
                pair_seqs: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
                rank_ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
                global_ops: AtomicU64::new(0),
                collective_entries: (0..n).map(|_| AtomicU64::new(0)).collect(),
                injected_messages: AtomicU64::new(0),
                lively: AtomicBool::new(false),
                heartbeats_enabled: AtomicBool::new(false),
                beats: (0..n).map(|_| AtomicU64::new(0)).collect(),
                deaths: Mutex::new(HashMap::new()),
                aborted: AtomicBool::new(false),
                abort_reason: Mutex::new(None),
                partitions: Mutex::new(Vec::new()),
                held: Mutex::new(Vec::new()),
                chaos: Mutex::new(None),
                stats: FabricStats::new(),
            }),
        }
    }

    /// Number of ranks connected to this fabric.
    pub fn world_size(&self) -> usize {
        self.inner.world_size
    }

    /// Obtain the endpoint for `world_rank`.
    pub fn endpoint(&self, world_rank: Rank) -> MpiResult<Endpoint> {
        if world_rank < 0 || world_rank as usize >= self.inner.world_size {
            return Err(MpiError::InvalidRank {
                rank: world_rank,
                size: self.inner.world_size,
            });
        }
        Ok(Endpoint {
            inner: Arc::clone(&self.inner),
            world_rank,
            deadline: Cell::new(None),
        })
    }

    /// Allocate a fresh communication context (one per communicator created by the
    /// implementation using this fabric).
    pub fn allocate_context(&self) -> ContextId {
        self.inner.next_context.fetch_add(1, Ordering::Relaxed)
    }

    /// Total number of point-to-point messages currently in flight (injected but not
    /// yet received — chaos-held messages included), across all ranks. After a correct
    /// MANA drain this is zero.
    #[cfg(test)]
    fn pending_messages(&self) -> usize {
        let queued: usize = self
            .inner
            .slots
            .iter()
            .map(|s| s.mailbox.lock().pending())
            .sum();
        queued + self.inner.held.lock().len()
    }

    /// Number of in-flight messages addressed to one rank (chaos-held included).
    #[cfg(test)]
    fn pending_for_rank(&self, world_rank: Rank) -> MpiResult<usize> {
        let slot =
            self.inner
                .slots
                .get(world_rank.max(0) as usize)
                .ok_or(MpiError::InvalidRank {
                    rank: world_rank,
                    size: self.inner.world_size,
                })?;
        let held = self
            .inner
            .held
            .lock()
            .iter()
            .filter(|h| h.envelope.dest_world == world_rank)
            .count();
        Ok(slot.mailbox.lock().pending() + held)
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Total number of envelopes that arrived out of order at some mailbox and were
    /// re-sequenced before becoming visible — a direct measure of how much network
    /// misbehaviour the transport masked.
    #[cfg(test)]
    fn resequenced_messages(&self) -> u64 {
        self.inner
            .slots
            .iter()
            .map(|s| s.mailbox.lock().resequenced)
            .sum()
    }

    // ------------------------------------------------------------------
    // Chaos lane
    // ------------------------------------------------------------------

    /// Install a chaos plan. Subsequent fabric operations consult it; each fault fires
    /// at most once. Installing a plan makes the fabric lively (sliced waits).
    pub fn install_chaos(&self, plan: ChaosPlan) {
        let fired = vec![false; plan.faults.len()];
        *self.inner.chaos.lock() = Some(ChaosExec { plan, fired });
        self.inner.set_lively();
    }

    /// Plan indices of the faults that have fired so far (empty without a plan).
    pub fn fired_fault_ids(&self) -> Vec<usize> {
        match self.inner.chaos.lock().as_ref() {
            Some(exec) => exec
                .fired
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.then_some(i))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Kill `world_rank` immediately (manual fault injection): its next fabric
    /// operation — and every one after — fails with [`MpiError::RankKilled`], its
    /// heartbeats stop, and messages addressed to it vanish. Peers are *not* notified;
    /// detection is the failure detector's job.
    pub fn kill_rank(&self, world_rank: Rank, cause: &str) {
        self.inner.kill(world_rank, cause);
    }

    /// Ranks currently marked dead.
    pub fn dead_ranks(&self) -> Vec<Rank> {
        let mut ranks: Vec<Rank> = self.inner.deaths.lock().keys().copied().collect();
        ranks.sort_unstable();
        ranks
    }

    /// Whether `world_rank` is marked dead.
    pub fn is_dead(&self, world_rank: Rank) -> bool {
        self.inner.deaths.lock().contains_key(&world_rank)
    }

    /// Cause label recorded when `world_rank` was killed ("crash",
    /// "crash-in-collective", "node-failure", or a manual-injection label).
    pub fn death_cause(&self, world_rank: Rank) -> Option<String> {
        self.inner
            .deaths
            .lock()
            .get(&world_rank)
            .map(|r| r.cause.clone())
    }

    /// The instant `world_rank`'s failure began, if it is currently failed: its death
    /// instant, or the start of the partition isolating it. This is the ground truth a
    /// detector's latency is measured against.
    pub fn failure_instant(&self, world_rank: Rank) -> Option<Instant> {
        if let Some(record) = self.inner.deaths.lock().get(&world_rank) {
            return Some(record.at);
        }
        self.inner
            .partitions
            .lock()
            .iter()
            .filter(|p| p.isolated.contains(&world_rank))
            .map(|p| p.started)
            .min()
    }

    /// Start a network partition isolating `isolated` from every other rank. Cross-cut
    /// messages are buffered until the partition heals (after `heal_after`, if given;
    /// never, otherwise), collective entries from isolated ranks stall, and isolated
    /// ranks' heartbeats are suppressed. A heal faster than the failure detector's
    /// deadline is therefore fully masked; a slower one is indistinguishable from
    /// death — exactly as in a real cluster.
    pub fn inject_partition(&self, isolated: &[Rank], heal_after: Option<Duration>) {
        self.inner.set_lively();
        self.inner.start_partition(
            isolated.iter().copied().collect(),
            heal_after.map(|d| crate::clock::now() + d),
        );
    }

    /// Whether any partition is currently active.
    pub fn partitioned(&self) -> bool {
        !self.inner.partitions.lock().is_empty()
    }

    // ------------------------------------------------------------------
    // Heartbeat lane
    // ------------------------------------------------------------------

    /// Enable the heartbeat lane: every endpoint operation (and every slice of a
    /// blocking wait) from a live, connected rank records a beat. All ranks start
    /// with a fresh beat so ages are meaningful immediately.
    pub fn enable_heartbeats(&self) {
        let now = self.inner.micros();
        for beat in &self.inner.beats {
            beat.store(now, Ordering::Relaxed);
        }
        self.inner.heartbeats_enabled.store(true, Ordering::Release);
        self.inner.set_lively();
    }

    /// Age of each rank's most recent heartbeat. Meaningless (all zero-ish) before
    /// [`Fabric::enable_heartbeats`].
    pub fn heartbeat_ages(&self) -> Vec<Duration> {
        let now = self.inner.micros();
        self.inner
            .beats
            .iter()
            .map(|b| Duration::from_micros(now.saturating_sub(b.load(Ordering::Relaxed))))
            .collect()
    }

    /// Record a heartbeat for `world_rank` from outside the endpoint op stream (e.g.
    /// from a compute-only phase that performs no MPI calls). Suppressed for dead or
    /// isolated ranks, like every other beat.
    pub fn beat(&self, world_rank: Rank) {
        self.inner.beat(world_rank);
    }

    // ------------------------------------------------------------------
    // Abort lane
    // ------------------------------------------------------------------

    /// Abort the job fabric-wide: every rank's next (or currently blocked) fabric
    /// operation fails with [`MpiError::JobAborted`]. Idempotent; the first reason
    /// wins.
    pub fn abort(&self, reason: &str) {
        {
            let mut slot = self.inner.abort_reason.lock();
            if slot.is_none() {
                *slot = Some(reason.to_string());
            }
        }
        self.inner.aborted.store(true, Ordering::Release);
        self.inner.set_lively();
    }

    /// Whether the fabric has been aborted.
    pub fn aborted(&self) -> bool {
        self.inner.aborted.load(Ordering::Acquire)
    }

    /// The abort reason, if aborted.
    pub fn abort_reason(&self) -> Option<String> {
        self.inner.abort_reason.lock().clone()
    }
}

impl FabricInner {
    fn micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn is_dead(&self, rank: Rank) -> bool {
        self.deaths.lock().contains_key(&rank)
    }

    fn is_isolated(&self, rank: Rank) -> bool {
        self.partitions
            .lock()
            .iter()
            .any(|p| p.isolated.contains(&rank))
    }

    /// Whether an active partition separates `a` from `b` (exactly one of the two is
    /// on the isolated side of some cut).
    fn cut(&self, a: Rank, b: Rank) -> bool {
        self.partitions
            .lock()
            .iter()
            .any(|p| p.isolated.contains(&a) != p.isolated.contains(&b))
    }

    fn beat(&self, rank: Rank) {
        if !self.heartbeats_enabled.load(Ordering::Acquire) {
            return;
        }
        if self.is_dead(rank) || self.is_isolated(rank) {
            return;
        }
        if let Some(slot) = self.beats.get(rank.max(0) as usize) {
            slot.store(self.micros(), Ordering::Relaxed);
        }
    }

    fn kill(&self, rank: Rank, cause: &str) {
        {
            let mut deaths = self.deaths.lock();
            if deaths.contains_key(&rank) {
                return;
            }
            deaths.insert(
                rank,
                DeathRecord {
                    at: crate::clock::now(),
                    cause: cause.to_string(),
                },
            );
        }
        // Wake the victim wherever it is blocked so it notices its own death.
        self.set_lively();
    }

    /// Put the fabric in lively (sliced-wait) mode and wake every parked rank, so it
    /// re-reads the failure lane and its wait slice: left on an unsliced wait it is
    /// beat-less and blind to chaos, and a failure detector would declare it dead.
    fn set_lively(&self) {
        self.lively.store(true, Ordering::Release);
        for slot in &self.slots {
            slot.mailbox.wake(slot.mailbox.lock());
        }
        self.collectives.wake(self.collectives.lock());
        self.registrations.wake(self.registrations.lock());
    }

    fn start_partition(&self, isolated: HashSet<Rank>, heals_at: Option<Instant>) {
        self.partitions.lock().push(ActivePartition {
            isolated,
            started: crate::clock::now(),
            heals_at,
        });
    }

    /// Deposit an envelope into its destination mailbox (dropping it silently if the
    /// destination is dead or closed) and wake the destination.
    fn deliver(&self, envelope: Envelope) {
        let dest = envelope.dest_world;
        if self.is_dead(dest) {
            return;
        }
        let Some(slot) = self.slots.get(dest.max(0) as usize) else {
            return;
        };
        if !slot.open.load(Ordering::Acquire) {
            return;
        }
        let mut mailbox = slot.mailbox.lock();
        mailbox.deposit(envelope);
        slot.mailbox.wake(mailbox);
    }

    /// Advance chaos time: heal due partitions, fire due global-op-triggered faults,
    /// and release held messages whose release condition is now met. Must be called
    /// with **no mailbox or collective-table lock held**.
    fn pump(&self) {
        let now = crate::clock::now();
        // Heal partitions whose deadline has passed.
        let healed = {
            let mut partitions = self.partitions.lock();
            let active = partitions.len();
            partitions.retain(|p| p.heals_at.is_none_or(|at| now < at));
            partitions.len() < active
        };
        if healed {
            // A rank the cut stalled in front of a collective is parked on the table.
            self.collectives.wake(self.collectives.lock());
        }
        // Fire global-op-count faults: partitions and node failures.
        let global = self.global_ops.load(Ordering::Relaxed);
        let mut to_start: Vec<(HashSet<Rank>, Option<Duration>)> = Vec::new();
        let mut to_kill: Vec<Rank> = Vec::new();
        {
            let mut chaos = self.chaos.lock();
            if let Some(exec) = chaos.as_mut() {
                for (id, fault) in exec.plan.faults.iter().enumerate() {
                    if exec.fired[id] {
                        continue;
                    }
                    match fault {
                        FaultKind::Partition {
                            at_op,
                            isolated,
                            heal_ms,
                        } if *at_op <= global => {
                            exec.fired[id] = true;
                            to_start.push((
                                isolated.iter().copied().collect(),
                                heal_ms.map(Duration::from_millis),
                            ));
                        }
                        FaultKind::KillNode { ranks, at_op } if *at_op <= global => {
                            exec.fired[id] = true;
                            to_kill.extend(ranks);
                        }
                        _ => {}
                    }
                }
            }
        }
        for (isolated, heal) in to_start {
            self.start_partition(isolated, heal.map(|d| now + d));
        }
        for rank in to_kill {
            self.kill(rank, "node-failure");
        }
        // Release held messages whose condition is met.
        let injected = self.injected_messages.load(Ordering::Relaxed);
        let due: Vec<Envelope> = {
            let mut held = self.held.lock();
            let mut due = Vec::new();
            held.retain_mut(|h| {
                let ready = match h.release {
                    Release::At(at) => now >= at,
                    Release::AfterInjected(n, backstop) => injected >= n || now >= backstop,
                    Release::WhenConnected => {
                        !self.cut(h.envelope.source_world, h.envelope.dest_world)
                    }
                };
                if ready {
                    due.push(std::mem::replace(
                        &mut h.envelope,
                        Envelope {
                            source_world: 0,
                            source_comm_rank: 0,
                            dest_world: 0,
                            context: 0,
                            tag: 0,
                            seq: 0,
                            pair_seq: 0,
                            payload: PayloadBuf::new(),
                        },
                    ));
                    false
                } else {
                    true
                }
            });
            due
        };
        for envelope in due {
            // A release is a redelivery of the originally injected buffer — the
            // retransmit/reorder lane reshares, it never re-copies.
            self.stats.record_payload_share(envelope.payload.len());
            self.deliver(envelope);
        }
    }

    /// Per-operation hook: count the op, fire this rank's own crash triggers, advance
    /// chaos time, beat, and fail if the rank is dead or the job aborted. Must be
    /// called with no fabric lock held.
    fn tick_op(&self, rank: Rank) -> MpiResult<()> {
        if !self.lively.load(Ordering::Acquire) {
            return Ok(());
        }
        let ops = self.rank_ops[rank.max(0) as usize].fetch_add(1, Ordering::Relaxed) + 1;
        self.global_ops.fetch_add(1, Ordering::Relaxed);
        let mut crash = false;
        {
            let mut chaos = self.chaos.lock();
            if let Some(exec) = chaos.as_mut() {
                for (id, fault) in exec.plan.faults.iter().enumerate() {
                    if exec.fired[id] {
                        continue;
                    }
                    if let FaultKind::CrashRank {
                        rank: victim,
                        at_rank_op,
                    } = fault
                    {
                        if *victim == rank && *at_rank_op <= ops {
                            exec.fired[id] = true;
                            crash = true;
                            break;
                        }
                    }
                }
            }
        }
        if crash {
            self.kill(rank, "crash");
        }
        self.tick_wait(rank)
    }

    /// Wait-slice hook: advance chaos time and beat without counting an operation.
    fn tick_wait(&self, rank: Rank) -> MpiResult<()> {
        if !self.lively.load(Ordering::Acquire) {
            return Ok(());
        }
        self.pump();
        self.beat(rank);
        self.check_alive(rank)
    }

    fn check_alive(&self, rank: Rank) -> MpiResult<()> {
        if self.is_dead(rank) {
            return Err(MpiError::RankKilled { rank });
        }
        if self.aborted.load(Ordering::Acquire) {
            let reason = self
                .abort_reason
                .lock()
                .clone()
                .unwrap_or_else(|| "unspecified".into());
            return Err(MpiError::JobAborted(reason));
        }
        Ok(())
    }

    /// Collective-entry hook: count the entry and fire this rank's mid-collective
    /// crash triggers (the victim dies *after* registering intent, *before*
    /// contributing — the nastiest possible moment).
    fn tick_collective_entry(&self, rank: Rank) -> MpiResult<()> {
        if !self.lively.load(Ordering::Acquire) {
            return Ok(());
        }
        let entries =
            self.collective_entries[rank.max(0) as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let mut crash = false;
        {
            let mut chaos = self.chaos.lock();
            if let Some(exec) = chaos.as_mut() {
                for (id, fault) in exec.plan.faults.iter().enumerate() {
                    if exec.fired[id] {
                        continue;
                    }
                    if let FaultKind::CrashInCollective {
                        rank: victim,
                        at_entry,
                    } = fault
                    {
                        if *victim == rank && *at_entry <= entries {
                            exec.fired[id] = true;
                            crash = true;
                            break;
                        }
                    }
                }
            }
        }
        if crash {
            self.kill(rank, "crash-in-collective");
        }
        self.check_alive(rank)
    }

    /// Route a freshly injected envelope through the chaos layer: drop it if the
    /// destination is dead, hold it if a partition cuts the pair or a message fault
    /// matches its injection index, otherwise deliver immediately.
    fn route(&self, envelope: Envelope) {
        if self.is_dead(envelope.dest_world) {
            return;
        }
        if self.cut(envelope.source_world, envelope.dest_world) {
            self.held.lock().push(HeldEnvelope {
                envelope,
                release: Release::WhenConnected,
            });
            return;
        }
        let idx = self.injected_messages.fetch_add(1, Ordering::Relaxed);
        let mut verdict: Option<Release> = None;
        {
            let mut chaos = self.chaos.lock();
            if let Some(exec) = chaos.as_mut() {
                for (id, fault) in exec.plan.faults.iter().enumerate() {
                    if exec.fired[id] {
                        continue;
                    }
                    match fault {
                        FaultKind::DelayMessage { nth, hold_ms } if *nth == idx => {
                            exec.fired[id] = true;
                            verdict = Some(Release::At(
                                crate::clock::now() + Duration::from_millis(*hold_ms),
                            ));
                        }
                        FaultKind::DropMessage { nth, retransmit_ms } if *nth == idx => {
                            exec.fired[id] = true;
                            verdict = Some(Release::At(
                                crate::clock::now() + Duration::from_millis(*retransmit_ms),
                            ));
                        }
                        FaultKind::ReorderMessage { nth, overtaken_by } if *nth == idx => {
                            exec.fired[id] = true;
                            verdict = Some(Release::AfterInjected(
                                idx + overtaken_by,
                                crate::clock::now() + REORDER_BACKSTOP,
                            ));
                        }
                        _ => {}
                    }
                    if verdict.is_some() {
                        break;
                    }
                }
            }
        }
        match verdict {
            Some(release) => self.held.lock().push(HeldEnvelope { envelope, release }),
            None => self.deliver(envelope),
        }
    }
}

/// One rank's attachment to the fabric. All methods are callable from that rank's
/// thread; the endpoint is `Send` so the owning lower half can live inside a rank
/// thread.
pub struct Endpoint {
    inner: Arc<FabricInner>,
    world_rank: Rank,
    /// The deadline of a wait this rank has parked in and not finished: left here
    /// when a `park_until` call runs out of patience, taken up by the next call.
    deadline: Cell<Option<Instant>>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("world_rank", &self.world_rank)
            .finish()
    }
}

impl Endpoint {
    /// World rank of this endpoint.
    pub fn world_rank(&self) -> Rank {
        self.world_rank
    }

    /// Number of ranks on the fabric.
    pub fn world_size(&self) -> usize {
        self.inner.world_size
    }

    /// Allocate a fresh communication context.
    pub fn allocate_context(&self) -> ContextId {
        self.inner.next_context.fetch_add(1, Ordering::Relaxed)
    }

    fn slot(&self, world_rank: Rank) -> MpiResult<&RankSlot> {
        if world_rank < 0 {
            return Err(MpiError::InvalidRank {
                rank: world_rank,
                size: self.inner.world_size,
            });
        }
        self.inner
            .slots
            .get(world_rank as usize)
            .ok_or(MpiError::InvalidRank {
                rank: world_rank,
                size: self.inner.world_size,
            })
    }

    /// The fabric's one blocking wait: block this rank until `probe`, run on the
    /// state of `site` under its mutex, yields a value. One policy for every caller
    /// (DESIGN.md, "Blocking waits"). Probe; then up to [`PARK_SPIN`] rounds of
    /// yield-and-probe, the mutex dropped in between and no clock read; then park on
    /// the site's condvar in slices — [`WAIT_SLICE`] on a lively fabric (read under
    /// the mutex, so a fabric that turned lively since the probe is seen), the rest
    /// of the wait otherwise. Before every slice, with no lock held (the pump may
    /// need the site), `tick_wait` beats, pumps chaos and surfaces death or abort.
    ///
    /// The first park sets the wait's deadline [`BLOCKING_TIMEOUT`] ahead; a wait
    /// unsatisfied when it passes fails with the one diagnostic: rank, site, and
    /// `describe`'s account of what is waited for and what is still missing.
    /// `patience` bounds this call rather than the wait: after that long parked it
    /// returns the value paired with it and leaves the deadline with the endpoint,
    /// so the caller's next call resumes the wait (and spins no more).
    fn park_until<S, T>(
        &self,
        site: &WaitSite<S>,
        patience: Option<(Duration, T)>,
        mut probe: impl FnMut(&mut S) -> MpiResult<Option<T>>,
        describe: impl FnOnce(&S) -> String,
    ) -> MpiResult<T> {
        let resumed = self.deadline.take();
        let mut state = site.lock();
        if let Some(found) = probe(&mut state)? {
            return Ok(found);
        }
        if resumed.is_none() {
            for _ in 0..PARK_SPIN {
                drop(state);
                std::thread::yield_now();
                state = site.lock();
                if let Some(found) = probe(&mut state)? {
                    return Ok(found);
                }
            }
        }
        let mut now = crate::clock::now();
        let deadline = resumed.unwrap_or(now + BLOCKING_TIMEOUT);
        let (patience, not_yet) = patience.unzip();
        let until = patience.map_or(deadline, |patience| deadline.min(now + patience));
        loop {
            drop(state);
            self.inner.tick_wait(self.world_rank)?;
            state = site.lock();
            if let Some(found) = probe(&mut state)? {
                return Ok(found);
            }
            if now >= deadline {
                return Err(MpiError::Internal(format!(
                    "rank {} blocked at the {} for more than {BLOCKING_TIMEOUT:?}, waiting for {}",
                    self.world_rank,
                    site.name,
                    describe(&state)
                )));
            }
            match not_yet {
                Some(not_yet) if now >= until => {
                    self.deadline.set(Some(deadline));
                    return Ok(not_yet);
                }
                _ => {}
            }
            let mut slice = until.saturating_duration_since(now);
            if self.inner.lively.load(Ordering::Acquire) {
                slice = slice.min(WAIT_SLICE);
            }
            site.parked.fetch_add(1, Ordering::Relaxed);
            self.inner.stats.record_park();
            site.changed.wait_for(&mut state, slice);
            site.parked.fetch_sub(1, Ordering::Relaxed);
            now = crate::clock::now();
        }
    }

    /// Inject a point-to-point message (eager protocol: the payload is buffered at the
    /// destination immediately, whether or not a receive is posted). Under chaos the
    /// message may be held, dropped-then-retransmitted, or reordered — all invisibly
    /// to the receiver, thanks to the per-pair sequence assigned here at injection.
    ///
    /// The payload is taken by value as a [`PayloadBuf`] (a `Vec<u8>` converts with
    /// one copy): injection is a pointer hand-off, and every downstream hop — mailbox
    /// deposit, re-sequencing park, chaos hold and retransmit — shares the same
    /// allocation.
    pub fn send(
        &self,
        dest_world: Rank,
        source_comm_rank: Rank,
        context: ContextId,
        tag: i32,
        payload: impl Into<PayloadBuf>,
    ) -> MpiResult<()> {
        self.inner.tick_op(self.world_rank)?;
        let payload = payload.into();
        let dest = self.slot(dest_world)?;
        if !dest.open.load(Ordering::Acquire) {
            return Err(MpiError::PeerUnreachable(dest_world));
        }
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let pair_seq = self.inner.pair_seqs
            [self.world_rank as usize * self.inner.world_size + dest_world as usize]
            .fetch_add(1, Ordering::Relaxed);
        self.inner.stats.record_send(payload.len());
        // The one materialization per message: the caller built this buffer. Every
        // later hop (mailbox, park, hold, retransmit) must show up as shared bytes.
        self.inner.stats.record_payload_copy(payload.len());
        let envelope = Envelope {
            source_world: self.world_rank,
            source_comm_rank,
            dest_world,
            context,
            tag,
            seq,
            pair_seq,
            payload,
        };
        self.inner.route(envelope);
        Ok(())
    }

    /// Non-blocking receive: take the earliest matching message if one is present.
    pub fn try_recv(&self, spec: &MatchSpec) -> MpiResult<Option<Envelope>> {
        self.inner.tick_op(self.world_rank)?;
        let slot = self.slot(self.world_rank)?;
        let mut mailbox = slot.mailbox.lock();
        let taken = mailbox.take(spec);
        if taken.is_some() {
            self.inner.stats.record_recv();
        }
        Ok(taken)
    }

    /// Blocking receive: wait until a matching message arrives, then take it. While
    /// blocked, the rank keeps heartbeating in wait slices and is woken early by its
    /// own death or a job abort.
    pub fn recv_blocking(&self, spec: &MatchSpec) -> MpiResult<Envelope> {
        self.inner.tick_op(self.world_rank)?;
        let slot = self.slot(self.world_rank)?;
        let envelope = self.park_until(
            &slot.mailbox,
            None,
            |mailbox| match mailbox.take(spec) {
                Some(envelope) => Ok(Some(envelope)),
                None if slot.open.load(Ordering::Acquire) => Ok(None),
                None => Err(MpiError::PeerUnreachable(self.world_rank)),
            },
            |mailbox| format!("a message matching {spec:?} ({} queued)", mailbox.pending()),
        )?;
        self.inner.stats.record_recv();
        Ok(envelope)
    }

    /// Probe for a matching message without consuming it (`MPI_Iprobe`).
    pub fn probe(&self, spec: &MatchSpec) -> MpiResult<Option<Status>> {
        self.inner.tick_op(self.world_rank)?;
        let slot = self.slot(self.world_rank)?;
        let mailbox = slot.mailbox.lock();
        Ok(mailbox
            .probe(spec)
            .map(|e| Status::new(e.source_comm_rank, e.tag, e.payload.len())))
    }

    /// Number of messages currently queued for this rank (any context). Also beats,
    /// since drain loops poll this while otherwise quiet.
    #[cfg(test)]
    fn pending_incoming(&self) -> usize {
        let _ = self.inner.tick_wait(self.world_rank);
        self.slot(self.world_rank)
            .map(|s| s.mailbox.lock().pending())
            .unwrap_or(0)
    }

    /// Number of messages currently queued for this rank on one context.
    #[cfg(test)]
    fn pending_incoming_for_context(&self, context: ContextId) -> usize {
        let _ = self.inner.tick_wait(self.world_rank);
        self.slot(self.world_rank)
            .map(|s| s.mailbox.lock().pending_for_context(context))
            .unwrap_or(0)
    }

    /// Mark this endpoint as closed: subsequent sends to it fail and blocked receives
    /// are woken with an error. Used for failure-injection tests.
    pub fn close(&self) {
        if let Ok(slot) = self.slot(self.world_rank) {
            slot.open.store(false, Ordering::Release);
            slot.mailbox.wake(slot.mailbox.lock());
        }
    }

    /// Whether this endpoint is still open.
    #[cfg(test)]
    fn is_open(&self) -> bool {
        self.slot(self.world_rank)
            .map(|s| s.open.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Synchronous all-to-all exchange used as the building block for every collective.
    ///
    /// All `comm_size` members of a communicator call this with the same `(context,
    /// seq)` key and their own `my_index` (their rank within the communicator). Every
    /// caller blocks until all contributions have arrived and then receives the full
    /// ordered vector of contributions. The `(context, seq)` key is what isolates
    /// concurrent collectives on different communicators — and why collective sequence
    /// numbers restart cleanly after a MANA restart (the new lower half starts a new
    /// context space on a new fabric).
    ///
    /// Under chaos: a partition-isolated rank stalls here (before contributing) until
    /// the partition heals, a mid-collective crash trigger kills the rank after its
    /// entry is counted but before its contribution lands, and a job abort wakes every
    /// blocked member with [`MpiError::JobAborted`].
    pub fn collective_exchange(
        &self,
        context: ContextId,
        seq: u64,
        my_index: usize,
        comm_size: usize,
        contribution: impl Into<PayloadBuf>,
    ) -> MpiResult<Vec<PayloadBuf>> {
        let contribution = contribution.into();
        if comm_size == 0 || my_index >= comm_size {
            return Err(MpiError::Internal(format!(
                "collective exchange with index {my_index} out of {comm_size}"
            )));
        }
        self.inner.tick_op(self.world_rank)?;
        self.inner.tick_collective_entry(self.world_rank)?;
        let key = (context, seq);
        // A partition-isolated rank cannot reach the exchange: stall until heal (or
        // death/abort), exactly like a real collective over a cut network.
        if self.inner.is_isolated(self.world_rank) {
            self.park_until(
                &self.inner.collectives,
                None,
                |_| Ok((!self.inner.is_isolated(self.world_rank)).then_some(())),
                |_| format!("the partition isolating it from collective {key:?} to heal"),
            )?;
        }
        self.inner.stats.record_collective(contribution.len());
        self.inner.stats.record_payload_copy(contribution.len());
        {
            let mut table = self.inner.collectives.lock();
            let slot = table.entry(key).or_insert_with(|| CollectiveSlot {
                expected: comm_size,
                contributions: HashMap::with_capacity(comm_size),
                result: None,
                readers_remaining: comm_size,
            });
            if slot.expected != comm_size {
                return Err(MpiError::CollectiveMismatch(format!(
                    "ranks disagree about communicator size: {} vs {}",
                    slot.expected, comm_size
                )));
            }
            if slot.contributions.insert(my_index, contribution).is_some() {
                return Err(MpiError::CollectiveMismatch(format!(
                    "rank index {my_index} contributed twice to collective {key:?}"
                )));
            }
            if slot.contributions.len() == slot.expected {
                // len == expected and double contributions are rejected above, so
                // every index is present — but a bookkeeping bug here must fail the
                // collective, not panic a rank mid-round.
                let ordered = (0..slot.expected)
                    .map(|i| {
                        slot.contributions.remove(&i).ok_or_else(|| {
                            MpiError::Internal(format!(
                                "collective {key:?}: contribution from rank index {i} missing \
                                 at completion"
                            ))
                        })
                    })
                    .collect::<MpiResult<Vec<_>>>()?;
                slot.result = Some(Arc::new(ordered));
                self.inner.collectives.wake(table);
            }
        }
        // Wait for completion, then pick up the shared result; the last reader
        // retires the slot.
        let (result, last_reader) = self.park_until(
            &self.inner.collectives,
            None,
            |table| {
                // The slot outlives its readers by construction; if it vanished
                // anyway, surface a typed fault instead of killing the rank.
                let slot = table.get_mut(&key).ok_or_else(|| {
                    MpiError::Internal(format!(
                        "collective slot {key:?} vanished while readers remained"
                    ))
                })?;
                let Some(result) = slot.result.clone() else {
                    return Ok(None);
                };
                slot.readers_remaining -= 1;
                let last_reader = slot.readers_remaining == 0;
                if last_reader {
                    table.remove(&key);
                }
                Ok(Some((result, last_reader)))
            },
            |table| {
                let slot = table.get(&key);
                let missing = slot.map(|s| absent(s.expected, |i| s.contributions.contains_key(i)));
                format!("collective {key:?} to complete (yet to contribute: {missing:?})")
            },
        )?;
        if last_reader {
            // The round is over: clear any registration-board entry for the same
            // key (every registrant necessarily contributed).
            self.inner.registrations.lock().remove(&key);
        }
        // Each reader's copy of the fan-out is refcount bumps of the shared
        // contribution buffers, never a byte copy.
        for buf in result.iter() {
            self.inner.stats.record_payload_share(buf.len());
        }
        Ok(result.as_ref().clone())
    }

    // ------------------------------------------------------------------
    // Two-phase collective registration ("trivial barrier") board
    // ------------------------------------------------------------------

    /// Announce intent to enter the collective `(context, seq)`. Idempotent: a member
    /// re-registering (after stepping out for a checkpoint) is a no-op. The last
    /// member to register *commits* the round — withdrawals start failing — and wakes
    /// every registrant parked in [`Endpoint::collective_await_commit`].
    ///
    /// Returns whether the round stands committed, i.e. whether the caller may skip
    /// the wait.
    pub fn collective_register(
        &self,
        context: ContextId,
        seq: u64,
        my_index: usize,
        comm_size: usize,
    ) -> MpiResult<bool> {
        if comm_size == 0 || my_index >= comm_size {
            return Err(MpiError::Internal(format!(
                "collective registration with index {my_index} out of {comm_size}"
            )));
        }
        self.inner.tick_op(self.world_rank)?;
        let mut board = self.inner.registrations.lock();
        let slot = board
            .entry((context, seq))
            .or_insert_with(|| RegistrationSlot {
                expected: comm_size,
                registered: MemberSet::default(),
                committed: false,
            });
        if slot.expected != comm_size {
            return Err(MpiError::CollectiveMismatch(format!(
                "ranks disagree about communicator size in registration: {} vs {}",
                slot.expected, comm_size
            )));
        }
        slot.registered.set(my_index, true);
        if !slot.committed && slot.registered.len == slot.expected {
            slot.committed = true;
            self.inner.registrations.wake(board);
            return Ok(true);
        }
        Ok(slot.committed)
    }

    /// Wait until the registration round `(context, seq)` commits, for at most
    /// `patience` (`None`: as long as the fabric lets any blocking operation wait).
    /// `Ok(true)` means committed; `Ok(false)` means `patience` ran out first, and
    /// the caller — still registered — may look around and call again: that resumes
    /// the wait, under the deadline its first park set. A round uncommitted at that
    /// deadline fails the wait (some member never registered); death and abort
    /// surface as in every blocking wait of the fabric.
    ///
    /// A missing slot reads as not committed. The caller is expected to hold a live
    /// registration of its own, and the slot of a committed round is only removed
    /// once every member — the caller included — has been through the exchange.
    pub fn collective_await_commit(
        &self,
        context: ContextId,
        seq: u64,
        patience: Option<Duration>,
    ) -> MpiResult<bool> {
        let key = (context, seq);
        self.park_until(
            &self.inner.registrations,
            patience.map(|patience| (patience, false)),
            |board| match board.get(&key) {
                Some(slot) if !slot.committed => Ok(None),
                slot => Ok(Some(slot.is_some())),
            },
            |board| {
                let slot = board.get(&key);
                let missing = slot.map(|s| absent(s.expected, |&i| s.registered.contains(i)));
                format!(
                    "registration round {key:?} to commit — a peer likely died before \
                     registering (not registered: {missing:?})"
                )
            },
        )
    }

    /// Atomically withdraw `my_index`'s registration from round `(context, seq)`.
    /// Returns `true` if the withdrawal succeeded (the rank is provably *outside* the
    /// collective and may safely checkpoint), `false` if the round has already
    /// committed — in which case the rank is obliged to enter the real collective
    /// before doing anything else. This check-and-remove is one critical section, so
    /// exactly one of "withdrawn" / "committed" holds for every member.
    pub fn collective_withdraw(
        &self,
        context: ContextId,
        seq: u64,
        my_index: usize,
    ) -> MpiResult<bool> {
        self.inner.tick_op(self.world_rank)?;
        let mut board = self.inner.registrations.lock();
        let Some(slot) = board.get_mut(&(context, seq)) else {
            // Nothing registered under this key: trivially out.
            return Ok(true);
        };
        if slot.committed {
            return Ok(false);
        }
        slot.registered.set(my_index, false);
        if slot.registered.len == 0 {
            board.remove(&(context, seq));
        }
        // Stepping out ends the wait, and with it the deadline an await left behind.
        self.deadline.set(None);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosMenu;
    use std::thread;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(FabricConfig::new(n, 0xdead_beef))
    }

    /// Block until ranks have parked `parks` times on the fabric (or are about to:
    /// the count moves under the site's mutex, which the park releases atomically,
    /// so anything done to that site after this returns lands on a parked rank).
    fn until_parked(f: &Fabric, parks: u64) {
        while f.stats().parks < parks {
            thread::yield_now();
        }
    }

    #[test]
    fn send_then_recv_same_thread() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        e0.send(1, 0, 1, 7, vec![1, 2, 3]).unwrap();
        assert_eq!(f.pending_messages(), 1);
        let spec = MatchSpec::from_mpi_args(1, 0, 7);
        let env = e1.recv_blocking(&spec).unwrap();
        assert_eq!(env.payload, vec![1, 2, 3]);
        assert_eq!(env.source_comm_rank, 0);
        assert_eq!(f.pending_messages(), 0);
        assert_eq!(f.stats().messages_sent, 1);
        assert_eq!(f.stats().messages_received, 1);
    }

    #[test]
    fn blocking_recv_waits_for_sender() {
        let f = fabric(2);
        let receiver = {
            let f = f.clone();
            thread::spawn(move || {
                let e1 = f.endpoint(1).unwrap();
                e1.recv_blocking(&MatchSpec::from_mpi_args(1, 0, 3))
            })
        };
        until_parked(&f, 1);
        let e0 = f.endpoint(0).unwrap();
        // A message the receive does not match wakes the receiver, no more.
        e0.send(1, 0, 1, 4, vec![8]).unwrap();
        e0.send(1, 0, 1, 3, vec![9]).unwrap();
        assert_eq!(receiver.join().unwrap().unwrap().payload, vec![9]);
        assert_eq!(f.pending_messages(), 1);
    }

    #[test]
    fn probe_and_try_recv() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        let spec = MatchSpec::from_mpi_args(1, 0, 5);
        assert!(e1.probe(&spec).unwrap().is_none());
        assert!(e1.try_recv(&spec).unwrap().is_none());
        e0.send(1, 0, 1, 5, vec![0; 16]).unwrap();
        let st = e1.probe(&spec).unwrap().unwrap();
        assert_eq!(st.count_bytes, 16);
        assert_eq!(e1.pending_incoming(), 1);
        assert!(e1.try_recv(&spec).unwrap().is_some());
        assert_eq!(e1.pending_incoming(), 0);
    }

    #[test]
    fn contexts_isolate_traffic() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        e0.send(1, 0, 100, 0, vec![1]).unwrap();
        // A receive on context 200 must not match the message on context 100.
        assert!(e1
            .try_recv(&MatchSpec::from_mpi_args(200, 0, 0))
            .unwrap()
            .is_none());
        assert_eq!(e1.pending_incoming_for_context(100), 1);
        assert_eq!(e1.pending_incoming_for_context(200), 0);
    }

    #[test]
    fn closed_endpoint_rejects_sends() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        assert!(e1.is_open());
        e1.close();
        assert!(!e1.is_open());
        assert_eq!(
            e0.send(1, 0, 1, 0, vec![1]),
            Err(MpiError::PeerUnreachable(1))
        );
    }

    #[test]
    fn collective_exchange_gathers_all_contributions() {
        let n = 4;
        let f = fabric(n);
        let mut handles = vec![];
        for rank in 0..n {
            let f = f.clone();
            handles.push(thread::spawn(move || {
                let ep = f.endpoint(rank as Rank).unwrap();
                ep.collective_exchange(1, 0, rank, n, vec![rank as u8; 2])
                    .unwrap()
            }));
        }
        for h in handles {
            let result = h.join().unwrap();
            assert_eq!(result.len(), n);
            for (i, contribution) in result.iter().enumerate() {
                assert_eq!(contribution, &vec![i as u8; 2]);
            }
        }
        // The collective slot must have been cleaned up.
        assert_eq!(f.inner.collectives.lock().len(), 0);
        assert_eq!(f.stats().collective_rounds, n as u64);
    }

    #[test]
    fn collective_mismatch_detected() {
        let f = fabric(3);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        // Rank 0 claims the communicator has 1 member and completes alone.
        e0.collective_exchange(7, 0, 0, 1, vec![]).unwrap();
        // Rank 1 then claims it has 2 members under the same key: size mismatch.
        // (The slot was cleaned up after rank 0's solo collective, so re-create it
        //  and then disagree within the same generation.)
        let r = e1.collective_exchange(7, 1, 0, 1, vec![]);
        assert!(r.is_ok());
        let e2 = f.endpoint(2).unwrap();
        let h = {
            let f = f.clone();
            thread::spawn(move || {
                let ep = f.endpoint(0).unwrap();
                ep.collective_exchange(9, 0, 0, 2, vec![])
            })
        };
        // Once rank 0 has created the slot with size 2, rank 2 disagrees with size 3.
        until_parked(&f, 1);
        let err = e2.collective_exchange(9, 0, 1, 3, vec![]).unwrap_err();
        assert!(matches!(err, MpiError::CollectiveMismatch(_)));
        // Unblock rank 0 by providing the second size-2 contribution.
        e1.collective_exchange(9, 0, 1, 2, vec![]).unwrap();
        h.join().unwrap().unwrap();
    }

    #[test]
    fn context_allocation_is_unique() {
        let f = fabric(2);
        let a = f.allocate_context();
        let b = f.allocate_context();
        let c = f.endpoint(0).unwrap().allocate_context();
        assert!(a != b && b != c && a != c);
        assert!(a >= 16, "low context ids are reserved for world/self");
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let f = fabric(2);
        assert!(f.endpoint(2).is_err());
        assert!(f.endpoint(-1).is_err());
        let e0 = f.endpoint(0).unwrap();
        assert!(e0.send(5, 0, 1, 0, vec![]).is_err());
        assert!(f.pending_for_rank(9).is_err());
    }

    #[test]
    fn registration_board_commits_and_blocks_withdrawal() {
        let f = fabric(3);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        let e2 = f.endpoint(2).unwrap();
        // Two of three register: not committed, withdrawal allowed (and idempotent
        // re-registration is a no-op).
        let brief = Some(Duration::ZERO);
        assert!(!e0.collective_register(40, 0, 0, 3).unwrap());
        assert!(!e0.collective_register(40, 0, 0, 3).unwrap());
        assert!(!e1.collective_register(40, 0, 1, 3).unwrap());
        assert!(!e0.collective_await_commit(40, 0, brief).unwrap());
        assert!(e1.collective_withdraw(40, 0, 1).unwrap());
        // After the withdrawal the last member cannot commit the round alone.
        assert!(!e2.collective_register(40, 0, 2, 3).unwrap());
        assert!(!e2.collective_await_commit(40, 0, brief).unwrap());
        // All three in: the last registration commits, withdrawal now fails for
        // everyone, and a late re-registration still reads committed.
        assert!(e1.collective_register(40, 0, 1, 3).unwrap());
        assert!(e0.collective_await_commit(40, 0, brief).unwrap());
        assert!(e0.collective_register(40, 0, 0, 3).unwrap());
        assert!(!e1.collective_withdraw(40, 0, 1).unwrap());
        assert!(!e0.collective_withdraw(40, 0, 0).unwrap());
        // A round nobody registered in reads as not committed.
        assert!(!e0.collective_await_commit(99, 0, brief).unwrap());
        // A size disagreement is caught at registration time.
        let err = e0.collective_register(40, 0, 0, 2).unwrap_err();
        assert!(matches!(err, MpiError::CollectiveMismatch(_)));
        // Completing the matching exchange clears the board entry.
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let f = f.clone();
                thread::spawn(move || {
                    let ep = f.endpoint(rank as Rank).unwrap();
                    ep.collective_exchange(40, 0, rank, 3, vec![]).unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.inner.registrations.lock().len(), 0);
        // A fully withdrawn round leaves no slot behind.
        e0.collective_register(41, 0, 0, 3).unwrap();
        assert!(e0.collective_withdraw(41, 0, 0).unwrap());
        assert_eq!(f.inner.registrations.lock().len(), 0);
    }

    #[test]
    fn parked_registrant_is_released_by_the_last_registration() {
        // Not lively: the park is one full BLOCKING_TIMEOUT slice, so only the
        // committing registration's notify can end it.
        let f = fabric(3);
        let parked = {
            let f = f.clone();
            thread::spawn(move || {
                let e0 = f.endpoint(0).unwrap();
                assert!(!e0.collective_register(7, 3, 0, 3).unwrap());
                e0.collective_await_commit(7, 3, None)
            })
        };
        until_parked(&f, 1);
        let e1 = f.endpoint(1).unwrap();
        let e2 = f.endpoint(2).unwrap();
        assert!(!e1.collective_register(7, 3, 1, 3).unwrap());
        assert!(
            !parked.is_finished(),
            "two of three must not release the park"
        );
        assert!(e2.collective_register(7, 3, 2, 3).unwrap());
        assert!(parked.join().unwrap().unwrap());
        assert_eq!(f.stats().parks, 1);
    }

    #[test]
    fn withdrawal_and_commit_stay_exactly_one_of_under_the_parked_wait() {
        // Rank 0 registers, waits a moment and withdraws while rank 1 registers:
        // whatever the interleaving, rank 0 ends up obliged to enter (it saw the
        // commit, or its withdrawal was refused) iff rank 1's registration committed.
        let f = fabric(2);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let late = {
            let (f, gate) = (f.clone(), Arc::clone(&gate));
            thread::spawn(move || {
                let e1 = f.endpoint(1).unwrap();
                (0..2_000u64)
                    .map(|seq| {
                        gate.wait();
                        e1.collective_register(5, seq, 1, 2).unwrap()
                    })
                    .collect::<Vec<bool>>()
            })
        };
        let e0 = f.endpoint(0).unwrap();
        let obliged: Vec<bool> = (0..2_000u64)
            .map(|seq| {
                assert!(!e0.collective_register(5, seq, 0, 2).unwrap());
                gate.wait();
                e0.collective_await_commit(5, seq, Some(Duration::from_micros(1)))
                    .unwrap()
                    || !e0.collective_withdraw(5, seq, 0).unwrap()
            })
            .collect();
        assert_eq!(obliged, late.join().unwrap());
    }

    #[test]
    fn parked_registrant_observes_its_own_death() {
        let f = fabric(2);
        let parked = {
            let f = f.clone();
            thread::spawn(move || {
                let e0 = f.endpoint(0).unwrap();
                e0.collective_register(7, 0, 0, 2).unwrap();
                e0.collective_await_commit(7, 0, None)
            })
        };
        until_parked(&f, 1);
        f.kill_rank(0, "test kill");
        let err = parked.join().unwrap().unwrap_err();
        assert!(matches!(err, MpiError::RankKilled { rank: 0 }), "{err:?}");
    }

    #[test]
    fn parked_registrant_observes_the_abort_after_its_peer_died_unregistered() {
        let f = fabric(2);
        let parked = {
            let f = f.clone();
            thread::spawn(move || {
                let e0 = f.endpoint(0).unwrap();
                e0.collective_register(7, 0, 0, 2).unwrap();
                e0.collective_await_commit(7, 0, None)
            })
        };
        until_parked(&f, 1);
        // The peer dies before registering: the survivor stays parked (now in
        // lively slices) until the failure detector aborts the world.
        f.kill_rank(1, "test kill");
        f.abort("rank 1 died");
        let err = parked.join().unwrap().unwrap_err();
        assert!(matches!(err, MpiError::JobAborted(_)), "{err:?}");
    }

    #[test]
    fn registration_bitmap_spans_more_than_one_word() {
        let f = fabric(1);
        let e0 = f.endpoint(0).unwrap();
        let size = 130;
        for index in [0, 63, 64, 129, 64] {
            assert!(!e0.collective_register(9, 0, index, size).unwrap());
        }
        assert_eq!(f.inner.registrations.lock()[&(9, 0)].registered.len, 4);
        for index in (0..size).filter(|i| ![0, 63, 64, 129].contains(i)) {
            let last = index == 128;
            assert_eq!(e0.collective_register(9, 0, index, size).unwrap(), last);
        }
        assert!(!e0.collective_withdraw(9, 0, 129).unwrap());
    }

    // ------------------------------------------------------------------
    // The blocking wait
    // ------------------------------------------------------------------

    /// The `describe` of a wait that is not expected to reach its deadline.
    fn unsaid(_: &Mailbox) -> String {
        String::new()
    }

    /// A probe that yields on its `nth` call, counting calls in `calls`.
    fn on_call(
        nth: u32,
        calls: &Cell<u32>,
    ) -> impl FnMut(&mut Mailbox) -> MpiResult<Option<bool>> + '_ {
        move |_| {
            calls.set(calls.get() + 1);
            Ok((calls.get() >= nth).then_some(true))
        }
    }

    #[test]
    fn a_wait_satisfied_at_entry_neither_parks_nor_reads_the_clock() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        e0.send(1, 0, 1, 0, vec![1]).unwrap();
        e0.collective_register(3, 0, 0, 1).unwrap();
        let reads = crate::clock::reads();
        e1.recv_blocking(&MatchSpec::from_mpi_args(1, 0, 0))
            .unwrap();
        assert!(e0.collective_await_commit(3, 0, None).unwrap());
        e0.collective_exchange(3, 0, 0, 1, vec![]).unwrap();
        assert_eq!(crate::clock::reads(), reads);
        assert_eq!(f.stats().parks, 0);
    }

    #[test]
    fn a_wait_caught_in_the_spin_does_not_park() {
        let f = fabric(1);
        let e0 = f.endpoint(0).unwrap();
        let calls = Cell::new(0);
        let reads = crate::clock::reads();
        let site = &f.inner.slots[0].mailbox;
        let caught = e0.park_until(site, None, on_call(PARK_SPIN, &calls), unsaid);
        assert!(caught.unwrap());
        assert_eq!(calls.get(), PARK_SPIN);
        assert_eq!(crate::clock::reads(), reads);
        assert_eq!(f.stats().parks, 0);
        // Past the spin's last probe and the one in front of the first park, the
        // wait has parked (and been timed out of it).
        calls.set(0);
        let brief = Some((Duration::from_micros(1), false));
        let parked = e0.park_until(site, brief, on_call(PARK_SPIN + 3, &calls), |_| {
            String::new()
        });
        assert!(parked.unwrap());
        assert_eq!(f.stats().parks, 1);
    }

    #[test]
    fn patience_bounds_the_call_while_the_deadline_spans_the_re_awaits() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let site = &f.inner.slots[0].mailbox;
        let calls = Cell::new(0);
        let brief = || Some((Duration::from_micros(50), false));
        assert!(!e0
            .park_until(site, brief(), on_call(u32::MAX, &calls), unsaid)
            .unwrap());
        let deadline = e0
            .deadline
            .get()
            .expect("an unfinished wait keeps its deadline");
        assert!(calls.get() > PARK_SPIN, "the first call spins");
        // Coming back resumes: no second spin, the same deadline.
        calls.set(0);
        assert!(!e0
            .park_until(site, brief(), on_call(u32::MAX, &calls), unsaid)
            .unwrap());
        assert!(calls.get() < PARK_SPIN, "a resumed wait has had its spin");
        assert_eq!(e0.deadline.get(), Some(deadline));
        // A wait that ends — satisfied or withdrawn from — leaves none.
        assert!(e0
            .park_until(site, brief(), on_call(1, &calls), unsaid)
            .unwrap());
        assert_eq!(e0.deadline.get(), None);
        assert!(!e0.collective_register(5, 0, 0, 2).unwrap());
        assert!(!e0
            .collective_await_commit(5, 0, Some(Duration::ZERO))
            .unwrap());
        assert!(e0.deadline.get().is_some());
        assert!(e0.collective_withdraw(5, 0, 0).unwrap());
        assert_eq!(e0.deadline.get(), None);
    }

    /// An endpoint whose next wait fails `after` from now instead of
    /// `BLOCKING_TIMEOUT` after its first park.
    fn impatient(f: &Fabric, rank: Rank, after: Duration) -> Endpoint {
        let endpoint = f.endpoint(rank).unwrap();
        endpoint.deadline.set(Some(crate::clock::now() + after));
        endpoint
    }

    #[test]
    fn a_wait_past_its_deadline_names_site_key_and_who_is_missing() {
        // Not lively: nothing slices the parks, the deadline alone ends them.
        let f = fabric(3);
        let soon = Duration::from_millis(20);
        let failure = |result: MpiResult<()>| match result {
            Err(MpiError::Internal(text)) => text,
            other => panic!("expected the wait diagnostic, got {other:?}"),
        };
        let e0 = impatient(&f, 0, soon);
        let spec = MatchSpec::from_mpi_args(1, 2, 7);
        let text = failure(e0.recv_blocking(&spec).map(drop));
        for part in [
            "rank 0",
            "mailbox",
            "context: 1",
            "Some(2)",
            "Some(7)",
            "0 queued",
        ] {
            assert!(text.contains(part), "{part:?} not in {text:?}");
        }
        let e0 = impatient(&f, 0, soon);
        e0.collective_register(7, 3, 0, 3).unwrap();
        f.endpoint(1)
            .unwrap()
            .collective_register(7, 3, 1, 3)
            .unwrap();
        let text = failure(e0.collective_await_commit(7, 3, None).map(drop));
        for part in [
            "registration board",
            "(7, 3)",
            "likely died before registering",
            "[2]",
        ] {
            assert!(text.contains(part), "{part:?} not in {text:?}");
        }
        let e0 = impatient(&f, 0, soon);
        let text = failure(e0.collective_exchange(9, 4, 0, 3, vec![]).map(drop));
        for part in ["collective table", "(9, 4)", "[1, 2]"] {
            assert!(text.contains(part), "{part:?} not in {text:?}");
        }
    }

    #[test]
    fn unrelated_collectives_do_not_restart_a_wedged_exchange_s_deadline() {
        // Not lively. Rank 0's peer never arrives; every collective completing on
        // another context wakes rank 0, and none of them may buy it more time.
        let f = fabric(2);
        let started = crate::clock::now();
        let wedged = {
            let f = f.clone();
            thread::spawn(move || {
                impatient(&f, 0, Duration::from_millis(100)).collective_exchange(9, 0, 0, 2, vec![])
            })
        };
        until_parked(&f, 1);
        let e1 = f.endpoint(1).unwrap();
        let mut seq = 0;
        while !wedged.is_finished() {
            e1.collective_exchange(20, seq, 0, 1, vec![]).unwrap();
            seq += 1;
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "the deadline never fell"
            );
        }
        let error = wedged.join().unwrap().unwrap_err();
        assert!(
            matches!(&error, MpiError::Internal(text) if text.contains("(9, 0)")),
            "{error:?}"
        );
        assert!(
            f.stats().parks > 1,
            "the other collectives did wake the wedged rank"
        );
    }

    /// Race `disrupt` against rank 0 entering `wait`, on a fresh fabric that is not
    /// lively — so a wake-up lost between rank 0's probe and its park would leave it
    /// on a `BLOCKING_TIMEOUT` slice — `RACES` times (in `LANES` concurrent lanes,
    /// each with its own seed), the disruption landing a seeded number of yields
    /// after the start: before the wait, in its spin, or on the parked rank. Each
    /// round's outcome must arrive within the watchdog and pass `check`.
    fn race_a_wait(
        wait: fn(&Endpoint) -> MpiResult<()>,
        disrupt: impl Fn(&Fabric) + Sync,
        check: impl Fn(MpiResult<()>) -> bool + Sync,
    ) {
        let lane = |seed: u64| {
            let (to_waiter, fabrics) = std::sync::mpsc::channel::<Fabric>();
            let (outcomes, from_waiter) = std::sync::mpsc::channel();
            let gate = Arc::new(std::sync::Barrier::new(2));
            let waiter = {
                let gate = Arc::clone(&gate);
                thread::spawn(move || {
                    for f in fabrics {
                        let e0 = f.endpoint(0).unwrap();
                        gate.wait();
                        outcomes.send(wait(&e0)).unwrap();
                    }
                })
            };
            let mut jitter = crate::chaos::SplitMix64::new(seed);
            for round in 0..RACES / LANES {
                let f = fabric(2);
                to_waiter.send(f.clone()).unwrap();
                gate.wait();
                for _ in 0..jitter.next_u64() % (2 * u64::from(PARK_SPIN)) {
                    thread::yield_now();
                }
                disrupt(&f);
                let outcome = from_waiter
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("seed {seed} round {round}: the wake-up was lost"));
                assert!(
                    check(outcome.clone()),
                    "seed {seed} round {round}: {outcome:?}"
                );
            }
            drop(to_waiter);
            waiter.join().unwrap();
        };
        thread::scope(|scope| {
            for seed in 0..LANES {
                scope.spawn(move || lane(seed));
            }
        });
    }

    const RACES: u64 = 2_000;
    const LANES: u64 = 8;

    fn receive(e0: &Endpoint) -> MpiResult<()> {
        e0.recv_blocking(&MatchSpec::from_mpi_args(1, 1, 0))
            .map(drop)
    }

    fn exchange(e0: &Endpoint) -> MpiResult<()> {
        e0.collective_exchange(1, 0, 0, 2, vec![]).map(drop)
    }

    /// Turn the fabric lively under a waiting rank 0, see it take up sliced waits —
    /// a second park shows it was woken, or parked on a slice that ran out — and
    /// only then let `release` satisfy the wait.
    fn enliven_then(f: &Fabric, release: fn(&Endpoint)) {
        f.enable_heartbeats();
        until_parked(f, 2);
        release(&f.endpoint(1).unwrap());
    }

    #[test]
    fn no_wake_up_is_lost_on_a_rank_entering_a_receive() {
        let killed = |outcome| outcome == Err(MpiError::RankKilled { rank: 0 });
        race_a_wait(receive, |f| f.kill_rank(0, "race"), killed);
        let aborted = |outcome| matches!(outcome, Err(MpiError::JobAborted(_)));
        race_a_wait(receive, |f| f.abort("race"), aborted);
        let closed = |outcome| outcome == Err(MpiError::PeerUnreachable(0));
        race_a_wait(receive, |f| f.endpoint(0).unwrap().close(), closed);
        let deliver = |e1: &Endpoint| e1.send(0, 1, 1, 0, vec![]).unwrap();
        race_a_wait(
            receive,
            |f| enliven_then(f, deliver),
            |outcome| outcome.is_ok(),
        );
    }

    #[test]
    fn no_wake_up_is_lost_on_a_rank_entering_an_exchange() {
        let killed = |outcome| outcome == Err(MpiError::RankKilled { rank: 0 });
        race_a_wait(exchange, |f| f.kill_rank(0, "race"), killed);
        let aborted = |outcome| matches!(outcome, Err(MpiError::JobAborted(_)));
        race_a_wait(exchange, |f| f.abort("race"), aborted);
        let join = |e1: &Endpoint| drop(e1.collective_exchange(1, 0, 1, 2, vec![]).unwrap());
        race_a_wait(
            exchange,
            |f| enliven_then(f, join),
            |outcome| outcome.is_ok(),
        );
    }

    #[test]
    fn fifo_order_preserved_per_sender() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        for i in 0..10u8 {
            e0.send(1, 0, 1, 0, vec![i]).unwrap();
        }
        let spec = MatchSpec::from_mpi_args(1, 0, 0);
        for i in 0..10u8 {
            let env = e1.recv_blocking(&spec).unwrap();
            assert_eq!(env.payload, vec![i]);
        }
    }

    // ------------------------------------------------------------------
    // Chaos lane
    // ------------------------------------------------------------------

    #[test]
    fn delayed_message_is_masked_by_resequencing() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::DelayMessage {
            nth: 0,
            hold_ms: 15,
        }]));
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        // Message 0 is held; message 1 arrives first but is parked behind the gap.
        e0.send(1, 0, 1, 0, vec![0]).unwrap();
        e0.send(1, 0, 1, 0, vec![1]).unwrap();
        assert_eq!(f.fired_fault_ids(), vec![0], "the delay fired on message 0");
        assert_eq!(f.pending_messages(), 2, "the held message stays in flight");
        let spec = MatchSpec::from_mpi_args(1, 0, 0);
        // Both must still arrive in order.
        for i in 0..2u8 {
            let env = e1.recv_blocking(&spec).unwrap();
            assert_eq!(env.payload, vec![i]);
        }
        assert_eq!(f.pending_messages(), 0, "the held message was released");
        assert!(f.resequenced_messages() >= 1);
    }

    #[test]
    fn dropped_message_is_retransmitted() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::DropMessage {
            nth: 0,
            retransmit_ms: 10,
        }]));
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        e0.send(1, 0, 1, 0, vec![42]).unwrap();
        assert_eq!(f.fired_fault_ids(), vec![0], "the loss fired on message 0");
        assert_eq!(f.pending_messages(), 1, "held messages stay in flight");
        let env = e1
            .recv_blocking(&MatchSpec::from_mpi_args(1, 0, 0))
            .unwrap();
        assert_eq!(env.payload, vec![42], "the retransmission delivered it");
        assert_eq!(f.pending_messages(), 0, "nothing is left held");
    }

    #[test]
    fn reordered_message_is_masked() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::ReorderMessage {
            nth: 0,
            overtaken_by: 2,
        }]));
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        for i in 0..4u8 {
            e0.send(1, 0, 1, 0, vec![i]).unwrap();
        }
        let spec = MatchSpec::from_mpi_args(1, 0, 0);
        for i in 0..4u8 {
            let env = e1.recv_blocking(&spec).unwrap();
            assert_eq!(env.payload, vec![i], "delivery order survives reordering");
        }
    }

    #[test]
    fn killed_rank_fails_ops_and_sends_to_it_vanish() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        f.kill_rank(1, "test");
        assert!(f.is_dead(1));
        assert_eq!(f.dead_ranks(), vec![1]);
        assert!(f.failure_instant(1).is_some());
        // The victim's own ops fail.
        assert_eq!(
            e1.send(0, 1, 1, 0, vec![1]),
            Err(MpiError::RankKilled { rank: 1 })
        );
        // Sends to the dead rank vanish silently (no error back to the sender).
        e0.send(1, 0, 1, 0, vec![1]).unwrap();
        assert_eq!(f.pending_messages(), 0);
    }

    #[test]
    fn crash_trigger_fires_at_op_count() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::CrashRank {
            rank: 0,
            at_rank_op: 3,
        }]));
        let e0 = f.endpoint(0).unwrap();
        e0.send(1, 0, 1, 0, vec![]).unwrap();
        e0.send(1, 0, 1, 0, vec![]).unwrap();
        let err = e0.send(1, 0, 1, 0, vec![]).unwrap_err();
        assert_eq!(err, MpiError::RankKilled { rank: 0 });
        assert!(f.is_dead(0));
    }

    #[test]
    fn abort_wakes_blocked_receiver() {
        let f = fabric(2);
        f.enable_heartbeats();
        let f2 = f.clone();
        let h = thread::spawn(move || {
            let e1 = f2.endpoint(1).unwrap();
            e1.recv_blocking(&MatchSpec::from_mpi_args(1, 0, 0))
        });
        until_parked(&f, 1);
        f.abort("detector: rank 0 heartbeat expired");
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, MpiError::JobAborted(_)));
        assert!(f.aborted());
        assert!(f.abort_reason().unwrap().contains("heartbeat"));
    }

    #[test]
    fn abort_wakes_blocked_collective() {
        let f = fabric(2);
        f.enable_heartbeats();
        let f2 = f.clone();
        let h = thread::spawn(move || {
            let e0 = f2.endpoint(0).unwrap();
            // Rank 1 never joins: blocked until abort.
            e0.collective_exchange(1, 0, 0, 2, vec![])
        });
        until_parked(&f, 1);
        f.abort("test abort");
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, MpiError::JobAborted(_)));
    }

    #[test]
    fn healing_partition_masks_traffic_and_suppresses_beats() {
        let f = fabric(3);
        f.enable_heartbeats();
        let e0 = f.endpoint(0).unwrap();
        let e2 = f.endpoint(2).unwrap();
        f.inject_partition(&[2], Some(Duration::from_millis(30)));
        assert!(f.partitioned());
        // Cross-cut message is held.
        e0.send(2, 0, 1, 0, vec![7]).unwrap();
        assert_eq!(e2.pending_incoming(), 0, "held at the cut, not delivered");
        assert_eq!(f.pending_messages(), 1);
        // Isolated rank's beats are suppressed while the partition is active.
        let before = f.heartbeat_ages()[2];
        crate::clock::sleep(Duration::from_millis(10));
        let _ = e2.pending_incoming(); // would normally beat
        assert!(f.heartbeat_ages()[2] >= before);
        // After heal, the held message is delivered and beats resume.
        let env = e2
            .recv_blocking(&MatchSpec::from_mpi_args(1, 0, 0))
            .unwrap();
        assert_eq!(env.payload, vec![7]);
        assert!(!f.partitioned(), "the partition healed");
        assert_eq!(
            f.pending_messages(),
            0,
            "the heal released the held message"
        );
        let _ = e2.pending_incoming();
        assert!(f.heartbeat_ages()[2] < Duration::from_millis(100));
    }

    #[test]
    fn heartbeats_age_without_ops_and_refresh_with_them() {
        let f = fabric(2);
        f.enable_heartbeats();
        let e0 = f.endpoint(0).unwrap();
        crate::clock::sleep(Duration::from_millis(20));
        let ages = f.heartbeat_ages();
        assert!(ages[0] >= Duration::from_millis(15));
        e0.send(1, 0, 1, 0, vec![]).unwrap();
        assert!(f.heartbeat_ages()[0] < Duration::from_millis(15));
        // Manual beats work too (compute-only phases).
        crate::clock::sleep(Duration::from_millis(20));
        f.beat(0);
        assert!(f.heartbeat_ages()[0] < Duration::from_millis(15));
    }

    #[test]
    fn node_failure_kills_all_its_ranks() {
        let f = fabric(4);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::KillNode {
            ranks: vec![1, 2],
            at_op: 1,
        }]));
        let e0 = f.endpoint(0).unwrap();
        e0.send(3, 0, 1, 0, vec![]).unwrap();
        e0.send(3, 0, 1, 0, vec![]).unwrap();
        assert!(f.is_dead(1) && f.is_dead(2));
        assert!(!f.is_dead(0) && !f.is_dead(3));
    }

    #[test]
    fn mid_collective_crash_kills_before_contribution() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::CrashInCollective {
            rank: 1,
            at_entry: 1,
        }]));
        let e1 = f.endpoint(1).unwrap();
        let err = e1.collective_exchange(1, 0, 1, 2, vec![1]).unwrap_err();
        assert_eq!(err, MpiError::RankKilled { rank: 1 });
        // No contribution landed: the slot (if any) has nothing from index 1.
        let table = f.inner.collectives.lock();
        assert!(table
            .get(&(1, 0))
            .is_none_or(|s| s.contributions.is_empty()));
    }

    #[test]
    fn seeded_plan_runs_end_to_end_on_fabric() {
        // Smoke: install a full seeded plan and push traffic through; masked faults
        // must not corrupt or lose any message (no lethal faults in this menu).
        let f = fabric(2);
        let plan = ChaosPlan::seeded(
            7,
            2,
            &ChaosMenu {
                op_horizon: 40,
                ..ChaosMenu::masked_only()
            },
        );
        f.install_chaos(plan);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        let f2 = f.clone();
        let h = thread::spawn(move || {
            let spec = MatchSpec::from_mpi_args(1, 0, 0);
            let e1 = f2.endpoint(1).unwrap();
            (0..50u8)
                .map(|_| e1.recv_blocking(&spec).unwrap().payload[0])
                .collect::<Vec<u8>>()
        });
        for i in 0..50u8 {
            e0.send(1, 0, 1, 0, vec![i]).unwrap();
        }
        let got = h.join().unwrap();
        assert_eq!(got, (0..50u8).collect::<Vec<u8>>());
        drop(e1);
    }

    #[test]
    fn chaos_retransmit_reshares_instead_of_recopying() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![
            FaultKind::DropMessage {
                nth: 0,
                retransmit_ms: 5,
            },
            FaultKind::ReorderMessage {
                nth: 1,
                overtaken_by: 2,
            },
        ]));
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        for i in 0..4u8 {
            e0.send(1, 0, 1, 0, vec![i; 32]).unwrap();
        }
        let spec = MatchSpec::from_mpi_args(1, 0, 0);
        for i in 0..4u8 {
            assert_eq!(e1.recv_blocking(&spec).unwrap().payload, vec![i; 32]);
        }
        let stats = f.stats();
        assert_eq!(
            stats.bytes_copied,
            4 * 32,
            "only the initial injections materialize bytes"
        );
        assert!(
            stats.bytes_shared >= 2 * 32,
            "drop-retransmit and reorder redelivery must reshare the injected \
             buffers, got {} shared bytes",
            stats.bytes_shared
        );
    }

    #[test]
    fn collective_fanout_shares_contribution_buffers() {
        let n = 4usize;
        let f = fabric(n);
        let mut handles = vec![];
        for rank in 0..n {
            let f = f.clone();
            handles.push(thread::spawn(move || {
                let ep = f.endpoint(rank as Rank).unwrap();
                ep.collective_exchange(1, 0, rank, n, vec![rank as u8; 16])
                    .unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = f.stats();
        assert_eq!(
            stats.bytes_copied,
            (n * 16) as u64,
            "one materialization per contribution"
        );
        assert_eq!(
            stats.bytes_shared,
            (n * n * 16) as u64,
            "every reader's fan-out is refcount bumps of all {n} contributions"
        );
    }
}
