//! Message transport, fault injection, and true deadlock detection.
//!
//! The interpreter (`crate::interp`) executes each simulated MPI rank on its
//! own OS thread. Everything those threads exchange goes through a
//! [`Transport`], so the delivery policy is swappable: the default
//! [`ChannelTransport`] delivers messages FIFO, while the same transport
//! configured with a [`FaultPlan`] perturbs delivery — reordering messages
//! across senders, injecting delays, staggering rank starts, and (in chaotic
//! mode) duplicating or dropping messages — all reproducibly from a `u64`
//! seed.
//!
//! ## Legal vs chaotic schedules
//!
//! An *adversarial* plan ([`FaultPlan::adversarial`]) only produces
//! executions that a standards-conforming MPI implementation could also
//! produce: per-(source, communicator) message order is preserved
//! (non-overtaking), nothing is lost, nothing is duplicated. Analyses that
//! claim soundness for *every* legal schedule (the paper's MPI-ICFG
//! obligations) are cross-validated against many such schedules by
//! `mpi-dfa-suite`'s schedule explorer. A *chaotic* plan
//! ([`FaultPlan::chaotic`]) additionally drops and duplicates messages —
//! useful for exercising the deadlock detector and error paths, but not a
//! legal MPI execution.
//!
//! ## Deadlock detection
//!
//! Instead of waiting out a receive timeout, the transport keeps a registry
//! of per-rank states (running / blocked-with-wait-descriptor / finished)
//! plus a per-rank inventory of undelivered message keys. When a rank is
//! about to block, it checks the registry: if every unfinished rank is
//! blocked and no blocked rank has a matching message in flight, no future
//! send can ever occur — the run is deadlocked, and every blocked rank is
//! woken immediately with a structured per-rank wait-for report
//! ([`RecvError::Deadlock`]). The timeout remains only as a last-resort
//! fallback.
//!
//! All mutex acquisitions recover from poisoning (`PoisonError::into_inner`)
//! so a panic on one rank degrades into an ordinary [`RuntimeError`] on the
//! others instead of cascading panics.

use crate::rng::SplitMix64;
use crate::span::Span;
use mpi_dfa_core::telemetry::{self, ArgValue, TraceLevel};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the data if a previous holder panicked. The
/// transport's invariants are re-validated by every consumer (queues are
/// scanned, states re-checked), so continuing with the inner value is safe.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---- messages ---------------------------------------------------------------

/// One point-to-point message (collectives are lowered onto these).
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    pub src: usize,
    pub tag: i64,
    pub comm: i64,
    pub payload: Vec<f64>,
}

impl Message {
    fn key(&self) -> MsgKey {
        MsgKey {
            src: self.src,
            tag: self.tag,
            comm: self.comm,
        }
    }
}

/// The matching-relevant part of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MsgKey {
    src: usize,
    tag: i64,
    comm: i64,
}

/// What a blocked rank is waiting for — the per-rank entry of a deadlock
/// report. `src`/`tag` of `None` mean wildcard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankWait {
    pub rank: usize,
    /// Peer the rank is blocked on (`None` = any source).
    pub src: Option<usize>,
    pub tag: Option<i64>,
    pub comm: i64,
    /// Source location of the blocked receive.
    pub span: Span,
}

impl RankWait {
    fn matches(&self, key: &MsgKey) -> bool {
        self.src.is_none_or(|s| s == key.src)
            && self.tag.is_none_or(|t| t == key.tag)
            && self.comm == key.comm
    }
}

impl fmt::Display for RankWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let src = match self.src {
            Some(s) => s.to_string(),
            None => "ANY".to_string(),
        };
        let tag = match self.tag {
            Some(t) => t.to_string(),
            None => "ANY".to_string(),
        };
        write!(
            f,
            "rank {} waiting for recv(src={src}, tag={tag}) at {}",
            self.rank, self.span
        )
    }
}

/// Why a receive did not produce a message.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvError {
    /// The fallback timeout expired without a matching message (should only
    /// happen when some rank is compute-bound, never for pure communication
    /// deadlocks).
    Timeout,
    /// Every live rank is blocked and nothing in flight matches: a genuine
    /// communication deadlock, with every blocked rank's wait descriptor.
    Deadlock(Vec<RankWait>),
}

// ---- fault plans ------------------------------------------------------------

/// A seeded, reproducible schedule perturbation. All probabilities are in
/// `[0, 1]`; durations are microseconds. Two runs of the same program under
/// the same plan and the same `nprocs` make identical per-rank fault
/// decisions (per-rank decision streams are forked from `seed`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability that a delivered message is inserted at a random *legal*
    /// queue position (never overtaking an earlier message from the same
    /// (source, communicator), preserving MPI's non-overtaking guarantee).
    pub reorder: f64,
    /// Probability that a send is delayed before delivery.
    pub delay: f64,
    /// Maximum injected delay, microseconds.
    pub max_delay_micros: u64,
    /// Maximum random per-rank start stagger, microseconds.
    pub stagger_micros: u64,
    /// Probability a message is delivered twice. **Not a legal MPI
    /// execution** — only for robustness testing.
    pub duplicate: f64,
    /// Probability a message is silently lost. **Not a legal MPI
    /// execution** — only for robustness testing.
    pub drop: f64,
}

impl FaultPlan {
    /// A legal adversarial schedule: reordering across senders, delivery
    /// delays, staggered starts — no loss, no duplication. Runs under this
    /// plan are executions a real MPI library could produce, so analysis
    /// soundness obligations must hold on them.
    pub fn adversarial(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            reorder: 0.75,
            delay: 0.2,
            max_delay_micros: 150,
            stagger_micros: 400,
            duplicate: 0.0,
            drop: 0.0,
        }
    }

    /// Everything on, including illegal loss/duplication. For exercising
    /// the deadlock detector and error surfaces.
    pub fn chaotic(seed: u64) -> FaultPlan {
        FaultPlan {
            duplicate: 0.05,
            drop: 0.05,
            ..FaultPlan::adversarial(seed)
        }
    }

    /// True if every execution under this plan is a legal MPI schedule.
    pub fn is_legal(&self) -> bool {
        self.duplicate == 0.0 && self.drop == 0.0
    }

    /// Parse a CLI spec: either a bare seed (`"7"`) or comma-separated
    /// `key=value` pairs: `seed=7`, `mode=adversarial|chaotic`,
    /// `reorder=0.5`, `delay=0.2`, `max_delay=150`, `stagger=400`,
    /// `dup=0.05`, `drop=0.05`.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        if let Ok(seed) = spec.trim().parse::<u64>() {
            return Ok(FaultPlan::adversarial(seed));
        }
        let mut plan = FaultPlan::adversarial(0);
        let mut chaotic = false;
        let mut seed = 0u64;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=value"))?;
            let fprob = || -> Result<f64, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|e| format!("fault spec `{part}`: {e}"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("fault spec `{part}`: probability outside [0, 1]"));
                }
                Ok(v)
            };
            match key {
                "seed" => {
                    seed = value
                        .parse()
                        .map_err(|e| format!("fault spec `{part}`: {e}"))?
                }
                "mode" => match value {
                    "adversarial" => chaotic = false,
                    "chaotic" => chaotic = true,
                    other => return Err(format!("fault spec: unknown mode `{other}`")),
                },
                "reorder" => plan.reorder = fprob()?,
                "delay" => plan.delay = fprob()?,
                "dup" => plan.duplicate = fprob()?,
                "drop" => plan.drop = fprob()?,
                "max_delay" => {
                    plan.max_delay_micros = value
                        .parse()
                        .map_err(|e| format!("fault spec `{part}`: {e}"))?
                }
                "stagger" => {
                    plan.stagger_micros = value
                        .parse()
                        .map_err(|e| format!("fault spec `{part}`: {e}"))?
                }
                other => return Err(format!("fault spec: unknown key `{other}`")),
            }
        }
        if chaotic {
            let base = FaultPlan::chaotic(seed);
            if plan.duplicate == 0.0 {
                plan.duplicate = base.duplicate;
            }
            if plan.drop == 0.0 {
                plan.drop = base.drop;
            }
        }
        plan.seed = seed;
        Ok(plan)
    }
}

// ---- the transport trait ----------------------------------------------------

/// Delivery policy for the interpreter's simulated MPI fabric. Implementors
/// must be safe to share across the per-rank threads.
pub trait Transport: Sync {
    /// Nonblocking, buffered send (MPI eager protocol).
    fn send(&self, src: usize, dest: usize, tag: i64, comm: i64, payload: Vec<f64>);

    /// Blocking receive with wildcard support. `span` is recorded for
    /// deadlock diagnostics. Fails with [`RecvError::Deadlock`] when the
    /// registry proves no matching send can ever happen, or
    /// [`RecvError::Timeout`] as a last resort.
    fn recv(
        &self,
        rank: usize,
        src: Option<usize>,
        tag: Option<i64>,
        comm: i64,
        span: Span,
        timeout: Duration,
    ) -> Result<Message, RecvError>;

    /// Called once per rank before it executes its first statement (fault
    /// plans stagger startup here).
    fn rank_started(&self, rank: usize) {
        let _ = rank;
    }

    /// Called when a rank's thread is done (normally or with an error), so
    /// deadlock detection can exclude it from the wait graph.
    fn rank_finished(&self, rank: usize);
}

// ---- the default transport --------------------------------------------------

#[derive(Debug, Clone)]
enum RankState {
    Running,
    Blocked(RankWait),
    Finished,
}

/// Cross-rank bookkeeping for deadlock detection.
#[derive(Debug)]
struct Registry {
    states: Vec<RankState>,
    /// Per destination rank: keys of messages delivered (or about to be
    /// delivered) but not yet received. A key is added *before* the message
    /// becomes visible in the mailbox and removed when it is taken, so the
    /// inventory over-approximates the mailbox — detection can only err on
    /// the safe (no-deadlock) side.
    in_flight: Vec<Vec<MsgKey>>,
    /// Set once, by whichever rank first proves the deadlock.
    verdict: Option<Vec<RankWait>>,
}

struct MailboxState {
    queue: Vec<Message>,
    /// Seeded stream deciding reorder insertion positions for this
    /// destination.
    rng: SplitMix64,
}

struct Mailbox {
    state: Mutex<MailboxState>,
    cond: Condvar,
}

/// Per-sender fault decisions, forked from the plan seed so each rank's
/// decision stream is independent of thread interleaving.
struct SenderFaults {
    rng: Mutex<SplitMix64>,
}

/// The built-in transport: per-rank mailboxes (`Mutex` + `Condvar`), a
/// blocked-rank registry for deadlock detection, and optional seeded fault
/// injection.
pub struct ChannelTransport {
    mailboxes: Vec<Mailbox>,
    registry: Mutex<Registry>,
    /// Fast-path flag so blocked ranks can notice a verdict without taking
    /// the registry lock.
    deadlocked: AtomicBool,
    plan: Option<FaultPlan>,
    senders: Vec<SenderFaults>,
    /// Logical (Lamport-style) clock over communication events: ticks once
    /// per recorded event, giving the telemetry timeline a total order that
    /// is independent of wall-clock resolution. Only advanced while the
    /// telemetry sink records at [`TraceLevel::Full`].
    clock: AtomicU64,
}

/// Record one communication-timeline event at [`TraceLevel::Full`]. The
/// closure building the argument list only runs when the sink records, so
/// the disabled path performs a single relaxed load and no allocation.
#[inline]
fn trace_comm(
    clock: &AtomicU64,
    name: &str,
    rank: usize,
    extra: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
) {
    if telemetry::level() < TraceLevel::Full {
        return;
    }
    let lt = clock.fetch_add(1, Ordering::Relaxed);
    let mut args = vec![
        ("rank", ArgValue::U64(rank as u64)),
        ("lt", ArgValue::U64(lt)),
    ];
    args.extend(extra());
    telemetry::comm_event(name, args);
}

impl ChannelTransport {
    /// A transport for `nprocs` ranks; `plan` enables fault injection.
    pub fn new(nprocs: usize, plan: Option<FaultPlan>) -> ChannelTransport {
        let seed = plan.as_ref().map(|p| p.seed).unwrap_or(0);
        ChannelTransport {
            mailboxes: (0..nprocs)
                .map(|rank| Mailbox {
                    state: Mutex::new(MailboxState {
                        queue: Vec::new(),
                        // Stream 2r: sender streams use 2r + 1.
                        rng: SplitMix64::fork(seed, 2 * rank as u64),
                    }),
                    cond: Condvar::new(),
                })
                .collect(),
            registry: Mutex::new(Registry {
                states: vec![RankState::Running; nprocs],
                in_flight: vec![Vec::new(); nprocs],
                verdict: None,
            }),
            deadlocked: AtomicBool::new(false),
            plan,
            senders: (0..nprocs)
                .map(|rank| SenderFaults {
                    rng: Mutex::new(SplitMix64::fork(seed, 2 * rank as u64 + 1)),
                })
                .collect(),
            clock: AtomicU64::new(0),
        }
    }

    fn find_match(
        queue: &[Message],
        src: Option<usize>,
        tag: Option<i64>,
        comm: i64,
    ) -> Option<usize> {
        queue.iter().position(|m| {
            src.is_none_or(|s| s == m.src) && tag.is_none_or(|t| t == m.tag) && m.comm == comm
        })
    }

    /// Insert `msg` into `dest`'s queue. With `reorder`, pick a random
    /// position that never overtakes an earlier message from the same
    /// (source, communicator) — MPI's non-overtaking guarantee.
    fn deliver(&self, dest: usize, msg: Message, reorder: bool) {
        {
            let mut reg = lock_recover(&self.registry);
            reg.in_flight[dest].push(msg.key());
        }
        let mb = &self.mailboxes[dest];
        {
            let mut st = lock_recover(&mb.state);
            let pos = if reorder {
                let floor = st
                    .queue
                    .iter()
                    .rposition(|m| m.src == msg.src && m.comm == msg.comm)
                    .map(|i| i + 1)
                    .unwrap_or(0);
                // Any slot in [floor, len] is a legal arrival position.
                let len = st.queue.len();
                st.rng.range(floor, len + 1)
            } else {
                st.queue.len()
            };
            st.queue.insert(pos, msg);
        }
        mb.cond.notify_all();
    }

    /// Record that `rank` consumed `msg` and is running again.
    fn note_taken(&self, rank: usize, msg: &Message) {
        let mut reg = lock_recover(&self.registry);
        let key = msg.key();
        if let Some(pos) = reg.in_flight[rank].iter().position(|k| *k == key) {
            reg.in_flight[rank].remove(pos);
        }
        reg.states[rank] = RankState::Running;
    }

    /// Mark `rank` blocked on `wait`, then decide whether the whole run is
    /// deadlocked. Returns the verdict if one exists (found now or earlier).
    fn block_and_detect(&self, rank: usize, wait: RankWait) -> Option<Vec<RankWait>> {
        let verdict = {
            let mut reg = lock_recover(&self.registry);
            reg.states[rank] = RankState::Blocked(wait);
            if let Some(v) = &reg.verdict {
                return Some(v.clone());
            }
            match Self::detect(&reg) {
                Some(v) => {
                    reg.verdict = Some(v.clone());
                    Some(v)
                }
                None => None,
            }
        };
        if let Some(v) = verdict {
            self.announce_deadlock();
            return Some(v);
        }
        None
    }

    /// The deadlock predicate: every unfinished rank is blocked, at least
    /// one rank is blocked, and no blocked rank's wait descriptor matches
    /// any in-flight message key. Under those conditions no rank can ever
    /// send again, so the blocked set can never be released.
    fn detect(reg: &Registry) -> Option<Vec<RankWait>> {
        let mut waiting = Vec::new();
        for state in &reg.states {
            match state {
                RankState::Running => return None,
                RankState::Blocked(w) => waiting.push(w.clone()),
                RankState::Finished => {}
            }
        }
        if waiting.is_empty() {
            return None;
        }
        for w in &waiting {
            if reg.in_flight[w.rank].iter().any(|k| w.matches(k)) {
                return None; // something deliverable is still in flight
            }
        }
        waiting.sort_by_key(|w| w.rank);
        Some(waiting)
    }

    /// Wake every blocked rank so each can observe the verdict.
    fn announce_deadlock(&self) {
        self.deadlocked.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            // Acquire the lock so a rank between its predicate check and its
            // `wait_timeout` cannot miss the notification.
            drop(lock_recover(&mb.state));
            mb.cond.notify_all();
        }
    }

    fn verdict(&self) -> Vec<RankWait> {
        lock_recover(&self.registry)
            .verdict
            .clone()
            .unwrap_or_default()
    }
}

impl Transport for ChannelTransport {
    fn send(&self, src: usize, dest: usize, tag: i64, comm: i64, payload: Vec<f64>) {
        trace_comm(&self.clock, "send", src, || {
            vec![
                ("dest", ArgValue::U64(dest as u64)),
                ("tag", ArgValue::I64(tag)),
                ("comm", ArgValue::I64(comm)),
                ("len", ArgValue::U64(payload.len() as u64)),
            ]
        });
        let msg = Message {
            src,
            tag,
            comm,
            payload,
        };
        let Some(plan) = &self.plan else {
            self.deliver(dest, msg, false);
            return;
        };
        // All decisions come from the sender's forked stream, in a fixed
        // order, so they depend only on (seed, src, send index) — never on
        // thread interleaving.
        let (dropped, copies, delay, reorder) = {
            let mut rng = lock_recover(&self.senders[src].rng);
            let dropped = rng.chance(plan.drop);
            let copies = if rng.chance(plan.duplicate) { 2 } else { 1 };
            let delay = if rng.chance(plan.delay) && plan.max_delay_micros > 0 {
                Some(Duration::from_micros(
                    rng.below(plan.max_delay_micros as usize + 1) as u64,
                ))
            } else {
                None
            };
            let reorder = rng.chance(plan.reorder);
            (dropped, copies, delay, reorder)
        };
        if dropped {
            trace_comm(&self.clock, "fault:drop", src, || {
                vec![
                    ("dest", ArgValue::U64(dest as u64)),
                    ("tag", ArgValue::I64(tag)),
                ]
            });
            return;
        }
        if let Some(d) = delay {
            trace_comm(&self.clock, "fault:delay", src, || {
                vec![
                    ("dest", ArgValue::U64(dest as u64)),
                    ("micros", ArgValue::U64(d.as_micros() as u64)),
                ]
            });
            // The sender is still `Running` while it sleeps, so the deadlock
            // detector cannot fire spuriously during an injected delay.
            std::thread::sleep(d);
        }
        if copies > 1 {
            trace_comm(&self.clock, "fault:duplicate", src, || {
                vec![
                    ("dest", ArgValue::U64(dest as u64)),
                    ("tag", ArgValue::I64(tag)),
                ]
            });
        }
        // Clone for the extra copies only; the last one takes the payload.
        for _ in 1..copies {
            self.deliver(dest, msg.clone(), reorder);
        }
        self.deliver(dest, msg, reorder);
    }

    fn recv(
        &self,
        rank: usize,
        src: Option<usize>,
        tag: Option<i64>,
        comm: i64,
        span: Span,
        timeout: Duration,
    ) -> Result<Message, RecvError> {
        let deadline = Instant::now() + timeout;
        let mb = &self.mailboxes[rank];
        let mut blocked_once = false;
        loop {
            // Fast path: match under the mailbox lock only.
            {
                let mut st = lock_recover(&mb.state);
                if let Some(pos) = Self::find_match(&st.queue, src, tag, comm) {
                    let msg = st.queue.remove(pos);
                    drop(st);
                    self.note_taken(rank, &msg);
                    if blocked_once {
                        trace_comm(&self.clock, "unblock", rank, Vec::new);
                    }
                    trace_comm(&self.clock, "recv", rank, || {
                        vec![
                            ("src", ArgValue::U64(msg.src as u64)),
                            ("tag", ArgValue::I64(msg.tag)),
                            ("comm", ArgValue::I64(msg.comm)),
                            ("len", ArgValue::U64(msg.payload.len() as u64)),
                        ]
                    });
                    return Ok(msg);
                }
            }
            if self.deadlocked.load(Ordering::Acquire) {
                trace_comm(&self.clock, "deadlock", rank, Vec::new);
                return Err(RecvError::Deadlock(self.verdict()));
            }
            // Nothing matched: announce the block and test for deadlock.
            // A message delivered between the check above and this point is
            // already in the registry's in-flight inventory (deliveries
            // register there first), so detection stays conservative.
            let wait = RankWait {
                rank,
                src,
                tag,
                comm,
                span,
            };
            if !blocked_once {
                blocked_once = true;
                trace_comm(&self.clock, "block", rank, || {
                    vec![
                        (
                            "src",
                            match src {
                                Some(s) => ArgValue::U64(s as u64),
                                None => ArgValue::Str("ANY".to_string()),
                            },
                        ),
                        (
                            "tag",
                            match tag {
                                Some(t) => ArgValue::I64(t),
                                None => ArgValue::Str("ANY".to_string()),
                            },
                        ),
                        ("comm", ArgValue::I64(comm)),
                    ]
                });
            }
            if let Some(report) = self.block_and_detect(rank, wait) {
                trace_comm(&self.clock, "deadlock", rank, Vec::new);
                return Err(RecvError::Deadlock(report));
            }
            // Sleep until something arrives, the verdict lands, or the
            // fallback deadline passes. The predicate is re-checked under
            // the lock after every wakeup (spurious wakeups included) and
            // the remaining time is recomputed each iteration.
            {
                let mut st = lock_recover(&mb.state);
                loop {
                    if Self::find_match(&st.queue, src, tag, comm).is_some()
                        || self.deadlocked.load(Ordering::Acquire)
                    {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(RecvError::Timeout);
                    }
                    let (guard, _) = mb
                        .cond
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    st = guard;
                }
            }
            // Loop back to the fast path, which also fixes up the registry.
        }
    }

    fn rank_started(&self, rank: usize) {
        trace_comm(&self.clock, "rank_start", rank, Vec::new);
        if let Some(plan) = &self.plan {
            if plan.stagger_micros > 0 {
                let micros = {
                    let mut rng = lock_recover(&self.senders[rank].rng);
                    rng.below(plan.stagger_micros as usize + 1) as u64
                };
                std::thread::sleep(Duration::from_micros(micros));
            }
        }
    }

    fn rank_finished(&self, rank: usize) {
        trace_comm(&self.clock, "rank_finish", rank, Vec::new);
        let verdict = {
            let mut reg = lock_recover(&self.registry);
            reg.states[rank] = RankState::Finished;
            // A rank leaving can strand the others (e.g. a collective the
            // finished rank never joined), so re-run detection here too.
            if reg.verdict.is_none() {
                if let Some(v) = Self::detect(&reg) {
                    reg.verdict = Some(v.clone());
                    Some(v)
                } else {
                    None
                }
            } else {
                None
            }
        };
        if verdict.is_some() {
            self.announce_deadlock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn msg(src: usize, tag: i64) -> (usize, usize, i64, i64, Vec<f64>) {
        (src, 0, tag, 0, vec![tag as f64])
    }

    #[test]
    fn fifo_without_plan() {
        let t = ChannelTransport::new(2, None);
        for i in 0..5 {
            let (s, d, tag, comm, p) = msg(1, i);
            t.send(s, d, tag, comm, p);
        }
        for i in 0..5 {
            let m = t
                .recv(0, Some(1), None, 0, Span::DUMMY, Duration::from_secs(1))
                .unwrap();
            assert_eq!(m.tag, i, "FIFO per (src, comm)");
        }
    }

    #[test]
    fn reorder_preserves_same_source_order() {
        // Under any seed, messages from one source on one communicator must
        // stay in order even with aggressive reordering.
        for seed in 0..50 {
            let plan = FaultPlan {
                reorder: 1.0,
                delay: 0.0,
                stagger_micros: 0,
                ..FaultPlan::adversarial(seed)
            };
            let t = ChannelTransport::new(2, Some(plan));
            for i in 0..8 {
                t.send(1, 0, i, 0, vec![]);
            }
            for i in 0..8 {
                let m = t
                    .recv(0, Some(1), Some(i), 0, Span::DUMMY, Duration::from_secs(1))
                    .unwrap();
                assert_eq!(m.tag, i);
            }
        }
    }

    #[test]
    fn reorder_interleaves_distinct_sources() {
        // With three senders and full reordering, at least one seed must
        // produce a non-FIFO arrival order for a wildcard receiver.
        let mut saw_reorder = false;
        for seed in 0..50 {
            let plan = FaultPlan {
                reorder: 1.0,
                delay: 0.0,
                stagger_micros: 0,
                ..FaultPlan::adversarial(seed)
            };
            let t = ChannelTransport::new(4, Some(plan));
            for src in 1..4 {
                t.send(src, 0, 7, 0, vec![src as f64]);
            }
            let mut order = Vec::new();
            for _ in 0..3 {
                let m = t
                    .recv(0, None, Some(7), 0, Span::DUMMY, Duration::from_secs(1))
                    .unwrap();
                order.push(m.src);
            }
            if order != vec![1, 2, 3] {
                saw_reorder = true;
                break;
            }
        }
        assert!(
            saw_reorder,
            "reordering never produced a non-FIFO interleaving"
        );
    }

    #[test]
    fn drop_faults_lose_messages() {
        let plan = FaultPlan {
            drop: 1.0,
            delay: 0.0,
            stagger_micros: 0,
            ..FaultPlan::chaotic(1)
        };
        let t = ChannelTransport::new(2, Some(plan));
        t.send(1, 0, 5, 0, vec![1.0]);
        // Sender still running, so this must resolve by timeout, quickly.
        let r = t.recv(
            0,
            Some(1),
            Some(5),
            0,
            Span::DUMMY,
            Duration::from_millis(30),
        );
        assert_eq!(r, Err(RecvError::Timeout));
    }

    #[test]
    fn duplicate_faults_deliver_twice() {
        let plan = FaultPlan {
            duplicate: 1.0,
            drop: 0.0,
            delay: 0.0,
            stagger_micros: 0,
            ..FaultPlan::chaotic(1)
        };
        let t = ChannelTransport::new(2, Some(plan));
        t.send(1, 0, 5, 0, vec![1.0]);
        for _ in 0..2 {
            t.recv(0, Some(1), Some(5), 0, Span::DUMMY, Duration::from_secs(1))
                .unwrap();
        }
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let run = |seed: u64| -> Vec<i64> {
            let plan = FaultPlan {
                stagger_micros: 0,
                ..FaultPlan::chaotic(seed)
            };
            let t = ChannelTransport::new(2, Some(plan));
            for i in 0..32 {
                t.send(1, 0, i, 0, vec![]);
            }
            let mut got = Vec::new();
            while let Ok(m) = t.recv(0, Some(1), None, 0, Span::DUMMY, Duration::from_millis(20)) {
                got.push(m.tag);
            }
            got
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should perturb differently");
    }

    #[test]
    fn all_blocked_is_deadlock_not_timeout() {
        let t = Arc::new(ChannelTransport::new(2, None));
        let t2 = Arc::clone(&t);
        let started = Instant::now();
        let other = std::thread::spawn(move || {
            t2.recv(1, Some(0), Some(1), 0, Span::DUMMY, Duration::from_secs(30))
        });
        let r = t.recv(0, Some(1), Some(1), 0, Span::DUMMY, Duration::from_secs(30));
        let r2 = other.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "must not wait out the timeout"
        );
        let (Err(RecvError::Deadlock(a)), Err(RecvError::Deadlock(b))) = (&r, &r2) else {
            panic!("expected deadlock on both ranks: {r:?} / {r2:?}");
        };
        assert_eq!(a, b, "both ranks see the same report");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].rank, 0);
        assert_eq!(a[0].src, Some(1));
        assert_eq!(a[1].rank, 1);
    }

    #[test]
    fn finished_peer_triggers_detection() {
        let t = Arc::new(ChannelTransport::new(2, None));
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            t2.recv(0, Some(1), Some(9), 0, Span::DUMMY, Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(20));
        t.rank_finished(1); // rank 1 exits without ever sending
        let r = waiter.join().unwrap();
        assert!(matches!(r, Err(RecvError::Deadlock(_))), "{r:?}");
    }

    #[test]
    fn in_flight_message_prevents_false_deadlock() {
        // Both ranks block, but a matching message is already queued for
        // rank 0 — detection must not fire; rank 0 receives it.
        let t = Arc::new(ChannelTransport::new(2, None));
        t.send(1, 0, 3, 0, vec![9.0]);
        let t2 = Arc::clone(&t);
        let other = std::thread::spawn(move || {
            t2.recv(
                1,
                Some(0),
                Some(4),
                0,
                Span::DUMMY,
                Duration::from_millis(200),
            )
        });
        let m = t
            .recv(0, Some(1), Some(3), 0, Span::DUMMY, Duration::from_secs(1))
            .unwrap();
        assert_eq!(m.payload, vec![9.0]);
        t.send(0, 1, 4, 0, vec![1.0]);
        assert!(other.join().unwrap().is_ok());
    }

    #[test]
    fn late_message_within_deadline_is_received() {
        // Regression for the Condvar wait loop: a matching message arriving
        // well after the recv starts but within the deadline must be
        // delivered, surviving spurious wakeups and deadline recomputation.
        let t = Arc::new(ChannelTransport::new(2, None));
        let t2 = Arc::clone(&t);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            t2.send(1, 0, 11, 0, vec![4.25]);
        });
        let started = Instant::now();
        let m = t
            .recv(0, Some(1), Some(11), 0, Span::DUMMY, Duration::from_secs(5))
            .unwrap();
        assert_eq!(m.payload, vec![4.25]);
        assert!(started.elapsed() >= Duration::from_millis(75));
        assert!(started.elapsed() < Duration::from_secs(5));
        sender.join().unwrap();
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(FaultPlan::from_spec("7"), Ok(FaultPlan::adversarial(7)));
        assert_eq!(
            FaultPlan::from_spec("seed=7"),
            Ok(FaultPlan::adversarial(7))
        );
        let chaotic = FaultPlan::from_spec("seed=3,mode=chaotic").unwrap();
        assert_eq!(chaotic, FaultPlan::chaotic(3));
        assert!(!chaotic.is_legal());
        let custom = FaultPlan::from_spec("seed=1,drop=0.5,max_delay=10").unwrap();
        assert_eq!(custom.drop, 0.5);
        assert_eq!(custom.max_delay_micros, 10);
        assert!(FaultPlan::from_spec("seed=x").is_err());
        assert!(FaultPlan::from_spec("bogus=1").is_err());
        assert!(FaultPlan::from_spec("drop=2.0").is_err());
        assert!(FaultPlan::adversarial(0).is_legal());
    }
}
