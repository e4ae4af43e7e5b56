//! Fault plans, mailboxes, and the wait descriptors of a deadlock report.
//!
//! The interpreter (`crate::interp`) runs every rank of a run under one
//! scheduler loop. Messages wait in plain per-rank [`Mailboxes`], and a
//! [`FaultPlan`] perturbs a run reproducibly from a `u64` seed: it drives
//! the scheduler's choice of the next rank at every send and receive,
//! reorders messages across senders, and (in chaotic mode) duplicates or
//! drops them. A schedule is a pure function of the program, the
//! configuration and the seed, so any run replays.
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
//! useful for exercising deadlock reports and error paths, but not a
//! legal MPI execution.

use crate::interp::Payload;
use crate::span::Span;
use mpi_dfa_core::rng::SplitMix64;
use std::fmt;

/// One point-to-point message (collectives are lowered onto these).
#[derive(Clone)]
pub(crate) struct Message {
    pub(crate) src: usize,
    pub(crate) tag: i64,
    pub(crate) comm: i64,
    pub(crate) payload: Payload,
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
    /// Would a message with this envelope end the wait?
    pub(crate) fn accepts(&self, src: usize, tag: i64, comm: i64) -> bool {
        self.src.is_none_or(|s| s == src) && self.tag.is_none_or(|t| t == tag) && self.comm == comm
    }

    fn matches(&self, m: &Message) -> bool {
        self.accepts(m.src, m.tag, m.comm)
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

// ---- fault plans ------------------------------------------------------------

/// A seeded, reproducible schedule perturbation. All probabilities are in
/// `[0, 1]`. Every decision of a run under a plan — the next rank at each
/// send and receive, and each message's fate — is drawn from one stream
/// seeded by `seed`, so two runs of the same program under the same plan
/// and configuration are identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability that a delivered message is inserted at a random *legal*
    /// queue position (never overtaking an earlier message from the same
    /// (source, communicator), preserving MPI's non-overtaking guarantee).
    pub reorder: f64,
    /// Probability a message is delivered twice. **Not a legal MPI
    /// execution** — only for robustness testing.
    pub duplicate: f64,
    /// Probability a message is silently lost. **Not a legal MPI
    /// execution** — only for robustness testing.
    pub drop: f64,
}

impl FaultPlan {
    /// A legal adversarial schedule: a seeded choice of the next rank at
    /// every send and receive, and reordering across senders — no loss, no
    /// duplication. Runs under this plan are executions a real MPI library
    /// could produce, so analysis soundness obligations must hold on them.
    pub fn adversarial(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            reorder: 0.75,
            duplicate: 0.0,
            drop: 0.0,
        }
    }

    /// Everything on, including illegal loss/duplication. For exercising
    /// deadlock reports and error surfaces.
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

    /// This plan for schedule `i` of an exploration from `base_seed`: the
    /// seed is drawn from a splitmix64 stream forked over (`base_seed`,
    /// `i`), everything else is kept.
    pub fn for_schedule(&self, base_seed: u64, i: u64) -> FaultPlan {
        FaultPlan {
            seed: SplitMix64::fork(base_seed, i).next_u64(),
            ..self.clone()
        }
    }

    /// Parse a CLI spec: either a bare seed (`"7"`) or comma-separated
    /// `key=value` pairs: `seed=7`, `mode=adversarial|chaotic`,
    /// `reorder=0.5`, `dup=0.05`, `drop=0.05`. A probability the spec
    /// leaves out takes the mode's default.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        if let Ok(seed) = spec.trim().parse::<u64>() {
            return Ok(FaultPlan::adversarial(seed));
        }
        let mut chaotic = false;
        let mut seed = 0u64;
        let (mut reorder, mut duplicate, mut drop) = (None, None, None);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=value"))?;
            let fprob = || -> Result<Option<f64>, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|e| format!("fault spec `{part}`: {e}"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("fault spec `{part}`: probability outside [0, 1]"));
                }
                Ok(Some(v))
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
                "reorder" => reorder = fprob()?,
                "dup" => duplicate = fprob()?,
                "drop" => drop = fprob()?,
                other => return Err(format!("fault spec: unknown key `{other}`")),
            }
        }
        let base = if chaotic {
            FaultPlan::chaotic(seed)
        } else {
            FaultPlan::adversarial(seed)
        };
        Ok(FaultPlan {
            reorder: reorder.unwrap_or(base.reorder),
            duplicate: duplicate.unwrap_or(base.duplicate),
            drop: drop.unwrap_or(base.drop),
            ..base
        })
    }
}

// ---- mailboxes --------------------------------------------------------------

/// One message queue per rank. A receive takes the first queued message
/// its wait matches.
pub(crate) struct Mailboxes(Vec<Vec<Message>>);

impl Mailboxes {
    pub(crate) fn new(nprocs: usize) -> Mailboxes {
        Mailboxes(vec![Vec::new(); nprocs])
    }

    /// Queue `msg` for `dest`: at the tail, or, given `reorder`, at a
    /// random position that never overtakes an earlier message from the
    /// same (source, communicator) — MPI's non-overtaking guarantee.
    pub(crate) fn deliver(&mut self, dest: usize, msg: Message, reorder: Option<&mut SplitMix64>) {
        let queue = &mut self.0[dest];
        let pos = match reorder {
            Some(rng) => {
                let floor = queue
                    .iter()
                    .rposition(|m| m.src == msg.src && m.comm == msg.comm)
                    .map_or(0, |i| i + 1);
                // Any slot in [floor, len] is a legal arrival position.
                rng.range(floor, queue.len() + 1)
            }
            None => queue.len(),
        };
        queue.insert(pos, msg);
    }

    /// Does `wait.rank`'s queue hold a message `wait` matches?
    pub(crate) fn has_match(&self, wait: &RankWait) -> bool {
        self.0[wait.rank].iter().any(|m| wait.matches(m))
    }

    /// Remove and return the first message `wait` matches.
    pub(crate) fn take(&mut self, wait: &RankWait) -> Option<Message> {
        let queue = &mut self.0[wait.rank];
        let pos = queue.iter().position(|m| wait.matches(m))?;
        Some(queue.remove(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: i64) -> Message {
        Message {
            src,
            tag,
            comm: 0,
            payload: Payload::Elems(vec![tag as f64]),
        }
    }

    fn wait(src: Option<usize>, tag: Option<i64>) -> RankWait {
        RankWait {
            rank: 0,
            src,
            tag,
            comm: 0,
            span: Span::DUMMY,
        }
    }

    #[test]
    fn fifo_without_reorder() {
        let mut boxes = Mailboxes::new(2);
        for i in 0..5 {
            boxes.deliver(0, msg(1, i), None);
        }
        for i in 0..5 {
            let m = boxes.take(&wait(Some(1), None)).unwrap();
            assert_eq!(m.tag, i, "FIFO per (src, comm)");
        }
        assert!(!boxes.has_match(&wait(None, None)));
    }

    #[test]
    fn reorder_preserves_same_source_order() {
        // Under any seed, messages from one source on one communicator must
        // stay in order even with every delivery reordered.
        for seed in 0..50 {
            let mut rng = SplitMix64::new(seed);
            let mut boxes = Mailboxes::new(2);
            for i in 0..8 {
                boxes.deliver(0, msg(1, i), Some(&mut rng));
            }
            for i in 0..8 {
                assert_eq!(boxes.take(&wait(Some(1), None)).unwrap().tag, i);
            }
        }
    }

    #[test]
    fn matching_respects_source_tag_and_communicator() {
        let mut boxes = Mailboxes::new(2);
        boxes.deliver(0, msg(1, 3), None);
        assert!(!boxes.has_match(&wait(Some(2), None)));
        assert!(!boxes.has_match(&wait(Some(1), Some(4))));
        assert!(!boxes.has_match(&RankWait {
            comm: 1,
            ..wait(None, None)
        }));
        assert!(boxes.has_match(&wait(None, Some(3))));
        assert_eq!(boxes.take(&wait(None, None)).unwrap().payload.len(), 1);
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
        let custom = FaultPlan::from_spec("seed=1,drop=0.5,reorder=0").unwrap();
        assert_eq!(custom.drop, 0.5);
        assert_eq!(custom.reorder, 0.0);
        // An explicit zero is kept, not replaced by the chaotic default.
        let quiet = FaultPlan::from_spec("seed=1,mode=chaotic,drop=0,dup=0").unwrap();
        assert_eq!((quiet.drop, quiet.duplicate), (0.0, 0.0));
        assert!(quiet.is_legal());
        let half = FaultPlan::from_spec("mode=chaotic,dup=0").unwrap();
        assert_eq!((half.drop, half.duplicate), (0.05, 0.0));
        assert!(FaultPlan::from_spec("seed=x").is_err());
        assert!(FaultPlan::from_spec("bogus=1").is_err());
        assert!(FaultPlan::from_spec("drop=2.0").is_err());
        for retired in ["delay=0.2", "max_delay=150", "stagger=400"] {
            assert!(FaultPlan::from_spec(retired).is_err(), "{retired}");
        }
        assert!(FaultPlan::adversarial(0).is_legal());
    }

    #[test]
    fn schedule_plans_derive_deterministically_and_differ() {
        let plan = FaultPlan::chaotic(0);
        assert_eq!(plan.for_schedule(5, 3), plan.for_schedule(5, 3));
        assert_ne!(plan.for_schedule(5, 3).seed, plan.for_schedule(5, 4).seed);
        assert_ne!(plan.for_schedule(5, 3).seed, plan.for_schedule(6, 3).seed);
        assert_eq!(plan.for_schedule(5, 3).drop, plan.drop);
    }
}
