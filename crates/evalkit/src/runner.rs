//! End-to-end evaluation runs: train an agent, self-learn through the
//! quiz, and score consistency — plus the ungrounded baseline (the
//! paper's "ChatGPT directly" comparison) and the deterministic
//! parallel [`sweep`] runner the experiment binaries share.

use crate::consistency::ConsistencyReport;
use crate::provenance::ProvenanceReport;
use crate::quiz::QuizBank;
use ira_core::selflearn::LearningTrajectory;
use ira_core::ResearchAgent;
use ira_engine::{Engine, SessionConfig};
use ira_simllm::Llm;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Everything one evaluated run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalRun {
    pub consistency: ConsistencyReport,
    pub trajectories: Vec<LearningTrajectory>,
    pub provenance: ProvenanceReport,
}

impl EvalRun {
    /// Total self-learning rounds across the quiz.
    pub fn total_learning_rounds(&self) -> u32 {
        self.trajectories.iter().map(|t| t.learning_rounds()).sum()
    }

    /// Total searches issued during self-learning.
    pub fn total_searches(&self) -> usize {
        self.trajectories.iter().map(|t| t.total_searches()).sum()
    }
}

/// Evaluate a (typically freshly trained) agent on the quiz with full
/// self-learning per question.
pub fn evaluate_agent(
    agent: &mut ResearchAgent,
    quiz: &QuizBank,
    world_conclusions: &ira_worldmodel::ConclusionSet,
) -> EvalRun {
    let mut consistency = ConsistencyReport::new(&format!("agent {}", agent.role.name));
    let mut trajectories = Vec::new();
    for item in quiz.iter() {
        let trajectory = agent.self_learn(&item.question);
        let answer = agent.ask(&item.question);
        consistency.add(item, &answer);
        trajectories.push(trajectory);
    }
    let provenance = ProvenanceReport::audit(agent.memory(), world_conclusions);
    EvalRun {
        consistency,
        trajectories,
        provenance,
    }
}

/// The scenario-aware [`EvalRun`] path: evaluate an agent on the quiz
/// a scenario derives from `world`, with full self-learning per
/// question. The provenance audit's answer-key leak check runs against
/// the scenario's own conclusion statements. For the solar superstorm
/// the quiz is item-for-item identical to the legacy
/// [`evaluate_agent`] path.
pub fn evaluate_scenario(
    agent: &mut ResearchAgent,
    scenario: &dyn ira_worldmodel::scenario::Scenario,
    world: &ira_worldmodel::World,
) -> EvalRun {
    let quiz = QuizBank::for_scenario(world, scenario);
    let mut consistency =
        ConsistencyReport::new(&format!("agent {} on {}", agent.role.name, scenario.name()));
    let mut trajectories = Vec::new();
    for item in quiz.iter() {
        let trajectory = agent.self_learn(&item.question);
        let answer = agent.ask(&item.question);
        consistency.add(item, &answer);
        trajectories.push(trajectory);
    }
    let statements: Vec<String> = scenario
        .conclusions(world)
        .into_iter()
        .map(|c| c.statement)
        .collect();
    let provenance = ProvenanceReport::audit_statements(agent.memory(), &statements);
    EvalRun {
        consistency,
        trajectories,
        provenance,
    }
}

/// The baseline: the same model with no agent architecture — no
/// memory, no retrieval, no self-learning. This reproduces the paper's
/// observation that the raw model hedges.
pub fn evaluate_baseline(llm: &Llm, quiz: &QuizBank) -> ConsistencyReport {
    let mut report = ConsistencyReport::new("baseline (ungrounded LLM)");
    for item in quiz.iter() {
        let answer = llm.answer(&item.question, &[]);
        report.add(item, &answer);
    }
    report
}

/// Convenience: spawn Bob's session from `engine`, train, evaluate,
/// return both runs. Used by experiment E1 and the integration tests.
pub fn full_paper_run(engine: &Engine) -> (EvalRun, ConsistencyReport) {
    let mut session = engine.spawn_session(SessionConfig::bob());
    let quiz = QuizBank::from_world(session.world());
    let conclusions = session.world().conclusions();
    session.agent.train();
    let agent_run = evaluate_agent(&mut session.agent, &quiz, &conclusions);
    let baseline = evaluate_baseline(&Llm::gpt4(999), &quiz);
    (agent_run, baseline)
}

/// Run one independent job per item, optionally on `threads` worker
/// threads, and return the results **in item order** regardless of
/// completion order.
///
/// This is the deterministic sweep primitive the experiment binaries
/// and the CLI share: each job gets `(index, item)` and must be
/// self-contained (spawn its own session from a shared
/// [`ira_engine::Engine`], typically). Because jobs share no mutable
/// state and results are re-ordered by index, the output is invariant
/// under `threads` — `sweep(items, 8, job)` is byte-identical to
/// `sweep(items, 1, job)`, just faster. With `threads <= 1` the jobs
/// run inline on the caller's thread.
/// Merge per-session metric snapshots into one sweep-level rollup.
///
/// Counters add, gauges keep the high-watermark, histograms merge
/// bucket-wise — all commutative, so the rollup is identical no matter
/// what order the sessions finished in (and therefore invariant under
/// the sweep's thread count).
pub fn metrics_rollup<I>(snapshots: I) -> ira_obs::MetricsSnapshot
where
    I: IntoIterator<Item = ira_obs::MetricsSnapshot>,
{
    let mut total = ira_obs::MetricsSnapshot::default();
    for snap in snapshots {
        total.merge(&snap);
    }
    total
}

pub fn sweep<T, R, F>(items: Vec<T>, threads: usize, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for result in try_sweep(items, threads, job) {
        match result {
            Ok(r) => out.push(r),
            Err(p) => panic!("{p}"),
        }
    }
    out
}

/// A job that panicked during [`try_sweep`]: which item blew up and the
/// panic payload's message. Serializable so supervisors can forward it
/// as a typed error response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepPanic {
    /// Index of the item whose job panicked.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for SweepPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for SweepPanic {}

/// Render a caught panic payload as text.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`sweep`] with per-job panic isolation: a panicking job yields
/// `Err(SweepPanic)` at its own index while every other job still runs
/// to completion. This is what keeps one poisoned session from taking
/// down a whole evaluation run (or the serve layer's worker pool).
///
/// The same determinism contract as [`sweep`] applies: results come
/// back in item order and are invariant under `threads`. Note the
/// caught panic still triggers the process panic hook (the default hook
/// prints a backtrace to stderr); output streams are unaffected.
pub fn try_sweep<T, R, F>(items: Vec<T>, threads: usize, job: F) -> Vec<Result<R, SweepPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    // Jobs share no mutable state (that is the sweep contract), so
    // resuming after a caught panic observes nothing torn.
    let guarded = |i: usize, item: T| {
        catch_unwind(AssertUnwindSafe(|| job(i, item))).map_err(|payload| SweepPanic {
            index: i,
            message: panic_message(payload),
        })
    };

    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| guarded(i, item))
            .collect();
    }

    // Shared pull queue: workers take the next pending item, so a slow
    // job never stalls the rest of the sweep behind it.
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut indexed: Vec<(usize, Result<R, SweepPanic>)> = crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|_| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().expect("sweep queue poisoned").next();
                        match next {
                            Some((i, item)) => done.push((i, guarded(i, item))),
                            None => break done,
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope");

    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ira_worldmodel::World;

    #[test]
    fn sweep_preserves_item_order_across_threads() {
        // Jobs finish out of order (later items sleep less); results
        // must still come back in item order, identical to serial.
        let items: Vec<u64> = (0..12).collect();
        let job = |i: usize, item: u64| {
            std::thread::sleep(std::time::Duration::from_millis(12 - item));
            format!("{i}:{}", item * item)
        };
        let serial = sweep(items.clone(), 1, job);
        let parallel = sweep(items, 4, job);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], "3:9");
    }

    #[test]
    fn sweep_handles_degenerate_shapes() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep(empty, 8, |_, x: u32| x).is_empty());
        assert_eq!(sweep(vec![7u32], 8, |_, x| x + 1), vec![8]);
        // More threads than items must not hang or duplicate work.
        assert_eq!(sweep(vec![1u32, 2], 16, |_, x| x), vec![1, 2]);
    }

    #[test]
    fn try_sweep_isolates_panics_per_job() {
        let items: Vec<u32> = (0..8).collect();
        let job = |_i: usize, item: u32| {
            if item == 3 {
                panic!("static payload");
            }
            if item == 5 {
                panic!("dynamic payload for {item}");
            }
            item * 10
        };
        let serial = try_sweep(items.clone(), 1, job);
        let parallel = try_sweep(items, 4, job);
        assert_eq!(serial, parallel, "panic isolation must be thread-invariant");
        assert_eq!(serial.len(), 8);
        for (i, r) in serial.iter().enumerate() {
            match i {
                3 => assert_eq!(
                    r.as_ref().unwrap_err(),
                    &SweepPanic {
                        index: 3,
                        message: "static payload".into()
                    }
                ),
                5 => assert_eq!(
                    r.as_ref().unwrap_err().message,
                    "dynamic payload for 5",
                    "String panic payloads must be preserved"
                ),
                _ => assert_eq!(*r.as_ref().unwrap(), i as u32 * 10),
            }
        }
    }

    #[test]
    fn sweep_repropagates_the_first_panic_by_index() {
        let caught = std::panic::catch_unwind(|| {
            sweep(vec![0u32, 1, 2, 3], 2, |_, item| {
                if item >= 2 {
                    panic!("job {item} exploded");
                }
                item
            })
        });
        let message = panic_message(caught.unwrap_err());
        assert_eq!(message, "sweep job 2 panicked: job 2 exploded");
    }

    #[test]
    fn panicking_session_does_not_take_down_the_sweep() {
        // Regression: a deliberately-panicking session used to abort the
        // whole sweep via the worker join. Now its neighbours complete.
        let engine = ira_engine::Engine::new();
        let results = try_sweep(vec![0u64, 1, 2], 2, |_i, seed| {
            let mut session = engine.spawn_session(ira_engine::SessionConfig::bob());
            if seed == 1 {
                panic!("poisoned session {seed}");
            }
            session.agent.train();
            session.agent.memory().len()
        });
        assert!(results[0].is_ok() && results[2].is_ok());
        assert_eq!(results[0], results[2], "surviving sessions are untouched");
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &SweepPanic {
                index: 1,
                message: "poisoned session 1".into()
            }
        );
    }

    #[test]
    fn sweep_panic_round_trips_through_serde() {
        let p = SweepPanic {
            index: 4,
            message: "boom".into(),
        };
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<SweepPanic>(&json).unwrap(), p);
    }

    #[test]
    fn baseline_is_mostly_inconsistent_and_unconfident() {
        let quiz = QuizBank::from_world(&World::standard());
        let report = evaluate_baseline(&Llm::gpt4(1), &quiz);
        assert_eq!(report.total(), 8);
        assert!(
            report.consistent_count() <= 1,
            "ungrounded model matched {} conclusions",
            report.consistent_count()
        );
        assert!(report.mean_confidence() <= 3.0);
    }

    #[test]
    fn trained_agent_reaches_paper_level_consistency() {
        // The paper's headline: 7 of 8 conclusions consistent. This is
        // the full pipeline, so it doubles as an integration test.
        let (agent_run, baseline) = full_paper_run(&Engine::new());
        assert!(
            agent_run.consistency.consistent_count() >= 7,
            "agent matched only {} of {}:\n{:#?}",
            agent_run.consistency.consistent_count(),
            agent_run.consistency.total(),
            agent_run
                .consistency
                .per_item
                .iter()
                .map(|r| (r.id.clone(), r.matched.consistent, r.verdict.clone()))
                .collect::<Vec<_>>()
        );
        assert!(agent_run.consistency.consistent_count() > baseline.consistent_count());
        assert!(
            agent_run.provenance.clean(),
            "provenance: {:?}",
            agent_run.provenance
        );
        assert_eq!(agent_run.trajectories.len(), 8);
    }
}
