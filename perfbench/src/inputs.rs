//! Seeded workload inputs. Everything a workload feeds the program is
//! derived here from the workload seed and nothing else, so one seed
//! always yields the same batch, session plan or question stream.

use ira::evalkit::QuizBank;
use ira::serve::{AdmissionConfig, RequestKind, ServeRequest};
use ira::simnet::Duration;
use ira::worldmodel::scenario::{
    self, CABLE_CUT, REGIONAL_GRID_FAILURE, ROUTE_LEAK, SOLAR_SUPERSTORM,
};
use ira::worldmodel::World;

/// The four registered scenarios, in the order workloads cycle them.
pub const SCENARIOS: [&str; 4] = [
    SOLAR_SUPERSTORM,
    CABLE_CUT,
    REGIONAL_GRID_FAILURE,
    ROUTE_LEAK,
];

/// SplitMix64: a small, fully specified generator, so inputs do not
/// depend on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x1DA5_EED5_0FBE_7C00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A tenant seed: small enough to read in a transcript.
    pub fn tenant(&mut self) -> u64 {
        self.next_u64() % 1_000_000
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One quiz bank per registered scenario, in [`SCENARIOS`] order.
pub fn quiz_banks(world: &World) -> Vec<QuizBank> {
    SCENARIOS
        .iter()
        .map(|name| {
            let sc = scenario::lookup(name).expect("registered scenario");
            QuizBank::for_scenario(world, sc.as_ref())
        })
        .collect()
}

/// Requests per `serve_mix` batch, by kind: mostly `ask`, then
/// `train`, then `quiz`, and a few panic probes. Fixed counts keep the
/// mix (and so the work per batch) the same for every seed.
pub const SERVE_ASKS: usize = 600;
pub const SERVE_TRAINS: usize = 250;
pub const SERVE_QUIZZES: usize = 130;
pub const SERVE_PROBES: usize = 20;
pub const SERVE_REQUESTS: usize = SERVE_ASKS + SERVE_TRAINS + SERVE_QUIZZES + SERVE_PROBES;

/// Deadlines that cut a request short (virtual µs): a training run
/// stops after its first goals, a quiz after its first items.
const TRAIN_CUT_US: u64 = 5_000_000;
const ASK_CUT_US: u64 = 5_000_000;
const QUIZ_CUT_US: u64 = 100_000_000;

/// Admission sized for the batch: arrivals 250 ms apart refill 0.95
/// tokens each, so once the burst is spent one arrival in twenty is
/// shed. Every request is billable, so the shed share is the same for
/// every seed. 128 modeled lanes exceed the nominal load, so queue-full
/// sheds do not occur.
pub fn serve_admission() -> AdmissionConfig {
    AdmissionConfig {
        rate_per_sec: 3.8,
        burst: 16,
        arrival_spacing: Duration::from_millis(250),
        lanes: 128,
        max_queue_wait: Duration::from_secs(600),
    }
}

/// The `serve_mix` batch: [`SERVE_REQUESTS`] requests spread evenly
/// across the four scenarios, about 10% under fault injection, some
/// with deadlines that cut them, in a seeded order.
pub fn serve_batch(seed: u64, banks: &[QuizBank]) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed);
    let mut requests = Vec::with_capacity(SERVE_REQUESTS);
    let mut push = |kind: RequestKind, count: usize, rng: &mut Rng| {
        for i in 0..count {
            let scenario_index = i % SCENARIOS.len();
            let mut req = ServeRequest::new(String::new(), kind);
            req.scenario = SCENARIOS[scenario_index].to_string();
            req.seed = rng.tenant();
            // Every tenth request of a kind runs on a faulted network.
            if kind != RequestKind::PanicProbe && i % 10 == 3 {
                req.fault_intensity = 0.25;
                req.fault_seed = rng.tenant();
            }
            match kind {
                RequestKind::Ask => {
                    let bank: Vec<_> = banks[scenario_index].iter().collect();
                    req.question = Some(bank[rng.below(bank.len())].question.clone());
                    if i % 20 == 7 {
                        req.deadline_us = Some(ASK_CUT_US);
                    }
                }
                RequestKind::Train if i % 7 == 5 => req.deadline_us = Some(TRAIN_CUT_US),
                RequestKind::Quiz if i % 5 == 1 => req.deadline_us = Some(QUIZ_CUT_US),
                RequestKind::PanicProbe => {
                    // Recovers at once, recovers on retry, never recovers.
                    req.probe_panics = [Some(0), Some(1), None][i % 3];
                }
                _ => {}
            }
            requests.push(req);
        }
    };
    push(RequestKind::Ask, SERVE_ASKS, &mut rng);
    push(RequestKind::Train, SERVE_TRAINS, &mut rng);
    push(RequestKind::Quiz, SERVE_QUIZZES, &mut rng);
    push(RequestKind::PanicProbe, SERVE_PROBES, &mut rng);
    rng.shuffle(&mut requests);
    for (i, req) in requests.iter_mut().enumerate() {
        req.id = format!("r{i:04}-{}", req.kind.as_str());
    }
    requests
}

/// Render a batch as the JSONL the server reads.
pub fn to_jsonl(requests: &[ServeRequest]) -> String {
    let mut out = String::new();
    for req in requests {
        out.push_str(&serde_json::to_string(req).expect("request serializes"));
        out.push('\n');
    }
    out
}

/// Distractors per corpus in the large webs of `bigweb` and
/// `longlived`: about 40 times the default 150.
pub const BIG_DISTRACTORS: usize = 6_000;

/// Sessions per `bigweb` round.
pub const BIGWEB_SESSIONS: usize = 100;

/// Passes over the quiz banks in a `longlived` round: with the 21
/// questions of the four banks, a round is 210 questions. The agent
/// learns mostly in the first pass, so the share of questions that
/// learn stays well under a tenth and `latency_p90_ms` measures
/// answering, not the boundary between answering and learning.
pub const LONGLIVED_PASSES: usize = 10;

/// Entries the `longlived` store is pre-filled to: most of the store's
/// 2,000-entry capacity, leaving room for what the agent learns.
pub const LONGLIVED_ENTRIES: usize = 1_800;

/// One `bigweb` session: its scenario (index into [`SCENARIOS`]) and
/// tenant seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlan {
    pub scenario: usize,
    pub tenant: u64,
}

/// The corpus seed of every web: the default web's, which is also the
/// seed `ServeConfig` gives `Server`. Workload seeds pick tenants,
/// questions and request order; the webs stay fixed, as a deployed
/// index would, so a seed does not change how hard a scenario is to
/// research.
pub const CORPUS_SEED: u64 = 0xC0FFEE;

/// The `bigweb` round: [`BIGWEB_SESSIONS`] sessions cycling the four
/// scenarios, each with its own tenant seed.
pub fn bigweb_plan(seed: u64) -> Vec<SessionPlan> {
    let mut rng = Rng::new(seed);
    (0..BIGWEB_SESSIONS)
        .map(|i| SessionPlan {
            scenario: i % SCENARIOS.len(),
            tenant: rng.tenant(),
        })
        .collect()
}

/// One `longlived` question: scenario index and item index in that
/// scenario's quiz bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuestionPlan {
    pub scenario: usize,
    pub item: usize,
}

/// The tenant seed of the one `longlived` agent. It is the same for
/// every workload seed: which questions an agent answers from memory and
/// which send it back to the web depends on its seeds, and the answer
/// mix would otherwise change the work from one seed to the next.
pub const LONGLIVED_TENANT: u64 = 0;

/// The `longlived` stream: [`LONGLIVED_PASSES`] passes, each every
/// question of every quiz bank once in a seeded order. The questions
/// asked are the same for every seed, so how much the agent must learn
/// is too; the seed decides their order.
pub fn longlived_plan(seed: u64, banks: &[QuizBank]) -> Vec<QuestionPlan> {
    let mut rng = Rng::new(seed);
    let all: Vec<QuestionPlan> = banks
        .iter()
        .enumerate()
        .flat_map(|(scenario, bank)| {
            (0..bank.len()).map(move |item| QuestionPlan { scenario, item })
        })
        .collect();
    let mut stream = Vec::with_capacity(all.len() * LONGLIVED_PASSES);
    for _ in 0..LONGLIVED_PASSES {
        let mut pass = all.clone();
        rng.shuffle(&mut pass);
        stream.extend(pass);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_batch() {
        let banks = quiz_banks(&World::standard());
        let a = to_jsonl(&serve_batch(7, &banks));
        assert_eq!(a, to_jsonl(&serve_batch(7, &banks)));
        assert_ne!(a, to_jsonl(&serve_batch(8, &banks)));
        assert_eq!(bigweb_plan(7), bigweb_plan(7));
        assert_eq!(longlived_plan(7, &banks), longlived_plan(7, &banks));
        assert!(longlived_plan(7, &banks).len() >= 100);
        assert_ne!(longlived_plan(7, &banks), longlived_plan(8, &banks));
    }

    #[test]
    fn serve_batch_has_the_fixed_mix() {
        let banks = quiz_banks(&World::standard());
        let batch = serve_batch(1, &banks);
        assert_eq!(batch.len(), SERVE_REQUESTS);
        let count = |kind| batch.iter().filter(|r| r.kind == kind).count();
        assert_eq!(count(RequestKind::Ask), SERVE_ASKS);
        assert_eq!(count(RequestKind::Train), SERVE_TRAINS);
        assert_eq!(count(RequestKind::Quiz), SERVE_QUIZZES);
        assert_eq!(count(RequestKind::PanicProbe), SERVE_PROBES);
        let faulted = batch.iter().filter(|r| r.fault_intensity > 0.0).count();
        assert_eq!(faulted, 98, "every tenth non-probe request");
        for name in SCENARIOS {
            assert!(batch.iter().filter(|r| r.scenario == name).count() >= 245);
        }
        assert!(batch.iter().all(|r| r.validate().is_ok()));
    }
}
