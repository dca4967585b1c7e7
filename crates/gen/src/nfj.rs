//! Nested fork-join DAG generation (the paper's generator, §5.1).

use hetrta_dag::{Dag, Labels, NodeId, Ticks};
use rand::distributions::{Bernoulli, Distribution, Uniform};
use rand::{Rng, RngCore};

use crate::GenError;

/// Parameters of the nested fork-join generator.
///
/// Terminology follows the paper:
///
/// * `p_par` — probability that a node expands into a parallel sub-DAG
///   (the complement `1 − p_par` yields a terminal node);
/// * `n_par` — maximum number of branches of any parallel sub-DAG
///   (each sub-DAG draws its branch count uniformly from `[2, n_par]`);
/// * `max_depth` — maximum recursion depth; it "also determines the longest
///   possible path of the DAG", which is `2·max_depth + 1` nodes (every
///   level adds a fork and a join around its branches);
/// * `n_min ..= n_max` — accepted node-count range, enforced by rejection
///   sampling;
/// * `c_min ..= c_max` — uniform WCET range of every node (paper: `[1, 100]`).
///
/// Construct via [`NfjParams::new`] or the paper presets, then customize
/// with the `with_*` methods:
///
/// ```
/// use hetrta_gen::NfjParams;
///
/// let p = NfjParams::large_tasks().with_node_range(250, 400);
/// assert_eq!(p.n_min(), 250);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NfjParams {
    p_par: f64,
    n_par: usize,
    max_depth: usize,
    n_min: usize,
    n_max: usize,
    c_min: u64,
    c_max: u64,
    max_attempts: usize,
}

impl NfjParams {
    /// Creates parameters with the paper's defaults for everything not
    /// explicitly given: `p_par = 0.5`, WCETs in `[1, 100]`, 100 000
    /// rejection attempts.
    #[must_use]
    pub fn new(n_par: usize, max_depth: usize, n_min: usize, n_max: usize) -> Self {
        NfjParams {
            p_par: 0.5,
            n_par,
            max_depth,
            n_min,
            n_max,
            c_min: 1,
            c_max: 100,
            max_attempts: 100_000,
        }
    }

    /// The paper's *small tasks*: `n ≤ 100`, `n_par = 6`, `max_depth = 3`
    /// (longest possible path: 7 nodes). Used for the ILP-comparison
    /// experiment (Fig. 7).
    #[must_use]
    pub fn small_tasks() -> Self {
        NfjParams::new(6, 3, 3, 100)
    }

    /// The paper's *large tasks*: `n ∈ [100, 400]`, `n_par = 8`,
    /// `max_depth = 5` (longest possible path: 11 nodes). Used for
    /// Figs. 6, 8 and 9.
    #[must_use]
    pub fn large_tasks() -> Self {
        NfjParams::new(8, 5, 100, 400)
    }

    /// The *large-graph* tier (beyond the paper's sizes): nested
    /// fork-join graphs of up to `n_max` nodes, accepted from
    /// `n_max / 4` upward.
    ///
    /// The recursion depth is derived from the target size (the NFJ
    /// process grows geometrically with depth, roughly ×5 per level at
    /// `n_par = 8`), and the expansion probability is raised to `0.85` so
    /// degenerate single-node samples are rare. A rejected sample costs
    /// only its random draws and the accepted one is frozen in one
    /// `O(|V| + |E|)` pass, which is what makes this tier practical:
    /// `hetrta engine sweep --n-max 10000` sweeps ten-thousand-node DAGs.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetrta_gen::NfjParams;
    ///
    /// let p = NfjParams::large_graphs(10_000);
    /// assert_eq!(p.n_min(), 2_500);
    /// assert_eq!(p.n_max(), 10_000);
    /// ```
    #[must_use]
    pub fn large_graphs(n_max: usize) -> Self {
        // depth ≈ log₅(0.75·n_max): lands the typical sample size inside
        // the [n_max/4, n_max] acceptance window (tuned empirically).
        let target = (0.75 * n_max.max(4) as f64).ln() / 5f64.ln();
        let depth = (target.round() as usize).max(3);
        NfjParams::new(8, depth, (n_max / 4).max(1), n_max)
            .with_p_par(0.85)
            .with_max_attempts(1_000)
    }

    /// Sets the probability of parallel expansion.
    #[must_use]
    pub fn with_p_par(mut self, p_par: f64) -> Self {
        self.p_par = p_par;
        self
    }

    /// Sets the accepted node-count range.
    #[must_use]
    pub fn with_node_range(mut self, n_min: usize, n_max: usize) -> Self {
        self.n_min = n_min;
        self.n_max = n_max;
        self
    }

    /// Sets the WCET range `[c_min, c_max]`.
    #[must_use]
    pub fn with_wcet_range(mut self, c_min: u64, c_max: u64) -> Self {
        self.c_min = c_min;
        self.c_max = c_max;
        self
    }

    /// Sets the rejection-sampling attempt budget.
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Probability of parallel expansion.
    #[must_use]
    pub fn p_par(&self) -> f64 {
        self.p_par
    }

    /// Maximum branches per parallel sub-DAG.
    #[must_use]
    pub fn n_par(&self) -> usize {
        self.n_par
    }

    /// Maximum recursion depth.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Minimum accepted node count.
    #[must_use]
    pub fn n_min(&self) -> usize {
        self.n_min
    }

    /// Maximum accepted node count.
    #[must_use]
    pub fn n_max(&self) -> usize {
        self.n_max
    }

    /// Minimum per-node WCET (ticks).
    #[must_use]
    pub fn c_min(&self) -> u64 {
        self.c_min
    }

    /// Maximum per-node WCET (ticks).
    #[must_use]
    pub fn c_max(&self) -> u64 {
        self.c_max
    }

    /// Rejection-sampling attempt budget.
    #[must_use]
    pub fn max_attempts(&self) -> usize {
        self.max_attempts
    }

    /// Longest possible path (in nodes) any generated DAG can have:
    /// `2·max_depth + 1`.
    #[must_use]
    pub fn longest_possible_path(&self) -> usize {
        2 * self.max_depth + 1
    }

    fn validate(&self) -> Result<(), GenError> {
        if !(0.0..=1.0).contains(&self.p_par) {
            return Err(GenError::InvalidParams(format!(
                "p_par = {} not in [0, 1]",
                self.p_par
            )));
        }
        if self.n_par < 2 {
            return Err(GenError::InvalidParams(format!(
                "n_par = {} must be ≥ 2",
                self.n_par
            )));
        }
        if self.n_min == 0 || self.n_min > self.n_max {
            return Err(GenError::InvalidParams(format!(
                "node range [{}, {}] is empty or zero",
                self.n_min, self.n_max
            )));
        }
        if self.c_min == 0 || self.c_min > self.c_max {
            return Err(GenError::InvalidParams(format!(
                "WCET range [{}, {}] is empty or contains zero",
                self.c_min, self.c_max
            )));
        }
        if self.max_attempts == 0 {
            return Err(GenError::InvalidParams("max_attempts must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// Generates one random nested fork-join DAG according to `params`.
///
/// The recursive expansion starts from a single node. A node at depth
/// `d < max_depth` becomes, with probability `p_par`, a parallel sub-DAG:
/// a fork node, `b ∈ [2, n_par]` recursively expanded branches and a join
/// node. Otherwise it becomes a terminal node. Every materialized node draws
/// its WCET uniformly from `[c_min, c_max]`.
///
/// By construction the result is acyclic, has exactly one source and one
/// sink, and contains no transitive edges — it satisfies the paper's task
/// model without post-processing.
///
/// Samples outside `[n_min, n_max]` are rejected and redrawn. Each attempt
/// is split in two passes: a *draw* pass makes the attempt's random draws
/// and records them, and an *emit* pass turns the record into a [`Dag`]
/// only for the accepted attempt. A rejected attempt therefore costs its
/// draws and nothing else, and an attempt ends as soon as it passes
/// `n_max` nodes, since it is rejected whatever it would draw next. This
/// matters for narrow node ranges: at 60–120 nodes about 30 attempts are
/// made per accepted graph, and most of the words that expanding them in
/// full would draw belong to attempts already past `n_max`.
///
/// The draw pass is one loop over a stack of per-depth pending counts. It
/// makes the draws of expanding a graph directly, in the same order (per
/// expanded node: `gen_bool` unless at `max_depth`, then the fork WCET,
/// the join WCET and the branch count; per terminal: its WCET), through
/// samplers set up once per call: a [`Bernoulli`] for expansion and a
/// [`Uniform`] each for WCETs and branch counts, which return what the
/// matching `gen_bool`/`gen_range` calls return. A WCET draw records its
/// raw word, and the emit pass maps only the accepted attempt's words
/// through the WCET sampler. So an accepted attempt yields the graph, and
/// leaves `rng` in the state, of expanding it directly, and a rejected
/// one draws a prefix of that expansion's words. Acceptance depends only
/// on an attempt's own draws, so accepted graphs follow the distribution
/// of the direct rejection loop; which graph a given seed yields is part
/// of the task stream that [`STREAM_VERSION`](crate::STREAM_VERSION)
/// names.
///
/// # Errors
///
/// - [`GenError::InvalidParams`] for inconsistent parameters;
/// - [`GenError::AttemptsExhausted`] if no sample hits `[n_min, n_max]`
///   within the attempt budget.
///
/// # Examples
///
/// ```
/// use hetrta_gen::{generate_nfj, NfjParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let dag = generate_nfj(&NfjParams::small_tasks(), &mut rng)?;
/// assert!(dag.node_count() >= 3 && dag.node_count() <= 100);
/// # Ok::<(), hetrta_gen::GenError>(())
/// ```
pub fn generate_nfj<R: Rng + ?Sized>(params: &NfjParams, rng: &mut R) -> Result<Dag, GenError> {
    params.validate()?;
    let samplers = Samplers::new(params);
    let mut tape = Tape::new(params);
    for _ in 0..params.max_attempts {
        tape.draw(&samplers, rng);
        if (params.n_min..=params.n_max).contains(&tape.nodes) {
            // Valid by construction (acyclic, single terminals, no
            // transitive edges), so the unvalidated freeze suffices.
            let dag = tape.emit(&samplers.wcet);
            debug_assert!(hetrta_dag::validate_task_model(&dag).is_ok());
            return Ok(dag);
        }
    }
    Err(GenError::AttemptsExhausted {
        attempts: params.max_attempts,
    })
}

/// The expansion's three samplers: whether a node expands, a WCET, and a
/// branch count.
struct Samplers {
    expand: Bernoulli,
    wcet: Uniform<u64>,
    branches: Uniform<usize>,
}

impl Samplers {
    /// Expects validated parameters.
    fn new(params: &NfjParams) -> Self {
        Samplers {
            expand: Bernoulli::new(params.p_par).expect("validated p_par lies in [0, 1]"),
            wcet: Uniform::new_inclusive(params.c_min, params.c_max),
            branches: Uniform::new_inclusive(2, params.n_par),
        }
    }
}

/// The record of one expansion attempt, reused across attempts.
///
/// `words` holds, per materialized node in node-id order (a sub-DAG's
/// fork and join come before its branches), the random word its WCET is
/// drawn from, and `shape` one entry per abstract node in depth-first
/// order: its branch count, or 0 for a terminal. An attempt ends as soon
/// as it passes `n_max` nodes, since it is rejected whatever it would
/// draw next.
struct Tape {
    n_max: usize,
    max_depth: usize,
    nodes: usize,
    words: Vec<u64>,
    shape: Vec<usize>,
    /// The draw pass's depth stack: entry `d` counts the abstract nodes
    /// at depth `d` still to be drawn (below the innermost open fork).
    pending: Vec<usize>,
}

impl Tape {
    fn new(params: &NfjParams) -> Self {
        // An attempt nests at most `max_depth` levels below the root, and
        // about `n_max / 2` before it ends, since each level adds a fork
        // and a join. The reservation is best effort: if both bounds are
        // too large to reserve, the pushes grow the stack instead.
        let mut pending = Vec::new();
        let _ = pending.try_reserve_exact(params.max_depth.min(params.n_max / 2) + 1);
        Tape {
            n_max: params.n_max,
            max_depth: params.max_depth,
            nodes: 0,
            words: Vec::new(),
            shape: Vec::new(),
            pending,
        }
    }

    /// Makes the draws of one attempt, depth first from the root.
    fn draw<R: Rng + ?Sized>(&mut self, samplers: &Samplers, rng: &mut R) {
        self.nodes = 0;
        self.words.clear();
        self.shape.clear();
        self.pending.clear();
        self.pending.push(1);
        while let Some(left) = self.pending.last_mut() {
            if *left == 0 {
                self.pending.pop();
                continue;
            }
            *left -= 1;
            // The node's depth is `pending.len() - 1`.
            if self.pending.len() <= self.max_depth && samplers.expand.sample(rng) {
                let fork = rng.next_u64();
                let join = rng.next_u64();
                let branches = samplers.branches.sample(rng);
                self.record(branches, &[fork, join]);
                self.pending.push(branches);
            } else {
                let terminal = rng.next_u64();
                self.record(0, &[terminal]);
            }
            if self.nodes > self.n_max {
                // Rejected whatever it would draw next.
                return;
            }
        }
    }

    fn record(&mut self, branches: usize, words: &[u64]) {
        self.nodes += words.len();
        self.words.extend_from_slice(words);
        self.shape.push(branches);
    }

    /// Replays the recorded attempt into WCETs, node labels and edges, in
    /// the order a direct expansion adds them, and freezes it once.
    fn emit(self, wcet: &Uniform<u64>) -> Dag {
        // Collected in place: the words' buffer becomes the WCETs'.
        let wcets: Vec<Ticks> = self
            .words
            .into_iter()
            .map(|word| Ticks::new(wcet.sample(&mut Recorded(word))))
            .collect();
        let nodes = wcets.len();
        // Labels are `t@d`, `fork@d` or `join@d`: 8 bytes each covers
        // depths below 100 without regrowing the buffer.
        let mut labels = Labels::with_capacity(nodes, 8 * nodes);
        // Every abstract node but the root hangs off one fork by two edges.
        let mut edges = Vec::with_capacity(2 * (self.shape.len() - 1));
        emit_node(&mut self.shape.iter(), 0, &mut labels, &mut edges);
        Dag::from_parts(wcets, labels, &edges)
    }
}

/// A random source that returns one recorded word: replays a draw.
struct Recorded(u64);

impl RngCore for Recorded {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Emits one abstract node and its expansion; returns its (entry, exit)
/// node ids. Node ids are handed out in label order.
fn emit_node(
    shape: &mut std::slice::Iter<'_, usize>,
    depth: usize,
    labels: &mut Labels,
    edges: &mut Vec<(NodeId, NodeId)>,
) -> (NodeId, NodeId) {
    let branches = *shape.next().expect("an accepted attempt is fully recorded");
    let mut node = |kind: &str| {
        push_label(labels, kind, depth);
        NodeId::from_index(labels.len() - 1)
    };
    if branches == 0 {
        let t = node("t");
        return (t, t);
    }
    let fork = node("fork");
    let join = node("join");
    for _ in 0..branches {
        let (entry, exit) = emit_node(shape, depth + 1, labels, edges);
        edges.push((fork, entry));
        edges.push((exit, join));
    }
    (fork, join)
}

/// Appends the label `{kind}@{depth}`. The depth's digits are written by
/// hand: `core::fmt`'s machinery costs far more than the few bytes of a
/// label.
fn push_label(labels: &mut Labels, kind: &str, depth: usize) {
    // `fork@` and the 20 digits of `usize::MAX` fit.
    let mut buf = [0u8; 32];
    let mut start = buf.len();
    let mut rest = depth;
    loop {
        start -= 1;
        buf[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    start -= 1;
    buf[start] = b'@';
    start -= kind.len();
    buf[start..start + kind.len()].copy_from_slice(kind.as_bytes());
    labels.push(std::str::from_utf8(&buf[start..]).expect("ASCII label"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::algo::{topological_order, transitive, CriticalPath};
    use hetrta_dag::{validate_task_model, DagBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The rejection loop `generate_nfj` had before draws and emission
    /// were split, kept as the parity reference: every attempt expands
    /// straight into a `DagBuilder`, and the accepted one is frozen.
    fn reference_generate<R: Rng + ?Sized>(
        params: &NfjParams,
        rng: &mut R,
    ) -> Result<Dag, GenError> {
        params.validate()?;
        for attempt in 1..=params.max_attempts {
            let mut b = DagBuilder::new();
            reference_expand(&mut b, 0, params, rng);
            let n = b.node_count();
            if n >= params.n_min && n <= params.n_max {
                return Ok(b.freeze());
            }
            if attempt == params.max_attempts {
                return Err(GenError::AttemptsExhausted { attempts: attempt });
            }
        }
        unreachable!("loop returns or errors on the last attempt")
    }

    fn reference_expand<R: Rng + ?Sized>(
        b: &mut DagBuilder,
        depth: usize,
        params: &NfjParams,
        rng: &mut R,
    ) -> (NodeId, NodeId) {
        let wcet = |rng: &mut R| Ticks::new(rng.gen_range(params.c_min..=params.c_max));
        if depth < params.max_depth && rng.gen_bool(params.p_par) {
            let fork = b.node(format!("fork@{depth}"), wcet(rng));
            let join = b.node(format!("join@{depth}"), wcet(rng));
            let branches = rng.gen_range(2..=params.n_par);
            for _ in 0..branches {
                let (entry, exit) = reference_expand(b, depth + 1, params, rng);
                b.edge(fork, entry).expect("fresh branch entry");
                b.edge(exit, join).expect("fresh branch exit");
            }
            (fork, join)
        } else {
            let t = b.node(format!("t@{depth}"), wcet(rng));
            (t, t)
        }
    }

    /// Counts the words drawn from the wrapped generator.
    struct Counting<R> {
        rng: R,
        words: u64,
    }

    impl<R: RngCore> RngCore for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.rng.next_u64()
        }
    }

    /// The words a whole reference attempt draws up to and including the
    /// step that takes it past `n_max` nodes, or `None` if it never
    /// passes. Read off the attempt's graph: node ids follow the draws,
    /// and a fork's join is added with it.
    fn words_until_past_n_max(whole: &Dag, params: &NfjParams) -> Option<u64> {
        let (mut nodes, mut words) = (0, 0);
        for v in whole.node_ids() {
            let (kind, depth) = whole.label(v).split_once('@').expect("an NFJ label");
            let below_max_depth = depth.parse::<usize>().expect("a depth") < params.max_depth;
            // `gen_bool` below `max_depth`, then the fork and join WCETs
            // and the branch count, or the terminal's WCET.
            let (added, drawn) = match kind {
                "join" => continue,
                "fork" => (2, 3),
                _ => (1, 1),
            };
            nodes += added;
            words += u64::from(below_max_depth) + drawn;
            if nodes > params.n_max {
                return Some(words);
            }
        }
        None
    }

    /// How the checked attempts ended.
    #[derive(Debug, Default)]
    struct Tally {
        accepted: usize,
        too_small: usize,
        /// Rejected above `n_max` on the attempt's last step, so the
        /// reference drew nothing more either.
        too_big_at_the_end: usize,
        /// Rejected above `n_max` before the reference's attempt ended:
        /// strictly fewer words than the reference.
        cut_short: usize,
    }

    /// Runs one attempt of `generate_nfj` on `rng`, and one of the
    /// reference from the same state, and checks it against the
    /// reference's: an accepted attempt is accepted with the same graph
    /// and leaves the same next word; a rejected one is rejected too; and
    /// the attempt draws a prefix of the reference's words, all of them
    /// unless the reference attempt passed `n_max`, and otherwise exactly
    /// those up to the step that passed it.
    fn check_attempt(params: &NfjParams, rng: &mut StdRng, tally: &mut Tally) -> Option<Dag> {
        let once = params.clone().with_max_attempts(1);
        let state = rng.clone();
        let mut new = Counting { rng, words: 0 };
        let got = generate_nfj(&once, &mut new);
        let mut reference = Counting {
            rng: state.clone(),
            words: 0,
        };
        let want = reference_generate(&once, &mut reference);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{params:?}");
        if let Ok(dag) = got {
            assert_eq!(new.words, reference.words, "{params:?}");
            assert_eq!(
                new.rng.clone().next_u64(),
                reference.rng.next_u64(),
                "{params:?}"
            );
            tally.accepted += 1;
            return Some(dag);
        }
        let whole = reference_generate(
            &once.clone().with_node_range(1, usize::MAX),
            &mut state.clone(),
        )
        .expect("every size is accepted");
        match words_until_past_n_max(&whole, params) {
            None => {
                assert_eq!(new.words, reference.words, "{params:?}");
                tally.too_small += 1;
            }
            Some(words) => {
                assert_eq!(new.words, words, "{params:?}");
                assert!(words <= reference.words, "{params:?}");
                if words < reference.words {
                    tally.cut_short += 1;
                } else {
                    tally.too_big_at_the_end += 1;
                }
            }
        }
        None
    }

    /// Per seed, calls `generate_nfj` `calls` times on one stream, and
    /// replays the calls attempt by attempt on a copy of the stream
    /// through [`check_attempt`]: every call must return what its replay
    /// did, and the stream must end where the replay's does.
    fn assert_matches_reference(
        params: &NfjParams,
        seeds: impl IntoIterator<Item = u64>,
        calls: usize,
    ) -> Tally {
        let mut tally = Tally::default();
        for seed in seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut replay = rng.clone();
            for call in 0..calls {
                let got = generate_nfj(params, &mut rng);
                let want = (0..params.max_attempts)
                    .find_map(|_| check_attempt(params, &mut replay, &mut tally))
                    .ok_or(GenError::AttemptsExhausted {
                        attempts: params.max_attempts,
                    });
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed}, call {call}: {params:?}"
                );
            }
            assert_eq!(
                rng.next_u64(),
                replay.next_u64(),
                "seed {seed}: stream diverged after {params:?}"
            );
        }
        tally
    }

    /// Near-critical binary branching (mean offspring 2 · 0.48 = 0.96)
    /// under a 200-level cap: graphs of 500 nodes or more nest far deeper
    /// than the paper presets' 3 to 5 levels.
    fn deep_shape() -> NfjParams {
        NfjParams::new(2, 200, 500, 4_000).with_p_par(0.48)
    }

    /// The paper's small tasks, the Figure 8 quick clip (60–120 nodes),
    /// the paper's large-task range, both `p_par` extremes, a budget the
    /// 60–120 clip often exhausts, depth caps of 0 and 1, and the deep
    /// shape.
    fn parity_presets() -> [NfjParams; 9] {
        [
            NfjParams::small_tasks(),
            NfjParams::large_tasks().with_node_range(60, 120),
            NfjParams::large_tasks().with_node_range(100, 250),
            NfjParams::new(4, 3, 1, 1).with_p_par(0.0),
            NfjParams::new(3, 3, 1, 1_000).with_p_par(1.0),
            NfjParams::large_tasks()
                .with_node_range(60, 120)
                .with_max_attempts(2),
            NfjParams::new(5, 0, 1, 10),
            NfjParams::new(5, 1, 1, 10),
            deep_shape(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn generate_matches_the_build_every_attempt_reference(
            seed: u64,
            preset in 0usize..9,
        ) {
            assert_matches_reference(&parity_presets()[preset], [seed], 3);
        }

        #[test]
        fn single_attempt_replays_match_the_reference(seed: u64, preset in 0usize..9) {
            // One attempt per call on one stream, as counting attempts
            // per accepted graph does.
            let once = parity_presets()[preset].clone().with_max_attempts(1);
            assert_matches_reference(&once, [seed], 40);
        }
    }

    #[test]
    fn attempts_end_early_only_past_n_max() {
        // On the 60–120 clip, attempts are accepted, too small, or cut
        // short past `n_max`.
        let clip = assert_matches_reference(&parity_presets()[1], 0..8, 4);
        assert_eq!(clip.accepted, 32, "{clip:?}");
        assert!(clip.too_small > 0 && clip.cut_short > 0, "{clip:?}");
        // One level of 2 to 5 branches under `n_max = 5`: a 6-node attempt
        // passes `n_max` on its last terminal, so it draws every word the
        // reference does, and a 7-node one stops a terminal short.
        let tiny = assert_matches_reference(&NfjParams::new(5, 1, 1, 5), 0..8, 4);
        assert!(
            tiny.too_big_at_the_end > 0 && tiny.cut_short > 0,
            "{tiny:?}"
        );
    }

    /// The two-sample Kolmogorov–Smirnov statistic: the largest gap
    /// between the empirical distribution functions of `a` and `b`.
    fn ks_statistic(mut a: Vec<u64>, mut b: Vec<u64>) -> f64 {
        a.sort_unstable();
        b.sort_unstable();
        let (mut i, mut j, mut gap) = (0, 0, 0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while a.get(i) == Some(&x) {
                i += 1;
            }
            while b.get(j) == Some(&x) {
                j += 1;
            }
            gap = gap.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        gap
    }

    /// Whether the KS test rejects "same distribution" at level `alpha`,
    /// by the asymptotic critical value
    /// `sqrt(-ln(alpha / 2) / 2) · sqrt((n + m) / (n · m))`; ties between
    /// integer samples only make it more conservative.
    fn ks_rejects(a: Vec<u64>, b: Vec<u64>, alpha: f64) -> bool {
        let (n, m) = (a.len() as f64, b.len() as f64);
        let critical = (-(alpha / 2.0).ln() / 2.0).sqrt() * ((n + m) / (n * m)).sqrt();
        ks_statistic(a, b) > critical
    }

    /// Node counts and volumes of graphs drawn one per seed.
    fn sizes(
        generate: fn(&NfjParams, &mut StdRng) -> Result<Dag, GenError>,
        params: &NfjParams,
        seeds: std::ops::Range<u64>,
    ) -> (Vec<u64>, Vec<u64>) {
        seeds
            .map(|seed| {
                let dag = generate(params, &mut StdRng::seed_from_u64(seed)).expect("accepts");
                (dag.node_count() as u64, dag.volume().get())
            })
            .unzip()
    }

    /// Ending attempts early changes which graph a seed yields, not the
    /// distribution of accepted graphs: per preset, the node counts and
    /// volumes of graphs from `generate_nfj` and from the reference (on
    /// disjoint fixed seeds) pass a two-sample KS test at α = 0.001 each,
    /// eight tests in all. The same test does tell the 60–120 clip from a
    /// 70–120 one.
    #[test]
    fn accepted_sizes_follow_the_reference_distribution() {
        const ALPHA: f64 = 0.001;
        let presets = [
            (NfjParams::small_tasks(), 600),
            (NfjParams::large_tasks().with_node_range(60, 120), 600),
            (NfjParams::large_tasks().with_node_range(100, 250), 400),
            (NfjParams::large_graphs(10_000), 60),
        ];
        for (params, n) in &presets {
            let (nodes, volumes) = sizes(generate_nfj, params, 0..*n);
            let reference = 1 << 32..(1 << 32) + n;
            let (ref_nodes, ref_volumes) = sizes(reference_generate, params, reference);
            assert!(
                !ks_rejects(nodes, ref_nodes, ALPHA),
                "node counts differ: {params:?}"
            );
            assert!(
                !ks_rejects(volumes, ref_volumes, ALPHA),
                "volumes differ: {params:?}"
            );
        }
        let clip = &presets[1].0;
        let (nodes, _) = sizes(reference_generate, clip, 0..600);
        let (narrower, _) = sizes(generate_nfj, &clip.clone().with_node_range(70, 120), 0..600);
        assert!(ks_rejects(nodes, narrower, ALPHA), "the test has no power");
    }

    /// Nodes on a longest path.
    fn longest_path_nodes(dag: &Dag) -> usize {
        let mut nodes = vec![1; dag.node_count()];
        for v in topological_order(dag).expect("acyclic") {
            for &s in dag.successors(v) {
                nodes[s.index()] = nodes[s.index()].max(nodes[v.index()] + 1);
            }
        }
        nodes.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn deep_graphs_match_the_reference() {
        let params = deep_shape();
        let deepest = (0..16)
            .map(|seed| {
                assert_matches_reference(&params, [seed], 1);
                let dag = generate_nfj(&params, &mut StdRng::seed_from_u64(seed)).expect("accepts");
                longest_path_nodes(&dag)
            })
            .max()
            .unwrap_or(0);
        // Some graph nests more than 64 levels below the root (its longest
        // path has more than 2·64 + 1 nodes): a fixed 64-entry depth
        // stack cannot hold its draws.
        assert!(deepest > 129, "deepest graph has a {deepest}-node path");
    }

    #[test]
    fn large_graphs_match_the_reference() {
        assert_matches_reference(&NfjParams::large_graphs(10_000), 0..3, 1);
    }

    #[test]
    fn exhausted_budgets_match_the_reference() {
        // Unreachable range: every attempt is rejected.
        let never = NfjParams::new(4, 2, 2, 2)
            .with_p_par(0.0)
            .with_max_attempts(10);
        assert_matches_reference(&never, [1], 3);
        // A two-attempt budget on the 60–120 clip: some seeds accept,
        // some exhaust; both outcomes must match.
        let tight = &parity_presets()[5];
        let exhausted = (0..32)
            .filter(|&seed| {
                assert_matches_reference(tight, [seed], 1);
                generate_nfj(tight, &mut StdRng::seed_from_u64(seed)).is_err()
            })
            .count();
        assert!(
            (1..32).contains(&exhausted),
            "{exhausted}/32 exhausted: both paths must be covered"
        );
    }

    #[test]
    fn presets_match_paper() {
        let small = NfjParams::small_tasks();
        assert_eq!(small.n_par(), 6);
        assert_eq!(small.max_depth(), 3);
        assert_eq!(small.longest_possible_path(), 7);
        let large = NfjParams::large_tasks();
        assert_eq!(large.n_par(), 8);
        assert_eq!(large.max_depth(), 5);
        assert_eq!(large.longest_possible_path(), 11);
        assert_eq!(large.p_par(), 0.5);
    }

    #[test]
    fn generated_dags_satisfy_task_model() {
        let mut rng = StdRng::seed_from_u64(42);
        let params = NfjParams::small_tasks();
        for _ in 0..50 {
            let dag = generate_nfj(&params, &mut rng).unwrap();
            validate_task_model(&dag).expect("model holds");
            assert!(transitive::is_transitively_reduced(&dag).unwrap());
        }
    }

    #[test]
    fn node_counts_respect_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = NfjParams::large_tasks().with_node_range(100, 250);
        for _ in 0..10 {
            let dag = generate_nfj(&params, &mut rng).unwrap();
            assert!(
                (100..=250).contains(&dag.node_count()),
                "n = {}",
                dag.node_count()
            );
        }
    }

    #[test]
    fn longest_path_bounded_by_depth() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = NfjParams::small_tasks().with_wcet_range(1, 1);
        for _ in 0..30 {
            let dag = generate_nfj(&params, &mut rng).unwrap();
            // WCETs all 1, so len(G) equals the hop count of the longest path.
            let len = CriticalPath::of(&dag).length().get() as usize;
            assert!(len <= params.longest_possible_path());
        }
    }

    #[test]
    fn wcets_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = NfjParams::small_tasks().with_wcet_range(5, 9);
        let dag = generate_nfj(&params, &mut rng).unwrap();
        for v in dag.node_ids() {
            let c = dag.wcet(v).get();
            assert!((5..=9).contains(&c));
        }
    }

    #[test]
    fn p_par_zero_yields_single_node() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = NfjParams::new(4, 3, 1, 1).with_p_par(0.0);
        let dag = generate_nfj(&params, &mut rng).unwrap();
        assert_eq!(dag.node_count(), 1);
    }

    #[test]
    fn p_par_one_always_expands_to_full_depth() {
        let mut rng = StdRng::seed_from_u64(1);
        // With p_par = 1 every node expands until max_depth, so the DAG has
        // at least 2·max_depth + 1 nodes on its longest chain.
        let params = NfjParams::new(2, 2, 1, 1000)
            .with_p_par(1.0)
            .with_wcet_range(1, 1);
        let dag = generate_nfj(&params, &mut rng).unwrap();
        let len = CriticalPath::of(&dag).length().get() as usize;
        assert_eq!(len, params.longest_possible_path());
    }

    #[test]
    fn unreachable_range_exhausts_attempts() {
        let mut rng = StdRng::seed_from_u64(1);
        // Node counts of the NFJ process are odd at p_par=0 (exactly 1);
        // requiring n = 2 can never succeed.
        let params = NfjParams::new(4, 2, 2, 2)
            .with_p_par(0.0)
            .with_max_attempts(10);
        assert_eq!(
            generate_nfj(&params, &mut rng).unwrap_err(),
            GenError::AttemptsExhausted { attempts: 10 }
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let bad_p = NfjParams::small_tasks().with_p_par(1.5);
        assert!(matches!(
            generate_nfj(&bad_p, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
        let bad_range = NfjParams::small_tasks().with_node_range(10, 5);
        assert!(matches!(
            generate_nfj(&bad_range, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
        let bad_wcet = NfjParams::small_tasks().with_wcet_range(0, 10);
        assert!(matches!(
            generate_nfj(&bad_wcet, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
        let bad_npar = NfjParams::new(1, 3, 1, 10);
        assert!(matches!(
            generate_nfj(&bad_npar, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
    }

    #[test]
    fn determinism_per_seed() {
        let params = NfjParams::small_tasks();
        let d1 = generate_nfj(&params, &mut StdRng::seed_from_u64(99)).unwrap();
        let d2 = generate_nfj(&params, &mut StdRng::seed_from_u64(99)).unwrap();
        assert_eq!(d1.node_count(), d2.node_count());
        assert_eq!(d1.edge_count(), d2.edge_count());
        assert_eq!(d1.volume(), d2.volume());
    }
}
