//! The three workloads: their datasets, query pools, request streams and
//! the answer oracle every response is checked against.

use obda::budget::BudgetSpec;
use obda::datagen::{word_query, SEQUENCES, TABLE_2};
use obda::ndl::engine::EngineConfig;
use obda::owlql::abox::DataInstance;
use obda::{ObdaSystem, Strategy};
use std::collections::BTreeSet;

/// The Example 11 ontology (`P ⊑ S`, `P ⊑ R⁻`) in the syntax `obda` reads.
pub const ONTOLOGY: &str = "P SubPropertyOf S\nP SubPropertyOf R-\n";

/// How a workload drives the `obda` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `obda serve`; every request text was prepared during warm-up.
    Hot,
    /// `obda serve`; every request text is new to the prepared cache.
    Cold,
    /// One `obda answer --db` process per operation.
    Cli,
}

/// One workload: a Table-2 dataset at a scale, a query pool and a mode.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    /// 0-based index into Table 2 (`1.ttl` … `4.ttl`).
    pub dataset: usize,
    pub scale: f64,
    /// The Table-1 prefixes (words over `{R, S}`) the pool keeps, each
    /// with the reference its answers are checked against.
    pub pool: &'static [(&'static str, Reference)],
}

/// How the oracle computes a pool entry's answers in-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// The chase (certain answers by materialisation), for small data.
    Chase,
    /// The Lin rewriting over the parsed instance.
    Lin,
    /// The Log rewriting over the parsed instance.
    Log,
}

/// Every workload. The pools keep only the Table-1 prefixes that finish
/// far inside the server's 10 s default deadline under Adaptive on the
/// workload's data; README.md lists each prefix left out and why.
const WORKLOADS: [Workload; 3] = [
    Workload { name: "hot_cached", mode: Mode::Hot, dataset: 1, scale: 0.5, pool: HOT_POOL },
    Workload { name: "cold_misses", mode: Mode::Cold, dataset: 1, scale: 0.05, pool: COLD_POOL },
    Workload { name: "cli_oneshot", mode: Mode::Cli, dataset: 3, scale: 0.1, pool: CLI_POOL },
];

use Reference::{Chase, Lin, Log};

/// Log's rewriting evaluates every entry on this data in under 0.3 s
/// (Lin's takes 14 s on `SRRRRRSRSRR`), so all entries use it.
///
/// `S`, `SR`, `RRS` and `RRSRS` are left out: their plan costs (3, 51,
/// 339, 2 379) are under 1/100 of the largest entry's (379 363), and
/// `obda serve`'s cost admission calibrates one seconds-per-cost EWMA over
/// all requests, so one of them delayed by a scheduling hiccup inflates
/// the estimate of the next expensive request past the deadline and it is
/// refused with 429. README.md records this defect.
const HOT_POOL: &[(&str, Reference)] = &[
    ("R", Log),
    ("SRRS", Log),
    ("SRRSS", Log),
    ("RRSRSR", Log),
    ("SRRSSR", Log),
    ("RRSRSRS", Log),
    ("SRRRRRS", Log),
    ("SRRSSRS", Log),
    ("RRSRSRSR", Log),
    ("SRRRRRSR", Log),
    ("SRRSSRSR", Log),
    ("SRRRRRSRS", Log),
    ("SRRSSRSRS", Log),
    ("RRSRSRSRRS", Log),
    ("SRRRRRSRSR", Log),
    ("SRRSSRSRSR", Log),
    ("RRSRSRSRRSR", Log),
    ("SRRRRRSRSRR", Log),
    ("SRRSSRSRSRRS", Log),
    ("SRRSSRSRSRRSR", Log),
    ("SRRSSRSRSRRSRR", Log),
    ("RRSRSRSRRSRRSSR", Log),
    ("SRRSSRSRSRRSRRS", Log),
];

/// 250 individuals: the chase answers each entry in under 0.3 s.
const COLD_POOL: &[(&str, Reference)] = &[
    ("RRSRSRSR", Chase),
    ("SRRRRRSR", Chase),
    ("SRRSSRSR", Chase),
    ("RRSRSRSRR", Chase),
    ("SRRRRRSRS", Chase),
    ("SRRSSRSRS", Chase),
    ("RRSRSRSRRS", Chase),
    ("SRRRRRSRSR", Chase),
    ("SRRSSRSRSR", Chase),
    ("RRSRSRSRRSR", Chase),
    ("SRRRRRSRSRR", Chase),
    ("SRRSSRSRSRR", Chase),
    ("RRSRSRSRRSRR", Chase),
    ("SRRSSRSRSRRS", Chase),
    ("RRSRSRSRRSRRS", Chase),
    ("SRRSSRSRSRRSR", Chase),
    ("RRSRSRSRRSRRSS", Chase),
    ("SRRSSRSRSRRSRR", Chase),
    ("RRSRSRSRRSRRSSR", Chase),
    ("SRRSSRSRSRRSRRS", Chase),
];

/// Chosen on `4.ttl` at 0.25 (Adaptive evaluates each within 150 ms
/// there); the data is 0.1 because at 0.25 the CPU time per operation
/// varied by 18% between runs (IQR ÷ median over ten seeds) and at 0.1 by
/// 6%. Log serves the two entries whose Lin rewriting is slowest.
const CLI_POOL: &[(&str, Reference)] = &[
    ("S", Lin),
    ("RRS", Lin),
    ("SRRS", Lin),
    ("RRSRS", Lin),
    ("SRRSS", Lin),
    ("SRRSSR", Lin),
    ("SRRSSRS", Lin),
    ("SRRSSRSR", Log),
    ("SRRSSRSRS", Lin),
    ("SRRSSRSRSR", Log),
    ("SRRSSRSRSRRS", Lin),
    ("SRRSSRSRSRRSRRS", Lin),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The distinct Table-1 prefixes of the three sequences, shortest first.
pub fn table1_prefixes() -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for n in 1..=SEQUENCES[0].len() {
        for seq in SEQUENCES {
            let word = &seq[..n];
            if seen.insert(word.to_owned()) {
                out.push(word.to_owned());
            }
        }
    }
    out
}

/// The system every in-process stage runs against, from the same text
/// the `obda` processes read.
pub fn system() -> Result<ObdaSystem, String> {
    ObdaSystem::from_text(ONTOLOGY).map_err(|e| format!("ontology: {e}"))
}

/// The workload's dataset. Fixed by Table 2 (its own generator seed), so
/// every run and every `--seed` evaluates over the same data.
pub fn dataset(system: &ObdaSystem, w: &Workload) -> DataInstance {
    TABLE_2[w.dataset].scaled(w.scale).generate(system.ontology())
}

/// The query text of a word with the given variable-name stem:
/// `q(s0, sN) :- R(s0, s1), S(s1, s2), …`.
pub fn query_text(word: &str, stem: &str) -> String {
    let n = word.len();
    let atoms: Vec<String> =
        word.chars().enumerate().map(|(i, c)| format!("{c}({stem}{i}, {stem}{})", i + 1)).collect();
    format!("q({stem}0, {stem}{n}) :- {}", atoms.join(", "))
}

/// The canonical text of a word, as `hot_cached` and `cli_oneshot` send it.
pub fn canonical_text(word: &str) -> String {
    query_text(word, "x")
}

/// `splitmix64`: the benchmark's only source of randomness, so a request
/// stream is a pure function of the seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Round `round`'s order of the pool: a seeded Fisher–Yates shuffle.
/// Every round sends each pool entry exactly once, so whole rounds do
/// identical work whatever the seed.
pub fn round_order(pool_len: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool_len).collect();
    let mut state = splitmix64(seed ^ splitmix64(round.wrapping_add(1)));
    for i in (1..pool_len).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The variable-name stem of request `k` on `cold_misses`: fixed width,
/// so every fresh text parses the same amount of input.
pub fn fresh_stem(seed: u64, k: u64) -> String {
    format!("v{:016x}_", splitmix64(seed.wrapping_mul(0x1000_0000_01b3) ^ k))
}

/// FNV-1a 64 of one answer line.
fn line_hash(line: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in line.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// An answer set's count and order-independent digest (wrapping sum of
/// per-line FNV-1a hashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: usize,
    pub sum: u64,
}

impl Digest {
    /// Digests answer lines such as `(v1, v7)`; blank lines are ignored.
    pub fn of_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Digest {
        let mut d = Digest { count: 0, sum: 0 };
        for line in lines.map(str::trim).filter(|l| !l.is_empty()) {
            d.count += 1;
            d.sum = d.sum.wrapping_add(line_hash(line));
        }
        d
    }
}

/// The reference answers of a word on the data, computed in-process
/// without `obda serve`: the chase, which shares no rewriting code with
/// the served path, or a named rewriting evaluated over the parsed
/// instance, which shares the rewriter (Adaptive may pick the same one)
/// but not the snapshot, the prepared cache, HTTP or serialisation.
pub fn oracle(
    system: &ObdaSystem,
    data: &DataInstance,
    word: &str,
    reference: Reference,
) -> Result<Digest, String> {
    let query = word_query(system.ontology(), word);
    let strategy = match reference {
        Reference::Chase => None,
        Reference::Lin => Some(Strategy::Lin),
        Reference::Log => Some(Strategy::Log),
    };
    let tuples = match strategy {
        None => system.certain_answers(&query, data).tuples(),
        Some(strategy) => {
            system
                .answer_with_budget_engine(
                    &query,
                    data,
                    strategy,
                    &BudgetSpec::unlimited(),
                    &EngineConfig::default(),
                )
                .map_err(|e| format!("oracle failed on {word}: {e}"))?
                .answers
        }
    };
    let lines: Vec<String> = tuples
        .iter()
        .map(|t| {
            let names: Vec<&str> = t.iter().map(|&c| data.constant_name(c)).collect();
            format!("({})", names.join(", "))
        })
        .collect();
    Ok(Digest::of_lines(lines.iter().map(String::as_str)))
}
