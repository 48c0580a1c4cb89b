//! Project-specific static analysis for the Azul workspace.
//!
//! The cycle-level model's numbers are only meaningful if the same
//! matrix + mapping + seed always yields the same cycle count, so this
//! crate enforces determinism hygiene the compiler cannot. Version 2
//! is a **two-phase interprocedural analysis**, still dependency-free:
//!
//! 1. **Facts** ([`facts`]): a hand-rolled lexer ([`lexer`]) feeds an
//!    item/expression scanner that records, per function, its
//!    path-qualified name, the calls it makes, and its *sink facts*
//!    (panicking calls, wall-clock reads, `HashMap`/`HashSet`
//!    iteration, heap allocation, `Mutex::lock`, machine-wide array
//!    indexing).
//! 2. **Graph** ([`graph`] + [`rules`]): a workspace call graph with
//!    best-effort name resolution and a fixpoint cache of reachable
//!    sink kinds, over which the interprocedural rules run; the six
//!    original lexical rules are evaluated from the same fact
//!    database with unchanged scopes, severities and messages.
//!
//! # Lexical rules (per file)
//!
//! * [`NONDETERMINISTIC_ITERATION`] — iterating a `HashMap`/`HashSet`
//!   (`for`, `.iter()`, `.keys()`, `.values()`, `.drain()`, ...) in
//!   `crates/sim` (error), `crates/mapping` or `crates/hypergraph`
//!   (warning). Hash iteration order varies across runs and toolchains;
//!   use `BTreeMap`/`BTreeSet` or sort explicitly.
//! * [`WALL_CLOCK_IN_SIM`] — `Instant`/`SystemTime`/`thread_rng` in
//!   `crates/sim` (error). Cycle-level code must be a pure function of
//!   its inputs and seeds. One explicit carve-out: the host-profiling
//!   module `crates/sim/src/profile.rs` exists to measure *host* wall
//!   time and may use `Instant`/`SystemTime` (ambient randomness stays
//!   banned there too); every other sim file must route timing through
//!   its probes.
//! * [`UNCHECKED_FLOAT_REDUCTION`] — `.sum::<f64>()` / float `fold`
//!   reductions in `crates/sim`/`crates/solver` without a nearby
//!   `// reduction-order:` justification (warning). Float addition is
//!   not associative; the summation order must be pinned deliberately.
//! * [`PANIC_IN_SIM_HOT_PATH`] — `unwrap`/`expect`/`panic!` family
//!   macros inside functions whose name contains `tick`, `route` or
//!   `execute` in `crates/sim` (warning).
//! * [`UNWRAP_IN_PIPELINE`] — `.unwrap()` / `.expect(..)` inside
//!   functions whose name contains `prepare`, `solve`, `factor`,
//!   `request`, `schedule`, `admit` or `submit` in `crates/core`,
//!   `crates/solver` or `crates/serve` (warning). The degradation
//!   ladders and the service's typed shedding/retry paths can only
//!   catch failures that surface as typed errors. Test code is exempt.
//!
//! # Interprocedural rules (workspace call graph)
//!
//! * [`TRANSITIVE_PANIC_IN_HOT_PATH`] — a panic/unwrap *reachable
//!   through calls* from a tick/route/execute function in `crates/sim`
//!   (warning). The lexical rule only sees the enclosing function's
//!   name; this one follows the calls and reports the chain.
//! * [`TRANSITIVE_WALL_CLOCK`] — a wall-clock read outside the sim
//!   crate reachable from a sim entry point (tick/route/execute or
//!   `run*`) (error). Within the sim crate the lexical rule already
//!   covers every file.
//! * [`TRANSITIVE_UNWRAP_IN_PIPELINE`] — an unwrap/expect reachable
//!   from a pipeline/request-path function in `core`/`solver`/`serve`
//!   (warning).
//! * [`ALLOC_IN_TICK_PATH`] — a fresh heap allocation (`Vec::new`,
//!   `vec![..]`, `with_capacity`, `Box::new`, `.collect()`, ...)
//!   reachable from a per-cycle `tick` function in `crates/sim`
//!   (warning, waivable). Amortized growth (`.push(..)`) is recorded
//!   as a fact but not flagged. This prepares the flit-arena refactor:
//!   per-cycle allocation is the enemy of the event-driven engine.
//!
//! Interprocedural diagnostics carry a call-chain trace
//! (`root -> a -> b: sink at file:line`) both in the message and as
//! structured [`TraceStep`]s for the JSON report ([`report`]).
//!
//! # Waivers and the stale-waiver audit
//!
//! Any finding can be waived in place with
//! `// azul-lint: allow(<rule>)` on the offending line or up to three
//! lines above; allows should carry a justification in the same
//! comment. A transitive finding is waived at its *sink* line by
//! either the transitive rule name or its lexical counterpart. The
//! [`STALE_WAIVER`] audit (on by default under `--deny warnings`)
//! reports directives that no longer suppress anything and
//! `// reduction-order:` justifications with no float reduction
//! nearby; audit findings are not themselves waivable.
//!
//! The analysis stays lexical at heart: no type inference, best-effort
//! name resolution (see `docs/STATIC_ANALYSIS.md` for the honest
//! limits). That trades a few theoretically-missable cases for zero
//! dependencies and trivially auditable behavior.

#![forbid(unsafe_code)]

pub mod facts;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use graph::{CallGraph, Database};
pub use report::{render_json, REPORT_SCHEMA};
pub use workspace::{analyze_root, analyze_sources, collect_rs, render_text, Analysis, Options};

use std::fmt;

/// Rule: `HashMap`/`HashSet` iteration in order-sensitive crates.
pub const NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";
/// Rule: wall-clock or ambient randomness in cycle-level code.
pub const WALL_CLOCK_IN_SIM: &str = "wall-clock-in-sim";
/// Rule: unjustified float reductions in sim/solver code.
pub const UNCHECKED_FLOAT_REDUCTION: &str = "unchecked-float-reduction";
/// Rule: panicking calls inside tick/route/execute hot paths.
pub const PANIC_IN_SIM_HOT_PATH: &str = "panic-in-sim-hot-path";
/// Rule: panicking `.unwrap()`/`.expect()` in pipeline and service
/// request-path code.
pub const UNWRAP_IN_PIPELINE: &str = "unwrap-in-pipeline";
/// Rule: panic/unwrap reachable through calls from a sim hot path.
pub const TRANSITIVE_PANIC_IN_HOT_PATH: &str = "transitive-panic-in-hot-path";
/// Rule: wall-clock reachable from a sim entry point across crates.
pub const TRANSITIVE_WALL_CLOCK: &str = "transitive-wall-clock";
/// Rule: unwrap/expect reachable from a pipeline/request-path step.
pub const TRANSITIVE_UNWRAP_IN_PIPELINE: &str = "transitive-unwrap-in-pipeline";
/// Rule: fresh heap allocation reachable from a per-cycle tick fn.
pub const ALLOC_IN_TICK_PATH: &str = "alloc-in-tick-path";
/// Rule: a waiver or justification directive that suppresses nothing.
pub const STALE_WAIVER: &str = "stale-waiver";

/// Every rule this linter knows, in reporting order.
pub const ALL_RULES: [&str; 10] = [
    NONDETERMINISTIC_ITERATION,
    WALL_CLOCK_IN_SIM,
    UNCHECKED_FLOAT_REDUCTION,
    PANIC_IN_SIM_HOT_PATH,
    UNWRAP_IN_PIPELINE,
    TRANSITIVE_PANIC_IN_HOT_PATH,
    TRANSITIVE_WALL_CLOCK,
    TRANSITIVE_UNWRAP_IN_PIPELINE,
    ALLOC_IN_TICK_PATH,
    STALE_WAIVER,
];

/// Diagnostic severity. `--deny warnings` promotes warnings to failures
/// at the CLI layer; the levels themselves are fixed per rule and scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Questionable; fails only under `--deny warnings`.
    Warning,
    /// Always fails the check.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One step of an interprocedural call chain, root first. The final
/// step's `line` is the sink line; intermediate steps carry the line
/// of the call to the next function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Path-qualified function name (`sim::router::tick_router`).
    pub function: String,
    /// Workspace-relative file declaring the function.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
}

/// One finding, anchored to a line of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based source line.
    pub line: u32,
    /// The violated rule (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// How hard the finding fails.
    pub severity: Severity,
    /// What was found and what to do about it.
    pub message: String,
    /// For interprocedural rules: the call chain from root to sink.
    /// Empty for lexical findings.
    pub trace: Vec<TraceStep>,
}

/// A diagnostic paired with the file it was found in (workspace runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDiagnostic {
    /// Workspace-relative path.
    pub file: String,
    pub diag: Diagnostic,
}

/// The crate-ish scope a path belongs to: `"sim"` for
/// `crates/sim/...`, `"azul"` for the root package's `src/`, the first
/// path segment otherwise (`"tests"`, `"benches"`).
pub fn scope_of(path: &str) -> &str {
    let norm = path.trim_start_matches("./");
    if let Some(rest) = norm.split("crates/").nth(1) {
        return rest.split('/').next().unwrap_or("");
    }
    if norm.starts_with("src/") || norm.contains("/src/") {
        return "azul";
    }
    norm.split('/').next().unwrap_or("")
}

/// Lints one file with the **lexical** rules only (the historical v1
/// surface, kept for embedding and tests). `path` determines the scope
/// (which rules apply and at which severity); `src` is the contents.
/// Workspace-wide interprocedural analysis lives in
/// [`workspace::analyze_root`] / [`workspace::analyze_sources`].
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let file = facts::extract(path, src);
    let mut diags = rules::lexical_diags(&file);
    diags.retain(|d| !file.allowed(d.rule, d.line));
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

impl facts::FileFacts {
    /// Whether `rule` is waived at `line` by an `allow(..)` directive.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.scan.allowed(rule, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_PATH: &str = "crates/sim/src/fake.rs";

    fn rules_at(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn scope_resolution() {
        assert_eq!(scope_of("crates/sim/src/machine.rs"), "sim");
        assert_eq!(scope_of("./crates/mapping/src/grid.rs"), "mapping");
        assert_eq!(scope_of("src/bin/azul.rs"), "azul");
        assert_eq!(scope_of("tests/determinism.rs"), "tests");
    }

    #[test]
    fn hashmap_for_loop_is_flagged_in_sim() {
        let src = r#"
use std::collections::HashMap;
fn f() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    for (k, v) in &m {
        let _ = (k, v);
    }
}
"#;
        let diags = lint_source(SIM_PATH, src);
        assert_eq!(rules_at(&diags), vec![NONDETERMINISTIC_ITERATION]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn hashmap_iter_methods_are_flagged() {
        let src = r#"
fn f(saac: &std::collections::HashMap<u32, u32>) {
    let _ = saac.keys().count();
    let _ = saac.values().count();
    let _ = saac.iter().count();
}
"#;
        let diags = lint_source(SIM_PATH, src);
        assert_eq!(diags.len(), 3);
        assert!(diags.iter().all(|d| d.rule == NONDETERMINISTIC_ITERATION));
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src = r#"
use std::collections::BTreeMap;
fn f() {
    let mut m: BTreeMap<u32, u32> = BTreeMap::new();
    m.insert(1, 2);
    for (k, v) in &m {
        let _ = (k, v);
    }
    let _ = m.keys().count();
}
"#;
        assert!(lint_source(SIM_PATH, src).is_empty());
    }

    #[test]
    fn non_iterating_hash_use_is_clean() {
        // Membership tests and length checks don't depend on order.
        let src = r#"
use std::collections::HashSet;
fn f() {
    let mut s: HashSet<u32> = HashSet::new();
    s.insert(3);
    assert!(s.contains(&3));
    assert_eq!(s.len(), 1);
}
"#;
        assert!(lint_source(SIM_PATH, src).is_empty());
    }

    #[test]
    fn allow_comment_waives_on_own_and_next_line() {
        let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) {
    // azul-lint: allow(nondeterministic-iteration) summed, order-free
    for (_k, v) in m.iter() {
        let _ = v;
    }
}
"#;
        assert!(lint_source(SIM_PATH, src).is_empty());
    }

    #[test]
    fn mapping_scope_downgrades_to_warning() {
        let src = "fn f(m: &std::collections::HashMap<u32,u32>) { let _ = m.keys(); }";
        let diags = lint_source("crates/mapping/src/fake.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        // Out-of-scope crates are exempt entirely.
        assert!(lint_source("crates/solver/src/fake.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_only_in_sim() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }";
        let diags = lint_source(SIM_PATH, src);
        assert_eq!(rules_at(&diags), vec![WALL_CLOCK_IN_SIM]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(lint_source("crates/telemetry/src/span.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_allows_only_the_profile_module() {
        // The host-profiling module measures the simulator's own wall
        // time; `Instant`/`SystemTime` are legal there and only there.
        let clock = "fn f() { let t = std::time::Instant::now(); let _ = t; }";
        assert!(lint_source("crates/sim/src/profile.rs", clock).is_empty());
        assert!(lint_source("./crates/sim/src/profile.rs", clock).is_empty());
        // A sim file merely *named* like it elsewhere is still flagged.
        let diags = lint_source("crates/sim/src/profile_helpers.rs", clock);
        assert_eq!(rules_at(&diags), vec![WALL_CLOCK_IN_SIM]);
        // Ambient randomness has no carve-out, even in the profile
        // module.
        let rng = "fn f() { let r = rand::thread_rng(); let _ = r; }";
        let diags = lint_source("crates/sim/src/profile.rs", rng);
        assert_eq!(rules_at(&diags), vec![WALL_CLOCK_IN_SIM]);
    }

    #[test]
    fn float_sum_needs_justification() {
        let bad = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        let diags = lint_source("crates/solver/src/fake.rs", bad);
        assert_eq!(rules_at(&diags), vec![UNCHECKED_FLOAT_REDUCTION]);

        let good = r#"
// reduction-order: slice order, fixed by construction
fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }
"#;
        assert!(lint_source("crates/solver/src/fake.rs", good).is_empty());
        // Integer sums are order-free.
        let int = "fn f(v: &[u64]) -> u64 { v.iter().sum::<u64>() }";
        assert!(lint_source("crates/solver/src/fake.rs", int).is_empty());
    }

    #[test]
    fn float_fold_needs_justification() {
        let bad = "fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }";
        let diags = lint_source(SIM_PATH, bad);
        assert_eq!(rules_at(&diags), vec![UNCHECKED_FLOAT_REDUCTION]);
        let int = "fn f(v: &[u64]) -> u64 { v.iter().fold(0, |a, b| a + b) }";
        assert!(lint_source(SIM_PATH, int).is_empty());
    }

    #[test]
    fn panics_in_hot_paths_flagged() {
        let src = r#"
fn tick_router_at(x: Option<u32>) -> u32 {
    x.expect("has a value")
}
fn compile(x: Option<u32>) -> u32 {
    x.unwrap() // fine: not a hot path
}
"#;
        let diags = lint_source(SIM_PATH, src);
        assert_eq!(rules_at(&diags), vec![PANIC_IN_SIM_HOT_PATH]);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn panic_macro_in_hot_path_flagged_and_allowable() {
        let bad = "fn execute(c: u32) { if c > 3 { panic!(\"boom\"); } }";
        assert_eq!(
            rules_at(&lint_source(SIM_PATH, bad)),
            vec![PANIC_IN_SIM_HOT_PATH]
        );
        let allowed = r#"
fn execute(c: u32) {
    // azul-lint: allow(panic-in-sim-hot-path) unreachable by construction
    if c > 3 { panic!("boom"); }
}
"#;
        assert!(lint_source(SIM_PATH, allowed).is_empty());
    }

    #[test]
    fn unwrap_in_pipeline_functions_flagged() {
        let src = r#"
fn prepare_solver(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn try_solve(x: Option<u32>) -> u32 {
    x.expect("present")
}
fn ic0_factor(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn compile(x: Option<u32>) -> u32 {
    x.unwrap() // fine: not a pipeline function
}
"#;
        let diags = lint_source("crates/core/src/lib.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![UNWRAP_IN_PIPELINE, UNWRAP_IN_PIPELINE, UNWRAP_IN_PIPELINE]
        );
        assert_eq!(diags[0].line, 3);
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
        // The rule covers core, solver and serve, nothing else.
        assert!(!lint_source("crates/solver/src/fake.rs", src).is_empty());
        assert!(!lint_source("crates/serve/src/fake.rs", src).is_empty());
        assert!(lint_source(SIM_PATH, src).is_empty());
    }

    #[test]
    fn unwrap_in_serve_request_paths_flagged() {
        // The service's request/scheduler vocabulary is covered: a
        // panic in any of these kills a worker thread and strands the
        // request's outcome slot.
        let src = r#"
fn run_request(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn schedule_next(x: Option<u32>) -> u32 {
    x.expect("job queued")
}
fn admit(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn submit_batch(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn worker_loop(x: Option<u32>) -> u32 {
    x.unwrap() // fine: not a request-path name
}
"#;
        let diags = lint_source("crates/serve/src/service.rs", src);
        assert_eq!(
            rules_at(&diags),
            vec![
                UNWRAP_IN_PIPELINE,
                UNWRAP_IN_PIPELINE,
                UNWRAP_IN_PIPELINE,
                UNWRAP_IN_PIPELINE
            ]
        );
        // The request-path vocabulary applies inside core too (the
        // scope predicate and the name predicate are orthogonal).
        assert!(!lint_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = r#"
fn solve(x: Option<u32>) -> Option<u32> {
    x
}
#[cfg(test)]
mod tests {
    #[test]
    fn solve_works() {
        super::solve(Some(1)).unwrap();
    }
}
"#;
        assert!(lint_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_pipeline_waivable_with_allow() {
        let src = r#"
fn factor_all(x: Option<u32>) -> u32 {
    // azul-lint: allow(unwrap-in-pipeline) guarded by the check above
    x.unwrap()
}
"#;
        assert!(lint_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = r##"
fn f() -> &'static str {
    // for (k, v) in map.iter() { Instant::now() }
    /* HashMap::new().keys() */
    let s = "for x in hash_map.iter() { Instant }";
    let r = r#"thread_rng() HashMap"#;
    let _ = (s, r);
    "Instant::now"
}
"##;
        assert!(lint_source(SIM_PATH, src).is_empty());
    }

    #[test]
    fn field_declarations_track_hash_types() {
        let src = r#"
use std::collections::HashMap;
pub struct P {
    pub saac: HashMap<u32, (u32, u32)>,
}
impl P {
    fn g(&self) -> usize {
        self.saac.iter().count()
    }
}
"#;
        let diags = lint_source(SIM_PATH, src);
        assert_eq!(rules_at(&diags), vec![NONDETERMINISTIC_ITERATION]);
    }
}
