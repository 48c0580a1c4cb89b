//! Rule evaluation over the fact database.
//!
//! Two families share one diagnostic pipeline:
//!
//! * **Lexical rules** — the original six per-file rules, re-expressed
//!   over [`crate::facts`] with their scopes, severities, messages and
//!   waiver semantics unchanged.
//! * **Interprocedural rules** — reachability queries over the
//!   workspace call graph ([`crate::graph`]): a sink is flagged when a
//!   designated *root* function can reach it through resolved calls,
//!   and the diagnostic carries the `root -> .. -> sink` chain.
//!
//! Waivers are shared: a transitive finding is waived by an
//! `azul-lint: allow(..)` directive at the *sink* line naming either
//! the transitive rule or its lexical counterpart. The
//! [`WaiverTracker`] records which directives actually suppressed
//! something this run; the stale-waiver audit reports the rest.

use crate::facts::{FileFacts, FnFact, Sink, SinkKind};
use crate::graph::{kind_bit, reached_sinks, CallGraph, Database};
use crate::lexer::DIRECTIVE_REACH;
use crate::{Diagnostic, Severity, TraceStep, ALL_RULES};
use std::collections::{BTreeMap, BTreeSet};

fn hot_name(name: &str) -> bool {
    name.contains("tick")
        || name.contains("route")
        || name.contains("execute")
        || name.contains("verify")
        || name.contains("audit")
}

fn pipeline_name(name: &str) -> bool {
    name.contains("prepare")
        || name.contains("solve")
        || name.contains("factor")
        || name.contains("request")
        || name.contains("schedule")
        || name.contains("admit")
        || name.contains("submit")
        || name.contains("scrub")
        || name.contains("verify")
}

fn pipeline_scope(scope: &str) -> bool {
    matches!(scope, "core" | "solver" | "serve")
}

/// Whether `path` is the sanctioned host-profiling module (the one sim
/// file allowed to read `Instant`/`SystemTime`).
fn is_profile_module(path: &str) -> bool {
    path.trim_start_matches("./")
        .ends_with("crates/sim/src/profile.rs")
}

// ---------------------------------------------------------------------
// Lexical rules
// ---------------------------------------------------------------------

/// Evaluates the six lexical rules on one file. Returns diagnostics
/// *before* waiver filtering, sorted by `(line, rule)`.
pub(crate) fn lexical_diags(file: &FileFacts) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let scope = file.scope.as_str();
    let profile = is_profile_module(&file.path);

    let nondet_severity = match scope {
        "sim" => Some(Severity::Error),
        "mapping" | "hypergraph" => Some(Severity::Warning),
        _ => None,
    };

    let mut visit = |f: Option<&FnFact>, sink: &Sink| {
        match sink.kind {
            SinkKind::HashIter => {
                if let Some(severity) = nondet_severity {
                    diags.push(Diagnostic {
                        line: sink.line,
                        rule: crate::NONDETERMINISTIC_ITERATION,
                        severity,
                        message: sink.what.clone(),
                        trace: Vec::new(),
                    });
                }
            }
            // The host-profiling module measures the simulator, not
            // the simulation: `Instant`/`SystemTime` are legal there.
            // Ambient randomness has no carve-out.
            SinkKind::WallClock if scope == "sim" && !(profile && sink.what != "thread_rng") => {
                diags.push(Diagnostic {
                    line: sink.line,
                    rule: crate::WALL_CLOCK_IN_SIM,
                    severity: Severity::Error,
                    message: format!(
                        "`{}` in cycle-level code: simulation must be a pure function of \
                         its inputs and seeds (use cycle counters / seeded SmallRng)",
                        sink.what
                    ),
                    trace: Vec::new(),
                });
            }
            SinkKind::FloatReduction
                if (scope == "sim" || scope == "solver") && !sink.justified =>
            {
                diags.push(Diagnostic {
                    line: sink.line,
                    rule: crate::UNCHECKED_FLOAT_REDUCTION,
                    severity: Severity::Warning,
                    message: format!(
                        "{} reduces floats whose result depends on summation order; \
                         pin the order and justify with a `// reduction-order:` comment",
                        sink.what
                    ),
                    trace: Vec::new(),
                });
            }
            SinkKind::PanicMacro | SinkKind::Unwrap => {
                let fn_name = f.map(|f| f.name.as_str()).unwrap_or("?");
                if scope == "sim" && f.is_some_and(|f| hot_name(&f.name) && !f.is_test) {
                    let what = match sink.kind {
                        SinkKind::PanicMacro => format!("`{}!`", sink.what),
                        _ => format!("`.{}()`", sink.what),
                    };
                    diags.push(Diagnostic {
                        line: sink.line,
                        rule: crate::PANIC_IN_SIM_HOT_PATH,
                        severity: Severity::Warning,
                        message: format!(
                            "{what} inside `{fn_name}`: hot paths should return a typed SimError"
                        ),
                        trace: Vec::new(),
                    });
                }
                if sink.kind == SinkKind::Unwrap
                    && pipeline_scope(scope)
                    && f.is_some_and(|f| pipeline_name(&f.name) && !f.is_test)
                {
                    diags.push(Diagnostic {
                        line: sink.line,
                        rule: crate::UNWRAP_IN_PIPELINE,
                        severity: Severity::Warning,
                        message: format!(
                            "`.{}()` inside `{fn_name}`: pipeline steps must return typed errors \
                             so the degradation ladders can catch the failure",
                            sink.what
                        ),
                        trace: Vec::new(),
                    });
                }
            }
            _ => {}
        }
    };

    for f in &file.fns {
        for sink in &f.sinks {
            visit(Some(f), sink);
        }
    }
    for sink in &file.orphan_sinks {
        visit(None, sink);
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

// ---------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------

/// Records which `allow(..)` directives suppressed a diagnostic this
/// run, keyed by `(file path, directive line, rule name)`.
#[derive(Default)]
pub(crate) struct WaiverTracker {
    used: BTreeSet<(String, u32, String)>,
}

impl WaiverTracker {
    /// If any of `rules` is waived at `line` of `file`, marks every
    /// matching directive as used and returns `true`.
    pub(crate) fn consume(&mut self, file: &FileFacts, rules: &[&str], line: u32) -> bool {
        let mut hit = false;
        for l in line.saturating_sub(DIRECTIVE_REACH)..=line {
            if let Some(allowed) = file.scan.allows.get(&l) {
                for r in allowed {
                    if rules.iter().any(|q| q == r) {
                        self.used.insert((file.path.clone(), l, r.clone()));
                        hit = true;
                    }
                }
            }
        }
        hit
    }

    fn is_used(&self, path: &str, line: u32, rule: &str) -> bool {
        self.used
            .contains(&(path.to_string(), line, rule.to_string()))
    }
}

/// The waiver names that suppress a diagnostic of `rule`: the rule
/// itself, plus — for transitive rules — the lexical counterpart, so
/// one directive at a sink quiets both views of the same problem.
pub(crate) fn waiver_names(rule: &str) -> Vec<&str> {
    match rule {
        crate::TRANSITIVE_PANIC_IN_HOT_PATH => vec![rule, crate::PANIC_IN_SIM_HOT_PATH],
        crate::TRANSITIVE_WALL_CLOCK => vec![rule, crate::WALL_CLOCK_IN_SIM],
        crate::TRANSITIVE_UNWRAP_IN_PIPELINE => vec![rule, crate::UNWRAP_IN_PIPELINE],
        _ => vec![rule],
    }
}

// ---------------------------------------------------------------------
// Interprocedural rules
// ---------------------------------------------------------------------

struct TransRule {
    rule: &'static str,
    severity: Severity,
    kinds: u16,
    /// Minimum chain length in functions (2 = the sink must be at
    /// least one call away from the root).
    min_chain: usize,
    root: fn(&FileFacts, &FnFact) -> bool,
    /// Whether a reached sink should be reported (lexically-covered
    /// sites return `false` so nothing is double-reported).
    sink: fn(&FileFacts, &FnFact, &Sink) -> bool,
    /// Renders the message given (sink, sink fn, root fn, chain text).
    message: fn(&Sink, &FnFact, &FnFact, &str) -> String,
}

fn sink_token(sink: &Sink) -> String {
    match sink.kind {
        SinkKind::PanicMacro => format!("{}!", sink.what),
        SinkKind::Unwrap => format!(".{}()", sink.what),
        _ => sink.what.clone(),
    }
}

const TRANS_RULES: [TransRule; 4] = [
    TransRule {
        rule: crate::TRANSITIVE_PANIC_IN_HOT_PATH,
        severity: Severity::Warning,
        kinds: kind_bit(SinkKind::PanicMacro) | kind_bit(SinkKind::Unwrap),
        min_chain: 2,
        root: |file, f| file.scope == "sim" && !f.is_test && hot_name(&f.name),
        sink: |file, f, _| !(file.scope == "sim" && hot_name(&f.name)),
        message: |sink, sf, root, chain| {
            format!(
                "`{}` in `{}` is reachable from hot path `{}` ({chain}); \
                 hot paths should return a typed SimError",
                sink_token(sink),
                sf.name,
                root.name
            )
        },
    },
    TransRule {
        rule: crate::TRANSITIVE_WALL_CLOCK,
        severity: Severity::Error,
        kinds: kind_bit(SinkKind::WallClock),
        min_chain: 2,
        root: |file, f| {
            file.scope == "sim" && !f.is_test && (hot_name(&f.name) || f.name.starts_with("run"))
        },
        // Every sim file is already under the lexical wall-clock rule
        // (profile.rs sanctioned); only out-of-crate sinks are new.
        sink: |file, _, _| file.scope != "sim",
        message: |sink, sf, root, chain| {
            format!(
                "`{}` in `{}` is reachable from sim entry `{}` ({chain}); \
                 cycle-level code must not observe host time across crate boundaries",
                sink.what, sf.name, root.name
            )
        },
    },
    TransRule {
        rule: crate::TRANSITIVE_UNWRAP_IN_PIPELINE,
        severity: Severity::Warning,
        kinds: kind_bit(SinkKind::Unwrap),
        min_chain: 2,
        root: |file, f| pipeline_scope(&file.scope) && !f.is_test && pipeline_name(&f.name),
        // Poison guards (`.lock().expect(..)`) stay exempt: poisoning
        // means another thread already panicked, so a typed error adds
        // no recovery the ladders could use.
        sink: |file, f, s| {
            !(s.poison_guard || pipeline_scope(&file.scope) && pipeline_name(&f.name))
        },
        message: |sink, sf, root, chain| {
            format!(
                "`{}` in `{}` is reachable from pipeline step `{}` ({chain}); \
                 pipeline steps must return typed errors so the degradation \
                 ladders can catch the failure",
                sink_token(sink),
                sf.name,
                root.name
            )
        },
    },
    TransRule {
        rule: crate::ALLOC_IN_TICK_PATH,
        severity: Severity::Warning,
        kinds: kind_bit(SinkKind::AllocConstruct),
        // Depth 1 counts: an allocation in the tick function itself has
        // no lexical counterpart.
        min_chain: 1,
        root: |file, f| file.scope == "sim" && !f.is_test && f.name.contains("tick"),
        sink: |_, _, _| true,
        message: |sink, sf, root, chain| {
            format!(
                "`{}` allocates on the per-cycle tick path `{}` -> `{}` ({chain}); \
                 hoist the buffer into component state or an arena",
                sink.what, root.name, sf.name
            )
        },
    },
];

/// Evaluates the interprocedural rules over the whole database.
/// Returns `(file index of the sink, diagnostic)` pairs with waived
/// findings removed and directives marked in `tracker`.
/// The winning chain for one sink site: `(chain length, root qualified
/// name, chain gids, sink-holder gid, sink index within the holder)`.
type BestChain = (usize, String, Vec<usize>, usize, usize);

pub(crate) fn transitive_diags(
    db: &Database,
    graph: &CallGraph,
    tracker: &mut WaiverTracker,
) -> Vec<(usize, Diagnostic)> {
    let mut out = Vec::new();
    for tr in &TRANS_RULES {
        // Best chain per distinct sink site, keyed `(file, line, token)`.
        let mut best: BTreeMap<(usize, u32, String), BestChain> = BTreeMap::new();
        for root in 0..db.fns.len() {
            let rf = db.fn_fact(root);
            let rfile = db.file_of(root);
            if !(tr.root)(rfile, rf) {
                continue;
            }
            for hit in reached_sinks(db, graph, root, tr.kinds, |file, f, s| {
                (tr.sink)(file, f, s)
            }) {
                if hit.chain.len() < tr.min_chain {
                    continue;
                }
                let holder = *hit.chain.last().unwrap();
                let (sink_file, _) = db.fns[holder];
                let sink_idx = db.files[sink_file].fns[db.fns[holder].1]
                    .sinks
                    .iter()
                    .position(|s| std::ptr::eq(s, hit.sink))
                    .unwrap_or(0);
                let key = (sink_file, hit.sink.line, sink_token(hit.sink));
                let cand = (
                    hit.chain.len(),
                    rf.qualified.clone(),
                    hit.chain,
                    holder,
                    sink_idx,
                );
                match best.get(&key) {
                    Some((len, rq, ..)) if (*len, rq.as_str()) <= (cand.0, cand.1.as_str()) => {}
                    _ => {
                        best.insert(key, cand);
                    }
                }
            }
        }

        for ((sink_file, line, _), (_, _, chain, holder, sink_idx)) in best {
            let file = &db.files[sink_file];
            let sf = &file.fns[db.fns[holder].1];
            let sink = &sf.sinks[sink_idx];
            if tracker.consume(file, &waiver_names(tr.rule), line) {
                continue;
            }
            let root_gid = chain[0];
            let rf = db.fn_fact(root_gid);
            let chain_text = render_chain(db, graph, &chain, sink);
            let trace = render_trace(db, graph, &chain, sink);
            out.push((
                sink_file,
                Diagnostic {
                    line,
                    rule: tr.rule,
                    severity: tr.severity,
                    message: (tr.message)(sink, sf, rf, &chain_text),
                    trace,
                },
            ));
        }
    }
    out
}

/// `root -> a -> b: sink at file:line` — the human-readable chain.
fn render_chain(db: &Database, _graph: &CallGraph, chain: &[usize], sink: &Sink) -> String {
    let names: Vec<&str> = chain.iter().map(|&g| db.fn_fact(g).name.as_str()).collect();
    let file = &db.file_of(*chain.last().unwrap()).path;
    format!(
        "{}: {} at {}:{}",
        names.join(" -> "),
        sink_token(sink),
        file,
        sink.line
    )
}

/// The SARIF-style trace: one step per chain function. Intermediate
/// steps carry the line of the call to the next function; the final
/// step carries the sink line.
fn render_trace(db: &Database, graph: &CallGraph, chain: &[usize], sink: &Sink) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    for (i, &g) in chain.iter().enumerate() {
        let line = match chain.get(i + 1) {
            Some(&next) => graph.edge_line(g, next),
            None => sink.line,
        };
        steps.push(TraceStep {
            function: db.fn_fact(g).qualified.clone(),
            file: db.file_of(g).path.clone(),
            line,
        });
    }
    steps
}

// ---------------------------------------------------------------------
// Stale-waiver audit
// ---------------------------------------------------------------------

/// Reports `allow(..)` directives that suppressed nothing this run and
/// `// reduction-order:` justifications with no float reduction nearby.
/// Only directives naming a known rule are audited, so documentation
/// placeholders never trip it.
pub(crate) fn stale_waiver_diags(
    db: &Database,
    tracker: &WaiverTracker,
) -> Vec<(usize, Diagnostic)> {
    let mut out = Vec::new();
    for (fi, file) in db.files.iter().enumerate() {
        for (&line, rules) in &file.scan.allows {
            let mut seen = BTreeSet::new();
            for rule in rules {
                if !ALL_RULES.contains(&rule.as_str()) || !seen.insert(rule.as_str()) {
                    continue;
                }
                if !tracker.is_used(&file.path, line, rule) {
                    out.push((
                        fi,
                        Diagnostic {
                            line,
                            rule: crate::STALE_WAIVER,
                            severity: Severity::Warning,
                            message: format!(
                                "`azul-lint: allow({rule})` no longer suppresses any \
                                 diagnostic; remove the stale waiver"
                            ),
                            trace: Vec::new(),
                        },
                    ));
                }
            }
        }
        for &line in &file.scan.justified {
            let near = |s: &Sink| {
                s.kind == SinkKind::FloatReduction
                    && s.line >= line
                    && s.line <= line + DIRECTIVE_REACH
            };
            let fresh = file.fns.iter().flat_map(|f| &f.sinks).any(near)
                || file.orphan_sinks.iter().any(near);
            if !fresh {
                out.push((
                    fi,
                    Diagnostic {
                        line,
                        rule: crate::STALE_WAIVER,
                        severity: Severity::Warning,
                        message: "`// reduction-order:` justification is not adjacent to any \
                                  float reduction; remove or move it"
                            .to_string(),
                        trace: Vec::new(),
                    },
                ));
            }
        }
    }
    out
}
