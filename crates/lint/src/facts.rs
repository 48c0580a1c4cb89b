//! Phase 1: the per-file fact database.
//!
//! One pass over a file's token stream (see [`crate::lexer`]) records,
//! per function: its path-qualified name, the calls it makes (method
//! and free/associated, with the path qualifier when written), and its
//! *sink facts* — panicking calls, wall-clock uses, `HashMap`/`HashSet`
//! iteration, heap-allocating calls, `Mutex::lock`, float reductions,
//! and machine-wide array indexing. Phase 2 ([`crate::graph`] +
//! [`crate::rules`]) builds the workspace call graph over these facts
//! and evaluates both the lexical and the interprocedural rules.
//!
//! The scanner is item-aware but intentionally shallow: brace depth +
//! `impl`/`mod`/`fn` stacks, no type inference. What it cannot know
//! (receiver types, trait dispatch) the resolution heuristics in
//! [`crate::graph`] approximate by name; the limits are documented in
//! `docs/STATIC_ANALYSIS.md`.

use crate::lexer::{scan, Scan, Tok, Token};
use crate::scope_of;

/// What kind of effect a sink fact records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// `.unwrap()` / `.expect(..)`.
    Unwrap,
    /// `Instant` / `SystemTime` / `thread_rng` token.
    WallClock,
    /// Order-dependent iteration over a `HashMap`/`HashSet` binding.
    HashIter,
    /// `.sum::<f64>()` or float `fold` reduction.
    FloatReduction,
    /// A call that freshly allocates (or constructs a growable
    /// container): `Vec::new`, `vec![..]`, `with_capacity`,
    /// `Box::new`, `.collect()`, `.to_vec()`, `format!`, ...
    AllocConstruct,
    /// Amortized growth of an existing container: `.push(..)`,
    /// `.extend(..)`, `.insert(..)`, ... Recorded as a fact (the
    /// flit-arena refactor needs the map) but not flagged by
    /// `alloc-in-tick-path`, which targets per-call fresh allocations.
    AllocGrow,
    /// `.lock()` — recorded for future contention rules.
    Lock,
}

/// One sink fact, anchored to a line of the declaring file.
#[derive(Debug, Clone)]
pub struct Sink {
    pub kind: SinkKind,
    pub line: u32,
    /// What syntactically triggered the fact (`"unwrap"`, `"Instant"`,
    /// `"Vec::new"`, or a preformatted fragment for `HashIter`).
    pub what: String,
    /// For `FloatReduction`: a `// reduction-order:` comment is nearby.
    pub justified: bool,
    /// For `Unwrap`: the receiver is a `.lock()` call, so the unwrap is
    /// a mutex poison guard. Poisoning only happens after another
    /// thread has already panicked, so converting the unwrap to a typed
    /// error cannot improve recovery; `transitive-unwrap-in-pipeline`
    /// skips these.
    pub poison_guard: bool,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (`tick_router`, `push`, `new`).
    pub name: String,
    pub line: u32,
    /// `receiver.name(..)` method-call syntax.
    pub method: bool,
    /// Path segments written before the name (`Router::new` → `["Router"]`,
    /// `crate::profile::scope` → `["crate", "profile"]`).
    pub qualifier: Vec<String>,
}

/// One function (free, associated, or trait-default) found in a file.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Bare name.
    pub name: String,
    /// Path-qualified name: `scope::module::Type::name`.
    pub qualified: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` module or carrying `#[test]`.
    pub is_test: bool,
    /// Enclosing `impl`/`trait` type name, if any.
    pub in_impl: Option<String>,
    pub calls: Vec<CallSite>,
    pub sinks: Vec<Sink>,
}

/// Everything phase 1 knows about one file.
pub struct FileFacts {
    pub path: String,
    pub scope: String,
    pub fns: Vec<FnFact>,
    /// Sinks found outside any function body (`use` statements, consts).
    pub orphan_sinks: Vec<Sink>,
    pub(crate) scan: Scan,
}

const KEYWORDS: [&str; 31] = [
    "let", "mut", "pub", "fn", "if", "else", "match", "return", "for", "in", "impl", "use", "mod",
    "struct", "enum", "trait", "where", "unsafe", "dyn", "ref", "break", "continue", "crate",
    "super", "self", "Self", "static", "const", "type", "while", "loop",
];

/// Iteration methods whose order follows the container's.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Container types whose constructors count as allocation sinks.
const ALLOC_TYPES: [&str; 8] = [
    "Vec", "VecDeque", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];

/// Method calls that freshly allocate.
const ALLOC_METHODS: [&str; 4] = ["collect", "to_vec", "to_string", "to_owned"];

/// Method calls that grow an existing container (amortized).
const GROW_METHODS: [&str; 7] = [
    "push",
    "push_back",
    "push_front",
    "extend",
    "insert",
    "reserve",
    "append",
];

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

/// The module path of a file, derived from its workspace-relative path:
/// `crates/sim/src/router.rs` → `["router"]`, `src/bin/azul.rs` →
/// `["bin", "azul"]`, `tests/determinism.rs` → `["determinism"]`.
/// `lib`/`main`/`mod` stems vanish, matching Rust's module naming.
fn module_path(path: &str) -> Vec<String> {
    let norm = path.trim_start_matches("./");
    let norm = norm.strip_suffix(".rs").unwrap_or(norm);
    let mut segs: Vec<&str> = norm.split('/').filter(|s| !s.is_empty()).collect();
    if segs.first() == Some(&"crates") {
        segs.drain(..2.min(segs.len()));
        if segs.first() == Some(&"src") {
            segs.remove(0);
        }
    } else if segs.first() == Some(&"src") {
        segs.remove(0);
    } else if segs.len() > 1 {
        // `tests/foo.rs`, `examples/foo.rs`: the directory is the scope.
        segs.remove(0);
    }
    if matches!(segs.last(), Some(&"lib") | Some(&"main") | Some(&"mod")) {
        segs.pop();
    }
    segs.into_iter().map(str::to_string).collect()
}

/// Returns the token index of the call's `(`, skipping an optional
/// `::<..>` turbofish after the name at `i`. `None` when not a call.
fn call_paren(toks: &[Token], i: usize) -> Option<usize> {
    let next = toks.get(i + 1)?;
    if punct(next, '(') {
        return Some(i + 1);
    }
    // `name::<T, U>(..)`
    if punct(next, ':') && toks.get(i + 2).is_some_and(|t| punct(t, ':')) {
        let mut j = i + 3;
        if !toks.get(j).is_some_and(|t| punct(t, '<')) {
            return None;
        }
        let mut depth = 0i32;
        while j < toks.len() {
            if punct(&toks[j], '<') {
                depth += 1;
            } else if punct(&toks[j], '>') {
                // `->` inside generic bounds is not a closer.
                if !(j > 0 && punct(&toks[j - 1], '-')) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            j += 1;
        }
        if depth == 0 && toks.get(j + 1).is_some_and(|t| punct(t, '(')) {
            return Some(j + 1);
        }
    }
    None
}

/// The `::`-joined path written immediately before the ident at `i`:
/// `a::b::name` → `["a", "b"]`.
fn path_qualifier(toks: &[Token], i: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut j = i;
    while j >= 3
        && punct(&toks[j - 1], ':')
        && punct(&toks[j - 2], ':')
        && ident(&toks[j - 3]).is_some()
    {
        segs.push(ident(&toks[j - 3]).unwrap().to_string());
        j -= 3;
    }
    segs.reverse();
    segs
}

/// Scans one file into its fact record.
pub fn extract(path: &str, src: &str) -> FileFacts {
    let scope = scope_of(path).to_string();
    let scan = scan(src);
    let toks = &scan.tokens;
    let module = module_path(path);

    let mut fns: Vec<FnFact> = Vec::new();
    // Per-token enclosing function (index into `fns`), for the
    // hash-iteration pass below.
    let mut tok_fn: Vec<i32> = vec![-1; toks.len()];

    let mut depth = 0i32;
    // (fn index, body depth)
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    // (mod name, depth, is_test)
    let mut mod_stack: Vec<(String, i32, bool)> = Vec::new();
    // (impl/trait type name, depth)
    let mut impl_stack: Vec<(String, i32)> = Vec::new();

    let mut pending_fn: Option<(String, u32, bool)> = None; // name, line, is_test
    let mut pending_impl: Option<String> = None;
    let mut pending_test_attr = false;
    let mut pending_cfg_test = false;
    let mut orphan_sinks: Vec<Sink> = Vec::new();

    let push_sink =
        |fn_stack: &[(usize, i32)], fns: &mut Vec<FnFact>, orphans: &mut Vec<Sink>, sink: Sink| {
            match fn_stack.last() {
                Some(&(f, _)) => fns[f].sinks.push(sink),
                None => orphans.push(sink),
            }
        };

    let mut i = 0usize;
    while i < toks.len() {
        if let Some(&(f, _)) = fn_stack.last() {
            tok_fn[i] = f as i32;
        }
        let t = &toks[i];
        match &t.tok {
            // ---- attributes --------------------------------------
            Tok::Punct('#') if toks.get(i + 1).is_some_and(|t| punct(t, '[')) => {
                if toks.get(i + 2).and_then(ident) == Some("cfg")
                    && toks.get(i + 3).is_some_and(|t| punct(t, '('))
                    && toks.get(i + 4).and_then(ident) == Some("test")
                {
                    pending_cfg_test = true;
                } else if toks.get(i + 2).and_then(ident) == Some("test")
                    && toks.get(i + 3).is_some_and(|t| punct(t, ']'))
                {
                    pending_test_attr = true;
                }
            }
            // ---- items -------------------------------------------
            Tok::Ident(w) if w == "fn" => {
                if let Some(Some(name)) = toks.get(i + 1).map(ident) {
                    let in_test_mod = mod_stack.iter().any(|&(_, _, test)| test);
                    pending_fn = Some((
                        name.to_string(),
                        toks[i].line,
                        in_test_mod || pending_test_attr,
                    ));
                }
                pending_test_attr = false;
                pending_cfg_test = false;
            }
            // `impl` in type position (`-> impl Trait`, `x: impl T`)
            // only appears inside signatures/bodies; item position is
            // outside any fn with no fn pending.
            Tok::Ident(w)
                if (w == "impl" || w == "trait") && fn_stack.is_empty() && pending_fn.is_none() =>
            {
                pending_impl = impl_target(toks, i);
            }
            Tok::Punct(';') => {
                pending_fn = None; // bodyless trait method / extern decl
                pending_impl = None;
            }
            Tok::Punct('{') => {
                depth += 1;
                if let Some((name, line, is_test)) = pending_fn.take() {
                    let mut q: Vec<&str> = vec![scope.as_str()];
                    q.extend(module.iter().map(String::as_str));
                    for (m, _, _) in &mod_stack {
                        q.push(m);
                    }
                    if let Some((ty, _)) = impl_stack.last() {
                        q.push(ty);
                    }
                    q.push(&name);
                    fns.push(FnFact {
                        name: name.clone(),
                        qualified: q.join("::"),
                        line,
                        is_test,
                        in_impl: impl_stack.last().map(|(ty, _)| ty.clone()),
                        calls: Vec::new(),
                        sinks: Vec::new(),
                    });
                    fn_stack.push((fns.len() - 1, depth));
                } else if let Some(ty) = pending_impl.take() {
                    impl_stack.push((ty, depth));
                } else if i >= 2 && ident(&toks[i - 2]) == Some("mod") {
                    let name = ident(&toks[i - 1]).unwrap_or("_").to_string();
                    let parent_test = mod_stack.iter().any(|&(_, _, test)| test);
                    mod_stack.push((name, depth, parent_test || pending_cfg_test));
                }
                pending_cfg_test = false;
            }
            Tok::Punct('}') => {
                if fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                    fn_stack.pop();
                }
                if impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                    impl_stack.pop();
                }
                if mod_stack.last().is_some_and(|&(_, d, _)| d == depth) {
                    mod_stack.pop();
                }
                depth -= 1;
            }
            // ---- sinks & calls -----------------------------------
            Tok::Ident(w) => {
                let line = t.line;
                let prev_dot = i > 0 && punct(&toks[i - 1], '.');
                let next_bang = toks.get(i + 1).is_some_and(|t| punct(t, '!'));

                // Panic-family macros.
                if next_bang
                    && matches!(
                        w.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    )
                {
                    push_sink(
                        &fn_stack,
                        &mut fns,
                        &mut orphan_sinks,
                        Sink {
                            kind: SinkKind::PanicMacro,
                            line,
                            what: w.clone(),
                            justified: false,
                            poison_guard: false,
                        },
                    );
                }
                // Allocating macros.
                if next_bang && (w == "vec" || w == "format") {
                    push_sink(
                        &fn_stack,
                        &mut fns,
                        &mut orphan_sinks,
                        Sink {
                            kind: SinkKind::AllocConstruct,
                            line,
                            what: format!("{w}!"),
                            justified: false,
                            poison_guard: false,
                        },
                    );
                }
                // Wall clock / ambient randomness: any token counts
                // (`use` statements included), matching the historical
                // lexical rule.
                if w == "Instant" || w == "SystemTime" || w == "thread_rng" {
                    push_sink(
                        &fn_stack,
                        &mut fns,
                        &mut orphan_sinks,
                        Sink {
                            kind: SinkKind::WallClock,
                            line,
                            what: w.clone(),
                            justified: false,
                            poison_guard: false,
                        },
                    );
                }
                if prev_dot {
                    if let Some(paren) = call_paren(toks, i) {
                        method_call_sinks(
                            &scan,
                            toks,
                            i,
                            paren,
                            w,
                            line,
                            &fn_stack,
                            &mut fns,
                            &mut orphan_sinks,
                        );
                        if let Some(&(f, _)) = fn_stack.last() {
                            fns[f].calls.push(CallSite {
                                name: w.clone(),
                                line,
                                method: true,
                                qualifier: Vec::new(),
                            });
                        }
                    }
                } else if call_paren(toks, i).is_some()
                    && !KEYWORDS.contains(&w.as_str())
                    && i > 0
                    && ident(&toks[i - 1]) != Some("fn")
                {
                    let qualifier = path_qualifier(toks, i);
                    // Container constructors as allocation sinks.
                    if matches!(w.as_str(), "new" | "with_capacity" | "from")
                        && qualifier
                            .last()
                            .is_some_and(|q| ALLOC_TYPES.contains(&q.as_str()))
                    {
                        push_sink(
                            &fn_stack,
                            &mut fns,
                            &mut orphan_sinks,
                            Sink {
                                kind: SinkKind::AllocConstruct,
                                line,
                                what: format!("{}::{w}", qualifier.last().unwrap()),
                                justified: false,
                                poison_guard: false,
                            },
                        );
                    }
                    if let Some(&(f, _)) = fn_stack.last() {
                        fns[f].calls.push(CallSite {
                            name: w.clone(),
                            line,
                            method: false,
                            qualifier,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    hash_iteration_sinks(&scan, &tok_fn, &mut fns, &mut orphan_sinks);

    FileFacts {
        path: path.to_string(),
        scope,
        fns,
        orphan_sinks,
        scan,
    }
}

/// Sinks triggered by a method call `recv.name(..)` at ident `i` with
/// the call's `(` at `paren`.
#[allow(clippy::too_many_arguments)]
/// Whether the `unwrap`/`expect` at token `i` is applied directly to a
/// `.lock(..)` receiver — the `x.lock().unwrap()` mutex poison guard.
fn is_poison_guard(toks: &[Token], i: usize) -> bool {
    // Expect the shape `. lock ( .. ) . unwrap`: walk back over the
    // receiver call's parentheses from the `)` at `i - 2`.
    if i < 2 || !punct(&toks[i - 1], '.') || !punct(&toks[i - 2], ')') {
        return false;
    }
    let mut j = i - 2;
    let mut depth = 1u32;
    while depth > 0 {
        if j == 0 {
            return false;
        }
        j -= 1;
        if punct(&toks[j], ')') {
            depth += 1;
        } else if punct(&toks[j], '(') {
            depth -= 1;
        }
    }
    j >= 2 && ident(&toks[j - 1]) == Some("lock") && punct(&toks[j - 2], '.')
}

#[allow(clippy::too_many_arguments)] // one scan cursor, fanned out
fn method_call_sinks(
    scan: &Scan,
    toks: &[Token],
    i: usize,
    paren: usize,
    name: &str,
    line: u32,
    fn_stack: &[(usize, i32)],
    fns: &mut [FnFact],
    orphans: &mut Vec<Sink>,
) {
    let mut push = |sink: Sink| match fn_stack.last() {
        Some(&(f, _)) => fns[f].sinks.push(sink),
        None => orphans.push(sink),
    };
    match name {
        "unwrap" | "expect" => push(Sink {
            kind: SinkKind::Unwrap,
            line,
            what: name.to_string(),
            justified: false,
            poison_guard: is_poison_guard(toks, i),
        }),
        "lock" => push(Sink {
            kind: SinkKind::Lock,
            line,
            what: ".lock()".to_string(),
            justified: false,
            poison_guard: false,
        }),
        m if ALLOC_METHODS.contains(&m) => push(Sink {
            kind: SinkKind::AllocConstruct,
            line,
            what: format!(".{m}()"),
            justified: false,
            poison_guard: false,
        }),
        m if GROW_METHODS.contains(&m) => push(Sink {
            kind: SinkKind::AllocGrow,
            line,
            what: format!(".{m}()"),
            justified: false,
            poison_guard: false,
        }),
        "sum" => {
            // `.sum::<f64>()` turbofish.
            let is_f64 = punct(&toks[i + 1], ':')
                && toks.get(i + 2).is_some_and(|t| punct(t, ':'))
                && toks.get(i + 3).is_some_and(|t| punct(t, '<'))
                && toks.get(i + 4).and_then(ident) == Some("f64");
            if is_f64 {
                push(Sink {
                    kind: SinkKind::FloatReduction,
                    line,
                    what: "`.sum::<f64>()`".to_string(),
                    justified: scan.reduction_justified(line),
                    poison_guard: false,
                });
            }
        }
        "fold" => {
            // Float accumulator: a float literal or f64 in the first
            // few argument tokens.
            let floaty = toks[paren + 1..]
                .iter()
                .take(6)
                .any(|t| matches!(t.tok, Tok::Num { float: true }) || ident(t) == Some("f64"));
            if floaty {
                push(Sink {
                    kind: SinkKind::FloatReduction,
                    line,
                    what: "float `fold`".to_string(),
                    justified: scan.reduction_justified(line),
                    poison_guard: false,
                });
            }
        }
        _ => {}
    }
}

/// The two-pass hash-iteration detector: pass 1 collects names bound to
/// `HashMap`/`HashSet` values anywhere in the file (declarations
/// `name: HashMap<..>` and initializers `let name = HashMap::new()`);
/// pass 2 records iteration over them as `HashIter` sinks, attributed
/// to the enclosing function via `tok_fn`.
fn hash_iteration_sinks(scan: &Scan, tok_fn: &[i32], fns: &mut [FnFact], orphans: &mut Vec<Sink>) {
    use std::collections::BTreeSet;
    let toks = &scan.tokens;
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    let mut current_let: Option<String> = None;
    for i in 0..toks.len() {
        match ident(&toks[i]) {
            Some("let") => {
                let mut j = i + 1;
                if ident(&toks[j.min(toks.len() - 1)]) == Some("mut") {
                    j += 1;
                }
                if let Some(Some(name)) = toks.get(j).map(ident) {
                    if !KEYWORDS.contains(&name) {
                        current_let = Some(name.to_string());
                    }
                }
            }
            Some("HashMap") | Some("HashSet") => {
                // Walk back over the type path / annotation syntax to the
                // bound name: `name : [&] [std :: collections ::] HashMap`.
                let mut j = i;
                while j > 0 {
                    j -= 1;
                    match &toks[j].tok {
                        Tok::Punct(':') | Tok::Punct('&') => continue,
                        Tok::Ident(w) if w == "std" || w == "collections" || w == "mut" => continue,
                        Tok::Ident(w) if !KEYWORDS.contains(&w.as_str()) => {
                            hash_names.insert(w.clone());
                            break;
                        }
                        _ => {
                            // `= HashMap::new()` or a generic position:
                            // attribute to the current let binding.
                            if let Some(name) = &current_let {
                                hash_names.insert(name.clone());
                            }
                            break;
                        }
                    }
                }
            }
            _ => {}
        }
        if punct(&toks[i], ';') {
            current_let = None;
        }
    }
    if hash_names.is_empty() {
        return;
    }

    let mut record = |idx: usize, what: String| {
        let sink = Sink {
            kind: SinkKind::HashIter,
            line: toks[idx].line,
            what,
            justified: false,
            poison_guard: false,
        };
        match tok_fn.get(idx).copied().unwrap_or(-1) {
            f if f >= 0 => fns[f as usize].sinks.push(sink),
            _ => orphans.push(sink),
        }
    };

    // Method calls: `name.iter()`, `self.name.keys()`, ...
    for i in 2..toks.len() {
        let Some(m) = ident(&toks[i]) else { continue };
        if !ITER_METHODS.contains(&m) || !punct(&toks[i - 1], '.') {
            continue;
        }
        if toks.get(i + 1).is_none_or(|t| !punct(t, '(')) {
            continue;
        }
        if let Some(recv) = ident(&toks[i - 2]) {
            if hash_names.contains(recv) {
                record(
                    i,
                    format!(
                        "`{recv}.{m}()` iterates a HashMap/HashSet in unspecified order; \
                         use BTreeMap/BTreeSet or collect-and-sort"
                    ),
                );
            }
        }
    }

    // `for pat in [&[mut]] path.to.name {` — only simple paths; method
    // calls in the iterable are covered by the pass above.
    for i in 0..toks.len() {
        if ident(&toks[i]) != Some("for") {
            continue;
        }
        // Find `in` before the body brace.
        let mut j = i + 1;
        let mut in_at = None;
        while j < toks.len() && !punct(&toks[j], '{') && !punct(&toks[j], ';') {
            if ident(&toks[j]) == Some("in") {
                in_at = Some(j);
                break;
            }
            j += 1;
        }
        let Some(start) = in_at else { continue };
        let mut k = start + 1;
        let mut last_name: Option<&str> = None;
        let mut simple = true;
        while k < toks.len() && !punct(&toks[k], '{') {
            match &toks[k].tok {
                Tok::Ident(w) => last_name = Some(w),
                Tok::Punct('&') | Tok::Punct('.') => {}
                Tok::Punct(_) | Tok::Num { .. } => {
                    simple = false;
                    break;
                }
            }
            k += 1;
        }
        if !simple {
            continue;
        }
        if let Some(name) = last_name {
            if hash_names.contains(name) {
                record(
                    i,
                    format!(
                        "`for .. in {name}` iterates a HashMap/HashSet in unspecified \
                         order; use BTreeMap/BTreeSet or collect-and-sort"
                    ),
                );
            }
        }
    }
}

/// Parses the target type of an `impl`/`trait` header starting at `i`:
/// `impl Foo {` → `Foo`, `impl<T> fmt::Display for Bar<T> {` → `Bar`,
/// `trait Mapper {` → `Mapper`.
fn impl_target(toks: &[Token], i: usize) -> Option<String> {
    let mut j = i + 1;
    // Skip the generic parameter list right after the keyword.
    if toks.get(j).is_some_and(|t| punct(t, '<')) {
        let mut depth = 0i32;
        while j < toks.len() {
            if punct(&toks[j], '<') {
                depth += 1;
            } else if punct(&toks[j], '>') && !(j > 0 && punct(&toks[j - 1], '-')) {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Collect idents up to `{` / `where` / `;`; `for` splits trait
    // from implementing type.
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < toks.len() && !punct(&toks[j], '{') && !punct(&toks[j], ';') {
        match ident(&toks[j]) {
            Some("where") => break,
            Some("for") => saw_for = true,
            Some("dyn") | Some("mut") | Some("const") => {}
            Some(w) => {
                // Path segments: keep overwriting so `fmt::Display`
                // ends on `Display`; the last ident before `for` (or
                // `{`) is the name we want — but prefer the FIRST
                // ident after `for` (the base type, before generics).
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(w.to_string());
                    }
                } else if before_for.is_none() || !saw_for {
                    before_for = Some(w.to_string());
                }
            }
            None => {
                // Skip generic argument lists on the type itself.
                if punct(&toks[j], '<') {
                    let mut depth = 0i32;
                    while j < toks.len() {
                        if punct(&toks[j], '<') {
                            depth += 1;
                        } else if punct(&toks[j], '>') && !(j > 0 && punct(&toks[j - 1], '-')) {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            }
        }
        j += 1;
    }
    after_for.or(before_for)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        extract("crates/sim/src/fake.rs", src)
    }

    #[test]
    fn module_paths_follow_workspace_layout() {
        assert_eq!(module_path("crates/sim/src/router.rs"), vec!["router"]);
        assert_eq!(
            module_path("crates/bench/benches/sim_perf.rs"),
            vec!["benches", "sim_perf"]
        );
        assert_eq!(module_path("src/bin/azul.rs"), vec!["bin", "azul"]);
        assert_eq!(module_path("tests/determinism.rs"), vec!["determinism"]);
        assert!(module_path("crates/sim/src/lib.rs").is_empty());
    }

    #[test]
    fn functions_get_qualified_names() {
        let f = facts(
            r#"
pub fn free_fn() {}
struct Router;
impl Router {
    pub fn new() -> Self { Router }
    fn tick(&mut self) {}
}
impl std::fmt::Display for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
mod inner {
    pub fn helper() {}
}
"#,
        );
        let names: Vec<&str> = f.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "sim::fake::free_fn",
                "sim::fake::Router::new",
                "sim::fake::Router::tick",
                "sim::fake::Router::fmt",
                "sim::fake::inner::helper",
            ]
        );
    }

    #[test]
    fn calls_record_method_and_qualifier_shape() {
        let f = facts(
            r#"
fn caller() {
    helper();
    recv.method_call(1);
    Router::new(3);
    crate::profile::scope();
    generic::<u32>(1);
}
"#,
        );
        let c = &f.fns[0].calls;
        let shapes: Vec<(String, bool, Vec<String>)> = c
            .iter()
            .map(|c| (c.name.clone(), c.method, c.qualifier.clone()))
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("helper".into(), false, vec![]),
                ("method_call".into(), true, vec![]),
                ("new".into(), false, vec!["Router".into()]),
                (
                    "scope".into(),
                    false,
                    vec!["crate".into(), "profile".into()]
                ),
                ("generic".into(), false, vec![]),
            ]
        );
    }

    #[test]
    fn sink_facts_cover_the_catalogue() {
        let f = facts(
            r#"
fn sinky(m: &std::collections::HashMap<u32, u32>) {
    let v: Vec<u32> = Vec::with_capacity(4);
    let b = Box::new(1);
    let s = format!("x");
    let c: Vec<u32> = m.keys().copied().collect();
    buf.push(1);
    guard.lock();
    opt.unwrap();
    res.expect("msg");
    panic!("boom");
    let t = std::time::Instant::now();
}
"#,
        );
        let kinds: Vec<SinkKind> = f.fns[0].sinks.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SinkKind::AllocConstruct));
        assert!(kinds.contains(&SinkKind::AllocGrow));
        assert!(kinds.contains(&SinkKind::Lock));
        assert!(kinds.contains(&SinkKind::Unwrap));
        assert!(kinds.contains(&SinkKind::PanicMacro));
        assert!(kinds.contains(&SinkKind::WallClock));
        assert!(kinds.contains(&SinkKind::HashIter));
    }

    #[test]
    fn test_functions_are_marked() {
        let f = facts(
            r#"
fn prod() {}
#[test]
fn attr_test() {}
#[cfg(test)]
mod tests {
    fn helper_in_test_mod() {}
    #[test]
    fn the_test() {}
}
"#,
        );
        let flags: Vec<(String, bool)> =
            f.fns.iter().map(|f| (f.name.clone(), f.is_test)).collect();
        assert_eq!(
            flags,
            vec![
                ("prod".into(), false),
                ("attr_test".into(), true),
                ("helper_in_test_mod".into(), true),
                ("the_test".into(), true),
            ]
        );
    }

    #[test]
    fn orphan_sinks_land_outside_functions() {
        let f = facts("use std::time::Instant;\nfn fine() {}\n");
        assert_eq!(f.orphan_sinks.len(), 1);
        assert_eq!(f.orphan_sinks[0].kind, SinkKind::WallClock);
        assert!(f.fns[0].sinks.is_empty());
    }

    #[test]
    fn impl_in_type_position_does_not_open_an_impl_block() {
        let f = facts(
            r#"
fn takes(x: impl Iterator<Item = u32>) -> impl Iterator<Item = u32> { x }
struct S;
impl S {
    fn inside(&self) {}
}
"#,
        );
        let names: Vec<&str> = f.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["sim::fake::takes", "sim::fake::S::inside"]);
    }
}
