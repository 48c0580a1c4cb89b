//! Replay: each kernel is simulated once per pattern, placement and
//! configuration, and later launches replay its slot arithmetic.
//!
//! Azul's PE runs a dataflow schedule fixed at compile time (Sec. IV-A,
//! V-A). In a fault-free run nothing the tick engine decides reads a value
//! it carries: which operation issues on a cycle, when a flit moves, and
//! every counter depend on the program's structure and the [`SimConfig`]
//! alone. So the two fix the cycle count, every statistic, and the order
//! in which each accumulator slot receives its updates.
//!
//! The first launch of a [`Program`] under a config runs the engine and
//! writes a [`KernelRecord`], one row per accumulator slot, that holds no
//! value:
//!
//! - **Updates.** A row names its slot's updates in issue order, one
//!   `u32` each. A ScaleAndAccumCol update names its entry by the
//!   position of the coefficient in the values of the matrix the program
//!   was compiled from ([`Entry::pos`](crate::program::Entry::pos)): `A`
//!   for SpMV, `L` for both solves. An arriving partial names the cell of
//!   the sending slot's final value, tagged.
//! - **Cells.** Values live in one array: `[x | out | slot finals]` in
//!   SpMV, where `x` is the input, and `[x | slot finals]` in SpTRSV,
//!   where `x` is the solved output. A slot finishes when its value is
//!   final: an SpMV home slot when it writes `out` (`FinalY`), an SpTRSV
//!   home slot when it solves, any other slot when it sends its partial.
//!   The `k`-th slot to finish has the `k`-th cell of the finals.
//! - **Destination.** Each row names one cell, where it starts and where
//!   its result goes: a home row its target's cell in `out` (SpMV) or `x`
//!   (SpTRSV), any other row its own final value's cell. An SpMV row
//!   starts at 0. An SpTRSV home row starts at `b[target]`, which `x`
//!   holds until the variable solves, and stores `final *
//!   inv_diag[target]`; any other row starts at its own cell, still 0.
//!
//! A record therefore depends on the pattern, the permutation, the
//! placement and the config, and on no value: the same pattern with new
//! values (Sec. II-C's time stepping) keeps it.
//!
//! **Binding.** A replay runs [`Replay`] rows: the record bound to the
//! values, each update a coefficient and a source, 12 bytes. An update
//! that names entry `p` becomes `(coeff, source)` read at `p`: for SpMV
//! `(A[p], column of p)`, for the lower solve `(-L[p], column of p)`, for
//! the upper solve `(-L[p], row of p)`, exactly the coefficient and
//! trigger compile puts in that entry; a partial becomes `(1.0, cell)`.
//! An SpTRSV replay scales by `1 / d`, taken from `L`'s diagonal as
//! compile takes it. A recording launch writes the bound rows of its
//! program beside the record; [`bind_spmv`] and [`bind_solves`] bind a
//! record to matrices, so a caller that holds one needs no program.
//!
//! **Why the bound rows give the engine's bits.** Every value the engine
//! reads was finished before the read: a trigger's variable solves before
//! its multicast, and a slot finishes before its partial is sent. So
//! finish order is a topological order of the rows: a launch that
//! replays the rows one after another in it — `acc = initial`, `acc +=
//! coeff * value[source]` along the row, store — performs the same
//! operations on the same operands, in each slot's issue order, as the
//! engine: the coefficient is the bits compile stored, the operand the
//! same finished value. Operations on different slots commute exactly, so
//! every output bit is the engine's, a NaN's sign and payload aside
//! (below); a partial's `1.0 *`, and a partial
//! row's final `* 1.0`, change no bit, NaN, infinity and signed zero
//! included. Any other topological order gives the same bits, so the rows
//! are stored by level — one more than the highest level among the rows a
//! row reads — and by length within a level: the replay loop then meets
//! runs of equal-length rows. It has no opcode and no branch per update
//! or per kind of row: one multiply-add per update, one store per row.
//! The rows hold no timing: the engine stays the only place the schedule
//! is decided.
//!
//! **A NaN's sign and payload are not part of this contract.** An output
//! is NaN in a replay exactly when it is NaN in the engine, and every
//! other output bit, ±0.0 and ±inf included, is the engine's. But when
//! both operands of an `a + b` are NaN, Rust does not fix which operand's
//! sign and payload the result carries, and the engine and the replay
//! loop are compiled apart, so an optimised build may return `0x7ff8…`
//! from one and `0xfff8…` from the other.
//!
//! A later launch under an equal config skips the engine: it replays the
//! rows on its own input and returns the recorded
//! [`KernelStats`](crate::stats::KernelStats).
//!
//! A launch replays only when nothing it would produce depends on more
//! than the program, the config and the input ([`replayable`]): no fault
//! session and no non-empty fault plan, no event trace, no per-tile detail
//! or progress trace, and the host-profiling probes off. Anything else
//! runs the engine. A replay checks the cancel token once, before it
//! starts, and counts no tile-cycles in [`crate::profile`], since it
//! ticks nothing.
//!
//! The memo lives on the [`Program`] and is shared by its clones. The
//! first replayable launch fixes its config (config equality ignores the
//! cancel token, which a service arms per request); a launch under any
//! other config runs the engine and records nothing. A recording launch
//! writes each update straight into its slot's row — rows in slot order,
//! each sized exactly from the slot table (`SlotDesc::remaining`), an
//! update going to its row's end less the updates still to come — and a
//! partial carries the cell of its value, which the recorder hands out
//! when the slot sends it. Once the engine is done the finished rows are
//! copied into level order, once as the record and once bound. The tick
//! path is generic over [`Record`], so a launch that does not record runs
//! an engine with no recording code in it.

use std::sync::Arc;

use azul_sparse::Csr;

use crate::config::SimConfig;
use crate::profile;
use crate::program::{Program, ProgramKind};
use crate::stats::KernelStats;

/// Where the tick path sends slot arithmetic, in issue order. It is
/// passed down the tick path next to the output vector, and the engine
/// is compiled once per implementation: `()` records nothing, so a
/// launch that does not record runs the engine without recording code;
/// a [`Recorder`] records. Slots are numbered across tiles: tile `t`'s
/// slot `s` is the slot count of the tiles before `t`, plus `s`.
pub(crate) trait Record {
    /// `slot += coeff * value of trigger`, where `coeff` sits at `pos` in
    /// the compiled matrix's values, after which `slot` awaits `left`
    /// more updates.
    fn fmac(&mut self, slot: u32, left: u32, trigger: u32, pos: u32, coeff: f64);
    /// `slot += final value of src`, after which `slot` awaits `left`
    /// more updates.
    fn combine(&mut self, slot: u32, left: u32, src: u32);
    /// `slot` holds its final value and writes output `target`.
    fn output(&mut self, slot: u32, target: u32);
    /// `slot` holds its final value and sends it as a partial. Returns
    /// the value's name, which the partial carries to [`Record::combine`]
    /// as its `src`.
    fn send(&mut self, slot: u32) -> u32;
}

impl Record for () {
    #[inline(always)]
    fn fmac(&mut self, _: u32, _: u32, _: u32, _: u32, _: f64) {}
    #[inline(always)]
    fn combine(&mut self, _: u32, _: u32, _: u32) {}
    #[inline(always)]
    fn output(&mut self, _: u32, _: u32) {}
    #[inline(always)]
    fn send(&mut self, _: u32) -> u32 {
        0
    }
}

/// Tags a record update that combines a partial; the other bits are the
/// cell of the sender's final value. An untagged update names an entry
/// by its position, so positions stay below `2^31`.
const CELL: u32 = 1 << 31;

/// One update as the recorder writes it: the bound update and its
/// value-free name in the record.
#[derive(Clone, Copy)]
struct Written {
    coeff: f64,
    src: u32,
    name: u32,
}

/// One launch's slot arithmetic while the engine runs: a row per slot,
/// in slot order, each written in place as its updates issue, and the
/// finished rows in the order their slots finished.
pub(crate) struct Recorder {
    /// Every slot's row, in slot order.
    updates: Vec<Written>,
    /// Where each slot's row ends in `updates` (and the next one starts):
    /// an update with `left` more to come goes to `end - 1 - left`.
    end: Vec<u32>,
    /// The finished slots' rows in `updates`, in finish order.
    ranges: Vec<(u32, u32)>,
    /// Each finished slot's [`KernelRecord::dest`], in finish order.
    dest: Vec<u32>,
    /// Where the finals start in the value array.
    finals: u32,
    /// Where output element 0 sits in the value array.
    out: u32,
}

impl Recorder {
    /// An empty record for one launch of `program`: each slot's row
    /// sized from its update count.
    fn for_program(program: &Program) -> Recorder {
        let end: Vec<u32> = program
            .tiles
            .iter()
            .flat_map(|tp| &tp.slots)
            .scan(0, |end, s| {
                *end += s.remaining;
                Some(*end)
            })
            .collect();
        let (slots, updates) = (end.len(), end.last().map_or(0, |&e| e as usize));
        let n = program.n as u32;
        let (finals, out) = match program.kind {
            ProgramKind::Spmv => (2 * n, n),
            ProgramKind::Sptrsv => (n, 0),
        };
        let blank = Written {
            coeff: 0.0,
            src: 0,
            name: 0,
        };
        Recorder {
            updates: vec![blank; updates],
            end,
            ranges: Vec::with_capacity(slots),
            dest: Vec::with_capacity(slots),
            finals,
            out,
        }
    }

    /// Writes `slot`'s update with `left` more to come.
    #[inline]
    fn put(&mut self, slot: u32, left: u32, w: Written) {
        let i = self.end[slot as usize] - 1 - left;
        self.updates[i as usize] = w;
    }

    /// Notes that `slot` finished, with its final value at `dest`.
    #[inline]
    fn close(&mut self, slot: u32, dest: u32) {
        let s = slot as usize;
        let start = if s == 0 { 0 } else { self.end[s - 1] };
        self.ranges.push((start, self.end[s]));
        self.dest.push(dest);
    }

    /// The finished rows as a [`Replay`]: the value-free record of
    /// `program`'s launch under `cfg`, and the same rows bound to the
    /// program's values, in an order that groups rows of one length.
    ///
    /// Finish order is topological, but any order that runs a row after
    /// the rows it reads is too. So each row gets a level, one more than
    /// the highest level among the rows it reads (inputs are level 0), and
    /// the rows run by level and, within a level, by length: the replay
    /// loop then meets runs of equal-length rows, whose ends it predicts.
    /// Each row keeps its destination, so no source changes.
    fn into_rows(self, cfg: &SimConfig, program: &Program, stats: &KernelStats) -> Replay {
        let rows = self.ranges.len();
        let mut level = vec![0u32; (self.finals as usize) + rows];
        let mut key = Vec::with_capacity(rows);
        for (&(lo, hi), &d) in self.ranges.iter().zip(&self.dest) {
            let row = &self.updates[lo as usize..hi as usize];
            let l = 1 + row.iter().map(|u| level[u.src as usize]).max().unwrap_or(0);
            level[d as usize] = l;
            key.push((l, hi - lo));
        }
        // Two stable counting sorts: by length, then by level.
        let by_len = counting_sort((0..rows as u32).collect(), |k| key[k as usize].1);
        let order = counting_sort(by_len, |k| key[k as usize].0);
        let total = self.updates.len();
        let mut record = KernelRecord {
            cfg: SimConfig {
                cancel: None,
                ..cfg.clone()
            },
            kind: program.kind,
            n: program.n,
            names: Vec::with_capacity(total),
            end: Vec::with_capacity(rows),
            dest: Vec::with_capacity(rows),
            stats: stats.clone(),
        };
        let mut bound = Vec::with_capacity(total);
        for &k in &order {
            let (lo, hi) = self.ranges[k as usize];
            let row = &self.updates[lo as usize..hi as usize];
            record.names.extend(row.iter().map(|w| w.name));
            bound.extend(
                row.iter()
                    .map(|&Written { coeff, src, .. }| Update { coeff, src }),
            );
            record.end.push(record.names.len() as u32);
            record.dest.push(self.dest[k as usize]);
        }
        let inv_diag = match program.kind {
            ProgramKind::Spmv => Arc::from([]),
            ProgramKind::Sptrsv => Arc::from(program.inv_diag.as_slice()),
        };
        Replay {
            record: Arc::new(record),
            updates: bound,
            inv_diag,
        }
    }
}

/// `items`, stably sorted by `key`.
fn counting_sort(items: Vec<u32>, key: impl Fn(u32) -> u32) -> Vec<u32> {
    let buckets = items
        .iter()
        .map(|&i| key(i) as usize + 1)
        .max()
        .unwrap_or(0);
    let mut at = vec![0usize; buckets + 1];
    for &i in &items {
        at[key(i) as usize + 1] += 1;
    }
    for b in 0..buckets {
        at[b + 1] += at[b];
    }
    let mut out = vec![0; items.len()];
    for &i in &items {
        let b = &mut at[key(i) as usize];
        out[*b] = i;
        *b += 1;
    }
    out
}

impl Record for Recorder {
    #[inline]
    fn fmac(&mut self, slot: u32, left: u32, trigger: u32, pos: u32, coeff: f64) {
        debug_assert!(pos < CELL, "entry positions stay below 2^31");
        let w = Written {
            coeff,
            src: trigger,
            name: pos,
        };
        self.put(slot, left, w);
    }
    /// `src` is the final value's cell in the value array, as
    /// [`Record::send`] named it.
    #[inline]
    fn combine(&mut self, slot: u32, left: u32, src: u32) {
        let w = Written {
            coeff: 1.0,
            src,
            name: CELL | src,
        };
        self.put(slot, left, w);
    }
    #[inline]
    fn output(&mut self, slot: u32, target: u32) {
        self.close(slot, self.out + target);
    }
    /// Names the final value by its cell in the value array.
    #[inline]
    fn send(&mut self, slot: u32) -> u32 {
        let at = self.finals + self.ranges.len() as u32;
        self.close(slot, at);
        at
    }
}

/// A kernel's slot arithmetic with no value in it: one row per finished
/// slot, by level and length, each update the position of its entry or
/// a tagged cell (the module docs), plus the config it was recorded
/// under and the statistics the engine returned.
pub(crate) struct KernelRecord {
    /// The recording launch's config, without its cancel token.
    cfg: SimConfig,
    kind: ProgramKind,
    /// Vector dimension.
    n: usize,
    /// Every row's updates, row after row: an entry position, or
    /// [`CELL`] and a cell.
    names: Vec<u32>,
    /// Row `k` is `end[k - 1]..end[k]` (from 0 for row 0).
    end: Vec<u32>,
    /// Where row `k` starts and ends in the value array: its target's
    /// cell for a home row, its own final value's cell for a partial.
    dest: Vec<u32>,
    stats: KernelStats,
}

impl std::fmt::Debug for KernelRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelRecord")
            .field("kind", &self.kind)
            .field("rows", &self.end.len())
            .field("updates", &self.names.len())
            .field("cycles", &self.stats.cycles)
            .finish()
    }
}

impl KernelRecord {
    /// Heap bytes the record holds: 4 per update and 8 per row.
    pub(crate) fn bytes(&self) -> usize {
        (self.names.capacity() + self.end.capacity() + self.dest.capacity())
            * std::mem::size_of::<u32>()
    }

    /// The record's rows bound to values: an update naming entry `p`
    /// becomes `at(p)`, a partial `(1.0, cell)`. `None` when `at` has
    /// no entry at some position: the values are not the ones the record
    /// names.
    fn bind(
        self: &Arc<Self>,
        at: impl Fn(usize) -> Option<Update>,
        inv_diag: Arc<[f64]>,
    ) -> Option<Replay> {
        let mut updates = Vec::with_capacity(self.names.len());
        for &name in &self.names {
            updates.push(if name & CELL != 0 {
                Update {
                    coeff: 1.0,
                    src: name & !CELL,
                }
            } else {
                at(name as usize)?
            });
        }
        Some(Replay {
            record: Arc::clone(self),
            updates,
            inv_diag,
        })
    }
}

/// Binds the record of an SpMV launch to `a`: entry `p` is `(A[p],
/// column of p)`. `None` unless the record is an SpMV record of `a`'s
/// dimension whose positions all lie in `a`.
pub(crate) fn bind_spmv(record: &Arc<KernelRecord>, a: &Csr) -> Option<Replay> {
    if record.kind != ProgramKind::Spmv || record.n != a.rows() {
        return None;
    }
    let (values, cols) = (a.values(), a.col_idx());
    record.bind(
        |p| {
            Some(Update {
                coeff: *values.get(p)?,
                src: cols[p] as u32,
            })
        },
        Arc::from([]),
    )
}

/// Binds the records of the lower and the upper solve to the factor
/// `l`: entry `p` is `(-L[p], column of p)` in the lower solve and
/// `(-L[p], row of p)` in the upper, and both scale by `1 / d` over
/// `l`'s diagonal. `None` unless both are SpTRSV records of `l`'s
/// dimension whose positions all lie in `l`, and no diagonal is zero.
pub(crate) fn bind_solves(
    lower: &Arc<KernelRecord>,
    upper: &Arc<KernelRecord>,
    l: &Csr,
) -> Option<(Replay, Replay)> {
    let n = l.rows();
    let fits = |r: &KernelRecord| r.kind == ProgramKind::Sptrsv && r.n == n;
    if !fits(lower) || !fits(upper) {
        return None;
    }
    let diagonal = l.diagonal();
    if diagonal.contains(&0.0) {
        return None;
    }
    let inv_diag: Arc<[f64]> = diagonal.iter().map(|&d| 1.0 / d).collect();
    let (values, cols) = (l.values(), l.col_idx());
    let mut row_of = vec![0u32; values.len()];
    for (r, w) in l.row_ptr().windows(2).enumerate() {
        row_of[w[0]..w[1]].fill(r as u32);
    }
    let lo = lower.bind(
        |p| {
            Some(Update {
                coeff: -*values.get(p)?,
                src: cols[p] as u32,
            })
        },
        Arc::clone(&inv_diag),
    )?;
    let up = upper.bind(
        |p| {
            Some(Update {
                coeff: -*values.get(p)?,
                src: row_of[p],
            })
        },
        inv_diag,
    )?;
    Some((lo, up))
}

/// One update of a bound row: `acc += coeff * vals[src]`. Packed to 12
/// bytes, so a row is one stream.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Update {
    coeff: f64,
    src: u32,
}

/// `acc + coeff * vals[src]` over `updates`, added left to right. Kept
/// apart from [`Replay::sweep`] so the accumulator stays in a register.
#[inline]
fn dot(mut acc: f64, updates: &[Update], vals: &[f64]) -> f64 {
    for &Update { coeff, src } in updates {
        acc += coeff * vals[src as usize];
    }
    acc
}

/// A record bound to values: what a replay runs. A program's first
/// replayable launch keeps one on the program; a
/// [`PcgSim`](crate::pcg::PcgSim) built from a record binds its own.
#[derive(Clone)]
pub(crate) struct Replay {
    record: Arc<KernelRecord>,
    /// The record's updates, bound: `updates[i]` stands for
    /// `record.names[i]`.
    updates: Vec<Update>,
    /// SpTRSV: the reciprocal diagonal a home row scales by. Empty for
    /// SpMV.
    inv_diag: Arc<[f64]>,
}

impl std::fmt::Debug for Replay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("record", &self.record)
            .finish()
    }
}

impl Replay {
    /// Heap bytes of the bound updates.
    pub(crate) fn bytes(&self) -> usize {
        self.updates.capacity() * std::mem::size_of::<Update>()
    }

    /// The value-free record behind the rows.
    pub(crate) fn record(&self) -> &Arc<KernelRecord> {
        &self.record
    }

    /// The recorded statistics.
    pub(crate) fn stats(&self) -> &KernelStats {
        &self.record.stats
    }

    /// The vector dimension.
    pub(crate) fn n(&self) -> usize {
        self.record.n
    }

    /// Whether the record was made under `cfg` (the cancel token aside).
    pub(crate) fn recorded_under(&self, cfg: &SimConfig) -> bool {
        self.record.cfg == *cfg
    }

    /// Runs every row, in order, on `vals`: a row starts at
    /// `initial(vals, dest)`, adds its updates, and stores `result(dest,
    /// acc)` at `vals[dest]`. One branch per row, the end of its updates.
    fn sweep(
        &self,
        vals: &mut [f64],
        initial: impl Fn(&[f64], usize) -> f64,
        result: impl Fn(usize, f64) -> f64,
    ) {
        let mut lo = 0;
        for (&hi, &d) in self.record.end.iter().zip(&self.record.dest) {
            let (hi, d) = (hi as usize, d as usize);
            let acc = dot(initial(vals, d), &self.updates[lo..hi], vals);
            lo = hi;
            vals[d] = result(d, acc);
        }
    }

    /// Runs the rows on `input`: the output vector the engine would
    /// produce.
    pub(crate) fn replay(&self, input: &[f64]) -> Vec<f64> {
        let n = self.record.n;
        let rows = self.record.end.len();
        match self.record.kind {
            // `[x | out | slot finals]`: every row starts at 0.
            ProgramKind::Spmv => {
                let mut vals = vec![0.0f64; 2 * n + rows];
                vals[..n].copy_from_slice(input);
                self.sweep(&mut vals, |_, _| 0.0, |_, acc| acc);
                vals[n..2 * n].to_vec()
            }
            // `[x | slot finals]`, `x` holding `b` until each variable
            // solves: a home row starts at its own `b[target]`, and a
            // partial at its own final value's cell, still 0. Every
            // variable solves, so no `b` is left in the output.
            ProgramKind::Sptrsv => {
                let mut vals = vec![0.0f64; n + rows];
                vals[..n].copy_from_slice(input);
                let inv_diag = &self.inv_diag;
                let scale = |d: usize| {
                    let s = inv_diag[d.min(n - 1)];
                    if d < n {
                        s
                    } else {
                        1.0
                    }
                };
                self.sweep(&mut vals, |v, d| v[d], |d, acc| acc * scale(d));
                vals[..n].to_vec()
            }
        }
    }
}

#[cfg(test)]
impl Replay {
    /// Row `k`'s bound updates: their coefficients and sources.
    pub(crate) fn row(&self, k: usize) -> (Vec<f64>, Vec<u32>) {
        let end = &self.record.end;
        let lo = if k == 0 { 0 } else { end[k - 1] as usize };
        let updates = &self.updates[lo..end[k] as usize];
        (
            updates.iter().map(|u| u.coeff).collect(),
            updates.iter().map(|u| u.src).collect(),
        )
    }

    /// How many rows there are.
    pub(crate) fn num_rows(&self) -> usize {
        self.record.end.len()
    }

    /// [`Replay::replay`] for a launch of `program`.
    pub(crate) fn run(&self, program: &Program, input: &[f64]) -> Vec<f64> {
        assert_eq!(program.n, self.n(), "a replay of another program");
        self.replay(input)
    }

    /// A copy with updates `i` and `j` of row `k` trading places.
    pub(crate) fn with_swapped(&self, k: usize, i: usize, j: usize) -> Replay {
        let mut out = self.clone();
        let lo = if k == 0 {
            0
        } else {
            self.record.end[k - 1] as usize
        };
        out.updates.swap(lo + i, lo + j);
        out
    }
}

/// Whether a launch may replay, or record for later ones: no fault
/// session (`session`) and no non-empty plan, no event trace, no per-tile
/// detail or progress trace, and the host-profiling probes off.
pub(crate) fn replayable(cfg: &SimConfig, session: bool) -> bool {
    !session
        && cfg.faults.as_ref().is_none_or(|p| p.is_empty())
        && cfg.trace.is_none()
        && !cfg.detailed_stats
        && cfg.trace_interval == 0
        && !profile::enabled()
}

/// How a replayable launch of `program` under `cfg` proceeds.
pub(crate) enum Plan<'a> {
    /// The program recorded a launch under `cfg`: replay it.
    Replay(&'a Replay),
    /// Nothing recorded yet: run the engine into this recorder, then
    /// [`keep`] it.
    Record(Recorder),
    /// The program recorded under another config: run the engine.
    Engine,
}

/// Picks the [`Plan`] for a replayable launch.
pub(crate) fn plan<'a>(cfg: &SimConfig, program: &'a Program) -> Plan<'a> {
    match program.memo().get() {
        Some(r) if r.recorded_under(cfg) => Plan::Replay(r),
        Some(_) => Plan::Engine,
        None => Plan::Record(Recorder::for_program(program)),
    }
}

/// Stores a recorded launch on `program`, unless another thread stored
/// one first. The stored config holds no cancel token, so the record
/// keeps no request's token alive.
pub(crate) fn keep(cfg: &SimConfig, program: &Program, rec: Recorder, stats: &KernelStats) {
    let _ = program.memo().set(rec.into_rows(cfg, program, stats));
}
