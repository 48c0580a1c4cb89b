//! Replay: each compiled kernel is simulated once per configuration, and
//! later launches replay its slot arithmetic.
//!
//! Azul's PE runs a dataflow schedule fixed at compile time (Sec. IV-A,
//! V-A). In a fault-free run nothing the tick engine decides reads a value
//! it carries: which operation issues on a cycle, when a flit moves, and
//! every counter depend on the program and the [`SimConfig`] alone. So the
//! two fix the cycle count, every statistic, and the order in which each
//! accumulator slot receives its updates.
//!
//! The first launch of a [`Program`] under a config runs the engine and
//! records its slot arithmetic as [`Rows`], one row per accumulator slot:
//!
//! - **Updates.** A row holds its slot's updates in issue order, each a
//!   coefficient and a source, 12 bytes. A source indexes one value
//!   array: `[x | out | slot finals]` in SpMV, where `x` is the input, and
//!   `[x | slot finals]` in SpTRSV, where `x` is the solved output. A
//!   ScaleAndAccumCol entry is `(coeff, trigger)`; an arriving partial is
//!   `(1.0, final value of the sending slot)`.
//! - **Finals.** A slot finishes when its value is final: an SpMV home
//!   slot when it writes `out` (`FinalY`), an SpTRSV home slot when it
//!   solves, any other slot when it sends its partial. The `k`-th slot to
//!   finish has the `k`-th cell of the finals.
//! - **Destination.** Each row names one cell, where it starts and where
//!   its result goes: a home row its target's cell in `out` (SpMV) or `x`
//!   (SpTRSV), any other row its own final value's cell. An SpMV row
//!   starts at 0. An SpTRSV home row starts at `b[target]`, which `x`
//!   holds until the variable solves, and stores `final *
//!   inv_diag[target]`; any other row starts at its own cell, still 0.
//!
//! Every value the engine reads was finished before the read: a trigger's
//! variable solves before its multicast, and a slot finishes before its
//! partial is sent. So finish order is a topological order of the rows:
//! a launch that replays the rows one after another in it — `acc =
//! initial`, `acc += coeff * value[source]` along the row, store — performs
//! the same operations on the same operands, in each slot's issue order,
//! as the engine. Operations on different slots commute exactly, so every
//! output bit is the engine's; a partial's `1.0 *`, and a partial row's
//! final `* 1.0`, change no bit, NaN, infinity and signed zero included.
//! Any other topological order gives the same bits, so the rows are
//! stored by level — one more than the highest level among the rows a row
//! reads — and by length within a level: the replay loop then meets runs
//! of equal-length rows. It has no opcode and no branch per update or per
//! kind of row: one multiply-add per update, one store per row. The rows
//! hold no timing: the engine stays the only place the schedule is
//! decided.
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
//! partial carries the index of its value in the value array, which the
//! recorder hands out when the slot sends it. Once the engine is done the
//! finished rows are copied into level order. The tick path is generic
//! over [`Record`], so a launch that does not record runs an engine with
//! no recording code in it.

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
    /// `slot += coeff * value of trigger`, after which `slot` awaits
    /// `left` more updates.
    fn fmac(&mut self, slot: u32, left: u32, trigger: u32, coeff: f64);
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
    fn fmac(&mut self, _: u32, _: u32, _: u32, _: f64) {}
    #[inline(always)]
    fn combine(&mut self, _: u32, _: u32, _: u32) {}
    #[inline(always)]
    fn output(&mut self, _: u32, _: u32) {}
    #[inline(always)]
    fn send(&mut self, _: u32) -> u32 {
        0
    }
}

/// One launch's slot arithmetic while the engine runs: a row per slot,
/// in slot order, each written in place as its updates issue, and the
/// finished rows in the order their slots finished.
pub(crate) struct Recorder {
    /// Every slot's row, in slot order.
    updates: Vec<Update>,
    /// Where each slot's row ends in `updates` (and the next one starts):
    /// an update with `left` more to come goes to `end - 1 - left`.
    end: Vec<u32>,
    /// The finished slots' rows in `updates`, in finish order.
    ranges: Vec<(u32, u32)>,
    /// Each finished slot's [`Rows::dest`], in finish order.
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
        Recorder {
            updates: vec![Update { coeff: 0.0, src: 0 }; updates],
            end,
            ranges: Vec::with_capacity(slots),
            dest: Vec::with_capacity(slots),
            finals,
            out,
        }
    }

    /// Writes `slot`'s update with `left` more to come.
    #[inline]
    fn put(&mut self, slot: u32, left: u32, coeff: f64, src: u32) {
        let i = self.end[slot as usize] - 1 - left;
        self.updates[i as usize] = Update { coeff, src };
    }

    /// Notes that `slot` finished, with its final value at `dest`.
    #[inline]
    fn close(&mut self, slot: u32, dest: u32) {
        let s = slot as usize;
        let start = if s == 0 { 0 } else { self.end[s - 1] };
        self.ranges.push((start, self.end[s]));
        self.dest.push(dest);
    }

    /// The finished rows, in an order that groups rows of one length.
    ///
    /// Finish order is topological, but any order that runs a row after
    /// the rows it reads is too. So each row gets a level, one more than
    /// the highest level among the rows it reads (inputs are level 0), and
    /// the rows run by level and, within a level, by length: the replay
    /// loop then meets runs of equal-length rows, whose ends it predicts.
    /// Each row keeps its destination, so no source changes.
    fn into_rows(self) -> Rows {
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
        let mut out = Rows {
            updates: Vec::with_capacity(self.updates.len()),
            end: Vec::with_capacity(rows),
            dest: Vec::with_capacity(rows),
        };
        for &k in &order {
            let (lo, hi) = self.ranges[k as usize];
            // Rows are short: a copy loop beats a `memcpy` call per row.
            for &u in &self.updates[lo as usize..hi as usize] {
                out.updates.push(u);
            }
            out.end.push(out.updates.len() as u32);
            out.dest.push(self.dest[k as usize]);
        }
        out.updates.shrink_to_fit();
        out
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
    fn fmac(&mut self, slot: u32, left: u32, trigger: u32, coeff: f64) {
        self.put(slot, left, coeff, trigger);
    }
    /// `src` is the final value's index in the value array, as
    /// [`Record::send`] named it.
    #[inline]
    fn combine(&mut self, slot: u32, left: u32, src: u32) {
        self.put(slot, left, 1.0, src);
    }
    #[inline]
    fn output(&mut self, slot: u32, target: u32) {
        self.close(slot, self.out + target);
    }
    /// Names the final value by its index in the value array.
    #[inline]
    fn send(&mut self, slot: u32) -> u32 {
        let at = self.finals + self.ranges.len() as u32;
        self.close(slot, at);
        at
    }
}

/// One update of a row: `acc += coeff * vals[src]`. Packed to 12 bytes,
/// so a row is one stream.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Update {
    coeff: f64,
    src: u32,
}

/// A kernel's slot arithmetic, one row per finished slot, by level and
/// length (the module docs).
#[derive(Clone)]
struct Rows {
    /// Every row's updates, row after row.
    updates: Vec<Update>,
    /// Row `k` is `end[k - 1]..end[k]` (from 0 for row 0).
    end: Vec<u32>,
    /// Where row `k` starts and ends in the value array: its target's
    /// cell for a home row, its own final value's cell for a partial.
    dest: Vec<u32>,
}

impl Rows {
    /// Heap bytes the rows hold.
    fn bytes(&self) -> usize {
        self.updates.capacity() * std::mem::size_of::<Update>()
            + (self.end.capacity() + self.dest.capacity()) * std::mem::size_of::<u32>()
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
        for (&hi, &d) in self.end.iter().zip(&self.dest) {
            let (hi, d) = (hi as usize, d as usize);
            let acc = dot(initial(vals, d), &self.updates[lo..hi], vals);
            lo = hi;
            vals[d] = result(d, acc);
        }
    }
}

/// `acc + coeff * vals[src]` over `updates`, added left to right. Kept
/// apart from [`Rows::sweep`] so the accumulator stays in a register.
#[inline]
fn dot(mut acc: f64, updates: &[Update], vals: &[f64]) -> f64 {
    for &Update { coeff, src } in updates {
        acc += coeff * vals[src as usize];
    }
    acc
}

/// What a program's first replayable launch left behind: its config, its
/// rows and its statistics.
pub(crate) struct Replay {
    cfg: SimConfig,
    rows: Rows,
    stats: KernelStats,
}

impl std::fmt::Debug for Replay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("rows", &self.rows.end.len())
            .field("updates", &self.rows.updates.len())
            .field("cycles", &self.stats.cycles)
            .finish()
    }
}

impl Replay {
    /// Heap bytes of the rows.
    pub(crate) fn bytes(&self) -> usize {
        self.rows.bytes()
    }

    /// The recorded statistics.
    pub(crate) fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Runs the rows on `input`: the output vector the engine would
    /// produce for `program`.
    pub(crate) fn run(&self, program: &Program, input: &[f64]) -> Vec<f64> {
        let n = program.n;
        let rows = self.rows.end.len();
        match program.kind {
            // `[x | out | slot finals]`: every row starts at 0.
            ProgramKind::Spmv => {
                let mut vals = vec![0.0f64; 2 * n + rows];
                vals[..n].copy_from_slice(input);
                self.rows.sweep(&mut vals, |_, _| 0.0, |_, acc| acc);
                vals[n..2 * n].to_vec()
            }
            // `[x | slot finals]`, `x` holding `b` until each variable
            // solves: a home row starts at its own `b[target]`, and a
            // partial at its own final value's cell, still 0. Every
            // variable solves, so no `b` is left in the output.
            ProgramKind::Sptrsv => {
                let mut vals = vec![0.0f64; n + rows];
                vals[..n].copy_from_slice(input);
                let inv_diag = &program.inv_diag;
                let scale = |d: usize| {
                    let s = inv_diag[d.min(n - 1)];
                    if d < n {
                        s
                    } else {
                        1.0
                    }
                };
                self.rows
                    .sweep(&mut vals, |v, d| v[d], |d, acc| acc * scale(d));
                vals[..n].to_vec()
            }
        }
    }
}

#[cfg(test)]
impl Replay {
    /// Row `k`'s updates: their coefficients and sources.
    pub(crate) fn row(&self, k: usize) -> (Vec<f64>, Vec<u32>) {
        let lo = if k == 0 {
            0
        } else {
            self.rows.end[k - 1] as usize
        };
        let updates = &self.rows.updates[lo..self.rows.end[k] as usize];
        (
            updates.iter().map(|u| u.coeff).collect(),
            updates.iter().map(|u| u.src).collect(),
        )
    }

    /// How many rows there are.
    pub(crate) fn num_rows(&self) -> usize {
        self.rows.end.len()
    }

    /// A copy with updates `i` and `j` of row `k` trading places.
    pub(crate) fn with_swapped(&self, k: usize, i: usize, j: usize) -> Replay {
        let mut rows = self.rows.clone();
        let lo = if k == 0 { 0 } else { rows.end[k - 1] as usize };
        rows.updates.swap(lo + i, lo + j);
        Replay {
            cfg: self.cfg.clone(),
            rows,
            stats: self.stats.clone(),
        }
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
        Some(r) if r.cfg == *cfg => Plan::Replay(r),
        Some(_) => Plan::Engine,
        None => Plan::Record(Recorder::for_program(program)),
    }
}

/// Stores a recorded launch on `program`, unless another thread stored
/// one first. The stored config holds no cancel token, so the record
/// keeps no request's token alive.
pub(crate) fn keep(cfg: &SimConfig, program: &Program, rec: Recorder, stats: &KernelStats) {
    let _ = program.memo().set(Replay {
        cfg: SimConfig {
            cancel: None,
            ..cfg.clone()
        },
        rows: rec.into_rows(),
        stats: stats.clone(),
    });
}
