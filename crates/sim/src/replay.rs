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
//! records a [`Tape`]: the slot arithmetic, in issue order, as four
//! operations — one at each place the PE does slot arithmetic:
//!
//! | op | engine site | replay |
//! |---|---|---|
//! | `Fmac` | a ScaleAndAccumCol entry | `slot += coeff * trigger value` |
//! | `Combine` | an arriving partial | `slot += final value of the source slot` |
//! | `FinalY` | an SpMV home slot completes | `out[target] = slot` |
//! | `Solve` | an SpTRSV home slot solves | `out[target] = slot * inv_diag[target]` |
//!
//! A trigger value is `input[j]` in SpMV and the solved `out[j]` in
//! SpTRSV; a partial carries the final value of the slot that sent it,
//! named by the flit's `src`. Slots are numbered across tiles: tile `t`'s
//! slot `s` is the slot count of the tiles before `t`, plus `s`.
//!
//! A later launch under an equal config skips the engine: it replays the
//! tape on its own input and returns the recorded
//! [`KernelStats`](crate::stats::KernelStats). The same operations run on
//! the same operands in the same order, so every output bit is the
//! engine's. The tape holds no timing: the engine stays the only place the
//! schedule is decided.
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
//! first replayable launch fixes its config (the whole [`SimConfig`]
//! but the cancel token, which a service arms per request); a launch
//! under any other config runs the engine and records nothing. The tape
//! is one stream of 64-bit words, reserved exactly from the slot table
//! so it never grows: one op per slot update and per output slot, and
//! each `Fmac` followed by its coefficient. The tick path is generic
//! over [`Record`], so a launch that does not record runs an engine with
//! no recording code in it.

use crate::config::SimConfig;
use crate::profile;
use crate::program::{Program, ProgramKind, SlotAction};
use crate::stats::KernelStats;

/// Opcode of a tape op, in the top two bits of its high half.
const FMAC: u32 = 0;
const COMBINE: u32 = 1;
const FINAL_Y: u32 = 2;
const SOLVE: u32 = 3;
/// The global slot, in the low bits of its high half.
const SLOT_BITS: u32 = 30;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// One recorded operation in a 64-bit word: the opcode and the global
/// slot in the high half, the operand in the low half (the trigger index
/// of an `Fmac`, the source slot of a `Combine`, the output element of
/// `FinalY` and `Solve`).
fn op(code: u32, slot: u32, arg: u32) -> u64 {
    debug_assert!(slot <= SLOT_MASK, "slot {slot} beyond the tape's range");
    u64::from(code << SLOT_BITS | slot) << 32 | u64::from(arg)
}

/// A kernel's slot arithmetic in issue order, one word per op, each
/// `Fmac` followed by the bits of its coefficient.
pub(crate) struct Tape {
    words: Vec<u64>,
    num_slots: usize,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape")
            .field("words", &self.words.len())
            .field("num_slots", &self.num_slots)
            .finish()
    }
}

impl Tape {
    /// Heap bytes the tape holds.
    fn bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Where the tick path sends slot arithmetic, in issue order. It is
/// passed down the tick path next to the output vector, and the engine
/// is compiled once per implementation: `()` records nothing, so a
/// launch that does not record runs the engine without recording code;
/// a [`Tape`] records.
pub(crate) trait Record {
    /// `slot += coeff * value of trigger`.
    fn fmac(&mut self, slot: u32, trigger: u32, coeff: f64);
    /// `slot += final value of src`.
    fn combine(&mut self, slot: u32, src: u32);
    /// `out[target] = slot`.
    fn final_y(&mut self, slot: u32, target: u32);
    /// `out[target] = slot * inv_diag[target]`.
    fn solve(&mut self, slot: u32, target: u32);
}

impl Record for () {
    #[inline(always)]
    fn fmac(&mut self, _: u32, _: u32, _: f64) {}
    #[inline(always)]
    fn combine(&mut self, _: u32, _: u32) {}
    #[inline(always)]
    fn final_y(&mut self, _: u32, _: u32) {}
    #[inline(always)]
    fn solve(&mut self, _: u32, _: u32) {}
}

impl Record for Tape {
    #[inline]
    fn fmac(&mut self, slot: u32, trigger: u32, coeff: f64) {
        self.words
            .extend_from_slice(&[op(FMAC, slot, trigger), coeff.to_bits()]);
    }
    #[inline]
    fn combine(&mut self, slot: u32, src: u32) {
        self.words.push(op(COMBINE, slot, src));
    }
    #[inline]
    fn final_y(&mut self, slot: u32, target: u32) {
        self.words.push(op(FINAL_Y, slot, target));
    }
    #[inline]
    fn solve(&mut self, slot: u32, target: u32) {
        self.words.push(op(SOLVE, slot, target));
    }
}

impl Tape {
    /// An empty tape for one launch of `program`, reserved exactly: one
    /// word per slot update (`remaining`) and per output slot, and one
    /// per entry for its coefficient. `None` when the slots outgrow an
    /// op's range.
    fn for_program(program: &Program) -> Option<Tape> {
        let (mut slots, mut words) = (0usize, 0usize);
        for tp in &program.tiles {
            slots += tp.slots.len();
            words += tp.entries.len();
            for s in &tp.slots {
                words += s.remaining as usize;
                if !matches!(s.action, SlotAction::SendPartial { .. }) {
                    words += 1;
                }
            }
        }
        (slots <= SLOT_MASK as usize).then(|| Tape {
            words: Vec::with_capacity(words),
            num_slots: slots,
        })
    }
}

/// What a program's first replayable launch left behind: its config, its
/// tape and its statistics.
pub(crate) struct Replay {
    cfg: SimConfig,
    tape: Tape,
    stats: KernelStats,
}

impl std::fmt::Debug for Replay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("tape", &self.tape)
            .field("cycles", &self.stats.cycles)
            .finish()
    }
}

impl Replay {
    /// Heap bytes of the tape.
    pub(crate) fn bytes(&self) -> usize {
        self.tape.bytes()
    }

    /// The recorded statistics.
    pub(crate) fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Runs the tape on `input`: the output vector the engine would
    /// produce for `program`.
    pub(crate) fn run(&self, program: &Program, input: &[f64]) -> Vec<f64> {
        let mut slots = Vec::with_capacity(self.tape.num_slots);
        for tp in &program.tiles {
            slots.extend(tp.slots.iter().map(|s| s.initial(input)));
        }
        let mut out = vec![0.0f64; program.n];
        let spmv = program.kind == ProgramKind::Spmv;
        let mut words = self.tape.words.iter();
        while let Some(&w) = words.next() {
            let head = (w >> 32) as u32;
            let s = (head & SLOT_MASK) as usize;
            let a = w as u32 as usize;
            match head >> SLOT_BITS {
                FMAC => {
                    let coeff = words.next().map_or(0.0, |&c| f64::from_bits(c));
                    let v = if spmv { input[a] } else { out[a] };
                    slots[s] += coeff * v;
                }
                COMBINE => slots[s] += slots[a],
                FINAL_Y => out[a] = slots[s],
                _ => out[a] = slots[s] * program.inv_diag[a],
            }
        }
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
    /// Nothing recorded yet: run the engine into this tape, then
    /// [`keep`] it.
    Record(Tape),
    /// The program recorded under another config, or its slots do not
    /// fit a tape: run the engine.
    Engine,
}

/// Picks the [`Plan`] for a replayable launch.
pub(crate) fn plan<'a>(cfg: &SimConfig, program: &'a Program) -> Plan<'a> {
    match program.memo().get() {
        Some(r) if r.cfg == without_token(cfg) => Plan::Replay(r),
        Some(_) => Plan::Engine,
        None => Tape::for_program(program).map_or(Plan::Engine, Plan::Record),
    }
}

/// `cfg` without its cancel token. Config equality ignores the token
/// only when both sides hold one, and a service arms one per request, so
/// the record is keyed and compared without it.
fn without_token(cfg: &SimConfig) -> SimConfig {
    SimConfig {
        cancel: None,
        ..cfg.clone()
    }
}

/// Stores a recorded launch on `program`, unless another thread stored
/// one first.
pub(crate) fn keep(cfg: &SimConfig, program: &Program, tape: Tape, stats: &KernelStats) {
    let _ = program.memo().set(Replay {
        cfg: without_token(cfg),
        tape,
        stats: stats.clone(),
    });
}
