//! The compiled CSP kernel for the Proposition 3.1 search.
//!
//! [`crate::solvability`] decides wait-free solvability by searching for a
//! color-preserving simplicial map `δ : SDS^b(I) → O` with
//! `δ(s) ∈ Δ(carrier(s))` — a finite CSP. The *reference engine* (kept in
//! `solvability.rs`, selectable with [`Kernel::Reference`]) represents
//! domains as `Vec<VertexId>` and clones the whole domain vector at every
//! search node. This module compiles the same CSP into flat, cache-friendly
//! arrays and searches it without allocating on the hot path:
//!
//! - **Per-color candidate tables** (`OutputEncoder`): the output
//!   vertices of each color, sorted ascending, give every variable a
//!   fixed-width `u64` bitword domain whose bit order *is* the reference
//!   engine's sorted `VertexId` order.
//! - **Flat tuple arena + support lists** (`CompiledTable`): each
//!   allowed-tuple table is one `Vec<u32>` of bit indices with stride =
//!   arity, plus a CSR of per-`(pos, value)` support lists (tuple indices)
//!   and AC-3rm-style last-support residues, so a support check scans only
//!   the tuples that can match instead of the whole table, and domain
//!   membership is a single bit test instead of a linear probe.
//! - **Trail-based undo** (`SearchState`): `propagate`/`backtrack`
//!   mutate one domain state in place, recording overwritten words on a
//!   trail and rewinding to a mark on backtrack.
//! - **CSR adjacency**: the vertex → constraints map and the compilation
//!   itself stream over [`iis_topology::Complex::for_each_simplex`] instead
//!   of materializing the `BTreeSet<Simplex>` face poset.
//!
//! **Determinism.** The kernel preserves the reference engine's variable
//! order (lowest index among smallest domains > 1), value order (ascending
//! `VertexId`, which equals ascending bit index within a color universe),
//! propagation queue discipline (LIFO with an in-queue flag, revisions in
//! position order), and node-charging points (one charge per `backtrack`
//! entry and per split expansion). Residues are a pure cache: they change
//! which support is *found first*, never whether one exists. Verdicts,
//! witnesses, and the `solve.nodes`/`solve.subtrees` accounting are
//! therefore bit-identical to the reference engine at every thread count —
//! enforced by the differential suites in `crates/core/tests/`.

use crate::parallel::{run_pool, FirstWins, SharedBudget};
use crate::solvability::{Halt, SearchCtx, SearchStrategy, SolveOptions};
use iis_tasks::Task;
use iis_topology::{Color, Complex, Simplex, SimplicialMap, Subdivision, VertexId};
use std::collections::HashMap;
use std::sync::Arc;

/// Which CSP engine runs the Proposition 3.1 search.
///
/// Both engines explore the same tree in the same order and return
/// bit-identical verdicts, witnesses, and node accounting; they differ only
/// in speed. The CLI exposes this as `--kernel compiled|reference`.
///
/// # Examples
///
/// ```
/// use iis_core::solvability::{solve_at_opts, BoundedOutcome, Kernel, SolveOptions};
/// use iis_tasks::library::consensus;
///
/// let task = consensus(1, &[0, 1]);
/// for kernel in [Kernel::Compiled, Kernel::Reference] {
///     let out = solve_at_opts(&task, 1, &SolveOptions::new().kernel(kernel));
///     assert!(matches!(out, BoundedOutcome::Unsolvable)); // FLP, twice
/// }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Kernel {
    /// The flat bitset kernel in this module — the default.
    #[default]
    Compiled,
    /// The pointer-and-hash engine in `solvability.rs`, retained as the
    /// differential-testing oracle and escape hatch.
    Reference,
}

/// Parses an engine name, `compiled` or `reference`: the spelling of both
/// `iis solve --kernel` and a solve question's `"kernel"` field.
impl std::str::FromStr for Kernel {
    type Err = String;

    fn from_str(name: &str) -> Result<Kernel, String> {
        match name {
            "compiled" => Ok(Kernel::Compiled),
            "reference" => Ok(Kernel::Reference),
            other => Err(format!("unknown kernel \"{other}\" (compiled|reference)")),
        }
    }
}

/// Per-color output-candidate tables: for each color of the output complex,
/// its vertices in ascending `VertexId` order. A variable's domain is a
/// bitset over its color's universe, `words` `u64`s wide for every color.
pub(crate) struct OutputEncoder {
    /// Sorted distinct colors of the output complex's vertices.
    colors: Vec<Color>,
    /// Per dense color index: output vertices of that color, ascending.
    universes: Vec<Vec<VertexId>>,
    /// Per output vertex id: (dense color index, bit index).
    slot: Vec<(u32, u32)>,
    /// Uniform domain width: `ceil(max universe size / 64)`, at least 1.
    words: usize,
}

impl OutputEncoder {
    fn new(output: &Complex) -> Self {
        let mut colors: Vec<Color> = output.vertex_ids().map(|v| output.color(v)).collect();
        colors.sort_unstable();
        colors.dedup();
        let mut universes: Vec<Vec<VertexId>> = vec![Vec::new(); colors.len()];
        let mut slot = vec![(0u32, 0u32); output.num_vertices()];
        for v in output.vertex_ids() {
            let ci = colors
                .binary_search(&output.color(v))
                .expect("color collected above");
            slot[v.index()] = (ci as u32, universes[ci].len() as u32);
            universes[ci].push(v);
        }
        let max = universes.iter().map(Vec::len).max().unwrap_or(0);
        OutputEncoder {
            colors,
            universes,
            slot,
            words: max.div_ceil(64).max(1),
        }
    }

    /// The bit index of output vertex `w` within its color's universe.
    fn bit_of(&self, w: VertexId) -> u32 {
        self.slot[w.index()].1
    }

    /// Largest universe size across colors (the per-position value stride
    /// of every [`CompiledTable`]).
    fn val_stride(&self) -> usize {
        self.universes
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(1)
    }
}

/// One allowed-tuple table compiled to flat arrays, shared (via `Arc`)
/// between every constraint with the same `(carrier, colors)` key and
/// between both engines.
pub(crate) struct CompiledTable {
    /// The reference representation: sorted, deduplicated allowed tuples of
    /// output vertices, in variable order. The reference engine searches
    /// this directly.
    pub(crate) allowed: Vec<Vec<VertexId>>,
    /// The same tuples as per-color bit indices, stride = `arity`.
    tuples: Vec<u32>,
    /// Number of positions (= the constraint's simplex size).
    arity: usize,
    /// Per-position value range of the support CSR.
    val_stride: usize,
    /// CSR offsets over `(pos, value)` slots into `supports`.
    support_off: Vec<u32>,
    /// Tuple indices supporting each `(pos, value)`, ascending.
    supports: Vec<u32>,
}

impl CompiledTable {
    fn new(allowed: Vec<Vec<VertexId>>, arity: usize, enc: &OutputEncoder) -> Self {
        let val_stride = enc.val_stride();
        let mut tuples = Vec::with_capacity(allowed.len() * arity);
        for t in &allowed {
            for &w in t {
                tuples.push(enc.bit_of(w));
            }
        }
        let slots = arity * val_stride;
        let mut support_off = vec![0u32; slots + 1];
        for (ti, _) in allowed.iter().enumerate() {
            for pos in 0..arity {
                let val = tuples[ti * arity + pos] as usize;
                support_off[pos * val_stride + val + 1] += 1;
            }
        }
        for i in 0..slots {
            support_off[i + 1] += support_off[i];
        }
        let mut cursor = support_off.clone();
        let mut supports = vec![0u32; tuples.len()];
        for (ti, _) in allowed.iter().enumerate() {
            for pos in 0..arity {
                let s = pos * val_stride + tuples[ti * arity + pos] as usize;
                supports[cursor[s] as usize] = ti as u32;
                cursor[s] += 1;
            }
        }
        CompiledTable {
            allowed,
            tuples,
            arity,
            val_stride,
            support_off,
            supports,
        }
    }

    /// The tuple indices whose value at `pos` is `val`.
    fn supports_of(&self, pos: usize, val: u32) -> &[u32] {
        let s = pos * self.val_stride + val as usize;
        &self.supports[self.support_off[s] as usize..self.support_off[s + 1] as usize]
    }

    /// Number of residue slots this table needs per constraint.
    fn residue_slots(&self) -> usize {
        self.arity * self.val_stride
    }
}

/// Memoized compiled tables, keyed by `(carrier, colors)` — the only inputs
/// a table depends on. Carriers are simplices of the *base* complex and
/// tuples are vertices of the output complex, both fixed for the life of a
/// task, so a [`crate::solvability::Solver`] carries one cache across its
/// whole round sweep (`solve.constraint_cache_hits`).
///
/// The map is two-level (`carrier → colors → table`), so the hit path is
/// two borrowed lookups — no `(carrier.clone(), colors.to_vec())` composite
/// key, no allocation.
#[derive(Default)]
pub(crate) struct ConstraintCache {
    tables: HashMap<Simplex, HashMap<Box<[Color]>, Arc<CompiledTable>>>,
    encoder: Option<Arc<OutputEncoder>>,
}

impl ConstraintCache {
    /// The per-color candidate tables of `task`'s output complex, built
    /// once per cache.
    fn encoder(&mut self, task: &Task) -> &Arc<OutputEncoder> {
        self.encoder
            .get_or_insert_with(|| Arc::new(OutputEncoder::new(task.output())))
    }

    /// The compiled table for a simplex with the given carrier and colors.
    pub(crate) fn table(
        &mut self,
        task: &Task,
        carrier: &Simplex,
        colors: &[Color],
    ) -> Arc<CompiledTable> {
        if let Some(hit) = self.tables.get(carrier).and_then(|m| m.get(colors)) {
            iis_obs::metrics::add("solve.constraint_cache_hits", 1);
            iis_obs::progress::cache_lookup(true);
            return Arc::clone(hit);
        }
        iis_obs::progress::cache_lookup(false);
        let mut allowed: Vec<Vec<VertexId>> = Vec::new();
        for so in task.delta(carrier) {
            let mut tuple = Vec::with_capacity(colors.len());
            let mut ok = true;
            for &col in colors {
                match so.iter().find(|&w| task.output().color(w) == col) {
                    Some(w) => tuple.push(w),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                allowed.push(tuple);
            }
        }
        allowed.sort();
        allowed.dedup();
        let enc = Arc::clone(self.encoder(task));
        let table = Arc::new(CompiledTable::new(allowed, colors.len(), &enc));
        self.tables
            .entry(carrier.clone())
            .or_default()
            .insert(colors.into(), Arc::clone(&table));
        table
    }
}

/// The compiled CSP: flat constraint/variable arrays over bitword domains.
pub(crate) struct BitsetCsp {
    num_vars: usize,
    /// Domain width per variable, in `u64` words.
    words: usize,
    /// Flat constraint variable lists (CSR via `coff`).
    cvar: Vec<u32>,
    coff: Vec<u32>,
    tables: Vec<Arc<CompiledTable>>,
    /// CSR adjacency: for each variable, the constraints containing it.
    cont: Vec<u32>,
    cont_off: Vec<u32>,
    /// Per-constraint base index into the residue array.
    res_off: Vec<u32>,
    /// CSR: constraints indexed by their highest variable (plain engine).
    closing: Vec<u32>,
    closing_off: Vec<u32>,
    /// Per variable: dense color index into the encoder's universes.
    var_color: Vec<u32>,
    encoder: Arc<OutputEncoder>,
    nodes: iis_obs::metrics::Counter,
    backtracks: iis_obs::metrics::Counter,
    prunes: iis_obs::metrics::Counter,
    propagations: iis_obs::metrics::Counter,
}

/// One search worker's mutable state: the domain bitwords, the undo trail,
/// the residue cache, and reusable scratch buffers — everything the inner
/// loop touches, allocated once per (sub)search instead of per node.
pub(crate) struct SearchState {
    /// `num_vars * words` domain bitwords.
    dom: Vec<u64>,
    /// `(word index, overwritten value)` pairs; rewound to a mark on undo.
    trail: Vec<(u32, u64)>,
    /// Last supporting tuple index per `(constraint, pos, value)`, or
    /// `u32::MAX`. A cache in the AC-3rm style: never trailed, because a
    /// stale residue only costs a rescan, never a wrong answer.
    residues: Vec<u32>,
    /// Propagation queue scratch (LIFO, like the reference engine).
    queue: Vec<u32>,
    in_queue: Vec<bool>,
    /// Stack-disciplined candidate-value scratch for `backtrack`.
    cands: Vec<u32>,
}

impl SearchState {
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (idx, old) = self.trail.pop().expect("len checked");
            self.dom[idx as usize] = old;
        }
    }
}

impl BitsetCsp {
    /// A fresh search state over the given domain words.
    fn new_state(&self, dom: Vec<u64>) -> SearchState {
        debug_assert_eq!(dom.len(), self.num_vars * self.words);
        SearchState {
            dom,
            trail: Vec::new(),
            residues: vec![u32::MAX; *self.res_off.last().expect("nc+1 offsets") as usize],
            queue: Vec::new(),
            in_queue: vec![false; self.tables.len()],
            cands: Vec::new(),
        }
    }

    /// The variable indices of constraint `ci`.
    fn verts(&self, ci: usize) -> &[u32] {
        &self.cvar[self.coff[ci] as usize..self.coff[ci + 1] as usize]
    }

    /// The constraints containing variable `vi`.
    fn containing(&self, vi: usize) -> &[u32] {
        &self.cont[self.cont_off[vi] as usize..self.cont_off[vi + 1] as usize]
    }

    fn dom_len(&self, dom: &[u64], vi: usize) -> u32 {
        dom[vi * self.words..(vi + 1) * self.words]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    /// Appends the set bits of `vi`'s domain (ascending — i.e. ascending
    /// `VertexId` within the color universe) to `out`.
    fn push_values(&self, dom: &[u64], vi: usize, out: &mut Vec<u32>) {
        for wi in 0..self.words {
            let mut bits = dom[vi * self.words + wi];
            while bits != 0 {
                out.push((wi * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Restricts `vi`'s domain to the singleton `{val}`, recording the
    /// overwritten words on the trail.
    fn assign(&self, st: &mut SearchState, vi: usize, val: u32) {
        for wi in 0..self.words {
            let idx = vi * self.words + wi;
            let target = if wi == (val as usize) / 64 {
                1u64 << (val % 64)
            } else {
                0
            };
            if st.dom[idx] != target {
                st.trail.push((idx as u32, st.dom[idx]));
                st.dom[idx] = target;
            }
        }
    }

    /// `true` iff tuple `ti` of constraint `ci` lies inside the current
    /// domains at every position except `skip`.
    fn tuple_alive(&self, dom: &[u64], ci: usize, ti: u32, skip: usize) -> bool {
        let t = &self.tables[ci];
        let base = ti as usize * t.arity;
        let verts = self.verts(ci);
        for (j, &vj) in verts.iter().enumerate() {
            if j == skip {
                continue;
            }
            let val = t.tuples[base + j] as usize;
            if dom[vj as usize * self.words + val / 64] & (1u64 << (val % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// `true` iff some allowed tuple of constraint `ci` has `val` at `pos`
    /// and every other position inside its variable's current domain.
    /// Checks the cached residue first, then scans the `(pos, val)` support
    /// list — never the whole table.
    fn supported(
        &self,
        dom: &[u64],
        residues: &mut [u32],
        ci: usize,
        pos: usize,
        val: u32,
    ) -> bool {
        let t = &self.tables[ci];
        let slot = self.res_off[ci] as usize + pos * t.val_stride + val as usize;
        let r = residues[slot];
        if r != u32::MAX && self.tuple_alive(dom, ci, r, pos) {
            return true;
        }
        for &ti in t.supports_of(pos, val) {
            if self.tuple_alive(dom, ci, ti, pos) {
                residues[slot] = ti;
                return true;
            }
        }
        false
    }

    /// Generalized arc consistency to a fixpoint, in place, trail-recorded.
    /// Returns `false` on a domain wipeout. Mirrors the reference engine's
    /// queue discipline exactly (LIFO, in-queue dedup, revisions in
    /// position order), so it reaches the same fixpoint with the same
    /// counter increments.
    fn propagate(&self, st: &mut SearchState, seed: Option<usize>) -> bool {
        let nc = self.tables.len();
        st.queue.clear();
        st.in_queue.iter_mut().for_each(|b| *b = false);
        match seed {
            Some(v) => st.queue.extend_from_slice(self.containing(v)),
            None => st.queue.extend(0..nc as u32),
        }
        for &i in &st.queue {
            st.in_queue[i as usize] = true;
        }
        while let Some(ci) = st.queue.pop() {
            let ci = ci as usize;
            st.in_queue[ci] = false;
            self.propagations.incr();
            let arity = self.tables[ci].arity;
            for pos in 0..arity {
                let v = self.cvar[self.coff[ci] as usize + pos] as usize;
                let vbase = v * self.words;
                let mut before = 0u32;
                let mut after = 0u32;
                for wi in 0..self.words {
                    let old = st.dom[vbase + wi];
                    before += old.count_ones();
                    let mut kept = old;
                    let mut bits = old;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        let val = (wi * 64) as u32 + b;
                        if !self.supported(&st.dom, &mut st.residues, ci, pos, val) {
                            kept &= !(1u64 << b);
                        }
                    }
                    if kept != old {
                        st.trail.push(((vbase + wi) as u32, old));
                        st.dom[vbase + wi] = kept;
                    }
                    after += kept.count_ones();
                }
                if after == 0 {
                    self.prunes.add(before as u64);
                    return false;
                }
                if after < before {
                    self.prunes.add((before - after) as u64);
                    for &cj in self.containing(v) {
                        if !st.in_queue[cj as usize] {
                            st.in_queue[cj as usize] = true;
                            st.queue.push(cj);
                        }
                    }
                }
            }
        }
        true
    }

    /// Decodes a fully-singleton state into the assignment vector.
    fn extract(&self, st: &SearchState) -> Vec<VertexId> {
        let mut scratch = Vec::with_capacity(1);
        (0..self.num_vars)
            .map(|vi| {
                scratch.clear();
                self.push_values(&st.dom, vi, &mut scratch);
                debug_assert_eq!(scratch.len(), 1, "extract requires singleton domains");
                self.decode(vi, scratch[0])
            })
            .collect()
    }

    /// The output vertex for value `val` of variable `vi`.
    fn decode(&self, vi: usize, val: u32) -> VertexId {
        self.encoder.universes[self.var_color[vi] as usize][val as usize]
    }

    /// Complete backtracking with propagation (MAC), trail-undo instead of
    /// domain cloning. Same variable pick (lowest index among smallest
    /// domains > 1), same value order, same charging points as the
    /// reference engine.
    pub(crate) fn backtrack(
        &self,
        st: &mut SearchState,
        ctx: &SearchCtx<'_>,
    ) -> Result<Option<Vec<VertexId>>, Halt> {
        ctx.charge(&self.nodes)?;
        let mut pick = None;
        let mut best = u32::MAX;
        for vi in 0..self.num_vars {
            let len = self.dom_len(&st.dom, vi);
            if len > 1 && len < best {
                best = len;
                pick = Some(vi);
            }
        }
        let Some(vi) = pick else {
            // all singleton: done
            return Ok(Some(self.extract(st)));
        };
        let cbase = st.cands.len();
        {
            // split the borrow: push_values reads dom, writes cands
            let (dom, cands) = (&st.dom, &mut st.cands);
            self.push_values(dom, vi, cands);
        }
        let cnt = st.cands.len() - cbase;
        let mut result = Ok(None);
        for k in 0..cnt {
            let val = st.cands[cbase + k];
            let mark = st.trail.len();
            self.assign(st, vi, val);
            if self.propagate(st, Some(vi)) {
                match self.backtrack(st, ctx) {
                    Ok(None) => {}
                    other => {
                        result = other;
                        break;
                    }
                }
            }
            st.undo_to(mark);
        }
        st.cands.truncate(cbase);
        if matches!(result, Ok(None)) {
            self.backtracks.incr();
        }
        result
    }

    /// `true` iff every constraint whose highest variable is `k` accepts
    /// the assignment prefix `0..=k` (membership via the position-0 support
    /// list — equivalent to the reference engine's table scan).
    fn closing_ok(&self, assignment: &[u32], k: usize) -> bool {
        let cs = &self.closing[self.closing_off[k] as usize..self.closing_off[k + 1] as usize];
        'con: for &ci in cs {
            let ci = ci as usize;
            let t = &self.tables[ci];
            let verts = self.verts(ci);
            let first = assignment[verts[0] as usize];
            for &ti in t.supports_of(0, first) {
                let base = ti as usize * t.arity;
                if verts
                    .iter()
                    .enumerate()
                    .all(|(j, &vj)| t.tuples[base + j] == assignment[vj as usize])
                {
                    continue 'con;
                }
            }
            return false;
        }
        true
    }

    /// Chronological backtracking without propagation — the ablation
    /// baseline, on the bitword domains. Domains are read-only here, so no
    /// trail is needed.
    pub(crate) fn backtrack_plain(
        &self,
        dom: &[u64],
        ctx: &SearchCtx<'_>,
    ) -> Result<Option<Vec<VertexId>>, Halt> {
        fn rec(
            csp: &BitsetCsp,
            dom: &[u64],
            assignment: &mut [u32],
            k: usize,
            ctx: &SearchCtx<'_>,
        ) -> Result<bool, Halt> {
            ctx.charge(&csp.nodes)?;
            if k == csp.num_vars {
                return Ok(true);
            }
            for wi in 0..csp.words {
                let mut bits = dom[k * csp.words + wi];
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    assignment[k] = (wi * 64) as u32 + b;
                    if csp.closing_ok(assignment, k) && rec(csp, dom, assignment, k + 1, ctx)? {
                        return Ok(true);
                    }
                }
            }
            csp.backtracks.incr();
            Ok(false)
        }
        let mut assignment = vec![0u32; self.num_vars];
        match rec(self, dom, &mut assignment, 0, ctx)? {
            true => Ok(Some(
                assignment
                    .iter()
                    .enumerate()
                    .map(|(vi, &val)| self.decode(vi, val))
                    .collect(),
            )),
            false => Ok(None),
        }
    }

    /// Expands the root state breadth-first, in the sequential search's
    /// branching order, until at least `target` independent subtree states
    /// exist (or the tree stops branching) — the same shape as the
    /// reference engine's splitter, over domain-word snapshots. Subtree
    /// roots are plain word vectors: a worker wraps one in a fresh
    /// [`SearchState`] (empty trail) and searches in place.
    fn split(
        &self,
        root: Vec<u64>,
        target: usize,
        strategy: SearchStrategy,
        ctx: &SearchCtx<'_>,
    ) -> Result<Vec<Vec<u64>>, Halt> {
        let mut scratch = self.new_state(vec![0u64; self.num_vars * self.words]);
        let mut values: Vec<u32> = Vec::new();
        let mut frontier = vec![root];
        loop {
            if frontier.len() >= target {
                return Ok(frontier);
            }
            let mut next: Vec<Vec<u64>> = Vec::new();
            let mut expanded = false;
            for state in frontier {
                if expanded && next.len() + 1 >= target {
                    // enough subtrees; keep the rest unexpanded, in order
                    next.push(state);
                    continue;
                }
                match strategy {
                    SearchStrategy::Mac => {
                        let mut pick = None;
                        let mut best = u32::MAX;
                        for vi in 0..self.num_vars {
                            let len = self.dom_len(&state, vi);
                            if len > 1 && len < best {
                                best = len;
                                pick = Some(vi);
                            }
                        }
                        let Some(vi) = pick else {
                            next.push(state);
                            continue;
                        };
                        ctx.charge(&self.nodes)?;
                        expanded = true;
                        let before = next.len();
                        values.clear();
                        self.push_values(&state, vi, &mut values);
                        for &val in &values {
                            scratch.dom.copy_from_slice(&state);
                            scratch.trail.clear();
                            self.assign(&mut scratch, vi, val);
                            if self.propagate(&mut scratch, Some(vi)) {
                                next.push(scratch.dom.clone());
                            }
                        }
                        if next.len() == before {
                            self.backtracks.incr();
                        }
                    }
                    SearchStrategy::PlainBacktracking => {
                        let Some(vi) = (0..self.num_vars).find(|&vi| self.dom_len(&state, vi) > 1)
                        else {
                            next.push(state);
                            continue;
                        };
                        expanded = true;
                        values.clear();
                        self.push_values(&state, vi, &mut values);
                        for &val in &values {
                            let mut child = state.clone();
                            for wi in 0..self.words {
                                child[vi * self.words + wi] = if wi == (val as usize) / 64 {
                                    1u64 << (val % 64)
                                } else {
                                    0
                                };
                            }
                            next.push(child);
                        }
                    }
                }
            }
            if !expanded {
                return Ok(next);
            }
            frontier = next;
            if frontier.is_empty() {
                return Ok(frontier);
            }
        }
    }
}

/// Compiles the CSP for `sub` into the flat kernel representation, plus the
/// initial domain words from the unary constraints. `None` means a
/// constraint admits no tuple or a domain starts empty — provably
/// unsolvable, exactly as in the reference `compile_csp`.
fn compile(
    task: &Task,
    sub: &Subdivision,
    cache: &mut ConstraintCache,
) -> Option<(BitsetCsp, Vec<u64>)> {
    let c = sub.complex();
    let nv = c.num_vertices();
    let encoder = Arc::clone(cache.encoder(task));
    let words = encoder.words;
    let mut cvar: Vec<u32> = Vec::new();
    let mut coff: Vec<u32> = vec![0];
    let mut tables: Vec<Arc<CompiledTable>> = Vec::new();
    let mut empty_table = false;
    let mut colors: Vec<Color> = Vec::new();
    c.for_each_simplex(|s| {
        if empty_table {
            return;
        }
        colors.clear();
        colors.extend(s.iter().map(|v| c.color(v)));
        let carrier = sub.carrier_of_simplex(s);
        let table = cache.table(task, &carrier, &colors);
        if table.allowed.is_empty() {
            empty_table = true;
            return;
        }
        cvar.extend(s.iter().map(|v| v.0));
        coff.push(cvar.len() as u32);
        tables.push(table);
    });
    if empty_table {
        return None;
    }
    let nc = tables.len();
    // CSR adjacency, constraints in index order per vertex (as the
    // reference engine's push order)
    let mut cont_off = vec![0u32; nv + 1];
    for &v in &cvar {
        cont_off[v as usize + 1] += 1;
    }
    for i in 0..nv {
        cont_off[i + 1] += cont_off[i];
    }
    let mut cursor = cont_off.clone();
    let mut cont = vec![0u32; cvar.len()];
    for ci in 0..nc {
        for &v in &cvar[coff[ci] as usize..coff[ci + 1] as usize] {
            cont[cursor[v as usize] as usize] = ci as u32;
            cursor[v as usize] += 1;
        }
    }
    // initial domains from the unary (vertex) constraints
    let mut dom = vec![0u64; nv * words];
    for ci in 0..nc {
        if tables[ci].arity == 1 {
            let v = cvar[coff[ci] as usize] as usize;
            for t in &tables[ci].allowed {
                let bit = encoder.bit_of(t[0]) as usize;
                dom[v * words + bit / 64] |= 1u64 << (bit % 64);
            }
        }
    }
    if (0..nv).any(|vi| dom[vi * words..(vi + 1) * words].iter().all(|&w| w == 0)) {
        return None;
    }
    let var_color: Vec<u32> = (0..nv)
        .map(|vi| {
            let col = c.color(VertexId(vi as u32));
            encoder
                .colors
                .binary_search(&col)
                .expect("non-empty domain implies the color exists in the output")
                as u32
        })
        .collect();
    let mut res_off = vec![0u32; nc + 1];
    for ci in 0..nc {
        res_off[ci + 1] = res_off[ci] + tables[ci].residue_slots() as u32;
    }
    // constraints indexed by their highest variable (verts are sorted, so
    // the last entry is the max — same lists as the reference engine)
    let mut closing_off = vec![0u32; nv + 1];
    for ci in 0..nc {
        let hi = *cvar[coff[ci] as usize..coff[ci + 1] as usize]
            .last()
            .expect("non-empty constraint") as usize;
        closing_off[hi + 1] += 1;
    }
    for i in 0..nv {
        closing_off[i + 1] += closing_off[i];
    }
    let mut cursor = closing_off.clone();
    let mut closing = vec![0u32; nc];
    for ci in 0..nc {
        let hi = *cvar[coff[ci] as usize..coff[ci + 1] as usize]
            .last()
            .expect("non-empty constraint") as usize;
        closing[cursor[hi] as usize] = ci as u32;
        cursor[hi] += 1;
    }
    let csp = BitsetCsp {
        num_vars: nv,
        words,
        cvar,
        coff,
        tables,
        cont,
        cont_off,
        res_off,
        closing,
        closing_off,
        var_color,
        encoder,
        nodes: iis_obs::metrics::Counter::handle("solve.nodes"),
        backtracks: iis_obs::metrics::Counter::handle("solve.backtracks"),
        prunes: iis_obs::metrics::Counter::handle("solve.prunes"),
        propagations: iis_obs::metrics::Counter::handle("solve.propagations"),
    };
    Some((csp, dom))
}

/// The kernel's search entry: compile, propagate the root, then search —
/// sequentially or via the parallel splitter. The control flow mirrors the
/// reference engine's `search_map` line by line.
pub(crate) fn search_map(
    task: &Task,
    sub: &Subdivision,
    budget: &SharedBudget,
    deadline: Option<std::time::Instant>,
    opts: &SolveOptions,
    cache: &mut ConstraintCache,
    round: iis_obs::profile::SpanId,
) -> Result<Option<SimplicialMap>, Halt> {
    let compile_t0 = crate::solvability::profile_now();
    let compiled = compile(task, sub, cache);
    if let Some(t0) = compile_t0 {
        iis_obs::profile::sample_under(round, "compile", 2, 0, t0.elapsed().as_nanos() as u64);
    }
    let Some((csp, root)) = compiled else {
        return Ok(None);
    };
    let ctx = SearchCtx::new(budget, deadline, None);
    // mirrors the reference engine: one sampled `search` leaf under the
    // round, recorded even when the search halts mid-tree
    let sample_search = |ctx: &SearchCtx<'_>, t0: Option<std::time::Instant>| {
        if let Some(t0) = t0 {
            iis_obs::profile::sample_under(
                round,
                "search",
                2,
                ctx.spent(),
                t0.elapsed().as_nanos() as u64,
            );
        }
    };
    let assignment = match opts.strategy {
        SearchStrategy::Mac => {
            let mut st = csp.new_state(root);
            if !csp.propagate(&mut st, None) {
                return Ok(None);
            }
            if opts.jobs > 1 {
                search_parallel(&csp, st.dom, budget, deadline, opts, round)?
            } else {
                let t0 = crate::solvability::profile_now();
                let found = csp.backtrack(&mut st, &ctx);
                sample_search(&ctx, t0);
                found?
            }
        }
        SearchStrategy::PlainBacktracking => {
            if opts.jobs > 1 {
                search_parallel(&csp, root, budget, deadline, opts, round)?
            } else {
                let t0 = crate::solvability::profile_now();
                let found = csp.backtrack_plain(&root, &ctx);
                sample_search(&ctx, t0);
                found?
            }
        }
    };
    Ok(assignment.map(|a| {
        SimplicialMap::from_pairs(
            a.into_iter()
                .enumerate()
                .map(|(i, w)| (VertexId(i as u32), w)),
        )
    }))
}

/// Parallel search over kernel subtree snapshots: split in sequential
/// depth-first order, run on the work-stealing pool, lowest-indexed witness
/// wins (DESIGN.md §7 — unchanged by the kernel; only the subtree state
/// representation differs).
fn search_parallel(
    csp: &BitsetCsp,
    root: Vec<u64>,
    budget: &SharedBudget,
    deadline: Option<std::time::Instant>,
    opts: &SolveOptions,
    round: iis_obs::profile::SpanId,
) -> Result<Option<Vec<VertexId>>, Halt> {
    let splitter = SearchCtx::new(budget, deadline, None);
    let split_t0 = crate::solvability::profile_now();
    let subtrees = csp.split(root, opts.jobs * 4, opts.strategy, &splitter);
    if let Some(t0) = split_t0 {
        iis_obs::profile::sample_under(
            round,
            "split",
            2,
            splitter.spent(),
            t0.elapsed().as_nanos() as u64,
        );
    }
    let subtrees = subtrees?;
    iis_obs::metrics::add("solve.subtrees", subtrees.len() as u64);
    iis_obs::progress::set_subtrees(subtrees.len() as u64);
    let cell: FirstWins<Vec<VertexId>> = FirstWins::new();
    let verdicts = run_pool(subtrees, opts.jobs, |index, dom| {
        let ctx = SearchCtx::new(budget, deadline, Some((&cell, index)));
        let t0 = crate::solvability::profile_now();
        let found = match opts.strategy {
            SearchStrategy::Mac => {
                let mut st = csp.new_state(dom);
                csp.backtrack(&mut st, &ctx)
            }
            SearchStrategy::PlainBacktracking => csp.backtrack_plain(&dom, &ctx),
        };
        if let Some(t0) = t0 {
            let subtree = iis_obs::profile::register(round, &format!("subtree:{index}"));
            iis_obs::profile::sample_under(
                subtree,
                "search",
                3,
                ctx.spent(),
                t0.elapsed().as_nanos() as u64,
            );
        }
        iis_obs::progress::subtree_done();
        match found {
            Ok(Some(solution)) => {
                cell.offer(index, solution);
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(halt) => Err(halt),
        }
    });
    let cancelled = verdicts
        .iter()
        .filter(|v| **v == Err(Halt::Cancelled))
        .count();
    iis_obs::metrics::add("solve.cancelled", cancelled as u64);
    match cell.take() {
        Some((_, solution)) => Ok(Some(solution)),
        None if verdicts.contains(&Err(Halt::Timeout)) => Err(Halt::Timeout),
        None if verdicts.contains(&Err(Halt::Budget)) => Err(Halt::Budget),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iis_tasks::library::k_set_consensus;
    use iis_topology::sds_iterated;

    /// The support CSR must index exactly the tuples a linear scan finds.
    #[test]
    fn support_lists_match_linear_scan() {
        let task = k_set_consensus(2, 2);
        let sub = sds_iterated(task.input(), 1);
        let mut cache = ConstraintCache::default();
        let (csp, _) = compile(&task, &sub, &mut cache).expect("compiles");
        for t in &csp.tables {
            for pos in 0..t.arity {
                for val in 0..t.val_stride as u32 {
                    let listed: Vec<u32> = t.supports_of(pos, val).to_vec();
                    let scanned: Vec<u32> = (0..t.allowed.len() as u32)
                        .filter(|&ti| t.tuples[ti as usize * t.arity + pos] == val)
                        .collect();
                    assert_eq!(listed, scanned);
                }
            }
        }
    }

    /// Trail undo must restore the exact pre-assignment domain words.
    #[test]
    fn trail_undo_restores_domains() {
        let task = k_set_consensus(2, 2);
        let sub = sds_iterated(task.input(), 1);
        let mut cache = ConstraintCache::default();
        let (csp, root) = compile(&task, &sub, &mut cache).expect("compiles");
        let mut st = csp.new_state(root);
        assert!(csp.propagate(&mut st, None));
        let snapshot = st.dom.clone();
        // branch on the first undecided variable, then rewind
        let vi = (0..csp.num_vars)
            .find(|&vi| csp.dom_len(&st.dom, vi) > 1)
            .expect("(3,2)-set consensus at b=1 is not decided by propagation alone");
        let mut vals = Vec::new();
        csp.push_values(&st.dom, vi, &mut vals);
        for &val in &vals {
            let mark = st.trail.len();
            csp.assign(&mut st, vi, val);
            csp.propagate(&mut st, Some(vi));
            st.undo_to(mark);
            assert_eq!(st.dom, snapshot, "undo must restore the domain state");
        }
    }

    /// The bit order of a domain equals the reference engine's sorted
    /// `VertexId` value order.
    #[test]
    fn bit_order_is_vertex_id_order() {
        let task = k_set_consensus(2, 3);
        let enc = OutputEncoder::new(task.output());
        for universe in &enc.universes {
            let mut sorted = universe.clone();
            sorted.sort();
            assert_eq!(*universe, sorted);
        }
        for v in task.output().vertex_ids() {
            let (ci, bit) = enc.slot[v.index()];
            assert_eq!(enc.universes[ci as usize][bit as usize], v);
        }
    }
}
