//! The reusable seating engine: the collapsed CRF Gibbs moves over an
//! [`HdpState`].
//!
//! Every move is expressed *per group*, so the two drivers can share it:
//!
//! * [`crate::Hdp`] sweeps every group (full transductive sampling), and
//! * [`crate::BatchSession`] sweeps only its test group, leaving the frozen
//!   training seating untouched (warm-start serving).
//!
//! A batch-restricted sweep can still do everything the model allows —
//! batch items may join training dishes (that is the collective decision)
//! or nucleate brand-new ones — but it can never move a training item or
//! empty a training table, because those moves only ever touch the group
//! being swept. Dish sufficient statistics do change when batch items join
//! them; that is the transductive semantics, and it is confined to the
//! session's private clone of the state.
//!
//! Group observations are behind `Arc`s, so a move takes a cheap handle to
//! its group and can then mutate seating bookkeeping freely while reading
//! the point — no copying of observations in the inner loop.

// osr-lint: allow-file(unchecked-index, seating invariants link tables assignment and dish ids by construction; guarded fallbacks would hide real breaks that the divergence watchdog must surface)

use std::sync::Arc;

use rand::Rng;

use osr_stats::special::log_sum_exp;
use osr_stats::sampling;

use crate::concentration::{resample_alpha, resample_gamma};
use crate::state::{HdpConfig, HdpState, LnCounts, SeatScratch, Table};

/// Draw from `exp(lw)`, hardened against hostile inputs: when the log
/// normalizer is not finite (every weight underflowed to `-inf`, or a
/// predictive evaluated to `NaN`/`+inf`), poison the thread's divergence
/// flag — the serving watchdog will abort the sweep — and fall back to the
/// last candidate, which at every call site is the "open something new"
/// option and therefore keeps the seating bookkeeping structurally valid.
/// `weights` is the draw's normalization buffer.
fn seat_choice<R: Rng + ?Sized>(
    rng: &mut R,
    lw: &[f64],
    weights: &mut Vec<f64>,
    what: &str,
) -> usize {
    sampling::try_categorical_log(rng, lw, weights).unwrap_or_else(|| {
        osr_stats::divergence::poison(&format!("non-finite seating weights ({what})"));
        lw.len() - 1
    })
}

impl HdpState {
    /// Resample the table assignment `t_ji` of every item of group `j`
    /// (Eq. 7), in index order.
    pub(crate) fn seat_group_items<R: Rng + ?Sized>(&mut self, j: usize, rng: &mut R) {
        for i in 0..self.groups[j].len() {
            self.seat_item(j, i, rng);
        }
    }

    /// Predictive of `x` under every live dish into `sc.scores` — one fused
    /// pass over the dish bank in ascending id order, so the downstream
    /// categorical draw consumes the RNG exactly as a per-dish loop would.
    fn score_menu(&self, x: &[f64], sc: &mut SeatScratch) {
        let lanes = self.menu.slots.len() * self.bank.dim();
        if sc.solve.len() < lanes {
            sc.solve.resize(lanes, 0.0);
        }
        sc.scores.clear();
        self.bank.score_all(&self.menu.slots, x, &mut sc.solve[..lanes], &mut sc.scores);
    }

    /// Menu log-weights into `out`: `ln m_·k + scores[k]` per live dish, then
    /// the new-dish tail `ln γ + prior`. These are Eq. 8's candidates, and
    /// the mixture Eq. 7's new-table marginal sums over.
    fn menu_weights(&self, scores: &[f64], prior: f64, ln_n: &mut LnCounts, out: &mut Vec<f64>) {
        out.clear();
        for (&id, &lp) in self.menu.ids.iter().zip(scores) {
            out.push(ln_n.get(self.dish(id).n_tables) + lp);
        }
        out.push(self.gamma.ln() + prior);
    }

    /// Resample `t_ji` (Eq. 7): seat item `i` of group `j` at an existing
    /// table with probability ∝ `n_jt · f_k(x)` or at a new table with
    /// probability ∝ `α₀ · p(x)`, where `p(x)` marginalizes the new table's
    /// dish over the global menu. The base-measure term was scored when the
    /// group was added ([`HdpState::prior_scores`]), and all candidate
    /// buffers live in the state-owned scratch — the move allocates nothing.
    pub(crate) fn seat_item<R: Rng + ?Sized>(&mut self, j: usize, i: usize, rng: &mut R) {
        self.seat_moves += 1;
        self.unseat(j, i);
        // A second handle to the group keeps `x` readable while the seating
        // bookkeeping below takes `&mut self`.
        let group = Arc::clone(&self.groups[j]);
        let x: &[f64] = &group[i];
        let mut sc = std::mem::take(&mut self.scratch);
        self.score_menu(x, &mut sc);

        // New-table marginal: Σ_k m_k/(M+γ) f_k + γ/(M+γ) f_0.
        let total_tables = self.total_tables() as f64;
        self.menu_weights(&sc.scores, self.prior_scores[j][i], &mut sc.ln_n, &mut sc.menu_lw);
        let new_table_marginal = log_sum_exp(&sc.menu_lw) - (total_tables + self.gamma).ln();

        // Candidate log-weights: one per existing table, then the new table.
        sc.lw.clear();
        for table in &self.tables[j] {
            // A table pointing at a retired dish is a seating-invariant
            // break: poison the sweep and give the table zero probability
            // mass instead of panicking mid-batch.
            let pred = match self.menu.ids.binary_search(&table.dish) {
                Ok(k) => sc.scores[k],
                Err(_) => {
                    osr_stats::divergence::poison("seat_item: table serves a retired dish");
                    f64::NEG_INFINITY
                }
            };
            sc.lw.push(sc.ln_n.get(table.members.len()) + pred);
        }
        sc.lw.push(self.alpha.ln() + new_table_marginal);

        let choice = seat_choice(rng, &sc.lw, &mut sc.weights, "table assignment");
        if choice < self.tables[j].len() {
            // Existing table.
            let dish = self.tables[j][choice].dish;
            self.dish_add(dish, x);
            self.tables[j][choice].members.push(i);
            self.assignment[j][i] = choice;
        } else {
            // New table: draw its dish from the menu posterior (same
            // mixture that formed the marginal above).
            let menu_choice = seat_choice(rng, &sc.menu_lw, &mut sc.weights, "menu draw");
            let dish = match self.menu.ids.get(menu_choice) {
                Some(&id) => id,
                None => self.new_dish(),
            };
            self.dish_add(dish, x);
            self.dish_mut(dish).n_tables += 1;
            self.tables[j].push(Table { dish, members: vec![i] });
            self.assignment[j][i] = self.tables[j].len() - 1;
        }
        self.scratch = sc;
    }

    /// Remove item `i` of group `j` from its table (no-op when unseated),
    /// deleting the table if it empties and retiring orphaned dishes.
    pub(crate) fn unseat(&mut self, j: usize, i: usize) {
        let ti = self.assignment[j][i];
        if ti == usize::MAX {
            return;
        }
        self.assignment[j][i] = usize::MAX;
        let dish = self.tables[j][ti].dish;
        let group = Arc::clone(&self.groups[j]);
        self.dish_remove(dish, &group[i]);
        let table = &mut self.tables[j][ti];
        if let Some(pos) = table.members.iter().position(|&m| m == i) {
            table.members.swap_remove(pos);
        } else {
            // assignment[j][i] pointed at a table that does not list i: the
            // links are corrupt. Poison instead of panicking; the empty-table
            // cleanup below still runs on consistent data.
            osr_stats::divergence::poison("unseat: item missing from its assigned table");
        }
        if table.members.is_empty() {
            self.tables[j].swap_remove(ti);
            // The table that was last is now at ti: fix its members' links.
            if let Some(moved) = self.tables[j].get(ti) {
                for &m in &moved.members {
                    self.assignment[j][m] = ti;
                }
            }
            let d = self.dish_mut(dish);
            d.n_tables -= 1;
            self.retire_if_empty(dish);
        }
    }

    /// Resample `k_jt` for every table of group `j` (Eq. 8), in index order.
    pub(crate) fn resample_group_dishes<R: Rng + ?Sized>(&mut self, j: usize, rng: &mut R) {
        for ti in 0..self.tables[j].len() {
            self.resample_table_dish(j, ti, rng);
        }
    }

    /// Resample `k_jt` for one table (Eq. 8): an existing dish with
    /// probability ∝ `m_k · ∏ f_k(x_table)` or a new one with probability
    /// ∝ `γ · ∏ p(x_table)`.
    ///
    /// The block's sufficient statistics are computed **once** and shared by
    /// the rank-m detach/attach of the table and, for a table of two or more
    /// members, by every candidate dish and the base-measure term — each
    /// candidate then costs a single rank-m-updated Cholesky
    /// ([`osr_stats::DishBank::block_predictive_stats`]). A one-member
    /// table's block predictive *is* its point's Student-t predictive, so
    /// that table is scored with one O(K·d²) one-vs-all pass and the point's
    /// cached prior score instead of K + 1 O(d³) Choleskys.
    pub(crate) fn resample_table_dish<R: Rng + ?Sized>(
        &mut self,
        j: usize,
        ti: usize,
        rng: &mut R,
    ) {
        self.seat_moves += 1;
        let old_dish = self.tables[j][ti].dish;
        // Take the membership list instead of cloning it; it is reinstalled
        // (possibly under a new dish) below.
        let members = std::mem::take(&mut self.tables[j][ti].members);
        let group = Arc::clone(&self.groups[j]);
        let block_refs: Vec<&[f64]> = members.iter().map(|&m| group[m].as_slice()).collect();
        let mut sc = std::mem::take(&mut self.scratch);
        self.bank.compute_block_stats(&block_refs, &mut sc.stats);

        // Detach the block from its dish in one rank-m step.
        {
            let slot = self.dish(old_dish).slot;
            self.bank.detach_block(slot, &sc.stats, &block_refs);
            self.dish_mut(old_dish).n_tables -= 1;
        }
        self.retire_if_empty(old_dish);

        // Score every live dish plus a fresh one.
        let prior = if let [member] = members[..] {
            self.score_menu(&group[member], &mut sc);
            self.prior_scores[j][member]
        } else {
            sc.scores.clear();
            for &slot in &self.menu.slots {
                sc.scores.push(self.bank.block_predictive_stats(slot, &sc.stats));
            }
            self.bank.block_predictive_prior(&sc.stats)
        };
        self.menu_weights(&sc.scores, prior, &mut sc.ln_n, &mut sc.lw);

        let choice = seat_choice(rng, &sc.lw, &mut sc.weights, "dish reassignment");
        let new_dish = match self.menu.ids.get(choice) {
            Some(&id) => id,
            None => self.new_dish(),
        };
        {
            let slot = self.dish(new_dish).slot;
            self.bank.attach_block(slot, &sc.stats, &block_refs);
            self.dish_mut(new_dish).n_tables += 1;
        }
        self.tables[j][ti].dish = new_dish;
        self.tables[j][ti].members = members;
        self.scratch = sc;
    }

    /// Resample γ (Escobar–West) and α₀ (Teh et al. auxiliary variables)
    /// from the whole franchise's table/dish counts.
    pub(crate) fn resample_concentrations<R: Rng + ?Sized>(
        &mut self,
        config: &HdpConfig,
        rng: &mut R,
    ) {
        let total_tables = self.total_tables();
        let k = self.n_dishes();
        if total_tables == 0 || k == 0 {
            return;
        }
        self.gamma = resample_gamma(rng, self.gamma, k, total_tables, config.gamma_prior);
        let group_sizes: Vec<usize> = self.groups.iter().map(|g| g.len()).collect();
        self.alpha =
            resample_alpha(rng, self.alpha, total_tables, &group_sizes, config.alpha_prior);
    }
}
