//! A dense two-phase primal simplex solver.
//!
//! This is the "optimization solver" behind the paper's optimal
//! throughput line in Figure 4. It is deliberately simple and
//! self-contained: dense tableau, two phases (artificial variables for
//! feasibility, then the real objective), and Bland's anti-cycling rule
//! throughout, which guarantees termination on degenerate instances —
//! multicommodity flow LPs are full of degeneracy.
//!
//! Problem form: maximize `c·x` subject to linear constraints
//! (`≤`, `≥`, `=`) and `x ≥ 0`. The instances produced by
//! [`crate::arcflow`] fit this form directly.

use std::fmt;

/// Relation of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x ≥ rhs`
    Ge,
    /// `coeffs · x = rhs`
    Eq,
}

/// One linear constraint with sparse coefficients.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; unmentioned variables have
    /// coefficient zero.
    pub coeffs: Vec<(usize, f64)>,
    /// The relation between the linear form and `rhs`.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: maximize `objective · x` subject to
/// [`Constraint`]s and `x ≥ 0`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinearProgram {
    /// Objective coefficients (length = number of variables).
    pub objective: Vec<f64>,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Starts a maximization program over `vars` variables with zero
    /// objective.
    #[must_use]
    pub fn new(vars: usize) -> Self {
        LinearProgram {
            objective: vec![0.0; vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    #[must_use]
    pub(crate) fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Sets one objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        self.objective[var] = coeff;
    }

    /// Adds `coeffs · x ≤ rhs`.
    pub fn less_equal(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.push(coeffs, Relation::Le, rhs);
    }

    /// Adds `coeffs · x ≥ rhs`.
    #[cfg(test)]
    pub(crate) fn greater_equal(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.push(coeffs, Relation::Ge, rhs);
    }

    /// Adds `coeffs · x = rhs`.
    pub fn equal(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.push(coeffs, Relation::Eq, rhs);
    }

    fn push(&mut self, coeffs: Vec<(usize, f64)>, relation: Relation, rhs: f64) {
        for &(v, c) in &coeffs {
            assert!(
                v < self.num_vars(),
                "constraint references variable {v} of {}",
                self.num_vars()
            );
            assert!(c.is_finite(), "non-finite coefficient {c}");
        }
        assert!(rhs.is_finite(), "non-finite rhs {rhs}");
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
    }

    /// Evaluates the objective at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    #[must_use]
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Largest constraint violation at a point (0.0 when feasible,
    /// ignoring `x ≥ 0` which callers check separately).
    #[must_use]
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        self.constraints
            .iter()
            .map(|c| {
                let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * x[v]).sum();
                match c.relation {
                    Relation::Le => (lhs - c.rhs).max(0.0),
                    Relation::Ge => (c.rhs - lhs).max(0.0),
                    Relation::Eq => (lhs - c.rhs).abs(),
                }
            })
            .fold(0.0, f64::max)
    }
}

/// Why the program has no optimal solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpFailure {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

impl fmt::Display for LpFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpFailure::Infeasible => write!(f, "linear program is infeasible"),
            LpFailure::Unbounded => write!(f, "linear program is unbounded"),
        }
    }
}

impl std::error::Error for LpFailure {}

/// An optimal solution with dual certificates.
#[derive(Clone, Debug, PartialEq)]
pub struct LpSolution {
    /// The optimal objective value.
    pub objective: f64,
    /// The optimal point (length = number of variables).
    pub x: Vec<f64>,
    /// Dual values (shadow prices), one per constraint in input order
    /// and orientation: `duals[i]` is the rate of change of the optimal
    /// objective per unit increase of constraint `i`'s right-hand side.
    /// Non-negative for binding `≤` rows, non-positive for `≥` rows,
    /// free for equalities.
    pub duals: Vec<f64>,
}

const TOL: f64 = 1e-9;

/// Solves the program with two-phase primal simplex.
///
/// # Errors
///
/// [`LpFailure::Infeasible`] if no point satisfies the constraints,
/// [`LpFailure::Unbounded`] if the maximum is `+∞`.
pub fn solve(lp: &LinearProgram) -> Result<LpSolution, LpFailure> {
    let n = lp.num_vars();
    let m = lp.constraints.len();

    // Count extra columns: one slack/surplus per inequality, one
    // artificial per Ge/Eq row (and per Le row with... none needed).
    let mut num_slack = 0;
    let mut num_art = 0;
    // Normalize rows to rhs >= 0 first (flips relations).
    type Row = (Vec<(usize, f64)>, Relation, f64);
    let rows: Vec<Row> = lp
        .constraints
        .iter()
        .map(|c| {
            if c.rhs < 0.0 {
                let coeffs = c.coeffs.iter().map(|&(v, a)| (v, -a)).collect();
                let relation = match c.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                (coeffs, relation, -c.rhs)
            } else {
                (c.coeffs.clone(), c.relation, c.rhs)
            }
        })
        .collect();
    for (_, rel, _) in &rows {
        match rel {
            Relation::Le => num_slack += 1,
            Relation::Ge => {
                num_slack += 1;
                num_art += 1;
            }
            Relation::Eq => num_art += 1,
        }
    }
    let cols = n + num_slack + num_art;

    // Build tableau rows and the initial basis.
    let mut t = vec![vec![0.0; cols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut slack_cursor = n;
    let mut art_cursor = n + num_slack;
    let mut art_columns = Vec::with_capacity(num_art);
    for (i, (coeffs, rel, rhs)) in rows.iter().enumerate() {
        for &(v, a) in coeffs {
            t[i][v] += a;
        }
        t[i][cols] = *rhs;
        match rel {
            Relation::Le => {
                t[i][slack_cursor] = 1.0;
                basis[i] = slack_cursor;
                slack_cursor += 1;
            }
            Relation::Ge => {
                t[i][slack_cursor] = -1.0;
                slack_cursor += 1;
                t[i][art_cursor] = 1.0;
                basis[i] = art_cursor;
                art_columns.push(art_cursor);
                art_cursor += 1;
            }
            Relation::Eq => {
                t[i][art_cursor] = 1.0;
                basis[i] = art_cursor;
                art_columns.push(art_cursor);
                art_cursor += 1;
            }
        }
    }

    // Phase 1: maximize -(sum of artificials); artificials may enter.
    if num_art > 0 {
        let mut phase1_c = vec![0.0; cols];
        for &a in &art_columns {
            phase1_c[a] = -1.0;
        }
        let (value, _) = run_simplex(&mut t, &mut basis, &phase1_c, cols, cols)?;
        if value < -1e-7 {
            return Err(LpFailure::Infeasible);
        }
        // Drive remaining artificials out of the basis.
        for i in 0..m {
            if basis[i] >= n + num_slack {
                // find a non-artificial pivot column in this row
                if let Some(jc) = (0..n + num_slack).find(|&jc| t[i][jc].abs() > TOL) {
                    pivot(&mut t, &mut basis, i, jc, cols);
                }
                // else: redundant row. Its artificial stays basic at 0;
                // the row is all-zero on non-artificial columns, so no
                // phase-2 pivot can ever raise it above 0.
            }
        }
    }

    // Phase 2: the original objective. Artificial columns are kept (the
    // reduced-cost row at their unit columns is exactly the dual vector)
    // but barred from entering via `enter_limit`.
    let mut phase2_c = vec![0.0; cols];
    phase2_c[..n].copy_from_slice(&lp.objective);
    let (objective, z) = run_simplex(&mut t, &mut basis, &phase2_c, cols, n + num_slack)?;

    let mut x = vec![0.0; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][cols];
        }
    }

    // Duals: for a normalized row, the reduced cost at its own unit
    // column (+e_i for slacks and artificials, −e_i for surpluses) is
    // ±y_i; rows flipped during normalization flip the sign back.
    let mut duals = vec![0.0; m];
    let mut slack_cursor = n;
    let mut art_cursor = n + num_slack;
    for (i, (_, rel, _)) in rows.iter().enumerate() {
        let (col, sign) = match rel {
            Relation::Le => {
                let c = slack_cursor;
                slack_cursor += 1;
                (c, 1.0)
            }
            Relation::Ge => {
                slack_cursor += 1; // surplus
                let c = art_cursor;
                art_cursor += 1;
                (c, 1.0)
            }
            Relation::Eq => {
                let c = art_cursor;
                art_cursor += 1;
                (c, 1.0)
            }
        };
        let flipped = lp.constraints[i].rhs < 0.0;
        duals[i] = if flipped {
            -sign * z[col]
        } else {
            sign * z[col]
        };
    }
    Ok(LpSolution {
        objective,
        x,
        duals,
    })
}

/// Runs primal simplex (maximization) on a tableau already in basic
/// feasible form. Columns `>= enter_limit` may never enter the basis
/// (used to bar artificials in phase 2 while keeping their reduced
/// costs — which are the duals — intact). Returns the optimal objective
/// value and the final reduced-cost row.
fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    c: &[f64],
    cols: usize,
    enter_limit: usize,
) -> Result<(f64, Vec<f64>), LpFailure> {
    let m = t.len();
    // Reduced-cost row: z_j - c_j = c_B · B^{-1} A_j - c_j. Maintain it
    // incrementally by pivoting; initialize by pricing out the basis.
    let mut z = vec![0.0; cols + 1];
    for (zj, cj) in z.iter_mut().zip(c) {
        *zj = -cj;
    }
    for i in 0..m {
        let cb = c[basis[i]];
        if cb != 0.0 {
            for j in 0..=cols {
                z[j] += cb * t[i][j];
            }
        }
    }
    loop {
        // Bland: smallest-index entering column with negative reduced cost.
        let Some(enter) = z[..enter_limit].iter().position(|&zj| zj < -TOL) else {
            let objective = z[cols];
            return Ok((objective, z));
        };
        // Ratio test; Bland tie-break on smallest basis variable.
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for (i, row) in t.iter().enumerate() {
            if row[enter] > TOL {
                let ratio = row[cols] / row[enter];
                let better = ratio < best - TOL
                    || (ratio < best + TOL && leave.is_some_and(|l| basis[i] < basis[l]));
                if better {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return Err(LpFailure::Unbounded);
        };
        pivot_with_z(t, basis, &mut z, leave, enter, cols);
    }
}

fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, cols: usize) {
    let piv = t[row][col];
    debug_assert!(piv.abs() > TOL);
    for cell in &mut t[row][..=cols] {
        *cell /= piv;
    }
    let (before, rest) = t.split_at_mut(row);
    let (pivot_row, after) = rest.split_first_mut().expect("row in range");
    for other in before.iter_mut().chain(after.iter_mut()) {
        let factor = other[col];
        if factor != 0.0 {
            for (o, p) in other[..=cols].iter_mut().zip(&pivot_row[..=cols]) {
                *o -= factor * p;
            }
        }
    }
    basis[row] = col;
}

fn pivot_with_z(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    z: &mut [f64],
    row: usize,
    col: usize,
    cols: usize,
) {
    pivot(t, basis, row, col, cols);
    let factor = z[col];
    if factor != 0.0 {
        for j in 0..=cols {
            z[j] -= factor * t[row][j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// The dual objective `Σ_i duals[i]·rhs_i`. Strong duality makes
    /// this equal the primal objective at an optimum.
    fn dual_objective(s: &LpSolution, lp: &LinearProgram) -> f64 {
        s.duals
            .iter()
            .zip(&lp.constraints)
            .map(|(y, c)| y * c.rhs)
            .sum()
    }

    /// Largest complementary-slackness violation:
    /// `|dual_i · slack_i|` over all constraints. Near zero at a true
    /// optimum (a binding constraint may have any dual; a slack
    /// constraint must have dual ≈ 0).
    fn max_complementarity_violation(s: &LpSolution, lp: &LinearProgram) -> f64 {
        s.duals
            .iter()
            .zip(&lp.constraints)
            .map(|(y, c)| {
                let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * s.x[v]).sum();
                (y * (c.rhs - lhs)).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  → 36 at (2, 6)
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 5.0);
        lp.less_equal(vec![(0, 1.0)], 4.0);
        lp.less_equal(vec![(1, 2.0)], 12.0);
        lp.less_equal(vec![(0, 3.0), (1, 2.0)], 18.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
        assert!(lp.max_violation(&s.x) < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 3, x ≤ 2 → 3
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.equal(vec![(0, 1.0), (1, 1.0)], 3.0);
        lp.less_equal(vec![(0, 1.0)], 2.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 3.0);
        assert_close(s.x[0] + s.x[1], 3.0);
    }

    #[test]
    fn ge_constraints_and_negative_rhs() {
        // max -x s.t. x ≥ 2 → -2; also written as -x ≤ -2
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, -1.0);
        lp.greater_equal(vec![(0, 1.0)], 2.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, -2.0);

        let mut lp2 = LinearProgram::new(1);
        lp2.set_objective(0, -1.0);
        lp2.less_equal(vec![(0, -1.0)], -2.0);
        let s2 = solve(&lp2).unwrap();
        assert_close(s2.objective, -2.0);
    }

    #[test]
    fn detects_infeasible() {
        // x ≤ 1 and x ≥ 2
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.less_equal(vec![(0, 1.0)], 1.0);
        lp.greater_equal(vec![(0, 1.0)], 2.0);
        assert_eq!(solve(&lp), Err(LpFailure::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.greater_equal(vec![(0, 1.0)], 1.0);
        assert_eq!(solve(&lp), Err(LpFailure::Unbounded));
    }

    #[test]
    fn degenerate_instance_terminates() {
        // classic degenerate vertex: several constraints through origin
        let mut lp = LinearProgram::new(3);
        lp.set_objective(0, 0.75);
        lp.set_objective(1, -150.0);
        lp.set_objective(2, 0.02);
        lp.less_equal(vec![(0, 0.25), (1, -60.0), (2, -0.04)], 0.0);
        lp.less_equal(vec![(0, 0.5), (1, -90.0), (2, -0.02)], 0.0);
        lp.less_equal(vec![(2, 1.0)], 1.0);
        let s = solve(&lp).unwrap();
        assert!(s.objective.is_finite());
        assert!(lp.max_violation(&s.x) < 1e-7);
    }

    #[test]
    fn zero_variable_program() {
        let lp = LinearProgram::new(0);
        let s = solve(&lp).unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(s.x.is_empty());
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 twice (redundant row keeps an artificial basic at 0)
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.equal(vec![(0, 1.0), (1, 1.0)], 2.0);
        lp.equal(vec![(0, 1.0), (1, 1.0)], 2.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn simple_flow_lp() {
        // two parallel paths, capacities 3 and 5, maximize throughput ≤ 7
        // vars: x0 (path A), x1 (path B), a (admitted)
        let mut lp = LinearProgram::new(3);
        lp.set_objective(2, 1.0);
        lp.equal(vec![(0, 1.0), (1, 1.0), (2, -1.0)], 0.0);
        lp.less_equal(vec![(0, 1.0)], 3.0);
        lp.less_equal(vec![(1, 1.0)], 5.0);
        lp.less_equal(vec![(2, 1.0)], 7.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 7.0);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 5.0);
        lp.less_equal(vec![(0, 1.0)], 4.0);
        lp.less_equal(vec![(1, 2.0)], 12.0);
        lp.less_equal(vec![(0, 3.0), (1, 2.0)], 18.0);
        let s = solve(&lp).unwrap();
        // known duals: y = (0, 3/2, 1)
        assert_close(s.duals[0], 0.0);
        assert_close(s.duals[1], 1.5);
        assert_close(s.duals[2], 1.0);
        assert_close(dual_objective(&s, &lp), s.objective);
        assert!(max_complementarity_violation(&s, &lp) < 1e-9);
        // dual feasibility for max/≤: y ≥ 0
        assert!(s.duals.iter().all(|&y| y >= -1e-9));
    }

    #[test]
    fn duals_for_equality_and_ge_rows() {
        // max x s.t. x + y = 3, x ≥ 1, y ≤ 5 → x = 3 (y = 0)? y ≥ 0 and
        // x can grow to 3 with y = 0. Duals: equality price 1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.equal(vec![(0, 1.0), (1, 1.0)], 3.0);
        lp.greater_equal(vec![(0, 1.0)], 1.0);
        lp.less_equal(vec![(1, 1.0)], 5.0);
        let s = solve(&lp).unwrap();
        assert_close(s.objective, 3.0);
        assert_close(dual_objective(&s, &lp), s.objective);
        assert!(max_complementarity_violation(&s, &lp) < 1e-9);
        // the non-binding x ≥ 1 must have zero price
        assert_close(s.duals[1], 0.0);
        // raising the equality rhs by 1 raises the optimum by 1
        assert_close(s.duals[0], 1.0);
    }

    #[test]
    fn dual_predicts_sensitivity() {
        // perturb a binding rhs and compare with the shadow price
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 5.0);
        lp.less_equal(vec![(0, 1.0)], 4.0);
        lp.less_equal(vec![(1, 2.0)], 12.0);
        lp.less_equal(vec![(0, 3.0), (1, 2.0)], 18.0);
        let base = solve(&lp).unwrap();
        let eps = 1e-3;
        for row in 0..3 {
            let mut bumped = lp.clone();
            bumped.constraints[row].rhs += eps;
            let s2 = solve(&bumped).unwrap();
            let predicted = base.objective + base.duals[row] * eps;
            assert!(
                (s2.objective - predicted).abs() < 1e-6,
                "row {row}: measured {} vs predicted {predicted}",
                s2.objective
            );
        }
    }

    #[test]
    fn objective_value_helper() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 2.0);
        lp.set_objective(1, -1.0);
        assert_close(lp.objective_value(&[3.0, 4.0]), 2.0);
    }

    #[test]
    fn violation_helper_detects_all_relations() {
        let mut lp = LinearProgram::new(1);
        lp.less_equal(vec![(0, 1.0)], 1.0);
        lp.greater_equal(vec![(0, 1.0)], 0.5);
        lp.equal(vec![(0, 2.0)], 1.6);
        assert!(lp.max_violation(&[0.8]) < 1e-12);
        assert_close(lp.max_violation(&[2.0]), 2.4); // eq violated by 2.4
        assert_close(lp.max_violation(&[0.0]), 1.6);
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn out_of_range_variable_panics() {
        let mut lp = LinearProgram::new(1);
        lp.less_equal(vec![(3, 1.0)], 1.0);
    }

    #[test]
    fn random_lps_satisfy_feasibility_and_local_optimality() {
        // fuzz small random LPs with a guaranteed-feasible region
        // (all-≤ with nonnegative rhs always admits x = 0)
        let mut state = 0xdead_beef_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..40 {
            let n = 2 + (next() * 4.0) as usize;
            let m = 2 + (next() * 5.0) as usize;
            let mut lp = LinearProgram::new(n);
            for v in 0..n {
                lp.set_objective(v, next() * 2.0 - 0.5);
            }
            for _ in 0..m {
                let coeffs: Vec<(usize, f64)> = (0..n).map(|v| (v, next() * 2.0)).collect();
                lp.less_equal(coeffs, next() * 10.0 + 0.1);
            }
            match solve(&lp) {
                Ok(s) => {
                    assert!(lp.max_violation(&s.x) < 1e-6);
                    assert!(s.x.iter().all(|&v| v >= -1e-9));
                    assert!((lp.objective_value(&s.x) - s.objective).abs() < 1e-6);
                }
                Err(LpFailure::Unbounded) => {
                    // possible when some objective coeff is positive and a
                    // variable has (near-)zero coefficients everywhere
                }
                Err(LpFailure::Infeasible) => panic!("x=0 is feasible, cannot be infeasible"),
            }
        }
    }
}
