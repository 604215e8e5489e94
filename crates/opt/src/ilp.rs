//! Program (3) as an explicit integer linear program.
//!
//! The paper formulates MUTP over the time-extended network: for every
//! flow `f`, a pre-computed set `P(f)` of loop-free paths (each path
//! corresponds to one choice of update times, i.e. one cohort-routing
//! through `G_T`); binary variables `x_{f,p}` select exactly one path
//! per flow (3b, 3c); and for every time-extended link the selected
//! paths' combined load must respect its capacity (3a). The objective
//! minimizes `|T|`, the number of time steps used.
//!
//! This module materializes that program ([`build_mutp_ilp`]) and
//! solves it with a small exact branch-and-bound over the binary
//! variables ([`solve_binary`]) — the same method the paper reports
//! using. [`ilp_optimal`] wraps everything into an OPT solver that
//! agrees with [`crate::optimal_schedule`] (asserted in tests).
// The LP tableau is dense and indexed by row/column ids the builder
// minted; `expect` unwraps basis invariants the pivot maintains.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::enumerate::enumerate_consistent_schedules;
use chronus_core::ScheduleError;
use chronus_net::{TimeStep, UpdateInstance};
use chronus_timenet::{FluidSimulator, Schedule, SimulatorConfig};
use std::time::{Duration, Instant};

/// Constraint comparison operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `Σ coeff·x ≤ rhs`
    Le,
    /// `Σ coeff·x = rhs`
    Eq,
}

/// One linear constraint over binary variables.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; coefficients are
    /// non-negative in every constraint this crate generates.
    pub terms: Vec<(usize, i64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: i64,
    /// Human-readable tag (e.g. the time-extended link it guards).
    pub label: String,
}

/// A 0/1 integer linear program.
#[derive(Clone, Debug, Default)]
pub struct IlpModel {
    /// Variable names, e.g. `x_f0_p3`.
    pub variables: Vec<String>,
    /// Objective coefficients, parallel to `variables` (minimized).
    pub objective: Vec<i64>,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

impl IlpModel {
    /// Evaluates whether an assignment satisfies every constraint.
    pub fn is_feasible(&self, assignment: &[bool]) -> bool {
        self.constraints.iter().all(|c| {
            let lhs: i64 = c
                .terms
                .iter()
                .map(|&(vi, co)| if assignment[vi] { co } else { 0 })
                .sum();
            match c.cmp {
                Cmp::Le => lhs <= c.rhs,
                Cmp::Eq => lhs == c.rhs,
            }
        })
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, assignment: &[bool]) -> i64 {
        self.objective
            .iter()
            .enumerate()
            .map(|(i, &c)| if assignment[i] { c } else { 0 })
            .sum()
    }
}

/// Exact branch-and-bound minimization over the binary variables.
///
/// Branches variables in order, propagating two prunes: a `≤`
/// constraint whose committed left-hand side already exceeds its
/// right-hand side, and an `=` constraint that can no longer reach its
/// right-hand side with the undecided variables. Returns the optimal
/// assignment, or `None` if the program is infeasible or the budget
/// expired (`budget_exceeded` distinguishes the two).
pub fn solve_binary(model: &IlpModel, budget: Duration) -> SolveResult {
    let n = model.variables.len();
    // chronus-lint: allow(det-wallclock) — solver budget deadline; affects only whether an answer is produced, never which
    let deadline = Instant::now() + budget;
    let mut best: Option<(i64, Vec<bool>)> = None;
    let mut assignment = vec![false; n];
    let mut timed_out = false;

    // Max remaining contribution per Eq constraint is recomputed
    // cheaply from suffix sums of positive coefficients.
    fn dfs(
        model: &IlpModel,
        i: usize,
        assignment: &mut Vec<bool>,
        best: &mut Option<(i64, Vec<bool>)>,
        deadline: Instant,
        timed_out: &mut bool,
    ) {
        // chronus-lint: allow(det-wallclock) — budget deadline check, see `deadline`
        if *timed_out || Instant::now() > deadline {
            *timed_out = true;
            return;
        }
        // Prune against constraints.
        for c in &model.constraints {
            let mut committed = 0i64;
            let mut potential = 0i64;
            for &(vi, co) in &c.terms {
                if vi < i {
                    if assignment[vi] {
                        committed += co;
                    }
                } else {
                    potential += co.max(0);
                }
            }
            match c.cmp {
                Cmp::Le => {
                    if committed > c.rhs {
                        return;
                    }
                }
                Cmp::Eq => {
                    if committed > c.rhs || committed + potential < c.rhs {
                        return;
                    }
                }
            }
        }
        // Bound against the incumbent (objective coefficients are
        // non-negative in our models).
        let committed_obj: i64 = (0..i)
            .map(|vi| {
                if assignment[vi] {
                    model.objective[vi]
                } else {
                    0
                }
            })
            .sum();
        if let Some((incumbent, _)) = best {
            if committed_obj >= *incumbent {
                return;
            }
        }
        if i == model.variables.len() {
            if model.is_feasible(assignment) {
                let val = model.objective_value(assignment);
                let better = best.as_ref().is_none_or(|(b, _)| val < *b);
                if better {
                    *best = Some((val, assignment.clone()));
                }
            }
            return;
        }
        for value in [true, false] {
            assignment[i] = value;
            dfs(model, i + 1, assignment, best, deadline, timed_out);
        }
        assignment[i] = false;
    }

    dfs(
        model,
        0,
        &mut assignment,
        &mut best,
        deadline,
        &mut timed_out,
    );
    SolveResult {
        best: best.map(|(value, assignment)| Solution { value, assignment }),
        budget_exceeded: timed_out,
    }
}

/// An optimal assignment.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Objective value.
    pub value: i64,
    /// Variable assignment, parallel to [`IlpModel::variables`].
    pub assignment: Vec<bool>,
}

/// Outcome of [`solve_binary`].
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The best solution found (proved optimal iff the budget held).
    pub best: Option<Solution>,
    /// `true` if the search was cut short.
    pub budget_exceeded: bool,
}

/// Materializes program (3) for `instance`: enumerates the path set
/// `P(f)` (consistent single-flow schedules with makespan
/// `≤ max_makespan`, each inducing one loop-free path through `G_T`),
/// then emits variables `x_{f,p}`, the pick-one constraints (3b) and
/// the time-extended capacity constraints (3a).
///
/// Returns the model plus, for each variable, the schedule it encodes.
/// `max_paths_per_flow` caps the enumeration; the boolean says whether
/// the enumeration was exhaustive (only then is the ILP's answer a
/// certificate).
pub fn build_mutp_ilp(
    instance: &UpdateInstance,
    max_makespan: TimeStep,
    max_paths_per_flow: usize,
) -> (IlpModel, Vec<Schedule>, bool) {
    let mut model = IlpModel::default();
    let mut var_schedules: Vec<Schedule> = Vec::new();
    let mut exhaustive = true;
    let mut flow_var_ranges: Vec<(usize, usize)> = Vec::new();

    // P(f): enumerate per single-flow sub-instance so that (3a) below
    // can combine loads across flows.
    for flow in &instance.flows {
        let single = UpdateInstance::single(instance.network.clone(), flow.clone())
            .expect("flows were validated by the caller");
        let e = enumerate_consistent_schedules(
            &single,
            max_makespan,
            max_paths_per_flow.saturating_mul(64),
        );
        exhaustive &= e.exhaustive;
        let start = model.variables.len();
        for (pi, s) in e.schedules.into_iter().take(max_paths_per_flow).enumerate() {
            let name = format!("x_{}_p{}", flow.id, pi);
            model.variables.push(name);
            // Objective: |T| of this path = makespan + 1.
            model.objective.push(s.makespan().unwrap_or(0) + 1);
            var_schedules.push(s);
        }
        let end = model.variables.len();
        if start == end {
            // No admissible path for this flow: emit an unsatisfiable
            // (3b) so the model is manifestly infeasible.
            model.constraints.push(Constraint {
                terms: Vec::new(),
                cmp: Cmp::Eq,
                rhs: 1,
                label: format!("(3b) pick one path for {} — P(f) empty", flow.id),
            });
        }
        flow_var_ranges.push((start, end));
    }

    // (3b): exactly one path per flow.
    for (flow, &(start, end)) in instance.flows.iter().zip(&flow_var_ranges) {
        if start == end {
            continue;
        }
        model.constraints.push(Constraint {
            terms: (start..end).map(|vi| (vi, 1)).collect(),
            cmp: Cmp::Eq,
            rhs: 1,
            label: format!("(3b) pick one path for {}", flow.id),
        });
    }

    // (3a): capacity of every time-extended link. Each variable's load
    // profile comes from simulating its schedule on its own flow.
    // A BTreeMap so the constraint-emission loop below walks keys in
    // sorted order directly — no collect-and-sort pass, and no chance
    // of hash-order nondeterminism reaching the model (det-hash).
    use std::collections::BTreeMap;
    let mut link_terms: BTreeMap<(u32, u32, TimeStep), Vec<(usize, i64)>> = BTreeMap::new();
    for (vi, s) in var_schedules.iter().enumerate() {
        // Which flow does this variable belong to?
        let fi = flow_var_ranges
            .iter()
            .position(|&(a, b)| vi >= a && vi < b)
            .expect("variable belongs to a flow range");
        let single = UpdateInstance::single(instance.network.clone(), instance.flows[fi].clone())
            .expect("validated");
        let report = FluidSimulator::with_config(&single, SimulatorConfig::default()).run(s);
        for (&(u, v), series) in &report.link_loads {
            for (&t, &load) in series {
                if t >= 0 && load > 0 {
                    link_terms
                        .entry((u.0, v.0, t))
                        .or_default()
                        .push((vi, load as i64));
                }
            }
        }
    }
    for ((u, v, t), terms) in link_terms {
        // Single-variable terms within one flow are mutually exclusive
        // anyway; the constraint only bites across flows or when one
        // path self-overlaps (already excluded by P(f) consistency),
        // so emit only constraints that could conceivably bind.
        let cap = instance
            .network
            .capacity(chronus_net::SwitchId(u), chronus_net::SwitchId(v))
            .expect("loads only on real links") as i64;
        if terms.len() > 1 || terms.iter().any(|&(_, l)| l > cap) {
            model.constraints.push(Constraint {
                terms,
                cmp: Cmp::Le,
                rhs: cap,
                label: format!("(3a) capacity of <s{u}(t{t}), s{v}>"),
            });
        }
    }

    (model, var_schedules, exhaustive)
}

/// Solves MUTP through the ILP route: build program (3) with growing
/// makespan bound, solve by branch and bound, return the schedule the
/// optimal assignment selects (merged across flows) together with the
/// independent certifier's proof of its consistency.
///
/// # Errors
/// [`ScheduleError::Infeasible`] / [`ScheduleError::TimedOut`], or
/// [`ScheduleError::CertificationFailed`] if the certifier rejects the
/// ILP's winner (a bug in one of the two).
// chronus-lint: allow(dead-pub) — read by tests/cross_solver.rs
pub fn ilp_optimal(
    instance: &UpdateInstance,
    max_makespan: TimeStep,
    budget: Duration,
) -> Result<(Schedule, TimeStep, chronus_verify::Certificate), ScheduleError> {
    // chronus-lint: allow(det-wallclock) — solver budget deadline; affects only whether an answer is produced, never which
    let deadline = Instant::now() + budget;
    for m in 0..=max_makespan {
        // chronus-lint: allow(det-wallclock) — budget deadline check, see `deadline`
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ScheduleError::TimedOut {
                budget_ms: budget.as_millis() as u64,
            });
        }
        let (model, var_schedules, exhaustive) = build_mutp_ilp(instance, m, 4096);
        if !exhaustive {
            return Err(ScheduleError::Infeasible {
                blocked: None,
                reason: "path enumeration truncated; ILP not a certificate".into(),
            });
        }
        let result = solve_binary(&model, remaining);
        if result.budget_exceeded {
            return Err(ScheduleError::TimedOut {
                budget_ms: budget.as_millis() as u64,
            });
        }
        if let Some(sol) = result.best {
            // Merge the selected per-flow schedules.
            let mut merged = Schedule::new();
            for (vi, selected) in sol.assignment.iter().enumerate() {
                if *selected {
                    for (f, v, t) in var_schedules[vi].iter() {
                        merged.set(f, v, t);
                    }
                }
            }
            let makespan = merged.makespan().unwrap_or(0);
            let certificate = match chronus_verify::certify(instance, &merged) {
                Ok(cert) => cert,
                Err(violation) => {
                    return Err(ScheduleError::CertificationFailed {
                        violation: Box::new(violation),
                    })
                }
            };
            return Ok((merged, makespan, certificate));
        }
    }
    Err(ScheduleError::Infeasible {
        blocked: None,
        reason: format!("no schedule with makespan <= {max_makespan}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::optimal_schedule;
    use chronus_net::motivating_example;
    use chronus_timenet::Verdict;

    #[test]
    fn model_contains_paper_constraints() {
        let inst = motivating_example();
        let (model, vars, exhaustive) = build_mutp_ilp(&inst, 2, 4096);
        assert!(exhaustive);
        assert!(!vars.is_empty());
        assert!(model
            .constraints
            .iter()
            .any(|c| c.label.contains("(3b) pick one path")));
        assert!(model.variables.iter().any(|v| v == "x_f0_p0"));
    }

    #[test]
    fn ilp_agrees_with_search_on_motivating_example() {
        let inst = motivating_example();
        let search = optimal_schedule(&inst).unwrap();
        let (schedule, makespan, certificate) =
            ilp_optimal(&inst, 4, Duration::from_secs(60)).unwrap();
        assert_eq!(makespan, search.makespan);
        let report = FluidSimulator::check(&inst, &schedule);
        assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
        assert_eq!(certificate.check(&inst), Ok(()));
    }

    #[test]
    fn infeasible_instance_yields_infeasible_ilp() {
        use chronus_net::{Flow, FlowId, NetworkBuilder, Path, SwitchId};
        let sid = SwitchId;
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 1).unwrap();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let err = ilp_optimal(&inst, 4, Duration::from_secs(30)).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn solver_handles_simple_programs() {
        // min x0 + 2 x1  s.t.  x0 + x1 = 1  →  pick x0.
        let model = IlpModel {
            variables: vec!["x0".into(), "x1".into()],
            objective: vec![1, 2],
            constraints: vec![Constraint {
                terms: vec![(0, 1), (1, 1)],
                cmp: Cmp::Eq,
                rhs: 1,
                label: "pick one".into(),
            }],
        };
        let r = solve_binary(&model, Duration::from_secs(5));
        let sol = r.best.unwrap();
        assert_eq!(sol.value, 1);
        assert_eq!(sol.assignment, vec![true, false]);
        assert!(!r.budget_exceeded);
    }

    #[test]
    fn solver_detects_infeasible_programs() {
        // x0 ≤ 0 with x0 + ... = 1 and only x0 available.
        let model = IlpModel {
            variables: vec!["x0".into()],
            objective: vec![1],
            constraints: vec![
                Constraint {
                    terms: vec![(0, 1)],
                    cmp: Cmp::Eq,
                    rhs: 1,
                    label: "must pick".into(),
                },
                Constraint {
                    terms: vec![(0, 1)],
                    cmp: Cmp::Le,
                    rhs: 0,
                    label: "cannot pick".into(),
                },
            ],
        };
        let r = solve_binary(&model, Duration::from_secs(5));
        assert!(r.best.is_none());
        assert!(!r.budget_exceeded);
    }
}
