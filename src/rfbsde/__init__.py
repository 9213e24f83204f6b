"""Numerical toolkit for stochastic optimal control with reflected FBSDEs."""

from .errors import (BackwardSolverError, ConfigError, EvaluationError,
                     KinkColumnError, RfbsdeError, SimulationError)
from .model import (AssumptionReport, ControlModel, ControlSet, ProbeGrid,
                    build_model, example_classical, example_viscosity,
                    random_lipschitz_model, validate_assumptions, zero_model)
from .simulate import (OpenLoopControl, PathEnsemble, TimeGrid,
                       simulate_closed_loop, simulate_paths)
from .rbsde import (CostEstimate, RbsdeSolution, SolverConfig, cost_functional,
                    solve_penalized, solve_reflected, tree_oracle)
from .hjb import (SpaceTimeGrid, ValueSurface, candidate_surface,
                  hamiltonian_minima, inf_hamiltonian, residual,
                  solve_obstacle_hjb)
from .synthesis import (FeedbackLaw, LawRegularityReport, check_law_regularity,
                        evaluate_feedback, extract_feedback)
from .verify import (MembershipProbe, MembershipResult, SuperdiffCandidate,
                     SurfaceRegularityReport, VerificationReport, VerifyConfig,
                     build_control_battery, check_superdiff_membership,
                     check_surface_regularity, tables_from_surface,
                     verify_classical, verify_feedback_optimality,
                     verify_viscosity_conditions)

__version__ = "0.1.0"
