"""Numerical and exact verification of a rectangle integral identity and
the family of upper bounds it supports for coordinated s-convex surfaces.
"""

__version__ = "0.1.0"

from .analysis import (GapSurface, RefinedMin, SweepResult, compare_families,
                       refine_argmin, scan_gap, sweep_s)
from .bounds import (BOUND_ABS_TOL, BOUND_REL_TOL, CHAIN_TOL, BoundReport,
                     ChainEvaluation, Corner, TheoremId, chain_evaluate,
                     corner_report, family_report, family_rhs,
                     margin_holds, midpoint_report, remark_aggregate, t1_report, t1_rhs,
                     t2_report, t2_rhs, t3_report, t3_rhs)
from .domain import (BadExponent, DegenerateRect, EvalPoint, HolderPair,
                     NormalizationMode, PowerMeanQ, PrefactorMode, Rect,
                     SExponent, make_holder_pair, make_rect)
from .identity import (ExactLemmaEvaluation, LemmaEvaluation, corner_term_A,
                       lemma_lhs, lemma_lhs_at, lemma_residual,
                       lemma_residual_exact, lemma_rhs)
from .quad import (DEEP, IntegralResult, QuadConfig, ToleranceNotMet,
                   gauss_legendre, holder_kernel_constant, integrate_1d,
                   integrate_2d, kernel_moment, poly_integral_exact,
                   power_mean_prefactor)
from .suite import CheckResult, run_acceptance_suite
from .surfaces import (CatalogEntry, CertificationReport, DomainNotNonnegative,
                       EvalError, ParseError, Poly2, SamplerConfig, Surface,
                       SurfaceKind, UnknownSurface, Verdict, Witness, catalog,
                       catalog_lookup, certify_coordinated,
                       certify_s_convex_second_sense, const_surface,
                       parse_surface, poly_surface, power_surface,
                       replay_witness, scaled)

__all__ = [
    "__version__",
    # domain
    "Rect", "EvalPoint", "make_rect", "SExponent", "HolderPair",
    "make_holder_pair", "PowerMeanQ", "NormalizationMode", "PrefactorMode",
    "DegenerateRect", "BadExponent",
    # surfaces
    "Surface", "SurfaceKind", "Poly2", "parse_surface", "poly_surface",
    "const_surface", "power_surface", "scaled", "catalog", "catalog_lookup",
    "CatalogEntry", "EvalError", "ParseError", "UnknownSurface",
    "DomainNotNonnegative", "SamplerConfig", "Witness", "CertificationReport",
    "Verdict", "certify_s_convex_second_sense", "certify_coordinated",
    "replay_witness",
    # quadrature
    "QuadConfig", "DEEP", "IntegralResult", "ToleranceNotMet",
    "gauss_legendre", "integrate_1d", "integrate_2d", "poly_integral_exact",
    "kernel_moment", "holder_kernel_constant", "power_mean_prefactor",
    # identity
    "LemmaEvaluation", "ExactLemmaEvaluation", "corner_term_A", "lemma_lhs",
    "lemma_lhs_at", "lemma_rhs", "lemma_residual", "lemma_residual_exact",
    # bounds
    "TheoremId", "Corner", "BoundReport", "ChainEvaluation", "family_rhs",
    "family_report", "t1_rhs", "t2_rhs", "t3_rhs", "t1_report", "t2_report",
    "t3_report", "corner_report", "midpoint_report", "remark_aggregate",
    "chain_evaluate", "margin_holds",
    "BOUND_ABS_TOL", "BOUND_REL_TOL", "CHAIN_TOL",
    # analysis
    "GapSurface", "SweepResult", "RefinedMin", "scan_gap", "sweep_s",
    "compare_families", "refine_argmin",
    # acceptance
    "CheckResult", "run_acceptance_suite",
]
