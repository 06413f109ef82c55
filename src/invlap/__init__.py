"""Numerical inverse Laplace transforms with evaluation-minimizing planning.

Five interchangeable inversion algorithms (Gaver-Stehfest, Schapery,
Weeks, fixed Talbot, and the accelerated Fourier series of de Hoog et
al.) share a common sample-planning layer, so a single vector of
image-function evaluations can invert many output times.  A 2D boundary
element solver for the Laplace-transformed diffusion equation and a set
of analytic reference oracles provide an end-to-end benchmark harness.
"""

from .algorithms import (DeHoogParams, SchaperyParams, StehfestParams,
                         TalbotParams, WeeksParams, dehoog_invert, dehoog_nodes,
                         schapery_eval, schapery_fit, stehfest_invert,
                         stehfest_nodes, stehfest_weights, talbot_contour,
                         talbot_invert, weeks_coefficients, weeks_eval,
                         weeks_nodes)
from .core import (METHODS, CountingImage, ImageEvaluationError,
                   InvalidStrategyError, PlanMismatchError, SamplePlan,
                   SampleSet, SamplingStrategy, TimeGrid, TimeSeriesResult,
                   evaluate_image, invert_all, make_time_grid, plan_samples)
from .specfun import k01_values, laguerre_sum

__all__ = [
    "CountingImage", "DeHoogParams", "ImageEvaluationError",
    "InvalidStrategyError", "METHODS", "PlanMismatchError", "SamplePlan",
    "SampleSet", "SamplingStrategy", "SchaperyParams", "StehfestParams",
    "TalbotParams", "TimeGrid", "TimeSeriesResult", "WeeksParams",
    "dehoog_invert", "dehoog_nodes", "evaluate_image", "invert_all", "k01_values",
    "laguerre_sum", "make_time_grid", "plan_samples", "schapery_eval",
    "schapery_fit", "stehfest_invert", "stehfest_nodes", "stehfest_weights",
    "talbot_contour", "talbot_invert", "weeks_coefficients", "weeks_eval",
    "weeks_nodes",
]

__version__ = "0.1.0"
