"""Solver tolerances that every caller left at their default are constants.

The functions below once took these values as parameters (a residual, KKT,
zero, validation or singularity tolerance, a Newton budget, a reference
tolerance, a horizon), and no caller set them.  Their parameter lists are
pinned here, so that such an option comes back only by changing this table.
"""

import inspect

import pytest

import tvland as tv
import tvland.geometry as geometry_module
import tvland.ode as ode_module

SIGNATURES = {
    tv.backward_euler_trajectory: ["p", "x0", "dt", "check_x0"],
    ode_module._implicit_step: ["p", "y_prev", "t", "dt", "M_inv", "start", "point", "rate"],
    tv.check_local_solution: ["p", "x0"],
    tv.convergence_study: ["p", "x0", "dts", "check_x0"],
    tv.eigen_report: ["M"],
    tv.SpectrumReport: ["eigenvalues", "scale"],
    tv.spectrum_along_trajectory: ["p", "ztraj"],
    tv.kkt_refine: ["p", "x", "t"],
    tv.kkt_track: ["p", "x0", "times"],
    tv.validate_problem: ["p", "samples", "seed"],
    tv.make_damped_sinusoid: ["g", "grad_g", "beta", "omega", "lam", "u", "hess_g", "alpha"],
    geometry_module.geometry: ["p", "x", "J"],
    geometry_module.require_regular: ["sigma", "x"],
    geometry_module._certified_solve: ["J"],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__qualname__)
def test_parameter_list_is_pinned(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]
