"""Public parameters are ones the code reads.

The functions below once took parameters that no caller set (a residual,
KKT, zero, validation or singularity tolerance, a Newton budget, a reference
tolerance, a horizon, a geometry already computed) or that the function
never read (thm3_check's landscape g).  Their parameter lists are pinned here, so that such a
parameter comes back only by changing this table; and every function of
``tvland.__all__`` reads each of its parameters.
"""

import ast
import inspect
import textwrap

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
    tv.eta: ["p", "x", "t"],
    tv.SpectrumReport: ["eigenvalues", "scale"],
    tv.spectrum_along_trajectory: ["p", "ztraj"],
    tv.kkt_refine: ["p", "x", "t"],
    tv.kkt_track: ["p", "x0", "times"],
    tv.validate_problem: ["p", "samples", "seed"],
    tv.make_damped_sinusoid: ["g", "grad_g", "beta", "omega", "lam", "u", "hess_g", "alpha"],
    tv.thm3_check: ["grad_g", "minima", "R", "alpha", "beta", "omega", "lam",
                    "ball_samples", "sphere_samples", "seed"],
    geometry_module.geometry: ["p", "x", "J"],
    geometry_module.require_regular: ["sigma", "x"],
    geometry_module._certified_solve: ["J"],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__qualname__)
def test_parameter_list_is_pinned(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


PUBLIC_FUNCTIONS = [getattr(tv, name) for name in tv.__all__
                    if inspect.isfunction(getattr(tv, name))]


@pytest.mark.parametrize("fn", PUBLIC_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_every_parameter_is_read(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    func = tree.body[0]
    params = [a.arg for a in (*func.args.posonlyargs, *func.args.args,
                              *func.args.kwonlyargs, func.args.vararg, func.args.kwarg)
              if a is not None]
    read = {node.id for stmt in func.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [name for name in params if name not in read] == []
