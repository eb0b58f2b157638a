"""Correctness checks of one benchmark round, made apart from the program.

The solution is evaluated with ``scipy.interpolate.BSpline`` on each space's
knot vector, never with the program's own basis code, and integrated with
Gauss-Legendre rules built here.  Every check compares against a closed form
or a property the method must have; none compares against stored output.

Each ``check_*`` function returns a list of failure messages (empty when the
round is correct) and a dict of the measured quantities.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import BSpline

# acceptance criterion 3: relative L2 error floor of the second-order schemes
MANUFACTURED_L2_FLOOR = 1e-4
# acceptance criterion 7: rotating bump may not grow its L2 norm or maximum
ROTATION_L2_RATIO = 1.01
ROTATION_MAX_RATIO = 1.05
# a quarter of the orbit radius: the Crank-Nicolson phase lag at 48^2 puts the
# half-maximum centroid 0.08 behind after one turn, while a bump turned the
# wrong way or left standing misses by 0.7 or more at the odd quarter turns
ROTATION_CENTRE_TOL = 0.125
# relative mismatch allowed between a step's mass gain and its injected source
POLLUTION_MASS_RTOL = 1e-4
# centroid displacement must point within this angle of the mean wind
POLLUTION_ANGLE_TOL = np.radians(30.0)


def basis(space, xs) -> np.ndarray:
    """Values of the interior basis functions of ``space`` at ``xs``."""
    xs = np.asarray(xs, dtype=float)
    return BSpline.design_matrix(xs, space.knots, space.degree).toarray()[:, 1:-1]


def gauss_rule(space, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n``-point Gauss-Legendre nodes and weights on every element of ``space``."""
    breaks = np.unique(space.knots)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(breaks)
    pts = (breaks[:-1, None] + half[:, None] * (ref_x[None, :] + 1.0)).ravel()
    return pts, (half[:, None] * ref_w[None, :]).ravel()


def evaluate(u, sx, sy, xs, ys) -> np.ndarray:
    """u_h on the tensor grid xs x ys, indexed (x, y)."""
    return basis(sx, xs) @ u @ basis(sy, ys).T


def basis_integrals(space) -> np.ndarray:
    """Integral of each interior basis function: (t_{i+p+1} - t_i) / (p + 1)."""
    t, p = space.knots, space.degree
    return ((t[p + 1:] - t[:-p - 1]) / (p + 1))[1:-1]


def total_mass(u, sx, sy) -> float:
    """Integral of u_h over the domain."""
    return float(basis_integrals(sx) @ u @ basis_integrals(sy))


def l2_norm(u, sx, sy) -> float:
    px, wx = gauss_rule(sx, sx.degree + 2)
    py, wy = gauss_rule(sy, sy.degree + 2)
    field = evaluate(u, sx, sy, px, py)
    return float(np.sqrt(wx @ field ** 2 @ wy))


def grid_max(u, sx, sy, resolution: int) -> float:
    xs = np.linspace(*sx.interval, resolution)
    ys = np.linspace(*sy.interval, resolution)
    return float(np.max(np.abs(evaluate(u, sx, sy, xs, ys))))


def centroid(u, sx, sy, floor: float = 0.0) -> np.ndarray:
    """Centroid of the part of u_h above ``floor`` times its maximum."""
    px, wx = gauss_rule(sx, sx.degree + 2)
    py, wy = gauss_rule(sy, sy.degree + 2)
    field = evaluate(u, sx, sy, px, py)
    weight = np.maximum(field - floor * field.max(), 0.0) * wx[:, None] * wy[None, :]
    total = weight.sum()
    return np.array([px @ weight.sum(axis=1), py @ weight.sum(axis=0)]) / total


def check_manufactured(final_u, final_time, sx, sy, exact):
    """Relative L2 error against the closed-form solution at the final time."""
    px, wx = gauss_rule(sx, sx.degree + 2)
    py, wy = gauss_rule(sy, sy.degree + 2)
    uh = evaluate(final_u, sx, sy, px, py)
    ue = exact(px[:, None], py[None, :], final_time)
    rel = float(np.sqrt((wx @ (uh - ue) ** 2 @ wy) / (wx @ ue ** 2 @ wy)))
    failures = []
    if not np.isfinite(rel) or rel > MANUFACTURED_L2_FLOOR:
        failures.append(f"relative L2 error {rel:.3e} exceeds {MANUFACTURED_L2_FLOOR:g}")
    return failures, {"l2_rel_error": rel}


def elements(space) -> int:
    return np.unique(space.knots).size - 1


def discrete_source_total(forcing, t, loads, space_x, space_y) -> float:
    """Integral of the source by the quadrature rule of one load assembler.

    ``loads`` is the ``LoadAssembler`` of one substep, on ``space_x`` x
    ``space_y`` (the test space in the split direction, the trial space in the
    other).  Only its number of Gauss points per element is read from it; the
    nodes and weights are built here.  The result is the source total that
    substep injects.
    """
    px, wx = gauss_rule(space_x, loads.px.size // elements(space_x))
    py, wy = gauss_rule(space_y, loads.py.size // elements(space_y))
    return float(wx @ forcing(px[:, None], py[None, :], t) @ wy)


def check_pollution(states, tau, stepper, problem, bound, wind_angle):
    """Finite, bounded, mass-conserving, and drifting with the mean wind.

    ``states`` are the (time, u) pairs of the initial state and of every step
    of a Peaceman-Rachford run; ``stepper`` supplies the four 1D spaces and
    the load assemblers of its directional operators.
    """
    sx, sy = stepper.trial_x, stepper.trial_y
    failures = []
    times = np.array([t for t, _ in states])
    final_u = states[-1][1]
    if not all(np.all(np.isfinite(u)) for _, u in states):
        return ["non-finite coefficients"], {}
    peak = grid_max(final_u, sx, sy, 101)
    if peak > bound:
        failures.append(f"max|u| {peak:.4e} exceeds the a-priori bound {bound:.4e}")

    masses = np.array([total_mass(u, sx, sy) for _, u in states])
    gains = np.diff(masses)
    # each of the two substeps loads the source at the half step over tau / 2
    substeps = ((stepper.x_op.loads, stepper.test_x, sy),
                (stepper.y_op.loads, sx, stepper.test_y))
    injected = np.array([
        0.5 * tau * sum(discrete_source_total(problem.forcing, t + 0.5 * tau, *rule)
                        for rule in substeps)
        for t in times[:-1]])
    mass_err = float(np.max(np.abs(gains - injected) / np.abs(injected)))
    if not mass_err <= POLLUTION_MASS_RTOL:
        failures.append(f"step mass gain differs from the injected source by "
                        f"{mass_err:.3e} relative (> {POLLUTION_MASS_RTOL:g})")

    chimney = np.asarray(problem.forcing.keywords["p0"], dtype=float)
    shift = centroid(final_u - states[0][1], sx, sy) - chimney
    angles = wind_angle(times[:-1] + 0.5 * tau)
    mean_dir = np.arctan2(np.mean(np.sin(angles)), np.mean(np.cos(angles)))
    drift_dir = np.arctan2(shift[1], shift[0])
    off = float(np.abs(np.angle(np.exp(1j * (drift_dir - mean_dir)))))
    if not off <= POLLUTION_ANGLE_TOL:
        failures.append(f"plume drift direction is {np.degrees(off):.1f} deg off "
                        f"the mean wind")
    return failures, {"max_u": peak, "mass_rel_err": mass_err,
                      "drift_m": float(np.hypot(*shift)),
                      "drift_angle_off_deg": float(np.degrees(off))}


def rotated_centre(t) -> np.ndarray:
    """Exact centre of the bump carried clockwise by the wind (y, -x)."""
    return np.array([-0.5 * np.sin(t), -0.5 * np.cos(t)])


def check_rotation(initial_u, snapshots, sx, sy):
    """Criterion-7 norm bounds and the rotated bump centre at each snapshot.

    ``snapshots`` are the (time, u) pairs of the quarter-turn states.
    """
    failures = []
    norm0 = l2_norm(initial_u, sx, sy)
    max0 = grid_max(initial_u, sx, sy, 129)
    worst_l2 = worst_max = worst_centre = 0.0
    for t, u in snapshots:
        if not np.all(np.isfinite(u)):
            return [f"non-finite coefficients at t={t:.3f}"], {}
        l2_ratio = l2_norm(u, sx, sy) / norm0
        max_ratio = grid_max(u, sx, sy, 129) / max0
        miss = float(np.hypot(*(centroid(u, sx, sy, floor=0.5) - rotated_centre(t))))
        if not l2_ratio <= ROTATION_L2_RATIO:
            failures.append(f"t={t:.3f}: L2 norm ratio {l2_ratio:.4f} > {ROTATION_L2_RATIO}")
        if not max_ratio <= ROTATION_MAX_RATIO:
            failures.append(f"t={t:.3f}: max ratio {max_ratio:.4f} > {ROTATION_MAX_RATIO}")
        if not miss <= ROTATION_CENTRE_TOL:
            failures.append(f"t={t:.3f}: bump centre is {miss:.4f} from the "
                            f"rotated centre")
        worst_l2 = max(worst_l2, l2_ratio)
        worst_max = max(worst_max, max_ratio)
        worst_centre = max(worst_centre, miss)
    return failures, {"l2_ratio": worst_l2, "max_ratio": worst_max,
                      "centre_miss": worst_centre}
