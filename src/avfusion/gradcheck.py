"""Central-difference gradient checking.

Every trainable module in this package ships hand-derived gradients; this
harness is the single validator they are all held against.
"""

import numpy as np

from .errors import NonDeterministicLoss, NumericalDivergence

EPSILON = 1e-5  # the central-difference step


def grad_check(loss_fn, params: dict) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn`` maps the ``params`` dict (name -> float64 array) to a tuple
    ``(loss, backward)``; ``backward()`` returns one gradient array per
    parameter, of its shape.  Of the 2 + 2P evaluations (P entries) only the
    first needs gradients, so its ``backward`` runs once, before any entry is
    perturbed: the forward's caches hold the parameter arrays, not copies.
    The function must be deterministic: any internal dropout has to be
    disabled or run with a frozen mask.  Each entry is perturbed in place and
    restored; the differences and errors of all entries are then formed in
    one numpy pass.

    Returns the maximum over all parameter entries of
    ``|g_analytic - g_numeric| / max(|g_analytic|, |g_numeric|, 1e-8)``; an
    entry whose analytic or numeric derivative is not finite counts as inf.
    A non-finite unperturbed loss raises ``NumericalDivergence``.
    """
    loss0, backward = loss_fn(params)
    if not np.isfinite(loss0):
        raise NumericalDivergence(f"the unperturbed loss is {loss0!r}")
    grads = backward()
    loss1, _ = loss_fn(params)
    if loss0 != loss1:
        raise NonDeterministicLoss(
            f"loss changed between identical evaluations: {loss0!r} vs {loss1!r}"
        )
    analytic, plus, minus = [], [], []
    for name, theta in params.items():
        ga = np.asarray(grads[name], dtype=np.float64)
        if ga.shape != theta.shape:
            raise ValueError(f"gradient for {name!r} has shape {ga.shape}, "
                             f"parameter has {theta.shape}")
        analytic.append(ga.reshape(-1))
        flat = theta.flat  # writes theta in place, whatever its layout
        for i in range(theta.size):
            orig = flat[i]
            flat[i] = orig + EPSILON
            plus.append(loss_fn(params)[0])
            flat[i] = orig - EPSILON
            minus.append(loss_fn(params)[0])
            flat[i] = orig
    ga = np.concatenate(analytic)
    with np.errstate(over="ignore", invalid="ignore"):
        numeric = (np.array(plus) - np.array(minus)) / (2.0 * EPSILON)
        rel = np.abs(ga - numeric) / np.maximum(np.maximum(np.abs(ga), np.abs(numeric)), 1e-8)
    rel[~(np.isfinite(ga) & np.isfinite(numeric))] = np.inf
    return float(rel.max(initial=0.0))
