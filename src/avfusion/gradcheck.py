"""Central-difference gradient checking.

Every trainable module in this package ships hand-derived gradients; this
harness is the single validator they are all held against.
"""

import numpy as np

from .errors import NonDeterministicLoss

EPSILON = 1e-5  # the central-difference step


def grad_check(loss_fn, params: dict) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn`` maps the ``params`` dict (name -> float64 array) to a tuple
    ``(loss, backward)``; ``backward()`` returns one gradient array per
    parameter, of its shape.  Of the 2 + 2P evaluations (P entries) only the
    first needs gradients, so its ``backward`` runs once, before any entry is
    perturbed: the forward's caches hold the parameter arrays, not copies.
    The function must be deterministic: any internal dropout has to be
    disabled or run with a frozen mask.  Parameters are perturbed in place and
    restored.

    Returns the maximum over all parameter entries of
    ``|g_analytic - g_numeric| / max(|g_analytic|, |g_numeric|, 1e-8)``.
    """
    loss0, backward = loss_fn(params)
    grads = backward()
    loss1, _ = loss_fn(params)
    if loss0 != loss1:
        raise NonDeterministicLoss(
            f"loss changed between identical evaluations: {loss0!r} vs {loss1!r}"
        )
    max_rel = 0.0
    for name, theta in params.items():
        analytic = np.asarray(grads[name], dtype=np.float64)
        if analytic.shape != theta.shape:
            raise ValueError(f"gradient for {name!r} has shape {analytic.shape}, "
                             f"parameter has {theta.shape}")
        for i in range(theta.size):
            orig = theta.flat[i]
            theta.flat[i] = orig + EPSILON
            loss_plus, _ = loss_fn(params)
            theta.flat[i] = orig - EPSILON
            loss_minus, _ = loss_fn(params)
            theta.flat[i] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * EPSILON)
            ga = analytic.flat[i]
            rel = abs(ga - numeric) / max(abs(ga), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel
