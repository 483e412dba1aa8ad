"""Central-difference gradient checking.

Every trainable module in this package ships hand-derived gradients; this
harness is the single validator they are all held against.
"""

import numpy as np

from .errors import NonDeterministicLoss, NumericalDivergence
from .numeric import row_blocks

EPSILON = 1e-5  # the central-difference step


def grad_check(loss_fn, params: dict, stacked: dict | None = None) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn`` maps the ``params`` dict (name -> float64 array) to a tuple
    ``(loss, backward)``; ``backward()`` returns one gradient array per
    parameter, of its shape.  Of the 2 + 2P evaluations (P entries) only the
    first needs gradients, so its ``backward`` runs once, before any entry is
    perturbed: the forward's caches hold the parameter arrays, not copies.
    The function must be deterministic: any internal dropout has to be
    disabled or run with a frozen mask.

    ``stacked`` maps a tensor's name to a function that takes a
    C-contiguous stack (C, *shape) of perturbed copies of that tensor and
    returns their C losses, each the ``loss_fn`` value with the copy in the
    tensor's place and every other tensor as given.  Copy 2i holds entry i
    (in ``theta.flat`` order) at ``orig + EPSILON``, copy 2i+1 at
    ``orig - EPSILON``, the loop's values; the stacks are built one
    ``row_blocks`` block of entries at a time, and the parameter arrays are
    not written.  A checker supplies a stacked loss only where each copy's
    loss is the loop's to the bit, so either path returns the same float.
    Every other tensor's entries are perturbed in place, one at a time, and
    restored.  The differences and errors of all entries are then formed in
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
    stacked = stacked or {}
    analytic, losses = [], []
    for name, theta in params.items():
        ga = np.asarray(grads[name], dtype=np.float64)
        if ga.shape != theta.shape:
            raise ValueError(f"gradient for {name!r} has shape {ga.shape}, "
                             f"parameter has {theta.shape}")
        analytic.append(ga.reshape(-1))
        if name in stacked:
            losses.extend(_stacked_losses(stacked[name], theta))
            continue
        pairs = []
        flat = theta.flat  # writes theta in place, whatever its layout
        for i in range(theta.size):
            orig = flat[i]
            flat[i] = orig + EPSILON
            pairs.append(loss_fn(params)[0])
            flat[i] = orig - EPSILON
            pairs.append(loss_fn(params)[0])
            flat[i] = orig
        losses.append(np.array(pairs, dtype=np.float64))
    ga = np.concatenate(analytic)
    pairs = np.concatenate(losses).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        numeric = (pairs[:, 0] - pairs[:, 1]) / (2.0 * EPSILON)
        rel = np.abs(ga - numeric) / np.maximum(np.maximum(np.abs(ga), np.abs(numeric)), 1e-8)
    rel[~(np.isfinite(ga) & np.isfinite(numeric))] = np.inf
    return float(rel.max(initial=0.0))


def _stacked_losses(stacked_loss, theta: np.ndarray) -> list:
    """The losses of the 2·size perturbed copies of ``theta``, each entry's
    plus copy before its minus copy, from one ``stacked_loss`` call per
    ``row_blocks`` block of entries."""
    orig = theta.reshape(-1)  # C order, the order of theta.flat
    out = []
    for block in row_blocks(0, theta.size, max(1, 2 * theta.size)):
        entries = np.arange(block.start, block.stop)
        copies = np.empty((len(entries), 2, theta.size))
        copies[:] = orig
        rows = entries - block.start
        copies[rows, 0, entries] = orig[entries] + EPSILON
        copies[rows, 1, entries] = orig[entries] - EPSILON
        losses = stacked_loss(copies.reshape(-1, *theta.shape))
        out.append(np.asarray(losses, dtype=np.float64))
    return out
