"""Independent per-client references for the objectives' math.

The objectives compute through their stacked views, so comparing a view
with an objective's own methods only shows that the rows are independent.
These are the formulas written out for one client at one point in plain
numpy: boolean-mask indexing of the labeled points, a two-pass softmax with
the row max subtracted, and 1-D matrix-vector products. Each returns what
the objective's method returns, bit for bit. The quadratic's curvature and
Lipschitz bounds, the DANN ascent's curvature bound and the client-order
mean, which only the tests use, are here as well.

So are the problem-file readers as they were before they streamed: the whole
text, then every token, then one bulk parse. The streamed readers must give
the same arrays bit for bit, or raise the same ValueError.
"""

from pathlib import Path

import numpy as np

from fedmm.objectives import SOURCE, UNLABELED, DomainAdaptDataset, _blocks, _quadratic_fault


def _softplus(t):
    return np.logaddexp(0.0, t)


def _dann_forward(obj, om, ps):
    W, V = obj.layout.unpack_omega(np.asarray(om))
    Z = obj.dataset.X @ W.T
    return V, Z, Z @ V.T, Z @ ps


def _dann_dt(obj, t):
    lab = obj.dataset.domain == SOURCE
    s = np.exp(-_softplus(-t))
    return np.where(lab, -obj.nu * s, obj.nu * (1.0 - s))


def dann_value(obj, om, ps):
    """alpha * (cross-entropy + nu*log(1-h) over labeled points + nu*log(h) over the rest)."""
    ds = obj.dataset
    lab = ds.domain == SOURCE
    _, _, logits, t = _dann_forward(obj, om, ps)
    total = 0.0
    if lab.any():
        lab_logits = logits[lab]
        picked = lab_logits[np.arange(lab.sum()), ds.y[lab]]
        total += float(np.sum(np.logaddexp.reduce(lab_logits, axis=1) - picked))
        total += float(np.sum(-obj.nu * _softplus(t[lab])))
    if (~lab).any():
        total += float(np.sum(-obj.nu * _softplus(-t[~lab])))
    return obj.alpha * total


def dann_grads(obj, om, ps):
    """Both DANN gradient blocks from one forward/backward pass."""
    ds = obj.dataset
    lab = ds.domain == SOURCE
    V, Z, logits, t = _dann_forward(obj, om, ps)
    dlogits = np.zeros_like(logits)
    if lab.any():
        shifted = logits[lab] - logits[lab].max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(lab.sum()), ds.y[lab]] -= 1.0
        dlogits[lab] = p
    dt = _dann_dt(obj, t)
    gV = obj.alpha * (dlogits.T @ Z)
    dZ = dlogits @ V + dt[:, None] * ps[None, :]
    gW = obj.alpha * (dZ.T @ ds.X)
    return np.concatenate([gW.reshape(-1), gV.reshape(-1)]), obj.alpha * (Z.T @ dt)


def dann_grad_psi(obj, om, ps):
    """The psi block alone: the features and dt, no predictor pass."""
    _, Z, _, t = _dann_forward(obj, om, ps)
    return obj.alpha * (Z.T @ _dann_dt(obj, t))


def dann_curvature_bound(obj, om):
    """0.25 * nu * ||alpha Z'Z||_2, the bound on the psi-Hessian norm that sizes the ascent's step."""
    W, _ = obj.layout.unpack_omega(np.asarray(om))
    Z = obj.dataset.X @ W.T
    return 0.25 * obj.nu * float(np.linalg.norm(obj.alpha * (Z.T @ Z), 2))


def ref_mean(rows):
    """Client average, adding one client after the other from a copy of the first."""
    total = np.array(rows[0])
    for row in rows[1:]:
        total += row
    return total / len(rows)


def quad_value(obj, om, ps):
    return float(
        0.5 * om @ obj.A @ om + om @ obj.B @ ps - 0.5 * ps @ obj.C @ ps + obj.a @ om + obj.c @ ps
    )


def quad_grad_omega(obj, om, ps):
    return obj.A @ om + obj.B @ ps + obj.a


def quad_grad_psi(obj, om, ps):
    return obj.B.T @ om - obj.C @ ps + obj.c


def strong_concavity_modulus(obj):
    """Curvature bound of a quadratic's psi block: the smallest eigenvalue of C."""
    return float(np.linalg.eigvalsh(obj.C).min())


def lipschitz_bounds(obj):
    """A quadratic's operator-norm gradient Lipschitz constants L11, L12, L21, L22."""
    nB = float(np.linalg.norm(obj.B, 2))
    return {
        "L11": float(np.linalg.norm(obj.A, 2)),
        "L12": nB,
        "L21": nB,
        "L22": float(np.linalg.norm(obj.C, 2)),
    }


def records(path, width):
    """A text file's `d1 d2 N` header, the tokens after it and its N records of width(d1, d2) values."""
    text = Path(path).read_text()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    toks = text.split()
    if len(toks) < 3:
        raise ValueError(f"{path}: missing 'd1 d2 N' header")
    try:
        head = d1, d2, n = tuple(int(t) for t in toks[:3])
    except ValueError:
        got = " ".join(toks[:3])
        raise ValueError(f"{path}: header 'd1 d2 N' must be integers, got {got}") from None
    if min(head) < 1:
        raise ValueError(f"{path}: header 'd1 d2 N' must be positive, got {d1} {d2} {n}")
    per, body = width(d1, d2), toks[3:]
    if len(body) != n * per:
        raise ValueError(f"{path}: expected {n * per} values, found {len(body)}")
    try:
        vals = np.array(body, dtype=np.float64).reshape(n, per)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    vals.flags.writeable = False
    return head, body, vals


def read_quadratic(path):
    """The checked blocks A, B, C, a, c of a quadratic instance file, stacked over clients."""
    (d1, d2, _), _, vals = records(path, lambda d1, d2: d1 * d1 + d1 * d2 + d2 * d2 + d1 + d2)
    fault = _quadratic_fault(vals, d1, d2)
    if fault is not None:
        raise ValueError(f"{path}: client {fault[0]}: {fault[1]}")
    return _blocks(vals, d1, d2)


def load_dataset(path):
    """(dataset, n_classes) of a checked dataset file of `domain label x_1 .. x_d` records."""
    (d, n_classes, n), body, vals = records(path, lambda d, _: 2 + d)
    heads = np.array([body[0 :: 2 + d], body[1 :: 2 + d]])
    integer = np.char.isdecimal(np.char.lstrip(heads, "+-")).all(axis=0)
    dom, y = np.where(integer, vals[:, :2].T, 0).clip(-2, max(n_classes, 2)).astype(np.int64)
    nonfinite = ~np.isfinite(vals[:, 2:]).all(axis=1)
    bad = ~integer | nonfinite | (y >= n_classes) | (y < UNLABELED)
    if bad.any():
        i = np.argmax(bad)
        why = f"label {heads[1, i]} outside class range 0..{n_classes - 1} (or -1 unlabeled)"
        if nonfinite[i]:
            why = "a feature is not finite"
        if not integer[i]:
            why = f"domain and label must be integers, got {heads[0, i]} {heads[1, i]}"
        raise ValueError(f"{path}: record {i}: {why}")
    if n_classes > n:
        raise ValueError(f"{path}: header class count {n_classes} exceeds the {n} records")
    try:
        return DomainAdaptDataset(vals[:, 2:].copy(), y, dom), n_classes
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
