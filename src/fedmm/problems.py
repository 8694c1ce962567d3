"""Built-in synthetic problem instances.

The quadratic instances are keyed by a fixed internal seed, NOT the run seed:
the full-batch quadratic path must be identical across run seeds. Every
client's A_i is indefinite (at least one negative eigenvalue) while the
max-function Hessian Abar + Bbar Cbar^-1 Bbar' stays positive definite, so
the problem is locally nonconvex per client yet has a well-posed minimum.

The domain-adaptation toy is two 2-D Gaussian classes at +/-mu; the target
domain is the source translated by a fixed shift. A feature map that screens
out the shift direction aligns the domains exactly and keeps the classes
separated, so the adversarial saddle scores high target accuracy while a
source-only predictor does not.
"""

from __future__ import annotations

import numpy as np

from fedmm.core import seeded_rng, vector
from fedmm.objectives import (
    SOURCE,
    TARGET,
    UNLABELED,
    DomainAdaptDataset,
    ModelLayout,
    QuadraticSaddleSpec,
)

_QUAD_SEED = 0xFED0

# Frozen toy geometry: class means +/-CLASS_MU, target = source + DOMAIN_SHIFT.
# The target domain is class-imbalanced (label shift): an unsupervised client
# holding only target data drifts along its class-tilted mean, which is what
# degrades plain averaging once the domains sit on different clients.
CLASS_MU = np.array([2.0, 0.0])
DOMAIN_SHIFT = np.array([2.5, 2.5])
CLASS_SIGMA = 0.45
TARGET_CLASS0_FRAC = 0.8
FEAT_DIM = 1


def _random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _indefinite_symmetric(rng: np.random.Generator, d: int) -> np.ndarray:
    """Symmetric with eigenvalues in [-0.4, 1.5], at least one negative."""
    eigs = rng.uniform(0.2, 1.5, size=d)
    eigs[rng.integers(d)] = rng.uniform(-0.4, -0.1)
    q = _random_orthogonal(rng, d)
    return q @ np.diag(eigs) @ q.T


def _pd_symmetric(rng: np.random.Generator, d: int) -> np.ndarray:
    eigs = rng.uniform(0.8, 2.0, size=d)
    q = _random_orthogonal(rng, d)
    return q @ np.diag(eigs) @ q.T


def synthetic_quadratic_specs(
    n_clients: int, d1: int = 4, d2: int = 3, seed: int = _QUAD_SEED
) -> list[QuadraticSaddleSpec]:
    """Heterogeneous quadratic saddles with a PD averaged max-function Hessian."""
    for attempt in range(64):
        rng = seeded_rng(seed + attempt)
        specs = []
        for _ in range(n_clients):
            A = _indefinite_symmetric(rng, d1)
            B = 0.5 * rng.standard_normal((d1, d2))
            C = _pd_symmetric(rng, d2)
            a = vector(rng.standard_normal(d1))
            c = vector(rng.standard_normal(d2))
            specs.append(QuadraticSaddleSpec(A=A, B=B, C=C, a=a, c=c))
        Abar = sum(s.A for s in specs) / n_clients
        Bbar = sum(s.B for s in specs) / n_clients
        Cbar = sum(s.C for s in specs) / n_clients
        H = Abar + Bbar @ np.linalg.solve(Cbar, Bbar.T)
        if float(np.linalg.eigvalsh(H).min()) > 0.1:
            return specs
    raise RuntimeError("could not synthesize a PD max-function Hessian")  # pragma: no cover


def _gaussian_domain(
    rng: np.random.Generator, n_class0: int, n_class1: int, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for label, sign, n in ((0, -1.0, n_class0), (1, 1.0, n_class1)):
        mean = sign * CLASS_MU + shift
        xs.append(mean + CLASS_SIGMA * rng.standard_normal((n, 2)))
        ys.append(np.full(n, label))
    return np.concatenate(xs), np.concatenate(ys)


def _target_counts(n: int) -> tuple[int, int]:
    n0 = max(1, int(round(TARGET_CLASS0_FRAC * n)))
    return n0, max(1, n - n0)


def domain_shift_toy(
    rng: np.random.Generator, n_per_domain: int = 60, holdout_n: int = 240
) -> tuple[DomainAdaptDataset, DomainAdaptDataset, ModelLayout]:
    """Two-class, two-domain Gaussian toy: (train set, labeled target holdout, layout)."""
    n_half = max(1, n_per_domain // 2)
    x_src, y_src = _gaussian_domain(rng, n_half, n_half, np.zeros(2))
    t0, t1 = _target_counts(2 * n_half)
    x_tgt, _ = _gaussian_domain(rng, t0, t1, DOMAIN_SHIFT)

    X = np.concatenate([x_src, x_tgt])
    y = np.concatenate([y_src, np.full(len(x_tgt), UNLABELED)])
    dom = np.concatenate([np.full(len(x_src), SOURCE), np.full(len(x_tgt), TARGET)])
    train = DomainAdaptDataset(X, y, dom)

    h0, h1 = _target_counts(holdout_n)
    x_hold, y_hold = _gaussian_domain(rng, h0, h1, DOMAIN_SHIFT)
    holdout = DomainAdaptDataset(
        x_hold, y_hold, np.full(len(x_hold), TARGET), holdout=True
    )

    layout = ModelLayout(in_dim=2, feat_dim=FEAT_DIM, n_classes=2)
    return train, holdout, layout
