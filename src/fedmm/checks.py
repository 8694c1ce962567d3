"""Built-in verification suite behind the `check` subcommand.

Each check runs on a small fixture and either returns a detail string
(pass) or raises (fail); the runner traps exceptions so a bad fixture shows
up as a named failure instead of a crash. A check's keyword arguments are
its fixture's inputs, and their defaults are the fixture `fedmm check` runs.

The reference that the checks and the tests compare the views with ends the
module: each objective's value and gradients for one client at one point in
plain numpy, bit for bit the objective's own, and the client-order means. It
calls no objective method and no view, so a fault in a view cannot hide in it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from fedmm.core import HyperParams, PrimalDualPair, ServerState, Vector, seeded_rng, vector
from fedmm.diagnostics import _solve_errors, estimate_kappa, quadratic_kappa_bound, run_identity_suite
from fedmm.federation import (
    MetricsBlock,
    PartitionMode,
    PartitionSpec,
    RunLog,
    consensus,
    partition_label_shift,
)
from fedmm.objectives import (
    SOURCE,
    DomainAdaptObjective,
    PooledView,
    QuadraticSaddle,
    QuadraticSaddleSpec,
    _ascent,
    _SizeGroups,
    _StackedDomainAdapt,
    inner_maximizers,
    phi_value_and_grad,
    pooled,
    quadratic_bars,
    stacked,
)
from fedmm.optim import Federation, LocalRound, OptimizerKind, run_round
from fedmm.problems import domain_shift_toy, synthetic_quadratic_specs


def finite_diff_grad(f: Callable[[Vector], float], x: Vector, h: float) -> Vector:
    """Central-difference gradient, one coordinate at a time."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for j in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp, fm = f(vector(xp)), f(vector(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite objective value at coordinate {j}")
        g[j] = (fp - fm) / (2.0 * h)
    return vector(g)


def local_solve_error(fed: Federation) -> np.ndarray:
    """Each client's achieved local gradient norm after a round, read off the dual recovery.

    At an exact local solve the new duals satisfy lam = -grad_om f and
    beta = +grad_ps f at the end-of-round iterate, so the mismatch equals the
    residual gradient of the local augmented Lagrangian.
    """
    return _solve_errors(fed, fed.view.joint_grads(fed.Z))


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """||got - want|| / ||want||, the denominator at least 1e-12."""
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want))) / denom


def grad_check(obj, rng, n_probes: int, tol: float = 1e-5, h: float = 1e-6, scale: float = 1.0) -> float:
    """obj's worst gradient error against central differences at omega, then psi, drawn scale * N(0, I)."""
    d1, d2 = obj.dims
    worst = 0.0
    for _ in range(n_probes):
        om = vector(scale * rng.standard_normal(d1))
        ps = vector(scale * rng.standard_normal(d2))
        fd_om = finite_diff_grad(lambda v: obj.value(v, ps), om, h)
        fd_ps = finite_diff_grad(lambda v: obj.value(om, v), ps, h)
        worst = max(worst, rel_err(obj.grad_omega(om, ps), fd_om))
        worst = max(worst, rel_err(obj.grad_psi(om, ps), fd_ps))
    if worst > tol:
        raise AssertionError(f"gradient mismatch: relative error {worst:.3e} > {tol}")
    return worst


def check_quadratic_gradients() -> str:
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
    rng = seeded_rng(11)
    worst = max(grad_check(o, rng, 7) for o in objs)
    return f"max rel err {worst:.2e}"


def check_domain_adapt_gradients() -> str:
    train, _, layout = domain_shift_toy(seeded_rng(12), n_per_domain=20, holdout_n=4)
    obj = DomainAdaptObjective(train, nu=0.5, layout=layout)
    worst = grad_check(obj, seeded_rng(13), 10)
    return f"max rel err {worst:.2e}"


def check_inner_max_paths_agree(seed: int = 14) -> str:
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
    om = vector(seeded_rng(seed).standard_normal(objs[0].dims[0]))
    view = stacked(objs)
    closed = inner_maximizers(view, om[None], tol=1e-12)[0][0]
    step = 1.0 / float(np.linalg.norm(quadratic_bars(view).C, 2))  # 1 / ||Cbar||
    ascent = _ascent(pooled(view), om[None], step, tol=1e-10, max_iters=100_000)[0]
    gap = float(np.linalg.norm(closed - ascent))
    if gap > 1e-8:
        raise AssertionError(f"inner_max paths disagree by {gap:.3e}")
    return f"paths agree to {gap:.2e}"


def check_danskin_stationarity(seed: int = 15) -> str:
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
    view = stacked(objs)
    rng = seeded_rng(seed)
    om = vector(rng.standard_normal(objs[0].dims[0]))
    psi_star = inner_maximizers(view, om[None], tol=1e-12)[0][0]
    g = ref_mean([quad_grad_psi(o, om, psi_star) for o in objs])
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(len(psi_star))
        worst = max(worst, abs(float(g @ v)) / float(np.linalg.norm(v)))
    if worst > 1e-9:
        raise AssertionError(f"inner maximizer not stationary: {worst:.3e}")
    return f"max directional derivative {worst:.2e}"


def check_identity_suite() -> str:
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
    hp = HyperParams(eta1=0.2, eta2=0.2, eta3=1.0, local_steps=(20,), rounds=6)
    reports = run_identity_suite(objs, hp, rounds=6, local_tol=1e-12)
    bad = [r for r in reports if not r.passed]
    if bad:
        raise AssertionError(f"{len(bad)} identity failures, worst {max(r.residual_norm for r in bad):.3e}")
    return f"{len(reports)} identities hold, worst residual {max(r.residual_norm for r in reports):.2e}"


def check_dual_recovery() -> str:
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(2)]
    hp = HyperParams(eta1=0.2, eta2=0.2, local_tol=1e-12)
    d1, d2 = objs[0].dims
    pair = PrimalDualPair(vector(np.zeros(d1)), vector(np.zeros(d2)))
    fed = Federation.initial(objs, pair)
    fed, _ = LocalRound(OptimizerKind.FEDMM, fed.view, hp)(fed, pair)
    worst = max(local_solve_error(fed).tolist())
    if worst > 1e-8:
        raise AssertionError(f"dual recovery residual {worst:.3e} > 1e-8")
    return f"worst residual {worst:.2e}"


def _same_global_pairs(objs, kind_a, kind_b, hp: HyperParams, rounds: int) -> bool:
    """Whether kind_a and kind_b, both started at zero, keep bit-equal global pairs for `rounds` rounds."""
    d1, d2 = objs[0].dims
    pair = PrimalDualPair(vector(np.zeros(d1)), vector(np.zeros(d2)))
    server_a, server_b = ServerState(pair), ServerState(pair)
    fed_a = fed_b = Federation.initial(objs, pair)
    local_a, local_b = LocalRound(kind_a, fed_a.view, hp), LocalRound(kind_b, fed_b.view, hp)
    for _ in range(rounds):
        fed_a = run_round(local_a, fed_a, server_a)
        fed_b = run_round(local_b, fed_b, server_b)
        if not np.array_equal(server_a.global_pair.row, server_b.global_pair.row):
            return False
    return True


def check_equiv_fedsgda_central(rounds: int = 100, eta1: float = 0.05, eta2: float = 0.05) -> str:
    """FedSGDA on one client is centralized GDA, bit for bit, every round."""
    objs = [QuadraticSaddle(synthetic_quadratic_specs(1)[0])]
    hp = HyperParams(eta1=eta1, eta2=eta2)
    if not _same_global_pairs(objs, OptimizerKind.FEDSGDA, OptimizerKind.CENTRAL_GDA, hp, rounds):
        raise AssertionError("FedSGDA(N=1) diverged from centralized GDA")
    return f"{rounds} steps bit-exact"


def check_equiv_fedprox_fedavg(
    seed: int = 16, eta1: float = 0.05, eta2: float = 0.05, local_steps: int = 13
) -> str:
    """FedProxGDA with prox_mu = 0 uploads FedAvgGDA's rows, bit for bit, from a seeded start."""
    obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
    d1, d2 = obj.dims
    rng = seeded_rng(seed)
    pair = PrimalDualPair(vector(rng.standard_normal(d1)), vector(rng.standard_normal(d2)))
    hp = HyperParams(eta1=eta1, eta2=eta2, prox_mu=0.0, local_steps=(local_steps,))
    fed = Federation.initial([obj], pair)
    _, a = LocalRound(OptimizerKind.FEDAVG_GDA, fed.view, hp)(fed, pair)
    _, b = LocalRound(OptimizerKind.FEDPROX_GDA, fed.view, hp)(fed, pair)
    if not np.array_equal(a, b):
        raise AssertionError("FedProxGDA(prox_mu=0) differs from FedAvgGDA")
    return "outputs bit-exact"


def check_equiv_fedavg_fedsgda(
    rounds: int = 50, eta1: float = 0.05, eta2: float = 0.05, n_clients: int = 2
) -> str:
    """FedAvgGDA with one local step is FedSGDA, bit for bit, every round."""
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(n_clients)]
    hp = HyperParams(eta1=eta1, eta2=eta2, local_steps=(1,))
    if not _same_global_pairs(objs, OptimizerKind.FEDAVG_GDA, OptimizerKind.FEDSGDA, hp, rounds):
        raise AssertionError("FedAvgGDA(M=1) differs from FedSGDA")
    return f"{rounds} rounds bit-exact"


def _dann_split(p: float = 0.75, drop: int = 7) -> list:
    """Two DANN clients on the toy split at p; the second shard loses its last `drop` points."""
    train, _, layout = domain_shift_toy(seeded_rng(19), n_per_domain=20, holdout_n=4)
    shards = partition_label_shift(train, PartitionSpec(p=p), seeded_rng(20))
    shards[1] = shards[1].subset(np.arange(len(shards[1]) - drop))
    return [DomainAdaptObjective(s, nu=0.5, layout=layout) for s in shards]


def _dann_cases() -> list:
    """(objectives, the view stacked() must give them): unequal shards, then equal ones.

    At p = 1.0 one shard holds every labeled point and the other none; at
    p = 0.5 both shards mix labeled and unlabeled points.
    """
    return [
        (_dann_split(), _SizeGroups),
        (_dann_split(1.0, drop=0), _StackedDomainAdapt),
        (_dann_split(0.5, drop=0), _StackedDomainAdapt),
    ]


def _assert_view(objs, view_type) -> None:
    got = type(stacked(objs))
    if got is not view_type:
        sizes = [len(o.dataset) for o in objs]
        raise AssertionError(f"shards of {sizes} points got {got.__name__}, not {view_type.__name__}")


_OUTCOME = ("omega", "psi", "lam", "beta", "upload")


def _outcome(fed: Federation, upload: np.ndarray) -> tuple:
    # a round's arrays in _OUTCOME order
    return (fed.omega, fed.psi, fed.lam, fed.beta, upload)


def check_row_independence() -> str:
    """One N-client stacked round equals N single-client rounds of the same kernel, bit for bit."""
    quad = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
    dann_hp = HyperParams(eta1=0.1, eta2=0.25, nu=0.5, local_steps=(10,))
    cases = [
        (quad, HyperParams(eta1=0.1, eta2=0.1, local_steps=(20, 20, 25))),
        (quad, HyperParams(eta1=0.2, eta2=0.2, local_tol=1e-10)),
    ]
    for objs, view_type in _dann_cases():
        _assert_view(objs, view_type)
        cases.append((objs, dann_hp))
    rng = seeded_rng(21)
    rows = 0
    for objs, hp in cases:
        d1, d2 = objs[0].dims
        start = PrimalDualPair(
            vector(0.1 * rng.standard_normal(d1)), vector(0.1 * rng.standard_normal(d2))
        )
        for kind in (k for k in OptimizerKind if k is not OptimizerKind.CENTRAL_GDA):
            # one round first, so that FedMM's duals are no longer zero
            server = ServerState(start)
            fed = Federation.initial(objs, start)
            local = LocalRound(kind, fed.view, hp)
            fed = run_round(local, fed, server)
            gp, t = server.global_pair, server.round
            whole = _outcome(*local(fed, gp, t))
            for r, obj in enumerate(objs):
                one = Federation(stacked([obj]), fed.Z[r : r + 1], fed.D[r : r + 1])
                hp_r = replace(hp, local_steps=(hp.expanded(len(objs)).local_steps[r],))
                alone = _outcome(*LocalRound(kind, one.view, hp_r)(one, gp, t))
                for name, a, b in zip(_OUTCOME, whole, alone):
                    if not np.array_equal(a[r], b[0]):
                        raise AssertionError(
                            f"{kind.value}: client {r}'s {name} differs between the "
                            f"{len(objs)}-client and the single-client round"
                        )
                rows += 1
    return f"{rows} client rows bit-exact"


def check_stacked_oracles() -> str:
    """The metric oracles through the stacked view equal the plain per-client formulas, bit for bit.

    Each case runs three rounds and checks every round twice: the one-round
    calls right after it, and run_experiment's MetricsBlock over the whole
    three-round block.
    """
    cases = [
        ([QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)], 1e-12),
        ([QuadraticSaddle(s) for s in synthetic_quadratic_specs(32, 20, 10)], 1e-12),
    ]
    for objs, view_type in _dann_cases():
        _assert_view(objs, view_type)
        cases.append((objs, 1e-6))
    hp = HyperParams(eta1=0.1, eta2=0.1, local_steps=(5,))
    rng = seeded_rng(22)
    samples = 0
    for objs, tol in cases:
        d1, d2 = objs[0].dims
        start = PrimalDualPair(
            vector(0.1 * rng.standard_normal(d1)), vector(0.1 * rng.standard_normal(d2))
        )
        server = ServerState(start)
        fed = Federation.initial(objs, start)
        block = MetricsBlock(fed.view, 3, tol)
        local = LocalRound(OptimizerKind.FEDMM, fed.view, hp)
        want = []
        for t in range(3):
            fed = run_round(local, fed, server)
            gp = server.global_pair
            loss, (phi_value, phi_grad), cons = per_client_oracles(objs, fed.omega, fed.psi, gp, tol)
            got_value, got_grad = phi_value_and_grad(fed.view, gp.omega, tol)
            where = f"{len(objs)}-client {type(objs[0]).__name__} round {server.round}"
            if pooled(fed.view).values(gp.row[None])[0] != loss:
                raise AssertionError(f"{where}: stacked global loss differs")
            if got_value != phi_value or not np.array_equal(got_grad, phi_grad):
                raise AssertionError(f"{where}: stacked phi oracle differs")
            if consensus(fed.Z, gp.row, d1) != cons:
                raise AssertionError(f"{where}: stacked consensus differs")
            block.add(t, fed, server, True)
            want.append((loss, float(np.linalg.norm(phi_grad)), cons))
            samples += 1
        log = RunLog()
        block.flush(log)
        for row, (loss, phi_norm, cons) in zip(log.rounds, want):
            where = f"{len(objs)}-client {type(objs[0]).__name__} block row {row.round}"
            if row.global_loss != loss:
                raise AssertionError(f"{where}: block global loss differs")
            if row.phi_grad_norm != phi_norm:
                raise AssertionError(f"{where}: block phi gradient norm differs")
            if (row.consensus_omega, row.consensus_psi) != cons:
                raise AssertionError(f"{where}: block consensus differs")
    return f"loss, phi oracle and consensus bit-exact at {samples} rounds, one at a time and in blocks"


def check_stationary_saddle_fixed() -> str:
    # A=0, B=I, C=I, a=0, c=0: the origin is an exact per-client saddle.
    d = 3
    spec = QuadraticSaddleSpec(
        A=np.zeros((d, d)), B=np.eye(d), C=np.eye(d), a=vector(np.zeros(d)), c=vector(np.zeros(d))
    )
    view = stacked([QuadraticSaddle(spec) for _ in range(2)])
    pair = PrimalDualPair(vector(np.zeros(d)), vector(np.zeros(d)))
    hp = HyperParams(eta1=0.1, eta2=0.1, local_steps=(5,))
    for kind in OptimizerKind:
        server = ServerState(pair)
        fed = Federation.initial(PooledView(view) if kind is OptimizerKind.CENTRAL_GDA else view, pair)
        fed = run_round(LocalRound(kind, fed.view, hp), fed, server)
        if not np.array_equal(server.global_pair.row, pair.row):
            raise AssertionError(f"{kind.value} moved an exact stationary saddle")
        if fed.lam.any() or fed.beta.any():
            raise AssertionError(f"{kind.value} perturbed zero duals at a saddle")
    return "all optimizers leave the saddle fixed"


def check_kappa_bound(seed: int = 17, pairs: int = 10) -> str:
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
    rng = seeded_rng(seed)
    d1 = objs[0].dims[0]
    probes = [
        (vector(rng.standard_normal(d1)), vector(rng.standard_normal(d1))) for _ in range(pairs)
    ]
    est = estimate_kappa(objs, probes, tol=1e-12)
    bound = quadratic_kappa_bound(objs)
    if est > bound + 1e-8:
        raise AssertionError(f"kappa estimate {est:.6f} exceeds closed form {bound:.6f}")
    return f"estimate {est:.4f} <= bound {bound:.4f}"


def _records(datasets) -> np.ndarray:
    """Every point of the datasets, in order, as one row [x | y | domain]."""
    return np.concatenate([np.column_stack((d.X, d.y, d.domain)) for d in datasets])


def check_partition_cover(
    p: float = 0.75, seed: int = 99, data_seed: int = 18, mode: PartitionMode = PartitionMode.TWO_CLIENT_P
) -> str:
    """The split in `mode` at p is a function of its seed, and its shards hold the input's points, each once."""
    train, _, _ = domain_shift_toy(seeded_rng(data_seed), n_per_domain=40, holdout_n=4)
    spec = PartitionSpec(p=p, mode=mode)
    shards_a = partition_label_shift(train, spec, seeded_rng(seed))
    shards_b = partition_label_shift(train, spec, seeded_rng(seed))
    for sa, sb in zip(shards_a, shards_b):
        if not np.array_equal(_records([sa]), _records([sb])):
            raise AssertionError("partition is not deterministic for a fixed seed")
    total = sum(len(s) for s in shards_a)
    if total != len(train):
        raise AssertionError(f"partition does not cover: {total} != {len(train)}")
    merged, want = _records(shards_a), _records([train])
    if not np.array_equal(merged[np.lexsort(merged.T)], want[np.lexsort(want.T)]):
        raise AssertionError("partition multiset differs from input")
    return f"{len(shards_a)} shards cover {total} points deterministically"


def check_non_pd_rejected() -> str:
    spec = QuadraticSaddleSpec(
        A=np.zeros((1, 1)),
        B=np.ones((1, 1)),
        C=np.array([[-1.0]]),
        a=vector([0.0]),
        c=vector([0.0]),
    )
    try:
        QuadraticSaddle(spec)
    except ValueError as e:
        if "eigenvalue" not in str(e):
            raise AssertionError(f"wrong error for non-PD C: {e}")
        return "non-PD C rejected with eigenvalue report"
    raise AssertionError("non-PD C was accepted")


def builtin_checks() -> list[tuple[str, "object"]]:
    return [
        ("quadratic_gradients", check_quadratic_gradients),
        ("domain_adapt_gradients", check_domain_adapt_gradients),
        ("inner_max_paths_agree", check_inner_max_paths_agree),
        ("danskin_stationarity", check_danskin_stationarity),
        ("identity_suite", check_identity_suite),
        ("dual_recovery", check_dual_recovery),
        ("equiv_fedsgda_central", check_equiv_fedsgda_central),
        ("equiv_fedprox_fedavg", check_equiv_fedprox_fedavg),
        ("equiv_fedavg_fedsgda", check_equiv_fedavg_fedsgda),
        ("row_independence", check_row_independence),
        ("stacked_oracles", check_stacked_oracles),
        ("stationary_saddle_fixed", check_stationary_saddle_fixed),
        ("kappa_bound", check_kappa_bound),
        ("partition_cover", check_partition_cover),
        ("non_pd_rejected", check_non_pd_rejected),
    ]


def run_builtin_checks(verbose_print=print) -> bool:
    """Execute every check, print one line each, return overall pass/fail."""
    all_ok = True
    for name, fn in builtin_checks():
        try:
            detail = fn()
            verbose_print(f"PASS  {name:<26} {detail}")
        except Exception as e:  # report, never crash the suite
            all_ok = False
            verbose_print(f"FAIL  {name:<26} {e}")
    return all_ok


# ------------------- the plain-numpy per-client reference ------------------- #


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


def quad_value(obj, om, ps):
    return float(
        0.5 * om @ obj.A @ om + om @ obj.B @ ps - 0.5 * ps @ obj.C @ ps + obj.a @ om + obj.c @ ps
    )


def quad_grad_omega(obj, om, ps):
    return obj.A @ om + obj.B @ ps + obj.a


def quad_grad_psi(obj, om, ps):
    return obj.B.T @ om - obj.C @ ps + obj.c


def client_value(obj, om, ps) -> float:
    """One quadratic or DANN client's value by the formulas above."""
    return quad_value(obj, om, ps) if isinstance(obj, QuadraticSaddle) else dann_value(obj, om, ps)


def client_grads(obj, om, ps):
    """(grad_omega, grad_psi) of one quadratic or DANN client by the formulas above."""
    if isinstance(obj, QuadraticSaddle):
        return quad_grad_omega(obj, om, ps), quad_grad_psi(obj, om, ps)
    return dann_grads(obj, om, ps)


def ref_mean(rows):
    """Client average, adding one client after the other from a copy of the first."""
    total = np.array(rows[0])
    for row in rows[1:]:
        total += row
    return total / len(rows)


def mean_value(objs, om, ps) -> float:
    """The clients' mean value at one point: a zero-started loop in client order, never a compensated sum."""
    total = 0.0
    for o in objs:
        total = total + client_value(o, om, ps)
    return total / len(objs)


def per_client_oracles(objs, OM, PS, pair: PrimalDualPair, tol: float):
    """(loss, (phi value, phi gradient), consensus) at the clients' rows (OM, PS) and the global pair.

    psi* is the quadratic's closed form, or for DANN an ascent from zero to tol.
    """
    om, ps = pair.omega, pair.psi
    if isinstance(objs[0], QuadraticSaddle):
        Bbar, Cbar, cbar = (sum(getattr(o, k) for o in objs) / len(objs) for k in "BCc")
        psi = np.linalg.solve(Cbar, Bbar.T @ om + cbar)
    else:
        step = 1.0 / max(max(dann_curvature_bound(o, om) for o in objs), 1e-12)
        psi = np.zeros(objs[0].dims[1])
        g = ref_mean([dann_grad_psi(o, om, psi) for o in objs])
        while float(np.linalg.norm(g)) > tol:
            psi = psi + step * g
            g = ref_mean([dann_grad_psi(o, om, psi) for o in objs])
    phi = (mean_value(objs, om, psi), ref_mean([client_grads(o, om, psi)[0] for o in objs]))
    cons = (
        max(float(np.linalg.norm(row - om)) for row in OM),
        max(float(np.linalg.norm(row - ps)) for row in PS),
    )
    return mean_value(objs, om, ps), phi, cons
