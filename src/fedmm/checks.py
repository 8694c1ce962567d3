"""Built-in verification suite behind the `check` subcommand.

Each check runs on a small fixture and either returns a detail string
(pass) or raises (fail); the runner traps exceptions so a bad fixture shows
up as a named failure instead of a crash. A check's keyword arguments are
its fixture's inputs, and their defaults are the fixture `fedmm check` runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from fedmm.core import HyperParams, PrimalDualPair, ServerState, seeded_rng, vector
from fedmm.diagnostics import (
    estimate_kappa,
    finite_diff_grad,
    local_solve_error,
    quadratic_kappa_bound,
    run_identity_suite,
)
from fedmm.federation import (
    MetricsBlock,
    PartitionMode,
    PartitionSpec,
    RunLog,
    consensus,
    partition_label_shift,
)
from fedmm.objectives import (
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
    g = pooled(view).grad_psi(np.concatenate((om, psi_star))[None])[0]
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


def _mean_in_client_order(rows):
    # zero-started, one client after the other: a plain loop, never sum()'s compensated sum
    total = 0.0
    for row in rows:
        total = total + row
    return total / len(rows)


def _per_client_oracles(objs, fed: Federation, pair: PrimalDualPair, tol: float):
    """(loss, (phi value, phi gradient), consensus), one objective after the other."""
    om, ps = pair.omega, pair.psi
    loss = _mean_in_client_order([o.value(om, ps) for o in objs])
    if all(isinstance(o, QuadraticSaddle) for o in objs):
        Bbar, Cbar, cbar = (_mean_in_client_order([getattr(o, k) for o in objs]) for k in "BCc")
        psi = np.linalg.solve(Cbar, Bbar.T @ om + cbar)
    else:
        step = 1.0 / max(max(stacked([o]).curvature_bounds(om[None])[0] for o in objs), 1e-12)
        psi = np.zeros(objs[0].dims[1])
        g = _mean_in_client_order([o.grad_psi(om, psi) for o in objs])
        while float(np.linalg.norm(g)) > tol:
            psi = psi + step * g
            g = _mean_in_client_order([o.grad_psi(om, psi) for o in objs])
    phi = (
        _mean_in_client_order([o.value(om, psi) for o in objs]),
        _mean_in_client_order([o.grad_omega(om, psi) for o in objs]),
    )
    cons = (
        max(float(np.linalg.norm(row - om)) for row in fed.omega),
        max(float(np.linalg.norm(row - ps)) for row in fed.psi),
    )
    return loss, phi, cons


def check_stacked_oracles() -> str:
    """The metric oracles through the stacked view equal the per-client path, bit for bit.

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
            loss, (phi_value, phi_grad), cons = _per_client_oracles(objs, fed, gp, tol)
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


def check_partition_cover(p: float = 0.75, seed: int = 99, data_seed: int = 18) -> str:
    """The split at p is a function of its seed, and its shards hold the input's points, each once."""
    train, _, _ = domain_shift_toy(seeded_rng(data_seed), n_per_domain=40, holdout_n=4)
    spec = PartitionSpec(p=p, mode=PartitionMode.TWO_CLIENT_P)
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
