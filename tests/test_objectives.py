from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmm.checks import (
    check_danskin_stationarity,
    check_inner_max_paths_agree,
    client_grads,
    client_value,
    dann_grads,
    finite_diff_grad,
    grad_check,
    rel_err,
)
from fedmm.core import ConvergenceError, seeded_rng, vector
from fedmm.objectives import (
    SOURCE,
    TARGET,
    UNLABELED,
    DomainAdaptDataset,
    DomainAdaptObjective,
    ModelLayout,
    QuadraticSaddle,
    QuadraticSaddleSpec,
    StackedObjectives,
    _ascent,
    _symmetric,
    inner_maximizers,
    load_dataset,
    load_quadratic_objectives,
    load_quadratic_specs,
    phi_value_and_grad,
    pooled,
    quadratic_bars,
    save_dataset,
    save_quadratic_specs,
    stacked,
)
from fedmm.problems import domain_shift_toy, synthetic_quadratic_specs
from reference_math import lipschitz_bounds, strong_concavity_modulus


def scalar_saddle():
    """f = om*ps - ps^2/2: the textbook one-dimensional saddle."""
    return QuadraticSaddle(
        QuadraticSaddleSpec(
            A=np.zeros((1, 1)), B=np.ones((1, 1)), C=np.eye(1), a=vector([0.0]), c=vector([0.0])
        )
    )


class TestQuadraticSaddle:
    def test_value_hand(self):
        obj = scalar_saddle()
        assert obj.value(vector([1.0]), vector([1.0])) == pytest.approx(0.5)

    def test_grad_psi_zero_at_matched(self):
        obj = scalar_saddle()
        assert np.array_equal(obj.grad_psi(vector([1.0]), vector([1.0])), [0.0])

    def test_grad_omega_coupling(self):
        obj = scalar_saddle()
        assert np.array_equal(obj.grad_omega(vector([0.0]), vector([2.0])), [2.0])

    def test_non_pd_rejected_with_eigenvalue(self):
        spec = QuadraticSaddleSpec(
            A=np.zeros((1, 1)), B=np.ones((1, 1)), C=np.array([[-0.5]]),
            a=vector([0.0]), c=vector([0.0]),
        )
        with pytest.raises(ValueError, match="eigenvalue"):
            QuadraticSaddle(spec)

    def test_asymmetric_a_rejected(self):
        spec = QuadraticSaddleSpec(
            A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.zeros((2, 1)), C=np.eye(1),
            a=vector([0.0, 0.0]), c=vector([0.0]),
        )
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticSaddle(spec)

    def test_strong_concavity_inequality(self):
        specs = synthetic_quadratic_specs(3)
        objs = [QuadraticSaddle(s) for s in specs]
        rng = seeded_rng(5)
        for obj in objs:
            d1, d2 = obj.dims
            modulus = strong_concavity_modulus(obj) - 1e-10
            for _ in range(25):
                om = vector(rng.standard_normal(d1))
                ps = vector(rng.standard_normal(d2))
                ps2 = vector(rng.standard_normal(d2))
                lhs = float(
                    (obj.grad_psi(om, ps) - obj.grad_psi(om, ps2)) @ (ps - ps2)
                )
                assert lhs <= -modulus * float(np.linalg.norm(ps - ps2)) ** 2 + 1e-12

    def test_lipschitz_sampling_never_exceeds_bounds(self):
        obj = QuadraticSaddle(synthetic_quadratic_specs(1)[0])
        L = lipschitz_bounds(obj)
        d1, d2 = obj.dims
        rng = seeded_rng(6)
        for _ in range(50):
            om, om2 = rng.standard_normal(d1), rng.standard_normal(d1)
            ps, ps2 = rng.standard_normal(d2), rng.standard_normal(d2)
            if np.linalg.norm(om - om2) > 0:
                r11 = np.linalg.norm(obj.grad_omega(om, ps) - obj.grad_omega(om2, ps)) / np.linalg.norm(om - om2)
                r21 = np.linalg.norm(obj.grad_psi(om, ps) - obj.grad_psi(om2, ps)) / np.linalg.norm(om - om2)
                assert r11 <= L["L11"] + 1e-9 and r21 <= L["L21"] + 1e-9
            if np.linalg.norm(ps - ps2) > 0:
                r12 = np.linalg.norm(obj.grad_omega(om, ps) - obj.grad_omega(om, ps2)) / np.linalg.norm(ps - ps2)
                r22 = np.linalg.norm(obj.grad_psi(om, ps) - obj.grad_psi(om, ps2)) / np.linalg.norm(ps - ps2)
                assert r12 <= L["L12"] + 1e-9 and r22 <= L["L22"] + 1e-9


class TestDomainAdaptObjective:
    def setup_method(self):
        self.layout = ModelLayout(in_dim=2, feat_dim=2, n_classes=2)
        self.zero_om = vector(np.zeros(self.layout.d1))
        self.zero_ps = vector(np.zeros(self.layout.d2))

    def test_single_source_point_uniform_logits(self):
        ds = DomainAdaptDataset(
            X=np.array([[1.0, 2.0]]), y=np.array([1]), domain=np.array([SOURCE])
        )
        nu = 0.7
        obj = DomainAdaptObjective(ds, nu, self.layout)
        want = np.log(2.0) + nu * np.log(0.5)
        assert obj.value(self.zero_om, self.zero_ps) == pytest.approx(want)

    def test_single_target_point_logistic_half(self):
        ds = DomainAdaptDataset(
            X=np.array([[1.0, -1.0]]), y=np.array([UNLABELED]), domain=np.array([TARGET])
        )
        nu = 0.3
        obj = DomainAdaptObjective(ds, nu, self.layout)
        assert obj.value(self.zero_om, self.zero_ps) == pytest.approx(nu * np.log(0.5))

    def test_empty_dataset_rejected(self):
        ds = DomainAdaptDataset(
            X=np.zeros((0, 2)), y=np.zeros(0, dtype=int), domain=np.zeros(0, dtype=int)
        )
        with pytest.raises(ValueError, match="empty"):
            DomainAdaptObjective(ds, 0.5, self.layout)

    def test_label_out_of_range_rejected(self):
        ds = DomainAdaptDataset(
            X=np.array([[1.0, 0.0]]), y=np.array([5]), domain=np.array([SOURCE])
        )
        with pytest.raises(ValueError, match="class range"):
            DomainAdaptObjective(ds, 0.5, self.layout)

    def test_unlabeled_source_rejected(self):
        with pytest.raises(ValueError, match="label"):
            DomainAdaptDataset(
                X=np.array([[1.0, 0.0]]), y=np.array([UNLABELED]), domain=np.array([SOURCE])
            )

    @pytest.mark.parametrize("flag", [2, -1])
    def test_unknown_domain_flag_rejected(self, flag):
        with pytest.raises(ValueError, match="domain flags"):
            DomainAdaptDataset(
                X=np.zeros((2, 2)), y=np.array([0, UNLABELED]), domain=np.array([SOURCE, flag])
            )

    def test_labeled_target_rejected_unless_holdout(self):
        with pytest.raises(ValueError, match="unlabeled"):
            DomainAdaptDataset(
                X=np.array([[1.0, 0.0]]), y=np.array([1]), domain=np.array([TARGET])
            )
        ds = DomainAdaptDataset(
            X=np.array([[1.0, 0.0]]), y=np.array([1]), domain=np.array([TARGET]), holdout=True
        )
        with pytest.raises(ValueError, match="evaluation-only"):
            DomainAdaptObjective(ds, 0.5, self.layout)

    def test_gradients_match_finite_differences(self):
        train, _, layout = domain_shift_toy(seeded_rng(21), n_per_domain=16, holdout_n=4)
        obj = DomainAdaptObjective(train, nu=0.4, layout=layout)
        grad_check(obj, seeded_rng(22), 10, tol=1e-5, scale=0.5)

    def test_deterministic_evaluation(self):
        train, _, layout = domain_shift_toy(seeded_rng(23), n_per_domain=10, holdout_n=4)
        obj = DomainAdaptObjective(train, nu=0.4, layout=layout)
        rng = seeded_rng(24)
        om = vector(rng.standard_normal(layout.d1))
        ps = vector(rng.standard_normal(layout.d2))
        assert obj.value(om, ps) == obj.value(om, ps)
        assert np.array_equal(obj.grad_omega(om, ps), obj.grad_omega(om, ps))


def joint(obj, om, ps):
    """(grad_omega, grad_psi) of one joint pass: the objective's one-row view at [om | ps]."""
    G = stacked([obj]).joint_grads(np.concatenate((om, ps))[None])[0]
    return G[: obj.dims[0]], G[obj.dims[0] :]


def assert_grads_match_single_blocks(obj, seed):
    d1, d2 = obj.dims
    rng = seeded_rng(seed)
    for _ in range(5):
        om = vector(rng.standard_normal(d1))
        ps = vector(rng.standard_normal(d2))
        g_om, g_ps = joint(obj, om, ps)
        assert np.array_equal(g_om, obj.grad_omega(om, ps))
        assert np.array_equal(g_ps, obj.grad_psi(om, ps))


class TestFusedGrads:
    @pytest.mark.parametrize("shard", ["all_labeled", "all_unlabeled", "mixed"])
    @pytest.mark.parametrize("layout", [None, ModelLayout(in_dim=2, feat_dim=3, n_classes=3)])
    def test_dann_matches_single_blocks_and_reference(self, shard, layout):
        train, _, toy_layout = domain_shift_toy(seeded_rng(26), n_per_domain=12, holdout_n=4)
        layout = layout or toy_layout
        idx = {
            "all_labeled": np.flatnonzero(train.domain == SOURCE),
            "all_unlabeled": np.flatnonzero(train.domain == TARGET),
            "mixed": np.arange(0, len(train), 3),
        }[shard]
        obj = DomainAdaptObjective(train.subset(idx), nu=0.4, layout=layout)
        assert_grads_match_single_blocks(obj, seed=27)
        rng = seeded_rng(28)
        om = vector(rng.standard_normal(layout.d1))
        ps = vector(rng.standard_normal(layout.d2))
        for g, want in zip(joint(obj, om, ps), dann_grads(obj, om, ps)):
            assert np.array_equal(g, want)
        for g, want in zip((obj.grad_omega(om, ps), obj.grad_psi(om, ps)), dann_grads(obj, om, ps)):
            assert np.array_equal(g, want)
            assert not g.flags.writeable

    def test_quadratic(self):
        assert_grads_match_single_blocks(QuadraticSaddle(synthetic_quadratic_specs(1)[0]), 29)


def one_row_objective(kind):
    """A built-in quadratic or DANN objective."""
    if kind == "quadratic":
        return QuadraticSaddle(synthetic_quadratic_specs(1, 5, 3)[0])
    train, _, layout = domain_shift_toy(seeded_rng(30), n_per_domain=12, holdout_n=4)
    return DomainAdaptObjective(train, nu=0.4, layout=layout)


class TestOneRowViews:
    """Each built-in objective computes through a one-row stacked view of itself."""

    @pytest.mark.parametrize("kind", ["quadratic", "dann"])
    def test_methods_equal_the_reference(self, kind):
        obj = one_row_objective(kind)
        d1, d2 = obj.dims
        rng = seeded_rng(31)
        for _ in range(5):
            om, ps = rng.standard_normal(d1), rng.standard_normal(d2)
            want = client_grads(obj, om, ps)
            # array-likes work as well as arrays
            for args in ((om, ps), (om.tolist(), ps.tolist())):
                assert obj.value(*args) == client_value(obj, om, ps)
                got = (obj.grad_omega(*args), obj.grad_psi(*args))
                for g, w in zip(got, want):
                    assert np.array_equal(g, w) and not g.flags.writeable
            for g, w in zip(joint(obj, om, ps), want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("kind", ["quadratic", "dann"])
    def test_single_block_calls_keep_no_view(self, kind):
        obj = one_row_objective(kind)
        attrs = set(vars(obj))
        om, ps = np.ones(obj.dims[0]), np.ones(obj.dims[1])
        obj.value(om, ps), obj.grad_omega(om, ps), obj.grad_psi(om, ps)
        assert set(vars(obj)) == attrs


def ascent_step(view) -> float:
    """The 1 / ||Cbar|| step of a gradient ascent on quadratic clients' pooled row."""
    return 1.0 / float(np.linalg.norm(quadratic_bars(view).C, 2))


def inner_max(view, omega, tol, max_iters=100_000):
    """The inner maximizer at one omega; its failed solve's ConvergenceError raises."""
    psi, (error,) = inner_maximizers(view, np.asarray(omega)[None], tol, max_iters)
    if error is not None:
        raise error
    return psi[0]


class TestInnerMax:
    def test_closed_form_single_client(self):
        obj = scalar_saddle()
        got = inner_max(stacked([obj]), vector([3.0]), tol=1e-12)
        assert np.allclose(got, [3.0], atol=1e-12)

    def test_zero_stationary_point(self):
        obj = scalar_saddle()
        assert np.allclose(inner_max(stacked([obj]), vector([0.0]), tol=1e-12), [0.0])

    def test_ascent_agrees_with_closed_form(self):
        check_inner_max_paths_agree(seed=8)

    def test_nonconvergence_raises_with_grad_norm(self):
        objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(2)]
        om = vector(seeded_rng(9).standard_normal(objs[0].dims[0]))
        view = stacked(objs)
        with pytest.raises(ConvergenceError) as exc:
            _ascent(pooled(view), om[None], ascent_step(view), tol=1e-14, max_iters=3)
        assert exc.value.grad_norm > 0

    def test_danskin_directional_derivative(self):
        check_danskin_stationarity(seed=10)


class SteepSaddle(StackedObjectives):
    """One client with f = omega . psi - (k/2) ||psi||^2: psi-curvature k = 50, far above 1."""

    k = 50.0
    dims, n = (2, 2), 1

    def grad_psi(self, Z):
        return Z[..., :2] - self.k * Z[..., 2:]


class TestInnerMaxObjectiveTypes:
    def test_unknown_type_rejected_at_entry(self):
        # a unit ascent step on curvature 50 diverges; there is no bound to
        # size the step from, so the inner maximizer must refuse instead of guessing
        with pytest.raises(ValueError, match="SteepSaddle"):
            inner_max(SteepSaddle(), vector([1.0, -2.0]), tol=1e-10, max_iters=200)
        with pytest.raises(ValueError, match="SteepSaddle"):
            phi_value_and_grad(SteepSaddle(), vector([1.0, -2.0]), tol=1e-10, max_iters=200)

    def test_mixed_list_rejected(self):
        train, _, layout = domain_shift_toy(seeded_rng(44), n_per_domain=8, holdout_n=4)
        dann = DomainAdaptObjective(train, nu=0.5, layout=layout)

        class Wrapped(SteepSaddle):
            dims = dann.dims

        with pytest.raises(ValueError, match="objective 1 is a Wrapped"):
            stacked([dann, Wrapped()])


class TestPhi:
    def test_symbolic_elimination(self):
        # f = om*ps - ps^2/2 has psi*(om) = om and max-value om^2/2
        obj = scalar_saddle()
        val, grad = phi_value_and_grad(stacked([obj]), vector([1.0]), tol=1e-12)
        assert val == pytest.approx(0.5)
        assert np.allclose(grad, [1.0], atol=1e-12)

    def test_origin_stationary(self):
        obj = scalar_saddle()
        _, grad = phi_value_and_grad(stacked([obj]), vector([0.0]), tol=1e-12)
        assert np.allclose(grad, [0.0], atol=1e-12)

    def test_phi_grad_matches_finite_differences(self):
        objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3)]
        view = stacked(objs)
        d1 = objs[0].dims[0]
        rng = seeded_rng(11)
        for _ in range(5):
            om = vector(rng.standard_normal(d1))
            _, grad = phi_value_and_grad(view, om, tol=1e-12)
            fd = finite_diff_grad(lambda v: phi_value_and_grad(view, v, tol=1e-12)[0], om, 1e-6)
            assert rel_err(grad, fd) <= 1e-5


class TestTextFormats:
    def test_quadratic_roundtrip(self, tmp_path):
        specs = synthetic_quadratic_specs(2)
        path = tmp_path / "instance.txt"
        save_quadratic_specs(path, specs)
        loaded = load_quadratic_specs(path)
        assert len(loaded) == 2
        for s, l in zip(specs, loaded):
            assert np.array_equal(s.A, l.A)
            assert np.array_equal(s.B, l.B)
            assert np.array_equal(s.C, l.C)
            assert np.array_equal(s.a, l.a)
            assert np.array_equal(s.c, l.c)

    def test_dataset_roundtrip(self, tmp_path):
        train, _, _ = domain_shift_toy(seeded_rng(25), n_per_domain=8, holdout_n=4)
        path = tmp_path / "data.txt"
        save_dataset(path, train, n_classes=2)
        loaded, n_classes = load_dataset(path)
        assert n_classes == 2
        assert np.array_equal(loaded.X, train.X)
        assert np.array_equal(loaded.y, train.y)
        assert np.array_equal(loaded.domain, train.domain)

    def test_header_and_comments(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("# a scalar saddle\n1 1 1\n0.0  # A\n1.0\n1.0\n0.0\n0.0\n")
        (spec,) = load_quadratic_specs(path)
        assert spec.B[0, 0] == 1.0

    @pytest.mark.parametrize("header", ["-1 2 0", "0 1 1", "1 0 1", "1 1 0"])
    def test_non_positive_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad_header.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="bad_header.txt.*positive"):
            load_quadratic_specs(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 2\n0.0 1.0 1.0 0.0 0.0\n")
        with pytest.raises(ValueError, match="expected"):
            load_quadratic_specs(path)


@st.composite
def _instances(draw):
    """Valid quadratic specs: N 1-5, d1 1-6, d2 1-6, entries over many magnitudes."""
    n, d1, d2 = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = seeded_rng(draw(st.integers(0, 2**32)))
    specs = []
    for _ in range(n):
        scale = 10.0 ** rng.integers(-100, 100)
        A = rng.standard_normal((d1, d1))
        M = rng.standard_normal((d2, d2))
        M = M @ M.T + d2 * np.eye(d2)
        a = rng.standard_normal(d1) * scale
        a[0] = -0.0 if draw(st.booleans()) else a[0]
        specs.append(QuadraticSaddleSpec(
            A=(A + A.T) * scale, B=rng.standard_normal((d1, d2)) * scale,
            C=0.5 * (M + M.T) * scale, a=a, c=rng.standard_normal(d2) * scale,
        ))
    return specs


def _decorate(text: str, comments: bool, blank_lines: bool, tabs: bool, crlf: bool) -> bytes:
    """The same tokens laid out differently: comments, blank lines, tabs, CRLF line ends."""
    lines = text.splitlines()
    if tabs:
        lines = [line.replace(" ", "\t \t") for line in lines]
    if comments:
        lines = [f"{line} # row {i}: 9.5 nan -2" for i, line in enumerate(lines)]
        lines.insert(0, "# an instance 1 2 3")
    if blank_lines:
        lines = [part for line in lines for part in (line, "", " \t ")]
    sep = "\r\n" if crlf else "\n"
    return (sep.join(lines) + sep).encode()


class TestQuadraticFiles:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        specs=_instances(), comments=st.booleans(), blank_lines=st.booleans(),
        tabs=st.booleans(), crlf=st.booleans(),
    )
    def test_roundtrip_is_bit_identical(
        self, tmp_path_factory, specs, comments, blank_lines, tabs, crlf
    ):
        path = tmp_path_factory.mktemp("roundtrip") / "instance.txt"
        save_quadratic_specs(path, specs)
        path.write_bytes(_decorate(path.read_text(), comments, blank_lines, tabs, crlf))
        loaded = load_quadratic_specs(path)
        objectives = load_quadratic_objectives(path)
        assert len(loaded) == len(objectives) == len(specs)
        for want, got, obj in zip(specs, loaded, objectives):
            one = QuadraticSaddle(got)
            assert obj.dims == one.dims == (len(want.a), len(want.c))
            for name in ("A", "B", "C", "a", "c"):
                expect = np.ascontiguousarray(getattr(want, name)).tobytes()
                for block in (getattr(got, name), getattr(obj, name), getattr(one, name)):
                    assert block.dtype == np.float64 and not block.flags.writeable
                    assert block.tobytes() == expect

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        d=st.integers(1, 4),
        entries=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=16, max_size=16
        ),
        where=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        rel=st.one_of(
            st.just(0.0), st.floats(-3e-5, 3e-5),
            st.sampled_from([1e-5, -1e-5, 1e-5 * (1 + 2**-40), -1e-5 * (1 - 2**-40)]),
        ),
        shift=st.one_of(
            st.just(0.0), st.floats(-3e-12, 3e-12), st.sampled_from([1e-12, -1e-12])
        ),
    )
    def test_symmetry_rule_is_allclose(self, d, entries, where, rel, shift):
        """The one-expression symmetry check accepts exactly what np.allclose does."""
        X = np.array(entries).reshape(4, 4)[:d, :d]
        M = np.triu(X) + np.triu(X, 1).T
        i, j = where[0] % d, where[1] % d
        with np.errstate(over="ignore"):
            M[i, j] = M[i, j] * (1 + rel) + shift
        if not np.isfinite(M).all():
            return
        want = np.allclose(M, M.T, atol=1e-12)
        assert _symmetric(M[None])[0] == want
        assert _symmetric(np.stack([np.eye(d), M, M.T]))[1:].tolist() == [want, want]

    def test_loader_names_the_first_failing_client(self, tmp_path):
        specs = synthetic_quadratic_specs(4)
        specs[3] = replace(specs[3], a=np.full(4, np.nan))
        specs[2] = replace(specs[2], C=-specs[2].C)
        path = tmp_path / "two_bad.txt"
        save_quadratic_specs(path, specs)
        with pytest.raises(ValueError, match=r"two_bad.txt: client 2: C is not positive definite"):
            load_quadratic_specs(path)

    @pytest.mark.parametrize(
        "text, why",
        [("1 1 x\n", "must be integers"), ("1 1 1\n0 1 one 0 0\n", "could not convert")],
    )
    def test_unparseable_token_names_the_file(self, tmp_path, text, why):
        path = tmp_path / "garbled.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"garbled.txt: .*{why}"):
            load_quadratic_specs(path)

    @pytest.mark.parametrize(
        "block, value, why",
        [("B", np.nan, "B has a non-finite entry"), ("A", np.inf, "A has a non-finite entry"),
         ("c", -np.inf, "c has a non-finite entry")],
    )
    def test_single_objective_rejects_non_finite_entries(self, block, value, why):
        spec = synthetic_quadratic_specs(1)[0]
        m = np.array(getattr(spec, block))
        m.reshape(-1)[0] = value
        with pytest.raises(ValueError, match=why):
            QuadraticSaddle(replace(spec, **{block: m}))
