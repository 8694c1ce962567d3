"""Dispatch budgets of the hot path: a speed guard that takes no timings.

The local step's cost is interpreter overhead: every numpy call, view and
operator on the small arrays of a step costs about as much as its
arithmetic. These tests count that work in four places (one batched DANN
gradient on the label-shift toy's two-client view, one quadratic gradient,
one fixed-M FedMM local round on the toy, and one FedSGDA round with its
metric-block entry on a three-client quadratic) and fail when a change makes
any of them do more. Two counts are taken:

- C-level calls, the `c_call` events of `sys.setprofile`: builtins and
  method wrappers such as `ndarray.reshape` or `ufunc.reduce`. It does not
  see ufunc calls or operators.
- Operations in fedmm's own frames, from opcode tracing: every call
  (`CALL...`), binary operator and subscript (`BINARY_...`) and unary
  minus the package's code executes, numpy's included.

The budgets are the counts of the current code under CPython 3.11 and
numpy 2.4; each comment gives the count before the change that set it. Raise a
budget only with a reason, in the commit that needs it.
"""

import dis
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import fedmm
from fedmm.cli import parse_config
from fedmm.core import HyperParams, PrimalDualPair, ServerState, zeros
from fedmm.federation import MetricsBlock, prepare
from fedmm.objectives import QuadraticSaddle
from fedmm.optim import Federation, OptimizerKind, local_solve, run_round
from fedmm.problems import synthetic_quadratic_specs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PACKAGE = str(Path(fedmm.__file__).resolve().parent)
OPERATIONS = ("CALL", "BINARY_", "STORE_SUBSCR", "STORE_SLICE", "UNARY_NEGATIVE")


def c_calls(fn) -> int:
    """The c_call events while fn() runs, without the call that stops the count."""
    count = Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            count[arg] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return sum(count.values()) - 1


def operations(fn) -> int:
    """The call, binary-operator, subscript and negation opcodes run in fedmm's frames."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode" and dis.opname[frame.f_code.co_code[frame.f_lasti]].startswith(OPERATIONS):
            count += 1
        return opcode

    def call(frame, event, arg):
        if str(Path(frame.f_code.co_filename).resolve()).startswith(PACKAGE):
            frame.f_trace_opcodes = True
            return opcode
        return None

    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def toy():
    """The shipped label-shift FedMM run's two-client federation and hyperparameters."""
    config = parse_config(CONFIGS / "label_shift_fedmm.cfg", [])
    problem = prepare(config)
    fed = Federation.initial(problem.clients, problem.init_pair)
    return fed, problem.init_pair, config.hyper.expanded(fed.n)


def test_dann_joint_grads():
    fed, _, _ = toy()
    Z = np.array(fed.Z)
    assert c_calls(lambda: fed.view.joint_grads(Z)) <= 12  # 14 before
    assert operations(lambda: fed.view.joint_grads(Z)) <= 57  # 76 before


def test_quadratic_joint_grads():
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3, 2, 2)]
    fed = Federation.initial(objs, PrimalDualPair(zeros(2), zeros(2)))
    Z = np.ones((3, 4))
    assert c_calls(lambda: fed.view.joint_grads(Z)) <= 1  # 1 before
    assert operations(lambda: fed.view.joint_grads(Z)) <= 24  # 24 before


def test_fixed_m_fedmm_local_round():
    fed, pair, hp = toy()
    assert hp.local_steps == (50, 50) and hp.local_tol == 0.0

    def round_():
        local_solve(OptimizerKind.FEDMM, fed, pair, hp)

    assert c_calls(round_) <= 660  # 809 before
    assert operations(round_) <= 3527  # 4476 before


def fedsgda_round():
    """Round 1 of a fresh quad_fedsgda_rounds-shaped FedSGDA run and its metric-block entry.

    Three quadratic clients with d1 = 4 and d2 = 3, with the shipped FedSGDA
    config's instance and step sizes. Round 0 runs here, so that the counted
    round finds its step weights cached, as every round of a run but the first does.
    """
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3, 4, 3)]
    pair = PrimalDualPair(zeros(4), zeros(3))
    fed, server = Federation.initial(objs, pair), ServerState(pair)
    hp = HyperParams(eta1=0.1, eta2=0.1).expanded(3)
    block = MetricsBlock(fed.view, 3, 64, hp.tol)

    def round_():
        nonlocal fed
        fed = run_round(OptimizerKind.FEDSGDA, fed, server, hp)
        block.add(server.round, fed, server, False)

    round_()
    return round_


def test_fedsgda_round_and_metric_entry():
    assert c_calls(fedsgda_round()) <= 12  # 15 before the one-row global pair
    assert operations(fedsgda_round()) <= 67  # 81 before
