"""Dispatch budgets of the hot path: a speed guard that takes no timings.

The local step's cost is interpreter overhead: every numpy call, view and
operator on the small arrays of a step costs about as much as its
arithmetic. These tests count that work in nine places (one batched DANN
gradient on the label-shift toy's two-client view, one DANN gradient on its
three unequal one-source-two-target shards, one quadratic gradient, one
fixed-M FedMM local round on the toy, one FedSGDA round with its
metric-block entry on a three-client quadratic, the flush of a full metric
block of that run, the flush of a full metric block of the label-shift
FedMM run, one central-GDA step on the pooled view of three quadratic
clients, and one run-to-tolerance FedMM round on eight quadratic clients)
and fail when a change makes any of them do more. A round is counted as a
run calls it: its `LocalRound`, which a run builds once, is built before the
count starts. Two counts are taken:

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
from fedmm.federation import MetricsBlock, RunLog, block_rounds, prepare, round_points
from fedmm.objectives import PooledView, QuadraticSaddle, stacked
from fedmm.optim import Federation, LocalRound, OptimizerKind, run_round
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
    fed = Federation.initial(problem.view, problem.init_pair)
    return fed, problem.init_pair, config.hyper.expanded(fed.n)


def test_dann_joint_grads():
    fed, _, _ = toy()
    Z = np.array(fed.Z)
    assert c_calls(lambda: fed.view.joint_grads(Z)) <= 12  # 14 before
    # 76 before; a budget of 57 on a count of 56 before the views took joint rows
    assert operations(lambda: fed.view.joint_grads(Z)) <= 56


def test_unequal_dann_shards_joint_grads():
    # one_source_two_target: shards of 60, 30 and 30 points, one batched pass per shard size
    problem = prepare(parse_config(CONFIGS / "label_shift_fedmm.cfg", ["partition.mode=one_source_two_target"]))
    fed = Federation.initial(problem.view, problem.init_pair)
    Z = np.array(fed.Z)
    assert c_calls(lambda: fed.view.joint_grads(Z)) <= 27  # 157 on the per-row view before
    assert operations(lambda: fed.view.joint_grads(Z)) <= 128  # 131 before the views took joint rows


def test_quadratic_joint_grads():
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3, 2, 2)]
    fed = Federation.initial(objs, PrimalDualPair(zeros(2), zeros(2)))
    Z = np.ones((3, 4))
    assert c_calls(lambda: fed.view.joint_grads(Z)) <= 1  # 1 before
    # 18 before the four matvecs were np.matvec; 24 before the views took joint rows
    assert operations(lambda: fed.view.joint_grads(Z)) <= 14


def test_fixed_m_fedmm_local_round():
    fed, pair, hp = toy()
    assert hp.local_steps == (50, 50) and hp.local_tol == 0.0
    local = LocalRound(OptimizerKind.FEDMM, fed.view, hp)  # built once per run, outside the count

    def round_():
        local(fed, pair)

    # 656 and 3476 as local_solve with its weights cached, before the round was built once per run;
    # 809 and 4476 before that; budgets of 660 and 3527 on these counts before the views took joint rows
    assert c_calls(round_) <= 652
    assert operations(round_) <= 3465


def fedsgda_run():
    """A fresh quad_fedsgda_rounds-shaped FedSGDA run: (federation, server, its round, metric block).

    Three quadratic clients with d1 = 4 and d2 = 3, with the shipped FedSGDA
    config's instance and step sizes, the run's one LocalRound and an empty
    64-round metric block.
    """
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3, 4, 3)]
    pair = PrimalDualPair(zeros(4), zeros(3))
    fed, server = Federation.initial(objs, pair), ServerState(pair)
    hp = HyperParams(eta1=0.1, eta2=0.1).expanded(3)
    return fed, server, LocalRound(OptimizerKind.FEDSGDA, fed.view, hp), MetricsBlock(fed.view, 64, hp.tol)


def fedsgda_round():
    """Round 1 of a fresh FedSGDA run (`fedsgda_run`) and its metric-block entry.

    Round 0 runs here, so that the counted round is not a run's first, as
    every round of a run but one is not.
    """
    fed, server, local, block = fedsgda_run()

    def round_():
        nonlocal fed
        fed = run_round(local, fed, server)
        block.add(server.round, fed, server, False)

    round_()
    return round_


def test_fedsgda_round_and_metric_entry():
    # 12 and 61 before the round was built once per run; 15 calls before the one-row global pair
    assert c_calls(fedsgda_round()) <= 11
    assert operations(fedsgda_round()) <= 55  # 67 before the views took joint rows


def fedsgda_flush():
    """The flush of a full metric block: 64 rounds of a FedSGDA run, phi sampled every 10th round.

    It writes into a fresh RunLog, whose buffer has room for the block, as
    four of every five 64-round flushes of a 4000-round run do.
    """
    fed, server, local, block = fedsgda_run()
    for t in range(64):
        fed = run_round(local, fed, server)
        block.add(t, fed, server, t % 10 == 0)
    log = RunLog()
    return lambda: block.flush(log)


def test_metric_block_flush():
    # 56 and 228 before the flush appended its block's records to the log in one call;
    # 60 and 229 before the flush wrote straight into the log's columns;
    # 52 and 228 before the views took joint rows; 49 and 217 before the per-row products
    # were np.vecdot, np.vecmat and np.matvec
    assert c_calls(fedsgda_flush()) <= 49
    assert operations(fedsgda_flush()) <= 178


def dann_flush():
    """The flush of a full metric block of the label-shift FedMM run: 9 rounds, phi sampled on the first.

    A warm-up block of the same kind is flushed first, so the counted flush
    finds built whatever a run's first flush builds.
    """
    config = parse_config(CONFIGS / "label_shift_fedmm.cfg", [])
    problem = prepare(config)
    hp = config.hyper.expanded(problem.view.n)
    fed, server = Federation.initial(problem.view, problem.init_pair), ServerState(problem.init_pair)
    size = block_rounds(round_points(problem.view, problem.accuracy), sum(problem.view.dims))
    assert size == 9
    block, log = MetricsBlock(fed.view, size, hp.tol, problem.accuracy), RunLog()
    local = LocalRound(OptimizerKind.FEDMM, fed.view, hp)
    for t in range(2 * size):
        fed = run_round(local, fed, server)
        block.add(t, fed, server, t % size == 0)
        if t == size - 1:
            block.flush(log)
    return lambda: block.flush(log)


def test_dann_metric_block_flush():
    # 239 and 616 before the curvature bounds came from one call of the clients' view;
    # 201 and 594 before the views took joint rows; 495 operations before row_dot was np.vecdot
    assert c_calls(dann_flush()) <= 182
    assert operations(dann_flush()) <= 486


def test_central_gda_step_on_the_pooled_view():
    # central GDA on three quadratic clients (d1 = 4, d2 = 3), as prepare() builds it
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(3, 4, 3)]
    pair = PrimalDualPair(zeros(4), zeros(3))
    fed = Federation.initial(PooledView(stacked(objs)), pair)
    hp = HyperParams(eta1=0.1, eta2=0.1).expanded(1)
    local = LocalRound(OptimizerKind.CENTRAL_GDA, fed.view, hp)  # built once per run, outside the count

    def step():
        local(fed, pair)
    # 6 and 43 as local_solve with its weights cached, before the round was built once per run;
    # 19 calls on the per-row view of a pooled MeanObjective before; 74 operations, then 47
    # before the views took joint rows
    assert c_calls(step) <= 5
    assert operations(step) <= 37


def test_run_to_tolerance_fedmm_round():
    # quad_tol_identities' shape: 8 quadratic clients, d1 = 10, d2 = 6, local_tol = 1e-10;
    # round 1 of a run from zero, so the duals are no longer zero: 129 local steps
    objs = [QuadraticSaddle(s) for s in synthetic_quadratic_specs(8, 10, 6)]
    pair = PrimalDualPair(zeros(10), zeros(6))
    hp = HyperParams(eta1=0.2, eta2=0.2, eta3=1.0, local_tol=1e-10).expanded(8)
    fed, server = Federation.initial(objs, pair), ServerState(pair)
    local = LocalRound(OptimizerKind.FEDMM, fed.view, hp)
    fed = run_round(local, fed, server)

    def round_():
        local(fed, server.global_pair, server.round)

    # 392 and 6158 as local_solve with its weights cached, before the round was built once per
    # run and the per-row products were np.vecdot, np.vecmat and np.matvec
    assert c_calls(round_) <= 391
    assert operations(round_) <= 4979
