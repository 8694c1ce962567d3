"""What a run builds before its first round, and what it builds once.

`prepare` seeds the toy data, the initial pair and the partition from the
config seed's child streams, each built only where it is read, and
`run_experiment` builds the minibatch Generator only in minibatch mode and
one `LocalRound` per run, none for a run of zero rounds.
"""

from pathlib import Path

import numpy as np
import pytest

from fedmm import federation
from fedmm.cli import parse_config
from fedmm.federation import prepare, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config(name, *overrides):
    return parse_config(CONFIGS / name, list(overrides))


@pytest.fixture
def built(monkeypatch):
    """The seed sequences and Generators numpy builds, and the LocalRounds the run loop builds, counted."""
    counts = {"SeedSequence": 0, "Generator": 0, "LocalRound": 0}

    def counting(name, cls, owner):
        def build(*args, **kwargs):
            counts[name] += 1
            return cls(*args, **kwargs)

        monkeypatch.setattr(owner, name, build)

    counting("SeedSequence", np.random.SeedSequence, np.random)
    counting("Generator", np.random.Generator, np.random)
    counting("LocalRound", federation.LocalRound, federation)
    return counts


def test_a_quadratic_problem_seeds_no_stream(built):
    # its instance comes from the fixed quadratic seed (seeded_rng), not from the config seed
    prepare(config("quadratic_fedsgda.cfg"))
    assert built["SeedSequence"] == 0


def test_a_dann_problem_seeds_the_data_init_and_partition_streams(built):
    prepare(config("label_shift_fedmm.cfg"))
    assert built == {"SeedSequence": 3, "Generator": 3, "LocalRound": 0}


def test_each_stream_is_the_spawned_child_of_the_config_seed():
    cfg = config("label_shift_fedmm.cfg", "seed=12345")
    children = np.random.SeedSequence(cfg.seed).spawn(4)
    for i, child in enumerate(children):
        assert np.array_equal(federation._stream(cfg.seed, i).generate_state(8), child.generate_state(8))
    assert np.array_equal(prepare(cfg).batch_seq.generate_state(8), children[3].generate_state(8))


@pytest.mark.parametrize(
    "name, overrides, rounds",
    [
        ("quadratic_fedsgda.cfg", ["hyper.rounds=0"], 0),
        ("quadratic_fedsgda.cfg", ["hyper.rounds=5"], 1),
        ("label_shift_fedmm.cfg", ["hyper.rounds=3", "hyper.local_steps=2"], 1),
        ("label_shift_fedmm.cfg", ["hyper.rounds=3", "hyper.local_steps=2", "batch_size=8"], 1),
    ],
)
def test_a_run_builds_one_round_and_a_minibatch_generator_only_in_minibatch_mode(built, name, overrides, rounds):
    cfg = config(name, *overrides)
    problem = prepare(cfg)
    before = dict(built)
    run_experiment(cfg, problem)
    minibatch = cfg.batch_size > 0
    assert built["LocalRound"] - before["LocalRound"] == rounds
    assert built["Generator"] - before["Generator"] == minibatch
    assert built["SeedSequence"] - before["SeedSequence"] == minibatch
