"""The bit-exact contract: recorded CSV bytes and `fedmm check` output, pinned by SHA-256.

A change that moves any digit of any metric in any round of these runs
fails here. The digests were recorded when the runs were first made
deterministic and have held through every engine change since. Besides the
four shipped configs they cover each optimizer on both problems, minibatches,
unequal DANN shards in full batches and in minibatches, mixed label shift,
unequal local step counts, run-to-tolerance rounds, and the identity-suite
reports. The standard output of `fedmm check` is pinned too, the numbers in
its rows included, and so are the bytes the problem-file writers write and
the values each shipped config parses to.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fedmm.cli import main, parse_config
from fedmm.core import HyperParams
from fedmm.diagnostics import reports_to_csv, run_identity_suite
from fedmm.federation import prepare, run_experiment
from fedmm.objectives import QuadraticSaddle, save_dataset, save_quadratic_specs
from fedmm.problems import _QUAD_SEED, synthetic_quadratic_specs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "label_shift_fedavg": "f5f3bb732070802a7a0ff4c87425429613fd693fc4e6ffde4492b85ad2544e40",
    "label_shift_fedmm": "0d8e5017a24d31c7e7239531903c3dd183878265949a865b9b36932939efaf33",
    "quadratic_fedmm": "cebc2d32828e42b67579704e2d771888b681a8dc158aaac4858b0cdcf1c3dfaf",
    "quadratic_fedsgda": "e770d8406a0b50b61163e95de1ce46ec9b7d5212db2312792b9915344e0c692a",
}

_KINDS = ("fedmm", "fedsgda", "fedavg_gda", "fedprox_gda", "central_gda")
_QUAD_RUNS = {
    "fedmm": "6671590529280e8179e0595ef301956515501a4c3498300c8d75a61303975ca9",
    "fedsgda": "8bb396e9d7b48f61a69bc3b3199e65f088b00e674d90edd7941dab953ce702b0",
    "fedavg_gda": "c8d3f0db41837cb8f8fa5023d381cf64539b316c0c285547b1b411c21f5fc81b",
    "fedprox_gda": "e6bcabafed4cec1f5d62c8dc08c09bbf80c07b35c3fb279675e4c8534f8e3894",
    "central_gda": "8a3fa03d544856097aec87a63213a2f6d07b303f3ce14859fd686c6f9becf3fe",
}
_DANN_RUNS = {
    "fedmm": "40bd76ccfdec162bed165e2eb8fa988977f62035052efc4057e41f9f075e39df",
    "fedsgda": "422cc36d8c06c807bac9b654e17e80abf5efb53bd74bfd9be3835d9dc0941a29",
    "fedavg_gda": "4679e82d66cbf848e643fb236ce248b23ed020625847c81f3a8247bfba3a7877",
    "fedprox_gda": "f06cb7d1085f41a81b9c299ae750b328af22c46368b835d8cd958d088698dc9a",
    "central_gda": "d8058655650d1da451a88f1a3aea44a4074b5a4c781b32d488d4389cc9e34754",
}

# name -> (config, --set overrides, digest of the run's csv_text())
RUNS = {
    **{
        f"quad_{k}": ("quadratic_fedmm", ["hyper.rounds=200", f"optimizer={k}"], _QUAD_RUNS[k])
        for k in _KINDS
    },
    **{
        f"dann_{k}": (
            "label_shift_fedmm", ["hyper.rounds=40", "metrics_every=10", f"optimizer={k}"],
            _DANN_RUNS[k],
        )
        for k in _KINDS
    },
    "dann_minibatch": (
        "label_shift_fedmm", ["hyper.rounds=40", "batch_size=32"],
        "36e72f56e7134b2fbd53feabf901adf8a002d938f09d56b67e619aa3adc7afe2",
    ),
    "dann_3client": (
        "label_shift_fedmm",
        ["hyper.rounds=40", "partition.mode=one_source_two_target"],
        "037c4bed73d51eac919a050e8922a90fae0d83130f648d3e0250759d70a30714",
    ),
    "dann_3client_minibatch": (
        "label_shift_fedmm",
        ["hyper.rounds=40", "partition.mode=one_source_two_target", "batch_size=45"],
        "ec681ca8aa6f8dcd40eeb57c0bca597160cb576f053afd6d67588de5330230d6",
    ),
    "dann_p05": (
        "label_shift_fedmm", ["partition.p=0.5"],
        "3ed187507e608c9d135d982a76130f08c1cc99ee557a5065340237eecf4b654f",
    ),
    "quad_local_tol": (
        "quadratic_fedmm", ["hyper.local_tol=1e-10", "hyper.rounds=50"],
        "671405c6fc3d9df6e07ae8f404f7565c979597f84ffbcaf3ec01c4c924113eac",
    ),
    "quad_steps_20_20_25": (
        "quadratic_fedmm", ["hyper.local_steps=20,20,25", "hyper.rounds=200"],
        "51131525d53b7bf4ff6c1b076032fde5d041791c5834416d73686ac67556ae80",
    ),
}

# json.dumps(parse_config(cfg).echo(), sort_keys=True) of each file in configs/: every key's value
PARSED = {
    "label_shift_fedavg": "1ac87b2680c48102b584ff7da963e3f3b3f85009869a28ecf545de84076e42bd",
    "label_shift_fedmm": "69598b80ebcca5cf969ecba3aae8c53ce598e0994d3892123c3600762d139aac",
    "quadratic_fedmm": "45e50774e8bf38d8baa61af53af464e77c9cd081ec038936e856d5f39c03f58f",
    "quadratic_fedsgda": "1e7f62c9b5eeabfa6c55a84f35c21bc6f5c4d1c8e023eee364abde4532117a8b",
}

# reports_to_csv of 60 run-to-tolerance FedMM rounds on 8-client quadratics
IDENTITIES = [
    "a8034e28bce15920306246366dc705034c1948c67cbc27259e6e1ae1a316bf92",
    "3a9ec0c31f90f57d4e3f30578feb4cff5422e658cc61e1b37932d309cf7da19c",
    "754bea878bfba3ffcc3d64561736700c0ba4a1ed6d7a1fa7df38e060c56285eb",
    "7bdd0538a56d6ea729c7b38e094f78544b668dc8c703fe0f87d0e17ce8d3f89c",
]

# the standard output of `fedmm check`: every check's row, its numbers included, and status=ok
CHECK_STDOUT = "de25711a61b7291259a7e6342326cdef08f92aafe0f8b5253ae640c1988033d6"


# the files the writers make: the 4-client synthetic quadratic, and the training set of
# label_shift_fedmm.cfg's toy
WRITTEN = {
    "quadratic": "29f364d4d9abe3b87994e00be341f9372fa39e12e7df2536018a5258f727d268",
    "dataset": "6e62028e87a021521fb0f53a5e962099c177af4a9e0cce1d9ffe7da6dbd0dddf",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_csv_digest(name, monkeypatch):
    monkeypatch.delenv("FEDMM_SEED", raising=False)
    log = run_experiment(parse_config(CONFIGS / f"{name}.cfg"))
    assert _digest(log.csv_text()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.cfg")))
def test_shipped_config_parse_digest(name, monkeypatch):
    monkeypatch.delenv("FEDMM_SEED", raising=False)
    echo = parse_config(CONFIGS / f"{name}.cfg").echo()
    assert _digest(json.dumps(echo, sort_keys=True)) == PARSED[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_recorded_run_csv_digest(name, monkeypatch):
    monkeypatch.delenv("FEDMM_SEED", raising=False)
    config, overrides, digest = RUNS[name]
    log = run_experiment(parse_config(CONFIGS / f"{config}.cfg", overrides))
    assert _digest(log.csv_text()) == digest


@pytest.mark.parametrize("k", range(len(IDENTITIES)))
def test_identity_suite_report_digest(k):
    specs = synthetic_quadratic_specs(8, 10, 6, seed=_QUAD_SEED + 64 * k)
    objs = [QuadraticSaddle(s) for s in specs]
    hp = HyperParams(eta1=0.2, eta2=0.2, eta3=1.0, rounds=60)
    reports = run_identity_suite(objs, hp, rounds=60, local_tol=1e-10)
    assert _digest(reports_to_csv(reports)) == IDENTITIES[k]


def test_check_stdout_digest(capsys, monkeypatch):
    monkeypatch.delenv("FEDMM_SEED", raising=False)
    assert main(["check"]) == 0
    assert _digest(capsys.readouterr().out) == CHECK_STDOUT


@pytest.mark.parametrize("kind", sorted(WRITTEN))
def test_written_file_digest(kind, tmp_path, monkeypatch):
    monkeypatch.delenv("FEDMM_SEED", raising=False)
    path = tmp_path / "problem.txt"
    if kind == "quadratic":
        save_quadratic_specs(path, synthetic_quadratic_specs(4))
    else:
        pooled, _ = prepare(parse_config(CONFIGS / "label_shift_fedmm.cfg")).accuracy
        save_dataset(path, pooled.dataset, 2)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITTEN[kind]
