"""The bit-exact contract: each shipped config's CSV bytes, pinned by SHA-256.

A change that moves any digit of any metric in any round of these runs
fails here. The digests were recorded when the runs were first made
deterministic and have held through every engine change since.
"""

import hashlib
from pathlib import Path

import pytest

from fedmm.cli import parse_config
from fedmm.federation import run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "label_shift_fedavg": "f5f3bb732070802a7a0ff4c87425429613fd693fc4e6ffde4492b85ad2544e40",
    "label_shift_fedmm": "0d8e5017a24d31c7e7239531903c3dd183878265949a865b9b36932939efaf33",
    "quadratic_fedmm": "cebc2d32828e42b67579704e2d771888b681a8dc158aaac4858b0cdcf1c3dfaf",
    "quadratic_fedsgda": "e770d8406a0b50b61163e95de1ce46ec9b7d5212db2312792b9915344e0c692a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_csv_digest(name, monkeypatch):
    monkeypatch.delenv("FEDMM_SEED", raising=False)
    log = run_experiment(parse_config(CONFIGS / f"{name}.cfg"))
    assert hashlib.sha256(log.csv_text().encode()).hexdigest() == GOLDEN[name]
