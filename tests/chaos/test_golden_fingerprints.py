"""Chaos fingerprints are pinned: a refactor must not move a single trace event.

``golden_fingerprints.json`` holds ``run_episode(seed).fingerprint`` for
seeds 0-59 under four configurations (default, ``--shards 2``,
``--shards 2 --cc deterministic``, ``--checkpoint-bytes 4096``).  A PR
that changes none of the system's observable behaviour passes against
the file generated at its parent commit; a PR that changes behaviour on
purpose regenerates the file and says so::

    PYTHONPATH=src python -m tests.chaos.test_golden_fingerprints
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chaos.engine import run_episode
from repro.chaos.schedule import ChaosConfig

GOLDEN = Path(__file__).with_name("golden_fingerprints.json")
SEEDS = range(60)
CONFIGS = {
    "default": ChaosConfig(),
    "shards2": ChaosConfig(shards=2),
    "shards2_deterministic": ChaosConfig(shards=2, cc="deterministic"),
    "checkpoint4096": ChaosConfig(checkpoint_interval_bytes=4096),
}


def fingerprints(config: ChaosConfig) -> list[str]:
    return [run_episode(seed, config).fingerprint for seed in SEEDS]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fingerprints_match_the_golden_file(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    actual = fingerprints(CONFIGS[name])
    moved = [seed for seed, (a, g) in enumerate(zip(actual, golden)) if a != g]
    assert len(actual) == len(golden) and not moved, (
        f"{name}: fingerprints of seeds {moved} differ from {GOLDEN.name}"
    )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: fingerprints(cfg) for name, cfg in sorted(CONFIGS.items())},
                   indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
