"""Inputs of the train and compare workloads, built once per code version.

Both workloads read the n8m8 acceptance dataset (seed 20240801, 2000 draws)
and compare also reads the classifier trained on it with the fixed 50-epoch
recipe. Building the two takes about 90 s on two cores, so they are built
outside every timed region and cached under
``.bench_build/perfbench/inputs-<key>/``. The key hashes every source file of
the package together with the build recipe: a change to either builds them
again.

``ensure`` builds in a child process (``python3 perfbench/inputs.py DIR``),
so the build does not count toward the benchmark process's peak memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

N8M8 = {"users": 8, "antennas": 8, "samples": 2000, "seed": 20240801}
TINY = {"users": 4, "antennas": 8, "samples": 30, "seed": 11}
EPOCHS = 50
TINY_EPOCHS = 2

DATASET = "dataset.hrsdat"
MODEL = "model.hrsmlp"


def recipe(tiny: bool) -> dict:
    return {"config": TINY if tiny else N8M8, "epochs": TINY_EPOCHS if tiny else EPOCHS}


def cache_key(tiny: bool) -> str:
    digest = hashlib.sha256(json.dumps(recipe(tiny), sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "hrscluster").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure(tiny: bool) -> Path:
    """Directory holding the dataset and model, built first if missing."""
    target = ROOT / ".bench_build" / "perfbench" / f"inputs-{cache_key(tiny)}"
    if not (target / MODEL).is_file():
        cmd = [sys.executable, str(Path(__file__).resolve()), str(target)]
        subprocess.run(cmd + (["--tiny"] if tiny else []), check=True, stdout=sys.stderr)
    return target


def build(target: Path, tiny: bool) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from hrscluster import cli

    spec = recipe(tiny)
    staging = target.with_name(f"{target.name}.tmp{os.getpid()}")
    staging.mkdir(parents=True)
    try:
        (staging / "config.json").write_text(json.dumps(spec["config"]))
        steps = (
            ["gen-dataset", "--config", str(staging / "config.json"), "--out", str(staging / DATASET)],
            ["train", "--data", str(staging / DATASET), "--out", str(staging / MODEL),
             "--epochs", str(spec["epochs"])],
        )
        for argv in steps:
            if cli.run(argv) != 0:
                raise SystemExit(f"building benchmark inputs failed at: hrscluster {argv[0]}")
        os.replace(staging, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="build the cached train/compare inputs")
    parser.add_argument("target")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    build(Path(args.target), args.tiny)
