"""Print the sha256 of every output a byte-identity check compares.

    python3 tools/output_digests.py

Runs the CLI of the ``src/`` tree beside this directory, in a temporary
directory, at fixed sizes and seeds:

    gen-dataset  n8m8, 300 draws, seed 7: serially, with --threads 2, and its --csv
    gen-dataset  n12m12, 60 draws, seed 9
    gen-dataset  n8m4, 300 draws, seed 7: N > M, so most size pairs score raw
    gen-dataset  n8m8, 300 draws, seed 7, total_power 10: the config's power reaches the labels
    train        --seed 3 --epochs 3 on the n8m8 dataset, and its --report
    compare      that model on that dataset: SVG, JSON lines, CSV and stdout
    sweep        one n4m8 scenario, 20 draws, seed 31: its dataset, model, three
                 reports and summary.csv

and prints one JSON object mapping each output to its sha256. Two versions
of the program write the same bytes when they print the same object. Each
dataset also gets a ``<name> blob`` digest, the sha256 of its records alone
(the bytes after the header), which a change to the header alone leaves as
it was.

Each dataset and model is also read back with ``data.load`` and
``mlp.load_model`` and written again; the script exits non-zero unless the
second write gives the same bytes, so the readers accept every file the
writers produce.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_round_trip(path: Path) -> None:
    """Exit unless ``path`` reads back and writes again to the same bytes."""
    from hrscluster import data, mlp

    again = path.with_name("again-" + path.name)
    if path.suffix == ".hrsmlp":
        mlp.save_model(mlp.load_model(path), again)
    else:
        data.serialize(data.load(path), again)
    if again.read_bytes() != path.read_bytes():
        raise SystemExit(f"{path.name} does not read back to the same bytes")


def digests(work: Path) -> dict:
    from hrscluster import _binio, cli, data

    def run(*argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run([str(a) for a in argv])
        if rc != 0:
            raise SystemExit(f"hrscluster {' '.join(map(str, argv))} exited with {rc}")
        return out.getvalue()

    configs = {"n8m8": {"users": 8, "antennas": 8, "samples": 300, "seed": 7},
               "n12m12": {"users": 12, "antennas": 12, "samples": 60, "seed": 9},
               "n8m4": {"users": 8, "antennas": 4, "samples": 300, "seed": 7},
               "n8m8-power10": {"users": 8, "antennas": 8, "samples": 300, "seed": 7, "total_power": 10}}
    for name, cfg in configs.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))
    (work / "sweep-configs").mkdir()
    (work / "sweep-configs" / "tiny.json").write_text(
        json.dumps({"name": "tiny", "users": 4, "antennas": 8, "samples": 20, "seed": 31}))
    run("gen-dataset", "--config", work / "n8m8.json", "--out", work / "n8m8.hrsdat", "--csv", work / "n8m8.csv")
    run("--threads", 2, "gen-dataset", "--config", work / "n8m8.json", "--out", work / "n8m8-threads2.hrsdat")
    run("gen-dataset", "--config", work / "n12m12.json", "--out", work / "n12m12.hrsdat")
    run("gen-dataset", "--config", work / "n8m4.json", "--out", work / "n8m4.hrsdat")
    run("gen-dataset", "--config", work / "n8m8-power10.json", "--out", work / "n8m8-power10.hrsdat")
    run("--seed", 3, "train", "--data", work / "n8m8.hrsdat", "--out", work / "model.hrsmlp",
        "--report", work / "report.json", "--epochs", 3)
    stdout = run("compare", "--data", work / "n8m8.hrsdat", "--model", work / "model.hrsmlp", "--out", work / "compare")
    run("sweep", "--configs", work / "sweep-configs", "--out", work / "sweep")
    files = {
        "gen-dataset n8m8": "n8m8.hrsdat",
        "gen-dataset n8m8 --threads 2": "n8m8-threads2.hrsdat",
        "gen-dataset n8m8 --csv": "n8m8.csv",
        "gen-dataset n12m12": "n12m12.hrsdat",
        "gen-dataset n8m4": "n8m4.hrsdat",
        "gen-dataset n8m8 total_power 10": "n8m8-power10.hrsdat",
        "train": "model.hrsmlp",
        "train --report": "report.json",
        "compare svg": "compare/n8m8_boxplot.svg",
        "compare jsonl": "compare/n8m8_rates.jsonl",
        "compare csv": "compare/n8m8_summary.csv",
        "sweep dataset": "sweep/tiny/dataset.hrsdat",
        "sweep model": "sweep/tiny/model.hrsmlp",
        "sweep svg": "sweep/tiny/tiny_boxplot.svg",
        "sweep jsonl": "sweep/tiny/tiny_rates.jsonl",
        "sweep csv": "sweep/tiny/tiny_summary.csv",
        "sweep summary.csv": "sweep/summary.csv",
    }
    out = {}
    for name, rel in files.items():
        out[name] = _sha256((work / rel).read_bytes())
        if rel.endswith(".hrsdat"):
            blob = _binio.read_container(work / rel, data.DATASET_MAGIC, data.DATASET_VERSION)[1]
            out[f"{name} blob"] = _sha256(blob)
    for rel in files.values():
        if rel.endswith((".hrsdat", ".hrsmlp")):
            check_round_trip(work / rel)
    # the stdout names the temporary output directory, which differs per run
    out["compare stdout"] = _sha256(stdout.replace(str(work), "<work>").encode())
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(digests(Path(tmp)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
