"""Seeded inputs for the agc benchmark, built with numpy and the stdlib only.

Seed 0 is the identity.  Any other seed relabels the points of every group
by a random permutation and shuffles the order of its generators.  Reports
hold only group invariants, so the stored references hold for every seed.

Run as a script, this is one benchmark set-up: it imports ``agc`` from the
checkout's ``src`` and writes the workload's inputs:

    python3 perfbench/bench_inputs.py --workload corpus --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
WITNESS_FILE = CORPUS / "diameter6-witness.json"
PRODUCT_NAME = "w1500xc2"


def dump_group(name: str | None, degree: int, generators: list[list[int]]) -> str:
    """A group file in the byte format of ``agc.groupfile.serialize_group_file``."""
    obj: dict = {}
    if name is not None:
        obj["name"] = name
    obj["degree"] = degree
    obj["generators"] = generators
    return json.dumps(obj, separators=(",", ":"))


def relabel(degree: int, generators: list[list[int]],
            rng: np.random.Generator) -> list[list[int]]:
    """Conjugate every generator by a random point permutation sigma and
    shuffle the generator order; the result generates an isomorphic group."""
    sigma = rng.permutation(degree)
    out = []
    for k in rng.permutation(len(generators)):
        g = np.asarray(generators[k], np.int64)
        h = np.empty(degree, np.int64)
        h[sigma] = sigma[g]  # h = sigma g sigma^-1
        out.append(h.tolist())
    return out


def seeded(text: str, seed: int, index: int) -> str:
    """The group file ``text`` as the given seed presents it."""
    obj = json.loads(text)
    gens = obj["generators"]
    if seed:
        gens = relabel(obj["degree"], gens, np.random.default_rng([seed, index]))
    return dump_group(obj.get("name"), obj["degree"], gens)


def product_with_c2(witness_text: str) -> str:
    """The order-1500 witness W times C2, acting on 1500 x 2 points.

    Point (i, b) is i + 1500 b.  W's generators act on the first coordinate
    and the swap of the two copies generates C2, so the group has order 3000
    and degree 3000.
    """
    w = json.loads(witness_text)
    n = w["degree"]
    gens = [np.concatenate([g, g + n]).tolist()
            for g in (np.asarray(x, np.int64) for x in w["generators"])]
    gens.append(np.concatenate([np.arange(n, 2 * n), np.arange(n)]).tolist())
    return dump_group(PRODUCT_NAME, 2 * n, gens)


def write_corpus(seed: int, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, src in enumerate(sorted(CORPUS.glob("*.json"))):
        dst = out / src.name
        dst.write_text(seeded(src.read_text(encoding="utf-8"), seed, index),
                       encoding="utf-8")
        paths.append(dst)
    if not paths:
        raise FileNotFoundError(f"no group files in {CORPUS}")
    return paths


def write_product(seed: int, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    dst = out / f"{PRODUCT_NAME}.json"
    text = product_with_c2(WITNESS_FILE.read_text(encoding="utf-8"))
    dst.write_text(seeded(text, seed, 0), encoding="utf-8")
    return dst


def import_agc() -> None:
    """Import agc from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import agc

    if not Path(agc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"agc imported from {agc.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    import_agc()
    if args.workload == "corpus":
        write_corpus(args.seed, args.out)
    elif args.workload == "analyze-3000":
        write_product(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
