"""Seeded input ladder for the benchmark, built with the standard library only.

The ladder starts from the six fixture documents kept beside this file and
never calls into ``supertrial``, so a bug in the program cannot change the
inputs it is measured on.  Documents use the program's JSON format:

  ds(k)        grassmann2 + dual2^(k-1); identity maps, block-sparse
  dtds(k)      dual2-twisted + grassmann2 + dual2^(k-2); non-identity maps
  tw(k, seed)  ds(k) conjugated by a seeded even unimodular map L
               (L = lower * upper per parity block, off-diagonal entries
               in [-2, 2], redrawn while a block row or column is a unit
               vector); dense

Every function returns plain data; ``render`` turns an algebra into the
document text whose sha256 the pin file records.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = ("zero2", "idem1", "dual2", "dual2-twisted", "grassmann2", "dsum-zero2-idem1")
TAGS = ("left", "right", "perp")

# An algebra is a dict: name, dim, parity (list), left/right/perp
# ({(i, j, k): Fraction}), gamma and xi (lists of Fraction rows).


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")


def load(text: str) -> dict:
    doc = json.loads(text)
    alg = {"name": doc["name"], "dim": doc["dim"], "parity": list(doc["parity"])}
    for tag in TAGS:
        alg[tag] = {(e["i"], e["j"], e["k"]): Fraction(e["v"]) for e in doc.get(tag, [])}
    for key in ("gamma", "xi"):
        alg[key] = [[Fraction(v) for v in row] for row in doc[key]]
    return alg


def render(alg: dict) -> str:
    doc = {"name": alg["name"], "dim": alg["dim"], "parity": alg["parity"]}
    for tag in TAGS:
        doc[tag] = [
            {"i": i, "j": j, "k": k, "v": str(v)} for (i, j, k), v in sorted(alg[tag].items())
        ]
    for key in ("gamma", "xi"):
        doc[key] = [[str(v) for v in row] for row in alg[key]]
    return json.dumps(doc, indent=2) + "\n"


def render_map(matrix: list[list[Fraction]]) -> str:
    doc = {
        "rows": len(matrix),
        "cols": len(matrix[0]),
        "entries": [str(v) for row in matrix for v in row],
    }
    return json.dumps(doc, indent=2) + "\n"


def fixture(name: str) -> dict:
    return load(fixture_text(name))


def _block_diagonal(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n, m = len(a), len(b)
    zero = Fraction(0)
    return [list(row) + [zero] * m for row in a] + [[zero] * n + list(row) for row in b]


def direct_sum(a: dict, b: dict, name: str) -> dict:
    off = a["dim"]
    out = {"name": name, "dim": a["dim"] + b["dim"], "parity": a["parity"] + b["parity"]}
    for tag in TAGS:
        table = dict(a[tag])
        table.update({(i + off, j + off, k + off): v for (i, j, k), v in b[tag].items()})
        out[tag] = table
    for key in ("gamma", "xi"):
        out[key] = _block_diagonal(a[key], b[key])
    return out


def ds(k: int) -> dict:
    alg = fixture("grassmann2")
    for _ in range(k - 1):
        alg = direct_sum(alg, fixture("dual2"), "")
    alg["name"] = f"ds{k}"
    return alg


def dtds(k: int) -> dict:
    alg = direct_sum(fixture("dual2-twisted"), fixture("grassmann2"), "")
    for _ in range(k - 2):
        alg = direct_sum(alg, fixture("dual2"), "")
    alg["name"] = f"dtds{k}"
    return alg


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def apply(m: list[list[Fraction]], v: list[Fraction]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]


def inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of an invertible square matrix."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def unimodular_even_map(parity: list[int], seed: int) -> list[list[Fraction]]:
    """Seeded even map of determinant 1: on each parity block, lower * upper
    unitriangular factors with off-diagonal entries drawn from [-2, 2],
    drawn again while a row or column of the block is a unit vector.

    Such a block leaves a basis vector, or its image, untouched: a tw(2)
    instance then had 13 left-tensor entries instead of 33, and its battery
    ran in half the time of the others.
    """
    rng = random.Random(seed)
    n = len(parity)
    out = [[Fraction(0)] * n for _ in range(n)]
    for p in (0, 1):
        idx = [i for i in range(n) if parity[i] == p]
        size = len(idx)
        while True:
            lower = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
            upper = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
            for i in range(size):
                for j in range(i):
                    lower[i][j] = Fraction(rng.randint(-2, 2))
                    upper[j][i] = Fraction(rng.randint(-2, 2))
            block = matmul(lower, upper)
            lines = block + [list(col) for col in zip(*block)]
            if size == 1 or all(sum(1 for v in line if v) > 1 for line in lines):
                break
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                out[i][j] = block[a][b]
    return out


def conjugate(alg: dict, l: list[list[Fraction]], name: str) -> dict:
    """The Yau twist x o' y = l(l^-1 x o l^-1 y), gamma' = l gamma l^-1."""
    n = alg["dim"]
    linv = inverse(l)
    cols = [[linv[r][c] for r in range(n)] for c in range(n)]
    out = {"name": name, "dim": n, "parity": list(alg["parity"])}
    for tag in TAGS:
        table: dict[tuple[int, int, int], Fraction] = {}
        for i in range(n):
            for j in range(n):
                prod = [Fraction(0)] * n
                for (a, b, k), c in alg[tag].items():
                    if cols[i][a] and cols[j][b]:
                        prod[k] += c * cols[i][a] * cols[j][b]
                for k, v in enumerate(apply(l, prod)):
                    if v:
                        table[(i, j, k)] = v
        out[tag] = table
    for key in ("gamma", "xi"):
        out[key] = matmul(matmul(l, alg[key]), linv)
    return out


def twist_map(k: int, seed: int, instance: int = 0) -> list[list[Fraction]]:
    return unimodular_even_map(ds(k)["parity"], 1000 * seed + 100 * instance + k)


def tw(k: int, seed: int, instance: int = 0) -> dict:
    """The ``instance``-th dense twist of ds(k) for this seed."""
    return conjugate(ds(k), twist_map(k, seed, instance), f"tw{k}")


def scalar_map(n: int, c: int) -> list[list[Fraction]]:
    return [[Fraction(c if i == j else 0) for j in range(n)] for i in range(n)]
