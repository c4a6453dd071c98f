"""Output checks for the benchmark workloads that do not trust gmtwist.

Every expected value here is computed by this file from closed forms or was
recorded from the seed commit's outputs; nothing is imported from gmtwist.

Run as a script, it checks one finished run and prints one JSON object
``{"problems": [...]}`` (an empty list when the output is correct):

    python3 perfbench/checks.py KIND Q E OUT_PATH

KIND is ``certify`` (OUT_PATH is the certificate) or ``switch`` (OUT_PATH is
the ``.g6`` file; its ``.labels.json`` and ``.partition.json`` sidecars sit
next to it).  The benchmark runs the checks in their own process so that
decoding a large graph never raises the benchmark process's peak RSS: Linux
hands a parent's RSS high-water mark on to every child it spawns afterwards,
which would leak into the children's ``ru_maxrss``.
"""

from __future__ import annotations

import hashlib
import json
import sys

# Verdict keys that pass at the seed commit for both certify workloads.
SEED_PASSING_VERDICTS = (
    "cospectrality",
    "counts",
    "designs.geometric",
    "designs.intersection_sizes",
    "designs.pseudo_geometric",
    "gm_validation",
    "isomorphisms.block_graph_identity",
    "isomorphisms.phi",
    "isomorphisms.psi",
    "polarity_independence",
    "switched_adjacency_rule",
    "transitivity_evidence",
)

# sha256 of the switch outputs at the seed commit; the CLI promises
# byte-deterministic outputs.
SEED_SWITCH_DIGESTS = {
    (4, 2): {
        ".g6": "021310f30d3ed7bcd1361c2529bfee21efa131d185c75979ad6419b1541d6130",
        ".g6.labels.json": "785f45ca78a46e2574604a06e94763075e131990d69413cf553a8591bd28a72a",
        ".g6.partition.json": "1cae7edb971cf07140c76876b19a0ef7c26cbc88ad07828ab399a0523ca57f4d",
    },
}


def q_integer(m: int, q: int) -> int:
    """[m] = (q^m - 1) / (q - 1)."""
    return sum(q**i for i in range(m))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of GF(q)^n, by the recurrence
    [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if not 0 <= k <= n:
        return 0
    row = [1]  # [m, j] for j = 0..m, starting at m = 0
    for m in range(1, n + 1):
        row = [1] + [row[j - 1] + q**j * row[j] for j in range(1, m)] + [1]
    return row[k]


def expected_certificate_values(q: int, e: int) -> dict:
    """Closed forms for J_q(2e+1, e+1) switched into the twisted Grassmann graph."""
    vertices = gaussian_binomial(2 * e + 1, e + 1, q)
    lines_in_h = gaussian_binomial(2 * e, e, q)  # e-subspaces U of the hyperplane H
    a = q**e * lines_in_h  # (e+1)-spaces meeting H in an e-space: q^e per U
    d = gaussian_binomial(2 * e, e + 1, q)  # (e+1)-spaces inside H
    b = gaussian_binomial(2 * e, e - 1, q)
    lagrangians = 1  # totally isotropic e-spaces of Sp(2e, q): cells of size q^e
    for i in range(1, e + 1):
        lagrangians *= q**i + 1
    return {
        "vertices": vertices,
        "A": a,
        "B": b,
        "D": d,
        "size_histogram": {str(q**e): lagrangians, str(2 * q**e): (lines_in_h - lagrangians) // 2},
        "intersection_array": {
            "diameter": e,
            "b": [q ** (2 * j + 1) * q_integer(e + 1 - j, q) * q_integer(e - j, q) for j in range(e)],
            "c": [q_integer(j, q) ** 2 for j in range(1, e + 1)],
        },
        "design": {
            "v": q_integer(2 * e + 1, q),
            "k": q_integer(e + 1, q),
            "lambda": gaussian_binomial(2 * e - 1, e - 1, q),
        },
        "switched_class_sizes": [a, d],
    }


def check_certificate(cert: dict, q: int, e: int) -> list[str]:
    """Problems with a certificate; timings_sec and method fields are ignored."""
    problems: list[str] = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    def get(*path):
        node = cert
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return None
            node = node[key]
        return node

    want = expected_certificate_values(q, e)
    expect("closed forms: |A| + |D|", want["A"] + want["D"], want["vertices"])
    for key in SEED_PASSING_VERDICTS:
        expect(f"verdicts.{key}", get("verdicts", key, "verdict"), "pass")
    expect("overall", get("overall"), "pass")
    expect("params.vertices", get("params", "vertices"), want["vertices"])
    for part in ("A", "B", "D"):
        expect(f"counts.{part}", get("counts", part), want[part])
    histogram = get("counts", "cells", "size_histogram")
    expect("cell-size histogram keys", sorted(histogram or {}), sorted(want["size_histogram"]))
    expect("cell-size histogram", histogram, want["size_histogram"])
    for graph in ("original", "switched", "twisted"):
        expect(f"intersection_arrays.{graph}", get("intersection_arrays", graph), want["intersection_array"])
    for design in ("expected", "geometric", "pseudo_geometric"):
        for field, value in want["design"].items():
            expect(f"designs.{design}.{field}", get("designs", design, field), value)
    expect(
        "transitivity_evidence.switched_class_sizes",
        get("transitivity_evidence", "switched_class_sizes"),
        want["switched_class_sizes"],
    )
    return problems


def graph6_degrees(data: bytes):
    """(n, degree array) of a one-line graph6 file, decoded with numpy."""
    import numpy as np

    line = data.rstrip(b"\n")
    if line[:1] != b"~":
        n, body = line[0] - 63, line[1:]
    elif line[1:2] != b"~":
        n = ((line[1] - 63) << 12) | ((line[2] - 63) << 6) | (line[3] - 63)
        body = line[4:]
    else:
        raise ValueError("graph6 with more than 258047 vertices")
    pairs = n * (n - 1) // 2
    if len(body) != (pairs + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} bytes for n={n}")
    sextets = np.frombuffer(body, dtype=np.uint8) - np.uint8(63)
    if sextets.max(initial=0) > 63:
        raise ValueError("graph6 byte out of range")
    bits = np.unpackbits(sextets[:, None], axis=1)[:, 2:].ravel()[:pairs]
    # Bit t encodes the pair (i, j), i < j, with t = j(j-1)/2 + i.
    t = np.flatnonzero(bits)
    del bits
    starts = np.arange(n, dtype=np.int64) * np.arange(-1, n - 1, dtype=np.int64) // 2
    j = np.searchsorted(starts, t, side="right") - 1
    i = t - starts[j]
    degrees = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    return n, degrees


def check_switch(g6_path: str, q: int, e: int) -> list[str]:
    """Problems with the outputs of `switch --out g6_path`."""
    problems: list[str] = []
    digests = SEED_SWITCH_DIGESTS.get((q, e))
    if digests is None:
        return [f"no seed digests recorded for q={q}, e={e}"]
    base = g6_path[: -len(".g6")]
    for suffix, want in digests.items():
        try:
            with open(base + suffix, "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            problems.append(f"{suffix}: {exc}")
            continue
        if got != want:
            problems.append(f"{suffix}: sha256 {got}, expected {want}")
    try:
        with open(g6_path, "rb") as fh:
            n, degrees = graph6_degrees(fh.read())
    except (OSError, ValueError) as exc:
        return problems + [f"graph6: {exc}"]
    vertices = gaussian_binomial(2 * e + 1, e + 1, q)
    valency = q * q_integer(e + 1, q) * q_integer(e, q)
    if n != vertices:
        problems.append(f"graph6 n = {n}, expected {vertices}")
    if degrees.min() != valency or degrees.max() != valency:
        problems.append(f"graph6 degrees in [{degrees.min()}, {degrees.max()}], expected all {valency}")
    if int(degrees.sum()) // 2 != vertices * valency // 2:
        problems.append(f"graph6 has {int(degrees.sum()) // 2} edges, expected {vertices * valency // 2}")
    return problems


def check_output(kind: str, q: int, e: int, out_path: str) -> list[str]:
    if kind == "switch":
        return check_switch(out_path, q, e)
    try:
        with open(out_path) as fh:
            cert = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"certificate: {exc}"]
    return check_certificate(cert, q, e)


if __name__ == "__main__":
    kind, q, e, out_path = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    print(json.dumps({"problems": check_output(kind, q, e, out_path)}))
